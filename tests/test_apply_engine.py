"""The apply engine, bit for bit, and the sample test's per-state norms, to rounding.

``family_apply`` and calling a channel run one engine, ``diagonal_apply``,
in two stages: the pair sectors, then the output diagonal.  A family
member is a ``DiagonalChannel`` of its multipliers, so its bits are those
of ``family_to_diagonal`` of it; the closed form it agrees with to
rounding is ``dense_oracles.dense_family_apply``.  The diagonal channels'
oracle below is the body ``diagonal_apply`` had before; equal
``tobytes()`` also pins the signs of zeros.

The sample test builds no projector: it sums each Haar state's squared
norm as quadratic forms in the real and imaginary parts of v, and re-sums
a state from its projector where those forms cancel.  Its per-state norms
agree with ``dense_oracles.per_state_sample_test``'s within the rounding
bound of ``dense_oracles.sample_rounding_bounds``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import sampling, verification
from qchan.channels import (
    DiagonalChannel,
    FamilyChannel,
    diagonal_apply,
    diagonal_image,
    family_apply,
    family_to_diagonal,
)
from qchan.exact import Family, param_range
from qchan.linalg import frobenius_norm

from dense_oracles import (
    assert_is_the_closed_form,
    assert_same_extremes,
    assert_sample_norms_agree,
    frozen_pair_weights,
    per_state_haar_norms,
    per_state_sample_test,
    sample_norms,
    sample_rounding_bounds,
    sample_vectors,
)

DIMS = [2, 3, 5]


def dense_diagonal_apply(ch, s):
    """diagonal_apply with dense n x n pair weights, then the diagonal overwritten.

    Where t_x and t_y are constant and a = (t_x + t_y)/2 or b = (t_x - t_y)/2
    is zero, the pair sectors are a S + b S^T; otherwise they are
    t_x (S + S^T)/2 + t_y (S - S^T)/2, with S halved first.
    """

    s = np.asarray(s, dtype=complex)
    n, x, y = ch.dim, ch.t_x, ch.t_y
    constant = np.unique(x.view(np.int64)).size == np.unique(y.view(np.int64)).size == 1
    if constant and (x[0] + y[0] == 0 or x[0] - y[0] == 0):
        a, b = frozen_pair_weights(ch)
        out = a * s
        out += b * np.swapaxes(s, -1, -2)
    else:
        t_x, t_y = np.zeros((2, n, n))
        k, l = np.triu_indices(n, 1)
        t_x[k, l] = t_x[l, k] = x
        t_y[k, l] = t_y[l, k] = y
        half = s / 2
        out = t_x * (half + np.swapaxes(half, -1, -2)) + t_y * (half - np.swapaxes(half, -1, -2))
    idx = np.arange(ch.dim)
    out[..., idx, idx] = diagonal_image(ch, s[..., idx, idx])
    return out


def inputs(n):
    """Zero, signed-zero, diagonal and generic inputs, some with -0.0 entries."""

    rng = np.random.default_rng(n)
    zero = np.zeros((n, n), dtype=complex)
    cases = [zero, -zero]
    for part in ("real", "imag"):
        m = zero.copy()
        getattr(m, part)[:] = -0.0
        cases.append(m)
    cases.append(np.diag(rng.standard_normal(n)).astype(complex))
    cases.append(np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    m = np.diag(-np.abs(rng.standard_normal(n))).astype(complex)
    m.imag[:] = -0.0
    cases.append(m)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    cases.append(g)
    m = g.copy()
    m[rng.random((n, n)) < 0.5] = -0.0
    cases.append(m)
    for _ in range(12):  # every sign of zero next to +-1, in both parts
        m = zero.copy()
        m.real = rng.choice([0.0, -0.0, 1.0, -1.0], (n, n))
        m.imag = rng.choice([0.0, -0.0, 1.0, -1.0], (n, n))
        cases.append(m)
    return cases


def family_members(n):
    for family in Family:
        r = param_range(family, n)
        for p in (float(r.p_min), float(r.p_max), 0.0, -0.0, 1e-9, -1e-9, 1e-300, -1e-300):
            yield FamilyChannel(family, p, n)


def diagonal_members(n):
    rng = np.random.default_rng(100 + n)
    t = rng.uniform(-0.5, 0.5, n * n - 1)
    t[::3] = -0.0
    yield DiagonalChannel(n, t)
    yield DiagonalChannel(n, np.zeros(n * n - 1))
    yield DiagonalChannel(n, -np.abs(t))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def nan_filled(shape, dtype=float):
    return np.full(shape, np.nan, dtype=dtype)


def assert_engine(ch, apply, oracle):
    cases = inputs(ch.dim)
    stack = np.array(cases)
    for s in [*cases, stack, stack[:3], stack.reshape(-1, 1, ch.dim, ch.dim)]:
        want = oracle(ch, s)
        assert_same_bits(apply(ch, s), want)
        assert_same_bits(ch(s), want)
        # The engine allocates its output with np.empty; any entry left unwritten shows.
        with mock.patch.object(np, "empty", nan_filled):
            assert_same_bits(apply(ch, s), want)


def member_as_diagonal(ch, s):
    return diagonal_apply(family_to_diagonal(ch), s)


@pytest.mark.parametrize("n", DIMS)
def test_family_engine_is_the_dense_sum(n):
    for ch in family_members(n):
        assert_engine(ch, family_apply, member_as_diagonal)
        for s in inputs(n):
            assert_is_the_closed_form(ch, s, family_apply(ch, s))


@given(
    st.sampled_from(list(Family)),
    st.floats(-1e100, 1e100),
    st.integers(2, 8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_family_member_is_the_closed_form_to_rounding(family, p, n, seed):
    ch = FamilyChannel(family, p, n)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    assert_is_the_closed_form(ch, s, family_apply(ch, s))


@pytest.mark.parametrize("n", DIMS)
def test_diagonal_engine_is_the_dense_sum(n):
    for ch in diagonal_members(n):
        assert_engine(ch, diagonal_apply, dense_diagonal_apply)


@pytest.mark.parametrize(
    "t",
    [
        [1.0, 1e16, 0.0],
        [1e16, 1.0, 0.5],
        [1.0, 2.0, -3.0, 1e16, -1e20, 3e-10, 0.1, 0.2],
        [1e-20, -1e-20, 1e-20, 1e100, 1e100, 1e100, 0.0, -0.0],  # constant t_x and t_y, a and b both nonzero
    ],
)
def test_a_pair_sector_is_kept_next_to_a_much_larger_one(t):
    # The x part of a pair is t_x times the symmetric part of (S_kl, S_lk), and
    # the y part t_y times the antisymmetric one; neither is lost in the other.
    ch = DiagonalChannel(int(np.sqrt(len(t) + 1)), t)
    n = ch.dim
    k, l = np.triu_indices(n, 1)
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    symmetric, antisymmetric = g + g.T, g - g.T
    assert (ch(symmetric)[k, l] == ch.t_x * symmetric[k, l]).all()
    assert (ch(antisymmetric)[k, l] == ch.t_y * antisymmetric[k, l]).all()
    if t == [1.0, 1e16, 0.0]:
        assert ch(np.full((2, 2), 0.5)).tolist() == [[0.5, 0.5], [0.5, 0.5]]


@st.composite
def channels(draw):
    """Family members, the same as diagonal channels (b = 0 for dep and dcq,
    a = 0 for trd and tcq), t = 0, and dense random t."""

    n = draw(st.integers(2, 100))
    kind = draw(st.sampled_from(["family", "family_to_diagonal", "zero", "random"]))
    if kind == "zero":
        return DiagonalChannel(n, np.zeros(n * n - 1))
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        return DiagonalChannel(n, np.random.default_rng(seed).uniform(-0.5, 0.5, n * n - 1))
    family = draw(st.sampled_from(list(Family)))
    r = param_range(family, n)
    p = draw(st.sampled_from([float(r.p_min), float(r.p_max), 0.01, -0.01, 0.0]))
    ch = FamilyChannel(family, p, n)
    return ch if kind == "family" else family_to_diagonal(ch)


# 1 draws one state at a time (a one-row product takes another BLAS kernel);
# 1 << 16 draws small stacks, and 1 << 20 and 1 << 22 every state in one.
@given(channels(), st.integers(1, 80), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 1 << 16, 1 << 20, 1 << 22]))
@settings(max_examples=60, deadline=None)
def test_sample_norms_are_the_one_state_norms(ch, samples, seed, chunk_bytes):
    n = ch.dim
    with mock.patch.object(sampling, "_CHUNK_BYTES", chunk_bytes):
        _, (got,) = sample_norms(lambda: verification.constant_fnorm_sample_test(ch, n, samples, seed))
    want = per_state_haar_norms(ch, n, samples, seed)
    bounds = sample_rounding_bounds(ch, sample_vectors(n, samples, seed, witness=False))
    assert_sample_norms_agree(got[n * n :], want, bounds)


@pytest.mark.parametrize(
    "ch, samples, seed",
    [
        (FamilyChannel(Family.TCQ, 0.01, 20), 200, 0),  # 200 states in one draw
        (FamilyChannel(Family.TCQ, 0.01, 20), 200, 3),
        (FamilyChannel(Family.TRD, 0.0125, 8), 400, 1),
    ],
)
def test_large_stack_norms_are_the_one_state_norms(ch, samples, seed):
    test_sample_norms_are_the_one_state_norms.hypothesis.inner_test(ch, samples, seed, 1 << 22)


@pytest.mark.parametrize("n, samples, seed", [(2, 30, 0), (3, 20, 5), (6, 10, 2)])
def test_haar_norms_are_the_oracles_haar_part(n, samples, seed):
    ch = DiagonalChannel(n, np.random.default_rng(n).uniform(-0.5, 0.5, n * n - 1))
    _, (norms,) = sample_norms(lambda: per_state_sample_test(ch, n, samples, seed))
    assert norms[n * n :].tobytes() == per_state_haar_norms(ch, n, samples, seed).tobytes()


# The sample test's P, and so its output diagonals, rest on this: the
# diagonal of |v><v| is v conj(v), and its trace is add.reduce of that, as
# np.trace sums it.  The qubit check builds its projectors as below.
@pytest.mark.parametrize(
    "n, samples", [(2, 50), (3, 50), (9, 50), (17, 50), (64, 20), (129, 8), (500, 3)]
)
def test_projector_diagonals_and_traces_come_from_the_vectors(n, samples):
    for v in sampling._haar_vectors(n, samples, n):
        projectors = v[:, :, None] * v.conj()[:, None, :]
        d = v * v.conj()
        traces = np.add.reduce(d, axis=-1)
        assert_same_bits(d, np.diagonal(projectors, axis1=-2, axis2=-1))
        assert_same_bits(traces, np.trace(projectors, axis1=-2, axis2=-1))
        for i, projector in enumerate(projectors):  # one state, as the apply engine sums it
            assert_same_bits(projector, np.outer(v[i], v[i].conj()))
            assert traces[i].tobytes() == np.trace(projector).tobytes()


# --- the cancellation guard ---------------------------------------------------
#
# The sample test's Delta = t_x^2 - t_y^2 terms are signed.  Where a state's
# sum keeps at most 2^-10 of its absolute terms, the test re-sums it from its
# projector; these cases put multipliers up to the 1e100 magnitude bound on
# channels of unequal moduli.


@st.composite
def unequal_moduli(draw):
    """A diagonal channel at n <= 8 whose multiplier moduli span up to 1e100, with t_x^2 != t_y^2."""

    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.floats(0, 100))
    t = rng.choice([-1.0, 1.0], n * n - 1) * 10.0 ** rng.uniform(-3, top, n * n - 1)
    if draw(st.booleans()):
        t[n * (n - 1) :] = 0  # no z-sector: the output diagonal is I / n
    return DiagonalChannel(n, t)


@given(unequal_moduli(), st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sample_norms_at_unequal_moduli_up_to_the_bound(ch, samples, seed):
    n = ch.dim
    fast, (got,) = sample_norms(lambda: verification.constant_fnorm_sample_test(ch, n, samples, seed))
    oracle, (want,) = sample_norms(lambda: per_state_sample_test(ch, n, samples, seed))
    assert not np.isnan(got).any()
    # The witness states' norms come from suffix sums, not from the quadratic forms (see below).
    bounds = sample_rounding_bounds(ch, sample_vectors(n, samples, seed, witness=False))
    assert_sample_norms_agree(got[n * n :], want[n * n :], bounds)
    assert fast.passed is oracle.passed is False


@st.composite
def multiplier_vectors(draw):
    """A diagonal channel at n <= 12 whose multiplier moduli span 1e-3 to up to 1e100; some act on the z sector alone."""

    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.floats(-3, 100))
    t = rng.choice([-1.0, 1.0], n * n - 1) * 10.0 ** rng.uniform(-3, top, n * n - 1)
    if draw(st.booleans()):
        t[: n * (n - 1)] = 0  # z only: every output is diagonal
    return DiagonalChannel(n, t)


@given(multiplier_vectors(), st.integers(0, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_every_sample_norm_is_within_the_rounding_bound(ch, samples, seed):
    # Witness and Haar states alike: the witness norms' suffix sums and the
    # staircase terms sum_j c_j u_j^2 stay within the rounding bound for
    # moduli up to the 1e100 magnitude bound.
    n = ch.dim
    _, (got,) = sample_norms(lambda: verification.constant_fnorm_sample_test(ch, n, samples, seed))
    _, (want,) = sample_norms(lambda: per_state_sample_test(ch, n, samples, seed))
    assert_sample_norms_agree(got, want, sample_rounding_bounds(ch, sample_vectors(n, samples, seed)))


def test_cancelling_states_are_summed_from_their_projectors():
    # At t = (1e100, 0, 0), |v><v| with v = (1, i e^{i theta}) / sqrt(2) has
    # squared norm 1/2 + 1e200 sin(theta)^2 / 2, and the quadratic forms give
    # it as 5e199 - 5e199 + ...: every draw below is summed from its projector.
    ch = DiagonalChannel(2, np.array([1e100, 0.0, 0.0]))
    theta = np.array([0.0, 1e-100, 3e-101, 1e-90, 1e-60, 1e-20, 1e-9, 1e-5])
    v = np.stack([np.ones_like(theta), 1j * np.exp(1j * theta)], axis=1) / np.sqrt(2)
    with mock.patch.object(verification, "_haar_vectors", lambda n, samples, seed: iter([v.copy()])):
        _, (got,) = sample_norms(lambda: verification.constant_fnorm_sample_test(ch, 2, len(v)))
    want = [frobenius_norm(ch(np.outer(u, u.conj()))) for u in v]
    assert np.allclose(got[4:], want, rtol=1e-14, atol=0)
    assert np.allclose(got[4:6], [np.sqrt(0.5), 1.0], rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "n, samples, t",
    [
        # The cancelling qubit channel over Haar draws.
        (2, 1000, np.array([1e100, 0.0, 0.0])),
        # One pair at the bound: about 3 % of Haar draws are re-summed.
        (64, 100, np.concatenate([[1e100], np.linspace(0.01, 0.02, 64 * 63 - 1), np.full(63, 0.01)])),
        # Random moduli up to the bound on the x and y sectors.
        (64, 100, np.concatenate(
            [np.random.default_rng(8).choice([-1.0, 1.0], 64 * 63) * 10.0 ** np.random.default_rng(9).uniform(-3, 100, 64 * 63),
             np.zeros(63)])),
    ],
    ids=["n2-cancelling", "n64-one-pair", "n64-random"],
)
def test_unequal_moduli_fail_and_name_the_oracles_states(n, samples, t):
    ch = DiagonalChannel(n, t)
    fast, (got,) = sample_norms(lambda: verification.constant_fnorm_sample_test(ch, n, samples, 0))
    oracle, (want,) = sample_norms(lambda: per_state_sample_test(ch, n, samples, 0))
    bounds = sample_rounding_bounds(ch, sample_vectors(n, samples, 0))
    assert not np.isnan(got).any()
    assert_sample_norms_agree(got, want, bounds)
    assert fast.passed is oracle.passed is False
    assert_same_extremes(got, want, bounds)
