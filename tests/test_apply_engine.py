"""The apply engine and the sample test's per-state norms, bit for bit.

``family_apply`` and ``diagonal_apply`` (and calling a channel) run one
engine, ``channels._apply``, in two stages: the pair sectors, then the
output diagonal, with a family member's signed zero added in between.
The sample test runs the stages itself: the output diagonals once per
draw of unit vectors v, from v conj(v), and the pair sectors once per
projector stack, without a pair weight that is zero throughout.  The
oracles below are the bodies the public functions had before, summing
the dense terms c I and 2p d(S).  Equal ``tobytes()`` also pins the signs
of zeros, which those terms set off the diagonal.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import verification
from qchan.channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    diagonal_apply,
    diagonal_image,
    family_apply,
    family_to_diagonal,
    random_pure_state,
)
from qchan.verification import param_range

DIMS = [2, 3, 5]


def dense_family_apply(ch, s):
    """family_apply as it summed p S (or p S^T), (1-p)/n Tr(S) I and 2p d(S)."""

    s = np.asarray(s, dtype=complex)
    n, p = ch.dim, ch.p
    trace = np.trace(s, axis1=-2, axis2=-1)
    uniform = ((1 - p) / n * trace)[..., None, None] * np.eye(n, dtype=complex)
    if ch.family is Family.DEP:
        return p * s + uniform
    s_t = np.swapaxes(s, -1, -2)
    if ch.family is Family.TRD:
        return p * s_t + uniform
    d = np.diagonal(s, axis1=-2, axis2=-1)
    embedded = np.zeros(d.shape + (n,), dtype=complex)
    idx = np.arange(n)
    embedded[..., idx, idx] = d
    diag_part = 2 * p * embedded
    if ch.family is Family.DCQ:
        return -p * s + uniform + diag_part
    return -p * s_t + uniform + diag_part


def dense_diagonal_apply(ch, s):
    """diagonal_apply as it formed a S + b S^T, then overwrote the diagonal."""

    s = np.asarray(s, dtype=complex)
    a, b = ch.pair_weights
    out = a * s
    out += b * np.swapaxes(s, -1, -2)
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


@pytest.mark.parametrize("n", DIMS)
def test_family_engine_is_the_dense_sum(n):
    for ch in family_members(n):
        assert_engine(ch, family_apply, dense_family_apply)


@pytest.mark.parametrize("n", DIMS)
def test_diagonal_engine_is_the_dense_sum(n):
    for ch in diagonal_members(n):
        assert_engine(ch, diagonal_apply, dense_diagonal_apply)


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


# 1 and 1 << 16 are one-state and small stacks; 1 << 20 and 1 << 22 put up to
# 65536 and 262144 entries in one stack, far past the 16384 at which a
# whole-stack np.linalg.norm(axis=(-2, -1)) stops giving each state's bits.
@given(channels(), st.integers(1, 80), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 1 << 16, 1 << 20, 1 << 22]))
@settings(max_examples=60, deadline=None)
def test_sample_norms_are_the_one_state_norms(ch, samples, seed, chunk_bytes):
    n = ch.dim
    seen = []

    def keep(norms, *args):
        seen.append(norms)
        return spread_report(norms, *args)

    spread_report = verification._norm_spread_report
    with mock.patch.object(verification, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(verification, "_norm_spread_report", keep):
        verification.constant_fnorm_sample_test(ch, n, samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    states = (random_pure_state(n, rng)[None] for _ in range(samples))
    expected = [np.linalg.norm(ch(state), axis=(-2, -1))[0] for state in states]
    (norms,) = seen
    assert norms[n * n :].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "ch, samples, seed",
    [
        (FamilyChannel(Family.TCQ, 0.01, 20), 200, 0),  # 80000 entries in one stack
        (FamilyChannel(Family.TCQ, 0.01, 20), 200, 3),
        (FamilyChannel(Family.TRD, 0.0125, 8), 400, 1),  # 25600 entries
    ],
)
def test_large_stack_norms_are_the_one_state_norms(ch, samples, seed):
    test_sample_norms_are_the_one_state_norms.hypothesis.inner_test(ch, samples, seed, 1 << 22)


# The sample test's output diagonals rest on this: the diagonal of |v><v|
# is v conj(v), and its trace is add.reduce of that, as np.trace sums it.
@pytest.mark.parametrize(
    "n, samples", [(2, 50), (3, 50), (9, 50), (17, 50), (64, 20), (129, 8), (500, 3)]
)
def test_projector_diagonals_and_traces_come_from_the_vectors(n, samples):
    for v in verification._haar_vectors(n, samples, n):
        projectors = v[:, :, None] * v.conj()[:, None, :]  # as the sample test builds them
        d = v * v.conj()
        traces = np.add.reduce(d, axis=-1)
        assert_same_bits(d, np.diagonal(projectors, axis1=-2, axis2=-1))
        assert_same_bits(traces, np.trace(projectors, axis1=-2, axis2=-1))
        for i, projector in enumerate(projectors):  # one state, as the apply engine sums it
            assert_same_bits(projector, np.outer(v[i], v[i].conj()))
            assert traces[i].tobytes() == np.trace(projector).tobytes()
