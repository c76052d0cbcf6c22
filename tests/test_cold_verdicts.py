"""The verdicts on fresh channel objects keep the bits of their frozen bodies.

``is_cptp`` reads D from two n-vectors (``channels._choi_blocks``: its
lower triangle L, and its diagonal G on the classical block's diagonal)
rather than from ``diagonal_image`` of the identity, and a and b from the
multipliers, with no n x n buffer of Choi data.  D is symmetric, so its
upper triangle is L too: the lower triangle and the diagonal keep the
frozen bits, and the frozen upper triangle, which ``diagonal_image``
rounds another way, is held to them to rounding in ``test_channels.py``.
``diagonal_image`` runs with fewer temporaries, and
``_witness_norms`` takes its index arithmetic per dimension.  Each must
give ``repr``-equal reports and ``tobytes()``-equal arrays to the bodies
it replaced (``dense_oracles.frozen_*``), while ``dense_is_cptp`` still
decides the CP verdicts independently.  The Choi norm that scales the CP
threshold is printed nowhere; is_cptp takes it as sqrt(1 + |t|^2), which
is pinned as computed and held to the Frobenius norm of the frozen
(D, a, b) data, and of the dense Choi matrix, to rounding.
"""

import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import channels, representations, verification
from qchan.channels import DiagonalChannel, FamilyChannel, diagonal_image, family_to_diagonal
from qchan.exact import Family, Tolerance, param_range
from qchan.linalg import _pair_index, _pair_plane, frobenius_norm
from qchan.verification import constant_fnorm_criterion, constant_fnorm_sample_test, is_cptp

from dense_oracles import (
    dense_is_cptp,
    frozen_classical_block,
    frozen_diagonal_image,
    frozen_is_cptp,
    frozen_pair_weights,
    frozen_sample_path,
    frozen_witness_norms,
    witness_norms,
)

ROOT = Path(__file__).resolve().parents[1]


def members(n):
    """Each family at p_min, at p_max and 0.01 beyond each, as members and as plain diagonal channels."""

    out = []
    for family in Family:
        r = param_range(family, n)
        for p in (r.p_min, r.p_max, r.p_min - 0.01, r.p_max + 0.01):
            member = FamilyChannel(family, p, n)
            out += [member, family_to_diagonal(member)]
    return out


def assembled_d(ch):
    """D of ``ch`` from ``_choi_blocks``: L at (l, k) and at (k, l), G (the classical block's diagonal) on the diagonal."""

    block, lower = channels._choi_blocks(ch)
    return _pair_plane(ch.dim, lower[_pair_index(ch.dim)[1]], np.diagonal(block))


def assert_lower_keeps_the_frozen_bits(ch, d):
    """D of ``ch`` is symmetric, and its lower triangle and diagonal are ``tobytes()``-equal to ``d``'s."""

    got = assembled_d(ch)
    assert np.tril(got).tobytes() == np.tril(d).tobytes()
    assert np.triu(got).tobytes() == np.tril(got).T.tobytes()


def choi_norm(ch):
    """sqrt(1 + |t|^2), the Frobenius norm of the Choi matrix."""

    return math.hypot(1.0, frobenius_norm(ch.t))


def assert_rounding_close(got, want, n):
    """|got - want| within the rounding of two sums of at most 3 n^2 squares: 4 n^2 eps relative.

    Summing constant squares such as (1/n)^2 leaves an error of several ulps by n = 50.
    """

    assert abs(got - want) <= 4 * n * n * np.finfo(float).eps * want, (got, want)


def assert_frozen_bits(make, samples=20, seed=3):
    """Every piece of the cold path on fresh objects from ``make()`` against the frozen bodies."""

    ch = make()
    n = ch.dim
    scales = []
    bound = Tolerance.bound
    with mock.patch.object(Tolerance, "bound", lambda tol, scale: scales.append(scale) or bound(tol, scale)):
        report = is_cptp(ch, n)
    assert repr(report) == repr(frozen_is_cptp(make(), n))
    block, d = frozen_classical_block(make())
    a, b = frozen_pair_weights(make())
    assert [scale.hex() for scale in scales] == [choi_norm(make()).hex()]  # the CP bound, and no trace bound
    assert_rounding_close(scales[0], frobenius_norm(np.stack([d, a, b])), n)
    assert_lower_keeps_the_frozen_bits(make(), d)
    assert channels._choi_blocks(make())[0].tobytes() == block.tobytes()
    assert witness_norms(make()).tobytes() == frozen_witness_norms(make()).tobytes()
    got = constant_fnorm_sample_test(make(), n, samples=samples, seed=seed)
    with frozen_sample_path():
        old = constant_fnorm_sample_test(make(), n, samples=samples, seed=seed)
    assert repr(got) == repr(old)


@pytest.mark.parametrize("n", range(2, 25))
def test_members_at_their_endpoints_keep_the_frozen_bits(n):
    for ch in members(n):
        assert_frozen_bits(lambda: ch.__class__(*ch._values()))


@st.composite
def large_channels(draw, max_dim=24):
    """Diagonal channels at n = 2..max_dim, moduli up to the 1e100 bound, signed zeros and z-only ones included."""

    n = draw(st.integers(min_value=2, max_value=max_dim))
    scale = draw(st.sampled_from([1 / (n * n), 1.0, 1e16, 1e100]))
    t = draw(arrays(float, n * n - 1, elements=st.floats(-1, 1))) * scale
    if draw(st.booleans()):
        t[: n * (n - 1)] = 0.0
    return DiagonalChannel(n, t)


@given(large_channels())
@settings(max_examples=120, deadline=None)
def test_diagonal_channels_keep_the_frozen_bits(ch):
    assert_frozen_bits(lambda: DiagonalChannel(ch.dim, ch.t))


@st.composite
def classical_channels(draw):
    """Diagonal channels at n = 2..64, moduli up to the 1e100 bound, with 0.0 and -0.0 among t_z,
    and family members at p = 0 and at both exact ends of their CPTP range."""

    n = draw(st.integers(min_value=2, max_value=64))
    if draw(st.booleans()):
        family = draw(st.sampled_from(list(Family)))
        r = param_range(family, n)
        return FamilyChannel(family, draw(st.sampled_from([0.0, r.p_min, r.p_max])), n)
    scale = draw(st.sampled_from([1e-20, 1 / (n * n), 1.0, 1e16, 1e100]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = rng.uniform(-1, 1, n * n - 1) * scale
    z = t[n * (n - 1) :]
    zeros = rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    z[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return DiagonalChannel(n, t)


@given(classical_channels())
@settings(max_examples=150, deadline=None)
def test_choi_data_from_two_vectors_keeps_the_frozen_bits(ch):
    n = ch.dim
    fresh = lambda: ch.__class__(*ch._values())
    d = frozen_diagonal_image(fresh(), np.eye(n))
    assert_lower_keeps_the_frozen_bits(fresh(), d)
    assert repr(is_cptp(fresh(), n)) == repr(frozen_is_cptp(fresh(), n))
    assert_rounding_close(choi_norm(fresh()), frobenius_norm(np.stack([d, *frozen_pair_weights(fresh())])), n)


@st.composite
def bounded_channels(draw):
    """Diagonal channels at n = 2..64, moduli up to the 1e100 bound: random, all 1e100, or 1e100 with random signs."""

    n = draw(st.integers(min_value=2, max_value=64))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["random", "all", "signed"]))
    if kind == "random":
        return DiagonalChannel(n, rng.uniform(-1, 1, n * n - 1) * draw(st.sampled_from([1e-300, 1.0, 1e50, 1e100])))
    t = np.full(n * n - 1, 1e100)
    return DiagonalChannel(n, t * rng.choice([-1.0, 1.0], n * n - 1) if kind == "signed" else t)


@given(bounded_channels())
@example(DiagonalChannel(64, np.full(64 * 64 - 1, 1e100)))
@example(FamilyChannel(Family.DCQ, -1e100, 64))
@settings(max_examples=100, deadline=None)
def test_cp_scale_is_hypot_of_the_frobenius_norm_at_the_bound(ch):
    # One dot product, sqrt(t . t), in place of frobenius_norm(t): the same bits, and no overflow at 1e100.
    scales = []
    bound = Tolerance.bound
    with mock.patch.object(Tolerance, "bound", lambda tol, scale: scales.append(scale) or bound(tol, scale)):
        is_cptp(ch, ch.dim)
    assert scales[0].hex() == math.hypot(1.0, frobenius_norm(ch.t)).hex()
    assert math.isfinite(scales[0])


@given(large_channels(max_dim=6))
@settings(max_examples=60, deadline=None)
def test_choi_norm_is_the_dense_choi_norm(ch):
    # ||J||_F^2 = sum_ij ||Phi(E_ij)||_F^2 is the superoperator's, and that is diag(1, t) in an orthogonal basis.
    dense = frobenius_norm(representations.to_choi(ch, ch.dim))
    assert choi_norm(ch) == pytest.approx(dense, rel=1e-12)


@given(large_channels(max_dim=8))
@settings(max_examples=40, deadline=None)
def test_cp_verdict_is_the_dense_one(ch):
    fast, dense = is_cptp(ch, ch.dim), dense_is_cptp(ch, ch.dim)
    assert fast.passed is dense.passed
    assert fast.min_choi_eigenvalue == pytest.approx(dense.min_choi_eigenvalue, rel=1e-9, abs=1e-12)


def image_inputs(n, rng):
    """Diagonals of single matrices and of stacks, real and complex, with signed zeros."""

    signed = np.where(rng.random(n) < 0.3, -0.0, rng.standard_normal(n))
    complex_one = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return [
        np.eye(n),
        signed,
        complex_one,
        complex_one * 1e100,
        rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)),
        rng.standard_normal((2, 3, n)),
        np.full(n, -0.0 + 0.0j),
        np.arange(n),  # an integer diagonal is taken as floats
    ]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20, 24, 33, 48, 64])
def test_diagonal_image_keeps_the_frozen_bits(n):
    rng = np.random.default_rng(n)
    for t in (rng.uniform(-1, 1, n * n - 1), np.concatenate([np.zeros(n * n - n), rng.uniform(-1e100, 1e100, n - 1)])):
        ch = DiagonalChannel(n, t)
        for d in image_inputs(n, rng):
            got, want = diagonal_image(ch, d), frozen_diagonal_image(ch, d)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def lib_verdict_requests():
    """The requests of the benchmark's lib-verdicts workload at seeds 5 and 11."""

    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads.lib_requests(5, 40) + workloads.lib_requests(11, 40)


def request_channel(req):
    if req["source"] == "small":
        return DiagonalChannel(req["n"], np.array(req["t"]))
    ch = FamilyChannel(Family(req["family"]), req["p"], req["n"])
    return family_to_diagonal(ch) if req["channel"] == "diagonal" else ch


def test_every_benchmark_request_keeps_the_frozen_verdicts():
    for req in lib_verdict_requests():
        n, samples, seed = req["n"], req["samples"], req["seed"]
        ch = request_channel(req)
        assert repr(is_cptp(ch, n)) == repr(frozen_is_cptp(request_channel(req), n))
        assert constant_fnorm_criterion(ch) == constant_fnorm_criterion(request_channel(req))
        got = constant_fnorm_sample_test(ch, n, samples=samples, seed=seed)
        with frozen_sample_path():
            old = constant_fnorm_sample_test(request_channel(req), n, samples=samples, seed=seed)
        assert repr(got) == repr(old)
