"""The verdicts on fresh channel objects keep the bits of their frozen bodies.

``is_cptp`` and ``_classical_block`` read D, a and b from one cached
(3, n, n) buffer per channel, ``diagonal_image`` runs with fewer
temporaries, and ``_witness_norms`` takes its index arithmetic per
dimension.  Each must give ``repr``-equal reports and ``tobytes()``-equal
arrays to the bodies it replaced (``dense_oracles.frozen_*``), while
``dense_is_cptp`` still decides the CP verdicts independently.  The
Frobenius scale of the CP threshold is printed nowhere, so it is compared
as is_cptp computes it.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import channels, verification
from qchan.channels import DiagonalChannel, FamilyChannel, diagonal_image, family_to_diagonal
from qchan.exact import Family, param_range
from qchan.linalg import frobenius_norm
from qchan.verification import constant_fnorm_criterion, constant_fnorm_sample_test, is_cptp

from dense_oracles import (
    dense_is_cptp,
    frozen_classical_block,
    frozen_diagonal_image,
    frozen_is_cptp,
    frozen_pair_weights,
    frozen_sample_path,
    frozen_witness_norms,
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


def assert_frozen_bits(make, samples=20, seed=3):
    """Every piece of the cold path on fresh objects from ``make()`` against the frozen bodies."""

    ch = make()
    n = ch.dim
    scales = []
    norm = verification.frobenius_norm
    with mock.patch.object(verification, "frobenius_norm", lambda m: scales.append(norm(m)) or scales[-1]):
        report = is_cptp(ch, n)
    assert repr(report) == repr(frozen_is_cptp(make(), n))
    block, d = frozen_classical_block(make())
    a, b = frozen_pair_weights(make())
    assert [scale.hex() for scale in scales] == [frobenius_norm(np.stack([d, a, b])).hex()]
    assert ch._choi_data.tobytes() == np.stack([d, a, b]).tobytes()
    assert channels._classical_block(make()).tobytes() == block.tobytes()
    assert [w.tobytes() for w in make().pair_weights] == [a.tobytes(), b.tobytes()]
    assert verification._witness_norms(make()).tobytes() == frozen_witness_norms(make()).tobytes()
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
