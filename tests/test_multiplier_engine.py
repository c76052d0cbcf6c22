"""Fast channel paths against their independent slow oracles.

Channel objects take the sector-wise apply, the block-structured CP check
and the sample test with closed-form witness norms and batched Haar
samples; the oracles of ``dense_oracles`` decide the same channel through
its dense Choi matrix and one state at a time, and decompose -> scale ->
reconstruct over the explicit basis is the reference for the apply.
"""

import re
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import channels, linalg, verification
from qchan.basis import build_basis, decompose, reconstruct
from qchan.channels import (
    DiagonalChannel,
    FamilyChannel,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
)
from qchan.exact import DEFAULT_TOL, Family, cptp_range, param_range
from qchan.linalg import frobenius_norm
from qchan.verification import constant_fnorm_sample_test, is_cptp

import dense_oracles
from dense_oracles import (
    assert_is_the_closed_form,
    dense_is_cptp,
    per_state_sample_test,
    random_pure_state,
    state_labels,
    witness_norms,
    witness_states,
)

dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def diagonal_channels(draw, dims=dims):
    """Random multipliers, scaled so that some channels are CPTP and some are not."""

    n = draw(dims)
    scale = draw(st.sampled_from([1 / (n * n), 1 / n, 1.0]))
    t = draw(arrays(float, n * n - 1, elements=st.floats(-1, 1)))
    return DiagonalChannel(n, t * scale)


@st.composite
def family_channels(draw, dims=dims):
    """Family members inside, at and just outside the CPTP endpoints."""

    n = draw(dims)
    family = draw(st.sampled_from(list(Family)))
    r = param_range(family, n)
    where = draw(st.sampled_from(["p_min", "p_max", "inside", "below", "above"]))
    if where == "p_min":
        p = r.p_min
    elif where == "p_max":
        p = r.p_max
    elif where == "inside":
        p = r.p_min + draw(st.floats(0, 1)) * (r.p_max - r.p_min)
    else:
        step = draw(st.floats(1e-6, 0.5)) * (r.p_max - r.p_min)
        p = r.p_min - step if where == "below" else r.p_max + step
    return FamilyChannel(family, p, n)


def complex_matrices(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def basis_apply(ch, s):
    """decompose -> scale -> reconstruct, extended linearly to complex inputs."""

    basis = build_basis(ch.dim)
    out = np.zeros_like(s)
    for part, weight in (((s + s.conj().T) / 2, 1), ((s - s.conj().T) / 2j, 1j)):
        coeffs = decompose(part, basis)
        coeffs[1:] *= ch.t
        out = out + weight * reconstruct(coeffs, basis)
    return out


def witness_labels(report):
    """The states a failing sample report names: (max, min), or None if it passed."""

    if report.witness is None:
        return None
    return re.fullmatch(r"norm spread \S+: max \S+ at (.+), min \S+ at (.+)", report.witness).groups()


def assert_sample_test_matches_per_state_loop(ch, samples, seed):
    """Same verdict, state count and witness labels; the norms may move in the last bits.

    A label may differ only where rounding broke an exact tie: the
    per-state norms at the two labels then agree within 1e-15.
    """

    n = ch.dim
    fast = constant_fnorm_sample_test(ch, n, samples=samples, seed=seed)
    oracle = per_state_sample_test(ch, n, samples=samples, seed=seed)
    assert fast.passed is oracle.passed
    assert fast.samples_used == oracle.samples_used
    assert abs(fast.max_deviation - oracle.max_deviation) <= 1e-15
    assert abs(fast.mean_deviation - oracle.mean_deviation) <= 1e-15
    assert (fast.witness is None) is (oracle.witness is None)
    if oracle.witness is None:
        return
    rng = np.random.default_rng(seed)
    states = chain(witness_states(n), (random_pure_state(n, rng) for _ in range(samples)))
    norms = [frobenius_norm(ch(s)) for s in states]
    labels = state_labels(n, samples)
    for got, want in zip(witness_labels(fast), witness_labels(oracle)):
        assert got == want or abs(norms[labels.index(got)] - norms[labels.index(want)]) <= 1e-15


@given(st.one_of(diagonal_channels(), family_channels()))
@settings(max_examples=80, deadline=None)
def test_block_verdict_matches_dense_choi(ch):
    fast = is_cptp(ch, ch.dim)
    dense = dense_is_cptp(ch, ch.dim)
    assert fast.passed is dense.passed
    assert fast.min_choi_eigenvalue == pytest.approx(dense.min_choi_eigenvalue, abs=1e-12)
    # Trace preservation is structural: is_cptp prints 0.0, and the oracle's own partial trace agrees.
    assert fast.trace_violation == 0.0
    assert dense.trace_violation <= DEFAULT_TOL.bound(1.0)
    assert (fast.witness is None) is (dense.witness is None)
    if isinstance(ch, FamilyChannel):
        lo, hi = cptp_range(ch.family, ch.dim)
        assert fast.passed is bool(lo <= ch.p <= hi)


@given(diagonal_channels(), seeds)
@settings(max_examples=60, deadline=None)
def test_sector_apply_matches_basis_picture(ch, seed):
    rng = np.random.default_rng(seed)
    n = ch.dim
    g = complex_matrices(rng, (n, n))
    h = (g + g.conj().T) / 2
    coeffs = decompose(h, build_basis(n))
    coeffs[1:] *= ch.t
    np.testing.assert_allclose(diagonal_apply(ch, h), reconstruct(coeffs, build_basis(n)), atol=1e-12)
    np.testing.assert_allclose(diagonal_apply(ch, g), basis_apply(ch, g), atol=1e-12)
    stack = complex_matrices(rng, (2, 3, n, n))
    out = diagonal_apply(ch, stack)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], diagonal_apply(ch, stack[idx]))
        np.testing.assert_allclose(out[idx], basis_apply(ch, stack[idx]), atol=1e-12)


@given(family_channels(), seeds)
@settings(max_examples=60, deadline=None)
def test_stacked_family_apply_is_bit_identical(ch, seed):
    rng = np.random.default_rng(seed)
    stack = complex_matrices(rng, (4, ch.dim, ch.dim))
    out = family_apply(ch, stack)
    for i in range(4):
        assert np.array_equal(out[i], family_apply(ch, stack[i]))
    assert out.tobytes() == diagonal_apply(family_to_diagonal(ch), stack).tobytes()
    assert_is_the_closed_form(ch, stack, out)


@given(st.one_of(diagonal_channels(), family_channels()), st.integers(0, 40), seeds)
@settings(max_examples=40, deadline=None)
def test_batched_sample_test_matches_per_state_loop(ch, samples, seed):
    assert_sample_test_matches_per_state_loop(ch, samples, seed)


@given(st.one_of(diagonal_channels(st.integers(2, 12)), family_channels(st.integers(2, 12))))
@settings(max_examples=60, deadline=None)
def test_closed_form_witness_norms_match_the_applied_states(ch):
    closed = witness_norms(ch)
    applied = np.array([frobenius_norm(ch(s)) for s in witness_states(ch.dim)])
    assert closed.shape == applied.shape
    assert np.max(np.abs(closed - applied)) <= 1e-15


class WitnessStateBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "ch",
    [
        FamilyChannel(Family.TCQ, 0.1, 9),
        DiagonalChannel(4, np.linspace(-0.2, 0.3, 15)),
    ],
)
def test_channel_objects_build_no_witness_state(monkeypatch, ch):
    """Channel objects take their witness norms in O(n^2) closed form."""

    expected = constant_fnorm_sample_test(ch, ch.dim, samples=30, seed=1)

    def refuse(*args):
        raise WitnessStateBuilt

    monkeypatch.setattr(verification, "_witness_vectors", refuse, raising=False)  # its builder is an oracle now
    report = constant_fnorm_sample_test(ch, ch.dim, samples=30, seed=1)
    assert report == expected
    assert report.samples_used == ch.dim**2 + 30
    assert report.max_deviation is not None and report.mean_deviation is not None
    assert (report.witness is None) is isinstance(ch, FamilyChannel)


class OutputDiagonalBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "make",
    [
        lambda: FamilyChannel(Family.TCQ, 0.1, 9),
        lambda: DiagonalChannel(4, np.linspace(-0.2, 0.3, 15)),  # t_x^2 != t_y^2: the Delta forms run too
        lambda: DiagonalChannel(5, np.concatenate([np.zeros(20), np.linspace(-3.0, 5.0, 4)])),  # z only
    ],
    ids=["family", "diagonal", "z-only"],
)
def test_sample_norms_come_from_the_multipliers(monkeypatch, make):
    """The sample test builds no output diagonal and reads no Choi block data: Parseval on the multipliers."""

    expected = constant_fnorm_sample_test(make(), make().dim, samples=30, seed=1)

    def refuse(*args):
        raise OutputDiagonalBuilt

    for module in (channels, verification):
        monkeypatch.setattr(module, "_choi_blocks", refuse)
    monkeypatch.setattr("qchan.channels.diagonal_image", refuse)
    monkeypatch.setattr(verification, "diagonal_image", refuse, raising=False)
    ch = make()  # a fresh object: no cached property computed yet
    assert constant_fnorm_sample_test(ch, ch.dim, samples=30, seed=1) == expected


def witness_states_one_by_one(n):
    """witness_states(n), one np.outer at a time, without holding all n^2 states."""

    for k in range(n):
        v = np.zeros(n, dtype=complex)
        v[k] = 1
        yield np.outer(v, v.conj())
    for phase in (1.0, 1j):
        for k in range(n):
            for l in range(k + 1, n):
                v = np.zeros(n, dtype=complex)
                v[k] = phase
                v[l] = 1
                v /= np.linalg.norm(v)
                yield np.outer(v, v.conj())


def random_pure_states(n, samples, seed):
    rng = np.random.default_rng(seed)
    return (random_pure_state(n, rng) for _ in range(samples))


def assert_stream_is(stacks, expected):
    """The states np.outer(v, v.conj()) of a stream of (k, n) vector stacks equal ``expected``
    bit for bit, in order; returns their count."""

    states = (np.outer(v, v.conj()) for stack in stacks for v in stack)
    count = 0
    for got, want in zip(states, expected, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        count += 1
    return count


# At these n the chunk sizes draw from one state (1 byte) to 9461 states
# (302752 bytes at n = 2) per stack, and samples leave the last stack short.
@pytest.mark.parametrize("n", [2, 3, 7, 20, 64, 97])
@pytest.mark.parametrize("chunk_bytes", [1, 16 * 7 * 7 * 5, 1 << 16, 302752])
def test_state_chunks_are_the_per_state_draws(monkeypatch, n, chunk_bytes):
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    per_draw = max(1, chunk_bytes // (16 * n))
    samples, seed = 2 * per_draw + 5, 5  # three draw stacks, the last one short
    haar = list(linalg._haar_vectors(n, samples, seed))
    assert all(len(stack) <= per_draw for stack in haar)
    stacks = [dense_oracles._witness_vectors(n), *haar]
    expected = chain(witness_states_one_by_one(n), random_pure_states(n, samples, seed))
    assert assert_stream_is(stacks, expected) == n * n + samples
    if n <= 20:  # the per-state oracle applies n^2 + samples states one at a time
        ch = family_to_diagonal(FamilyChannel(Family.DCQ, 0.01, n))
        assert_sample_test_matches_per_state_loop(ch, samples, seed)


@given(st.integers(1, 300), st.integers(1, 40), seeds)
@settings(max_examples=60, deadline=None)
def test_batched_normalization_is_the_per_row_norm(n, rows, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    expected = v.copy()
    for row in expected:
        row /= np.linalg.norm(row)
    got = linalg._normalize_rows(v)
    assert got is v
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@given(st.integers(1, 100), st.integers(0, 60), seeds, st.sampled_from([1, 300, 5000, 1 << 16]))
@settings(max_examples=60, deadline=None)
def test_haar_chunks_are_the_random_pure_state_draws(n, samples, seed, chunk_bytes):
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk_bytes):
        stacks = list(linalg._haar_vectors(n, samples, seed))
    per_draw = max(1, chunk_bytes // (16 * n))
    assert all(len(stack) <= per_draw for stack in stacks)
    assert assert_stream_is(stacks, random_pure_states(n, samples, seed)) == samples


@pytest.mark.parametrize("n", [2, 3, 6])
def test_witness_states_match_the_per_vector_construction(n):
    assert np.array_equal(np.array(witness_states(n)), np.array(list(witness_states_one_by_one(n))))
