"""Fast channel paths against their independent slow oracles.

Channel objects take the sector-wise apply, the block-structured CP check
and the batched sample test; wrapping the same channel in a lambda forces
the generic dense-Choi and per-state routes, and decompose -> scale ->
reconstruct over the explicit basis is the reference for the apply.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import verification
from qchan.basis import build_basis, decompose, reconstruct
from qchan.channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
    random_pure_state,
)
from qchan.verification import (
    constant_fnorm_sample_test,
    is_cptp,
    param_range,
    witness_states,
)

dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def diagonal_channels(draw):
    """Random multipliers, scaled so that some channels are CPTP and some are not."""

    n = draw(dims)
    scale = draw(st.sampled_from([1 / (n * n), 1 / n, 1.0]))
    t = draw(arrays(float, n * n - 1, elements=st.floats(-1, 1)))
    return DiagonalChannel(n, t * scale)


@st.composite
def family_channels(draw):
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


def old_family_apply(ch, s):
    """The closed forms as written before stacks were accepted."""

    n, p = ch.dim, ch.p
    uniform = (1 - p) / n * np.trace(s) * np.eye(n, dtype=complex)
    if ch.family is Family.DEP:
        return p * s + uniform
    if ch.family is Family.TRD:
        return p * s.T + uniform
    diag_part = 2 * p * np.diag(np.diag(s))
    if ch.family is Family.DCQ:
        return -p * s + uniform + diag_part
    return -p * s.T + uniform + diag_part


@given(st.one_of(diagonal_channels(), family_channels()))
@settings(max_examples=80, deadline=None)
def test_block_verdict_matches_dense_choi(ch):
    fast = is_cptp(ch, ch.dim)
    dense = is_cptp(lambda s: ch(s), ch.dim)
    assert fast.passed is dense.passed
    assert fast.min_choi_eigenvalue == pytest.approx(dense.min_choi_eigenvalue, abs=1e-12)
    assert fast.trace_violation == pytest.approx(dense.trace_violation, abs=1e-12)
    assert (fast.witness is None) is (dense.witness is None)
    if isinstance(ch, FamilyChannel):
        assert fast.passed is ch.in_cptp_range


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
        single = family_apply(ch, stack[i])
        assert np.array_equal(out[i], single)
        assert np.array_equal(single, old_family_apply(ch, stack[i]))
    np.testing.assert_allclose(
        out, diagonal_apply(family_to_diagonal(ch), stack), atol=1e-12
    )


@given(st.one_of(diagonal_channels(), family_channels()), st.integers(0, 40), seeds)
@settings(max_examples=40, deadline=None)
def test_batched_sample_test_matches_per_state_loop(ch, samples, seed):
    batched = constant_fnorm_sample_test(ch, ch.dim, samples=samples, seed=seed)
    looped = constant_fnorm_sample_test(lambda s: ch(s), ch.dim, samples=samples, seed=seed)
    assert batched == looped


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("chunk_bytes", [1, 16 * 7 * 7 * 5, 1 << 16])
def test_state_chunks_are_the_per_state_draws(monkeypatch, n, chunk_bytes):
    monkeypatch.setattr(verification, "_CHUNK_BYTES", chunk_bytes)
    samples, seed = 23, 5
    chunked = np.concatenate(list(verification._state_chunks(n, samples, seed)))
    rng = np.random.default_rng(seed)
    expected = witness_states(n) + [random_pure_state(n, rng) for _ in range(samples)]
    assert np.array_equal(chunked, np.array(expected))
    ch = family_to_diagonal(FamilyChannel(Family.DCQ, 0.01, n))
    assert constant_fnorm_sample_test(ch, n, samples=samples, seed=seed) == (
        constant_fnorm_sample_test(lambda s: ch(s), n, samples=samples, seed=seed)
    )


@pytest.mark.parametrize("n", [2, 3, 6])
def test_witness_states_match_the_per_vector_construction(n):
    expected = []
    for k in range(n):
        v = np.zeros(n, dtype=complex)
        v[k] = 1
        expected.append(np.outer(v, v.conj()))
    for phase in (1.0, 1j):
        for k in range(n):
            for l in range(k + 1, n):
                v = np.zeros(n, dtype=complex)
                v[k] = phase
                v[l] = 1
                v /= np.linalg.norm(v)
                expected.append(np.outer(v, v.conj()))
    assert np.array_equal(np.array(witness_states(n)), np.array(expected))
