"""Batched, shared-draw checks against the per-family, per-trial loops they replace.

``report`` draws its representation inputs once and checks all four
families against them in trial stacks.  The loops below are the slow
oracles: each family draws its own inputs and runs one trial at a time,
exactly as the checks did before batching.  Every field of every
representation and identity report must agree exactly.  The sample test
draws its Haar states in stacks; its reports agree with
``dense_oracles.per_state_sample_test`` state by state within its
rounding bound, and ``report``'s are the single calls with its seed.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import exact, jsonio, linalg, representations
from qchan.channels import DiagonalChannel, FamilyChannel, family_apply, family_to_diagonal
from qchan.cli import main
from qchan.exact import (
    Family,
    Tolerance,
    VerificationReport,
    cptp_range,
    repr_coefficients,
)
from qchan.representations import verify_representations, verify_sum_identities
from qchan.verification import constant_fnorm_sample_test

from dense_oracles import (
    assert_same_extremes,
    assert_sample_norms_agree,
    per_pair_sums,
    per_state_sample_test,
    sample_norms,
    sample_rounding_bounds,
    sample_vectors,
)

SUM_TOL = Tolerance(absolute=1e-12, relative=1e-14)
dims = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# Trials per chunk, or None for the default chunk size; small chunks put
# chunk boundaries inside every trial count drawn.
per_chunk = st.one_of(st.none(), st.integers(min_value=1, max_value=5))


def trial_chunks_of(size, n):
    per_trial = exact._PEAK_BYTES["identities"].per_n2 * n * n
    bytes_ = representations._TRIAL_CHUNK_BYTES if size is None else size * per_trial
    return mock.patch.object(representations, "_TRIAL_CHUNK_BYTES", bytes_)


def members_at(fractions, n):
    """One (family, p) per family, p at the given fraction of its CPTP range."""
    out = []
    for family, frac in zip(Family, fractions):
        lo, hi = (float(x) for x in cptp_range(family, n))
        out.append((family, lo + frac * (hi - lo)))
    return out


fractions = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4)


# --- the per-trial oracles -------------------------------------------------


def direct_sums_one(s, n):
    """The brute-force sums of one matrix, a pair and a term at a time."""
    return per_pair_sums(s, n) | {"ez": representations._staircase_gram(n) * s}


def representations_loop(family, p, n, trials, seed, tol=SUM_TOL):
    coeffs = repr_coefficients(family, p, n)
    ch = FamilyChannel(family=family, p=p, dim=n)
    rng = np.random.default_rng(seed)
    worst = worst_pauli = 0.0
    worst_mean = 0.0
    for _ in range(trials):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = (g + g.conj().T) / 2
        expected = family_apply(ch, s)
        sums = direct_sums_one(s, n)
        pauli_form = (
            coeffs.c0 * s + coeffs.cx * sums["x"] + coeffs.cy * sums["y"] + coeffs.cz * sums["z"]
        )
        basis_form = (
            coeffs.e0 * s / n
            + coeffs.ex * sums["x"] / 2
            + coeffs.ey * sums["y"] / 2
            + coeffs.ez * sums["ez"]
        )
        pauli_dev = float(np.max(np.abs(pauli_form - expected)))
        dev = max(pauli_dev, float(np.max(np.abs(basis_form - expected))))
        worst, worst_pauli = max(worst, dev), max(worst_pauli, pauli_dev)
        worst_mean += dev
    passed = worst <= tol.bound(1.0)
    form = "Pauli" if worst_pauli == worst else "basis"  # the form that reached the worst deviation
    where = f"in the {form} form for {family.value}, p={p}, n={n}"
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        mean_deviation=worst_mean / trials,
        witness=None if passed else f"representation mismatch {worst:.3e} {where}",
        samples_used=trials,
    )


def identities_loop(n, trials, seed, tol=SUM_TOL):
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    worst = scale = 0.0
    worst_sym = scale_sym = 0.0
    for _ in range(trials):
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        direct = direct_sums_one(s, n)
        closed = {
            "x": s.T + np.trace(s) * eye - 2 * np.diag(np.diag(s)),
            "y": np.trace(s) * eye - s.T,
            "z": n * np.diag(np.diag(s)) - s,
            "ez": np.diag(np.diag(s)) - s / n,
        }
        for key, mat in closed.items():
            worst = max(worst, float(np.max(np.abs(direct[key] - mat))))
            scale = max(scale, float(np.max(np.abs(mat))))
        # The transpose-free variants, on a complex symmetric input.
        sym = (s + s.T) / 2
        direct_sym = direct_sums_one(sym, n)
        printed = {
            "x": sym + np.trace(sym) * eye - 2 * np.diag(np.diag(sym)),
            "y": np.trace(sym) * eye - sym,
            "z": n * np.diag(np.diag(sym)) - sym.T,
        }
        for key, mat in printed.items():
            worst_sym = max(worst_sym, float(np.max(np.abs(direct_sym[key] - mat))))
            scale_sym = max(scale_sym, float(np.max(np.abs(mat))))
    passed = worst <= tol.bound(scale) and worst_sym <= tol.bound(scale_sym)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=f"transpose-free variants on symmetric inputs: max deviation {worst_sym:.3e}",
        samples_used=trials,
    )


def assert_each_is_the_oracle(channels, n, samples, seed, reports, norms):
    """Each channel's sample report and norms against ``per_state_sample_test``: the same verdict
    and extreme states, and every state's norm within its rounding bound."""

    vectors = list(sample_vectors(n, samples, seed))
    for ch, report, got in zip(channels, reports, norms, strict=True):
        oracle, (want,) = sample_norms(lambda: per_state_sample_test(ch, n, samples, seed))
        bounds = sample_rounding_bounds(ch, vectors)
        assert_sample_norms_agree(got, want, bounds)
        assert report.passed is oracle.passed
        assert report.samples_used == oracle.samples_used
        assert_same_extremes(got, want, bounds)


# --- batched and shared against the loops ------------------------------------


@pytest.mark.parametrize("n", [2, 9, 16, 40, 128])
def test_stacked_sums_equal_the_sums_of_each_matrix(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    sums = representations._direct_sums(stack, n)
    for i, s in enumerate(stack):
        for key, mat in direct_sums_one(s, n).items():
            assert sums[key][i].tobytes() == mat.tobytes(), (key, i)


@settings(max_examples=60, deadline=None)
@given(
    n=dims,
    trials=st.integers(min_value=1, max_value=12),
    seed=seeds,
    size=per_chunk,
    where=fractions,
)
def test_shared_representation_reports_equal_the_loops(n, trials, seed, size, where):
    members = members_at(where, n)
    with trial_chunks_of(size, n):
        shared = representations._representation_reports([FamilyChannel(f, p, n) for f, p in members], n, trials, seed)
        single = [verify_representations(f, p, n, trials=trials, seed=seed) for f, p in members]
    expected = [representations_loop(f, p, n, trials, seed) for f, p in members]
    assert shared == expected
    assert single == expected


@settings(max_examples=40, deadline=None)
@given(n=dims, trials=st.integers(min_value=1, max_value=12), seed=seeds, size=per_chunk)
def test_batched_sum_identities_equal_the_loop(n, trials, seed, size):
    with trial_chunks_of(size, n):
        got = verify_sum_identities(n, trials=trials, seed=seed)
    assert got == identities_loop(n, trials, seed)


def test_failing_representation_reports_equal_the_loops():
    members = members_at([0.5] * 4, 5)
    tol = Tolerance(absolute=1e-18, relative=0.0)
    shared = representations._representation_reports([FamilyChannel(f, p, 5) for f, p in members], 5, 7, 3, tol)
    expected = [representations_loop(f, p, 5, 7, 3, tol) for f, p in members]
    assert not any(report.passed for report in expected)
    assert shared == expected


# Chunks of 4 divide 12 trials, chunks of 5 and 7 leave a short last stack.
@pytest.mark.parametrize("n, trials, size", [(3, 12, 4), (3, 12, 5), (6, 12, 7), (2, 5, 1), (4, 9, None)])
def test_trial_chunks_are_the_shared_generator_stacks(n, trials, size):
    seed = 21
    with trial_chunks_of(size, n):
        stacks = list(representations._trial_chunks(n, trials, seed))
    per_chunk = size or trials  # the default chunk holds all 9 trials at n = 4
    assert [len(stack) for stack in stacks] == [
        min(per_chunk, trials - start) for start in range(0, trials, per_chunk)
    ]
    shared = list(linalg._complex_normals(seed, trials, per_chunk, (n, n)))
    assert [stack.tobytes() for stack in stacks] == [stack.tobytes() for stack in shared]
    rng = np.random.default_rng(seed)
    per_trial = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(trials)]
    assert np.concatenate(stacks).tobytes() == np.array(per_trial).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=dims,
    samples=st.integers(min_value=0, max_value=60),
    seed=seeds,
    where=fractions,
    chunk_bytes=st.sampled_from([1 << 16, 16 * 4 * 4, 1]),
)
def test_sample_reports_equal_the_loops(n, samples, seed, where, chunk_bytes):
    # The four families, the same as diagonal channels (whose b or a is 0),
    # t = 0, and a channel of unequal moduli, whose witness names its states.
    channels = [FamilyChannel(f, p, n) for f, p in members_at(where, n)]
    channels += [family_to_diagonal(ch) for ch in channels]
    channels.append(DiagonalChannel(dim=n, t=np.zeros(n * n - 1)))
    t = np.linspace(0.1, 0.4, n * n - 1)
    channels.append(DiagonalChannel(dim=n, t=t))
    with mock.patch.object(linalg, "_CHUNK_BYTES", chunk_bytes):
        reports, norms = sample_norms(
            lambda: [constant_fnorm_sample_test(ch, n, samples=samples, seed=seed) for ch in channels]
        )
    assert reports[-1].witness is not None
    assert_each_is_the_oracle(channels, n, samples, seed, reports, norms)


@pytest.mark.parametrize("n", [3, 4])
def test_reports_filled_across_many_stacks_equal_the_loops(n):
    # Trial stacks of 2 split 7 trials into four, the last one short; chunks
    # of 32 n^2 bytes draw 50 Haar states in stacks of 2n, the last one short.
    # So the entries of each report's array of deviations or norms are
    # written by many stacks.
    members = members_at([0.25, 0.5, 0.75, 1.0], n)
    channels = [FamilyChannel(f, p, n) for f, p in members]
    with trial_chunks_of(2, n):
        shared = representations._representation_reports(channels, n, 7, 5)
        identities = verify_sum_identities(n, trials=7, seed=5)
    assert shared == [representations_loop(f, p, n, 7, 5) for f, p in members]
    assert identities == identities_loop(n, 7, 5)
    with mock.patch.object(linalg, "_CHUNK_BYTES", 32 * n * n):
        assert [len(v) for v in linalg._haar_vectors(n, 50, 5)] == [2 * n] * (50 // (2 * n)) + [2]
        reports, norms = sample_norms(lambda: [constant_fnorm_sample_test(ch, n, samples=50, seed=5) for ch in channels])
    assert_each_is_the_oracle(channels, n, 50, 5, reports, norms)


def test_report_sections_equal_the_single_calls(capsys):
    n, samples, seed = 5, 30, 4
    assert main(["report", "--dim", str(n), "--samples", str(samples), "--seed", str(seed)]) == 0
    sections = json.loads(capsys.readouterr().out)["sections"]
    for family in Family:
        lo, hi = (float(x) for x in cptp_range(family, n))
        p = (lo + hi) / 2
        ch = FamilyChannel(family, p, n)
        sample, norms = sample_norms(lambda: constant_fnorm_sample_test(ch, n, samples=samples, seed=seed))
        assert_each_is_the_oracle([ch], n, samples, seed, [sample], norms)
        rep = representations_loop(family, p, n, 50, seed)
        assert sections["constant_norm"][family.value]["report"] == json.loads(jsonio.dumps(sample))
        assert sections["representations"][family.value]["report"] == json.loads(jsonio.dumps(rep))
