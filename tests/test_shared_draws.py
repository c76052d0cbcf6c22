"""Batched, shared-draw checks against the per-family, per-trial loops they replace.

``report`` draws its representation inputs and its Haar states once and
checks all four families against them in trial stacks.  The loops below
are the slow oracles: each family draws its own inputs and runs one trial
at a time, exactly as the checks did before batching.  Every field of
every report must agree exactly.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import jsonio, verification
from qchan.channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    cptp_range,
    family_apply,
    family_to_diagonal,
    repr_coefficients,
)
from qchan.cli import main
from qchan.linalg import DEFAULT_TOL, Tolerance
from qchan.verification import (
    VerificationReport,
    constant_fnorm_sample_test,
    verify_representations,
    verify_sum_identities,
    witness_state_labels,
)

SUM_TOL = Tolerance(absolute=1e-12, relative=0.0)
dims = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# Trials per chunk, or None for the default chunk size; small chunks put
# chunk boundaries inside every trial count drawn.
per_chunk = st.one_of(st.none(), st.integers(min_value=1, max_value=5))


def trial_chunks_of(size, n):
    bytes_ = verification._TRIAL_CHUNK_BYTES if size is None else size * verification._TRIAL_BYTES_PER_N2 * n * n
    return mock.patch.object(verification, "_TRIAL_CHUNK_BYTES", bytes_)


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
    """The brute-force sums of one matrix, as formed before trial stacks."""
    gather, coef, dest, w = verification._sum_plan(n)
    buf = np.zeros((2, 3, n, n), dtype=complex)
    np.put(buf, dest, coef * s.take(gather))
    buf[0].reshape(3, -1)[:, :: n + 1] = buf[1].sum(axis=-1)
    return dict(zip("xyz", buf[0]), ez=w * s)


def representations_loop(family, p, n, trials, seed, tol=SUM_TOL):
    coeffs = repr_coefficients(family, p, n)
    ch = FamilyChannel(family=family, p=p, dim=n)
    rng = np.random.default_rng(seed)
    worst = 0.0
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
        dev = max(float(np.max(np.abs(form - expected))) for form in (pauli_form, basis_form))
        worst = max(worst, dev)
        worst_mean += dev
    passed = worst <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        mean_deviation=worst_mean / trials,
        witness=None if passed else f"representation mismatch {worst:.3e} for {family.value}, p={p}, n={n}",
        samples_used=trials,
    )


def identities_loop(n, trials, seed, tol=SUM_TOL):
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    worst = 0.0
    worst_sym = 0.0
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
        sym = (s + s.T) / 2
        direct_sym = direct_sums_one(sym, n)
        printed = {
            "x": sym + np.trace(sym) * eye - 2 * np.diag(np.diag(sym)),
            "y": np.trace(sym) * eye - sym,
            "z": n * np.diag(np.diag(sym)) - sym.T,
        }
        for key, mat in printed.items():
            worst_sym = max(worst_sym, float(np.max(np.abs(direct_sym[key] - mat))))
    passed = worst <= tol.bound(1.0) and worst_sym <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=f"transpose-free variants on symmetric inputs: max deviation {worst_sym:.3e}",
        samples_used=trials,
    )


def sample_test_loop(ch, n, samples, seed, tol=DEFAULT_TOL):
    """One channel's sample test with its own Haar draws, applied one state at a time."""
    diag = family_to_diagonal(ch) if isinstance(ch, FamilyChannel) else ch
    vectors = (v for stack in verification._haar_vectors(n, samples, seed) for v in stack)
    haar = (np.outer(v, v.conj())[None] for v in vectors)
    norms = np.concatenate(
        [verification._witness_norms(diag), *(np.linalg.norm(ch(c), axis=(-2, -1)) for c in haar)]
    )
    spread = float(norms.max() - norms.min())
    mean = float(norms.mean())
    passed = spread <= tol.bound(float(norms.max()))
    witness = None
    if not passed:
        labels = witness_state_labels(n) + [f"haar_{i}" for i in range(samples)]
        witness = (
            f"norm spread {spread:.6e}: max {norms.max():.12f} at {labels[int(norms.argmax())]}, "
            f"min {norms.min():.12f} at {labels[int(norms.argmin())]}"
        )
    return VerificationReport(
        passed=passed,
        max_deviation=spread,
        mean_deviation=float(np.mean(np.abs(norms - mean))),
        witness=witness,
        samples_used=len(norms),
    )


# --- batched and shared against the loops ------------------------------------


@pytest.mark.parametrize("n", [2, 9, 16, 40, 128])
def test_stacked_sums_equal_the_sums_of_each_matrix(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    sums = verification._direct_sums(stack, n)
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
        shared = verification._representation_reports(members, n, trials, seed)
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
    shared = verification._representation_reports(members, 5, 7, 3, tol)
    expected = [representations_loop(f, p, 5, 7, 3, tol) for f, p in members]
    assert not any(report.passed for report in expected)
    assert shared == expected


@settings(max_examples=40, deadline=None)
@given(
    n=dims,
    samples=st.integers(min_value=0, max_value=60),
    seed=seeds,
    where=fractions,
    chunk_bytes=st.sampled_from([1 << 16, 16 * 4 * 4, 1]),
)
def test_shared_sample_reports_equal_the_loops(n, samples, seed, where, chunk_bytes):
    # The four families, the same as diagonal channels (whose b or a is 0),
    # t = 0, and a channel of unequal moduli, whose witness names its states.
    channels = [FamilyChannel(f, p, n) for f, p in members_at(where, n)]
    channels += [family_to_diagonal(ch) for ch in channels]
    channels.append(DiagonalChannel(dim=n, t=np.zeros(n * n - 1)))
    t = np.linspace(0.1, 0.4, n * n - 1)
    channels.append(DiagonalChannel(dim=n, t=t))
    with mock.patch.object(verification, "_CHUNK_BYTES", chunk_bytes):
        shared = verification._sample_reports(channels, n, samples, seed)
        single = [constant_fnorm_sample_test(ch, n, samples=samples, seed=seed) for ch in channels]
        expected = [sample_test_loop(ch, n, samples, seed) for ch in channels]
    assert shared[-1].witness is not None
    assert shared == expected
    assert single == expected


def test_report_sections_equal_the_single_calls(capsys):
    n, samples, seed = 5, 30, 4
    assert main(["report", "--dim", str(n), "--samples", str(samples), "--seed", str(seed)]) == 0
    sections = json.loads(capsys.readouterr().out)["sections"]
    for family in Family:
        lo, hi = (float(x) for x in cptp_range(family, n))
        p = (lo + hi) / 2
        sample = sample_test_loop(FamilyChannel(family, p, n), n, samples, seed)
        rep = representations_loop(family, p, n, 50, seed)
        assert sections["constant_norm"][family.value]["report"] == json.loads(jsonio.dumps(sample))
        assert sections["representations"][family.value]["report"] == json.loads(jsonio.dumps(rep))
