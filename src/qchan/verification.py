"""Numerical verification: CPTP ranges, constant-norm behaviour, identities.

Everything here returns plain records with the measured numbers embedded,
so a report can be re-checked without re-running the computation.  The
conventions:

* every verdict takes a channel object (``FamilyChannel``,
  ``DiagonalChannel``; anything else raises the TypeError of
  ``as_linear_map``) and uses its structure: block-wise Choi checks,
  witness-state norms in closed form from the Choi block data (D D^T and
  t_x, t_y) and Haar samples applied in batches, each output diagonal
  once per draw from the diagonal v conj(v) of |v><v|;
* complete positivity is decided by the smallest Choi eigenvalue with a
  threshold scaled to the Choi matrix's Frobenius norm;
* trace preservation is the partial trace of the Choi matrix over the
  output factor against the identity;
* the constant-norm criterion for diagonal channels is that all n^2 - 1
  multiplier moduli agree, in which case every pure input maps to output
  Frobenius norm sqrt(1/n + t^2 (1 - 1/n));
* brute-force conjugation sums come from the basis elements' entries, O(n^2) each,
  for a stack of trials at once; ``report`` checks all four families
  against one draw of its inputs, with the reports their own calls give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Optional

import numpy as np

from .basis import _CACHED_DIMS, _pair_entries, _pair_index, m_z
from .channels import (
    AnyChannel,
    DiagonalChannel,
    FamilyChannel,
    QubitLambda,
    _diagonal_view,
    _output_diagonals,
    _pair_sector_weights,
    _pair_sectors_into,
    as_linear_map,
    family_apply,
    family_to_diagonal,
    repr_coefficients,
)
from .exact import (
    _SIGNS,
    DEFAULT_TOL,
    Family,
    ParamRange,
    Tolerance,
    _check_dim,
    _check_grid,
    _check_samples,
    _check_trials,
    param_range,
)
from .linalg import frobenius_norm, hermitian_part

__all__ = [
    "VerificationReport",
    "ParamRange",
    "QubitClassification",
    "param_range",
    "is_cptp",
    "constant_fnorm_criterion",
    "expected_constant_norm",
    "witness_states",
    "witness_state_labels",
    "constant_fnorm_sample_test",
    "dcq_det_formula",
    "verify_det_recurrence",
    "sum_x",
    "sum_y",
    "sum_z",
    "verify_sum_identities",
    "verify_representations",
    "classify_qubit",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check, with the numbers that decided it."""

    passed: bool
    min_choi_eigenvalue: Optional[float] = None
    trace_violation: Optional[float] = None
    max_deviation: Optional[float] = None
    mean_deviation: Optional[float] = None
    witness: Optional[str] = None
    samples_used: int = 0


def is_cptp(ch: AnyChannel, n: int, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Choi-based complete positivity + trace preservation check, O(n^3) time, O(n^2) memory.

    The Choi matrix sum_ij E_ij ⊗ Phi(E_ij) of a channel object is block
    diagonal: the n x n "classical" block on span{|ii>} has diagonal
    D_ii and off-diagonal a_kl, and for each pair k < l a 2 x 2 block on
    span{|kl>, |lk>} is [[D_lk, b_kl], [b_kl, D_kl]], where
    D[j, i] = Phi(E_jj)_ii and (a, b) are the pair weights.  Eigenvalues,
    Frobenius norm and partial trace all come from these blocks.  CP
    holds when the smallest eigenvalue is above -tol of the Choi norm, TP
    when the partial trace is within tol of I.
    """

    diag = _as_diagonal(ch)
    if diag.dim != n:
        raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    a, b = diag.pair_weights
    classical, d = _classical_block(diag)
    classical_min = float(np.linalg.eigvalsh(classical)[0])
    k, l = _pair_index(n)
    x, y = d[k, l], d[l, k]
    pair_mins = (x + y) / 2 - np.hypot((x - y) / 2, b[k, l])
    worst = int(np.argmin(pair_mins))
    if classical_min <= pair_mins[worst]:
        smallest, where = classical_min, " in classical block"
    else:
        smallest, where = float(pair_mins[worst]), f" in pair block ({k[worst] + 1},{l[worst] + 1})"
    scale = frobenius_norm(np.stack([d, a, b]))
    # Tr_2 of the Choi matrix is diag(Tr Phi(E_jj)); off-diagonal entries vanish.
    trace_dev = float(np.max(np.abs(d.sum(axis=1) - 1)))
    psd_ok = smallest >= -tol.bound(scale)
    tp_ok = trace_dev <= tol.bound(1.0)
    witness = None
    if not psd_ok:
        witness = f"negative Choi eigenvalue {smallest:.6e}{where}"
    elif not tp_ok:
        witness = f"partial trace deviates from identity by {trace_dev:.3e}"
    return VerificationReport(
        passed=psd_ok and tp_ok,
        min_choi_eigenvalue=smallest,
        trace_violation=trace_dev,
        witness=witness,
    )


def _as_diagonal(ch: AnyChannel) -> DiagonalChannel:
    """The channel object ``ch`` over the Hermitian basis; TypeError for anything else."""

    ch = as_linear_map(ch)
    return family_to_diagonal(ch) if isinstance(ch, FamilyChannel) else ch


def _classical_block(diag: DiagonalChannel) -> tuple[np.ndarray, np.ndarray]:
    """The classical Choi block (D_ii on the diagonal, a_kl off it), and D."""

    d = diag._unit_images
    block = diag.pair_weights[0].copy()
    np.fill_diagonal(block, np.diag(d))
    return block, d


def constant_fnorm_criterion(
    ch: AnyChannel, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, Optional[float]]:
    """(holds, expected output norm) — holds iff all multiplier moduli agree."""

    diag = _as_diagonal(ch)
    moduli = np.abs(diag.t)
    spread = float(moduli.max() - moduli.min())
    if spread > tol.bound(float(moduli.max())):
        return False, None
    return True, expected_constant_norm(diag.dim, float(moduli[0]))


def expected_constant_norm(n: int, t: float) -> float:
    """Output Frobenius norm on pure inputs when all moduli equal |t|."""
    return sqrt(1 / n + t * t * (1 - 1 / n))


def witness_states(n: int) -> list[np.ndarray]:
    """The n^2 pure states that pin down a diagonal channel's output norms.

    Computational projectors first, then (e_k + e_l)/sqrt(2) projectors,
    then (i e_k + e_l)/sqrt(2) projectors, pairs in lexicographic order.
    """

    return [np.outer(v, v.conj()) for v in _witness_vectors(n)]


def _witness_vectors(n: int) -> np.ndarray:
    """Unit vectors of the witness states, in their order, as an (n^2, n) array."""

    k, l = _pair_index(n)
    q = np.arange(len(k))
    v = np.zeros((n * n, n), dtype=complex)
    v[:n] = np.eye(n)
    xi, eta = v[n : n + len(k)], v[n + len(k) :]
    xi[q, k] = 1
    eta[q, k] = 1j
    xi[q, l] = eta[q, l] = 1
    v[n:] /= sqrt(2)
    return v


# Bytes of one stack of states in the sample test.  It bounds both the Haar
# unit vectors drawn at once (16 n bytes each, so 204 states per draw at
# n = 20) and the projector stacks the pair sectors are applied to (16 n^2
# bytes per state); so memory stays flat however many states are drawn.
# The size is chosen for speed: the per-state norms do not depend on it, and
# on lib-verdicts' ops (n = 8-20, one BLAS thread) 32, 128 and 256 KiB took
# 1.11-1.18, 1.09-1.23 and 1.35-1.50 times as long as 64 KiB.
_CHUNK_BYTES = 1 << 16


def _states_per_chunk(n: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n * n))


def _vectors_per_draw(n: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n))


def _haar_vectors(n: int, samples: int, seed: int):
    """The unit vectors of the ``samples`` random_pure_state draws of ``seed``, bit for bit.

    They are drawn in (k, n) stacks of at most ``_CHUNK_BYTES`` of normals
    (16 n bytes per state), so no Python code runs once per state.
    """

    per_draw = _vectors_per_draw(n)
    rng = np.random.default_rng(seed)
    for start in range(0, samples, per_draw):
        # One (real, imaginary) draw of n normals per state, as random_pure_state.
        g = rng.standard_normal((min(per_draw, samples - start), 2, n))
        yield _normalize_rows(g[:, 0] + 1j * g[:, 1])


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Divide each row of a (k, n) complex array by its norm in place, bit for bit.

    ``np.linalg.norm(row)`` is sqrt(re . re + im . im) over the strided real
    and imaginary views; the (k, 1, n) @ (k, n, 1) products make the same
    BLAS dot calls, one per row, so the rows equal ``row /= np.linalg.norm(row)``.
    """

    re, im = v.real, v.imag
    v /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    return v


def _witness_norms(diag: DiagonalChannel) -> np.ndarray:
    """Output Frobenius norms of the witness states, in O(n^3) time, O(n^2) memory.

    The outputs are Choi block data (see :func:`is_cptp`): with
    D[j, i] = Phi(E_jj)_ii, Phi(psi_j) = diag(D_j) and
    Phi(xi_kl) = diag(D_k + D_l)/2 + (t_x,kl / 2) sigma_x^(k,l), and
    Phi(eta_kl) likewise with t_y,kl.  So every squared norm is an entry
    of G = D D^T, plus t_x,kl^2/2 or t_y,kl^2/2 for a pair state, rescaled
    where a square overflows, as :func:`frobenius_norm` does.
    """

    d, t_x, t_y = diag._unit_images, diag.t_x, diag.t_y
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled below
        norms = _witness_norm_formula(d, t_x, t_y)
    lost = ~np.isfinite(norms)
    if lost.any() and np.isfinite(d).all():
        scale = max(float(np.max(np.abs(d))), float(np.max(np.abs(diag.t))))
        norms[lost] = scale * _witness_norm_formula(d / scale, t_x / scale, t_y / scale)[lost]
    return norms


def _witness_norm_formula(d: np.ndarray, t_x: np.ndarray, t_y: np.ndarray) -> np.ndarray:
    g = d @ d.T
    k, l = _pair_index(len(d))  # lexicographic pair order, as t_x and t_y
    pair_diag = (g[k, k] + g[l, l] + 2 * g[k, l]) / 4
    return np.sqrt(np.concatenate([np.diag(g), pair_diag + t_x**2 / 2, pair_diag + t_y**2 / 2]))


def witness_state_labels(n: int) -> list[str]:
    _check_dim(n)
    return [_state_label(n, i) for i in range(n * n)]


def _state_label(n: int, i: int) -> str:
    """Label of the sample test's state i: psi_k, xi_(k,l), eta_(k,l) in witness order, then haar_{i - n^2}."""

    if i < n:
        return f"psi_{i}"
    if i >= n * n:
        return f"haar_{i - n * n}"
    k, l = _pair_index(n)
    sector, q = divmod(i - n, len(k))
    return f"{('xi', 'eta')[sector]}_({k[q] + 1},{l[q] + 1})"


def constant_fnorm_sample_test(
    ch: AnyChannel,
    n: int,
    samples: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Empirical constant-norm check over witness states plus Haar samples.

    Passes when the spread of output Frobenius norms stays within
    tolerance of the largest observed norm; the witness field names the
    states achieving the extreme norms otherwise.  The n^2 witness norms
    come in closed form from the channel's Choi block data
    (:func:`_witness_norms`, O(n^3)), and the Haar samples are applied in
    batches, output diagonals once per draw (:func:`_sample_reports`).
    """

    return _sample_reports([ch], n, samples, seed, tol)[0]


def _sample_reports(
    channels: list[AnyChannel], n: int, samples: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> list[VerificationReport]:
    """``constant_fnorm_sample_test`` of each channel object, from one set of Haar draws.

    Each draw of unit vectors v is shared by every channel: its output
    diagonals come from v conj(v), the diagonals of the projectors, in one
    call per channel; each projector stack, built into a reused buffer,
    gets only the pair sectors and those rows.  Every value is that of the
    apply engine up to the signs of zeros, so the reports equal those of
    one call per channel, bit for bit.  A norm whose squares overflow is
    retaken by :func:`frobenius_norm` from the output of its redrawn state.
    """

    _check_samples(samples)
    diags = [_as_diagonal(ch) for ch in channels]
    for diag in diags:
        if diag.dim != n:
            raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    norms = [[_witness_norms(diag)] for diag in diags]
    # A weight that is zero throughout adds only zeros, whose signs no squared modulus sees.
    weights = [[w if np.any(w) else None for w in _pair_sector_weights(ch)] for ch in channels]
    per_chunk = min(_states_per_chunk(n), samples)
    proj, out, sq = (np.empty((per_chunk, n, n), dtype=complex) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled below
        for v in _haar_vectors(n, samples, seed):
            v_conj = v.conj()
            d = v * v_conj  # the diagonals of the projectors
            rows = [_output_diagonals(ch, d) for ch in channels]
            for first in range(0, len(v), per_chunk):
                k = min(per_chunk, len(v) - first)
                chunk, images, squares = proj[:k], out[:k], sq[:k]
                np.multiply(v[first : first + k, :, None], v_conj[first : first + k, None, :], out=chunk)
                # Each state's squared norm is one contiguous sum over its n^2
                # entries, as np.linalg.norm(axis=(-2, -1)) takes it of one state.
                entries = squares.real.reshape(k, n * n)
                for (a, b), diagonals, found in zip(weights, rows, norms):
                    _pair_sectors_into(a, b, chunk, images)
                    _diagonal_view(images)[...] = diagonals[first : first + k]
                    np.conjugate(images, out=squares)
                    squares *= images
                    found.append(np.sqrt(np.add.reduce(entries, axis=-1)))
    reports = []
    for ch, found in zip(channels, norms):
        found = np.concatenate(found)
        lost = np.flatnonzero(np.isinf(found[n * n :]))  # Haar states whose squares overflowed
        if len(lost):
            v = np.concatenate(list(_haar_vectors(n, samples, seed)))[lost]
            found[n * n + lost] = [frobenius_norm(ch(np.outer(u, u.conj()))) for u in v]
        reports.append(_norm_spread_report(found, n, tol))
    return reports


def _norm_spread_report(norms: np.ndarray, n: int, tol: Tolerance) -> VerificationReport:
    """The sample test's verdict on the output norms of the witness states, then the Haar samples."""

    spread = float(norms.max() - norms.min())
    mean = float(norms.mean())
    passed = spread <= tol.bound(float(norms.max()))
    witness = None
    if not passed:
        top, bottom = (_state_label(n, int(i)) for i in (norms.argmax(), norms.argmin()))
        witness = (
            f"norm spread {spread:.6e}: max {norms.max():.12f} at {top}, "
            f"min {norms.min():.12f} at {bottom}"
        )
    return VerificationReport(
        passed=passed,
        max_deviation=spread,
        mean_deviation=float(np.mean(np.abs(norms - mean))),
        witness=witness,
        samples_used=len(norms),
    )


# --- Determinant recurrence ----------------------------------------------


def dcq_det_formula(n: int, p: float) -> float:
    """Closed form (2p + (1-p)/n)^(n-1) * (1 - (n-1)^2 p) / n."""
    return (2 * p + (1 - p) / n) ** (n - 1) * (1 - (n - 1) ** 2 * p) / n


def verify_det_recurrence(
    n: int,
    grid: int = 21,
    tol: Tolerance = Tolerance(absolute=1e-12, relative=1e-10),
) -> VerificationReport:
    """Compare the closed-form determinant with LAPACK on a p grid over [-1/2, 1/2].

    LAPACK takes the determinant of the dcq member's classical Choi block
    (diagonal p + (1-p)/n, off-diagonal -p); the closed form is the
    product e0 ez^(n-1) of its eigenvalues (see ``repr_coefficients``).
    The absolute floor matters: the formula has analytic zeros inside the
    grid (p = 1/(n-1)^2) where a purely relative comparison is vacuous.
    A grid of fewer than 2 points raises ValueError.
    """

    _check_grid(grid)
    worst = 0.0
    worst_p = -0.5
    passed = True
    for p in np.linspace(-0.5, 0.5, grid):
        formula = dcq_det_formula(n, float(p))
        block, _ = _classical_block(family_to_diagonal(FamilyChannel(Family.DCQ, float(p), n)))
        direct = float(np.linalg.det(block))
        dev = abs(formula - direct)
        if dev > worst:
            worst, worst_p = dev, float(p)
        if not tol.close(formula, direct):
            passed = False
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=None if passed else f"formula/LAPACK determinant mismatch at p={worst_p}",
        samples_used=grid,
    )


# --- Conjugation-sum identities ------------------------------------------


def sum_x(s: np.ndarray, n: int) -> np.ndarray:
    """sum over pairs of sigma_x S sigma_x = S^T + Tr(S) I - 2 diag(S); S may be a stack."""
    return np.swapaxes(s, -1, -2) + _trace_eye(s, n) - 2 * _diag_part(s)


def sum_y(s: np.ndarray, n: int) -> np.ndarray:
    """sum over pairs of sigma_y S sigma_y = Tr(S) I - S^T; S may be a stack."""
    return _trace_eye(s, n) - np.swapaxes(s, -1, -2)


def sum_z(s: np.ndarray, n: int) -> np.ndarray:
    """sum over pairs of sigma_z S sigma_z = n diag(S) - S; S may be a stack."""
    return n * _diag_part(s) - s


def _trace_eye(s: np.ndarray, n: int) -> np.ndarray:
    """Tr(S) I for each matrix of an (..., n, n) stack."""
    return np.trace(s, axis1=-2, axis2=-1)[..., None, None] * np.eye(n, dtype=complex)


def _diag_part(s: np.ndarray) -> np.ndarray:
    """diag(S) as a matrix, for each matrix of an (..., n, n) stack."""

    out = np.zeros(s.shape, dtype=s.dtype)
    _diagonal_view(out)[...] = np.diagonal(s, axis1=-2, axis2=-1)
    return out


@lru_cache(maxsize=_CACHED_DIMS)
def _sum_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sparse terms of the x, y, z pair sums; the staircase sum is W * S, W = sum_k z_k z_k^T.

    A pair matrix v_a E_(r_a c_a) + v_b E_(r_b c_b) (sigma_x, sigma_y, sigma_z from
    ``basis._pair_entries``) gives m S m four terms v_a v_b S[c_a, r_b] at (r_a, c_b).  Term i adds
    coef[i] S.flat[gather[i]] at dest[i] of a (2, 3, n, n) buffer: plane 0 holds the one term of
    each off-diagonal entry per sector, plane 1 the n - 1 terms of (i, i) at (i, partner).
    """

    k, l = _pair_index(n)
    gather, coef, dest = [], [], []
    for sector, (rows, cols, values) in enumerate(_pair_entries(k, l)):
        for r_a, c_a, v_a in zip(rows, cols, values):
            for r_b, c_b, v_b in zip(rows, cols, values):
                on_diagonal = r_a == c_b  # then the column is the pair partner of r_a
                gather.append(c_a * n + r_b)
                coef.append(np.full(len(k), v_a * v_b, dtype=complex))
                col = np.where(on_diagonal, k + l - r_a, c_b)
                dest.append(((on_diagonal * 3 + sector) * n + r_a) * n + col)
    z = np.array([np.diag(m_z(n, j)).real / sqrt(j * (j + 1)) for j in range(1, n)])
    return np.concatenate(gather), np.concatenate(coef), np.concatenate(dest), z.T @ z


def _direct_sums(s: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Brute-force conjugation sums of an (..., n, n) stack, one per distinct sector, O(n^2) each.

    Keys "x", "y", "z" sum over the unnormalized pair matrices, "ez" over
    the staircase z block of the orthonormal basis; each value has the
    shape of ``s``, and its matrices equal the sums of each matrix alone.
    Its I/sqrt(n), x/sqrt(2), y/sqrt(2) elements sum to S/n, "x"/2, "y"/2.
    """

    gather, coef, dest, w = _sum_plan(n)
    flat = s.reshape(-1, n * n)
    buf = np.zeros((len(flat), 2, 3, n, n), dtype=complex)
    terms = np.take(flat, gather, axis=1)
    terms *= coef
    np.put(buf, dest + 6 * n * n * np.arange(len(flat))[:, None], terms)
    idx = np.arange(n)
    planes = buf[:, 0]
    planes[..., idx, idx] = buf[:, 1].sum(axis=-1)  # pairwise: accurate at large n
    return {key: planes[:, i].reshape(s.shape) for i, key in enumerate("xyz")} | {"ez": w * s}


# Peak bytes per trial per n^2 of a trial stack, every array counted: the
# draw, the input, and `_direct_sums`' buffer, terms and scatter index, plus
# the forms.  Measured with tracemalloc at n = 64: 284 in the representation
# checks, 462 in the identity check (two stacks of sums alive at once).
_TRIAL_BYTES_PER_N2 = 480

# Peak bytes of one trial stack: the default trial counts of n <= 16 run in
# one chunk, and memory stays flat at large n (one trial per chunk from
# n = 96; chunks of 10 trials raised the peak of `report --dim 128` from
# 101 to 151 MB).
_TRIAL_CHUNK_BYTES = 8 << 20


def _trial_chunks(n: int, trials: int, seed: int):
    """The ``trials`` complex Gaussian n x n inputs of ``seed``, in (chunk, n, n) stacks.

    One (chunk, 2, n, n) draw reads the generator's stream exactly as the
    per-trial (real, imaginary) pairs of n x n draws do.
    """

    per_chunk = max(1, _TRIAL_CHUNK_BYTES // (_TRIAL_BYTES_PER_N2 * n * n))
    rng = np.random.default_rng(seed)
    for start in range(0, trials, per_chunk):
        g = rng.standard_normal((min(per_chunk, trials - start), 2, n, n))
        yield g[:, 0] + 1j * g[:, 1]


_SUM_TOL = Tolerance(absolute=1e-12, relative=0.0)


def verify_sum_identities(
    n: int,
    trials: int = 50,
    seed: int = 0,
    tol: Tolerance = _SUM_TOL,
) -> VerificationReport:
    """Check the closed conjugation-sum forms against brute-force sums.

    Uses generic complex inputs and checks the x, y, z and staircase "ez"
    sums (the orthonormal x/y sectors sum to half the x/y sums).  The
    closed x/y forms carry a transpose; the transpose-free variants
    coincide with them exactly on complex symmetric inputs, which is also
    verified and recorded in the witness text.  The trials run in stacks
    of :func:`_trial_chunks`.
    """

    _check_dim(n)
    _check_trials(trials)
    worst = 0.0
    worst_sym = 0.0
    for s in _trial_chunks(n, trials, seed):
        direct = _direct_sums(s, n)
        closed = {
            "x": sum_x(s, n),
            "y": sum_y(s, n),
            "z": sum_z(s, n),
            "ez": _diag_part(s) - s / n,
        }
        for key, mat in closed.items():
            worst = max(worst, float(np.max(np.abs(direct[key] - mat))))
        # Transpose-free variants on a complex symmetric input.
        sym = (s + np.swapaxes(s, -1, -2)) / 2
        direct_sym = _direct_sums(sym, n)
        trace_eye = _trace_eye(sym, n)
        printed = {
            "x": sym + trace_eye - 2 * _diag_part(sym),
            "y": trace_eye - sym,
            "z": n * _diag_part(sym) - np.swapaxes(sym, -1, -2),
        }
        for key, mat in printed.items():
            worst_sym = max(worst_sym, float(np.max(np.abs(direct_sym[key] - mat))))
    passed = worst <= tol.bound(1.0) and worst_sym <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=(
            f"transpose-free variants on symmetric inputs: max deviation {worst_sym:.3e}"
        ),
        samples_used=trials,
    )


def verify_representations(
    family: Family,
    p: float,
    n: int,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = _SUM_TOL,
) -> VerificationReport:
    """Both conjugation-sum expansions against the closed family form.

    The basis form is e0 S/n + ex X/2 + ey Y/2 + ez EZ (see ``_direct_sums``).
    """

    return _representation_reports([(family, p)], n, trials, seed, tol)[0]


def _representation_reports(
    members: list[tuple[Family, float]],
    n: int,
    trials: int,
    seed: int,
    tol: Tolerance = _SUM_TOL,
) -> list[VerificationReport]:
    """``verify_representations`` of each (family, p), from one draw of the inputs.

    The Hermitian inputs of ``seed`` are drawn once, in stacks, and their
    brute-force sums are weighted for every member, so the reports equal
    those of one call per member, bit for bit: every form is elementwise,
    and the mean deviation stays a sequential sum over the trials.
    """

    _check_trials(trials)
    coeffs = [repr_coefficients(family, p, n) for family, p in members]
    channels = [FamilyChannel(family=family, p=p, dim=n) for family, p in members]
    devs: list[list[float]] = [[] for _ in members]
    for g in _trial_chunks(n, trials, seed):
        s = hermitian_part(g)
        sums = _direct_sums(s, n)
        for ch, c, found in zip(channels, coeffs, devs):
            expected = family_apply(ch, s)
            pauli_form = c.c0 * s + c.cx * sums["x"] + c.cy * sums["y"] + c.cz * sums["z"]
            basis_form = (
                c.e0 * s / n + c.ex * sums["x"] / 2 + c.ey * sums["y"] / 2 + c.ez * sums["ez"]
            )
            # One deviation per trial: the worse of the two forms.
            pauli_dev = np.abs(pauli_form - expected).max(axis=(-2, -1)).tolist()
            basis_dev = np.abs(basis_form - expected).max(axis=(-2, -1)).tolist()
            found.extend(max(a, b) for a, b in zip(pauli_dev, basis_dev))
    reports = []
    for (family, p), found in zip(members, devs):
        worst = 0.0
        total = 0.0
        for dev in found:  # in trial order: Python's sum() of floats is compensated from 3.12 on
            worst = max(worst, dev)
            total += dev
        passed = worst <= tol.bound(1.0)
        witness = None if passed else f"representation mismatch {worst:.3e} for {family.value}, p={p}, n={n}"
        reports.append(
            VerificationReport(
                passed=passed,
                max_deviation=worst,
                mean_deviation=total / trials,
                witness=witness,
                samples_used=trials,
            )
        )
    return reports


# --- Qubit classification -------------------------------------------------


@dataclass(frozen=True)
class QubitClassification:
    """Verdict of the constant-norm trichotomy for a qubit channel.

    ``tag`` is "completely_depolarizing" (lam = 0; ``fixed_output`` holds
    the constant output state), "diagonal" (t = 0, equal moduli;
    ``variant`` in 1..4 and ``p`` = |lam_z| describe the member), or
    "not_constant_norm".
    """

    tag: str
    fixed_output: Optional[np.ndarray] = None
    variant: Optional[int] = None
    p: Optional[float] = None


# Variant i is the i-th family at n = 2, keyed by its (x, y) multiplier signs.
_VARIANT_BY_SIGNS = {_SIGNS[family][:2]: i for i, family in enumerate(Family, 1)}


def classify_qubit(l: QubitLambda, tol: Tolerance = DEFAULT_TOL) -> QubitClassification:
    """Decide whether a qubit channel has constant output norm, and how.

    Diagonal members are normalized to lam_z >= 0 by flipping the signs of
    lam_z and lam_x together (a sigma_y conjugation), so all eight sign
    patterns collapse onto the four canonical variants.
    """

    t = np.array(l.t)
    lam = np.array(l.lam)
    eps = tol.bound(1.0)
    if np.all(np.abs(lam) <= eps):
        if np.linalg.norm(t) > 1 + eps:
            raise ValueError(f"translation {l.t} leaves the Bloch ball: not a channel")
        # Every state maps to the image of I/2: I/2 + (t . sigma)/2.
        fixed = l(np.eye(2, dtype=complex) / 2)
        return QubitClassification(tag="completely_depolarizing", fixed_output=fixed)
    moduli = np.abs(lam)
    if np.all(np.abs(t) <= eps) and float(moduli.max() - moduli.min()) <= eps:
        signs = np.where(lam >= 0, 1, -1)
        if signs[2] < 0:
            signs[2] = -signs[2]
            signs[0] = -signs[0]
        variant = _VARIANT_BY_SIGNS[(int(signs[0]), int(signs[1]))]
        return QubitClassification(tag="diagonal", variant=variant, p=float(moduli.mean()))
    return QubitClassification(tag="not_constant_norm")
