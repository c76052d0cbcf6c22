"""Numerical verification: CPTP ranges, constant-norm behaviour, identities.

Everything here returns the plain records of :mod:`qchan.exact` with the
measured numbers embedded, so a report can be re-checked without
re-running the computation.  The conventions:

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
  against one draw of its inputs, with the reports their own calls give;
* Haar states and trial matrices come in stacks from the one random
  stream of :mod:`qchan.channels`, with the bits of one-at-a-time draws.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf, isfinite, sqrt
from typing import Optional

import numpy as np

from .basis import _CACHED_DIMS, _pair_entries, _pair_index, m_z
from .channels import (
    AnyChannel,
    DiagonalChannel,
    FamilyChannel,
    QubitLambda,
    _complex_normals,
    _diagonal_view,
    _haar_vectors,
    _output_diagonals,
    _pair_sector_weights,
    _pair_sectors_into,
    _states_per_chunk,
    as_linear_map,
    family_apply,
    family_to_diagonal,
)
from .exact import (
    _PEAK_BYTES,
    _SIGNS,
    DEFAULT_TOL,
    Family,
    ParamRange,
    QubitClassification,
    Tolerance,
    VerificationReport,
    _check_dim,
    _check_grid,
    _check_samples,
    _check_trials,
    param_range,
    repr_coefficients,
)
from .linalg import _frobenius_norms, frobenius_norm, hermitian_part

__all__ = [
    "VerificationReport",
    "ParamRange",
    "QubitClassification",
    "param_range",
    "is_cptp",
    "constant_fnorm_criterion",
    "expected_constant_norm",
    "witness_states",
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


def is_cptp(ch: AnyChannel, n: int, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Choi-based complete positivity + trace preservation check, O(n^3) time, O(n^2) memory.

    The Choi matrix sum_ij E_ij ⊗ Phi(E_ij) of a channel object is block
    diagonal: the n x n "classical" block on span{|ii>} has diagonal
    D_ii and off-diagonal a_kl, and for each pair k < l a 2 x 2 block on
    span{|kl>, |lk>} is [[D_lk, b_kl], [b_kl, D_kl]], where
    D[j, i] = Phi(E_jj)_ii and (a, b) are the pair weights.  Eigenvalues,
    Frobenius norm and partial trace all come from these blocks.  CP
    holds when the smallest eigenvalue is above -tol of the Choi norm, TP
    when the partial trace is within tol of I.  A Choi norm past the float
    range raises ValueError: no tolerance can be scaled by it.
    """

    diag = _as_diagonal(ch)
    if diag.dim != n:
        raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    a, b = diag.pair_weights
    classical, d = _classical_block(diag)
    scale = frobenius_norm(np.stack([d, a, b]))
    if scale == inf:
        raise ValueError("the Frobenius norm of the Choi matrix overflows")
    classical_min = float(np.linalg.eigvalsh(classical)[0])
    k, l = _pair_index(n)
    x, y = d[k, l], d[l, k]
    pair_mins = (x + y) / 2 - np.hypot((x - y) / 2, b[k, l])
    worst = int(np.argmin(pair_mins))
    if classical_min <= pair_mins[worst]:
        smallest, where = classical_min, " in classical block"
    else:
        smallest, where = float(pair_mins[worst]), f" in pair block ({k[worst] + 1},{l[worst] + 1})"
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
    square = t * t
    if square == inf:  # from |t| ~ 1.3e154 on, where 1/n is far below an ulp of t^2 (1 - 1/n)
        return abs(t) * sqrt(1 - 1 / n)
    return sqrt(1 / n + square * (1 - 1 / n))


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
    retaken once its draw is done, from the same buffers, as
    :func:`frobenius_norm` takes it of the state's output.
    """

    _check_samples(samples)
    diags = [_as_diagonal(ch) for ch in channels]
    for diag in diags:
        if diag.dim != n:
            raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    norms = np.empty((len(channels), n * n + samples))  # per channel: witness states, then Haar samples
    norms[:, : n * n] = [_witness_norms(diag) for diag in diags]
    # A weight that is zero throughout adds only zeros, whose signs no squared modulus sees.
    weights = [[w if np.any(w) else None for w in _pair_sector_weights(ch)] for ch in channels]
    per_chunk = min(_states_per_chunk(n), samples)
    proj, out, sq = (np.empty((per_chunk, n, n), dtype=complex) for _ in range(3))
    pos = n * n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is handled below
        for v in _haar_vectors(n, samples, seed):
            start = pos
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
                    np.sqrt(np.add.reduce(entries, axis=-1), out=found[pos : pos + k])
                pos += k
            for (a, b), diagonals, found in zip(weights, rows, norms):
                lost = np.flatnonzero(np.isinf(found[start:pos]))  # this draw's overflowed squares
                for first in range(0, len(lost), per_chunk):
                    q = lost[first : first + per_chunk]
                    chunk, images = proj[: len(q)], out[: len(q)]
                    np.multiply(v[q, :, None], v_conj[q, None, :], out=chunk)
                    _pair_sectors_into(a, b, chunk, images)
                    _diagonal_view(images)[...] = diagonals[q]
                    found[start + q] = _frobenius_norms(images, sq[: len(q)])
    return [_norm_spread_report(found, n, tol) for found in norms]


def _norm_spread_report(norms: np.ndarray, n: int, tol: Tolerance) -> VerificationReport:
    """The sample test's verdict on the output norms of the witness states, then the Haar samples."""

    largest = float(norms.max())
    if not isfinite(largest):  # a dcq or tcq member's 2p d(S) term passes the float range from |p| ~ 9e307 on
        first = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise ValueError(f"the output of {_state_label(n, first)} overflows")
    spread = float(largest - norms.min())
    mean = _mean(norms)
    passed = spread <= tol.bound(largest)
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
        mean_deviation=_mean(np.abs(norms - mean)),
        witness=witness,
        samples_used=len(norms),
    )


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of finite non-negative values, taken of them over their largest where the sum overflows."""

    with np.errstate(over="ignore"):  # an overflowed sum is redone below
        mean = float(np.mean(values))
    if mean == inf:
        top = float(values.max())
        mean = top * float(np.mean(values / top))
    return mean


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
def _staircase_gram(n: int) -> np.ndarray:
    """W = sum_j z_j z_j^T over the normalized staircase diagonals z_j; the staircase sum is W * S."""

    z = np.array([np.diag(m_z(n, j)).real / sqrt(j * (j + 1)) for j in range(1, n)])
    return z.T @ z


def _direct_sums(s: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """Brute-force conjugation sums of an (..., n, n) stack, one per distinct sector, O(n^2) each.

    Keys "x", "y", "z" sum over the unnormalized pair matrices, "ez" over
    the staircase z block of the orthonormal basis; each value has the
    shape of ``s``, and its matrices equal the sums of each matrix alone.
    Its I/sqrt(n), x/sqrt(2), y/sqrt(2) elements sum to S/n, "x"/2, "y"/2.

    A pair matrix v_a E_(r_a c_a) + v_b E_(r_b c_b) (``basis._pair_entries``) gives m S m
    four terms v_a v_b S[c_a, r_b] at (r_a, c_b), c_b being r_a or its partner k + l - r_a.
    Plane 0 takes the one term of each off-diagonal entry per sector, plane 1 the n - 1 terms
    of (i, i) at (i, partner).
    """

    buf = np.zeros((*s.shape[:-2], 2, 3, n, n), dtype=complex)
    # Term a writes the rows of entry a, which are k for a = 0 and l for a = 1, so
    # each takes the pairs in an order that writes the plane row by row.
    for a, (k, l) in enumerate((_pair_index(n), _pair_index(n, by_l=True))):
        for sector, (rows, cols, values) in enumerate(_pair_entries(k, l)):
            r_a, c_a, v_a = rows[a], cols[a], values[a]
            for r_b, c_b, v_b in zip(rows, cols, values):
                plane = int(r_a[0] == c_b[0])  # the same for every pair
                buf[..., plane, sector, r_a, k + l - r_a] = (v_a * v_b) * s[..., c_a, r_b]
    idx = np.arange(n)
    planes = buf[..., 0, :, :, :]
    planes[..., idx, idx] = buf[..., 1, :, :, :].sum(axis=-1)  # pairwise: accurate at large n
    return {key: planes[..., i, :, :] for i, key in enumerate("xyz")} | {"ez": _staircase_gram(n) * s}


# Peak bytes of one trial stack: the default trial counts of n <= 16 run in
# one chunk, and memory stays flat at large n (one trial per chunk from
# n = 123; chunks of 10 trials raised the peak of `report --dim 128` from
# 101 to 151 MB).
_TRIAL_CHUNK_BYTES = 8 << 20


def _trial_chunks(n: int, trials: int, seed: int):
    """The ``trials`` complex Gaussian n x n inputs of ``seed``, in (chunk, n, n) stacks of the shared stream."""

    per_chunk = max(1, _TRIAL_CHUNK_BYTES // (_PEAK_BYTES["identities"].per_n2 * n * n))
    return _complex_normals(seed, trials, per_chunk, (n, n))


_SUM_TOL = Tolerance(absolute=1e-12, relative=1e-14)

# The closed form of each brute-force sum of ``_direct_sums``.
_CLOSED_SUMS = {"x": sum_x, "y": sum_y, "z": sum_z, "ez": lambda s, n: _diag_part(s) - s / n}


def verify_sum_identities(
    n: int,
    trials: int = 50,
    seed: int = 0,
    tol: Tolerance = _SUM_TOL,
) -> VerificationReport:
    """Check the closed conjugation-sum forms against brute-force sums.

    Each trial checks the x, y, z and staircase "ez" sums of a generic
    complex input S (the orthonormal x/y sectors sum to half the x/y sums),
    then the x, y, z sums of its complex symmetric part (S + S^T)/2.  Every
    transpose in the closed forms is a no-op there, so on that input they
    are the transpose-free variants, whose deviation the witness text
    records.  Each input is decided at ``tol.bound`` of the largest entry
    of its closed forms, which grows like n |S_ii| in the z sums.  The
    trials run in stacks of :func:`_trial_chunks`.
    """

    _check_dim(n)
    _check_trials(trials)
    found = np.zeros((2, 2))  # (largest deviation, largest closed-form entry) of S, then of (S + S^T)/2
    for s in _trial_chunks(n, trials, seed):
        for symmetric, row in enumerate(found):
            x = (s + np.swapaxes(s, -1, -2)) / 2 if symmetric else s
            direct = _direct_sums(x, n)
            for key in ("x", "y", "z") if symmetric else _CLOSED_SUMS:
                closed = _CLOSED_SUMS[key](x, n)
                row[0] = max(row[0], float(np.max(np.abs(direct[key] - closed))))
                row[1] = max(row[1], float(np.max(np.abs(closed))))
            del direct, closed  # before the next input's sums are built
    (worst, scale), (worst_sym, scale_sym) = found.tolist()
    return VerificationReport(
        passed=worst <= tol.bound(scale) and worst_sym <= tol.bound(scale_sym),
        max_deviation=worst,
        witness=f"transpose-free variants on symmetric inputs: max deviation {worst_sym:.3e}",
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

    _check_trials(trials)
    return _representation_reports([FamilyChannel(family=family, p=p, dim=n)], n, trials, seed, tol)[0]


def _representation_reports(
    channels: list[FamilyChannel],
    n: int,
    trials: int,
    seed: int,
    tol: Tolerance = _SUM_TOL,
) -> list[VerificationReport]:
    """``verify_representations`` of each family member, from one draw of the inputs.

    The Hermitian inputs of ``seed`` are drawn once, in stacks, and their
    brute-force sums are weighted for every member, so the reports equal
    those of one call per member, bit for bit: every form is elementwise,
    and the mean deviation stays a sequential sum over the trials.
    """

    _check_trials(trials)
    coeffs = [repr_coefficients(ch.family, ch.p, n) for ch in channels]
    devs = np.empty((len(channels), trials))  # per member, the worse of the two forms' deviations per trial
    pos = 0
    for g in _trial_chunks(n, trials, seed):
        s = hermitian_part(g)
        sums = _direct_sums(s, n)
        for ch, c, row in zip(channels, coeffs, devs):
            expected = family_apply(ch, s)
            pauli_form = c.c0 * s + c.cx * sums["x"] + c.cy * sums["y"] + c.cz * sums["z"]
            basis_form = (
                c.e0 * s / n + c.ex * sums["x"] / 2 + c.ey * sums["y"] / 2 + c.ez * sums["ez"]
            )
            pauli_dev = np.abs(pauli_form - expected).max(axis=(-2, -1))
            basis_dev = np.abs(basis_form - expected).max(axis=(-2, -1))
            np.maximum(pauli_dev, basis_dev, out=row[pos : pos + len(s)])
        pos += len(s)
    reports = []
    for ch, row in zip(channels, devs):
        worst = float(row.max())
        total = float(np.add.accumulate(row)[-1])  # in trial order, one addition at a time
        passed = worst <= tol.bound(1.0)
        witness = None if passed else f"representation mismatch {worst:.3e} for {ch.family.value}, p={ch.p}, n={n}"
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
