"""Numerical verification: CPTP ranges, constant-norm behaviour, identities.

Everything here returns plain records with the measured numbers embedded,
so a report can be re-checked without re-running the computation.  The
conventions:

* complete positivity is decided by the smallest Choi eigenvalue with a
  threshold scaled to the Choi matrix's Frobenius norm;
* trace preservation is the partial trace of the Choi matrix over the
  output factor against the identity;
* channel objects (``FamilyChannel``, ``DiagonalChannel``) take fast
  paths that use their structure: block-wise Choi checks and batched
  application to stacks of states; any other linear map is checked
  through its dense Choi matrix and one state at a time;
* the constant-norm criterion for diagonal channels is that all n^2 - 1
  multiplier moduli agree, in which case every pure input maps to output
  Frobenius norm sqrt(1/n + t^2 (1 - 1/n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .basis import _pauli_stacks, build_basis, pair_count, pairs
from .channels import (
    _SIGNS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    AnyChannel,
    DiagonalChannel,
    Family,
    FamilyChannel,
    QubitLambda,
    cptp_range,
    diagonal_image,
    family_apply,
    family_to_diagonal,
    repr_coefficients,
    to_choi,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    frobenius_norm,
    hermitian_part,
    partial_trace_second,
)

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


@dataclass(frozen=True)
class ParamRange:
    """Closed CPTP parameter interval of one family at one dimension."""

    family: Family
    dim: int
    p_min: float
    p_max: float

    def contains(self, p: float, tol: Tolerance = DEFAULT_TOL) -> bool:
        slack = tol.bound(max(abs(self.p_min), abs(self.p_max)))
        return self.p_min - slack <= p <= self.p_max + slack


def param_range(family: Family, n: int) -> ParamRange:
    lo, hi = cptp_range(family, n)
    return ParamRange(family=family, dim=n, p_min=float(lo), p_max=float(hi))


def is_cptp(
    apply_fn: Callable[[np.ndarray], np.ndarray], n: int, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Choi-based complete positivity + trace preservation check.

    A channel object is checked block by block (:func:`_is_cptp_blocks`);
    any other map through its dense n^2 x n^2 Choi matrix.
    """

    if isinstance(apply_fn, (FamilyChannel, DiagonalChannel)):
        return _is_cptp_blocks(apply_fn, n, tol)
    choi = to_choi(apply_fn, n)
    scale = frobenius_norm(choi)
    herm_dev = float(np.max(np.abs(choi - choi.conj().T)))
    if herm_dev > tol.bound(scale):
        return VerificationReport(
            passed=False,
            witness=f"Choi matrix is not Hermitian (deviation {herm_dev:.3e})",
        )
    eigs = np.linalg.eigvalsh(hermitian_part(choi))
    smallest = float(eigs[0])
    trace_dev = float(np.max(np.abs(partial_trace_second(choi, n) - np.eye(n))))
    return _choi_verdict(smallest, scale, trace_dev, tol, where="")


def _choi_verdict(
    smallest: float, scale: float, trace_dev: float, tol: Tolerance, where: str
) -> VerificationReport:
    """PSD within tol of the Choi norm ``scale``, partial trace within tol of I.

    ``where`` names the part of the Choi matrix holding ``smallest``.
    """

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


def _is_cptp_blocks(ch: AnyChannel, n: int, tol: Tolerance) -> VerificationReport:
    """The Choi check of a basis-diagonal channel in O(n^3) time, O(n^2) memory.

    The Choi matrix sum_ij E_ij ⊗ Phi(E_ij) of such a channel is block
    diagonal: the n x n "classical" block on span{|ii>} has diagonal
    D_ii and off-diagonal a_kl, and for each pair k < l a 2 x 2 block on
    span{|kl>, |lk>} is [[D_lk, b_kl], [b_kl, D_kl]], where
    D[j, i] = Phi(E_jj)_ii and (a, b) are the pair weights.  Eigenvalues,
    Frobenius norm and partial trace all come from these blocks, with the
    thresholds of the dense check.
    """

    diag = family_to_diagonal(ch) if isinstance(ch, FamilyChannel) else ch
    if diag.dim != n:
        raise ValueError(f"dimension mismatch: channel dim {diag.dim}, n={n}")
    a, b = diag.pair_weights
    classical, d = _classical_block(diag)
    classical_min = float(np.linalg.eigvalsh(classical)[0])
    k, l = np.triu_indices(n, 1)
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
    return _choi_verdict(smallest, scale, trace_dev, tol, where)


def _classical_block(diag: DiagonalChannel) -> tuple[np.ndarray, np.ndarray]:
    """The classical Choi block (D_ii on the diagonal, a_kl off it), and D."""

    d = diagonal_image(diag, np.eye(diag.dim))
    block = diag.pair_weights[0].copy()
    np.fill_diagonal(block, np.diag(d))
    return block, d


def constant_fnorm_criterion(
    ch: AnyChannel, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, Optional[float]]:
    """(holds, expected output norm) — holds iff all multiplier moduli agree."""

    diag = family_to_diagonal(ch) if isinstance(ch, FamilyChannel) else ch
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

    return list(_projectors(_witness_vectors(n, 0, n * n)))


def _witness_vectors(n: int, start: int, stop: int) -> np.ndarray:
    """Unit vectors of witness states start..stop-1, as a (stop-start, n) array."""

    k, l = np.triu_indices(n, 1)
    npairs = len(k)
    index = np.arange(start, stop)
    v = np.zeros((stop - start, n), dtype=complex)
    basis_rows = index < n
    v[basis_rows, index[basis_rows]] = 1
    rows = np.flatnonzero(~basis_rows)
    q = index[rows] - n
    v[rows, k[q % npairs]] = np.where(q < npairs, 1.0, 1j)
    v[rows, l[q % npairs]] = 1
    v[rows] /= np.linalg.norm(v[rows], axis=-1, keepdims=True)
    return v


def _projectors(v: np.ndarray) -> np.ndarray:
    """|v><v| for each row of v, entry by entry as np.outer computes it."""
    return v[:, :, None] * v.conj()[:, None, :]


# Bytes of states built and applied at once by the batched sample test.  Small,
# so memory stays flat however many states (n^2 witnesses + samples) it checks:
# an apply holds a few chunk-sized temporaries, and larger chunks raised peak
# memory at small n without speeding up n <= 20.
_CHUNK_BYTES = 1 << 16


def _state_chunks(n: int, samples: int, seed: int):
    """witness_states(n), then ``samples`` random_pure_state draws, in stacks.

    The states, and their order, are exactly those of the per-state loop.
    """

    per_chunk = max(1, _CHUNK_BYTES // (16 * n * n))
    for start in range(0, n * n, per_chunk):
        yield _projectors(_witness_vectors(n, start, min(start + per_chunk, n * n)))
    rng = np.random.default_rng(seed)
    for start in range(0, samples, per_chunk):
        # One (real, imaginary) draw of n normals per state, as random_pure_state.
        g = rng.standard_normal((min(per_chunk, samples - start), 2, n))
        v = g[:, 0] + 1j * g[:, 1]
        for row in v:
            row /= np.linalg.norm(row)  # per row, for random_pure_state's exact bits
        yield _projectors(v)


def witness_state_labels(n: int) -> list[str]:
    labels = [f"psi_{k}" for k in range(n)]
    labels += [f"xi_({k},{l})" for k, l in pairs(n)]
    labels += [f"eta_({k},{l})" for k, l in pairs(n)]
    return labels


def constant_fnorm_sample_test(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Empirical constant-norm check over witness states plus Haar samples.

    Passes when the spread of output Frobenius norms stays within
    tolerance of the largest observed norm; the witness field names the
    states achieving the extreme norms otherwise.  A channel object is
    applied to stacks of states; any other map to one state at a time.
    Both see the same states and give the same report.
    """

    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    chunks = _state_chunks(n, samples, seed)
    if isinstance(apply_fn, (FamilyChannel, DiagonalChannel)):
        if apply_fn.dim != n:
            raise ValueError(f"dimension mismatch: channel dim {apply_fn.dim}, n={n}")
        norms = np.array([frobenius_norm(out) for chunk in chunks for out in apply_fn(chunk)])
    else:
        norms = np.array([frobenius_norm(apply_fn(s)) for chunk in chunks for s in chunk])
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


# --- Determinant recurrence ----------------------------------------------


def dcq_det_formula(n: int, p: float) -> float:
    """Closed form (2p + (1-p)/n)^(n-1) * (1 - (n-1)^2 p) / n."""
    return (2 * p + (1 - p) / n) ** (n - 1) * (1 - (n - 1) ** 2 * p) / n


def verify_det_recurrence(
    n: int,
    grid: int = 21,
    lo: float = -0.5,
    hi: float = 0.5,
    tol: Tolerance = Tolerance(absolute=1e-12, relative=1e-10),
) -> VerificationReport:
    """Compare the closed-form determinant with LAPACK over a p grid.

    LAPACK takes the determinant of the dcq member's classical Choi block
    (diagonal p + (1-p)/n, off-diagonal -p); the closed form is the
    product e0 ez^(n-1) of its eigenvalues (see ``repr_coefficients``).
    The absolute floor matters: the formula has analytic zeros inside the
    grid (p = 1/(n-1)^2) where a purely relative comparison is vacuous.
    A grid of fewer than 2 points raises ValueError.
    """

    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    worst = 0.0
    worst_p = lo
    passed = True
    for p in np.linspace(lo, hi, grid):
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
    """sum over pairs of sigma_x S sigma_x = S^T + Tr(S) I - 2 diag(S)."""
    return s.T + np.trace(s) * np.eye(n, dtype=complex) - 2 * np.diag(np.diag(s))


def sum_y(s: np.ndarray, n: int) -> np.ndarray:
    """sum over pairs of sigma_y S sigma_y = Tr(S) I - S^T."""
    return np.trace(s) * np.eye(n, dtype=complex) - s.T


def sum_z(s: np.ndarray, n: int) -> np.ndarray:
    """sum over pairs of sigma_z S sigma_z = n diag(S) - S."""
    return n * np.diag(np.diag(s)) - s


def _conjugation_sum(mats: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Brute-force sum_k m_k S m_k over a (k, n, n) stack.

    Every term is a dense product, formed in two GEMMs: all m_k S at once,
    then the row of those products times the column of the m_k.
    """

    k, n, _ = mats.shape
    left = (mats.reshape(k * n, n) @ s).reshape(k, n, n)
    return left.transpose(1, 0, 2).reshape(n, k * n) @ mats.reshape(k * n, n)


def _direct_sums(s: np.ndarray, n: int, staircase: bool = True) -> dict[str, np.ndarray]:
    """Brute-force conjugation sums, one per distinct sector.

    Keys "x", "y", "z" sum over the unnormalized pair matrices, "ez" (if
    ``staircase``) over the staircase z block of the orthonormal basis.
    Its I/sqrt(n), x/sqrt(2), y/sqrt(2) elements sum to S/n, "x"/2, "y"/2.
    """

    sectors = dict(zip("xyz", _pauli_stacks(n)))
    if staircase:
        sectors["ez"] = build_basis(n).stacked[1 + 2 * pair_count(n) :]
    return {key: _conjugation_sum(mats, s) for key, mats in sectors.items()}


def verify_sum_identities(
    n: int,
    trials: int = 50,
    seed: int = 0,
    tol: Tolerance = Tolerance(absolute=1e-12, relative=0.0),
) -> VerificationReport:
    """Check the closed conjugation-sum forms against brute-force sums.

    Uses generic complex inputs and checks the x, y, z and staircase "ez"
    sums (the orthonormal x/y sectors sum to half the x/y sums).  The
    closed x/y forms carry a transpose; the transpose-free variants
    coincide with them exactly on complex symmetric inputs, which is also
    verified and recorded in the witness text.
    """

    _check_trials(trials)
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    worst = 0.0
    worst_sym = 0.0
    for _ in range(trials):
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        direct = _direct_sums(s, n)
        closed = {
            "x": sum_x(s, n),
            "y": sum_y(s, n),
            "z": sum_z(s, n),
            "ez": np.diag(np.diag(s)) - s / n,
        }
        for key, mat in closed.items():
            worst = max(worst, float(np.max(np.abs(direct[key] - mat))))
        # Transpose-free variants on a complex symmetric input.
        sym = (s + s.T) / 2
        direct_sym = _direct_sums(sym, n, staircase=False)
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
    tol: Tolerance = Tolerance(absolute=1e-12, relative=0.0),
) -> VerificationReport:
    """Both conjugation-sum expansions against the closed family form.

    The basis form is e0 S/n + ex X/2 + ey Y/2 + ez EZ (see ``_direct_sums``).
    """

    _check_trials(trials)
    coeffs = repr_coefficients(family, p, n)
    ch = FamilyChannel(family=family, p=p, dim=n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_mean = 0.0
    for _ in range(trials):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = hermitian_part(g)
        expected = family_apply(ch, s)
        sums = _direct_sums(s, n)
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


def _check_trials(trials: int) -> None:
    """Reject trial counts that would let a check pass without checking anything."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")


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
        fixed = np.eye(2, dtype=complex) / 2
        for t_a, sig in zip(l.t, (PAULI_X, PAULI_Y, PAULI_Z)):
            fixed = fixed + t_a * sig / 2
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
