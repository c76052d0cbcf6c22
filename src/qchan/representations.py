"""The channels' other representations, each checked against the apply engine.

The paper writes every family member in forms besides its diagonal
picture and proves identities between them.  This module holds those
forms and the checks that compare them with :mod:`qchan.channels`:

* the conjugation sums over the generalized Paulis against their closed
  forms (:func:`verify_sum_identities`), and both conjugation-sum
  expansions of a member (:func:`verify_representations`), summed from the
  basis elements' entries, O(n^2) per matrix, for a stack of trials at
  once; ``report`` checks all four families against one draw of its inputs;
* Kraus sets on the CPTP range, whose completeness ``report`` takes from
  the weights alone;
* the dense Choi matrix of a linear map, the reference for ``is_cptp``'s blocks;
* the determinant of the dcq member's classical Choi block, the product of
  its representation weights, against LAPACK;
* the qubit Stokes picture (:class:`QubitLambda`) and its constant-norm
  trichotomy (:func:`classify_qubit`).

Of the CLI commands only ``identities``, ``detcheck`` and ``report`` load
this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt
from typing import Callable

import numpy as np

from .basis import _pair_entries, _staircase_rows, pauli_matrix
from .channels import (
    DiagonalChannel,
    FamilyChannel,
    _classical_block,
    _classical_vectors,
    _diagonal_view,
    diagonal_apply,
)
from .exact import (
    _PEAK_BYTES,
    _SIGNS,
    DEFAULT_TOL,
    FAMILY_NAMES,
    Family,
    QubitClassification,
    Tolerance,
    VerificationReport,
    _Frozen,
    _check_dense_bytes,
    cptp_range,
    pair_count,
    repr_coefficients,
)
from .jsonio import _MAX_MAGNITUDE, finite_number, integer
from .linalg import _CACHED_DIMS, _complex_normals, _pair_index, as_matrix_stack, hermitian_part

__all__ = [
    "sum_x",
    "sum_y",
    "sum_z",
    "verify_sum_identities",
    "verify_representations",
    "kraus_from_family",
    "to_choi",
    "dcq_det_formula",
    "verify_det_recurrence",
    "QubitLambda",
    "classify_qubit",
]


# --- Conjugation-sum identities and expansions -------------------------------


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

    rows, norms = _staircase_rows(n)
    z = rows / norms[:, None]
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
# n = 119; chunks of 10 trials raised the peak of `report --dim 128` from
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
    records (a failing report's adds the sum and input of the largest).
    Each input is decided at ``tol.bound`` of the largest entry of its
    closed forms, which grows like n |S_ii| in the z sums.  The trials run
    in stacks of :func:`_trial_chunks`.
    """

    n, trials, seed = integer(n, "dim", 2), integer(trials, "trials", 1), integer(seed, "seed", 0)
    found = np.zeros((2, 2))  # (largest deviation, largest closed-form entry) of S, then of (S + S^T)/2
    largest, where = 0.0, ""  # the largest deviation of either input, and the sum and input it arose in
    for s in _trial_chunks(n, trials, seed):
        for symmetric, row in enumerate(found):
            x = (s + np.swapaxes(s, -1, -2)) / 2 if symmetric else s
            direct = _direct_sums(x, n)
            for key in ("x", "y", "z") if symmetric else _CLOSED_SUMS:
                closed = _CLOSED_SUMS[key](x, n)
                dev = float(np.max(np.abs(direct[key] - closed)))
                if dev > largest:
                    largest, where = dev, f"{key} sum on {('generic', 'symmetric')[symmetric]}"
                row[0] = max(row[0], dev)
                row[1] = max(row[1], float(np.max(np.abs(closed))))
            del direct, closed  # before the next input's sums are built
    (worst, scale), (worst_sym, scale_sym) = found.tolist()
    passed = worst <= tol.bound(scale) and worst_sym <= tol.bound(scale_sym)
    witness = f"transpose-free variants on symmetric inputs: max deviation {worst_sym:.3e}"
    if not passed:
        witness += f"; largest deviation {largest:.3e} in the {where} inputs"
    return VerificationReport(passed=passed, max_deviation=worst, witness=witness, samples_used=trials)


def verify_representations(
    family: Family,
    p: float,
    n: int,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Both conjugation-sum expansions against the family member's action, ``ch(s)`` of the apply engine.

    The basis form is e0 S/n + ex X/2 + ey Y/2 + ez EZ (see ``_direct_sums``).
    """

    return _representation_reports([FamilyChannel(family=family, p=p, dim=n)], n, trials, seed)[0]


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
    and the mean deviation stays a sequential sum over the trials.  Each
    member is decided at ``tol.bound`` of the largest entry of its action
    over the trials, which grows like |p|; a failing report names the form
    with the worst deviation (Pauli on a tie).
    """

    trials, seed = integer(trials, "trials", 1), integer(seed, "seed", 0)
    coeffs = [repr_coefficients(ch.family, ch.p, n) for ch in channels]
    devs = np.empty((2, len(channels), trials))  # per form (Pauli, basis) and member, the deviation per trial
    scales = [0.0] * len(channels)
    pos = 0
    for g in _trial_chunks(n, trials, seed):
        s = hermitian_part(g)
        sums = _direct_sums(s, n)
        for i, (ch, c) in enumerate(zip(channels, coeffs)):
            expected = ch(s)
            scales[i] = max(scales[i], float(np.abs(expected).max()))
            pauli_form = c.c0 * s + c.cx * sums["x"] + c.cy * sums["y"] + c.cz * sums["z"]
            basis_form = (
                c.e0 * s / n + c.ex * sums["x"] / 2 + c.ey * sums["y"] / 2 + c.ez * sums["ez"]
            )
            np.abs(pauli_form - expected).max(axis=(-2, -1), out=devs[0, i, pos : pos + len(s)])
            np.abs(basis_form - expected).max(axis=(-2, -1), out=devs[1, i, pos : pos + len(s)])
        pos += len(s)
    reports = []
    for ch, pauli, basis, scale in zip(channels, *devs, scales):
        row = np.maximum(pauli, basis)  # the worse of the two forms per trial
        worst = float(row.max())
        total = float(np.add.accumulate(row)[-1])  # in trial order, one addition at a time
        passed = worst <= tol.bound(scale)
        form = "Pauli" if pauli.max() == worst else "basis"
        where = f"in the {form} form for {ch.family.value}, p={ch.p}, n={n}"
        reports.append(
            VerificationReport(
                passed=passed,
                max_deviation=worst,
                mean_deviation=total / trials,
                witness=None if passed else f"representation mismatch {worst:.3e} {where}",
                samples_used=trials,
            )
        )
    return reports


# --- Kraus sets ------------------------------------------------------------


def kraus_from_family(family: Family, p: float, n: int) -> tuple[np.ndarray, ...]:
    """Tuple of Kraus operators sqrt(c) * (I or generalized Pauli) for p in range.

    Raises ValueError naming the first weight below ``-DEFAULT_TOL.bound(1.0)``:
    p lies outside the CPTP interval.  Weights up to 4 eps (4 ulps of 1)
    are the float dust of a weight vanishing at an endpoint and drop out.
    The operators are dense, O(n^4) in all, and refused past 2 GiB;
    :func:`_kraus_count_and_deviation` gives their count and completeness
    from the weights alone.
    """

    kept = _kept_weights(family, p, n, DEFAULT_TOL)
    _check_dense_bytes(16 * (1 + 3 * pair_count(n)) * int(n) ** 2, f"the Kraus operators at dim {n}")
    entries = (None, *_pair_entries(*_pair_index(n)))
    operators: list[np.ndarray] = []
    for sector, weight in kept:
        operators.extend(_scaled_operators(sqrt(weight), entries[sector], n))
    return tuple(operators)


def _kept_weights(family: Family, p: float, n: int, tol: Tolerance) -> list[tuple[int, float]]:
    """(sector, weight) of each Kraus weight that keeps its operators, in c0, cx, cy, cz order.

    Sector 0 is the identity, 1..3 the x, y and two-level z pair sectors.
    Raises ValueError naming the first weight below ``-tol.bound(1.0)``.
    The 4 eps dust threshold ignores ``tol``, so a loose tolerance drops no weight.
    """

    coeffs = repr_coefficients(family, finite_number(p, "p", _MAX_MAGNITUDE), n)
    kept = []
    for sector, name in enumerate(("c0", "cx", "cy", "cz")):
        weight = getattr(coeffs, name)
        if weight < -tol.bound(1.0):
            lo, hi = cptp_range(family, n)
            raise ValueError(
                f"{FAMILY_NAMES[family]} at p={p}, dim={n}: coefficient {name}={weight} "
                f"is negative; p lies outside the CPTP range [{lo}, {hi}]"
            )
        if weight > 4 * np.finfo(float).eps:
            kept.append((sector, weight))
    return kept


def _kraus_count_and_deviation(
    family: Family, p: float, n: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[int, float, bool]:
    """The count of the Kraus operators of the weights kept at ``tol`` (:func:`_kept_weights`; at
    ``DEFAULT_TOL`` those of :func:`kraus_from_family`), max |sum V_i† V_i - I| of them bit for bit,
    and its verdict.

    Completeness holds when the deviation is within ``tol`` of 0.  The
    identity operator gives fl(sqrt(c0))^2 I and a pair operator
    sqrt(c) sigma gives fl(sqrt(c))^2 (E_kk + E_ll), so every diagonal
    entry of the dense sum receives fl(sqrt(c0))^2 once, then fl(sqrt(c))^2
    n - 1 times for each kept pair sector, in x, y, z order; the
    off-diagonal entries are exactly 0.  No operator is built: O(n).  The
    dense sum is the test oracle ``kraus_completeness`` of
    ``tests/dense_oracles.py``.
    """

    count, entry = 0, 0.0
    for sector, weight in _kept_weights(family, p, n, tol):
        root = sqrt(weight)
        count += 1 if sector == 0 else pair_count(n)
        for _ in range(1 if sector == 0 else n - 1):
            entry += root * root
    deviation = abs(entry - 1)
    return count, deviation, deviation <= tol.bound(1.0)


def _scaled_operators(root: float, entries, n: int) -> np.ndarray:
    """root times the identity (``entries`` None) or every pair matrix of one sector."""

    if entries is None:
        return root * np.eye(n, dtype=complex)[None]
    rows, cols, values = entries
    ops = np.zeros((len(rows[0]), n, n), dtype=complex)
    i = np.arange(len(ops))
    for r, c, v in zip(rows, cols, values):
        ops[i, r, c] = root * v
    return ops


# --- The dense Choi matrix ---------------------------------------------------


def to_choi(apply_fn: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Choi matrix sum_ij E_ij ⊗ Phi(E_ij) of a linear map on n x n inputs.

    No verdict builds it: it is the dense reference for ``is_cptp``'s blocks.
    ``apply_fn`` only ever sees Hermitian arguments: each matrix unit is
    split into Hermitian and anti-Hermitian parts and the images are
    recombined linearly, so maps defined only on Hermitian matrices work
    unchanged.  Images fill their (i, j) blocks: O(n^4), refused past 2 GiB.
    """

    _check_dense_bytes(16 * int(n) ** 4, f"the dense Choi matrix at dim {n}")
    choi = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1
            if i == j:
                image = np.asarray(apply_fn(unit), dtype=complex)
            else:
                h = (unit + unit.conj().T) / 2
                a = (unit - unit.conj().T) / 2j
                image = np.asarray(apply_fn(h), dtype=complex) + 1j * np.asarray(
                    apply_fn(a), dtype=complex
                )
            if image.shape != (n, n):
                raise ValueError(f"map returned shape {image.shape} for an {n}x{n} input")
            choi[i, :, j, :] = image
    return choi.reshape(n * n, n * n)


# --- Determinant of the classical Choi block --------------------------------


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

    n, grid = integer(n, "dim", 2), integer(grid, "grid", 2)
    worst = 0.0
    worst_p = -0.5
    passed = True
    for p in np.linspace(-0.5, 0.5, grid):
        formula = dcq_det_formula(n, float(p))
        ch = FamilyChannel(Family.DCQ, float(p), n)
        block = _classical_block(ch, _classical_vectors(ch)[1])
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


# --- Qubit picture ----------------------------------------------------------


class QubitLambda(_Frozen):
    """Qubit channel in the affine Stokes picture.

    A state with Stokes vector a maps to the state with Stokes vector
    ``t + lam * a`` (componentwise): ``t`` is the translation, ``lam`` the
    three axis multipliers.  Calling the map applies ``DiagonalChannel(2,
    lam)`` plus Tr(S) (t . sigma) / 2, the linear extension to any 2 x 2
    matrix or (..., 2, 2) stack.
    """

    _fields = ("t", "lam")

    def __init__(self, t: tuple[float, float, float], lam: tuple[float, float, float]) -> None:
        fields = {"t": tuple(t), "lam": tuple(lam)}
        if any(len(values) != 3 for values in fields.values()):
            raise ValueError("t and lam must have three components")
        self._set(
            *(
                tuple(finite_number(v, f"{name}[{i}]", _MAX_MAGNITUDE) for i, v in enumerate(values))
                for name, values in fields.items()
            )
        )

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = as_matrix_stack(s, name="input")
        out = diagonal_apply(DiagonalChannel(2, self.lam), s)
        shift = sum(t_a * pauli_matrix(2, a, (1, 2)) for t_a, a in zip(self.t, "xyz")) / 2
        return out + np.trace(s, axis1=-2, axis2=-1)[..., None, None] * shift


# Variant i is the i-th family at n = 2, keyed by its (x, y) multiplier signs.
_VARIANT_BY_SIGNS = {_SIGNS[family][:2]: i for i, family in enumerate(Family, 1)}


def classify_qubit(l: QubitLambda) -> QubitClassification:
    """Decide whether a qubit channel has constant output norm, and how.

    Diagonal members are normalized to lam_z >= 0 by flipping the signs of
    lam_z and lam_x together (a sigma_y conjugation), so all eight sign
    patterns collapse onto the four canonical variants.  Moduli are
    compared at ``DEFAULT_TOL``.
    """

    t = np.array(l.t)
    lam = np.array(l.lam)
    eps = DEFAULT_TOL.bound(1.0)
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
