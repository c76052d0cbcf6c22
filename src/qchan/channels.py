"""Channel families and their interchangeable representations.

Four one-parameter families act on n x n inputs S (d = diag(S) keeps the
diagonal and zeroes the rest; T is plain transposition):

* dep  — depolarizing:                    p S    + (1-p)/n Tr(S) I
* trd  — transpose-depolarizing:          p S^T  + (1-p)/n Tr(S) I
* dcq  — depolarizing-to-classical:      -p S    + (1-p)/n Tr(S) I + 2p d(S)
* tcq  — transpose-to-classical:         -p S^T  + (1-p)/n Tr(S) I + 2p d(S)

Each is diagonal over the Hermitian basis of :mod:`qchan.basis` with
multiplier 1 on the identity component and a sign pattern times p on the
x / y / z sectors.  This module converts between the closed forms, the
diagonal picture, Choi matrices and (on the CPTP
parameter range) Kraus sets.  A qubit map in the affine Stokes picture
(:class:`QubitLambda`) is the n = 2 diagonal channel plus a translation.
"""

from __future__ import annotations

from functools import cached_property
from math import sqrt
from typing import Any, Callable, Sequence, Union

import numpy as np

from .basis import _pair_entries, _pair_index, pair_count, pauli_matrix
from .exact import (
    _HYBRID,
    _SIGNS,
    DEFAULT_TOL,
    FAMILY_NAMES,
    Family,
    ReprCoefficients,
    Tolerance,
    _Frozen,
    _check_dense_bytes,
    _check_dim,
    _check_finite_p,
    cptp_range,
    family_from_name,
    repr_coefficients,
)
from .jsonio import SchemaError, finite_number, require, require_int, require_number
from .linalg import _row_norms, as_matrix, as_matrix_stack, is_hermitian, is_psd

__all__ = [
    "Family",
    "FamilyChannel",
    "DiagonalChannel",
    "ReprCoefficients",
    "QubitLambda",
    "cptp_range",
    "family_apply",
    "family_to_diagonal",
    "diagonal_apply",
    "diagonal_image",
    "as_linear_map",
    "to_choi",
    "repr_coefficients",
    "kraus_from_family",
    "kraus_completeness",
    "validate_state",
    "random_pure_state",
    "channel_to_json",
    "channel_from_json",
]


class FamilyChannel(_Frozen):
    """One member of a family: kind, parameter p, dimension.

    Calling the channel applies its closed form (:func:`family_apply`).
    """

    _fields = ("family", "p", "dim")

    def __init__(self, family: Family, p: float, dim: int) -> None:
        _check_dim(dim)
        _check_finite_p(p)
        self._set(family, p, dim)

    @cached_property
    def _diagonal(self) -> DiagonalChannel:
        """The member over the Hermitian basis, built once (see :func:`family_to_diagonal`)."""

        cnt = pair_count(self.dim)
        t = np.repeat([s * self.p for s in _SIGNS[self.family]], [cnt, cnt, self.dim - 1])
        return DiagonalChannel(dim=self.dim, t=t)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return family_apply(self, s)


class DiagonalChannel(_Frozen):
    """Channel diagonal over the Hermitian basis.

    ``t`` holds the n^2 - 1 multipliers of the traceless sectors in basis
    order (x block, y block, z block); the identity multiplier is fixed
    at 1, which is exactly trace preservation.  Calling the channel applies
    it (:func:`diagonal_apply`).
    """

    _fields = ("dim", "t")

    def __init__(self, dim: int, t: np.ndarray) -> None:
        _check_dim(dim)
        t = np.asarray(t, dtype=float)
        expected = dim * dim - 1
        if t.shape != (expected,):
            raise ValueError(f"expected {expected} multipliers, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("multipliers must be finite")
        t = t.copy()
        t.flags.writeable = False
        self._set(dim, t)

    @property
    def t_x(self) -> np.ndarray:
        return self.t[: self.dim * (self.dim - 1) // 2]

    @property
    def t_y(self) -> np.ndarray:
        return self.t[self.dim * (self.dim - 1) // 2 : self.dim * (self.dim - 1)]

    @property
    def t_z(self) -> np.ndarray:
        return self.t[self.dim * (self.dim - 1) :]

    @cached_property
    def pair_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric n x n weights (a, b) of the off-diagonal action.

        Output entry (k, l), k != l, is ``a_kl S_kl + b_kl S_lk`` with
        ``a = (t_x + t_y)/2`` and ``b = (t_x - t_y)/2`` of the pair {k, l};
        both diagonals are zero.
        """

        n = self.dim
        k, l = _pair_index(n)
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        a[k, l] = a[l, k] = _half_sum(self.t_x, self.t_y)
        b[k, l] = b[l, k] = _half_sum(self.t_x, -self.t_y)
        a.flags.writeable = False
        b.flags.writeable = False
        return a, b

    @cached_property
    def _unit_images(self) -> np.ndarray:
        """D[j, i] = Phi(E_jj)_ii, the Choi block data of the diagonal; read-only."""

        d = diagonal_image(self, np.eye(self.dim))
        d.flags.writeable = False
        return d

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return diagonal_apply(self, s)


def _half_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + y) / 2, taken as x / 2 + y / 2 where the sum overflows: those halves are exact."""

    with np.errstate(over="ignore"):  # an overflowed sum is redone below
        half = (x + y) / 2
    lost = np.isinf(half)
    if lost.any():
        half[lost] = x[lost] / 2 + y[lost] / 2
    return half


def family_apply(ch: FamilyChannel, s: np.ndarray) -> np.ndarray:
    """Closed-form action of the family member on a square matrix.

    Also takes an (..., n, n) stack; each matrix of the result is
    bit-identical to applying the map to that matrix alone (see :func:`_apply`).
    """

    return _apply(ch, s)


def family_to_diagonal(ch: FamilyChannel) -> DiagonalChannel:
    """Multiplier vector of the family member over the Hermitian basis (built once per channel)."""

    return ch._diagonal


def diagonal_apply(ch: DiagonalChannel, s: np.ndarray) -> np.ndarray:
    """Apply a diagonal channel to a square matrix or an (..., n, n) stack.

    This is the linear extension of the basis picture to every complex
    input, computed sector by sector in O(n^2) per matrix: the x/y sectors
    of a pair {k, l} mix (S_kl, S_lk) with :attr:`DiagonalChannel.pair_weights`,
    and the diagonal goes through :func:`diagonal_image` (see :func:`_apply`).
    """

    return _apply(ch, s)


def _apply(ch: AnyChannel, s: np.ndarray) -> np.ndarray:
    """The apply engine of both kinds: the pair sectors, then the output diagonal, into a new array.

    In between, a family member adds one complex zero per matrix: the dense
    terms c I and 2p d(S), c = (1-p)/n Tr(S), added c * 0 and 2p * 0 off the
    diagonal, and the zero keeps their signs, so the bits are those of that sum.
    """

    s = as_matrix_stack(s, name="input")
    if s.shape[-1] != ch.dim:
        raise ValueError(
            f"dimension mismatch: input is {s.shape[-1]}x{s.shape[-1]}, channel dim {ch.dim}"
        )
    out = np.empty(s.shape, dtype=complex)
    _pair_sectors_into(*_pair_sector_weights(ch), s, out)
    if isinstance(ch, FamilyChannel):
        zero = np.asarray((1 - ch.p) / ch.dim * np.trace(s, axis1=-2, axis2=-1)) * 0j
        if ch.family in _HYBRID:
            zero += 2 * ch.p * np.zeros((), dtype=complex)
        out += zero[..., None, None]
    _diagonal_view(out)[...] = _output_diagonals(ch, np.diagonal(s, axis1=-2, axis2=-1))
    return out


def _pair_sector_weights(ch: AnyChannel) -> tuple:
    """Weights (a, b) of S and S^T in the pair sectors: +-p on one of them, None on the other, for a family."""

    if isinstance(ch, DiagonalChannel):
        return ch.pair_weights
    scale = -ch.p if ch.family in _HYBRID else ch.p
    return (scale, None) if ch.family in (Family.DEP, Family.DCQ) else (None, scale)


def _pair_sectors_into(a, b, s: np.ndarray, out: np.ndarray) -> None:
    """The pair-sector stage: a S + b S^T into ``out``, a None weight left out, the diagonal unfinished."""

    if a is None:  # two None weights write zeros
        np.multiply(0.0 if b is None else b, np.swapaxes(s, -1, -2), out=out)
        return
    np.multiply(a, s, out=out)
    if b is not None:
        out += b * np.swapaxes(s, -1, -2)


def _output_diagonals(ch: AnyChannel, d: np.ndarray) -> np.ndarray:
    """The output-diagonal stage: output diagonals of the inputs whose diagonals are ``d`` (..., n).

    Off-diagonal input entries never reach them.  They are
    :func:`diagonal_image` for a diagonal channel, and ((+-p d + c) + 2p d)
    for a family member, the last term only for dcq and tcq, with
    c = (1-p)/n Tr(S) and Tr(S) summed from ``d`` as np.trace sums it.
    """

    if isinstance(ch, DiagonalChannel):
        return diagonal_image(ch, d)
    classical = ch.family in _HYBRID
    c = (1 - ch.p) / ch.dim * np.add.reduce(d, axis=-1)
    out = d * (-ch.p if classical else ch.p)
    out += (c * (1 + 0j))[..., None]
    if classical:
        out += 2 * ch.p * d
    return out


def _diagonal_view(out: np.ndarray) -> np.ndarray:
    """Writable (..., n) view of the diagonals of a C-contiguous (..., n, n) array."""

    n = out.shape[-1]
    return out.reshape(out.shape[:-2] + (n * n,))[..., :: n + 1]


def diagonal_image(ch: DiagonalChannel, d: np.ndarray) -> np.ndarray:
    """Diagonal of the image of any input whose diagonal is ``d`` (shape (..., n)).

    Off-diagonal input entries never reach the output diagonal.  The
    result is the identity component Tr(S)/n plus the staircase z-sector
    transform: with M_j = diag(1 x j, -j, 0, ...), sector j contributes
    w_j M_j where w_j = t_j Tr(M_j S) / (j (j+1)).  Prefix sums make this
    O(n) per input.
    """

    n = ch.dim
    j = np.arange(1, n)
    prefix = np.cumsum(d, axis=-1)
    w = ch.t_z / (j * (j + 1)) * (prefix[..., :-1] - j * d[..., 1:])
    out = np.repeat(prefix[..., -1:] / n, n, axis=-1)
    # Entry i collects the ones of every M_j with j > i and the -j of M_i.
    out[..., :-1] += np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    out[..., 1:] -= j * w
    return out


AnyChannel = Union[FamilyChannel, DiagonalChannel]


def as_linear_map(ch: AnyChannel) -> Callable[[np.ndarray], np.ndarray]:
    """The channel as a function on matrices: the callable channel itself.

    Every verdict of :mod:`qchan.verification` takes its channel through
    here, so anything but a channel object raises this TypeError.
    """

    if isinstance(ch, (FamilyChannel, DiagonalChannel)):
        return ch
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


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


def kraus_from_family(
    family: Family, p: float, n: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, ...]:
    """Tuple of Kraus operators sqrt(c) * (I or generalized Pauli) for p in range.

    Raises ValueError naming the first weight below ``-tol.bound(1.0)``:
    p lies outside the CPTP interval.  Weights up to 4 eps (4 ulps of 1)
    are the float dust of a weight vanishing at an endpoint and drop out;
    that threshold ignores ``tol``, so a loose tolerance drops no weight.
    The operators are dense, O(n^4) in all, and refused past 2 GiB;
    :func:`_kraus_count_and_deviation` gives their count and completeness
    from the weights alone.
    """

    kept = _kept_weights(family, p, n, tol)
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
    """

    coeffs = repr_coefficients(family, p, n)
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
    """len(kraus_from_family(..., tol)), max |kraus_completeness - I| bit for bit, and its verdict.

    Completeness holds when the deviation is within ``tol`` of 0.  The
    identity operator gives fl(sqrt(c0))^2 I and a pair operator
    sqrt(c) sigma gives fl(sqrt(c))^2 (E_kk + E_ll), so every diagonal
    entry of the dense sum receives fl(sqrt(c0))^2 once, then fl(sqrt(c))^2
    n - 1 times for each kept pair sector, in x, y, z order; the
    off-diagonal entries are exactly 0.  No operator is built: O(n).
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


def kraus_completeness(operators: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i V_i† V_i over a non-empty sequence of operators; I exactly when trace preserving."""

    if not len(operators):
        raise ValueError("empty Kraus set")
    n = operators[0].shape[0]
    total = np.zeros((n, n), dtype=complex)
    for op in operators:
        total += op.conj().T @ op
    return total


def validate_state(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Check Hermitian, unit trace, PSD; returns the coerced array."""

    s = as_matrix(s, name="state")
    if not is_hermitian(s, tol):
        raise ValueError("state is not Hermitian")
    trace = complex(np.trace(s))
    if abs(trace - 1) > tol.bound(1.0):
        raise ValueError(f"state trace is {trace}, expected 1")
    ok, smallest = is_psd(s, tol)
    if not ok:
        raise ValueError(f"state is not positive semidefinite (min eigenvalue {smallest})")
    return s


# --- Qubit picture -------------------------------------------------------


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
        t = tuple(float(v) for v in t)
        lam = tuple(float(v) for v in lam)
        if len(t) != 3 or len(lam) != 3:
            raise ValueError("t and lam must have three components")
        if not all(np.isfinite(t)) or not all(np.isfinite(lam)):
            raise ValueError("t and lam must be finite")
        self._set(t, lam)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = as_matrix_stack(s, name="input")
        out = diagonal_apply(DiagonalChannel(2, self.lam), s)
        shift = sum(t_a * pauli_matrix(2, a, (1, 2)) for t_a, a in zip(self.t, "xyz")) / 2
        return out + np.trace(s, axis1=-2, axis2=-1)[..., None, None] * shift


# --- Random inputs -------------------------------------------------------
# Every check draws its complex Gaussian inputs in stacks of _complex_normals: Haar
# states through _haar_vectors, or n x n trial matrices.  random_pure_state is their oracle.


def random_pure_state(n: int, rng: Union[int, np.random.Generator, None] = None) -> np.ndarray:
    """Haar-random rank-one projector |v><v| on C^n (deterministic per seed)."""

    gen = np.random.default_rng(rng)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


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


def _complex_normals(seed: int, count: int, per_stack: int, shape: tuple[int, ...]):
    """``count`` complex Gaussian arrays of ``shape``, ``per_stack`` at a time, each drawn real part first."""

    rng = np.random.default_rng(seed)
    for start in range(0, count, per_stack):
        g = rng.standard_normal((min(per_stack, count - start), 2, *shape))
        yield g[:, 0] + 1j * g[:, 1]


def _haar_vectors(n: int, samples: int, seed: int):
    """The unit vectors of the ``samples`` random_pure_state draws of ``seed``, bit for bit.

    They are drawn in (k, n) stacks of at most ``_CHUNK_BYTES`` of normals
    (16 n bytes per state), so no Python code runs once per state.
    """

    per_draw = max(1, _CHUNK_BYTES // (16 * n))
    yield from map(_normalize_rows, _complex_normals(seed, samples, per_draw, (n,)))


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Divide each row of a (k, n) complex array by its norm in place, as ``row /= np.linalg.norm(row)``."""

    v /= _row_norms(v)[:, None]
    return v


# --- JSON ----------------------------------------------------------------


def channel_to_json(ch: AnyChannel) -> dict:
    if isinstance(ch, FamilyChannel):
        return {"kind": "family", "family": ch.family.value, "p": float(ch.p), "dim": int(ch.dim)}
    if isinstance(ch, DiagonalChannel):
        return {"kind": "diagonal", "dim": int(ch.dim), "t": [float(v) for v in ch.t]}
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


def channel_from_json(obj: Any) -> AnyChannel:
    kind = require(obj, "kind")
    if kind == "family":
        family = family_from_name(require(obj, "family"))
        p = require_number(obj, "p")
        return FamilyChannel(family=family, p=p, dim=require_int(obj, "dim", 2))
    if kind == "diagonal":
        dim = require_int(obj, "dim", 2)
        t = require(obj, "t")
        expected = dim * dim - 1
        if not isinstance(t, list) or len(t) != expected:
            raise SchemaError("t", f"expected a list of {expected} numbers")
        values = [finite_number(v, f"t[{i}]") for i, v in enumerate(t)]
        return DiagonalChannel(dim=dim, t=np.array(values))
    raise SchemaError("kind", f"expected 'family' or 'diagonal', got {kind!r}")
