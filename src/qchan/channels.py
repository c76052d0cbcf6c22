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
parameter range) Kraus sets, plus the dedicated qubit parameterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import sqrt
from typing import Any, Callable, Union

import numpy as np

from .basis import _pauli_stacks, pair_count
from .jsonio import SchemaError, require, require_number
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_matrix_stack, frobenius_norm, is_hermitian

__all__ = [
    "Family",
    "FamilyChannel",
    "DiagonalChannel",
    "KrausSet",
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
    "apply_kraus",
    "validate_state",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "stokes",
    "qubit_apply",
    "qubit_norm_formula",
    "random_pure_state",
    "random_unitary",
    "channel_to_json",
    "channel_from_json",
]


class Family(str, Enum):
    DEP = "dep"
    TRD = "trd"
    DCQ = "dcq"
    TCQ = "tcq"


FAMILY_NAMES = {
    Family.DEP: "depolarizing",
    Family.TRD: "transpose-depolarizing",
    Family.DCQ: "depolarizing-to-classical",
    Family.TCQ: "transpose-to-classical",
}

# Diagonal multiplier signs on the (x, y, z) sectors.
_SIGNS = {
    Family.DEP: (1, 1, 1),
    Family.TRD: (1, -1, 1),
    Family.DCQ: (-1, -1, 1),
    Family.TCQ: (-1, 1, 1),
}


def cptp_range(family: Family, n):
    """Endpoints (p_min, p_max) of the CPTP parameter interval.

    Works with an integer or a ``fractions.Fraction`` dimension; given a
    Fraction it returns exact rationals, which the bound-matching
    verdicts compare for equality.
    """

    if family is Family.DEP:
        return -1 / (n * n - 1), 1
    if family is Family.TRD or family is Family.TCQ:
        return -1 / (n - 1), 1 / (n + 1)
    if family is Family.DCQ:
        return -1 / (2 * n - 1), 1 / (n - 1) ** 2
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class FamilyChannel:
    """One member of a family: kind, parameter p, dimension.

    Calling the channel applies its closed form (:func:`family_apply`).
    """

    family: Family
    p: float
    dim: int
    in_cptp_range: bool = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dim!r}")
        if not np.isfinite(self.p):
            raise ValueError(f"parameter p must be finite, got {self.p!r}")
        lo, hi = cptp_range(self.family, self.dim)
        object.__setattr__(self, "in_cptp_range", bool(lo <= self.p <= hi))

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return family_apply(self, s)


@dataclass(frozen=True)
class DiagonalChannel:
    """Channel diagonal over the Hermitian basis.

    ``t`` holds the n^2 - 1 multipliers of the traceless sectors in basis
    order (x block, y block, z block); the identity multiplier is fixed
    at 1, which is exactly trace preservation.  Calling the channel applies
    it (:func:`diagonal_apply`).
    """

    dim: int
    t: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dim!r}")
        t = np.asarray(self.t, dtype=float)
        expected = self.dim * self.dim - 1
        if t.shape != (expected,):
            raise ValueError(f"expected {expected} multipliers, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("multipliers must be finite")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @property
    def t_x(self) -> np.ndarray:
        return self.t[: pair_count(self.dim)]

    @property
    def t_y(self) -> np.ndarray:
        return self.t[pair_count(self.dim) : 2 * pair_count(self.dim)]

    @property
    def t_z(self) -> np.ndarray:
        return self.t[2 * pair_count(self.dim) :]

    @cached_property
    def pair_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric n x n weights (a, b) of the off-diagonal action.

        Output entry (k, l), k != l, is ``a_kl S_kl + b_kl S_lk`` with
        ``a = (t_x + t_y)/2`` and ``b = (t_x - t_y)/2`` of the pair {k, l};
        both diagonals are zero.
        """

        n = self.dim
        k, l = np.triu_indices(n, 1)  # lexicographic pair order, 0-based
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        a[k, l] = a[l, k] = (self.t_x + self.t_y) / 2
        b[k, l] = b[l, k] = (self.t_x - self.t_y) / 2
        a.flags.writeable = False
        b.flags.writeable = False
        return a, b

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return diagonal_apply(self, s)


@dataclass(frozen=True)
class KrausSet:
    """Operators V_i of a representation S -> sum_i V_i S V_i†."""

    operators: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class ReprCoefficients:
    """Conjugation-sum representation weights for one family member.

    ``c0..cz`` weight the identity and the unnormalized generalized Pauli
    sectors; ``e0..ez`` = (n c0, 2 cx, 2 cy, n cz) weight the orthonormal
    basis elements instead.  Both expansions reproduce the same channel;
    the e-weights are its Choi eigenvalues (see :func:`repr_coefficients`).
    """

    c0: float
    cx: float
    cy: float
    cz: float
    e0: float
    ex: float
    ey: float
    ez: float


def family_apply(ch: FamilyChannel, s: np.ndarray) -> np.ndarray:
    """Closed-form action of the family member on a square matrix.

    Also takes an (..., n, n) stack; each matrix of the result is
    bit-identical to applying the map to that matrix alone.
    """

    s = as_matrix_stack(s, name="input")
    n = ch.dim
    _check_input_dim(s, n)
    p = ch.p
    trace = np.trace(s, axis1=-2, axis2=-1)
    uniform = ((1 - p) / n * trace)[..., None, None] * np.eye(n, dtype=complex)
    if ch.family is Family.DEP:
        return p * s + uniform
    s_t = np.swapaxes(s, -1, -2)
    if ch.family is Family.TRD:
        return p * s_t + uniform
    diag_part = 2 * p * _diag_embed(np.diagonal(s, axis1=-2, axis2=-1))
    if ch.family is Family.DCQ:
        return -p * s + uniform + diag_part
    return -p * s_t + uniform + diag_part


def family_to_diagonal(ch: FamilyChannel) -> DiagonalChannel:
    """Multiplier vector of the family member over the Hermitian basis."""

    cnt = pair_count(ch.dim)
    t = np.repeat([s * ch.p for s in _SIGNS[ch.family]], [cnt, cnt, ch.dim - 1])
    return DiagonalChannel(dim=ch.dim, t=t)


def diagonal_apply(ch: DiagonalChannel, s: np.ndarray) -> np.ndarray:
    """Apply a diagonal channel to a square matrix or an (..., n, n) stack.

    This is the linear extension of the basis picture to every complex
    input, computed sector by sector in O(n^2) per matrix: the x/y sectors
    of a pair {k, l} mix (S_kl, S_lk) with :attr:`DiagonalChannel.pair_weights`,
    and the diagonal goes through :func:`diagonal_image`.
    """

    s = as_matrix_stack(s, name="input")
    n = ch.dim
    _check_input_dim(s, n)
    a, b = ch.pair_weights
    out = a * s
    out += b * np.swapaxes(s, -1, -2)  # in place: one (..., n, n) temporary fewer
    idx = np.arange(n)
    out[..., idx, idx] = diagonal_image(ch, s[..., idx, idx])
    return out


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


def _check_input_dim(s: np.ndarray, n: int) -> None:
    if s.shape[-1] != n:
        raise ValueError(
            f"dimension mismatch: input is {s.shape[-1]}x{s.shape[-1]}, channel dim {n}"
        )


def _diag_embed(d: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices with the given (..., n) diagonals."""

    n = d.shape[-1]
    out = np.zeros(d.shape + (n,), dtype=d.dtype)
    idx = np.arange(n)
    out[..., idx, idx] = d
    return out


AnyChannel = Union[FamilyChannel, DiagonalChannel]


def as_linear_map(ch: AnyChannel) -> Callable[[np.ndarray], np.ndarray]:
    """The channel as a function on matrices: the callable channel itself.

    Returning the object (not a wrapper) lets ``is_cptp`` and
    ``constant_fnorm_sample_test`` recognise it and take their
    block-structured and batched paths.
    """

    if isinstance(ch, (FamilyChannel, DiagonalChannel)):
        return ch
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


def to_choi(apply_fn: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Choi matrix sum_ij E_ij ⊗ Phi(E_ij) of a linear map on n x n inputs.

    ``apply_fn`` only ever sees Hermitian arguments: each matrix unit is
    split into Hermitian and anti-Hermitian parts and the images are
    recombined linearly, so maps defined only on Hermitian matrices work
    unchanged.  Each image is written into its (i, j) block, O(n^4) in all.
    """

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


def repr_coefficients(family: Family, p: float, n: int) -> ReprCoefficients:
    """Weights of the two conjugation-sum expansions of a family member.

    The channel equals ``c0 S + cx sum_i sx_i S sx_i + cy sum_i sy_i S sy_i
    + cz sum_i sz_i S sz_i`` over the unnormalized generalized Paulis, and
    likewise with the e-weights over the orthonormal basis elements
    (identity term ``e0 e_0 S e_0``).

    All eight solve the sector equations once from the multipliers
    (t_x, t_y, t_z) = p * signs.  The e-weights are the Choi eigenvalues
    that ``is_cptp`` checks (e0 once and ez n-1 times in the classical
    block, ex and ey in each pair block), so both expansions are Kraus
    sets exactly on the CPTP range.  A ``Fraction`` p gives exact weights.
    """

    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    t_x, t_y, t_z = (s * p for s in _SIGNS[family])
    u = (1 - t_z) / n
    cx = (u + (t_x - t_y) / 2) / 2
    cy = (u - (t_x - t_y) / 2) / 2
    cz = (t_z + u - (t_x + t_y) / 2) / n
    c0 = cz + (t_x + t_y) / 2
    return ReprCoefficients(
        c0=c0, cx=cx, cy=cy, cz=cz, e0=n * c0, ex=2 * cx, ey=2 * cy, ez=n * cz
    )


def kraus_from_family(
    family: Family, p: float, n: int, tol: Tolerance = DEFAULT_TOL
) -> KrausSet:
    """Kraus operators sqrt(c) * (I or generalized Pauli) for p in range.

    Raises ValueError naming the first weight below ``-tol.bound(1.0)``:
    p lies outside the CPTP interval.  Weights up to 4 eps (4 ulps of 1)
    are the float dust of a weight vanishing at an endpoint and drop out;
    that threshold ignores ``tol``, so a loose tolerance drops no weight.
    """

    coeffs = repr_coefficients(family, p, n)
    sx, sy, sz = _pauli_stacks(n)
    groups = [
        ("c0", coeffs.c0, np.eye(n, dtype=complex)[None]),
        ("cx", coeffs.cx, sx),
        ("cy", coeffs.cy, sy),
        ("cz", coeffs.cz, sz),
    ]
    operators: list[np.ndarray] = []
    for name, weight, mats in groups:
        if weight < -tol.bound(1.0):
            lo, hi = cptp_range(family, n)
            raise ValueError(
                f"{FAMILY_NAMES[family]} at p={p}, dim={n}: coefficient {name}={weight} "
                f"is negative; p lies outside the CPTP range [{lo}, {hi}]"
            )
        if weight > 4 * np.finfo(float).eps:
            root = sqrt(weight)
            operators.extend(root * mats)
    return KrausSet(operators=tuple(operators))


def kraus_completeness(ks: KrausSet) -> np.ndarray:
    """sum_i V_i† V_i; equals the identity exactly when trace preserving."""

    if not ks.operators:
        raise ValueError("empty Kraus set")
    n = ks.operators[0].shape[0]
    total = np.zeros((n, n), dtype=complex)
    for op in ks.operators:
        total += op.conj().T @ op
    return total


def apply_kraus(ks: KrausSet, s: np.ndarray) -> np.ndarray:
    s = as_matrix(s, name="input")
    out = np.zeros_like(s)
    for op in ks.operators:
        out += op @ s @ op.conj().T
    return out


def validate_state(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Check Hermitian, unit trace, PSD; returns the coerced array."""

    from .linalg import is_psd  # local import keeps module load order simple

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

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
for _m in _PAULIS:
    _m.flags.writeable = False


@dataclass(frozen=True)
class QubitLambda:
    """Qubit channel in the affine Stokes picture.

    A state with Stokes vector a maps to the state with Stokes vector
    ``t + lam * a`` (componentwise): ``t`` is the translation, ``lam`` the
    three axis multipliers.
    """

    t: tuple[float, float, float]
    lam: tuple[float, float, float]

    def __post_init__(self) -> None:
        t = tuple(float(v) for v in self.t)
        lam = tuple(float(v) for v in self.lam)
        if len(t) != 3 or len(lam) != 3:
            raise ValueError("t and lam must have three components")
        if not all(np.isfinite(t)) or not all(np.isfinite(lam)):
            raise ValueError("t and lam must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam", lam)


def stokes(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Stokes vector (Tr(sigma_x s), Tr(sigma_y s), Tr(sigma_z s)) of a qubit state."""

    s = as_matrix(s, name="state")
    if s.shape != (2, 2):
        raise ValueError(f"expected a 2x2 state, got {s.shape}")
    comps = np.array([np.trace(sig @ s) for sig in _PAULIS])
    if float(np.max(np.abs(comps.imag))) > tol.bound(frobenius_norm(s)):
        raise ValueError("state is not Hermitian: Stokes components are complex")
    return comps.real


def qubit_apply(l: QubitLambda, m: np.ndarray) -> np.ndarray:
    """Linear extension of the affine Stokes action to any 2x2 matrix.

    On a density matrix this is (I + sum_a (t_a + lam_a a_a) sigma_a)/2
    with a the input's Stokes vector; general inputs scale the translation
    by Tr(m) so the map stays linear.
    """

    m = as_matrix(m, name="input")
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 input, got {m.shape}")
    trace = complex(np.trace(m))
    out = trace * np.eye(2, dtype=complex)
    for t_a, lam_a, sig in zip(l.t, l.lam, _PAULIS):
        out += (t_a * trace + lam_a * complex(np.trace(sig @ m))) * sig
    return out / 2


def qubit_norm_formula(l: QubitLambda, a: np.ndarray) -> float:
    """Squared output Frobenius norm on the pure state with Stokes vector a.

    Equals (1 + sum_a (t_a + lam_a a_a)^2) / 2 for unit vectors a.
    """

    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a Stokes 3-vector, got shape {a.shape}")
    out = np.array(l.t) + np.array(l.lam) * a
    return float((1 + np.dot(out, out)) / 2)


# --- Random inputs -------------------------------------------------------


def _as_rng(rng: Union[int, np.random.Generator, None]) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_pure_state(n: int, rng: Union[int, np.random.Generator, None] = None) -> np.ndarray:
    """Haar-random rank-one projector |v><v| on C^n (deterministic per seed)."""

    gen = _as_rng(rng)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(n: int, rng: Union[int, np.random.Generator, None] = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""

    gen = _as_rng(rng)
    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity of QR so the distribution is Haar.
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


# --- JSON ----------------------------------------------------------------


def channel_to_json(ch: AnyChannel) -> dict:
    if isinstance(ch, FamilyChannel):
        return {"kind": "family", "family": ch.family.value, "p": float(ch.p), "dim": int(ch.dim)}
    if isinstance(ch, DiagonalChannel):
        return {"kind": "diagonal", "dim": int(ch.dim), "t": [float(v) for v in ch.t]}
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


def family_from_name(name: Any, field: str = "family") -> Family:
    try:
        return Family(name)
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise SchemaError(field, f"expected one of {valid}, got {name!r}") from None


def channel_from_json(obj: Any) -> AnyChannel:
    kind = require(obj, "kind")
    if kind == "family":
        family = family_from_name(require(obj, "family"))
        p = require_number(obj, "p")
        dim = require(obj, "dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            raise SchemaError("dim", f"expected an integer >= 2, got {dim!r}")
        return FamilyChannel(family=family, p=p, dim=dim)
    if kind == "diagonal":
        dim = require(obj, "dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            raise SchemaError("dim", f"expected an integer >= 2, got {dim!r}")
        t = require(obj, "t")
        expected = dim * dim - 1
        if not isinstance(t, list) or len(t) != expected:
            raise SchemaError("t", f"expected a list of {expected} numbers")
        values = []
        for i, v in enumerate(t):
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
                raise SchemaError(f"t[{i}]", "expected a finite number")
            values.append(float(v))
        return DiagonalChannel(dim=dim, t=np.array(values))
    raise SchemaError("kind", f"expected 'family' or 'diagonal', got {kind!r}")
