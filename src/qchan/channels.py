"""Channel families, the diagonal channels, and the one apply engine of both.

Four one-parameter families act on n x n inputs S (d = diag(S) keeps the
diagonal and zeroes the rest; T is plain transposition):

* dep  — depolarizing:                    p S    + (1-p)/n Tr(S) I
* trd  — transpose-depolarizing:          p S^T  + (1-p)/n Tr(S) I
* dcq  — depolarizing-to-classical:      -p S    + (1-p)/n Tr(S) I + 2p d(S)
* tcq  — transpose-to-classical:         -p S^T  + (1-p)/n Tr(S) I + 2p d(S)

Each is diagonal over the Hermitian basis of :mod:`qchan.basis` with
multiplier 1 on the identity component and a sign pattern times p on the
x / y / z sectors.  This module holds what every command that acts on a
channel runs: the one channel object, :class:`DiagonalChannel`, fixed by
its multipliers; :class:`FamilyChannel`, the subclass whose multipliers
are a family's signs times p; their JSON form; and the one apply engine.
The closed forms above are test oracles, in ``tests/dense_oracles.py``.
The Kraus sets, the dense Choi matrix and the qubit Stokes picture are in
:mod:`qchan.representations`, the random draws in :mod:`qchan.linalg`,
and the families' names, signs and CPTP ranges in :mod:`qchan.exact`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable

import numpy as np

from .exact import (
    _SIGNS,
    DEFAULT_TOL,
    Family,
    Tolerance,
    _family_json,
    _Frozen,
    family_from_name,
    pair_count,
)
from .jsonio import _MAX_MAGNITUDE, SchemaError, finite_number, integer, require, require_int
from .linalg import (
    _pair_plane,
    _steps,
    as_matrix,
    as_matrix_stack,
    frobenius_norm,
    hermitian_part,
    is_hermitian,
)

__all__ = [
    "FamilyChannel",
    "DiagonalChannel",
    "family_apply",
    "family_to_diagonal",
    "diagonal_apply",
    "diagonal_image",
    "as_linear_map",
    "validate_state",
    "channel_to_json",
    "channel_from_json",
]


def __getattr__(name: str) -> Any:
    # Only perfbench/spans.py's TRACED still looks these names up here.
    if name in ("to_choi", "kraus_from_family"):
        from . import representations

        return getattr(representations, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DiagonalChannel(_Frozen):
    """Channel diagonal over the Hermitian basis.

    ``t`` holds the n^2 - 1 multipliers of the traceless sectors in basis
    order (x block, y block, z block); the identity multiplier is fixed
    at 1, which is exactly trace preservation.  Calling the channel applies
    it (:func:`diagonal_apply`); a :class:`FamilyChannel` is one.
    """

    _fields = ("dim", "t")

    def __init__(self, dim: int, t: np.ndarray) -> None:
        dim = integer(dim, "dim", 2)
        t = np.asarray(t, dtype=float)
        expected = dim * dim - 1
        if t.shape != (expected,):
            raise ValueError(f"expected {expected} multipliers, got shape {t.shape}")
        i = int(abs(t).argmax())  # the first NaN if there is one
        finite_number(float(t[i]), f"t[{i}]", _MAX_MAGNITUDE)
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
    def _sector_weights(self) -> tuple:
        """How the apply engine weighs the pair sectors: ``(split, u, v)``.

        Where t_x and t_y are each constant, bit for bit, and one of
        a = (t_x + t_y)/2 and b = (t_x - t_y)/2 is zero (every family
        member), the sectors are a S + b S^T with scalar weights (split
        False): a zero one is None when the other is nonzero, and two
        zeros both stay, so that swapping a with b and S with S^T keeps
        the bits.  Otherwise they are t_x (S + S^T)/2 + t_y (S - S^T)/2
        (split True), in which neither sector's part cancels in the
        other's when their sizes differ widely; u and v are t_x and t_y
        as symmetric n x n weights, zero on the diagonal.
        """

        x, y = self.t_x.view(np.int64), self.t_y.view(np.int64)
        a, b = (self.t_x[0] + self.t_y[0]) / 2, (self.t_x[0] - self.t_y[0]) / 2
        if (x != x[0]).any() or (y != y[0]).any() or (a != 0 and b != 0):
            return True, _pair_plane(self.dim, self.t_x, 0.0), _pair_plane(self.dim, self.t_y, 0.0)
        if (a == 0) != (b == 0):
            return (False, None, b) if a == 0 else (False, a, None)
        return False, a, b

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return diagonal_apply(self, s)


class FamilyChannel(DiagonalChannel):
    """One member of a family: kind, parameter p, dimension.

    It is the diagonal channel whose multipliers are p times the family's
    sector signs, so it applies, caches and is verified as any
    :class:`DiagonalChannel`; its fields, equality, hash, repr and JSON
    stay the member's own.
    """

    _fields = ("family", "p", "dim")

    def __init__(self, family: Family, p: float, dim: int) -> None:
        self._set(family_from_name(family), finite_number(p, "p", _MAX_MAGNITUDE), integer(dim, "dim", 2))

    @cached_property
    def t(self) -> np.ndarray:
        """p times the family's (x, y, z) signs over the three sectors, built on first read; read-only."""

        cnt = pair_count(self.dim)
        t = np.empty(self.dim * self.dim - 1)
        t[:cnt], t[cnt : 2 * cnt], t[2 * cnt :] = (s * self.p for s in _SIGNS[self.family])
        t.flags.writeable = False
        return t


def _choi_blocks(diag: DiagonalChannel) -> tuple[np.ndarray, np.ndarray]:
    """The classical Choi block, a new array, and L, the n-vector of the pair blocks.

    The Choi matrix sum_ij E_ij ⊗ Phi(E_ij) is block diagonal: the n x n
    classical block on span{|ii>}, with a_kl = (t_x + t_y)/2 of the pair
    {k, l} at (k, l) and (l, k) and G on its diagonal, and for each pair
    k < l the block [[L_l, b], [b, L_l]] on span{|kl>, |lk>}, with
    b = (t_x - t_y)/2.  L and G are the two n-vectors of
    D[r, i] = Phi(E_rr)_ii (zero-based r, i).  With w_i = t_z,i / (i (i+1))
    (the weights of :func:`diagonal_image`, w_0 = 0) and the suffix sums
    S_i = w_(n-1) + ... + w_i, summed from the end, with S_n = 0:

        L_r = 1/n + (S_(r+1) - r w_r)      row r below the diagonal,
        G_r = (1/n + S_(r+1)) + (r w_r) r  the diagonal.

    These are the IEEE operations :func:`diagonal_image` runs on the rows
    of the identity, in its order, so they keep its bits; the zeros it adds
    on the way only ever meet a sum that 1/n then absorbs.  D is symmetric,
    the channel being self-adjoint (diag(1, t) in the orthonormal Hermitian
    basis), so L is its upper triangle too, to rounding.  ``is_cptp`` takes
    the block's eigenvalues and each pair block's L_l - |b|, and
    ``verify_det_recurrence`` the block's determinant.
    """

    n, j = diag.dim, _steps(diag.dim)
    w = diag.t_z / (j * (j + 1))
    lower = np.zeros(n)  # S_(i+1) at i, until L is formed
    lower[:-1] = w[::-1].cumsum()[::-1]
    diagonal = 1 / n + lower
    w *= j  # i w_i
    diagonal[1:] += w * j
    lower[1:] -= w
    a = (diag.t_x + diag.t_y) / 2
    return _pair_plane(n, a, diagonal), lower + 1 / n


def family_apply(ch: FamilyChannel, s: np.ndarray) -> np.ndarray:
    """Apply the family member to a square matrix or an (..., n, n) stack: ``ch(s)``.

    A member is a :class:`DiagonalChannel`, so this is :func:`diagonal_apply`
    on it, after a TypeError for any other object.  No verdict calls it;
    it stays public because the benchmark's span list traces it, as its
    worker calls :func:`family_to_diagonal`.  The closed forms of the
    module docstring are test oracles (``tests/dense_oracles.py``); they
    agree to rounding.
    """

    if not isinstance(ch, FamilyChannel):
        raise TypeError(f"expected FamilyChannel, got {type(ch).__name__}")
    return diagonal_apply(ch, s)


def family_to_diagonal(ch: FamilyChannel) -> DiagonalChannel:
    """The family member as a plain :class:`DiagonalChannel` of the same multipliers, built anew.

    It applies with the member's bits, but it is a diagonal channel, not
    equal to the member, with its own caches and JSON form.
    """

    if not isinstance(ch, FamilyChannel):
        raise TypeError(f"expected FamilyChannel, got {type(ch).__name__}")
    return DiagonalChannel(ch.dim, ch.t)


def diagonal_apply(ch: DiagonalChannel, s: np.ndarray) -> np.ndarray:
    """Apply a diagonal channel to a square matrix or an (..., n, n) stack: the one apply engine.

    This is the linear extension of the basis picture to every complex
    input, computed sector by sector in O(n^2) per matrix, into a new
    array: the x/y sectors of a pair {k, l} mix (S_kl, S_lk) with the
    pair's weights (``DiagonalChannel._sector_weights``), as t_x (S + S^T)/2
    + t_y (S - S^T)/2, or as a S + b S^T where one of a and b is zero, then
    the diagonal goes through :func:`diagonal_image`.
    """

    s = as_matrix_stack(s, name="input")
    if s.shape[-1] != ch.dim:
        raise ValueError(
            f"dimension mismatch: input is {s.shape[-1]}x{s.shape[-1]}, channel dim {ch.dim}"
        )
    out = np.empty(s.shape, dtype=complex)
    _pair_sectors_into(*ch._sector_weights, s, out)
    _diagonal_view(out)[...] = diagonal_image(ch, np.diagonal(s, axis1=-2, axis2=-1))
    return out


def _pair_sectors_into(split: bool, u, v, s: np.ndarray, out: np.ndarray) -> None:
    """The pair-sector stage into ``out``, the diagonal unfinished: u (S + S^T)/2 + v (S - S^T)/2 if
    ``split``, else u S + v S^T with a None weight left out (``DiagonalChannel._sector_weights``).

    S is halved before the sum, so no sum of two finite entries overflows.
    """

    if split:
        half = s / 2
        half_t = np.swapaxes(half, -1, -2)
        np.add(half, half_t, out=out)
        out *= u
        antisymmetric = half - half_t
        antisymmetric *= v
        out += antisymmetric
    elif u is None:
        np.multiply(v, np.swapaxes(s, -1, -2), out=out)
    else:
        np.multiply(u, s, out=out)
        if v is not None:
            out += v * np.swapaxes(s, -1, -2)


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
    O(n) per input.  A float or complex ``d`` keeps its type; any other
    is taken as floats.
    """

    if d.dtype.kind not in "fc":
        d = d.astype(float)
    n = ch.dim
    j = _steps(n)
    prefix = d.cumsum(axis=-1)
    w = j * d[..., 1:]
    np.subtract(prefix[..., :-1], w, out=w)
    w *= ch.t_z / (j * (j + 1))
    out = prefix  # the prefix sums are spent: the output takes their buffer
    out[...] = prefix[..., -1:] / n
    # Entry i collects the ones of every M_j with j > i and the -j of M_i.
    out[..., :-1] += w[..., ::-1].cumsum(axis=-1)[..., ::-1]
    w *= j
    out[..., 1:] -= w
    return out


def as_linear_map(ch: DiagonalChannel) -> Callable[[np.ndarray], np.ndarray]:
    """The channel as a function on matrices: the callable channel itself.

    Every verdict of :mod:`qchan.verification` takes its channel through
    here and uses the object it returns.  A :class:`FamilyChannel` is a
    :class:`DiagonalChannel`, so one class check admits both kinds, and
    anything else raises this TypeError.
    """

    if isinstance(ch, DiagonalChannel):
        return ch
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


def validate_state(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Check Hermitian, unit trace, PSD; returns the coerced array."""

    s = as_matrix(s, name="state")
    if not is_hermitian(s, tol):
        raise ValueError("state is not Hermitian")
    trace = complex(np.trace(s))
    if abs(trace - 1) > tol.bound(1.0):
        raise ValueError(f"state trace is {trace}, expected 1")
    smallest = float(np.linalg.eigvalsh(hermitian_part(s))[0])
    if smallest < -tol.bound(frobenius_norm(s)):  # scaled, so an analytically zero eigenvalue passes
        raise ValueError(f"state is not positive semidefinite (min eigenvalue {smallest})")
    return s


# --- JSON ----------------------------------------------------------------


def channel_to_json(ch: DiagonalChannel) -> dict:
    if isinstance(ch, FamilyChannel):
        return _family_json(ch.family, ch.p, ch.dim)
    if isinstance(ch, DiagonalChannel):
        return {"kind": "diagonal", "dim": int(ch.dim), "t": [float(v) for v in ch.t]}
    raise TypeError(f"expected FamilyChannel or DiagonalChannel, got {type(ch).__name__}")


def channel_from_json(obj: Any) -> DiagonalChannel:
    kind = require(obj, "kind")
    if kind == "family":
        return FamilyChannel(*(require(obj, field) for field in FamilyChannel._fields))
    if kind == "diagonal":
        dim = require_int(obj, "dim", 2)
        t = require(obj, "t")
        expected = dim * dim - 1
        if not isinstance(t, list) or len(t) != expected:
            raise SchemaError("t", f"expected a list of {expected} numbers")
        values = [finite_number(v, f"t[{i}]", _MAX_MAGNITUDE) for i, v in enumerate(t)]
        return DiagonalChannel(dim=dim, t=np.array(values))
    raise SchemaError("kind", f"expected 'family' or 'diagonal', got {kind!r}")
