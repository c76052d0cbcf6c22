"""The part of qchan that needs no linear algebra, importable without NumPy.

The paper's exact claims are rational arithmetic in n: the families' CPTP
intervals, the conjugation-sum weights of ``repr_coefficients``, and the
CP verdict of every channel whose multipliers are constant on each sector
(the four families among them), which ``_sector_cptp`` takes from its
four Choi eigenvalues in integers.  They live here with what they rest
on (tolerances, family names and sign patterns, the size guards) and
with the result records every numeric module returns:
``typing.NamedTuple`` classes, whose ``Any`` fields hold the arrays of
the numeric modules.  The channels and the basis, which validate, cache
or act, derive from ``_Frozen`` here instead.  The
bound-matching certificates, which only ``certify``, ``witness`` and
``report`` run, are in :mod:`qchan.equivalence`.
Importing this module loads neither NumPy nor ``fractions``, and no qchan
module loads ``dataclasses``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, NamedTuple, Optional

from .jsonio import SchemaError, integer

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "VerificationReport",
    "QubitClassification",
    "Family",
    "FAMILY_NAMES",
    "cptp_range",
    "family_from_name",
    "ParamRange",
    "param_range",
    "ReprCoefficients",
    "repr_coefficients",
    "pair_count",
]


# Tolerance's fields.  A NamedTuple body may not define ``__new__``, so the
# check runs in the subclass.
class _ToleranceFields(NamedTuple):
    absolute: float = 1e-10
    relative: float = 1e-10


class Tolerance(_ToleranceFields):
    """Combined absolute/relative threshold.

    Two reals compare equal when ``|x - y| <= absolute + relative * max(|x|, |y|)``.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> Tolerance:
        self = super().__new__(cls, *args, **kwargs)
        if not all(0 <= part < math.inf for part in self):  # a NaN fails too
            raise ValueError(f"tolerance components must be finite and non-negative, got {tuple(self)!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> Tolerance:
        # ``_replace`` builds through ``_make``, which would skip the check above.
        return cls(*iterable)

    def bound(self, scale: float) -> float:
        """Largest deviation accepted at the given magnitude scale.

        A non-finite scale raises ValueError: its bound would accept any deviation.
        """

        if not math.isfinite(scale):
            raise ValueError(f"cannot bound a deviation at the non-finite scale {scale!r}")
        return self.absolute + self.relative * abs(scale)

    def close(self, x: float, y: float) -> bool:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"cannot compare the non-finite values {x!r} and {y!r}")
        return abs(x - y) <= self.bound(max(abs(x), abs(y)))


DEFAULT_TOL = Tolerance()


# --- Result records -------------------------------------------------------------


class VerificationReport(NamedTuple):
    """Outcome of one numerical check, with the numbers that decided it.

    ``is_cptp`` writes ``trace_violation`` as 0.0, since every channel object preserves trace by
    construction; ``tests/dense_oracles.py::dense_is_cptp`` measures a partial trace, for any map.
    In the constant-norm sample test ``max_deviation`` is the spread of the output norms (largest minus
    smallest, held to the tolerance) and ``mean_deviation`` their mean absolute deviation, never above it.
    """

    passed: bool
    min_choi_eigenvalue: Optional[float] = None
    trace_violation: Optional[float] = None
    max_deviation: Optional[float] = None
    mean_deviation: Optional[float] = None
    witness: Optional[str] = None
    samples_used: int = 0


class QubitClassification(NamedTuple):
    """Verdict of the constant-norm trichotomy for a qubit channel.

    ``tag`` is "completely_depolarizing" (lam = 0; ``fixed_output`` holds
    the constant output state), "diagonal" (t = 0, equal moduli;
    ``variant`` in 1..4 and ``p`` = |lam_z| describe the member), or
    "not_constant_norm".
    """

    tag: str
    fixed_output: Any = None
    variant: Optional[int] = None
    p: Optional[float] = None


class _Frozen:
    """Base of the immutable objects that are not records: the channels and the basis.

    ``__init__`` validates, then stores the values named by ``_fields``
    with :meth:`_set`; they decide ``==`` (same class, equal fields, an
    array by shape and then element by element, where a frozen dataclass
    raised), ``hash`` (refused for an array field) and ``repr``.
    Assignment and deletion raise AttributeError, while
    ``functools.cached_property`` still caches, since it writes the
    instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values: Any) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same(self._values(), other._values())

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _same(a: Any, b: Any) -> bool:
    """Equality of two values of one field: tuples item by item, arrays by shape, then element by element."""

    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


# --- Checks shared by the library and the CLI -------------------------------

_MAX_DENSE_GIB = 2  # every size guard refuses a larger request before allocating


def _check_dense_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MAX_DENSE_GIB << 30:
        raise ValueError(f"{what}: about {nbytes / 2**30:.1f} GiB, over the {_MAX_DENSE_GIB} GiB limit")


class _PeakBytes(NamedTuple):
    """Peak bytes of a guarded command per n^2, per n^4 and per item, and what its refusal names.

    An item is a Haar sample (for all the channels the command checks) or a ``detcheck`` grid point.
    """

    what: str
    per_n2: int = 0
    per_n4: int = 0
    per_item: int = 0


# Each row is rounded up from the growth tracemalloc measures between two sizes of its command,
# and is at most four times that growth (tests/test_cli.py measures it; README says what it holds).
_PEAK_BYTES = {
    "verify cptp": _PeakBytes("verify cptp", per_n2=100),
    "verify constant-norm": _PeakBytes("verify constant-norm", per_n2=60, per_item=24),
    "detcheck": _PeakBytes("detcheck", per_n2=100, per_item=16),
    "identities": _PeakBytes("identities", per_n2=300),  # also sizes representations' trial stacks
    "witness": _PeakBytes("the spectrum witnesses", per_n2=700),  # and mixed-pair certify
    "report": _PeakBytes("the report", per_n2=4700, per_item=48),
    "basis": _PeakBytes("the basis", per_n2=500, per_n4=16),
    "basis --json": _PeakBytes("the basis JSON", per_n4=140),
}


def _check_peak_bytes(command: str, n: int, items: int = 0) -> None:
    """Refuse ``command`` at dim ``n`` with ``items`` Haar states or grid points if its ``_PEAK_BYTES`` row passes 2 GiB."""

    row, n = _PEAK_BYTES[command], int(n)
    nbytes = row.per_n2 * n**2 + row.per_n4 * n**4 + row.per_item * items
    _check_dense_bytes(nbytes, f"{row.what} at dim {n}")


def pair_count(n: int) -> int:
    """Number of index pairs 1 <= k < l <= n."""
    n = integer(n, "dim", 2)
    return n * (n - 1) // 2


# --- Families and their CPTP intervals ---------------------------------------


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


def _endpoint_denominators(family: Family, n):
    """The positive (q_lo, q_hi) with p_min = -1/q_lo and p_max = 1/q_hi of :func:`cptp_range`, for n >= 2."""

    if family is Family.DEP:
        return n * n - 1, 1
    if family is Family.TRD or family is Family.TCQ:
        return n - 1, n + 1
    return 2 * n - 1, (n - 1) ** 2


def cptp_range(family: Family, n):
    """Endpoints (p_min, p_max) of the CPTP parameter interval.

    Works with an integer or a ``fractions.Fraction`` dimension; given a
    Fraction it returns exact rationals.  The bound-matching verdicts
    compare the integer denominators of these endpoints instead.
    """

    family = family_from_name(family)
    if family is Family.DEP:
        return -1 / (n * n - 1), 1
    if family is Family.TRD or family is Family.TCQ:
        return -1 / (n - 1), 1 / (n + 1)
    return -1 / (2 * n - 1), 1 / (n - 1) ** 2


def family_from_name(name: Any, field: str = "family") -> Family:
    try:
        return Family(name)
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise SchemaError(field, f"expected one of {valid}, got {name!r}") from None


class ParamRange(NamedTuple):
    """Closed CPTP parameter interval of one family at one dimension."""

    family: Family
    dim: int
    p_min: float
    p_max: float

    def contains(self, p: float) -> bool:
        slack = DEFAULT_TOL.bound(max(abs(self.p_min), abs(self.p_max)))
        return self.p_min - slack <= p <= self.p_max + slack


def param_range(family: Family, n: int) -> ParamRange:
    family, n = family_from_name(family), integer(n, "dim", 2)
    lo, hi = cptp_range(family, n)
    return ParamRange(family=family, dim=n, p_min=float(lo), p_max=float(hi))


class ReprCoefficients(NamedTuple):
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
    sets exactly on the CPTP range.  A ``Fraction`` p gives exact weights;
    :func:`_sector_choi_spectrum` gives them, times 2n, as integers.
    """

    n = integer(n, "dim", 2)
    t_x, t_y, t_z = (s * p for s in _SIGNS[family_from_name(family)])
    u = (1 - t_z) / n
    cx = (u + (t_x - t_y) / 2) / 2
    cy = (u - (t_x - t_y) / 2) / 2
    cz = (t_z + u - (t_x + t_y) / 2) / n
    c0 = cz + (t_x + t_y) / 2
    return ReprCoefficients(c0, cx, cy, cz, e0=n * c0, ex=2 * cx, ey=2 * cy, ez=n * cz)


def _sector_choi_spectrum(x: float, y: float, z: float, n: int) -> tuple[int, int, int, int, int]:
    """(e0, ez, ex, ey, den): the Choi eigenvalues of a sector-constant channel, as integers over den.

    The channel's multipliers are x on every pair's x sector, y on every y
    and z on every staircase element.  Write x, y and z over their least
    common denominator d (``as_integer_ratio``: a power of two for floats;
    ``Fraction`` values are exact too); then den = 2 n d and

        e0 = 2(d - z) + 2nz + n(n-1)(x + y)   once, in the classical block,
        ez = 2(d - z) + 2nz - n(x + y)        n - 1 times, in the classical block,
        ex, ey = 2(d - z) +- n(x - y)         once each in every pair block.

    On a family member these are 2n times the e-weights of :func:`repr_coefficients`.
    """

    (x, dx), (y, dy), (z, dz) = (v.as_integer_ratio() for v in (x, y, z))
    d = math.lcm(dx, dy, dz)
    x, y, z = x * (d // dx), y * (d // dy), z * (d // dz)
    base = 2 * (d - z)
    classical = base + 2 * n * z
    e0, ez = classical + n * (n - 1) * (x + y), classical - n * (x + y)
    return e0, ez, base + n * (x - y), base - n * (x - y), 2 * n * d


def _sector_cptp(x: float, y: float, z: float, n: int, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """``verification.is_cptp``'s report on a channel whose multipliers are constant on each sector, in O(1).

    The smallest Choi eigenvalue is the least of :func:`_sector_choi_spectrum`'s
    four integers, so it is found exactly, then divided by den and rounded
    once.  The classical block wins a tie, as it does in the block path;
    otherwise every pair block holds it, and the first, (1,2), is named.
    The threshold's scale is the Choi norm sqrt(1 + |t|^2), with
    |t|^2 = n(n-1)/2 (x^2 + y^2) + (n-1) z^2.
    """

    e0, ez, ex, ey, den = _sector_choi_spectrum(x, y, z, n)
    classical, pair = min(e0, ez), min(ex, ey)
    smallest = min(classical, pair) / den
    scale = math.hypot(1.0, math.hypot(x, y) * math.sqrt(n * (n - 1) // 2), z * math.sqrt(n - 1))
    passed = smallest >= -tol.bound(scale)
    where = " in classical block" if classical <= pair else " in pair block (1,2)"
    return VerificationReport(
        passed=passed,
        min_choi_eigenvalue=smallest,
        trace_violation=0.0,
        witness=None if passed else f"negative Choi eigenvalue {smallest:.6e}{where}",
    )


def _family_json(family: Family, p: float, dim: int) -> dict:
    """The JSON object of a family member: ``channels.channel_to_json``'s, and ``verify cptp --family``'s."""

    return {"kind": "family", "family": family.value, "p": float(p), "dim": int(dim)}


# The to-classical families, whose closed forms add 2p d(S).
_HYBRID = (Family.DCQ, Family.TCQ)


def _is_mixed(pair: tuple[Family, Family]) -> bool:
    """One of dep/trd and one of dcq/tcq: the pairs a spectrum witness separates."""
    return (pair[0] in _HYBRID) != (pair[1] in _HYBRID)
