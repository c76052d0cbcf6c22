"""The part of qchan that needs no linear algebra, importable without NumPy.

The paper's exact claims are rational arithmetic in n: the families' CPTP
intervals, the conjugation-sum weights of ``repr_coefficients`` and the
bound-matching obstruction separating same-class pairs.  They live here
with what they rest on (tolerances, family names and sign patterns, the
ratio table, the size guards and the CLI's argument checks) and with every
result record of qchan: ``typing.NamedTuple`` classes, whose ``Any``
fields hold the arrays of the numeric modules.  Those modules re-export
what moved here, so every ``qchan.<module>.<name>`` path still resolves.
The channels and the basis, which validate, cache or act, derive from
``_Frozen`` here instead.  Importing this module loads neither NumPy nor
``fractions``, which only bound matching imports, and no qchan module
loads ``dataclasses``.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from typing import Any, NamedTuple, Optional

from .jsonio import SchemaError

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
    "GAP_THRESHOLD",
    "SpectrumWitness",
    "BoundMatchingReport",
    "InequivalenceCertificate",
    "bound_matching_system",
    "inequivalence_certificate",
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
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerance components must be non-negative")
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
    """Outcome of one numerical check, with the numbers that decided it."""

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
    with :meth:`_set`; they decide ``==`` (same class, equal tuples),
    ``hash`` and ``repr``, as a frozen dataclass's fields would.
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
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# --- Checks shared by the library and the CLI -------------------------------

_MAX_DENSE_GIB = 2  # every size guard refuses a larger request before allocating


def _check_dense_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MAX_DENSE_GIB << 30:
        raise ValueError(f"{what}: about {nbytes / 2**30:.1f} GiB, over the {_MAX_DENSE_GIB} GiB limit")


class _PeakBytes(NamedTuple):
    """Peak bytes of a guarded command per n^2, per n^4 and per Haar sample, and what its refusal names."""

    what: str
    per_n2: int = 0
    per_n4: int = 0
    per_sample: int = 0  # for all the channels the command checks


# Each row is rounded up from the growth tracemalloc measures between two sizes of its command,
# and is at most four times that growth (tests/test_cli.py measures it; README says what it holds).
_PEAK_BYTES = {
    "verify cptp": _PeakBytes("verify cptp", per_n2=100),
    "verify constant-norm": _PeakBytes("verify constant-norm", per_n2=100, per_sample=24),
    "detcheck": _PeakBytes("detcheck", per_n2=100),
    "identities": _PeakBytes("identities", per_n2=280),  # also sizes verification's trial stacks
    "witness": _PeakBytes("the spectrum witnesses", per_n2=700),  # and mixed-pair certify
    "report": _PeakBytes("the report", per_n2=4700, per_sample=48),
    "basis": _PeakBytes("the basis", per_n2=500, per_n4=16),
    "basis --json": _PeakBytes("the basis JSON", per_n4=140),
}


def _check_peak_bytes(command: str, n: int, samples: int = 0) -> None:
    """Refuse ``command`` at dim ``n`` with ``samples`` Haar states if its ``_PEAK_BYTES`` row passes 2 GiB."""

    row, n = _PEAK_BYTES[command], int(n)
    nbytes = row.per_n2 * n**2 + row.per_n4 * n**4 + row.per_sample * samples
    _check_dense_bytes(nbytes, f"{row.what} at dim {n}")


def _check_dim(n: int) -> None:
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")


def _check_trials(trials: int) -> None:
    """Reject trial counts that would let a check pass without checking anything."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")


def _check_grid(grid: int) -> None:
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")


def _check_finite_p(p: float) -> None:
    if not math.isfinite(p):
        raise ValueError(f"parameter p must be finite, got {p!r}")


def _check_conjugation_p(p: float) -> None:
    """The dimension-2 conjugations are checked for 0 < p < 1."""
    if not 0 < p < 1:
        raise ValueError(f"conjugation check expects 0 < p < 1, got {p}")


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

    def contains(self, p: float, tol: Tolerance = DEFAULT_TOL) -> bool:
        slack = tol.bound(max(abs(self.p_min), abs(self.p_max)))
        return self.p_min - slack <= p <= self.p_max + slack


def param_range(family: Family, n: int) -> ParamRange:
    _check_dim(n)
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
    sets exactly on the CPTP range.  A ``Fraction`` p gives exact weights.
    """

    _check_dim(n)
    t_x, t_y, t_z = (s * p for s in _SIGNS[family])
    u = (1 - t_z) / n
    cx = (u + (t_x - t_y) / 2) / 2
    cy = (u - (t_x - t_y) / 2) / 2
    cz = (t_z + u - (t_x + t_y) / 2) / n
    c0 = cz + (t_x + t_y) / 2
    return ReprCoefficients(c0, cx, cy, cz, e0=n * c0, ex=2 * cx, ey=2 * cy, ez=n * cz)


# --- Inequivalence certificates ------------------------------------------------

_HYBRID = (Family.DCQ, Family.TCQ)


def _is_mixed(pair: tuple[Family, Family]) -> bool:
    """One of dep/trd and one of dcq/tcq: the pairs a spectrum witness separates."""
    return (pair[0] in _HYBRID) != (pair[1] in _HYBRID)


# Spectral gap a witness must exhibit before a certificate is claimed.
GAP_THRESHOLD = 1e-6


class SpectrumWitness(NamedTuple):
    """Two isospectral pure inputs and the spectra of their outputs.

    ``state_a`` is a computational basis projector, ``state_b`` the
    projector onto the uniform superposition; both are rank one, hence
    isospectral.  Spectra are ascending; ``max_spectral_gap`` is the
    largest entrywise difference of the sorted spectra.
    """

    family: Family
    p: float
    dim: int
    state_a: Any
    state_b: Any
    spectrum_a: Any
    spectrum_b: Any
    max_spectral_gap: float
    notes: str = ""


class BoundMatchingReport(NamedTuple):
    """Roots of one endpoint-matching system and its verdict at one dimension.

    ``roots`` are the dimensions at which an affine reparameterization
    could align both CPTP endpoints of the two families, ``roots_exact``
    the same roots as exact expressions; ``feasible`` says whether the
    ratio equation holds exactly at the queried dimension.
    """

    pair: tuple[Family, Family]
    dim: int
    same_sign: bool
    roots: tuple[float, ...]
    roots_exact: tuple[str, ...]
    feasible: bool
    detail: str


class InequivalenceCertificate(NamedTuple):
    """Self-contained evidence that two families are not conjugate.

    ``method`` is "spectrum_witness" (mixed pairs: one spectrum-preserving
    family, one not) or "bound_matching" (pairs within the same class).
    All concrete numbers are embedded so the certificate can be re-checked
    without this library.
    """

    pair: tuple[Family, Family]
    dim: int
    method: str
    witnesses: tuple[SpectrumWitness, ...] = ()
    bound_reports: tuple[BoundMatchingReport, ...] = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Whether the evidence certifies inequivalence.

        The first spectrum witness must separate its states by more than
        ``GAP_THRESHOLD``; bound matching needs a same-sign and an
        opposite-sign report and no feasible system.  All evidence must
        belong to the certificate: every witness at ``dim`` for a family of
        ``pair``, every bound report at ``dim`` for the same unordered pair.
        Missing or foreign evidence, or an unknown method, does not pass.
        """

        if self.method == "spectrum_witness":
            witnesses = self.witnesses
            return (
                all(w.dim == self.dim and w.family in self.pair for w in witnesses)
                and bool(witnesses)
                and witnesses[0].max_spectral_gap > GAP_THRESHOLD
            )
        if self.method == "bound_matching":
            reports = self.bound_reports
            return (
                all(r.dim == self.dim and set(r.pair) == set(self.pair) for r in reports)
                and {r.same_sign for r in reports} == {True, False}
                and not any(r.feasible for r in reports)
            )
        return False


# The ratio equations of bound_matching_system depend only on the two CPTP
# ranges and not on n, so their printed sides and roots are fixed.  Each row,
# keyed by _ratio_key, holds the lhs and rhs text, the exact roots and the
# same roots as floats, in ascending order; no roots marks an equation that
# holds identically.  tests/test_equivalence.py re-derives every row
# symbolically.  ``feasible`` never reads a row: it is exact rational equality at n.
_SQRT17_ROOTS = (
    ("0", "5/2 - sqrt(17)/2", "sqrt(17)/2 + 5/2"),
    (0.0, 0.4384471871911697, 4.561552812808831),
)
_RATIO_EQUATIONS = {
    (Family.DEP, Family.TRD, True): ("-(1 - n**2)/(n - 1)", "1/(n + 1)", ("-2", "0"), (-2.0, 0.0)),
    (Family.DEP, Family.TRD, False): ("(1 - n**2)/(n + 1)", "-1/(n - 1)", ("0", "2"), (0.0, 2.0)),
    (Family.DEP, Family.DCQ, True):
        ("-(1 - n**2)/(2*n - 1)", "(n - 1)**(-2)", ("0", "2"), (0.0, 2.0)),
    (Family.DEP, Family.DCQ, False): ("(1 - n**2)/(n - 1)**2", "-1/(2*n - 1)", ("0",), (0.0,)),
    (Family.TRD, Family.DEP, True): ("-(1 - n)/(n**2 - 1)", "n + 1", ("-2", "0"), (-2.0, 0.0)),
    (Family.TRD, Family.DEP, False): ("1 - n", "-(n + 1)/(n**2 - 1)", ("0", "2"), (0.0, 2.0)),
    (Family.TRD, Family.DCQ, True): ("-(1 - n)/(2*n - 1)", "(n + 1)/(n - 1)**2", *_SQRT17_ROOTS),
    (Family.TRD, Family.DCQ, False):
        ("(1 - n)/(n - 1)**2", "-(n + 1)/(2*n - 1)", ("0", "2"), (0.0, 2.0)),
    (Family.TRD, Family.TRD, True): ("-(1 - n)/(n - 1)", "1", (), ()),
    (Family.TRD, Family.TRD, False): ("(1 - n)/(n + 1)", "-(n + 1)/(n - 1)", ("0",), (0.0,)),
    (Family.DCQ, Family.DEP, True):
        ("-(1 - 2*n)/(n**2 - 1)", "(n - 1)**2", ("0", "2"), (0.0, 2.0)),
    (Family.DCQ, Family.DEP, False): ("1 - 2*n", "-(n - 1)**2/(n**2 - 1)", ("0",), (0.0,)),
    (Family.DCQ, Family.TRD, True): ("-(1 - 2*n)/(n - 1)", "(n - 1)**2/(n + 1)", *_SQRT17_ROOTS),
    (Family.DCQ, Family.TRD, False): ("(1 - 2*n)/(n + 1)", "1 - n", ("0", "2"), (0.0, 2.0)),
}


def _ratio_key(fam_a: Family, fam_b: Family, same_sign: bool) -> tuple[Family, Family, bool]:
    """Key of one system's row: tcq has trd's CPTP range, so it reads trd's rows."""

    fam_a, fam_b = (Family.TRD if f is Family.TCQ else f for f in (fam_a, fam_b))
    return fam_a, fam_b, same_sign


def bound_matching_system(
    pair: tuple[Family, Family], n: int, same_sign: bool
) -> BoundMatchingReport:
    """Decide one endpoint-matching system exactly at dimension ``n``.

    If conjugations mapped family A at parameter p onto family B at p~,
    the affine scaling freedom would identify the two alpha intervals; for
    parameters of equal (resp. opposite) sign that forces the ratio p~/p
    to match lower-to-lower and upper-to-upper (resp. crossed) endpoint
    quotients.  ``feasible`` is exact rational equality of the two
    quotients at ``n``; the report also lists every dimension solving the
    system.
    """

    from fractions import Fraction  # not at module level: the CLI front would pay its import

    fam_a, fam_b = pair
    if fam_a is fam_b:
        raise ValueError("bound matching needs two distinct families")
    _check_dim(n)
    exact_n = Fraction(int(n))
    lo_a, hi_a = cptp_range(fam_a, exact_n)
    lo_b, hi_b = cptp_range(fam_b, exact_n)
    if same_sign:
        feasible = lo_b / lo_a == hi_b / hi_a
    else:
        feasible = hi_b / lo_a == lo_b / hi_a
    lhs, rhs, roots_exact, roots = _RATIO_EQUATIONS[_ratio_key(fam_a, fam_b, same_sign)]
    if feasible and not roots:
        verdict = f"the equation holds for every n, so dimension {n} solves the system"
    elif feasible:
        verdict = f"dimension {n} solves the system"
    else:
        verdict = f"no root equals {n}, so no affine reparameterization aligns both endpoints"
    detail = f"ratio equation {lhs} = {rhs}; roots {{{', '.join(roots_exact)}}}; {verdict}"
    return BoundMatchingReport(
        pair=pair,
        dim=n,
        same_sign=same_sign,
        roots=roots,
        roots_exact=roots_exact,
        feasible=feasible,
        detail=detail,
    )


def _default_witness_p(family: Family, n: int) -> float:
    hi = float(cptp_range(family, n)[1])
    return min(0.2, 0.8 * hi)


def inequivalence_certificate(
    pair: tuple[Family, Family], n: int, p: Optional[float] = None
) -> InequivalenceCertificate:
    """Certificate that two distinct families are inequivalent at dim n >= 3.

    Mixed pairs (one of dep/trd, one of dcq/tcq) get a spectrum witness:
    the to-classical member sends isospectral pure inputs to outputs with
    different spectra, while the depolarizing-type member provably cannot.
    Same-class pairs get the two bound-matching obstructions instead,
    since both members preserve (or both break) spectra identically; they
    need no linear algebra, and only a mixed pair loads the numeric modules.
    ``p`` sets the witnesses' parameter, so a same-class pair refuses it.
    """

    fam_a, fam_b = pair
    if fam_a is fam_b:
        raise ValueError("certificate needs two distinct families")
    if p is not None:
        _check_finite_p(p)
    _check_dim(n)
    if n == 2:
        raise ValueError(
            "at dimension 2 the four families are pairwise equivalent "
            "(see qubit_equivalence_check); no inequivalence certificate exists"
        )
    mixed = _is_mixed(pair)
    if not mixed and p is not None:
        raise ValueError(
            f"p={p} applies to spectrum witnesses only; the same-class pair "
            f"{fam_a.value},{fam_b.value} is certified by bound matching, which takes no p"
        )
    if mixed:
        from .equivalence import spectrum_witness

        hybrid, base = pair if fam_a in _HYBRID else (fam_b, fam_a)
        p_hybrid = p if p is not None else _default_witness_p(hybrid, n)
        p_base = p if p is not None else _default_witness_p(base, n)
        witness_h = spectrum_witness(hybrid, p_hybrid, n)
        witness_b = spectrum_witness(base, p_base, n)
        detail = (
            f"unitary/antiunitary conjugations preserve output spectra on isospectral "
            f"inputs; {base.value} outputs are isospectral for every parameter "
            f"(observed gap {witness_b.max_spectral_gap:.3e}), while {hybrid.value} at "
            f"p={p_hybrid} separates the two witnesses by {witness_h.max_spectral_gap:.6e}"
        )
        return InequivalenceCertificate(
            pair=pair,
            dim=n,
            method="spectrum_witness",
            witnesses=(witness_h, witness_b),
            detail=detail,
        )
    reports = (
        bound_matching_system(pair, n, same_sign=True),
        bound_matching_system(pair, n, same_sign=False),
    )
    detail = (
        "equivalence would let the affine scaling freedom align both CPTP interval "
        "endpoints; neither the same-sign nor the opposite-sign ratio system has a "
        f"root at dimension {n}"
    )
    return InequivalenceCertificate(
        pair=pair, dim=n, method="bound_matching", bound_reports=reports, detail=detail
    )
