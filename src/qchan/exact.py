"""The part of qchan that needs no linear algebra, importable without NumPy.

The paper's exact claims are rational arithmetic in n: the four families'
CPTP intervals and the bound-matching obstruction separating same-class
pairs.  This module holds them with the plain records and checks they
rest on: tolerances, the family names and sign patterns, the ratio table,
the certificate records, the size guard and the argument checks that the
CLI runs before it loads any numeric module.  The other modules import
from here and re-export what moved, so every ``qchan.<module>.<name>``
path still resolves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional

from .jsonio import SchemaError

if TYPE_CHECKING:
    from .equivalence import SpectrumWitness

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Family",
    "FAMILY_NAMES",
    "cptp_range",
    "family_from_name",
    "ParamRange",
    "param_range",
    "GAP_THRESHOLD",
    "BoundMatchingReport",
    "InequivalenceCertificate",
    "bound_matching_system",
    "inequivalence_certificate",
]


@dataclass(frozen=True)
class Tolerance:
    """Combined absolute/relative threshold.

    Two reals compare equal when ``|x - y| <= absolute + relative * max(|x|, |y|)``.
    """

    absolute: float = 1e-10
    relative: float = 1e-10

    def __post_init__(self) -> None:
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerance components must be non-negative")

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


# --- Checks shared by the library and the CLI -------------------------------

_MAX_DENSE_GIB = 2  # dense n^4-sized builders refuse larger requests before allocating


def _check_dense_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MAX_DENSE_GIB << 30:
        raise ValueError(f"{what}: about {nbytes / 2**30:.1f} GiB, over the {_MAX_DENSE_GIB} GiB limit")


def _check_basis_bytes(n: int) -> None:
    """The basis is an (n^2, n, n) complex stack: 16 n^4 bytes."""
    _check_dense_bytes(16 * int(n) ** 4, f"the basis at dim {n}")


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
    _check_dim(n)
    lo, hi = cptp_range(family, n)
    return ParamRange(family=family, dim=n, p_min=float(lo), p_max=float(hi))


# --- Inequivalence certificates ------------------------------------------------

_HYBRID = (Family.DCQ, Family.TCQ)
_BASE = (Family.DEP, Family.TRD)

# Spectral gap a witness must exhibit before a certificate is claimed.
GAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class BoundMatchingReport:
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


@dataclass(frozen=True)
class InequivalenceCertificate:
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
    hybrids = [f for f in pair if f in _HYBRID]
    bases = [f for f in pair if f in _BASE]
    if len(hybrids) == 1:
        from .equivalence import spectrum_witness

        hybrid, base = hybrids[0], bases[0]
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
