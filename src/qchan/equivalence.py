"""(In)equivalence machinery for the four channel families.

Two channels are called equivalent when unitary or antiunitary
conjugations before and after one of them produce the other.  A
transpose on one side alone is not part of this notion: trd(p) = dep(p)∘T
and tcq(p) = dcq(p)∘T exactly, so it would join those pairs at every n.
The conjugations preserve output spectra on isospectral inputs, and they
can only connect whole parameter ranges affinely; both facts yield
machine-checkable *in*equivalence certificates:

* a spectrum witness — two isospectral pure inputs whose outputs under
  one family member have different spectra, impossible for any channel
  conjugate to a depolarizing-type member, which maps every pure state
  to outputs with one fixed spectrum;
* a bound-matching obstruction — equivalence would force the affine
  reparameterization ratio to align both CPTP interval endpoints, and
  the resulting polynomial systems have no integer roots n >= 3.

At dimension 2 all four families are equivalent via explicit Pauli
conjugations, which :func:`qubit_equivalence_check` verifies numerically.

The bound-matching systems, the certificates and the records need no linear
algebra, so importing this module loads no NumPy: the spectrum witnesses and
the qubit conjugations import it, and the numeric modules they use, when they
run.  Only ``certify``, ``witness``, ``qubit-equiv`` and ``report`` load this
module, and nothing here imports :mod:`qchan.verification`.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .exact import (
    _HYBRID,
    Family,
    Tolerance,
    VerificationReport,
    _check_conjugation_p,
    _is_mixed,
    cptp_range,
    param_range,
)
from .jsonio import _MAX_MAGNITUDE, finite_number, integer

__all__ = [
    "GAP_THRESHOLD",
    "SpectrumWitness",
    "BoundMatchingReport",
    "InequivalenceCertificate",
    "spectrum_witness",
    "bound_matching_system",
    "qubit_equivalence_check",
    "inequivalence_certificate",
]


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

    from fractions import Fraction  # not at module level: spectrum witnesses do not need it

    fam_a, fam_b = pair
    if fam_a is fam_b:
        raise ValueError("bound matching needs two distinct families")
    n = integer(n, "dim", 2)
    exact_n = Fraction(n)
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
        p = finite_number(p, "p", _MAX_MAGNITUDE)
    n = integer(n, "dim", 2)
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


def spectrum_witness(family: Family, p: float, n: int) -> SpectrumWitness:
    """Output spectra of one family member on two isospectral pure inputs.

    For the depolarizing and transpose-depolarizing families the two
    spectra coincide for every p; for the to-classical families they
    differ whenever p != 0, with largest sorted-entry gap
    |p| * max(1 - 2/n, 2/n).
    """

    import numpy as np

    from .channels import FamilyChannel
    from .linalg import hermitian_eigenvalues

    p, rng_info = finite_number(p, "p", _MAX_MAGNITUDE), param_range(family, n)
    if not rng_info.contains(p):
        raise ValueError(
            f"p={p} outside the CPTP range [{rng_info.p_min}, {rng_info.p_max}] "
            f"of {family.value} at dim {n}"
        )
    state_a = np.zeros((n, n), dtype=complex)
    state_a[0, 0] = 1
    state_b = np.ones((n, n), dtype=complex) / n
    ch = FamilyChannel(family=family, p=p, dim=n)
    spectrum_a = hermitian_eigenvalues(ch(state_a))
    spectrum_b = hermitian_eigenvalues(ch(state_b))
    gap = float(np.max(np.abs(spectrum_a - spectrum_b)))
    if family in _HYBRID:
        notes = (
            "analytic spectra: basis projector -> {p + (1-p)/n, (1-p)/n x (n-1)}; "
            "uniform projector -> {-p + (1+p)/n, (1+p)/n x (n-1)} (both sum to 1); "
            "sorted-entry gap |p| * max(1 - 2/n, 2/n)"
        )
    else:
        notes = "family acts as S -> p S (or p S^T) plus a multiple of I: spectra coincide"
    return SpectrumWitness(
        family=family,
        p=p,
        dim=n,
        state_a=state_a,
        state_b=state_b,
        spectrum_a=spectrum_a,
        spectrum_b=spectrum_b,
        max_spectral_gap=gap,
        notes=notes,
    )


def qubit_equivalence_check(
    p: float,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = Tolerance(absolute=1e-12, relative=0.0),
) -> VerificationReport:
    """Verify the dimension-2 Pauli conjugations joining the four variants.

    With Phi_1..Phi_4 the four families (dep, trd, dcq, tcq) at
    dimension 2 in their diagonal picture:

    * sigma_y Phi_2(-p, S) sigma_y = Phi_1(p, S)
    * sigma_z Phi_3(p, S)  sigma_z = Phi_1(p, S)
    * sigma_x Phi_4(-p, S) sigma_x = Phi_1(p, S)

    checked entrywise on stacks of up to 2048 Haar states of ``seed``
    (the bits of the test oracle ``random_pure_state`` in
    ``tests/dense_oracles.py``); ``witness`` names the first worst case.
    """

    _check_conjugation_p(p)
    trials, seed = integer(trials, "trials", 1), integer(seed, "seed", 0)
    import numpy as np

    from .basis import pauli_matrix
    from .channels import FamilyChannel
    from .sampling import _haar_vectors

    members = zip(Family, (p, -p, p, -p))  # Phi_1..Phi_4 and their parameters
    phi1, phi2, phi3, phi4 = (FamilyChannel(f, q, 2) for f, q in members)
    cases = [
        ("sigma_y . Phi_2(-p) . sigma_y", pauli_matrix(2, "y", (1, 2)), phi2),
        ("sigma_z . Phi_3(p) . sigma_z", pauli_matrix(2, "z", (1, 2)), phi3),
        ("sigma_x . Phi_4(-p) . sigma_x", pauli_matrix(2, "x", (1, 2)), phi4),
    ]
    worst = 0.0
    worst_case = None
    for v in _haar_vectors(2, trials, seed):
        s = v[:, :, None] * v.conj()[:, None, :]  # the projectors, each np.outer(v, v.conj()) bit for bit
        target = phi1(s)
        conjugated = np.stack([sigma @ ch(s) @ sigma for _, sigma, ch in cases], axis=1)
        devs = np.abs(conjugated - target[:, None]).max(axis=(-2, -1))  # (trials, cases)
        i = int(devs.argmax())  # the first largest in trial-major, case-minor order, as the loop met it
        if devs.flat[i] > worst:
            worst, worst_case = float(devs.flat[i]), cases[i % len(cases)][0]
    passed = worst <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=None if passed else f"identity {worst_case} violated by {worst:.3e}",
        samples_used=trials,
    )
