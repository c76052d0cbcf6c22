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

The bound-matching systems and the composed certificates need no linear
algebra; they live in :mod:`qchan.exact` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import pauli_matrix
from .channels import (
    DiagonalChannel,
    FamilyChannel,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
    random_pure_state,
)
# GAP_THRESHOLD, the certificate records and functions moved to qchan.exact;
# they are imported here so that their qchan.equivalence paths still resolve.
from .exact import (
    _HYBRID,
    GAP_THRESHOLD,
    BoundMatchingReport,
    Family,
    InequivalenceCertificate,
    Tolerance,
    _check_conjugation_p,
    _check_trials,
    bound_matching_system,
    inequivalence_certificate,
    param_range,
)
from .linalg import hermitian_eigenvalues
from .verification import VerificationReport

__all__ = [
    "SpectrumWitness",
    "AlphaInterval",
    "BoundMatchingReport",
    "InequivalenceCertificate",
    "spectrum_witness",
    "scale_family",
    "alpha_interval",
    "bound_matching_system",
    "qubit_equivalence_check",
    "inequivalence_certificate",
]


@dataclass(frozen=True)
class SpectrumWitness:
    """Two isospectral pure inputs and the spectra of their outputs.

    ``state_a`` is a computational basis projector, ``state_b`` the
    projector onto the uniform superposition; both are rank one, hence
    isospectral.  Spectra are ascending; ``max_spectral_gap`` is the
    largest entrywise difference of the sorted spectra.
    """

    family: Family
    p: float
    dim: int
    state_a: np.ndarray
    state_b: np.ndarray
    spectrum_a: np.ndarray
    spectrum_b: np.ndarray
    max_spectral_gap: float
    notes: str = ""


@dataclass(frozen=True)
class AlphaInterval:
    """Scaling factors alpha keeping alpha*p inside the CPTP range."""

    family: Family
    p: float
    dim: int
    alpha_min: float
    alpha_max: float


def _witness_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = 1
    b = np.ones((n, n), dtype=complex) / n
    return a, b


def spectrum_witness(family: Family, p: float, n: int) -> SpectrumWitness:
    """Output spectra of one family member on two isospectral pure inputs.

    For the depolarizing and transpose-depolarizing families the two
    spectra coincide for every p; for the to-classical families they
    differ whenever p != 0, with largest sorted-entry gap
    |p| * max(1 - 2/n, 2/n).
    """

    rng_info = param_range(family, n)
    if not rng_info.contains(p):
        raise ValueError(
            f"p={p} outside the CPTP range [{rng_info.p_min}, {rng_info.p_max}] "
            f"of {family.value} at dim {n}"
        )
    state_a, state_b = _witness_inputs(n)
    ch = FamilyChannel(family=family, p=p, dim=n)
    spectrum_a = hermitian_eigenvalues(family_apply(ch, state_a))
    spectrum_b = hermitian_eigenvalues(family_apply(ch, state_b))
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


def scale_family(
    ch: FamilyChannel,
    alpha: float,
    trials: int = 20,
    seed: int = 0,
    tol: Tolerance = Tolerance(absolute=1e-12, relative=0.0),
) -> FamilyChannel:
    """Member with parameter alpha*p, after verifying the affine identity.

    Every family satisfies Phi(alpha p, S) = alpha Phi(p, S)
    + (1 - alpha)/n Tr(S) I; the identity is spot-checked on ``trials``
    (at least one) random pure states before the scaled member is returned.
    """

    _check_trials(trials)
    scaled = FamilyChannel(family=ch.family, p=alpha * ch.p, dim=ch.dim)
    rng_info = param_range(ch.family, ch.dim)
    if not rng_info.contains(scaled.p):
        raise ValueError(
            f"alpha={alpha} drives p to {scaled.p}, outside "
            f"[{rng_info.p_min}, {rng_info.p_max}] for {ch.family.value} at dim {ch.dim}"
        )
    rng = np.random.default_rng(seed)
    n = ch.dim
    for _ in range(trials):
        s = random_pure_state(n, rng)
        lhs = family_apply(scaled, s)
        rhs = alpha * family_apply(ch, s) + (1 - alpha) / n * np.trace(s) * np.eye(n)
        if float(np.max(np.abs(lhs - rhs))) > tol.bound(1.0):
            raise RuntimeError(
                f"affine scaling identity violated for {ch.family.value}, "
                f"p={ch.p}, alpha={alpha}, dim={n}"
            )
    return scaled


def alpha_interval(family: Family, p: float, n: int) -> AlphaInterval:
    """All alpha with alpha*p inside the CPTP range (p = 0 is an error)."""

    if p == 0:
        raise ValueError("alpha interval is unbounded at p = 0")
    rng_info = param_range(family, n)
    if p > 0:
        lo, hi = rng_info.p_min / p, rng_info.p_max / p
    else:
        lo, hi = rng_info.p_max / p, rng_info.p_min / p
    return AlphaInterval(family=family, p=p, dim=n, alpha_min=lo, alpha_max=hi)


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

    checked entrywise on random pure states.
    """

    _check_conjugation_p(p)
    _check_trials(trials)

    def variant(family: Family, param: float) -> DiagonalChannel:
        return family_to_diagonal(FamilyChannel(family, param, 2))

    phi1 = variant(Family.DEP, p)
    cases = [
        ("sigma_y . Phi_2(-p) . sigma_y", pauli_matrix(2, "y", (1, 2)), variant(Family.TRD, -p)),
        ("sigma_z . Phi_3(p) . sigma_z", pauli_matrix(2, "z", (1, 2)), variant(Family.DCQ, p)),
        ("sigma_x . Phi_4(-p) . sigma_x", pauli_matrix(2, "x", (1, 2)), variant(Family.TCQ, -p)),
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_case = None
    for _ in range(trials):
        s = random_pure_state(2, rng)
        target = diagonal_apply(phi1, s)
        for name, sigma, channel in cases:
            conjugated = sigma @ diagonal_apply(channel, s) @ sigma
            dev = float(np.max(np.abs(conjugated - target)))
            if dev > worst:
                worst, worst_case = dev, name
    passed = worst <= tol.bound(1.0)
    return VerificationReport(
        passed=passed,
        max_deviation=worst,
        witness=None if passed else f"identity {worst_case} violated by {worst:.3e}",
        samples_used=trials,
    )
