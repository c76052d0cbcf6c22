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

The bound-matching systems, the certificates and the records need no linear algebra;
they live in :mod:`qchan.exact` and are re-exported here.  Nothing here imports
:mod:`qchan.verification`.
"""

from __future__ import annotations

import numpy as np

from .basis import pauli_matrix
from .channels import (
    FamilyChannel,
    _haar_vectors,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
)
# GAP_THRESHOLD, the records and the certificate functions moved to qchan.exact;
# they are imported here so that their qchan.equivalence paths still resolve.
from .exact import (
    _HYBRID,
    GAP_THRESHOLD,
    BoundMatchingReport,
    Family,
    InequivalenceCertificate,
    SpectrumWitness,
    Tolerance,
    VerificationReport,
    _check_conjugation_p,
    _check_trials,
    bound_matching_system,
    inequivalence_certificate,
    param_range,
)
from .linalg import hermitian_eigenvalues

__all__ = [
    "SpectrumWitness",
    "BoundMatchingReport",
    "InequivalenceCertificate",
    "spectrum_witness",
    "bound_matching_system",
    "qubit_equivalence_check",
    "inequivalence_certificate",
]


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
    state_a = np.zeros((n, n), dtype=complex)
    state_a[0, 0] = 1
    state_b = np.ones((n, n), dtype=complex) / n
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
    (``random_pure_state``'s bits); ``witness`` names the first worst case.
    """

    _check_conjugation_p(p)
    _check_trials(trials)
    members = zip(Family, (p, -p, p, -p))  # Phi_1..Phi_4 and their parameters
    phi1, phi2, phi3, phi4 = (family_to_diagonal(FamilyChannel(f, q, 2)) for f, q in members)
    cases = [
        ("sigma_y . Phi_2(-p) . sigma_y", pauli_matrix(2, "y", (1, 2)), phi2),
        ("sigma_z . Phi_3(p) . sigma_z", pauli_matrix(2, "z", (1, 2)), phi3),
        ("sigma_x . Phi_4(-p) . sigma_x", pauli_matrix(2, "x", (1, 2)), phi4),
    ]
    worst = 0.0
    worst_case = None
    for v in _haar_vectors(2, trials, seed):
        s = v[:, :, None] * v.conj()[:, None, :]  # the projectors, as the sample test builds them
        target = diagonal_apply(phi1, s)
        conjugated = np.stack([sigma @ diagonal_apply(ch, s) @ sigma for _, sigma, ch in cases], axis=1)
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
