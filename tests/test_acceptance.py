"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see them).
The criteria pin down: exact CPTP parameter ranges with Choi-eigenvalue
behaviour at and beyond the endpoints, the constant output-norm law and
its sharpness under single-multiplier perturbations, both conjugation-sum
representations, Kraus completeness, the closed conjugation-sum
identities (including the transpose regression), the determinant closed
form, the dimension-2 equivalences and qubit classification, the
spectrum-witness and bound-matching certificates, and the qubit norm
formula.
"""

from functools import lru_cache

import numpy as np

from qchan.channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    QubitLambda,
    as_linear_map,
    family_apply,
    family_to_diagonal,
    kraus_completeness,
    kraus_from_family,
    random_pure_state,
)
from qchan.equivalence import (
    bound_matching_system,
    qubit_equivalence_check,
    spectrum_witness,
)
from qchan.linalg import Tolerance, frobenius_norm
from qchan.verification import (
    classify_qubit,
    constant_fnorm_criterion,
    constant_fnorm_sample_test,
    expected_constant_norm,
    is_cptp,
    param_range,
    verify_det_recurrence,
    verify_representations,
    verify_sum_identities,
    witness_states,
)

from dense_oracles import per_state_sample_test
from test_channels import PAULIS, kraus_action, qubit_norm_formula

FAMILIES = list(Family)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _haar_states(n: int) -> tuple:
    rng = np.random.default_rng(2000 + n)
    return tuple(random_pure_state(n, rng) for _ in range(1000))


def _interior_params(family: Family, n: int, count: int = 5) -> np.ndarray:
    r = param_range(family, n)
    return np.linspace(r.p_min, r.p_max, count + 2)[1:-1]


def test_criterion_01_parameter_ranges_and_choi_endpoints():
    ok = True
    worst = 0.0
    for family in FAMILIES:
        for n in (2, 3, 4, 5):
            r = param_range(family, n)
            exact = {
                Family.DEP: (-1 / (n * n - 1), 1.0),
                Family.TRD: (-1 / (n - 1), 1 / (n + 1)),
                Family.TCQ: (-1 / (n - 1), 1 / (n + 1)),
                Family.DCQ: (-1 / (2 * n - 1), 1 / (n - 1) ** 2),
            }[family]
            ok = ok and (r.p_min, r.p_max) == exact
            for p in (r.p_min, r.p_max):
                rep = is_cptp(as_linear_map(FamilyChannel(family, p, n)), n)
                worst = max(worst, abs(rep.min_choi_eigenvalue))
                ok = ok and -1e-9 <= rep.min_choi_eigenvalue <= 1e-9 and rep.passed
            for p in (r.p_min - 0.01, r.p_max + 0.01):
                rep = is_cptp(as_linear_map(FamilyChannel(family, p, n)), n)
                ok = ok and rep.min_choi_eigenvalue < -1e-6 and not rep.passed
    _report(
        1,
        "CPTP ranges exact; Choi eigenvalue zero at endpoints, negative beyond",
        ok,
        f"max |endpoint eigenvalue| {worst:.2e}",
    )


def test_criterion_02_constant_norm_on_pure_states():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        states = list(witness_states(n)) + list(_haar_states(n))
        for family in FAMILIES:
            for p in _interior_params(family, n):
                ch = FamilyChannel(family, float(p), n)
                expected = expected_constant_norm(n, abs(float(p)))
                for s in states:
                    dev = abs(frobenius_norm(family_apply(ch, s)) - expected)
                    if dev > worst:
                        worst = dev
    _report(
        2,
        "output norm sqrt(1/n + p^2 (1 - 1/n)) on witnesses + 1000 Haar states",
        worst <= 1e-10,
        f"max |norm - formula| {worst:.2e} <= 1e-10",
    )


def test_criterion_03_single_multiplier_perturbation_detected():
    ok = True
    smallest_spread = np.inf
    for family in FAMILIES:
        for n in (2, 3, 4, 5):
            p = param_range(family, n).p_max / 2
            base = family_to_diagonal(FamilyChannel(family, p, n))
            clean = constant_fnorm_sample_test(as_linear_map(base), n, samples=0, seed=0)
            ok = ok and clean.passed
            for i in range(n * n - 1):
                t = np.array(base.t)
                t[i] += 1e-3 if t[i] >= 0 else -1e-3  # grow the modulus
                perturbed = DiagonalChannel(dim=n, t=t)
                holds, _ = constant_fnorm_criterion(perturbed)
                rep = constant_fnorm_sample_test(as_linear_map(perturbed), n, samples=0, seed=0)
                smallest_spread = min(smallest_spread, rep.max_deviation)
                ok = ok and not holds and not rep.passed and rep.max_deviation >= 1e-5
    _report(
        3,
        "1e-3 single-multiplier perturbations break the criterion and the norms",
        ok,
        f"smallest observed norm spread {smallest_spread:.2e} >= 1e-5",
    )


def test_criterion_04_conjugation_sum_representations():
    worst = 0.0
    ok = True
    for family in FAMILIES:
        for n in (2, 3, 4, 5, 6):
            r = param_range(family, n)
            for p in (r.p_min, (r.p_min + r.p_max) / 2, r.p_max):
                rep = verify_representations(family, float(p), n, trials=100, seed=11)
                worst = max(worst, rep.max_deviation)
                ok = ok and rep.passed
    _report(
        4,
        "both conjugation-sum forms reproduce the closed action (100 inputs each)",
        ok and worst <= 1e-12,
        f"max entrywise deviation {worst:.2e} <= 1e-12",
    )


def test_criterion_05_kraus_sets():
    worst_complete = 0.0
    worst_action = 0.0
    for family in FAMILIES:
        for n in (2, 3, 4, 5, 6):
            r = param_range(family, n)
            rng = np.random.default_rng(50 + n)
            for p in np.linspace(r.p_min, r.p_max, 5):
                ks = kraus_from_family(family, float(p), n)
                worst_complete = max(
                    worst_complete,
                    float(np.max(np.abs(kraus_completeness(ks) - np.eye(n)))),
                )
                ch = FamilyChannel(family, float(p), n)
                for _ in range(20):
                    s = random_pure_state(n, rng)
                    worst_action = max(
                        worst_action,
                        float(np.max(np.abs(kraus_action(ks, s) - family_apply(ch, s)))),
                    )
    ok = worst_complete <= 1e-12 and worst_action <= 1e-12
    _report(
        5,
        "Kraus sets are complete and reproduce the channels on the CPTP range",
        ok,
        f"completeness dev {worst_complete:.2e}, action dev {worst_action:.2e} <= 1e-12",
    )


def test_criterion_06_conjugation_sum_identities():
    ok = True
    worst = 0.0
    for n in range(2, 9):
        rep = verify_sum_identities(n, trials=50, seed=6)
        worst = max(worst, rep.max_deviation)
        sym_dev = float(rep.witness.rsplit(" ", 1)[1])
        ok = ok and rep.passed and sym_dev <= 1e-12
    # Regression: the transpose in the x identity is load-bearing.  The
    # conjugation sum maps E_12 to E_21 at n = 2; the transpose-free
    # variant predicts E_12 instead.
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    direct = sx @ e12 @ sx
    with_transpose = e12.T + np.trace(e12) * np.eye(2) - 2 * np.diag(np.diag(e12))
    without_transpose = e12 + np.trace(e12) * np.eye(2) - 2 * np.diag(np.diag(e12))
    ok = ok and np.max(np.abs(direct - with_transpose)) <= 1e-15
    ok = ok and np.max(np.abs(direct - without_transpose)) >= 0.5
    _report(
        6,
        "closed conjugation-sum identities for n in 2..8, transpose regression",
        ok,
        f"max generic-input deviation {worst:.2e} <= 1e-12",
    )


def test_criterion_07_determinant_closed_form():
    ok = True
    worst = 0.0
    tol = Tolerance(absolute=1e-12, relative=1e-10)
    for n in (2, 3, 4, 5, 6):
        rep = verify_det_recurrence(n, grid=21, tol=tol)
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed
    _report(
        7,
        "determinant closed form matches LAPACK on 21-point grids",
        ok,
        f"max |formula - det| {worst:.2e} within rel 1e-10 (+1e-12 floor at zeros)",
    )


# Variant of a diagonal qubit map with lam_z >= 0, keyed by the signs of (lam_x, lam_y).
_QUBIT_VARIANTS = {(1, 1): 1, (1, -1): 2, (-1, -1): 3, (-1, 1): 4}


def _stratified_qubit_lambdas(count: int = 200) -> list:
    """(map, tag, variant, p) with the verdict each map is built to get, cycling the three tags."""

    rng = np.random.default_rng(88)
    instances = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            t = tuple(rng.uniform(0, 0.9) * direction)
            instances.append((QubitLambda(t=t, lam=(0.0, 0.0, 0.0)), "completely_depolarizing", None, None))
        elif kind == 1:
            p = rng.uniform(0.05, 0.95)
            signs = rng.choice([-1.0, 1.0], size=3)
            # A sigma_y conjugation flips lam_x and lam_z together.
            variant = _QUBIT_VARIANTS[(int(signs[0] * signs[2]), int(signs[1]))]
            instances.append((QubitLambda(t=(0.0, 0.0, 0.0), lam=tuple(signs * p)), "diagonal", variant, p))
        else:
            while True:
                lam = rng.uniform(-1, 1, 3)
                if np.abs(lam).max() - np.abs(lam).min() >= 0.05:
                    break
            t = tuple(rng.uniform(-0.3, 0.3, 3))
            instances.append((QubitLambda(t=t, lam=tuple(lam)), "not_constant_norm", None, None))
    return instances


def test_criterion_08_qubit_equivalences_and_classification():
    rng = np.random.default_rng(8)
    ok = True
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.01, 0.99)
        rep = qubit_equivalence_check(p, trials=50, seed=3)
        worst = max(worst, rep.max_deviation)
        ok = ok and rep.passed and rep.max_deviation <= 1e-12
    mismatches = 0
    for l, tag, variant, p in _stratified_qubit_lambdas(200):
        verdict = classify_qubit(l)
        sample = per_state_sample_test(l, 2, samples=50, seed=4)
        if (verdict.tag != "not_constant_norm") != sample.passed:
            mismatches += 1
        if (verdict.tag, verdict.variant) != (tag, variant):
            mismatches += 1
        if (verdict.p is None) != (p is None) or (p is not None and abs(verdict.p - p) > 1e-15):
            mismatches += 1
    ok = ok and mismatches == 0
    _report(
        8,
        "dimension-2 conjugation identities and classification trichotomy",
        ok,
        f"max conjugation deviation {worst:.2e} <= 1e-12, {mismatches} classification mismatches",
    )


def test_criterion_09_witnesses_and_bound_matching():
    ok = True
    smallest_gap = np.inf
    for family in (Family.DCQ, Family.TCQ):
        for n in (3, 4, 5, 6):
            r = param_range(family, n)
            candidates = [p for p in (0.05, -0.05) if r.contains(p)]
            assert candidates, "no admissible witness parameter"
            for p in candidates:
                gap = spectrum_witness(family, p, n).max_spectral_gap
                smallest_gap = min(smallest_gap, gap)
                ok = ok and gap > 1e-6
        gap_two = spectrum_witness(family, 0.05, 2).max_spectral_gap
        ok = ok and gap_two <= 1e-12
    roots = bound_matching_system((Family.DEP, Family.TRD), 4, same_sign=True).roots
    ok = ok and roots == (-2.0, 0.0)
    roots = bound_matching_system((Family.DEP, Family.TRD), 4, same_sign=False).roots
    ok = ok and roots == (0.0, 2.0)
    roots = bound_matching_system((Family.DCQ, Family.TCQ), 4, same_sign=True).roots
    expected = (0.0, (5 - np.sqrt(17)) / 2, (5 + np.sqrt(17)) / 2)
    ok = ok and len(roots) == 3 and all(abs(a - b) <= 1e-12 for a, b in zip(roots, expected))
    roots = bound_matching_system((Family.DCQ, Family.TCQ), 4, same_sign=False).roots
    ok = ok and roots == (0.0, 2.0)
    _report(
        9,
        "spectrum witnesses separate mixed pairs (n >= 3); bound-matching root sets exact",
        ok,
        f"smallest witness gap {smallest_gap:.2e} > 1e-6, gap at n=2 <= 1e-12",
    )


def test_criterion_10_qubit_norm_formula():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        l = QubitLambda(t=tuple(rng.uniform(-1, 1, 3)), lam=tuple(rng.uniform(-1, 1, 3)))
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        state = np.eye(2, dtype=complex) / 2
        for a_comp, sigma in zip(a, PAULIS):
            state += a_comp * sigma / 2
        direct = frobenius_norm(l(state)) ** 2
        worst = max(worst, abs(qubit_norm_formula(l, a) - direct))
    _report(
        10,
        "squared-norm formula matches direct computation on 1000 random triples",
        worst <= 1e-12,
        f"max |formula - direct| {worst:.2e} <= 1e-12",
    )
