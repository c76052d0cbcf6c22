import dataclasses
import itertools
import json

import numpy as np
import pytest

from qchan.channels import (
    Family,
    FamilyChannel,
    as_linear_map,
    cptp_range,
    family_apply,
    random_pure_state,
)
from qchan.equivalence import (
    GAP_THRESHOLD,
    InequivalenceCertificate,
    alpha_interval,
    bound_matching_system,
    inequivalence_certificate,
    qubit_equivalence_check,
    scale_family,
    spectrum_witness,
)
from qchan.exact import _RATIO_EQUATIONS, _ratio_key
from qchan.jsonio import dumps
from qchan.linalg import hermitian_eigenvalues
from qchan.verification import param_range

from test_linalg import random_unitary

SQRT17 = np.sqrt(17.0)

# Every bound-matching system: ordered pair of distinct families, sign case.
SYSTEMS = [
    (fam_a, fam_b, same_sign)
    for fam_a, fam_b in itertools.permutations(Family, 2)
    for same_sign in (True, False)
]
SYSTEM_IDS = [f"{a.value}-{b.value}-{'same' if s else 'opposite'}" for a, b, s in SYSTEMS]


class TestSpectrumWitness:
    def test_dcq_frozen_spectra(self):
        w = spectrum_witness(Family.DCQ, 0.2, 3)
        np.testing.assert_allclose(
            w.spectrum_a,
            [0.26666666666666666, 0.26666666666666666, 0.4666666666666667],
            atol=1e-12,
        )
        np.testing.assert_allclose(w.spectrum_b, [0.2, 0.4, 0.4], atol=1e-12)
        assert w.max_spectral_gap == pytest.approx(0.2 * 2 / 3, abs=1e-12)

    @pytest.mark.parametrize("family", [Family.DEP, Family.TRD])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_preserving_families(self, family, n):
        w = spectrum_witness(family, 0.15, n)
        assert w.max_spectral_gap < 1e-12

    @pytest.mark.parametrize("family", [Family.DCQ, Family.TCQ])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gap_formula(self, family, n):
        p = -0.04
        w = spectrum_witness(family, p, n)
        assert w.max_spectral_gap == pytest.approx(abs(p) * max(1 - 2 / n, 2 / n), abs=1e-12)

    @pytest.mark.parametrize("family", [Family.DCQ, Family.TCQ])
    def test_gap_closes_at_dim_two(self, family):
        # max(1 - 2/n, 2/n) degenerates but the two multiplier patterns
        # produce identical spectra at n = 2: no witness exists there.
        w = spectrum_witness(family, 0.05, 2)
        assert w.max_spectral_gap < 1e-12

    def test_inputs_are_isospectral_projectors(self):
        w = spectrum_witness(Family.DCQ, 0.1, 4)
        np.testing.assert_allclose(
            hermitian_eigenvalues(w.state_a), hermitian_eigenvalues(w.state_b), atol=1e-12
        )
        np.testing.assert_allclose(w.state_a @ w.state_a, w.state_a, atol=1e-14)

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError, match="CPTP range"):
            spectrum_witness(Family.DCQ, 0.5, 3)

    @pytest.mark.parametrize("n", [1, 0])
    def test_dimension_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            spectrum_witness(Family.DCQ, 0.1, n)

    def test_dressed_depolarizing_stays_isospectral(self):
        # Unitary dressing U1 Phi(U2 . U2^) U1^ cannot create a spectrum
        # gap for the spectrum-preserving families.
        rng = np.random.default_rng(0)
        n = 4
        ch = FamilyChannel(Family.DEP, 0.3, n)
        w = spectrum_witness(Family.DEP, 0.3, n)
        for _ in range(5):
            u1, u2 = random_unitary(n, rng), random_unitary(n, rng)
            outs = [
                u1 @ family_apply(ch, u2 @ s @ u2.conj().T) @ u1.conj().T
                for s in (w.state_a, w.state_b)
            ]
            np.testing.assert_allclose(
                hermitian_eigenvalues(outs[0]), hermitian_eigenvalues(outs[1]), atol=1e-12
            )


class TestScaleFamily:
    def test_returns_scaled_member(self):
        ch = FamilyChannel(Family.DEP, 0.5, 3)
        scaled = scale_family(ch, 0.4)
        assert scaled.p == pytest.approx(0.2)
        assert scaled.family is Family.DEP

    def test_affine_identity_holds(self):
        # Checked internally; also verify directly on one state.
        ch = FamilyChannel(Family.TCQ, 0.1, 3)
        scaled = scale_family(ch, -2.0)
        s = random_pure_state(3, 1)
        lhs = family_apply(scaled, s)
        rhs = -2.0 * family_apply(ch, s) + 3.0 / 3 * np.trace(s) * np.eye(3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            scale_family(FamilyChannel(Family.DEP, 0.5, 3), 3.0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_empty_runs_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            scale_family(FamilyChannel(Family.DEP, 0.5, 3), 0.4, trials=trials)


class TestAlphaInterval:
    def test_positive_p(self):
        interval = alpha_interval(Family.DEP, 0.5, 3)
        assert interval.alpha_min == pytest.approx(-0.25)
        assert interval.alpha_max == pytest.approx(2.0)

    def test_negative_p(self):
        interval = alpha_interval(Family.TCQ, -0.1, 3)
        assert interval.alpha_min == pytest.approx(-2.5)
        assert interval.alpha_max == pytest.approx(5.0)

    def test_upper_endpoint_maps_to_one(self):
        r = param_range(Family.DCQ, 4)
        interval = alpha_interval(Family.DCQ, r.p_max, 4)
        assert interval.alpha_max == pytest.approx(1.0)

    @pytest.mark.parametrize("family", list(Family))
    def test_endpoints_land_on_range(self, family):
        r = param_range(family, 5)
        for p in (0.03, -0.03):
            interval = alpha_interval(family, p, 5)
            assert interval.alpha_min * p == pytest.approx(
                r.p_min if p > 0 else r.p_max, abs=1e-15
            )
            assert interval.alpha_max * p == pytest.approx(
                r.p_max if p > 0 else r.p_min, abs=1e-15
            )

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError, match="p = 0"):
            alpha_interval(Family.DEP, 0.0, 3)

    @pytest.mark.parametrize("n", [1, 0, 2.5])
    def test_dimension_must_be_an_integer_from_two(self, n):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            alpha_interval(Family.DEP, 0.1, n)


class TestBoundMatching:
    def test_dep_trd_same_sign(self):
        report = bound_matching_system((Family.DEP, Family.TRD), 4, same_sign=True)
        assert report.roots == (-2.0, 0.0)
        assert not report.feasible

    def test_dep_trd_opposite_sign(self):
        report = bound_matching_system((Family.DEP, Family.TRD), 4, same_sign=False)
        assert report.roots == (0.0, 2.0)
        assert not report.feasible

    def test_dcq_tcq_same_sign(self):
        report = bound_matching_system((Family.DCQ, Family.TCQ), 5, same_sign=True)
        assert len(report.roots) == 3
        np.testing.assert_allclose(
            report.roots, [0.0, (5 - SQRT17) / 2, (5 + SQRT17) / 2], atol=1e-12
        )
        assert "sqrt(17)" in " ".join(report.roots_exact)

    def test_dcq_tcq_opposite_sign(self):
        report = bound_matching_system((Family.DCQ, Family.TCQ), 5, same_sign=False)
        assert report.roots == (0.0, 2.0)

    def test_dim_two_is_the_known_exception(self):
        report = bound_matching_system((Family.DEP, Family.TRD), 2, same_sign=False)
        assert report.feasible

    def test_same_family_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            bound_matching_system((Family.DEP, Family.DEP), 3, same_sign=True)

    @pytest.mark.parametrize("pair", [(Family.TRD, Family.TCQ), (Family.TCQ, Family.TRD)])
    def test_identity_equation_is_feasible(self, pair):
        # trd and tcq share their CPTP range, so the same-sign ratio
        # equation holds for every n and solve() finds no roots.
        report = bound_matching_system(pair, 4, same_sign=True)
        assert report.roots == ()
        assert report.feasible
        assert "holds for every n" in report.detail
        assert not bound_matching_system(pair, 4, same_sign=False).feasible

    @pytest.mark.parametrize("same_sign", [True, False])
    @pytest.mark.parametrize("pair", [
        (Family.DEP, Family.TRD),
        (Family.DCQ, Family.TCQ),
    ])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_no_integer_roots_from_three(self, pair, same_sign, n):
        report = bound_matching_system(pair, n, same_sign=same_sign)
        assert not report.feasible


class TestRatioEquationTable:
    def test_one_row_per_system(self):
        keys = {_ratio_key(*system) for system in SYSTEMS}
        assert keys <= set(_RATIO_EQUATIONS)  # every system resolves to a row
        assert keys >= set(_RATIO_EQUATIONS)  # every row serves some system

    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_row_matches_sympy_derivation(self, system):
        sympy = pytest.importorskip("sympy")
        fam_a, fam_b, same_sign = system
        m = sympy.Symbol("n")
        lo_a, hi_a = cptp_range(fam_a, m)
        lo_b, hi_b = cptp_range(fam_b, m)
        if same_sign:
            equation = sympy.Eq(lo_b / lo_a, hi_b / hi_a)
        else:
            equation = sympy.Eq(hi_b / lo_a, lo_b / hi_a)
        solutions = sorted(sympy.solve(equation, m), key=float)
        lhs, rhs, roots_exact, roots = _RATIO_EQUATIONS[_ratio_key(*system)]
        assert (lhs, rhs) == (sympy.sstr(equation.lhs), sympy.sstr(equation.rhs))
        assert roots_exact == tuple(sympy.sstr(r) for r in solutions)
        assert [r.hex() for r in roots] == [float(r).hex() for r in solutions]
        identity = sympy.cancel(equation.lhs - equation.rhs) == 0
        assert (not roots) == identity

    @pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
    def test_verdict_is_identity_or_root(self, system):
        fam_a, fam_b, same_sign = system
        lhs, rhs, roots_exact, roots = _RATIO_EQUATIONS[_ratio_key(*system)]
        for n in range(2, 65):
            report = bound_matching_system((fam_a, fam_b), n, same_sign=same_sign)
            assert report.feasible is (not roots or n in roots), n
            assert (report.roots, report.roots_exact) == (roots, roots_exact)
            assert report.detail.startswith(f"ratio equation {lhs} = {rhs}; ")

    @pytest.mark.parametrize("n", [1, 0, -2, 3.0, 4.561552812808831])
    def test_dimension_must_be_an_integer_from_two(self, n):
        with pytest.raises(ValueError, match="integer >= 2"):
            bound_matching_system((Family.DEP, Family.TRD), n, same_sign=True)


class TestQubitEquivalence:
    def test_conjugations_hold(self):
        report = qubit_equivalence_check(0.7, trials=100, seed=1)
        assert report.passed
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_various_parameters(self, p):
        assert qubit_equivalence_check(p, trials=20, seed=2).passed

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_empty_runs(self, trials):
        with pytest.raises(ValueError, match="trials"):
            qubit_equivalence_check(0.5, trials=trials)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 2.0])
    def test_parameter_domain(self, p):
        with pytest.raises(ValueError, match="0 < p < 1"):
            qubit_equivalence_check(p)


class TestCertificates:
    def test_mixed_pair_uses_spectrum_witness(self):
        cert = inequivalence_certificate((Family.DEP, Family.DCQ), 3, p=0.2)
        assert cert.method == "spectrum_witness"
        hybrid, base = cert.witnesses
        assert hybrid.family is Family.DCQ
        assert hybrid.max_spectral_gap > 1e-6
        assert base.family is Family.DEP
        assert base.max_spectral_gap < 1e-12

    @pytest.mark.parametrize("pair", [(Family.DEP, Family.DCQ), (Family.DEP, Family.TRD)])
    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_dimension_must_be_an_integer_from_two(self, pair, n):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            inequivalence_certificate(pair, n)

    def test_default_parameter_reproduces_example(self):
        cert = inequivalence_certificate((Family.DEP, Family.DCQ), 3)
        assert cert.witnesses[0].p == pytest.approx(0.2)

    @pytest.mark.parametrize("pair", [
        (Family.DEP, Family.DCQ),
        (Family.DEP, Family.TCQ),
        (Family.TRD, Family.DCQ),
        (Family.TRD, Family.TCQ),
        (Family.DCQ, Family.DEP),  # order must not matter
    ])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mixed_pairs_certify(self, pair, n):
        cert = inequivalence_certificate(pair, n)
        assert cert.method == "spectrum_witness"
        assert cert.witnesses[0].max_spectral_gap > 1e-6
        assert cert.passed

    @pytest.mark.parametrize("pair", [
        (Family.DEP, Family.TRD),
        (Family.DCQ, Family.TCQ),
    ])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_same_class_pairs_use_bound_matching(self, pair, n):
        cert = inequivalence_certificate(pair, n)
        assert cert.method == "bound_matching"
        assert len(cert.bound_reports) == 2
        assert {r.same_sign for r in cert.bound_reports} == {True, False}
        assert not any(r.feasible for r in cert.bound_reports)
        assert cert.passed

    def test_failed_evidence_does_not_pass(self):
        # A witness without a spectral gap, or a feasible bound-matching system.
        flat = spectrum_witness(Family.DEP, 0.2, 3)
        pair = (Family.DEP, Family.TRD)
        assert not InequivalenceCertificate(pair, 3, "spectrum_witness", witnesses=(flat,)).passed
        feasible = bound_matching_system(pair, 2, same_sign=False)
        assert not InequivalenceCertificate(pair, 2, "bound_matching", bound_reports=(feasible,)).passed

    def test_missing_evidence_does_not_pass(self):
        pair = (Family.DEP, Family.TRD)
        assert not InequivalenceCertificate(pair, 3, "spectrum_witness").passed
        assert not InequivalenceCertificate(pair, 3, "bound_matching").passed

    @pytest.mark.parametrize("same_sign", [True, False])
    def test_one_sided_bound_matching_does_not_pass(self, same_sign):
        pair = (Family.DEP, Family.TRD)
        report = bound_matching_system(pair, 3, same_sign=same_sign)
        assert not report.feasible
        one_sided = InequivalenceCertificate(pair, 3, "bound_matching", bound_reports=(report,) * 2)
        assert not one_sided.passed

    def test_unknown_method_does_not_pass(self):
        real = inequivalence_certificate((Family.DEP, Family.TRD), 3)
        assert real.passed
        assert not dataclasses.replace(real, method="bound-matching").passed
        witnessed = inequivalence_certificate((Family.DEP, Family.DCQ), 3)
        assert witnessed.witnesses[0].max_spectral_gap > GAP_THRESHOLD
        assert not dataclasses.replace(witnessed, method="").passed

    @pytest.mark.parametrize("pair", list(itertools.permutations(Family, 2)))
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_built_certificates_pass(self, pair, n):
        assert inequivalence_certificate(pair, n).passed

    def test_foreign_bound_reports_do_not_pass(self):
        real = inequivalence_certificate((Family.DEP, Family.TRD), 5)
        other_pair = inequivalence_certificate((Family.DCQ, Family.TCQ), 5)
        other_dim = inequivalence_certificate((Family.TRD, Family.DEP), 4)
        assert other_pair.passed and other_dim.passed
        assert not dataclasses.replace(real, bound_reports=other_pair.bound_reports).passed
        assert not dataclasses.replace(real, bound_reports=other_dim.bound_reports).passed
        # The reversed pair's reports at the same dimension are the certificate's own.
        reversed_pair = inequivalence_certificate((Family.TRD, Family.DEP), 5)
        assert dataclasses.replace(real, bound_reports=reversed_pair.bound_reports).passed

    def test_foreign_witnesses_do_not_pass(self):
        real = inequivalence_certificate((Family.DEP, Family.TRD), 3)
        other_pair = inequivalence_certificate((Family.DEP, Family.DCQ), 3)
        assert other_pair.passed
        foreign = dataclasses.replace(
            real, method="spectrum_witness", witnesses=other_pair.witnesses, bound_reports=()
        )
        assert not foreign.passed
        other_dim = inequivalence_certificate((Family.DEP, Family.DCQ), 4)
        assert not dataclasses.replace(other_pair, witnesses=other_dim.witnesses).passed

    def test_dim_two_has_no_certificate(self):
        with pytest.raises(ValueError, match="dimension 2"):
            inequivalence_certificate((Family.DEP, Family.DCQ), 2)

    def test_same_family_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            inequivalence_certificate((Family.TCQ, Family.TCQ), 3)

    def test_json_is_self_contained(self):
        cert = inequivalence_certificate((Family.TRD, Family.TCQ), 3)
        encoded = json.loads(dumps(cert))
        assert encoded["method"] == "spectrum_witness"
        witness = encoded["witnesses"][0]
        assert witness["state_a"]["rows"] == 3
        assert len(witness["spectrum_a"]) == 3
        assert witness["max_spectral_gap"] > 1e-6


class TestOneSidedTranspose:
    """A transpose on one side alone is not part of the notion of equivalence.

    It would join trd to dep and tcq to dcq at every n: each transposing
    family is the plain one after a transpose, bit for bit.
    """

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize(
        "transposing, plain", [(Family.TRD, Family.DEP), (Family.TCQ, Family.DCQ)], ids=["trd", "tcq"]
    )
    def test_transposing_family_is_the_plain_one_after_a_transpose(self, transposing, plain, n):
        rng = np.random.default_rng(n)
        s = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        lo, hi = (float(v) for v in cptp_range(transposing, n))
        for p in (lo, (lo + hi) / 2, hi, 0.0, 0.7):
            direct = family_apply(FamilyChannel(transposing, p, n), s)
            composed = family_apply(FamilyChannel(plain, p, n), np.swapaxes(s, -1, -2))
            assert np.array_equal(direct.view(np.int64), composed.view(np.int64)), p
