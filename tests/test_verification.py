import json
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import basis as basis_module
from qchan import channels, exact, representations, verification
from qchan.basis import build_basis, pauli_matrix
from qchan.channels import DiagonalChannel, FamilyChannel, as_linear_map, family_to_diagonal
from qchan.equivalence import qubit_equivalence_check, spectrum_witness
from qchan.exact import Family, Tolerance, cptp_range, param_range, repr_coefficients
from qchan.jsonio import SchemaError, dumps
from qchan.linalg import frobenius_norm
from qchan.representations import (
    QubitLambda,
    classify_qubit,
    dcq_det_formula,
    verify_det_recurrence,
    verify_representations,
    verify_sum_identities,
)
from qchan.verification import (
    constant_fnorm_criterion,
    constant_fnorm_sample_test,
    is_cptp,
)

from dense_oracles import (
    dense_is_cptp,
    m_z,
    per_pair_sums,
    per_state_sample_test,
    random_pure_state,
    state_labels,
    witness_norms,
    witness_states,
)

FAMILIES = list(Family)


def smallest_weight(family, p, n):
    c = repr_coefficients(family, p, n)
    return min(c.e0, c.ex, c.ey, c.ez)


class TestCptpRangeFromChoiEigenvalues:
    """The e-weights are the Choi eigenvalues, so cptp_range is where the smallest crosses 0."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_endpoints_are_the_zeros(self, family):
        step = Fraction(1, 10**9)
        for n in range(2, 65):
            lo, hi = (Fraction(v) for v in cptp_range(family, Fraction(n)))
            assert smallest_weight(family, lo, n) == 0, n
            assert smallest_weight(family, hi, n) == 0, n
            assert smallest_weight(family, (lo + hi) / 2, n) > 0, n
            assert smallest_weight(family, lo - step, n) < 0, n
            assert smallest_weight(family, hi + step, n) < 0, n

    @given(
        st.sampled_from(FAMILIES),
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_verdict_minimum(self, family, n, p):
        report = is_cptp(FamilyChannel(family, p, n), n)
        assert report.min_choi_eigenvalue == pytest.approx(
            smallest_weight(family, p, n), rel=0, abs=1e-12
        )


class TestParamRange:
    def test_exact_endpoints(self):
        r = param_range(Family.DEP, 2)
        assert (r.p_min, r.p_max) == (-1 / 3, 1.0)
        r = param_range(Family.DCQ, 4)
        assert (r.p_min, r.p_max) == (-1 / 7, 1 / 9)
        r = param_range(Family.TCQ, 3)
        assert (r.p_min, r.p_max) == (-1 / 2, 1 / 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trd_equals_tcq(self, n):
        a, b = param_range(Family.TRD, n), param_range(Family.TCQ, n)
        assert (a.p_min, a.p_max) == (b.p_min, b.p_max)

    def test_contains(self):
        r = param_range(Family.DEP, 3)
        assert r.contains(0.0) and r.contains(1.0) and r.contains(-1 / 8)
        assert not r.contains(1.001)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_slack_is_one_tolerance_bound(self, family):
        # Each endpoint admits DEFAULT_TOL's bound at the larger endpoint modulus past it, and no more:
        # half that slack is inside, one and a half times it outside, and spectrum_witness refuses it.
        r = param_range(family, 5)
        slack = exact.DEFAULT_TOL.bound(max(abs(r.p_min), abs(r.p_max)))
        assert r.contains(r.p_max + 0.5 * slack) and r.contains(r.p_min - 0.5 * slack)
        assert not r.contains(r.p_max + 1.5 * slack)
        assert not r.contains(r.p_min - 1.5 * slack)
        with pytest.raises(ValueError, match="outside the CPTP range"):
            spectrum_witness(family, r.p_max + 1.5 * slack, 5)

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, 3.0])
    def test_dimension_must_be_an_integer_from_two(self, n):
        with pytest.raises(SchemaError, match=f"^field 'dim': expected an integer >= 2, got {n!r}$"):
            param_range(Family.DEP, n)


class TestIsCptp:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_endpoints_and_interior(self, family, n):
        r = param_range(family, n)
        for p in (r.p_min, 0.0, r.p_max):
            report = is_cptp(as_linear_map(FamilyChannel(family, p, n)), n)
            assert report.passed, (family, p, report.witness)
            assert report.trace_violation < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_violation_beyond_range(self, family):
        r = param_range(family, 3)
        report = is_cptp(as_linear_map(FamilyChannel(family, r.p_max + 0.01, 3)), 3)
        assert not report.passed
        assert report.min_choi_eigenvalue < -1e-6
        assert "eigenvalue" in report.witness

    def test_known_negative_eigenvalue(self):
        # Frozen: min Choi eigenvalue (1 - (n-1)^2 p)/n at n=3, p=0.3.
        report = is_cptp(as_linear_map(FamilyChannel(Family.DCQ, 0.3, 3)), 3)
        assert report.min_choi_eigenvalue == pytest.approx(-0.2 / 3, abs=1e-12)

    def test_witness_names_the_pair_block(self):
        # tcq above p_max = 1/(n+1) fails first in the 2x2 blocks.
        report = is_cptp(FamilyChannel(Family.TCQ, 0.3, 3), 3)
        assert report.witness == "negative Choi eigenvalue -6.666667e-02 in pair block (1,2)"

    def test_witness_names_the_classical_block(self):
        report = is_cptp(FamilyChannel(Family.DCQ, 0.3, 3), 3)
        assert report.witness.endswith("in classical block")

    def test_witness_of_a_diagonal_channel_names_its_block(self):
        t = np.zeros(8)
        t[2], t[5] = 0.6, -0.6  # pair (2,3): a = 0, b = 0.6 > D_23 = 1/3
        report = is_cptp(DiagonalChannel(3, t), 3)
        assert not report.passed
        assert report.witness.endswith("in pair block (2,3)")
        assert report.min_choi_eigenvalue == pytest.approx(1 / 3 - 0.6, abs=1e-15)

    @pytest.mark.parametrize("p", [8e307, -1e308, np.finfo(float).max])
    def test_choi_norm_past_the_float_range_raises(self, p):
        # Such a p is far past the magnitude bound: refused before any Choi data exists.
        message = f"field 'p': expected a number of magnitude at most 1e+100, got {float(p)!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            is_cptp(FamilyChannel(Family.DEP, p, 3), 3)

    def test_channel_dimension_must_match(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_cptp(FamilyChannel(Family.DEP, 0.1, 3), 4)

    def test_loose_tolerance_passes_the_member_at_the_magnitude_bound(self):
        # verify cptp --family dep --dim 2 --p 1e100 --tol 0.4: the Choi norm
        # scales the CP bound past the negative eigenvalue, so the member
        # passes; trace preservation holds by construction and is not
        # measured.  The loose-tolerance rule is ROADMAP item 5.
        report = is_cptp(FamilyChannel(Family.DEP, 1e100, 2), 2, tol=Tolerance(0.4, 0.4))
        assert report.passed
        assert report.min_choi_eigenvalue == -5e99
        assert report.trace_violation == 0.0
        assert report.witness is None

    def test_loose_tolerance_passes_a_member_far_outside_the_range(self):
        # verify cptp --family dep --dim 2 --p 10 --tol 0.3: -4.5 is within 0.3 + 0.3 sqrt(1 + 300).
        report = is_cptp(FamilyChannel(Family.DEP, 10.0, 2), 2, tol=Tolerance(0.3, 0.3))
        assert report.passed
        assert report.min_choi_eigenvalue == -4.5
        assert report.trace_violation == 0.0

    def test_trace_violation_detected(self):
        # A channel object is trace preserving by construction; the dense oracle sees any map.
        report = dense_is_cptp(lambda s: 0.5 * s, 2)
        assert not report.passed
        assert report.trace_violation == pytest.approx(0.5, abs=1e-12)
        assert "partial trace" in report.witness

    def test_dense_oracle_traces_out_the_output_factor(self):
        # S -> Tr(S) rho is trace preserving but not unital: its Choi matrix
        # I ⊗ rho has Tr_2 = I and Tr_1 = n rho, so only Tr_2 passes it.
        rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
        report = dense_is_cptp(lambda s: np.trace(s) * rho, 3)
        assert report.passed
        assert report.trace_violation == 0.0

    def test_non_hermitian_choi_fails_the_dense_check(self):
        # i S maps Hermitian inputs to anti-Hermitian outputs: its Choi matrix is i C.
        report = dense_is_cptp(lambda s: 1j * s, 2)
        assert not report.passed
        assert report.witness == "Choi matrix is not Hermitian (deviation 2.000e+00)"
        assert report.min_choi_eigenvalue is None

    def test_diagonal_channel_accepted(self):
        ch = family_to_diagonal(FamilyChannel(Family.TRD, 0.2, 3))
        assert is_cptp(as_linear_map(ch), 3).passed

    def test_report_json_layout(self):
        report = is_cptp(as_linear_map(FamilyChannel(Family.DEP, 0.5, 2)), 2)
        encoded = json.loads(dumps(report))
        assert list(encoded) == [
            "passed",
            "min_choi_eigenvalue",
            "trace_violation",
            "max_deviation",
            "mean_deviation",
            "witness",
            "samples_used",
        ]


class TestChannelObjectsOnly:
    @pytest.mark.parametrize(
        "verdict",
        [
            lambda m: is_cptp(m, 2),
            lambda m: constant_fnorm_criterion(m),
            lambda m: constant_fnorm_sample_test(m, 2, samples=3),
        ],
        ids=["is_cptp", "criterion", "sample_test"],
    )
    @pytest.mark.parametrize(
        "apply_fn, name",
        [(lambda s: s, "function"), (QubitLambda(t=(0, 0, 0), lam=(0.2, 0.2, 0.2)), "QubitLambda")],
        ids=["lambda", "qubit_lambda"],
    )
    def test_other_maps_raise_type_error(self, verdict, apply_fn, name):
        with pytest.raises(TypeError, match=f"^expected FamilyChannel or DiagonalChannel, got {name}$"):
            verdict(apply_fn)


class TestConstantNormCriterion:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_satisfy_it(self, family):
        holds, norm = constant_fnorm_criterion(FamilyChannel(family, 0.25, 3))
        assert holds
        assert norm == pytest.approx(np.sqrt(3 / 8), abs=1e-15)

    def test_expected_norm_endpoints(self):
        expected_norm = lambda n, t: constant_fnorm_criterion(DiagonalChannel(n, np.full(n * n - 1, t)))[1]
        assert expected_norm(4, 1.0) == pytest.approx(1.0)
        assert expected_norm(4, 0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("t", [1e100, -1e100, 0.37])
    def test_expected_norm_keeps_its_bits_where_the_square_is_finite(self, t):
        norm = constant_fnorm_criterion(DiagonalChannel(3, np.full(3 * 3 - 1, t)))[1]
        assert norm == np.sqrt(1 / 3 + t * t * (1 - 1 / 3))

    def test_unequal_moduli_rejected(self):
        t = np.full(8, 0.3)
        t[5] = 0.2
        holds, norm = constant_fnorm_criterion(DiagonalChannel(dim=3, t=t))
        assert not holds and norm is None

    def test_mixed_signs_pass(self):
        # Only the moduli matter.
        t = np.array([0.3, -0.3, 0.3, -0.3, 0.3, -0.3, 0.3, -0.3])
        holds, _ = constant_fnorm_criterion(DiagonalChannel(dim=3, t=t))
        assert holds


class TestWitnessStates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_count_and_purity(self, n):
        states = witness_states(n)
        assert len(states) == n * n
        assert len(state_labels(n)) == n * n
        for s in states:
            assert np.trace(s) == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(s @ s, s, atol=1e-14)

    def test_specific_states(self):
        states = witness_states(2)
        labels = state_labels(2)
        assert labels == ["psi_0", "psi_1", "xi_(1,2)", "eta_(1,2)"]
        np.testing.assert_array_equal(states[0], np.diag([1, 0]).astype(complex))
        np.testing.assert_allclose(states[2], np.full((2, 2), 0.5), atol=1e-15)
        # eta carries the i on the first component.
        v = np.array([1j, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(states[3], np.outer(v, v.conj()), atol=1e-15)


class TestSampleTest:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_pass(self, family):
        ch = FamilyChannel(family, 0.1, 3)
        report = constant_fnorm_sample_test(as_linear_map(ch), 3, samples=100, seed=0)
        assert report.passed
        assert report.samples_used == 109
        assert report.max_deviation < 1e-12

    def test_single_index_perturbation_detected(self):
        base = family_to_diagonal(FamilyChannel(Family.DEP, 0.5, 3))
        t = np.array(base.t)
        t[4] += 1e-3
        report = constant_fnorm_sample_test(
            as_linear_map(DiagonalChannel(dim=3, t=t)), 3, samples=50, seed=1
        )
        assert not report.passed
        assert report.max_deviation > 1e-5
        assert "norm spread" in report.witness

    @pytest.mark.parametrize(
        "seed, witness",
        [
            (0, "norm spread 3.343638e-02: max 0.615278512969 at eta_(1,2), min 0.581842132872 at psi_0"),
            (5, "norm spread 3.901665e-02: max 0.618837013406 at psi_2, min 0.579820368182 at haar_173"),
        ],
    )
    def test_witness_names_a_witness_state_or_haar_extreme(self, seed, witness):
        t = np.random.default_rng(seed).uniform(-0.3, 0.3, 8)
        report = constant_fnorm_sample_test(DiagonalChannel(3, t), 3, samples=200, seed=seed)
        assert report.witness == witness

    @pytest.mark.parametrize("n, samples", [(2, 0), (2, 3), (3, 4), (5, 2)])
    def test_each_extreme_gets_its_label_from_the_state_list(self, n, samples):
        labels = state_labels(n, samples)
        for top in range(len(labels)):
            bottom = (top + 1) % len(labels)
            norms = np.full(len(labels), 0.5)
            norms[top], norms[bottom] = 0.75, 0.25
            report = verification._norm_spread_report(norms, n, Tolerance())
            assert report.witness.endswith(f"at {labels[top]}, min 0.250000000000 at {labels[bottom]}")

    def test_spread_is_held_to_one_tolerance_bound(self):
        # One modulus 1e-6 off: the verdict passes at a bound 4/3 of the spread and fails at 2/3 of it.
        t = np.full(8, 0.3)
        t[3] += 1e-6
        ch = DiagonalChannel(3, t)
        spread = constant_fnorm_sample_test(ch, 3, samples=20).max_deviation
        assert spread > 0
        assert constant_fnorm_sample_test(ch, 3, samples=20, tol=Tolerance(spread / 0.75, 0)).passed
        assert not constant_fnorm_sample_test(ch, 3, samples=20, tol=Tolerance(spread / 1.5, 0)).passed

    def test_a_state_past_the_cancellation_cut_is_summed_from_its_projector(self, monkeypatch):
        # On t = (45, 0, 0) the signed sum of the Haar state v = (1, i)/sqrt(2) cancels to its squared
        # output norm 0.5, of absolute terms summing to 2025.5 = 0.5 (1 + 2 * 45^2): it keeps between
        # 2^-12 and 2^-10 of them, past the 2^-10 cut, so the sample test sums it from its projector.
        v = np.array([[1.0, 1j]]) / np.sqrt(2)
        monkeypatch.setattr(verification, "_haar_vectors", lambda n, samples, seed: iter([v]))
        shapes = []
        apply = channels.diagonal_apply
        monkeypatch.setattr(channels, "diagonal_apply", lambda ch, s: shapes.append(np.shape(s)) or apply(ch, s))
        report = constant_fnorm_sample_test(DiagonalChannel(2, [45.0, 0.0, 0.0]), 2, samples=1)
        assert shapes == [(2, 2)]
        assert report.samples_used == 5

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, samples=-5)

    def test_channel_dimension_must_match(self):
        with pytest.raises(ValueError, match="^dimension mismatch: channel dim 3, n=4$"):
            constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 4)

    def test_zero_samples_still_checks_witnesses(self):
        report = constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, samples=0)
        assert report.passed
        assert report.samples_used == 9

    def test_cancelled_pair_sums_are_summed_from_the_rows(self):
        # With t_z far past 1 the Choi block rows D_k and D_l nearly cancel, so a
        # pair state's norm summed from them loses its bits; the witness norms,
        # sums of nonnegative terms, must still be those of the outputs.
        rng = np.random.default_rng(7)
        cases = [DiagonalChannel(2, [0.0, 0.0, 3000618250.613841])]
        for _ in range(300):
            n = int(rng.integers(2, 7))
            t = np.zeros(n * n - 1)
            t[n * (n - 1) :] = rng.uniform(-1, 1, n - 1) * 10 ** rng.uniform(0, 12)
            cases.append(DiagonalChannel(n, t))
        for ch in cases:
            norms = witness_norms(ch)
            oracle = [frobenius_norm(ch(state)) for state in witness_states(ch.dim)]
            scale = max(1.0, float(np.max(np.abs(ch.t))))
            np.testing.assert_allclose(norms, oracle, rtol=0, atol=64 * np.finfo(float).eps * scale)
        report = constant_fnorm_sample_test(cases[0], 2, samples=3)
        assert report.witness.endswith("min 0.707106781187 at xi_(1,2)")

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_verdicts_at_the_bound_are_finite(self, n):
        # |p| and every |t_i| at exact._MAX_MAGNITUDE: no square or sum leaves the float range.
        signs = np.random.default_rng(n).choice([-1.0, 1.0], n * n - 1)
        cases = [FamilyChannel(f, p, n) for f in FAMILIES for p in (1e100, -1e100)]
        cases += [DiagonalChannel(n, 1e100 * signs), DiagonalChannel(n, 1e100 * signs / 10.0 ** np.arange(n * n - 1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ch in cases:
                reports = [is_cptp(ch, n), constant_fnorm_sample_test(ch, n, samples=20, seed=n)]
                if isinstance(ch, FamilyChannel):
                    reports.append(verify_representations(ch.family, ch.p, n, trials=2))
                holds, norm = constant_fnorm_criterion(ch)
                values = [norm] if holds else []
                values += [v for r in reports for v in r if isinstance(v, float)]
                assert np.isfinite(values).all(), ch

    def test_deterministic(self):
        ch = as_linear_map(FamilyChannel(Family.DCQ, 0.1, 3))
        a = constant_fnorm_sample_test(ch, 3, samples=64, seed=9)
        b = constant_fnorm_sample_test(ch, 3, samples=64, seed=9)
        assert a == b

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("samples", [0, 1, 5])
    def test_mean_deviation_at_p_zero(self, n, samples):
        # At p = 0 every state maps to I/n, so every norm is sqrt(1/n), though the rounded mean of the n^2
        # witness norms can lie an ulp off them (dep at n = 5 read a mean deviation of 5.55e-17 at spread 0).
        # A Haar state's squared moduli sum to 1 only to rounding, but its identity term is the exact 1/n
        # of a unit trace, so its norm is the witness states' too (dep at n = 3 with 5 samples read 1.11e-16).
        for ch in (FamilyChannel(family, 0.0, n) for family in FAMILIES):
            report = constant_fnorm_sample_test(ch, n, samples=samples)
            assert report.mean_deviation == 0.0 == report.max_deviation, ch

    def test_a_mean_rounded_off_equal_norms_is_clamped(self):
        norms = np.full(10, 0.3)
        assert np.add.reduce(norms) / 10 != 0.3  # their rounded mean is an ulp off
        report = verification._norm_spread_report(norms, 3, Tolerance())
        assert report.mean_deviation == 0.0 == report.max_deviation


@st.composite
def sample_test_channels(draw):
    """Diagonal channels at n = 2..12, moduli up to the 1e100 bound; half of them with one modulus and random signs."""

    n = draw(st.integers(min_value=2, max_value=12))
    scale = draw(st.sampled_from([0.0, 1e-300, 1 / n, 1.0, 1e100]))
    if draw(st.booleans()):
        t = np.where(draw(arrays(bool, n * n - 1)), -scale, scale)
    else:
        t = draw(arrays(float, n * n - 1, elements=st.floats(-1, 1))) * scale
    return DiagonalChannel(n, t)


@given(sample_test_channels(), st.sampled_from([0, 1, 5, 40]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_mean_deviation_is_never_above_the_spread(ch, samples, seed):
    report = constant_fnorm_sample_test(ch, ch.dim, samples=samples, seed=seed)
    assert 0.0 <= report.mean_deviation <= report.max_deviation


class TestDeterminant:
    def test_frozen_value(self):
        assert dcq_det_formula(2, 0.5) == pytest.approx(0.3125, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_p_zero(self, n):
        assert dcq_det_formula(n, 0.0) == pytest.approx(n ** (-n), rel=1e-12)

    def test_vanishes_at_upper_cptp_endpoint(self):
        for n in (2, 3, 4, 5):
            assert dcq_det_formula(n, 1 / (n - 1) ** 2) == pytest.approx(0.0, abs=1e-15)

    def test_matrix_layout(self):
        # The determinant is LAPACK's on the dcq member's classical Choi block.
        ch = family_to_diagonal(FamilyChannel(Family.DCQ, 0.2, 3))
        m = channels._choi_blocks(ch)[0]
        assert m[0, 0] == pytest.approx(0.2 + 0.8 / 3)
        assert m[0, 1] == -0.2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recurrence_matches_lapack(self, n):
        report = verify_det_recurrence(n)
        assert report.passed, report.witness
        assert report.samples_used == 21

    @pytest.mark.parametrize("grid", [0, 1])
    def test_grid_below_two_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            verify_det_recurrence(3, grid=grid)


class TestSumIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_generic_inputs(self, n):
        report = verify_sum_identities(n, trials=20, seed=3)
        assert report.passed, report.witness
        assert report.max_deviation < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_direct_sums_match_the_per_matrix_loop(self, n):
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = build_basis(n)
        pairs = list(combinations(range(1, n + 1), 2))
        mats = {sector: [pauli_matrix(n, sector, pr) for pr in pairs] for sector in "xyz"}
        mats["ez"] = [e for (sec, _), e in zip(basis.labels, basis.stacked) if sec == "z"]
        direct = representations._direct_sums(s, n)
        assert direct.keys() == mats.keys()
        for key, group in mats.items():
            np.testing.assert_allclose(direct[key], sum(m @ s @ m for m in group), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_sparse_sums_match_the_per_matrix_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = build_basis(n)
        pairs = list(combinations(range(1, n + 1), 2))
        mats = {sector: [pauli_matrix(n, sector, pr) for pr in pairs] for sector in "xyz"}
        mats["ez"] = [e for (sec, _), e in zip(basis.labels, basis.stacked) if sec == "z"]
        direct = representations._direct_sums(s, n)
        for key, group in mats.items():
            np.testing.assert_allclose(direct[key], sum(m @ s @ m for m in group), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_plan_writes_each_destination_once_per_sector(self, n):
        # Every off-diagonal output of a sector's sum is one off-diagonal
        # input entry times +1 or -1, and each input entry feeds one output.
        s = (1 + np.arange(n * n).reshape(n, n)) * (1 + 0.5j)
        sources = {v: divmod(i, n) for i, v in enumerate(s.flat)}
        off_diagonal = ~np.eye(n, dtype=bool)
        sums = representations._direct_sums(s, n)
        for key in "xyz":
            used = []
            for value in sums[key][off_diagonal]:
                signed = [sign * value for sign in (1, -1) if sign * value in sources]
                assert len(signed) == 1, (key, value)
                row, col = sources[signed[0]]
                assert row != col
                used.append((row, col))
            assert len(set(used)) == len(used) == n * (n - 1)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_plan_matches_pauli_matrix_bit_for_bit(self, n):
        # Generic, Hermitian and complex symmetric inputs, with signed zeros
        # in one row and one column, alone and stacked.
        rng = np.random.default_rng(n)
        g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        g[:, 0, :] = -0.0
        g[:, :, -1] = complex(0.0, -0.0)
        z = np.array([np.diag(m_z(n, j)).real / np.sqrt(j * (j + 1)) for j in range(1, n)])
        for stack in (g, (g + np.swapaxes(g, -1, -2).conj()) / 2, (g + np.swapaxes(g, -1, -2)) / 2):
            sums = representations._direct_sums(stack, n)
            for i, s in enumerate(stack):
                alone = representations._direct_sums(s, n)
                expected = per_pair_sums(s, n) | {"ez": (z.T @ z) * s}
                for key, mat in expected.items():
                    assert alone[key].tobytes() == sums[key][i].tobytes() == mat.tobytes(), (key, i)

    def test_sums_build_no_dense_stack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense n^4 array built")

        for module, name in (
            (basis_module, "build_basis"),
            (representations, "_scaled_operators"),
            (representations, "to_choi"),
        ):
            monkeypatch.setattr(module, name, refuse)
            monkeypatch.setattr(representations, name, refuse, raising=False)
        assert verify_sum_identities(9, trials=2).passed
        assert verify_representations(Family.TCQ, 0.05, 9, trials=2).passed

    @pytest.mark.parametrize("n, sector", [(64, "x"), (64, "y"), (64, "z"), (1000, "z")])
    def test_a_sum_missing_one_term_fails(self, monkeypatch, n, sector):
        # The bound grows with the largest closed-form entry, about 3800 in
        # the z sums at n = 1000, yet stays far below one term: a sum
        # without pair (1, 2)'s term misses by an input entry, of order 1.
        direct_sums = representations._direct_sums
        m = pauli_matrix(2, sector, (1, 2))  # the pair's 2 x 2 block, the same at every n

        def missing_a_term(s, n):
            sums = direct_sums(s, n)
            sums[sector][..., :2, :2] -= m @ s[..., :2, :2] @ m
            return sums

        monkeypatch.setattr(representations, "_direct_sums", missing_a_term)
        report = verify_sum_identities(n, trials=1)
        assert not report.passed
        assert report.max_deviation > 1e-3
        assert report.witness.endswith(f"; largest deviation {report.max_deviation:.3e} in the {sector} sum on generic inputs")

    def test_pairwise_diagonal_reduction_holds_at_256(self):
        report = verify_sum_identities(256, trials=2)
        assert report.passed, report.witness
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_orthonormal_sectors_sum_to_scaled_pauli_sums(self, n):
        # The basis's identity, x and y elements are I/sqrt(n), x/sqrt(2)
        # and y/sqrt(2): their sums are S/n, X/2 and Y/2.
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = build_basis(n)
        direct = representations._direct_sums(s, n)
        expected = {"0": s / n, "x": direct["x"] / 2, "y": direct["y"] / 2}
        for sector, target in expected.items():
            group = [e for (sec, _), e in zip(basis.labels, basis.stacked) if sec == sector]
            np.testing.assert_allclose(sum(m @ s @ m for m in group), target, atol=1e-12)

    def test_transpose_matters_on_e12(self):
        # The x-sector conjugation sum of E_12 at n = 2 is E_21: the
        # transpose-free variant predicts E_12 and misses by a full unit.
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        sx = pauli_matrix(2, "x", (1, 2))
        direct = sx @ e12 @ sx
        np.testing.assert_array_equal(direct, e12.T)
        transpose_free = e12 + np.trace(e12) * np.eye(2) - 2 * np.diag(np.diag(e12))
        assert np.max(np.abs(direct - transpose_free)) == pytest.approx(1.0)

    def test_symmetric_inputs_close_the_gap(self):
        report = verify_sum_identities(4, trials=10, seed=4)
        # The witness text carries the symmetric-input deviation measured
        # for the transpose-free variants; it must be at float-dust level.
        assert "symmetric" in report.witness
        assert float(report.witness.rsplit(" ", 1)[1]) < 1e-12


class TestNoVacuousPasses:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_sum_identities_reject_empty_runs(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verify_sum_identities(3, trials=trials)

    @pytest.mark.parametrize("n", [1, 0])
    def test_sum_identities_reject_dimensions_below_two(self, n):
        with pytest.raises(SchemaError, match=f"^field 'dim': expected an integer >= 2, got {n!r}$"):
            verify_sum_identities(n)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_representations_reject_empty_runs(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verify_representations(Family.DEP, 0.2, 3, trials=trials)

    # Each check as a function of its seed, and the first work it does after the argument checks.
    SEEDED_CHECKS = pytest.mark.parametrize(
        "check, first_work",
        [
            (lambda seed: constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, seed=seed),
             "qchan.verification._witness_norms"),
            (lambda seed: verify_sum_identities(3, seed=seed), "qchan.representations._trial_chunks"),
            (lambda seed: verify_representations(Family.DEP, 0.1, 3, seed=seed), "qchan.representations.repr_coefficients"),
            (lambda seed: qubit_equivalence_check(0.5, seed=seed), "qchan.linalg._haar_vectors"),
        ],
        ids=["constant_fnorm_sample_test", "verify_sum_identities", "verify_representations", "qubit_equivalence_check"],
    )

    @staticmethod
    def refuse_work(monkeypatch, first_work):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(first_work, refuse)

    @SEEDED_CHECKS
    def test_negative_seed_is_refused_before_any_work(self, monkeypatch, check, first_work):
        self.refuse_work(monkeypatch, first_work)
        with pytest.raises(SchemaError, match=r"^field 'seed': expected an integer >= 0, got -1$"):
            check(-1)

    @SEEDED_CHECKS
    def test_a_valid_seed_reaches_the_first_work(self, monkeypatch, check, first_work):
        # The converse, so that the refusal above cannot pass on a function the check never calls.
        self.refuse_work(monkeypatch, first_work)
        with pytest.raises(AssertionError, match="^work started$"):
            check(0)


class TestRepresentations:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_both_forms_match(self, family, n):
        r = param_range(family, n)
        for p in np.linspace(r.p_min, r.p_max, 4):
            report = verify_representations(family, float(p), n, trials=10, seed=5)
            assert report.passed, (family, p, report.witness)

    def test_reports_deviation(self):
        report = verify_representations(Family.DEP, 0.3, 3, trials=5, seed=6)
        assert report.max_deviation < 1e-13
        assert report.mean_deviation <= report.max_deviation

    @pytest.mark.parametrize("weight", ["c0", "cx", "cy", "cz", "e0", "ex", "ey", "ez"])
    def test_every_weight_is_checked(self, monkeypatch, weight):
        def perturbed(*args):
            c = repr_coefficients(*args)
            return c._replace(**{weight: getattr(c, weight) + 1e-9})

        monkeypatch.setattr(representations, "repr_coefficients", perturbed)
        report = verify_representations(Family.DCQ, 0.05, 4, trials=3, seed=1)
        assert not report.passed
        assert report.max_deviation > 1e-12

    @pytest.mark.parametrize("p", [0.05, 1e8])
    @pytest.mark.parametrize("weight", ["c0", "cx", "cy", "cz", "e0", "ex", "ey", "ez"])
    def test_every_scaled_weight_is_checked(self, monkeypatch, weight, p):
        # An added 1e-9 is below rounding at p = 1e8; a relative error of 1e-9 is not.
        def perturbed(*args):
            c = repr_coefficients(*args)
            return c._replace(**{weight: getattr(c, weight) * (1 + 1e-9)})

        monkeypatch.setattr(representations, "repr_coefficients", perturbed)
        report = verify_representations(Family.DCQ, p, 4, trials=3, seed=1)
        assert report.passed is False

    @pytest.mark.parametrize("p", [1e8, -1e8, 1e100])
    def test_passes_at_large_p(self, p):
        # The forms' entries grow like |p|, and so does their rounding: each
        # member is decided at the scale of its closed form, not at 1.
        report = verify_representations(Family.DEP, p, 3, trials=5)
        assert report.passed is True
        assert report.max_deviation > 1e-12


class TestClassifyQubit:
    def test_completely_depolarizing(self):
        result = classify_qubit(QubitLambda(t=(0, 0, 0.5), lam=(0, 0, 0)))
        assert result.tag == "completely_depolarizing"
        np.testing.assert_allclose(result.fixed_output, np.diag([0.75, 0.25]), atol=1e-15)
        assert result.variant is None

    def test_fixed_output_is_the_constant_image(self):
        l = QubitLambda(t=(0.3, -0.1, 0.2), lam=(0, 0, 0))
        result = classify_qubit(l)
        rng = np.random.default_rng(7)
        for _ in range(5):
            out = l(random_pure_state(2, rng))
            np.testing.assert_allclose(out, result.fixed_output, atol=1e-13)

    def test_translation_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="Bloch"):
            classify_qubit(QubitLambda(t=(0.9, 0.9, 0.9), lam=(0, 0, 0)))

    @pytest.mark.parametrize("signs,variant", [
        ((1, 1, 1), 1),
        ((1, -1, 1), 2),
        ((-1, -1, 1), 3),
        ((-1, 1, 1), 4),
        # lam_z < 0 flips lam_z and lam_x together.
        ((-1, 1, -1), 1),
        ((-1, -1, -1), 2),
        ((1, -1, -1), 3),
        ((1, 1, -1), 4),
    ])
    def test_variant_table(self, signs, variant):
        p = 0.3
        l = QubitLambda(t=(0, 0, 0), lam=tuple(s * p for s in signs))
        result = classify_qubit(l)
        assert result.tag == "diagonal"
        assert result.variant == variant
        assert result.p == pytest.approx(p)

    def test_not_constant_norm(self):
        assert classify_qubit(QubitLambda(t=(0, 0, 0), lam=(0.5, 0.4, 0.5))).tag == "not_constant_norm"
        assert classify_qubit(QubitLambda(t=(0.1, 0, 0), lam=(0.5, 0.5, 0.5))).tag == "not_constant_norm"

    @pytest.mark.parametrize("case", ["depolarizing", "diagonal", "generic"])
    def test_consistent_with_sample_test(self, case):
        rng = np.random.default_rng(8)
        if case == "depolarizing":
            l = QubitLambda(t=tuple(0.4 * rng.uniform(-1, 1, 3)), lam=(0, 0, 0))
        elif case == "diagonal":
            l = QubitLambda(t=(0, 0, 0), lam=(0.4, -0.4, 0.4))
        else:
            l = QubitLambda(t=(0.2, 0, 0), lam=(0.5, 0.3, 0.6))
        verdict = classify_qubit(l)
        report = per_state_sample_test(l, 2, samples=50, seed=2)
        assert (verdict.tag != "not_constant_norm") == report.passed


def traced_peak(check):
    """Peak bytes that tracemalloc sees allocated while ``check()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryEstimates:
    """The byte estimates of the size guards bound what the checks allocate, called directly."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda n: verify_sum_identities(n, trials=1),
            lambda n: verify_representations(Family.TCQ, 0.001, n, trials=1),
        ],
        ids=["identities", "representations"],
    )
    def test_one_trial_stays_within_the_trial_estimate(self, check):
        n = 128
        check(n)  # the per-dimension caches are not per-trial memory
        assert traced_peak(lambda: check(n)) <= exact._PEAK_BYTES["identities"].per_n2 * n * n
