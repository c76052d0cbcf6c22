import dataclasses
import json
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import basis as basis_module
from qchan import channels, verification
from qchan.basis import build_basis, m_z, pauli_matrix
from qchan.channels import (
    DiagonalChannel,
    Family,
    FamilyChannel,
    QubitLambda,
    as_linear_map,
    cptp_range,
    family_to_diagonal,
    repr_coefficients,
)
from qchan.jsonio import dumps
from qchan.linalg import Tolerance
from qchan.verification import (
    classify_qubit,
    constant_fnorm_criterion,
    constant_fnorm_sample_test,
    dcq_det_formula,
    expected_constant_norm,
    is_cptp,
    param_range,
    verify_det_recurrence,
    verify_representations,
    verify_sum_identities,
    witness_state_labels,
    witness_states,
)

from dense_oracles import dense_is_cptp, per_state_sample_test

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

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, 3.0])
    def test_dimension_must_be_an_integer_from_two(self, n):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
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

    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_choi_norm_does_not_pass(self, dense):
        # The squares of the Choi data overflow; the threshold must not become inf.
        ch = DiagonalChannel(3, np.array([1e155] * 6 + [0.0, 0.0]))
        report = dense_is_cptp(ch, 3) if dense else is_cptp(ch, 3)
        assert not report.passed
        assert report.min_choi_eigenvalue == pytest.approx(-1e155)
        assert report.witness == (
            "negative Choi eigenvalue -1.000000e+155" + ("" if dense else " in classical block")
        )

    def test_channel_dimension_must_match(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_cptp(FamilyChannel(Family.DEP, 0.1, 3), 4)

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
        assert expected_constant_norm(4, 1.0) == pytest.approx(1.0)
        assert expected_constant_norm(4, 0.0) == pytest.approx(0.5)

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
        assert len(witness_state_labels(n)) == n * n
        for s in states:
            assert np.trace(s) == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(s @ s, s, atol=1e-14)

    def test_specific_states(self):
        states = witness_states(2)
        labels = witness_state_labels(2)
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
        labels = witness_state_labels(n) + [f"haar_{i}" for i in range(samples)]
        for top in range(len(labels)):
            bottom = (top + 1) % len(labels)
            norms = np.full(len(labels), 0.5)
            norms[top], norms[bottom] = 0.75, 0.25
            report = verification._norm_spread_report(norms, n, Tolerance())
            assert report.witness.endswith(f"at {labels[top]}, min 0.250000000000 at {labels[bottom]}")

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, samples=-5)

    def test_zero_samples_still_checks_witnesses(self):
        report = constant_fnorm_sample_test(FamilyChannel(Family.DEP, 0.1, 3), 3, samples=0)
        assert report.passed
        assert report.samples_used == 9

    @pytest.mark.parametrize(
        "samples, extremes",
        [
            (0, "at xi_(1,2), min 0.577350269190 at psi_0"),
            (20, "at haar_17, min 0.577350269190 at psi_0"),
        ],
        ids=["witnesses", "haar"],
    )
    def test_overflowing_squares_give_finite_norms(self, samples, extremes):
        # The squared output norms pass the float range; the norms, about 1e155, do not.
        ch = DiagonalChannel(3, np.array([1e155] * 6 + [0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = constant_fnorm_sample_test(ch, 3, samples=samples, seed=0)
        oracle = per_state_sample_test(ch, 3, samples=samples, seed=0)
        assert not report.passed and not oracle.passed
        assert report.samples_used == oracle.samples_used == 9 + samples
        assert report.max_deviation == pytest.approx(oracle.max_deviation, rel=1e-15, abs=0)
        assert report.mean_deviation == pytest.approx(oracle.mean_deviation, rel=1e-15, abs=0)
        assert report.witness.endswith(extremes) and oracle.witness.endswith(extremes)

    def test_deterministic(self):
        ch = as_linear_map(FamilyChannel(Family.DCQ, 0.1, 3))
        a = constant_fnorm_sample_test(ch, 3, samples=64, seed=9)
        b = constant_fnorm_sample_test(ch, 3, samples=64, seed=9)
        assert a == b


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
        m, _ = verification._classical_block(family_to_diagonal(FamilyChannel(Family.DCQ, 0.2, 3)))
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
        mats["ez"] = [e for (sec, _), e in zip(basis.labels, basis.elements) if sec == "z"]
        direct = verification._direct_sums(s, n)
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
        mats["ez"] = [e for (sec, _), e in zip(basis.labels, basis.elements) if sec == "z"]
        direct = verification._direct_sums(s, n)
        for key, group in mats.items():
            np.testing.assert_allclose(direct[key], sum(m @ s @ m for m in group), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_plan_writes_each_destination_once_per_sector(self, n):
        gather, coef, dest, _ = verification._sum_plan(n)
        assert gather.shape == coef.shape == dest.shape == (12 * n * (n - 1) // 2,)
        plane = dest // (n * n)  # (diagonal plane, sector) of each term
        for index in range(6):
            written = dest[plane == index] % (n * n)
            assert len(np.unique(written)) == len(written) == n * (n - 1)
            assert not np.any(written // n == written % n)  # never on the diagonal

    @pytest.mark.parametrize("n", range(2, 10))
    def test_plan_matches_pauli_matrix_bit_for_bit(self, n):
        # Rebuild the plan from pauli_matrix's nonzeros (row-major: the pair's
        # k row first) with the plan's scalar arithmetic: real entries read
        # as floats, complex ones as Python complex, so zero signs agree.
        def plain(v):
            return v.real if v.imag == 0 else complex(v)

        gather, coef, dest = [], [], []
        for sector, name in enumerate("xyz"):
            pairs = combinations(range(1, n + 1), 2)
            mats = {(k - 1, l - 1): pauli_matrix(n, name, (k, l)) for k, l in pairs}
            for a in range(2):
                for b in range(2):
                    for (k, l), m in mats.items():
                        nonzeros = list(zip(*np.nonzero(m)))
                        (r_a, c_a), (r_b, c_b) = nonzeros[a], nonzeros[b]
                        gather.append(c_a * n + r_b)
                        coef.append(plain(m[r_a, c_a]) * plain(m[r_b, c_b]))
                        on_diagonal = r_a == c_b
                        col = k + l - r_a if on_diagonal else c_b
                        dest.append(((on_diagonal * 3 + sector) * n + r_a) * n + col)
        z = np.array([np.diag(m_z(n, j)).real / np.sqrt(j * (j + 1)) for j in range(1, n)])
        expected = (np.array(gather), np.array(coef, dtype=complex), np.array(dest), z.T @ z)
        for got, want in zip(verification._sum_plan(n), expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_sums_build_no_dense_stack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense n^4 array built")

        for module, name in (
            (basis_module, "build_basis"),
            (channels, "_scaled_operators"),
            (channels, "to_choi"),
        ):
            monkeypatch.setattr(module, name, refuse)
            monkeypatch.setattr(verification, name, refuse, raising=False)
        assert verify_sum_identities(9, trials=2).passed
        assert verify_representations(Family.TCQ, 0.05, 9, trials=2).passed

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
        direct = verification._direct_sums(s, n)
        expected = {"0": s / n, "x": direct["x"] / 2, "y": direct["y"] / 2}
        for sector, target in expected.items():
            group = [e for (sec, _), e in zip(basis.labels, basis.elements) if sec == sector]
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
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            verify_sum_identities(n)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_representations_reject_empty_runs(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verify_representations(Family.DEP, 0.2, 3, trials=trials)


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
            return dataclasses.replace(c, **{weight: getattr(c, weight) + 1e-9})

        monkeypatch.setattr(verification, "repr_coefficients", perturbed)
        report = verify_representations(Family.DCQ, 0.05, 4, trials=3, seed=1)
        assert not report.passed
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
        from qchan.channels import random_pure_state

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
