from fractions import Fraction

import numpy as np
import pytest

from qchan import channels
from qchan.basis import build_basis, pair_count
from qchan.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DiagonalChannel,
    Family,
    FamilyChannel,
    QubitLambda,
    apply_kraus,
    as_linear_map,
    channel_from_json,
    channel_to_json,
    cptp_range,
    diagonal_apply,
    family_apply,
    family_to_diagonal,
    kraus_completeness,
    kraus_from_family,
    qubit_apply,
    qubit_norm_formula,
    random_pure_state,
    random_unitary,
    repr_coefficients,
    stokes,
    to_choi,
    validate_state,
)
from qchan.jsonio import SchemaError
from qchan.linalg import Tolerance, frobenius_norm

FAMILIES = list(Family)
DIMS = [2, 3, 4, 5, 6]


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestFamilyApply:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_p_zero_is_maximally_mixing(self, family):
        s = random_pure_state(4, 3)
        out = family_apply(FamilyChannel(family, 0.0, 4), s)
        np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-15)

    def test_dep_p_one_is_identity(self):
        s = random_pure_state(3, 4)
        np.testing.assert_allclose(family_apply(FamilyChannel(Family.DEP, 1.0, 3), s), s)

    def test_trd_is_dep_of_transpose(self):
        rng = np.random.default_rng(5)
        s = random_hermitian(4, rng)
        dep = FamilyChannel(Family.DEP, 0.3, 4)
        trd = FamilyChannel(Family.TRD, 0.3, 4)
        np.testing.assert_allclose(family_apply(trd, s), family_apply(dep, s.T), atol=1e-15)

    def test_tcq_is_dcq_of_transpose(self):
        rng = np.random.default_rng(6)
        s = random_hermitian(4, rng)
        dcq = FamilyChannel(Family.DCQ, 0.05, 4)
        tcq = FamilyChannel(Family.TCQ, 0.05, 4)
        np.testing.assert_allclose(family_apply(tcq, s), family_apply(dcq, s.T), atol=1e-15)

    def test_dcq_on_basis_projector(self):
        # Frozen: output of the depolarizing-to-classical channel at
        # n = 3, p = 0.2 on |0><0| is diagonal (0.4667, 0.2667, 0.2667).
        ch = FamilyChannel(Family.DCQ, 0.2, 3)
        s = np.diag([1.0, 0.0, 0.0]).astype(complex)
        out = family_apply(ch, s)
        np.testing.assert_allclose(
            out,
            np.diag([0.4666666666666667, 0.26666666666666666, 0.26666666666666666]),
            atol=1e-15,
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", DIMS)
    def test_trace_preserved(self, family, n):
        rng = np.random.default_rng(7)
        ch = FamilyChannel(family, 0.11, n)
        for _ in range(5):
            s = random_hermitian(n, rng)
            assert np.trace(family_apply(ch, s)) == pytest.approx(np.trace(s).real, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            family_apply(FamilyChannel(Family.DEP, 0.5, 3), np.eye(2, dtype=complex))

    def test_in_range_flag(self):
        assert FamilyChannel(Family.DEP, 1.0, 3).in_cptp_range
        assert not FamilyChannel(Family.DEP, 1.01, 3).in_cptp_range
        assert FamilyChannel(Family.DCQ, -0.2, 3).in_cptp_range
        assert not FamilyChannel(Family.DCQ, 0.26, 3).in_cptp_range

    def test_in_range_flag_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FamilyChannel(Family.DEP, 5.0, 3, True)
        with pytest.raises(TypeError):
            FamilyChannel(Family.DEP, 5.0, 3, in_cptp_range=True)


class TestDiagonalPicture:
    @pytest.mark.parametrize("family,signs", [
        (Family.DEP, (1, 1, 1)),
        (Family.TRD, (1, -1, 1)),
        (Family.DCQ, (-1, -1, 1)),
        (Family.TCQ, (-1, 1, 1)),
    ])
    def test_sign_patterns(self, family, signs):
        p = 0.07
        diag = family_to_diagonal(FamilyChannel(family, p, 4))
        np.testing.assert_allclose(diag.t_x, signs[0] * p * np.ones(6))
        np.testing.assert_allclose(diag.t_y, signs[1] * p * np.ones(6))
        np.testing.assert_allclose(diag.t_z, signs[2] * p * np.ones(3))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", DIMS)
    def test_routes_agree(self, family, n):
        # The closed form and the multiplier route must agree entrywise;
        # this is the cross-check that pins the sign patterns down.
        rng = np.random.default_rng(n)
        lo, hi = cptp_range(family, n)
        ch = FamilyChannel(family, 0.6 * hi, n)
        diag = family_to_diagonal(ch)
        for _ in range(10):
            s = random_hermitian(n, rng)
            np.testing.assert_allclose(
                family_apply(ch, s), diagonal_apply(diag, s), atol=1e-12
            )

    def test_multiplier_length_check(self):
        with pytest.raises(ValueError, match="multipliers"):
            DiagonalChannel(dim=3, t=np.zeros(5))

    def test_adjoint_is_self(self):
        # A real diagonal channel is its own adjoint in the trace pairing.
        diag = DiagonalChannel(dim=3, t=np.linspace(-0.5, 0.5, 8))
        rng = np.random.default_rng(8)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        lhs = np.vdot(diagonal_apply(diag, a), b)
        rhs = np.vdot(a, diagonal_apply(diag, b))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_superoperator_matches_action(self):
        rng = np.random.default_rng(9)
        basis = build_basis(3)
        diag = DiagonalChannel(dim=3, t=rng.uniform(-1, 1, 8))
        s = random_hermitian(3, rng)
        from qchan.basis import decompose

        coeffs = decompose(s, basis)
        out_coeffs = np.concatenate([[1.0], diag.t]) * coeffs
        np.testing.assert_allclose(
            out_coeffs, decompose(diagonal_apply(diag, s), basis), atol=1e-12
        )


class TestCallableChannels:
    def test_as_linear_map_is_the_channel(self):
        fam = FamilyChannel(Family.TRD, 0.2, 3)
        diag = family_to_diagonal(fam)
        assert as_linear_map(fam) is fam
        assert as_linear_map(diag) is diag
        s = random_pure_state(3, 4)
        assert np.array_equal(fam(s), family_apply(fam, s))
        assert np.array_equal(diag(s), diagonal_apply(diag, s))

    def test_as_linear_map_rejects_other_objects(self):
        with pytest.raises(TypeError, match="FamilyChannel"):
            as_linear_map(lambda s: s)

    def test_diagonal_apply_accepts_non_hermitian_input(self):
        # The linear extension: E_12 goes to a E_12 + b E_21.
        ch = DiagonalChannel(2, np.array([0.5, 0.1, -0.2]))
        unit = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(diagonal_apply(ch, unit), [[0, 0.3], [0.2, 0]], atol=1e-15)

    def test_diagonal_apply_rejects_wrong_dimension(self):
        ch = DiagonalChannel(3, np.zeros(8))
        with pytest.raises(ValueError, match="dimension mismatch"):
            diagonal_apply(ch, np.zeros((2, 4, 4)))


class TestChoi:
    def test_identity_channel(self):
        choi = to_choi(lambda s: s, 2)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1
                expected += np.kron(unit, unit)
        np.testing.assert_allclose(choi, expected, atol=1e-15)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(choi), [0.0, 0.0, 0.0, 2.0], atol=1e-12
        )

    def test_p_zero_choi_is_scaled_identity(self):
        ch = FamilyChannel(Family.DEP, 0.0, 3)
        np.testing.assert_allclose(to_choi(as_linear_map(ch), 3), np.eye(9) / 3, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dcq_choi_entries(self, n):
        p = 0.08
        choi = to_choi(as_linear_map(FamilyChannel(Family.DCQ, p, n)), n)
        for i in range(n):
            for j in range(n):
                block = choi[i * n : (i + 1) * n, j * n : (j + 1) * n]
                if i == j:
                    expected = np.full(n, (1 - p) / n)
                    expected[i] = p + (1 - p) / n
                    np.testing.assert_allclose(block, np.diag(expected), atol=1e-15)
                else:
                    expected = np.zeros((n, n))
                    expected[i, j] = -p
                    np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_linearity_in_the_map(self):
        n = 3
        f = as_linear_map(FamilyChannel(Family.DEP, 0.4, n))
        g = as_linear_map(FamilyChannel(Family.DCQ, 0.1, n))
        mix = lambda s: 0.25 * f(s) + 0.75 * g(s)
        np.testing.assert_allclose(
            to_choi(mix, n), 0.25 * to_choi(f, n) + 0.75 * to_choi(g, n), atol=1e-13
        )

    def test_diagonal_route_matches_family_route(self):
        ch = FamilyChannel(Family.TCQ, 0.12, 4)
        choi_family = to_choi(as_linear_map(ch), 4)
        choi_diag = to_choi(as_linear_map(family_to_diagonal(ch)), 4)
        np.testing.assert_allclose(choi_family, choi_diag, atol=1e-12)

    @pytest.mark.parametrize(
        "make_map",
        [
            lambda n: FamilyChannel(Family.DCQ, 0.07, n),
            lambda n: DiagonalChannel(n, np.linspace(-0.3, 0.2, n * n - 1)),
            lambda n: (lambda s: 0.3 * s @ s.T + np.trace(s) * np.eye(n) - 0.2j * s.T),
        ],
        ids=["family", "diagonal", "generic"],
    )
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_blockwise_build_equals_kron_accumulation(self, make_map, n):
        apply_fn = make_map(n)
        reference = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1
                if i == j:
                    image = np.asarray(apply_fn(unit), dtype=complex)
                else:
                    h = (unit + unit.conj().T) / 2
                    a = (unit - unit.conj().T) / 2j
                    image = np.asarray(apply_fn(h), dtype=complex) + 1j * np.asarray(
                        apply_fn(a), dtype=complex
                    )
                reference += np.kron(unit, image)
        assert np.array_equal(to_choi(apply_fn, n), reference)

    def test_rejects_wrongly_shaped_images(self):
        with pytest.raises(ValueError, match="shape"):
            to_choi(lambda s: np.trace(s), 3)


class TestReprCoefficients:
    def test_dep_example(self):
        c = repr_coefficients(Family.DEP, 0.25, 3)
        assert c.c0 == pytest.approx(1 / 3)
        assert c.cx == pytest.approx(1 / 8)
        assert c.cy == pytest.approx(1 / 8)
        assert c.cz == pytest.approx(1 / 12)

    def test_trd_at_zero(self):
        n = 4
        c = repr_coefficients(Family.TRD, 0.0, n)
        assert c.c0 == c.cz == pytest.approx(1 / n**2)
        assert c.cx == c.cy == pytest.approx(1 / (2 * n))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", DIMS)
    def test_trace_preservation_identity(self, family, n):
        # c0 + (n - 1)(cx + cy + cz) = 1 makes the Kraus set complete.
        for p in np.linspace(-0.4, 0.9, 7):
            c = repr_coefficients(family, p, n)
            assert c.c0 + (n - 1) * (c.cx + c.cy + c.cz) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_two_forms_related(self, family):
        # e_x/e_y elements are sigma/sqrt(2), so ex = 2 cx, ey = 2 cy,
        # and the identity element I/sqrt(n) gives e0 = n c0.
        c = repr_coefficients(family, 0.2, 5)
        assert c.ex == pytest.approx(2 * c.cx)
        assert c.ey == pytest.approx(2 * c.cy)
        assert c.e0 == pytest.approx(5 * c.c0)


class TestKraus:
    def test_dep_p_one_single_identity(self):
        ks = kraus_from_family(Family.DEP, 1.0, 3)
        assert len(ks) == 1
        np.testing.assert_allclose(ks.operators[0], np.eye(3), atol=1e-15)

    def test_identity_dropped_at_dcq_upper_endpoint(self):
        # c0 vanishes at p = 1/(n-1)^2, so the identity operator drops out.
        n = 3
        ks = kraus_from_family(Family.DCQ, 0.25, n)
        assert len(ks) == 3 * pair_count(n)
        for op in ks.operators:
            # Every remaining operator is a scaled generalized Pauli, hence traceless.
            assert abs(np.trace(op)) < 1e-12

    def test_vanishing_weights_drop_out(self, monkeypatch):
        # One operator per weight that is exactly nonzero in rational
        # arithmetic, however its float rounds.  1x1 placeholders of the
        # right length stand in for the sector stacks, so the sweep to
        # n = 64 stays small.
        monkeypatch.setattr(
            channels,
            "_pauli_stacks",
            lambda n: tuple(np.zeros((pair_count(n), 1, 1)) for _ in range(3)),
        )
        for family in FAMILIES:
            for n in range(2, 65):
                lo, hi = cptp_range(family, Fraction(n))
                for p in (lo, hi, (lo + hi) / 2, Fraction(0)):
                    c = repr_coefficients(family, Fraction(p), n)
                    nonzero = [c.cx != 0, c.cy != 0, c.cz != 0]
                    expected = (c.c0 != 0) + pair_count(n) * sum(nonzero)
                    ks = kraus_from_family(family, float(p), n)
                    assert len(ks) == expected, (family, n, p)

    def test_loose_tolerance_keeps_genuine_weights(self):
        # The drop threshold is float dust, not the caller's tolerance.
        ks = kraus_from_family(Family.DEP, 0.5, 30, tol=Tolerance(1e-2, 1e-2))
        assert len(ks) == 1 + 3 * pair_count(30)
        np.testing.assert_allclose(kraus_completeness(ks), np.eye(30), atol=1e-12)

    def test_out_of_range_names_coefficient(self):
        with pytest.raises(ValueError, match="c0"):
            kraus_from_family(Family.DCQ, 0.5, 3)
        with pytest.raises(ValueError, match="cy"):
            kraus_from_family(Family.TRD, 0.6, 3)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_completeness_and_action(self, family, n):
        rng = np.random.default_rng(n)
        lo, hi = cptp_range(family, n)
        for p in np.linspace(lo, hi, 5):
            ks = kraus_from_family(family, float(p), n)
            np.testing.assert_allclose(kraus_completeness(ks), np.eye(n), atol=1e-12)
            ch = FamilyChannel(family, float(p), n)
            for _ in range(3):
                s = random_pure_state(n, rng)
                np.testing.assert_allclose(
                    apply_kraus(ks, s), family_apply(ch, s), atol=1e-12
                )


class TestQubit:
    def test_stokes_examples(self):
        np.testing.assert_allclose(stokes(np.diag([1.0, 0.0]).astype(complex)), [0, 0, 1])
        xi = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        np.testing.assert_allclose(stokes(xi), [1, 0, 0], atol=1e-15)
        v = np.array([1j, 1.0]) / np.sqrt(2)
        eta = np.outer(v, v.conj())
        np.testing.assert_allclose(stokes(eta), [0, -1, 0], atol=1e-15)

    def test_affine_action(self):
        l = QubitLambda(t=(0.1, -0.2, 0.3), lam=(0.5, 0.4, -0.6))
        s = random_pure_state(2, 11)
        a = stokes(s)
        out = qubit_apply(l, s)
        np.testing.assert_allclose(
            stokes(out), np.array(l.t) + np.array(l.lam) * a, atol=1e-13
        )
        assert np.trace(out) == pytest.approx(1.0, abs=1e-14)

    def test_matches_dep_family_at_dim_two(self):
        p = 0.37
        l = QubitLambda(t=(0, 0, 0), lam=(p, p, p))
        ch = FamilyChannel(Family.DEP, p, 2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = random_pure_state(2, rng)
            np.testing.assert_allclose(qubit_apply(l, s), family_apply(ch, s), atol=1e-14)

    def test_norm_formula_is_squared_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            l = QubitLambda(t=tuple(rng.uniform(-1, 1, 3)), lam=tuple(rng.uniform(-1, 1, 3)))
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            s = (np.eye(2, dtype=complex) + a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z) / 2
            direct = frobenius_norm(qubit_apply(l, s)) ** 2
            assert qubit_norm_formula(l, a) == pytest.approx(direct, abs=1e-13)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            QubitLambda(t=(0, 0), lam=(0, 0, 0))
        with pytest.raises(ValueError):
            QubitLambda(t=(0, 0, np.inf), lam=(0, 0, 0))


class TestRandomInputs:
    def test_pure_state_properties(self):
        s = random_pure_state(5, 21)
        assert np.trace(s) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(s, s.conj().T, atol=1e-15)
        np.testing.assert_allclose(s @ s, s, atol=1e-14)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_pure_state(4, 42), random_pure_state(4, 42))
        assert not np.allclose(random_pure_state(4, 42), random_pure_state(4, 43))

    def test_generator_advances(self):
        rng = np.random.default_rng(0)
        first = random_pure_state(3, rng)
        second = random_pure_state(3, rng)
        assert not np.allclose(first, second)

    def test_unitary(self):
        u = random_unitary(4, 7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-13)


class TestStateValidation:
    def test_accepts_density_matrix(self):
        validate_state(np.eye(3, dtype=complex) / 3)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_state(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            validate_state(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            validate_state(m)


class TestChannelJson:
    def test_family_round_trip(self):
        ch = FamilyChannel(Family.TCQ, -0.125, 4)
        again = channel_from_json(channel_to_json(ch))
        assert again == ch

    def test_diagonal_round_trip(self):
        diag = DiagonalChannel(dim=2, t=np.array([0.1, -0.2, 0.3]))
        again = channel_from_json(channel_to_json(diag))
        assert isinstance(again, DiagonalChannel)
        np.testing.assert_array_equal(again.t, diag.t)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            channel_from_json({"kind": "mystery"})

    def test_unknown_family(self):
        with pytest.raises(SchemaError, match="family"):
            channel_from_json({"kind": "family", "family": "dep2", "p": 0.1, "dim": 3})

    def test_missing_p(self):
        with pytest.raises(SchemaError, match="p"):
            channel_from_json({"kind": "family", "family": "dep", "dim": 3})

    def test_wrong_multiplier_count(self):
        with pytest.raises(SchemaError, match="t"):
            channel_from_json({"kind": "diagonal", "dim": 3, "t": [0.0] * 5})

    def test_bad_dim(self):
        with pytest.raises(SchemaError, match="dim"):
            channel_from_json({"kind": "family", "family": "dep", "p": 0.5, "dim": 1})
