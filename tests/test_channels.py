import re
import warnings
from fractions import Fraction
from itertools import combinations
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import channels, representations
from qchan.basis import build_basis, pauli_matrix
from qchan.channels import (
    DiagonalChannel,
    FamilyChannel,
    as_linear_map,
    channel_from_json,
    channel_to_json,
    diagonal_apply,
    diagonal_image,
    family_apply,
    family_to_diagonal,
    validate_state,
)
from qchan.exact import _SIGNS, DEFAULT_TOL, Family, Tolerance, cptp_range, pair_count, repr_coefficients
from qchan.jsonio import SchemaError, dumps
from qchan.linalg import frobenius_norm
from qchan.representations import QubitLambda, kraus_from_family, to_choi
from qchan.verification import constant_fnorm_criterion, constant_fnorm_sample_test, is_cptp

from dense_oracles import kraus_completeness, random_pure_state

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

    @given(
        n=st.integers(min_value=2, max_value=8),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e50, 1e100]),
        unit=st.lists(st.floats(-1, 1), min_size=63, max_size=63),
        hermitian=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_diagonal_channel_preserves_trace(self, n, scale, unit, hermitian, seed):
        # Trace preservation is structural (t_0 = 1, every other basis element traceless), so
        # is_cptp does not measure it; the apply engine keeps it to the rounding of the output.
        t = np.array(unit[: n * n - 1]) * scale
        ch = DiagonalChannel(n, t)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if hermitian:
            s = (s + s.conj().T) / 2
        bound = 4 * n * np.finfo(float).eps * (1 + np.abs(t).max()) * frobenius_norm(s)
        assert abs(np.trace(ch(s)) - np.trace(s)) <= bound

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            family_apply(FamilyChannel(Family.DEP, 0.5, 3), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("family", [Family.DCQ, Family.TCQ])
    @pytest.mark.parametrize("p", [1e308, -1e308, 9e307, -9e307])
    def test_to_classical_member_where_2p_overflows(self, family, p):
        # 2p overflows only past |p| ~ 8.99e307, far past the magnitude bound:
        # such a member is refused before anything is applied.
        with pytest.raises(SchemaError, match=r"^field 'p': expected a number of magnitude at most 1e\+100, got "):
            FamilyChannel(family, p, 3)

    @pytest.mark.parametrize("family", [Family.DCQ, Family.TCQ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_to_classical_member_at_the_bound(self, family, sign):
        # Tr(S) I/n + p (-S + 2 d(S) - Tr(S) I/n), S transposed for tcq, to an ulp of p,
        # with no warning, and zeros off the diagonal signed as an in-range member signs them.
        p = sign * 1e100
        states = np.stack([random_pure_state(3, seed) for seed in range(20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = family_apply(FamilyChannel(family, p, 3), states)
        s = states if family is Family.DCQ else np.swapaxes(states, -1, -2)
        diag = np.einsum("kii->ki", states)[:, :, None] * np.eye(3)
        mixed = np.trace(states, axis1=-2, axis2=-1)[:, None, None] * np.eye(3) / 3
        np.testing.assert_allclose(out, mixed + p * (2 * diag - s - mixed), rtol=0, atol=abs(p) * 1e-15)
        off = ~np.eye(3, dtype=bool)
        e = np.diag([1.0, 0.0, 0.0]).astype(complex)
        e[off] = complex(-0.0, -0.0)
        near, far = (family_apply(FamilyChannel(family, q, 3), e)[off] for q in (sign * 0.5, p))
        assert np.array_equal(np.signbit(near.view(float)), np.signbit(far.view(float)))


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_multipliers_rejected(self, bad):
        t = np.zeros(3)
        t[1] = bad
        with pytest.raises(SchemaError, match=r"^field 't\[1\]': expected a finite number$"):
            DiagonalChannel(dim=2, t=t)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_magnitudes_past_the_bound_are_refused(self, sign):
        # |p| and each |t_i| may reach exact._MAX_MAGNITUDE = 1e100; the next float is refused.
        at, past = sign * 1e100, sign * float(np.nextafter(1e100, np.inf))
        FamilyChannel(Family.DCQ, at, 3)
        DiagonalChannel(2, [0.0, at, 0.0])
        QubitLambda((at, 0, 0), (0, 0, at))
        for build, field in [
            (lambda: FamilyChannel(Family.DCQ, past, 3), "p"),
            (lambda: DiagonalChannel(2, [0.5, past, at]), "t[1]"),
            (lambda: QubitLambda((0, past, 0), (0, 0, at)), "t[1]"),
            (lambda: QubitLambda((0, 0, at), (past, 0, 0)), "lam[0]"),
        ]:
            message = f"field '{field}': expected a number of magnitude at most 1e+100, got {past!r}"
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                build()
        # A diagonal channel names its largest modulus, and a NaN before any other.
        with pytest.raises(SchemaError, match=r"^field 't\[1\]': expected a finite number$"):
            DiagonalChannel(2, [past, float("nan"), 0.0])
        # The Stokes map names its first refused entry.
        with pytest.raises(SchemaError, match=r"^field 't\[0\]': expected a number of magnitude at most 1e\+100"):
            QubitLambda((past, 0, 0), (0, 0, float("inf")))

    def test_pair_weights_are_the_rounded_half_sums(self):
        # Halving is exact, and no sum of two multipliers within the magnitude bound
        # overflows, so (t_x +- t_y) / 2 is the half sum rounded once.
        t_x = np.array([1e100, 1e100, -1e100, 5e-324, 5e-324, 0.3, 1 / 3])
        t_y = np.array([1e100, -1e100, -0.5e100, 5e-324, -0.0, 0.1, -1e-17])
        diag = DiagonalChannel(5, np.concatenate([t_x, [0.0] * 3, t_y, [0.0] * 3, [0.0] * 4]))
        k, l = np.triu_indices(5, 1)
        lower, diagonal = channels._classical_vectors(diag)
        block = channels._classical_block(diag, diagonal)
        # a is the classical Choi block off its diagonal; |b| is what is_cptp subtracts from
        # L_l for each pair block's smallest eigenvalue, in pair order.
        b = np.abs(diag.t_x - diag.t_y) / 2
        smallest = min(np.linalg.eigvalsh(block)[0], (lower[l] - b).min())
        assert is_cptp(diag, 5).min_choi_eigenvalue == smallest
        exact = lambda sign: [float((Fraction(x) + sign * Fraction(y)) / 2) for x, y in zip(t_x, t_y)]
        assert block[k, l][:7].tolist() == exact(1)
        assert b[:7].tolist() == [abs(v) for v in exact(-1)]

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

    @given(
        st.sampled_from(FAMILIES),
        st.floats(-1e100, 1e100),
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_member_is_the_diagonal_channel_of_its_signs(self, family, p, n, seed):
        fam = FamilyChannel(family, p, n)
        assert isinstance(fam, DiagonalChannel)
        cnt = pair_count(n)
        assert fam.t.tobytes() == np.repeat([s * p for s in _SIGNS[family]], [cnt, cnt, n - 1]).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            fam.t[0] = 1.0
        assert channel_to_json(fam) == {"kind": "family", "family": family.value, "p": p, "dim": n}
        # Every verdict and the engine read the member as the plain diagonal channel of its t.
        diag = family_to_diagonal(fam)
        assert type(diag) is DiagonalChannel and diag.t.tobytes() == fam.t.tobytes()
        assert is_cptp(fam, n) == is_cptp(diag, n)
        assert constant_fnorm_criterion(fam) == constant_fnorm_criterion(diag)
        assert constant_fnorm_sample_test(fam, n, 20, seed) == constant_fnorm_sample_test(diag, n, 20, seed)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        assert fam(s).tobytes() == diag(s).tobytes() == family_apply(fam, s).tobytes()

    def test_as_linear_map_rejects_other_objects(self):
        with pytest.raises(TypeError, match="FamilyChannel"):
            as_linear_map(lambda s: s)

    @pytest.mark.parametrize("call", [family_to_diagonal, lambda ch: family_apply(ch, np.eye(2))])
    def test_family_functions_reject_a_diagonal_channel(self, call):
        with pytest.raises(TypeError, match="^expected FamilyChannel, got DiagonalChannel$"):
            call(DiagonalChannel(2, np.zeros(3)))

    def test_diagonal_apply_accepts_non_hermitian_input(self):
        # The linear extension: E_12 goes to a E_12 + b E_21.
        ch = DiagonalChannel(2, np.array([0.5, 0.1, -0.2]))
        unit = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(diagonal_apply(ch, unit), [[0, 0.3], [0.2, 0]], atol=1e-15)

    def test_diagonal_apply_rejects_wrong_dimension(self):
        ch = DiagonalChannel(3, np.zeros(8))
        with pytest.raises(ValueError, match="dimension mismatch"):
            diagonal_apply(ch, np.zeros((2, 4, 4)))


def _objects():
    """One object of each immutable class, and its field values."""
    t = np.linspace(-0.5, 0.5, 3)
    basis = build_basis(2)
    return [
        (FamilyChannel(Family.TCQ, -0.125, 4), (Family.TCQ, -0.125, 4)),
        (DiagonalChannel(2, t), (2, t)),
        (QubitLambda((0.0, 0.1, 0.0), (0.5, -0.5, 0.5)), ((0.0, 0.1, 0.0), (0.5, -0.5, 0.5))),
        (basis, (basis.dim, basis.labels, basis.stacked)),
    ]


class TestImmutableObjects:
    """The channels and the basis behave as the frozen dataclasses they replaced, but compare array fields."""

    def test_positional_and_keyword_construction(self):
        for obj, values in _objects():
            cls = type(obj)
            positional, keyword = cls(*values), cls(**dict(zip(cls._fields, values)))
            for name in cls._fields:
                assert np.array_equal(getattr(positional, name), getattr(keyword, name))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FamilyChannel("xyz", float("nan"), 1), "field 'family': expected one of dep, trd, dcq, tcq, got 'xyz'"),
            (lambda: FamilyChannel(Family.DEP, float("nan"), 1), "field 'p': expected a finite number"),
            (lambda: FamilyChannel(Family.DEP, 0.1, 1), "field 'dim': expected an integer >= 2, got 1"),
            (lambda: DiagonalChannel(1.5, [float("nan")]), "field 'dim': expected an integer >= 2, got 1.5"),
            (lambda: DiagonalChannel(3, [float("nan")] * 7), "expected 8 multipliers, got shape (7,)"),
            (lambda: DiagonalChannel(2, [0.1, float("inf"), 0.0]), "field 't[1]': expected a finite number"),
            (lambda: QubitLambda((float("nan"), 0, 0), (0, 0)), "t and lam must have three components"),
            (lambda: QubitLambda(("x", 0, 0), (0, 0, 0)), "field 't[0]': expected a finite number"),
            (lambda: QubitLambda((0, 0, 0), (0, 0, float("inf"))), "field 'lam[2]': expected a finite number"),
        ],
    )
    def test_validation_messages_in_order(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_fields_hold_what_the_rules_return(self):
        ch = FamilyChannel("dcq", np.float64(0.25), np.int64(3))
        assert (ch.family, type(ch.p), type(ch.dim)) == (Family.DCQ, float, int)
        assert ch == FamilyChannel(Family.DCQ, 0.25, 3)
        assert type(DiagonalChannel(np.int64(2), [0, 0, 0]).dim) is int

    def test_equality_and_hash(self):
        fam = FamilyChannel(Family.TCQ, -0.125, 4)
        assert fam == FamilyChannel(family=Family.TCQ, p=-0.125, dim=4)
        assert hash(fam) == hash(FamilyChannel(Family.TCQ, -0.125, 4))
        assert fam != FamilyChannel(Family.TCQ, -0.125, 5)
        assert fam != (Family.TCQ, -0.125, 4)
        qubit = QubitLambda((0, 0, 0), (0.5, 0.5, 0.5))
        assert qubit == QubitLambda(t=(0.0, 0.0, 0.0), lam=[0.5, 0.5, 0.5])
        assert hash(qubit) == hash(((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)))
        for obj, _ in _objects()[1::2]:  # an array field makes the diagonal channel and the basis unhashable
            assert obj == obj
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)

    def test_distinct_objects_with_array_fields_compare(self):
        # Arrays compare by shape, then element by element; a tuple of them item by item.
        diag = DiagonalChannel(2, [0.1, 0.2, 0.3])
        assert diag == DiagonalChannel(2, [0.1, 0.2, 0.3])
        assert not diag != DiagonalChannel(2, np.array([0.1, 0.2, 0.3]))
        assert diag != DiagonalChannel(2, [0.1, 0.2, -0.3])
        assert not diag == DiagonalChannel(2, [0.1, 0.2, -0.3])
        assert diag != DiagonalChannel(3, np.full(8, 0.1))
        assert FamilyChannel(Family.DEP, 0.1, 2) != DiagonalChannel(2, [0.1, 0.1, 0.1])
        assert build_basis(3) == build_basis(3)
        assert not build_basis(3) != build_basis(3)
        assert build_basis(3) != build_basis(2)
        for obj in (diag, build_basis(3)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)

    def test_repr(self):
        assert repr(FamilyChannel(Family.TCQ, -0.125, 4)) == "FamilyChannel(family=<Family.TCQ: 'tcq'>, p=-0.125, dim=4)"
        assert repr(DiagonalChannel(2, [0.4, -0.4, 0.4])) == "DiagonalChannel(dim=2, t=array([ 0.4, -0.4,  0.4]))"
        assert repr(QubitLambda((0, 0, 1), (0, 0, 0))) == "QubitLambda(t=(0.0, 0.0, 1.0), lam=(0.0, 0.0, 0.0))"
        assert repr(build_basis(2)).startswith("BasisE(dim=2, labels=(('0', 1), ('x', 1), ('y', 1), ('z', 1)), stacked=array(")

    def test_fields_cannot_be_assigned_or_deleted(self):
        for obj, values in _objects():
            for name in (*obj._fields, "t", "other"):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(obj, name, 0)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(obj, name)
            assert all(np.array_equal(getattr(obj, name), v) for name, v in zip(obj._fields, values))

    def test_cached_properties_are_computed_once(self, monkeypatch):
        calls = []

        def counted(function):
            def wrapper(*args):
                calls.append(function.__name__)
                return function(*args)

            return wrapper

        for name in ("pair_count", "_pair_plane"):
            monkeypatch.setattr(channels, name, counted(getattr(channels, name)))
        names = ("t", "_sector_weights")
        for ch, built in [
            (FamilyChannel(Family.DEP, 0.25, 3), ["pair_count"]),
            (DiagonalChannel(3, np.arange(8.0)), ["_pair_plane", "_pair_plane"]),  # split weights: u and v scattered
        ]:
            calls.clear()
            first = [getattr(ch, name) for name in names]
            assert all(getattr(ch, name) is value for name, value in zip(names, first))
            assert calls == built

    def test_dumps_refuses_them(self):
        for obj, _ in _objects():
            with pytest.raises(TypeError, match=f"^cannot serialize {type(obj).__name__} to JSON$"):
                dumps(obj)


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

    @given(
        n=st.integers(min_value=2, max_value=6),
        scale=st.sampled_from([1e-300, 1.0, 1e16, 1e100]),
        unit=st.lists(st.floats(-1, 1), min_size=35, max_size=35),
        zeros=st.lists(st.sampled_from([None, None, None, 0.0, -0.0]), min_size=35, max_size=35),
    )
    @settings(max_examples=60, deadline=None)
    def test_choi_data_is_symmetric_with_closed_form_pair_blocks(self, n, scale, unit, zeros):
        # The channel is diag(1, t) in an orthonormal Hermitian basis, so it is self-adjoint:
        # D[r, i] = Phi(E_rr)_ii is symmetric, and each pair block [[L_l, b], [b, L_l]] has
        # eigenvalues L_l -+ |b|, on (1, -+1)/sqrt(2).  Each to the rounding of sums of n terms.
        t = np.array([u * scale if z is None else z for u, z in zip(unit, zeros)][: n * n - 1])
        ch = DiagonalChannel(n, t)
        slack = 8 * n * np.finfo(float).eps * (1 + np.abs(t).max())
        d = diagonal_image(ch, np.eye(n))
        assert np.abs(d - d.T).max() <= slack
        lower = channels._classical_vectors(ch)[0]
        b = np.abs(ch.t_x - ch.t_y) / 2
        choi = to_choi(ch, n)
        for q, (k, l) in enumerate(combinations(range(n), 2)):
            at = [k * n + l, l * n + k]
            block = choi[np.ix_(at, at)]
            assert abs(block[0, 0] - block[1, 1]) <= slack
            expected = [lower[l] - b[q], lower[l] + b[q]]
            np.testing.assert_allclose(np.linalg.eigvalsh(block), expected, rtol=0, atol=slack)

    def test_rejects_wrongly_shaped_images(self):
        with pytest.raises(ValueError, match="shape"):
            to_choi(lambda s: np.trace(s), 3)

    def test_oversized_choi_rejected_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=r"dense Choi matrix at dim 200: about 23\.8 GiB"):
            to_choi(lambda s: s, 200)
        with pytest.raises(ValueError, match=r"the Kraus operators at dim 98: about 2\.0 GiB"):
            kraus_from_family(Family.DEP, 0.5, 98)
        with pytest.raises(AssertionError, match="allocated"):
            kraus_from_family(Family.DEP, 0.5, 97)  # 1 + 3 n(n-1)/2 operators: just under 2 GiB


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

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_dimension_must_be_an_integer_from_two(self, n):
        with pytest.raises(SchemaError, match=f"^field 'dim': expected an integer >= 2, got {n!r}$"):
            repr_coefficients(Family.DEP, 0.1, n)

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
        np.testing.assert_allclose(ks[0], np.eye(3), atol=1e-15)

    def test_identity_dropped_at_dcq_upper_endpoint(self):
        # c0 vanishes at p = 1/(n-1)^2, so the identity operator drops out.
        n = 3
        ks = kraus_from_family(Family.DCQ, 0.25, n)
        assert len(ks) == 3 * pair_count(n)
        for op in ks:
            # Every remaining operator is a scaled generalized Pauli, hence traceless.
            assert abs(np.trace(op)) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(2, 10))
    def test_operators_match_pauli_matrix_bit_for_bit(self, family, n):
        # sqrt(c) times each pauli_matrix, in (I, x, y, z) order; bytes, so
        # the sign of zero counts (root * -1j has a +0.0 real part).
        lo, hi = (float(v) for v in cptp_range(family, n))
        for p in (lo, hi, (lo + hi) / 2):
            c = repr_coefficients(family, p, n)
            groups = [(c.c0, [np.eye(n, dtype=complex)])]
            for w, sector in zip((c.cx, c.cy, c.cz), "xyz"):
                pairs = combinations(range(1, n + 1), 2)
                groups.append((w, [pauli_matrix(n, sector, pr) for pr in pairs]))
            expected = [sqrt(w) * m for w, mats in groups if w > 4 * np.finfo(float).eps for m in mats]
            ks = kraus_from_family(family, p, n)
            assert len(ks) == len(expected), p
            assert b"".join(op.tobytes() for op in ks) == b"".join(m.tobytes() for m in expected), p

    def test_vanishing_weights_drop_out(self, monkeypatch):
        # One operator per weight that is exactly nonzero in rational
        # arithmetic, however its float rounds.  1x1 placeholders, one per
        # operator of the sector, stand in for the operators, so the sweep
        # to n = 64 stays small.
        monkeypatch.setattr(
            representations,
            "_scaled_operators",
            lambda root, entries, n: np.zeros((1 if entries is None else len(entries[0][0]), 1, 1)),
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

    @pytest.mark.parametrize("n", [*range(2, 41), 48, 64])
    def test_closed_form_completeness_equals_the_dense_sum(self, n):
        # Count and deviation from the weights alone, bit for bit against
        # the dense operators and kraus_completeness.
        for family in FAMILIES:
            lo, hi = (float(v) for v in cptp_range(family, n))
            for p in (lo, hi, (lo + hi) / 2, 0.0):
                ks = kraus_from_family(family, p, n)
                dense = float(np.max(np.abs(kraus_completeness(ks) - np.eye(n))))
                got = representations._kraus_count_and_deviation(family, p, n)
                assert got == (len(ks), dense, dense <= DEFAULT_TOL.bound(1.0)), (family, p)
                del ks  # n^4 entries: free before the next build

    def test_closed_form_builds_no_operator_and_keeps_the_range_check(self, monkeypatch):
        monkeypatch.setattr(representations, "_scaled_operators", None)
        assert representations._kraus_count_and_deviation(Family.DEP, 0.5, 500)[0] == 1 + 3 * pair_count(500)
        with pytest.raises(ValueError, match="c0"):
            representations._kraus_count_and_deviation(Family.DCQ, 0.5, 3)

    def test_closed_form_completeness_verdict_takes_the_tolerance(self):
        # trd at n = 2, p = 0.01 misses completeness by one ulp of 1.
        count, deviation, passed = representations._kraus_count_and_deviation(Family.TRD, 0.01, 2)
        assert (count, deviation, passed) == (4, 2.0**-52, True)
        tight = Tolerance(absolute=1e-16, relative=0.0)
        assert representations._kraus_count_and_deviation(Family.TRD, 0.01, 2, tight) == (4, 2.0**-52, False)

    def test_loose_tolerance_keeps_genuine_weights(self):
        # The drop threshold is float dust, not the caller's tolerance (``report --tol`` reaches it).
        count, deviation, _ = representations._kraus_count_and_deviation(Family.DEP, 0.5, 30, tol=Tolerance(1e-2, 1e-2))
        assert count == 1 + 3 * pair_count(30)
        assert deviation <= 1e-12

    def test_operators_are_a_tuple_and_completeness_takes_any_sequence(self):
        ks = kraus_from_family(Family.TRD, 0.2, 3)
        assert type(ks) is tuple and len(ks) == 1 + 3 * pair_count(3)
        total = kraus_completeness(ks)
        for operators in (list(ks), np.stack(ks)):
            assert kraus_completeness(operators).tobytes() == total.tobytes()
        with pytest.raises(ValueError, match="empty Kraus set"):
            kraus_completeness([])

    def test_out_of_range_names_coefficient(self):
        with pytest.raises(ValueError, match="c0"):
            kraus_from_family(Family.DCQ, 0.5, 3)
        with pytest.raises(ValueError, match="cy"):
            kraus_from_family(Family.TRD, 0.6, 3)

    @pytest.mark.parametrize("p", [float("nan"), True])
    def test_p_is_a_finite_number(self, p):
        # A NaN p made every weight NaN, so no weight was refused or kept: an empty Kraus set.
        for build in (kraus_from_family, representations._kraus_count_and_deviation):
            with pytest.raises(SchemaError, match="^field 'p': expected a finite number$"):
                build(Family.DEP, p, 3)

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
                np.testing.assert_allclose(kraus_action(ks, s), family_apply(ch, s), atol=1e-12)


def kraus_action(ks, s):
    """sum_i V_i S V_i† over a Kraus set."""
    return sum(op @ s @ op.conj().T for op in ks)


# The affine Stokes picture of a qubit map, kept as the oracle for QubitLambda's call.
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def stokes(s):
    """Stokes vector (Tr(sigma_x s), Tr(sigma_y s), Tr(sigma_z s)) of a Hermitian 2x2 matrix."""

    comps = np.array([np.trace(sig @ s) for sig in PAULIS])
    assert np.max(np.abs(comps.imag)) <= 1e-12
    return comps.real


def qubit_apply(l, m):
    """(Tr(m) I + sum_a (t_a Tr(m) + lam_a Tr(sigma_a m)) sigma_a) / 2 for one 2x2 matrix."""

    trace = complex(np.trace(m))
    out = trace * np.eye(2, dtype=complex)
    for t_a, lam_a, sig in zip(l.t, l.lam, PAULIS):
        out += (t_a * trace + lam_a * complex(np.trace(sig @ m))) * sig
    return out / 2


def qubit_norm_formula(l, a):
    """Squared output norm (1 + |t + lam * a|^2) / 2 on the pure state with unit Stokes vector a."""

    out = np.array(l.t) + np.array(l.lam) * np.asarray(a)
    return float((1 + np.dot(out, out)) / 2)


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
        out = l(s)
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
            np.testing.assert_allclose(l(s), family_apply(ch, s), atol=1e-14)

    def test_norm_formula_is_squared_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            l = QubitLambda(t=tuple(rng.uniform(-1, 1, 3)), lam=tuple(rng.uniform(-1, 1, 3)))
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            s = (np.eye(2, dtype=complex) + sum(c * sig for c, sig in zip(a, PAULIS))) / 2
            direct = frobenius_norm(l(s)) ** 2
            assert qubit_norm_formula(l, a) == pytest.approx(direct, abs=1e-13)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            QubitLambda(t=(0, 0), lam=(0, 0, 0))
        with pytest.raises(ValueError):
            QubitLambda(t=(0, 0, np.inf), lam=(0, 0, 0))

    def test_call_is_the_diagonal_channel_without_translation(self):
        lam = (0.4, -0.3, 0.2)
        s = random_pure_state(2, 14)
        np.testing.assert_array_equal(QubitLambda(t=(0, 0, 0), lam=lam)(s), DiagonalChannel(2, lam)(s))

    def test_call_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            QubitLambda(t=(0, 0, 0), lam=(1, 1, 1))(np.eye(3))


_UNIT = st.floats(min_value=-1, max_value=1, allow_nan=False)


@given(
    st.tuples(_UNIT, _UNIT, _UNIT),
    st.tuples(_UNIT, _UNIT, _UNIT),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_qubit_call_matches_the_affine_stokes_oracle(t, lam, stack, seed):
    # Complex (not only Hermitian) inputs, as one matrix or an (..., 2, 2) stack.
    l = QubitLambda(t=t, lam=lam)
    rng = np.random.default_rng(seed)
    shape = (*stack, 2, 2)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = l(m)
    assert out.shape == shape
    flat = m.reshape(-1, 2, 2)
    expected = np.array([qubit_apply(l, x) for x in flat]).reshape(shape)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


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


class TestStateValidation:
    def test_accepts_density_matrix(self):
        validate_state(np.eye(3, dtype=complex) / 3)

    def test_accepts_zero_eigenvalue(self):
        validate_state(np.diag([1.0, 0.0, 0.0]).astype(complex))

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

    def test_rejects_negative_at_an_overflowing_norm(self):
        with pytest.raises(ValueError, match=r"not positive semidefinite \(min eigenvalue -1e\+200\)"):
            validate_state(np.array([[0.5, 1e200], [1e200, 0.5]]))


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

    def test_only_channel_objects_are_written(self):
        with pytest.raises(TypeError, match="^expected FamilyChannel or DiagonalChannel, got function$"):
            channel_to_json(lambda s: s)

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

    @pytest.mark.parametrize("dim", [1, 0, True, 2.0, "3", None])
    def test_diagonal_dim_is_an_integer_of_at_least_two(self, dim):
        with pytest.raises(SchemaError) as info:
            channel_from_json({"kind": "diagonal", "dim": dim, "t": []})
        assert info.value.field == "dim"

    @pytest.mark.parametrize(
        "t, field",
        [
            ([True, 0, 0], "t[0]"),
            ([0, "x", 0], "t[1]"),
            ([0, 0, float("inf")], "t[2]"),
            ([float("nan"), 0, 0], "t[0]"),
            ([0, None, 0], "t[1]"),
            ([0, 0, 10**400], "t[2]"),  # an integer past the float range
        ],
    )
    def test_each_multiplier_is_a_finite_number(self, t, field):
        with pytest.raises(SchemaError) as info:
            channel_from_json({"kind": "diagonal", "dim": 2, "t": t})
        assert info.value.field == field

    @pytest.mark.parametrize("p", [True, "0.1", float("nan"), float("inf"), None, -(10**400)])
    def test_family_p_is_a_finite_number(self, p):
        with pytest.raises(SchemaError) as info:
            channel_from_json({"kind": "family", "family": "dep", "p": p, "dim": 3})
        assert info.value.field == "p"

