import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan.channels import validate_state
from qchan.exact import DEFAULT_TOL, Tolerance
from qchan.jsonio import SchemaError
from qchan.linalg import (
    _row_norms,
    as_matrix,
    as_matrix_stack,
    frobenius_norm,
    hermitian_eigenvalues,
    hermitian_part,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestFrobeniusNorm:
    def test_identity(self):
        assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3), abs=1e-15)

    def test_integer_matrix(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert frobenius_norm(m) == pytest.approx(np.sqrt(30), abs=1e-14)

    def test_matches_inner_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert frobenius_norm(m) ** 2 == pytest.approx(np.vdot(m, m).real, rel=1e-12)

    def test_overflowing_sum_of_squares_is_rescaled(self):
        # The squares of 1e154 overflow; the length itself does not.
        assert frobenius_norm(np.full((2, 2), 1e154)) == 2e154
        assert frobenius_norm(np.array([[complex(1e308, 1e308)]])) == pytest.approx(np.sqrt(2) * 1e308)

    def test_past_the_float_range_or_non_finite_is_inf(self):
        assert frobenius_norm(np.full((2, 2), 1e308)) == np.inf
        assert frobenius_norm(np.array([[np.inf, 0.0]])) == np.inf

    def test_plain_norm_keeps_its_bits(self):
        rng = np.random.default_rng(2)
        for scale in (1e-300, 1.0, 1e150):
            m = scale * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            assert frobenius_norm(m) == float(np.linalg.norm(m))

    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_stacked_norms_are_each_matrix_norm(self, n):
        # The rows of a flattened stack keep the bits of each matrix's norm alone,
        # from entries far below 1 to entries past the magnitude bound of 1e100.
        rng = np.random.default_rng(n)
        scales = np.array([1e-300, 1.0, 1e100, 1e150])
        m = scales[:, None, None] * (rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n)))
        expected = [frobenius_norm(one) for one in m]
        assert _row_norms(m.reshape(4, -1)).tobytes() == np.array(expected).tobytes()

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            u, v = random_unitary(5, rng), random_unitary(5, rng)
            assert frobenius_norm(u @ m @ v) == pytest.approx(frobenius_norm(m), rel=1e-12)


class TestEigenvalues:
    def test_ascending_order(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            eigs = hermitian_eigenvalues(random_hermitian(5, rng))
            assert np.all(np.diff(eigs) >= 0)

    def test_sum_is_trace(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(6, rng)
        assert hermitian_eigenvalues(m).sum() == pytest.approx(np.trace(m).real, rel=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_unitary_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(4, rng)
        u = random_unitary(4, rng)
        np.testing.assert_allclose(
            hermitian_eigenvalues(u @ m @ u.conj().T),
            hermitian_eigenvalues(m),
            atol=1e-12,
        )


class TestHermitianPart:
    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3), (2, 3, 3), (2, 4, 5, 5)])
    def test_acts_on_each_matrix_of_a_stack(self, shape):
        # A stack is not one matrix: (m + m^dagger)/2 pairs entries within each matrix.
        rng = np.random.default_rng(len(shape))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = hermitian_part(m)
        flat = m.reshape(-1, shape[-1], shape[-1])
        expected = np.array([(a + a.conj().T) / 2 for a in flat]).reshape(shape)
        assert got.tobytes() == expected.tobytes()


class TestAsMatrixStack:
    @pytest.mark.parametrize(
        "entry", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 1), complex(1, -np.inf)]
    )
    def test_rejects_a_non_finite_part(self, entry):
        m = np.zeros((3, 2, 2), dtype=complex)
        m[1, 0, 1] = entry
        with pytest.raises(ValueError, match=r"^stack contains non-finite entries$"):
            as_matrix_stack(m, "stack")

    def test_accepts_finite_entries(self):
        m = np.full((3, 2, 2), complex(1e308, -1e308))
        assert as_matrix_stack(m) is m

    def test_as_matrix_refuses_a_vector(self):
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(3,\)$"):
            as_matrix(np.zeros(3))


class TestPsd:
    # The positive-semidefinite check runs in `validate_state`: the smallest
    # eigenvalue of `hermitian_part` against a bound scaled by `frobenius_norm`.
    def test_negative_eigenvalue_detected(self):
        with pytest.raises(ValueError, match=r"^state is not positive semidefinite \(min eigenvalue -0\.5\d*\)$"):
            validate_state(np.diag([1.5, -0.5]).astype(complex))

    def test_overflowing_norm_does_not_make_any_matrix_psd(self):
        # The squares of 1e154 sum past the float maximum; the threshold stays finite.
        with pytest.raises(ValueError, match=re.escape("not positive semidefinite (min eigenvalue -1e+154)")):
            validate_state(np.array([[0.5, 1e154], [1e154, 0.5]]))


class TestTolerance:
    def test_combined_bound(self):
        tol = Tolerance(absolute=1e-10, relative=1e-10)
        assert tol.close(1.0, 1.0 + 5e-11)
        assert not tol.close(1.0, 1.0 + 5e-10)
        # Relative part dominates at large scale.
        assert tol.close(1e6, 1e6 + 5e-5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_close_rejects_non_finite_in_either_position(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DEFAULT_TOL.close(bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            DEFAULT_TOL.close(1.0, bad)

    def test_defaults(self):
        assert DEFAULT_TOL.absolute == 1e-10
        assert DEFAULT_TOL.relative == 1e-10

    def test_rejects_negative(self):
        # Keyword, positional and _replace construction all run the check.
        for build in (
            lambda: Tolerance(absolute=-1.0),
            lambda: Tolerance(1e-10, -1.0),
            lambda: DEFAULT_TOL._replace(relative=-1.0),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                build()

    @pytest.mark.parametrize("part", [np.inf, np.nan])
    def test_rejects_non_finite(self, part):
        # An infinite part would pass every check and a NaN part fail every one.
        for build in (
            lambda: Tolerance(absolute=part, relative=0.0),
            lambda: Tolerance(1e-10, part),
            lambda: DEFAULT_TOL._replace(absolute=part),
        ):
            with pytest.raises(ValueError, match="^tolerance components must be finite and non-negative, got "):
                build()

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_is_refused(self, scale):
        with pytest.raises(ValueError, match="non-finite scale"):
            DEFAULT_TOL.bound(scale)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_scaling_homogeneity(n, scale, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert frobenius_norm(scale * m) == pytest.approx(abs(scale) * frobenius_norm(m), abs=1e-9)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_layout(self):
        encoded = matrix_to_json(np.array([[1, 2j], [3, 4]], dtype=complex))
        assert encoded["rows"] == 2 and encoded["cols"] == 2
        assert encoded["data"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="data"):
            matrix_from_json({"rows": 2, "cols": 2})

    def test_wrong_length(self):
        with pytest.raises(SchemaError, match="pairs"):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_non_square(self):
        with pytest.raises(SchemaError, match="square"):
            matrix_from_json({"rows": 2, "cols": 3, "data": [[0, 0]] * 6})

    def test_bad_entry(self):
        with pytest.raises(SchemaError, match=r"data\[0\]"):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[0, 0, 0]]})

    @pytest.mark.parametrize("part", [True, "1", None, float("inf"), float("nan"), 10**400])
    def test_each_part_is_a_finite_number(self, part):
        with pytest.raises(SchemaError) as info:
            matrix_from_json({"rows": 1, "cols": 1, "data": [[0, part]]}, context="state")
        assert info.value.field == "state.data[0][1]"

    def test_entries_take_no_magnitude_bound(self):
        # The 1e100 bound is on a channel's p and t_i; an output entry may pass it and still be read back.
        assert matrix_from_json({"rows": 1, "cols": 1, "data": [[1e200, -1e300]]})[0, 0] == complex(1e200, -1e300)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "2", None])
    def test_shape_is_a_positive_integer(self, field, value):
        obj = {"rows": 2, "cols": 2, "data": [[0, 0]] * 4, field: value}
        with pytest.raises(SchemaError) as info:
            matrix_from_json(obj, context="state")
        assert info.value.field == f"state.{field}"
