import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan.jsonio import SchemaError
from qchan.linalg import (
    DEFAULT_TOL,
    Tolerance,
    frobenius_norm,
    hermitian_eigenvalues,
    is_hermitian,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    partial_trace_second,
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


class TestPsd:
    def test_projector_is_psd(self):
        ok, smallest = is_psd(np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert ok
        assert smallest == pytest.approx(0.0, abs=1e-15)

    def test_negative_eigenvalue_detected(self):
        ok, smallest = is_psd(np.diag([1.0, -0.5]).astype(complex))
        assert not ok
        assert smallest == pytest.approx(-0.5, abs=1e-14)

    def test_threshold_scales_with_norm(self):
        # A tiny negative eigenvalue on a large-norm matrix still verifies.
        m = np.diag([1e6, -1e-6]).astype(complex)
        ok, _ = is_psd(m, Tolerance(absolute=0.0, relative=1e-10))
        assert ok


class TestPartialTrace:
    def test_traces_out_second_factor(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            partial_trace_second(np.kron(a, b), 3), a * np.trace(b), atol=1e-12
        )

    def test_shape_check(self):
        with pytest.raises(ValueError, match="expected shape"):
            partial_trace_second(np.eye(5), 2)


class TestTolerance:
    def test_combined_bound(self):
        tol = Tolerance(absolute=1e-10, relative=1e-10)
        assert tol.close(1.0, 1.0 + 5e-11)
        assert not tol.close(1.0, 1.0 + 5e-10)
        # Relative part dominates at large scale.
        assert tol.close(1e6, 1e6 + 5e-5)

    def test_defaults(self):
        assert DEFAULT_TOL.absolute == 1e-10
        assert DEFAULT_TOL.relative == 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(absolute=-1.0)


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
