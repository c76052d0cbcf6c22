from itertools import combinations
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import representations
from qchan.basis import _pair_entries, _staircase_rows, build_basis, decompose, pauli_matrix, reconstruct
from qchan.exact import DEFAULT_TOL, pair_count
from qchan.linalg import _pair_index, _pair_positions, frobenius_norm, is_hermitian

from dense_oracles import m_z

DIMS = [2, 3, 4, 5, 6]


class TestPairIndexing:
    def test_count(self):
        assert [pair_count(n) for n in DIMS] == [1, 3, 6, 10, 15]

    def test_lexicographic_order(self):
        k, l = _pair_index(4)
        assert list(zip(k + 1, l + 1)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


class TestPauliMatrices:
    def test_x_qubit(self):
        np.testing.assert_array_equal(
            pauli_matrix(2, "x", (1, 2)), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_y_entry_placement(self):
        # (n=3, y, pair (1,3)): -i at position (1,3), +i at (3,1).
        m = pauli_matrix(3, "y", (1, 3))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = -1j
        expected[2, 0] = 1j
        np.testing.assert_array_equal(m, expected)

    def test_z_two_level(self):
        np.testing.assert_array_equal(
            pauli_matrix(3, "z", (1, 2)), np.diag([1, -1, 0]).astype(complex)
        )

    @pytest.mark.parametrize("n", DIMS)
    @pytest.mark.parametrize("sector", ["x", "y", "z"])
    def test_hermitian_traceless(self, n, sector):
        for pr in combinations(range(1, n + 1), 2):
            m = pauli_matrix(n, sector, pr)
            np.testing.assert_array_equal(m, m.conj().T)
            assert np.trace(m) == 0

    def test_squared_norm_two(self):
        for sector in ("x", "y", "z"):
            m = pauli_matrix(4, sector, (2, 4))
            assert np.vdot(m, m).real == pytest.approx(2.0)

    def test_bad_sector(self):
        with pytest.raises(ValueError, match="sector"):
            pauli_matrix(3, "w", (1, 2))

    def test_bad_pair(self):
        with pytest.raises(ValueError, match=r"^pair \(2, 2\) violates 1 <= k < l <= 3$"):
            pauli_matrix(3, "x", (2, 2))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_are_the_written_out_matrices(self, n):
        # pauli_matrix reads the pair entry table; its entries written out one by one.
        for k, l in combinations(range(1, n + 1), 2):
            expected = {sector: np.zeros((n, n), dtype=complex) for sector in "xyz"}
            expected["x"][k - 1, l - 1] = expected["x"][l - 1, k - 1] = 1
            expected["y"][k - 1, l - 1] = -1j
            expected["y"][l - 1, k - 1] = 1j
            expected["z"][k - 1, k - 1] = 1
            expected["z"][l - 1, l - 1] = -1
            for sector, m in expected.items():
                assert pauli_matrix(n, sector, (k, l)).tobytes() == m.tobytes()


class TestStaircase:
    def test_example(self):
        np.testing.assert_array_equal(m_z(4, 3), np.diag([1, 1, 1, -3]).astype(complex))

    def test_squared_norm(self):
        # Tr(M^2) = k (k + 1); k = 3 gives 12.
        m = m_z(4, 3)
        assert np.vdot(m, m).real == pytest.approx(12.0)

    @pytest.mark.parametrize("n", DIMS)
    def test_traceless(self, n):
        for k in range(1, n):
            assert np.trace(m_z(n, k)) == 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            m_z(3, 3)
        with pytest.raises(ValueError):
            m_z(3, 0)

    def test_rows_are_the_m_z_diagonals(self):
        # Bit for bit, and so is the Gram matrix of the conjugation sums built from them.
        for n in range(2, 65):
            rows, _ = _staircase_rows(n)
            diagonals = np.array([np.diag(m_z(n, k)).real for k in range(1, n)])
            assert rows.tobytes() == diagonals.tobytes()
            z = np.array([d / sqrt(k * (k + 1)) for k, d in enumerate(diagonals, 1)])
            assert representations._staircase_gram(n).tobytes() == (z.T @ z).tobytes()


class TestBasis:
    @pytest.mark.parametrize("n", DIMS)
    def test_orthonormal(self, n):
        basis = build_basis(n)
        assert len(basis) == n * n
        gram = np.array(
            [[np.vdot(a, b).real for b in basis.stacked] for a in basis.stacked]
        )
        np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)

    @pytest.mark.parametrize("n", DIMS)
    def test_label_layout(self, n):
        basis = build_basis(n)
        cnt = pair_count(n)
        sectors = [sector for sector, _ in basis.labels]
        assert sectors == ["0"] + ["x"] * cnt + ["y"] * cnt + ["z"] * (n - 1)

    def test_qubit_basis_is_normalized_paulis(self):
        basis = build_basis(2)
        expected = [
            np.eye(2) / np.sqrt(2),
            np.array([[0, 1], [1, 0]]) / np.sqrt(2),
            np.array([[0, -1j], [1j, 0]]) / np.sqrt(2),
            np.array([[1, 0], [0, -1]]) / np.sqrt(2),
        ]
        for element, want in zip(basis.stacked, expected):
            np.testing.assert_allclose(element, want, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_elements_match_the_single_matrix_builders(self, n):
        # Bit for bit, so the sign of every zero counts: sigma_y's -1j entry
        # divided by sqrt(2) keeps a -0.0 real part, which `basis --json` prints.
        basis = build_basis(n)
        expected = [np.eye(n, dtype=complex) / sqrt(n)]
        pairs = list(combinations(range(1, n + 1), 2))
        expected += [pauli_matrix(n, sector, pr) / sqrt(2) for sector in "xy" for pr in pairs]
        expected += [m_z(n, k) / np.sqrt(k * (k + 1)) for k in range(1, n)]
        assert basis.stacked.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n", DIMS)
    def test_pauli_stacks_match_pauli_matrix(self, n):
        # The pair entry table, scattered into one stack per sector, gives
        # pauli_matrix of every pair in lexicographic order.
        k, l = np.triu_indices(n, 1)
        for sector, (rows, cols, values) in zip("xyz", _pair_entries(k, l)):
            stack = np.zeros((len(k), n, n), dtype=complex)
            for r, c, v in zip(rows, cols, values):
                stack[np.arange(len(k)), r, c] = v
            pairs = combinations(range(1, n + 1), 2)
            expected = np.array([pauli_matrix(n, sector, pr) for pr in pairs])
            assert stack.tobytes() == expected.tobytes()

    def test_cached(self):
        # The O(n) pair index and the O(n^2) staircase Gram matrix are the
        # per-dimension caches; the basis is built per call and kept by no one.
        assert _pair_index(3) is _pair_index(3)
        assert representations._staircase_gram(3) is representations._staircase_gram(3)
        assert build_basis(3) is not build_basis(3)

    def test_caches_are_bounded(self):
        # Every per-dimension cache keeps only a few dimensions.
        for cached in (_pair_index, _pair_positions, representations._staircase_gram):
            for n in range(2, 12):
                cached(n)
            info = cached.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize < 10

    def test_oversized_basis_rejected_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=r"the basis at dim 108: about 2\.0 GiB"):
            build_basis(108)
        with pytest.raises(AssertionError, match="allocated"):
            build_basis(107)  # 16 n^4 bytes is just under 2 GiB

    def test_elements_read_only(self):
        basis = build_basis(3)
        with pytest.raises(ValueError):
            basis.stacked[0][0, 0] = 5


class TestDecompose:
    def test_projector_qubit(self):
        basis = build_basis(2)
        coeffs = decompose(np.diag([1.0, 0.0]).astype(complex), basis)
        np.testing.assert_allclose(coeffs, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)

    def test_projector_qutrit_z_sector(self):
        basis = build_basis(3)
        coeffs = decompose(np.diag([1.0, 0.0, 0.0]).astype(complex), basis)
        np.testing.assert_allclose(coeffs[:1], [1 / np.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(coeffs[1:7], np.zeros(6), atol=1e-15)
        np.testing.assert_allclose(coeffs[7:], [1 / np.sqrt(2), 1 / np.sqrt(6)], atol=1e-15)

    def test_maximally_mixed(self):
        basis = build_basis(4)
        coeffs = decompose(np.eye(4, dtype=complex) / 4, basis)
        expected = np.zeros(16)
        expected[0] = 1 / 2  # Tr(I/sqrt(4) * I/4) = 1/2
        np.testing.assert_allclose(coeffs, expected, atol=1e-15)

    @pytest.mark.parametrize("n", DIMS)
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        basis = build_basis(n)
        for _ in range(20):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = (g + g.conj().T) / 2
            coeffs = decompose(s, basis)
            assert coeffs.dtype == np.float64
            assert coeffs.shape == (n * n,)
            np.testing.assert_allclose(reconstruct(coeffs, basis), s, atol=1e-12)

    @pytest.mark.parametrize("n", DIMS)
    def test_pure_state_coefficient_norm(self, n):
        # Purity: the traceless coefficients of a pure state satisfy
        # sum a_i^2 = 1 - 1/n.
        rng = np.random.default_rng(100 + n)
        basis = build_basis(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        coeffs = decompose(np.outer(v, v.conj()), basis)
        assert np.dot(coeffs[1:], coeffs[1:]) == pytest.approx(1 - 1 / n, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            decompose(np.array([[0, 1], [0, 0]], dtype=complex), build_basis(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            decompose(np.eye(3, dtype=complex), build_basis(2))

    def test_rejects_imaginary_coefficients_of_a_nearly_hermitian_input(self):
        # I/5 + i eps J deviates from its adjoint by 2 eps, within the Hermitian
        # check's bound, but its identity coefficient has imaginary part sqrt(5) eps.
        s = np.eye(5, dtype=complex) / 5
        eps = 0.45 * DEFAULT_TOL.bound(frobenius_norm(s))
        s += 1j * eps * np.ones((5, 5))
        assert is_hermitian(s)
        with pytest.raises(ValueError, match="^coefficients have non-negligible imaginary parts$"):
            decompose(s, build_basis(5))

    def test_reconstruct_length_check(self):
        with pytest.raises(ValueError, match="coefficients"):
            reconstruct(np.zeros(5), build_basis(2))


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_decomposition_is_linear(n, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(n)
    g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s1 = (g1 + g1.conj().T) / 2
    s2 = (g2 + g2.conj().T) / 2
    c = decompose(s1 + 0.5 * s2, basis)
    np.testing.assert_allclose(c, decompose(s1, basis) + 0.5 * decompose(s2, basis), atol=1e-12)
