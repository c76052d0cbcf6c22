"""Orthonormal Hermitian operator basis of the n x n matrix space.

The basis consists of the normalized identity, the pair-indexed
generalized Pauli matrices in the x and y sectors, and a "staircase"
family of traceless diagonal matrices in the z sector:

* ``sigma_x(k,l) = E_kl + E_lk`` and ``sigma_y(k,l) = -i E_kl + i E_lk``
  for 1 <= k < l <= n, each normalized by 1/sqrt(2);
* ``M_z(k) = diag(1, ..., 1, -k, 0, ..., 0)`` with k leading ones,
  normalized by 1/sqrt(k (k+1)), for k = 1 .. n-1.

Pairs are enumerated lexicographically: (1,2), (1,3), ..., (n-1,n).
The basis is orthonormal under the inner product Tr(a† b), and every
Hermitian matrix has real coordinates over it.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .exact import DEFAULT_TOL, _Frozen, _check_peak_bytes, pair_count
from .jsonio import integer
from .linalg import _pair_index, as_matrix, frobenius_norm, is_hermitian

__all__ = [
    "pauli_matrix",
    "BasisE",
    "build_basis",
    "decompose",
    "reconstruct",
]


def pauli_matrix(n: int, sector: str, pair: tuple[int, int]) -> np.ndarray:
    """Unnormalized generalized Pauli matrix for the given sector and pair.

    ``sector`` is one of "x", "y", "z"; the z sector here is the two-level
    sigma_z(k,l) = E_kk - E_ll, distinct from the basis's staircase M_z(k).
    """

    _check_pair(n, pair)
    if sector not in ("x", "y", "z"):
        raise ValueError(f"unknown sector {sector!r}, expected 'x', 'y' or 'z'")
    rows, cols, values = _pair_entries(pair[0] - 1, pair[1] - 1)[("x", "y", "z").index(sector)]
    m = np.zeros((n, n), dtype=complex)
    for r, c, v in zip(rows, cols, values):
        m[r, c] = v
    return m


def _staircase_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized staircase diagonals, row j-1 that of M_z(j) (j ones, then -j), and their norms sqrt(j (j+1)).

    Callers divide, the basis after its complex cast: dividing first would change the basis's last bits.
    """

    j = np.arange(1, n)
    rows = np.tri(n - 1, n)
    rows[j - 1, j] = -j
    return rows, np.sqrt(j * (j + 1))


def _pair_entries(k: np.ndarray, l: np.ndarray) -> tuple:
    """(rows, cols, values) of the two nonzeros of sigma_x, sigma_y and sigma_z, in that order.

    ``k``, ``l`` are zero-based pair indices, arrays or ints (:func:`pauli_matrix`); entry a
    of a sector's matrix for pair i is values[a] at (rows[a][i], cols[a][i]).
    """
    return ((k, l), (l, k), (1, 1)), ((k, l), (l, k), (-1j, 1j)), ((k, l), (k, l), (1, -1))


class BasisE(_Frozen):
    """Orthonormal Hermitian basis, ordered identity / x / y / z.

    ``labels[i]`` is a ("0"|"x"|"y"|"z", index) tag: x and y indices count
    pairs lexicographically (1..N), z indices count staircase matrices
    (1..n-1).  ``stacked`` holds the elements as a read-only (n^2, n, n)
    array, element i at ``stacked[i]``.
    """

    _fields = ("dim", "labels", "stacked")

    def __init__(self, dim: int, labels: tuple, stacked: np.ndarray) -> None:
        self._set(dim, labels, stacked)

    def __len__(self) -> int:
        return len(self.stacked)


def build_basis(n: int) -> BasisE:
    """Construct the orthonormal basis for dimension ``n``: O(n^4), refused past 2 GiB."""

    n = integer(n, "dim", 2)
    cnt = pair_count(n)
    _check_peak_bytes("basis", n)
    k, l = _pair_index(n)
    i = np.arange(cnt)
    staircase, norms = _staircase_rows(n)
    stacked = np.zeros((n * n, n, n), dtype=complex)
    stacked[0] = np.eye(n, dtype=complex) / sqrt(n)
    for first, (rows, cols, values) in zip((1, 1 + cnt), _pair_entries(k, l)):
        for r, c, v in zip(rows, cols, values):
            stacked[first + i, r, c] = v / sqrt(2)
    idx = np.arange(n)
    stacked[1 + 2 * cnt :, idx, idx] = staircase.astype(complex) / norms[:, None]
    stacked.flags.writeable = False
    labels = [("0", 1)] + [(sector, i) for sector in ("x", "y") for i in range(1, cnt + 1)]
    labels += [("z", k) for k in range(1, n)]
    return BasisE(dim=n, labels=tuple(labels), stacked=stacked)


def decompose(s: np.ndarray, basis: BasisE) -> np.ndarray:
    """Real coordinates of a Hermitian matrix over the basis (length n^2), both checks at ``DEFAULT_TOL``."""

    s = as_matrix(s, name="state")
    if s.shape[0] != basis.dim:
        raise ValueError(f"dimension mismatch: matrix is {s.shape[0]}x{s.shape[0]}, basis dim {basis.dim}")
    if not is_hermitian(s):
        raise ValueError("decompose expects a Hermitian matrix")
    # Tr(e† s) = Tr(e s) for Hermitian basis elements.
    coeffs = np.einsum("kij,ji->k", basis.stacked, s)
    if float(np.max(np.abs(coeffs.imag))) > DEFAULT_TOL.bound(frobenius_norm(s)):
        raise ValueError("coefficients have non-negligible imaginary parts")
    return np.ascontiguousarray(coeffs.real)


def reconstruct(coeffs: np.ndarray, basis: BasisE) -> np.ndarray:
    """Sum of coefficients times basis elements."""

    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.dim * basis.dim,):
        raise ValueError(
            f"expected {basis.dim * basis.dim} coefficients, got shape {coeffs.shape}"
        )
    return np.einsum("k,kij->ij", coeffs.astype(complex), basis.stacked)


def _check_pair(n: int, pair: tuple[int, int]) -> None:
    integer(n, "dim", 2)
    k, l = pair
    if not (1 <= k < l <= n):
        raise ValueError(f"pair {pair} violates 1 <= k < l <= {n}")
