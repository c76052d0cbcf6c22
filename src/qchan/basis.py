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

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .exact import _check_basis_bytes, _check_dim
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, frobenius_norm, is_hermitian

__all__ = [
    "pair_count",
    "pauli_matrix",
    "m_z",
    "BasisE",
    "build_basis",
    "decompose",
    "reconstruct",
]


def pair_count(n: int) -> int:
    """Number of index pairs 1 <= k < l <= n."""
    _check_dim(n)
    return n * (n - 1) // 2


# Dimensions whose per-n index tables stay cached: each is O(n^2), but an
# unbounded cache would keep every dimension a process ever asked for.
_CACHED_DIMS = 4


@lru_cache(maxsize=_CACHED_DIMS)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (k, l) index arrays of the pairs k < l in lexicographic order; read-only."""
    k, l = np.triu_indices(n, 1)
    k.flags.writeable = False
    l.flags.writeable = False
    return k, l


def pauli_matrix(n: int, sector: str, pair: tuple[int, int]) -> np.ndarray:
    """Unnormalized generalized Pauli matrix for the given sector and pair.

    ``sector`` is one of "x", "y", "z"; the z sector here is the two-level
    sigma_z(k,l) = E_kk - E_ll, distinct from the staircase :func:`m_z`.
    """

    _check_pair(n, pair)
    if sector not in ("x", "y", "z"):
        raise ValueError(f"unknown sector {sector!r}, expected 'x', 'y' or 'z'")
    rows, cols, values = _pair_entries(pair[0] - 1, pair[1] - 1)[("x", "y", "z").index(sector)]
    m = np.zeros((n, n), dtype=complex)
    for r, c, v in zip(rows, cols, values):
        m[r, c] = v
    return m


def m_z(n: int, k: int) -> np.ndarray:
    """Traceless diagonal diag(1 x k, -k, 0, ...); squared norm k (k+1)."""

    _check_dim(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"staircase index {k} out of range 1..{n - 1}")
    d = np.zeros(n, dtype=complex)
    d[:k] = 1
    d[k] = -k
    return np.diag(d)


def _pair_entries(k: np.ndarray, l: np.ndarray) -> tuple:
    """(rows, cols, values) of the two nonzeros of sigma_x, sigma_y and sigma_z, in that order.

    ``k``, ``l`` are zero-based pair indices, arrays or ints (:func:`pauli_matrix`); entry a
    of a sector's matrix for pair i is values[a] at (rows[a][i], cols[a][i]).
    """
    return ((k, l), (l, k), (1, 1)), ((k, l), (l, k), (-1j, 1j)), ((k, l), (k, l), (1, -1))


@dataclass(frozen=True)
class BasisE:
    """Orthonormal Hermitian basis, ordered identity / x / y / z.

    ``labels[i]`` is a ("0"|"x"|"y"|"z", index) tag: x and y indices count
    pairs lexicographically (1..N), z indices count staircase matrices
    (1..n-1).  ``stacked`` holds the elements as an (n^2, n, n) array;
    ``elements`` are read-only views into it.
    """

    dim: int
    labels: tuple[tuple[str, int], ...]
    elements: tuple[np.ndarray, ...]
    stacked: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)


def build_basis(n: int) -> BasisE:
    """Construct the orthonormal basis for dimension ``n``: O(n^4), refused past 2 GiB."""

    cnt = pair_count(n)
    _check_basis_bytes(n)
    k, l = _pair_index(n)
    i = np.arange(cnt)
    j = np.arange(1, n)
    # Row j-1 is the diagonal of the staircase M_z(j): j ones, then -j.
    staircase = np.tri(n - 1, n, dtype=complex)
    staircase[j - 1, j] = -j
    stacked = np.zeros((n * n, n, n), dtype=complex)
    stacked[0] = np.eye(n, dtype=complex) / sqrt(n)
    for first, (rows, cols, values) in zip((1, 1 + cnt), _pair_entries(k, l)):
        for r, c, v in zip(rows, cols, values):
            stacked[first + i, r, c] = v / sqrt(2)
    idx = np.arange(n)
    stacked[1 + 2 * cnt :, idx, idx] = staircase / np.sqrt(j * (j + 1))[:, None]
    stacked.flags.writeable = False
    labels = [("0", 1)] + [(sector, i) for sector in ("x", "y") for i in range(1, cnt + 1)]
    labels += [("z", k) for k in range(1, n)]
    return BasisE(dim=n, labels=tuple(labels), elements=tuple(stacked), stacked=stacked)


def decompose(s: np.ndarray, basis: BasisE, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real coordinates of a Hermitian matrix over the basis (length n^2)."""

    s = as_matrix(s, name="state")
    if s.shape[0] != basis.dim:
        raise ValueError(f"dimension mismatch: matrix is {s.shape[0]}x{s.shape[0]}, basis dim {basis.dim}")
    if not is_hermitian(s, tol):
        raise ValueError("decompose expects a Hermitian matrix")
    # Tr(e† s) = Tr(e s) for Hermitian basis elements.
    coeffs = np.einsum("kij,ji->k", basis.stacked, s)
    if float(np.max(np.abs(coeffs.imag))) > tol.bound(frobenius_norm(s)):
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
    _check_dim(n)
    k, l = pair
    if not (1 <= k < l <= n):
        raise ValueError(f"pair {pair} violates 1 <= k < l <= {n}")
