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

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, frobenius_norm, is_hermitian

__all__ = [
    "pair_count",
    "pairs",
    "index_from_pair",
    "pair_from_index",
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


def pairs(n: int) -> list[tuple[int, int]]:
    """All pairs (k, l), 1 <= k < l <= n, in lexicographic order."""
    _check_dim(n)
    return [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]


def index_from_pair(k: int, l: int, n: int) -> int:
    """1-based lexicographic position of the pair (k, l)."""
    _check_pair(n, (k, l))
    return (k - 1) * n - k * (k - 1) // 2 + (l - k)


def pair_from_index(i: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`index_from_pair`."""
    _check_dim(n)
    if not 1 <= i <= pair_count(n):
        raise ValueError(f"pair index {i} out of range 1..{pair_count(n)}")
    k = 1
    while i > n - k:
        i -= n - k
        k += 1
    return k, k + i


def pauli_matrix(n: int, sector: str, pair: tuple[int, int]) -> np.ndarray:
    """Unnormalized generalized Pauli matrix for the given sector and pair.

    ``sector`` is one of "x", "y", "z"; the z sector here is the two-level
    sigma_z(k,l) = E_kk - E_ll, distinct from the staircase :func:`m_z`.
    """

    _check_pair(n, pair)
    k, l = pair[0] - 1, pair[1] - 1
    m = np.zeros((n, n), dtype=complex)
    if sector == "x":
        m[k, l] = 1
        m[l, k] = 1
    elif sector == "y":
        m[k, l] = -1j
        m[l, k] = 1j
    elif sector == "z":
        m[k, k] = 1
        m[l, l] = -1
    else:
        raise ValueError(f"unknown sector {sector!r}, expected 'x', 'y' or 'z'")
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


@lru_cache(maxsize=None)
def _pauli_stacks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized sigma_x, sigma_y, sigma_z of every pair, as (pairs, n, n) stacks.

    Entry i of each read-only stack is :func:`pauli_matrix` of the i-th
    pair in lexicographic order; the z stack is the two-level sigma_z.
    """

    _check_dim(n)
    k, l = np.triu_indices(n, 1)
    i = np.arange(len(k))
    x, y, z = (np.zeros((len(k), n, n), dtype=complex) for _ in range(3))
    x[i, k, l] = x[i, l, k] = 1
    y[i, k, l] = -1j
    y[i, l, k] = 1j
    z[i, k, k] = 1
    z[i, l, l] = -1
    for stack in (x, y, z):
        stack.flags.writeable = False
    return x, y, z


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


@lru_cache(maxsize=None)
def build_basis(n: int) -> BasisE:
    """Construct (and cache) the orthonormal basis for dimension ``n``."""

    _check_dim(n)
    cnt = pair_count(n)
    x, y, _ = _pauli_stacks(n)
    j = np.arange(1, n)
    # Row j-1 is the diagonal of the staircase M_z(j): j ones, then -j.
    staircase = np.tri(n - 1, n, dtype=complex)
    staircase[j - 1, j] = -j
    stacked = np.zeros((n * n, n, n), dtype=complex)
    stacked[0] = np.eye(n, dtype=complex) / sqrt(n)
    stacked[1 : 1 + cnt] = x / sqrt(2)
    stacked[1 + cnt : 1 + 2 * cnt] = y / sqrt(2)
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


def _check_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")


def _check_pair(n: int, pair: tuple[int, int]) -> None:
    _check_dim(n)
    k, l = pair
    if not (1 <= k < l <= n):
        raise ValueError(f"pair {pair} violates 1 <= k < l <= {n}")
