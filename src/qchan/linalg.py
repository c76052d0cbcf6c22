"""Dense complex-matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
The helpers are thin wrappers over LAPACK (through ``numpy.linalg``)
fixing the conventions everything downstream relies on: eigenvalues come
back ascending, Hermitian inputs are symmetrized before eigensolves, and
thresholds scale with the Frobenius norm of the operator.
The index arrays of the pairs k < l, and the steps 1..n-1 of the
z-sector staircase with their arithmetic, which the basis, the channels
and the checks share, are cached here.  The tolerances they take,
``Tolerance`` and ``DEFAULT_TOL``, are in :mod:`qchan.exact`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

import numpy as np

from .exact import DEFAULT_TOL, Tolerance
from .jsonio import SchemaError, finite_number, require, require_int

__all__ = [
    "as_matrix",
    "as_matrix_stack",
    "frobenius_norm",
    "is_hermitian",
    "hermitian_part",
    "hermitian_eigenvalues",
    "matrix_to_json",
    "matrix_from_json",
]


def as_matrix(m: Any, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array, rejecting non-finite entries."""

    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return as_matrix_stack(arr, name)


def as_matrix_stack(m: Any, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex128 array of shape (..., n, n), rejecting non-finite entries."""

    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # a complex entry is finite iff both parts are
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt(Tr(m† m)) — the Hilbert–Schmidt length of ``m``.

    Where the plain sum of squares overflows but every entry is finite, the
    norm is taken of ``m`` divided by its largest real or imaginary part and
    scaled back, so it is ``inf`` only if the length itself is past the float range.
    """

    m = np.asarray(m)
    with np.errstate(over="ignore"):  # an overflow is handled below
        norm = float(np.linalg.norm(m))
    if norm == np.inf and np.isfinite(m).all():
        scale = max(float(np.max(np.abs(m.real))), float(np.max(np.abs(m.imag))))
        norm = scale * float(np.linalg.norm(m / scale))
    return norm


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (k, m) complex array, bit for bit: it is sqrt(re . re + im . im)
    over the strided real and imaginary views, and the (k, 1, m) @ (k, m, 1) products make those dot calls."""

    re, im = v.real, v.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 of a matrix, or of each matrix of an (..., n, n) stack."""
    m = np.asarray(m, dtype=complex)
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    return dev <= tol.bound(frobenius_norm(m))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix.

    The input is symmetrized before the eigensolve so that float dust off
    the diagonal cannot leak imaginary parts into the result; genuinely
    non-Hermitian inputs (past ``DEFAULT_TOL``) are rejected.
    """

    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(hermitian_part(m))


# Dimensions whose per-n index tables stay cached: each is O(n^2), but an
# unbounded cache would keep every dimension a process ever asked for.
_CACHED_DIMS = 4


@lru_cache(maxsize=2 * _CACHED_DIMS)
def _pair_index(n: int, by_l: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based (k, l) index arrays of the pairs k < l in lexicographic order, or by l, then k; read-only."""
    l, k = np.tril_indices(n, -1) if by_l else np.triu_indices(n, 1)[::-1]
    k.flags.writeable = False
    l.flags.writeable = False
    return k, l


@lru_cache(maxsize=_CACHED_DIMS)
def _steps(n: int) -> np.ndarray:
    """The staircase steps j = 1..n-1 of the z sector, as floats (exact, so products keep the bits
    of integer steps, without a cast per call); read-only."""
    j = np.arange(1.0, n)
    j.flags.writeable = False
    return j


@lru_cache(maxsize=_CACHED_DIMS)
def _squares(n: int) -> np.ndarray:
    """(i - 1)^2 for i = 0..n, the squares of -1, 0, ..., n - 1, as floats; read-only."""
    squares = np.arange(-1.0, n) ** 2
    squares.flags.writeable = False
    return squares


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as {"rows", "cols", "data"} with row-major [re, im] pairs."""

    m = as_matrix(m)
    data = [[float(entry.real), float(entry.imag)] for entry in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: Any, context: str = "matrix") -> np.ndarray:
    rows = require_int(obj, "rows", 1, context)
    cols = require_int(obj, "cols", 1, context)
    data = require(obj, "data", context)
    if rows != cols:
        raise SchemaError(f"{context}.cols", f"expected a square matrix, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"{context}.data", f"expected {rows * cols} [re, im] pairs")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{context}.data[{i}]", "expected an [re, im] pair of numbers")
        re, im = (finite_number(x, f"{context}.data[{i}][{j}]") for j, x in enumerate(pair))
        flat[i] = complex(re, im)
    return flat.reshape(rows, cols)
