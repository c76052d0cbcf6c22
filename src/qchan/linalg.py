"""Dense complex-matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
The helpers are thin wrappers over LAPACK (through ``numpy.linalg``)
fixing the conventions everything downstream relies on: eigenvalues come
back ascending, Hermitian inputs are symmetrized before eigensolves, and
positivity thresholds scale with the Frobenius norm of the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .jsonio import SchemaError, require

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_matrix_stack",
    "frobenius_norm",
    "is_hermitian",
    "hermitian_part",
    "hermitian_eigenvalues",
    "is_psd",
    "partial_trace_second",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerance:
    """Combined absolute/relative threshold.

    Two reals compare equal when ``|x - y| <= absolute + relative * max(|x|, |y|)``.
    """

    absolute: float = 1e-10
    relative: float = 1e-10

    def __post_init__(self) -> None:
        if self.absolute < 0 or self.relative < 0:
            raise ValueError("tolerance components must be non-negative")

    def bound(self, scale: float) -> float:
        """Largest deviation accepted at the given magnitude scale."""
        return self.absolute + self.relative * abs(scale)

    def close(self, x: float, y: float) -> bool:
        return abs(x - y) <= self.bound(max(abs(x), abs(y)))


DEFAULT_TOL = Tolerance()


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
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt(Tr(m† m)) — the Hilbert–Schmidt length of ``m``."""
    return float(np.linalg.norm(np.asarray(m)))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    return dev <= tol.bound(frobenius_norm(m))


def hermitian_eigenvalues(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix.

    The input is symmetrized before the eigensolve so that float dust off
    the diagonal cannot leak imaginary parts into the result; genuinely
    non-Hermitian inputs are rejected.
    """

    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(hermitian_part(m))


def is_psd(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(verdict, smallest eigenvalue) for Hermitian positive semidefiniteness.

    The acceptance threshold scales with the Frobenius norm of ``m`` so a
    matrix with an analytically zero eigenvalue still verifies as PSD.
    """

    eigs = hermitian_eigenvalues(m, tol)
    smallest = float(eigs[0]) if eigs.size else 0.0
    return smallest >= -tol.bound(frobenius_norm(m)), smallest


def partial_trace_second(m: np.ndarray, n: int) -> np.ndarray:
    """Trace out the second factor of an (n*n) x (n*n) matrix on C^n ⊗ C^n."""

    m = as_matrix(m)
    if m.shape[0] != n * n:
        raise ValueError(f"expected shape ({n * n}, {n * n}), got {m.shape}")
    return np.trace(m.reshape(n, n, n, n), axis1=1, axis2=3)


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as {"rows", "cols", "data"} with row-major [re, im] pairs."""

    m = as_matrix(m)
    data = [[float(entry.real), float(entry.imag)] for entry in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: Any, context: str = "matrix") -> np.ndarray:
    rows = require(obj, "rows", context)
    cols = require(obj, "cols", context)
    data = require(obj, "data", context)
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise SchemaError(f"{context}.rows", "expected a positive integer")
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 1:
        raise SchemaError(f"{context}.cols", "expected a positive integer")
    if rows != cols:
        raise SchemaError(f"{context}.cols", f"expected a square matrix, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"{context}.data", f"expected {rows * cols} [re, im] pairs")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            raise SchemaError(f"{context}.data[{i}]", "expected an [re, im] pair of numbers")
        flat[i] = complex(pair[0], pair[1])
    return as_matrix(flat.reshape(rows, cols), name=context)
