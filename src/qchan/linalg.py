"""Dense complex-matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
The helpers are thin wrappers over LAPACK (through ``numpy.linalg``)
fixing the conventions everything downstream relies on: eigenvalues come
back ascending, Hermitian inputs are symmetrized before eigensolves, and
positivity thresholds scale with the Frobenius norm of the operator.
``Tolerance`` and ``DEFAULT_TOL`` live in :mod:`qchan.exact` and are
re-exported here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .exact import DEFAULT_TOL, Tolerance
from .jsonio import SchemaError, finite_number, require, require_int

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


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 of a matrix, or of each matrix of an (..., n, n) stack."""
    m = np.asarray(m, dtype=complex)
    return (m + np.swapaxes(m, -1, -2).conj()) / 2


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
