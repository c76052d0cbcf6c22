"""Dense complex-matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
The helpers are thin wrappers over LAPACK (through ``numpy.linalg``)
fixing the conventions everything downstream relies on: eigenvalues come
back ascending, Hermitian inputs are symmetrized before eigensolves, and
thresholds scale with the Frobenius norm of the operator.
The index arrays of the pairs k < l and their flat positions, which the
basis, the channels and the checks share, are cached here, and the steps
1..n-1 of the z-sector staircase are built here.  The tolerances they take,
``Tolerance`` and ``DEFAULT_TOL``, are in :mod:`qchan.exact`.

The one random stream of qchan's checks is here too.  Every check draws
its complex Gaussian inputs in stacks of :func:`_complex_normals`: Haar
states through :func:`_haar_vectors` (the sample test, the qubit
conjugations), or n x n trial matrices (the conjugation-sum checks).  A
stack holds, bit for bit, the draws that ``np.random.default_rng(seed)``
makes one input at a time, real part first; ``random_pure_state`` in
``tests/dense_oracles.py`` is that one-state-at-a-time oracle.
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
def _pair_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions k n + l and l n + k of each pair k < l of an n x n array, in lexicographic order; read-only.

    A plane's 1-D writes and reads at these are its fastest scatter and gather.
    """
    k, l = _pair_index(n)
    upper, lower = k * n + l, l * n + k
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def _pair_plane(n: int, pairs, diagonal) -> np.ndarray:
    """A new symmetric n x n array: pair k < l's ``pairs`` at (k, l) and (l, k), and ``diagonal``."""

    plane = np.empty(n * n)
    upper, lower = _pair_positions(n)
    plane[upper], plane[lower], plane[:: n + 1] = pairs, pairs, diagonal
    return plane.reshape(n, n)


def _steps(n: int) -> np.ndarray:
    """The staircase steps j = 1..n-1 of the z sector, as floats (exact, so products keep the bits
    of integer steps, without a cast per product)."""
    return np.arange(1.0, n)


# Bytes of the normals drawn at once: 16 n bytes per Haar state, so 204
# states per draw at n = 20, and memory stays flat however many states are
# drawn.  The sample test takes its quadratic forms of one draw at a time,
# so the size moves its norms only at the rounding level (a one-state draw
# takes another BLAS kernel than a stack).  At lib-verdicts' sizes
# (n = 8-20, 200 samples) each sample test is one draw.
_CHUNK_BYTES = 1 << 16


def _complex_normals(seed: int, count: int, per_stack: int, shape: tuple[int, ...]):
    """``count`` complex Gaussian arrays of ``shape``, ``per_stack`` at a time, each drawn real part first."""

    if not count:
        return  # no generator: building one imports numpy.random, about 10 ms in a fresh process
    rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed), without its dispatch
    for start in range(0, count, per_stack):
        g = rng.standard_normal((min(per_stack, count - start), 2, *shape))
        z = np.empty((len(g), *shape), dtype=complex)
        z.real, z.imag = g[:, 0], g[:, 1]
        yield z


def _haar_vectors(n: int, samples: int, seed: int):
    """Unit vectors of ``samples`` Haar states of ``seed``: each draw's normals divided by their norm.

    They are drawn in (k, n) stacks of at most ``_CHUNK_BYTES`` of normals
    (16 n bytes per state), so no Python code runs once per state.
    """

    per_draw = max(1, _CHUNK_BYTES // (16 * n))
    yield from map(_normalize_rows, _complex_normals(seed, samples, per_draw, (n,)))


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Divide each row of a (k, n) complex array by its norm in place, as ``row /= np.linalg.norm(row)``."""

    v /= _row_norms(v)[:, None]
    return v


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (k, m) complex array, bit for bit: it is sqrt(re . re + im . im)
    over the strided real and imaginary views, and the (k, 1, m) @ (k, m, 1) products make those dot calls."""

    re, im = v.real, v.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


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
