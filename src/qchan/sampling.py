"""The one random stream of qchan's checks.

Every check draws its complex Gaussian inputs in stacks of
:func:`_complex_normals`: Haar states through :func:`_haar_vectors` (the
sample test, the qubit conjugations), or n x n trial matrices (the
conjugation-sum checks).  :func:`random_pure_state`, one state at a time,
is their oracle: the stacks hold its draws bit for bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .linalg import _row_norms

__all__ = ["random_pure_state"]


def random_pure_state(n: int, rng: Union[int, np.random.Generator, None] = None) -> np.ndarray:
    """Haar-random rank-one projector |v><v| on C^n (deterministic per seed)."""

    gen = np.random.default_rng(rng)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# Bytes of the normals drawn at once: 16 n bytes per Haar state, so 204
# states per draw at n = 20, and memory stays flat however many states are
# drawn.  The sample test takes its quadratic forms of one draw at a time,
# so the size moves its norms only at the rounding level (a one-state draw
# takes another BLAS kernel than a stack).  At lib-verdicts' sizes
# (n = 8-20, 200 samples) each sample test is one draw.
_CHUNK_BYTES = 1 << 16


def _complex_normals(seed: int, count: int, per_stack: int, shape: tuple[int, ...]):
    """``count`` complex Gaussian arrays of ``shape``, ``per_stack`` at a time, each drawn real part first."""

    rng = np.random.default_rng(seed)
    for start in range(0, count, per_stack):
        g = rng.standard_normal((min(per_stack, count - start), 2, *shape))
        z = np.empty((len(g), *shape), dtype=complex)
        z.real, z.imag = g[:, 0], g[:, 1]
        yield z


def _haar_vectors(n: int, samples: int, seed: int):
    """The unit vectors of the ``samples`` random_pure_state draws of ``seed``, bit for bit.

    They are drawn in (k, n) stacks of at most ``_CHUNK_BYTES`` of normals
    (16 n bytes per state), so no Python code runs once per state.
    """

    per_draw = max(1, _CHUNK_BYTES // (16 * n))
    yield from map(_normalize_rows, _complex_normals(seed, samples, per_draw, (n,)))


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Divide each row of a (k, n) complex array by its norm in place, as ``row /= np.linalg.norm(row)``."""

    v /= _row_norms(v)[:, None]
    return v
