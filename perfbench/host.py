"""Host-speed references that the runner times between ops.

The benchmark runs on shared machines whose speed drifts by 10-25 % over
seconds to minutes, and every op slows with the host.  Between ops the
runner times a fixed reference task that does not touch qchan:

* ``spawn``: a bare ``python -c pass`` process, for ops dominated by
  process start and import (set-ups, short CLI commands);
* ``compute``: fixed Choi-sized numpy work, for ops dominated by
  computation; it runs in the process next to the ops (the library
  worker itself, or the runner for CLI reports), on the core the runner
  pinned.

An op's scaled time is ``wall * NOMINAL_S[kind] / m`` where ``m`` is the
median of the references nearest to it.  Scaled times read in seconds of
a host running at the nominal reference speed; the unscaled walls are
reported next to them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Callable

import numpy as np

# Reference times of the machine the baseline in README.md was measured on.
NOMINAL_S = {"spawn": 0.06, "compute": 0.015}
# Each op is scaled by the median of this many nearest references.
WINDOW = 9

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((20, 20)) + 1j * _RNG.standard_normal((20, 20))
_STACK = _RNG.standard_normal((400, 20, 20)) + 1j * _RNG.standard_normal((400, 20, 20))
_UNIT = np.zeros((20, 20), dtype=complex)
_UNIT[3, 5] = 1
_CHOI = np.kron(_SMALL[:12, :12], _SMALL[:12, :12].conj())
_CHOI = _CHOI + _CHOI.conj().T


def spawn_reference(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True,
                   timeout=60)
    return time.perf_counter() - start


def compute_reference() -> float:
    """Choi-sized Kronecker products, a basis contraction and an eigensolve."""

    start = time.perf_counter()
    for _ in range(12):
        np.kron(_UNIT, _SMALL)
        np.einsum("kij,ji->k", _STACK, _SMALL)
    np.linalg.eigvalsh(_CHOI)
    return time.perf_counter() - start


class HostSpeed:
    """References of one kind, taken by ``measure`` before the ops they scale."""

    def __init__(self, kind: str, measure: Callable[[], float]):
        self.kind = kind
        self.measure = measure
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time one reference now; returns its index for ``scale``."""
        self.samples.append(self.measure())
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        half = WINDOW // 2
        lo = max(0, min(index - half, len(self.samples) - WINDOW))
        window = self.samples[lo : lo + WINDOW]
        return NOMINAL_S[self.kind] / statistics.median(window)

    def scale_ops(self, ops: list[dict]) -> list[dict]:
        """Adds ``scaled`` to each op record from its ``ref`` index."""
        for op in ops:
            op["scaled"] = op["wall"] * self.scale(op["ref"])
        return ops
