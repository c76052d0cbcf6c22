"""Benchmark-side tracing of qchan's public functions.

``install()`` wraps each function in ``TRACED`` and rebinds the wrapper at
every attribute of every loaded ``qchan`` module that holds the original,
because ``from .x import y`` copies bindings (``cli.is_cptp``,
``verification.to_choi``, ...).  Each call records a span
``(span_id, name, start_ns, end_ns, parent_id, op_id, extra)`` in memory;
``dump()`` writes them out when the process ends.  qchan's own code is not
modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Optional

# (module, function) pairs wrapped in a traced run; span names are "module.function".
TRACED = (
    ("cli", "main"),
    ("jsonio", "dumps"),
    ("linalg", "matrix_to_json"),
    ("linalg", "matrix_from_json"),
    ("linalg", "hermitian_eigenvalues"),
    ("equivalence", "bound_matching_system"),
    ("equivalence", "inequivalence_certificate"),
    ("equivalence", "spectrum_witness"),
    ("verification", "is_cptp"),
    ("verification", "constant_fnorm_sample_test"),
    ("verification", "verify_representations"),
    ("verification", "verify_sum_identities"),
    ("channels", "to_choi"),
    ("channels", "family_apply"),
    ("channels", "diagonal_apply"),
    ("channels", "kraus_from_family"),
    ("basis", "build_basis"),
    ("basis", "decompose"),
    ("basis", "reconstruct"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id: Any = None
        self.next_id = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, extra_of=None):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        extra: dict = {}
        start = time.perf_counter_ns()
        try:
            if extra_of is not None:
                result = extra_of(fn, args, kwargs, extra)
            else:
                result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op_id, extra or None))
        return result

    def op(self, op_id: Any, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of one benchmark op."""
        self.op_id = op_id
        return self.call("op", fn, args, kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# --- counters recorded inside spans --------------------------------------------


def _count_applies(fn, args, kwargs, extra):
    """to_choi(apply_fn, n): count how often the map is applied."""

    apply_fn, rest = args[0], args[1:]
    count = [0]

    def counted(s):
        count[0] += 1
        return apply_fn(s)

    result = fn(counted, *rest, **kwargs)
    extra["applies"] = count[0]
    extra["n"] = int(rest[0] if rest else kwargs["n"])
    return result


def _count_bytes(fn, args, kwargs, extra):
    text = fn(*args, **kwargs)
    extra["bytes"] = len(text.encode("utf-8"))
    return text


def _count_states(fn, args, kwargs, extra):
    report = fn(*args, **kwargs)
    extra["states"] = int(report.samples_used)
    return report


EXTRA = {
    "channels.to_choi": _count_applies,
    "jsonio.dumps": _count_bytes,
    "verification.constant_fnorm_sample_test": _count_states,
}


def install(tracer: Tracer) -> int:
    """Wrap every function in TRACED at all its qchan bindings; returns rebinds.

    Functions of modules that are not loaded (``qchan.cli`` in the library
    worker) are left alone.
    """

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qchan" or name.startswith("qchan."))]
    rebinds = 0
    for module_name, attr in TRACED:
        home = sys.modules.get(f"qchan.{module_name}")
        if home is None:
            continue
        original = getattr(home, attr)
        name = f"{module_name}.{attr}"
        wrapper = _wrap(tracer, name, original, EXTRA.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    rebinds += 1
    return rebinds


def _wrap(tracer: Tracer, name: str, original: Callable, extra_of: Optional[Callable]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, extra_of)

    return wrapper
