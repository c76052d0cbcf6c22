"""Deterministic JSON output and schema-checked input.

Reports must be byte-identical for identical configuration and seed, so
floats are rendered with 17 significant digits (enough to round-trip a
double) instead of relying on ``repr`` heuristics.  Parsing helpers raise
:class:`SchemaError` with the offending field name so CLI users see which
part of their input was rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

import numpy as np

__all__ = ["SchemaError", "dumps", "format_float", "require", "require_number"]


class SchemaError(ValueError):
    """Invalid JSON input; ``field`` names the offending location."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    # Keep floats recognizably floats so round-trips preserve the type.
    if "e" not in text and "." not in text and "n" not in text:
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Serialize ``obj`` deterministically, two-space indented.

    Accepts dict/list/tuple/str/float/int/bool/None and result records: a
    dataclass becomes an object of its fields in declaration order, a 2-D
    array goes through :func:`qchan.linalg.matrix_to_json`, a 1-D array
    becomes a list of floats, and a ``Family`` is its value (a ``str``).
    """

    pieces: list[str] = []
    _write(obj, pieces, 0)
    return "".join(pieces)


def _write(obj: Any, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            out.append(pad + json.dumps(key) + ": ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        _write(fields, out, level)
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        # Looked up at call time: linalg imports this module.
        from . import linalg

        _write(linalg.matrix_to_json(obj), out, level)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        _write([float(v) for v in obj], out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def require(obj: Any, field: str, context: str = "") -> Any:
    """Fetch ``obj[field]`` or raise a SchemaError naming the field."""

    path = f"{context}.{field}" if context else field
    if not isinstance(obj, dict):
        raise SchemaError(context or field, "expected a JSON object")
    if field not in obj:
        raise SchemaError(path, "missing required field")
    return obj[field]


def require_number(obj: Any, field: str, context: str = "") -> float:
    value = require(obj, field, context)
    path = f"{context}.{field}" if context else field
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise SchemaError(path, "expected a finite number")
    return value
