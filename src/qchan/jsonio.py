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
import sys
from typing import Any

__all__ = [
    "SchemaError",
    "dumps",
    "finite_number",
    "format_float",
    "require",
    "require_int",
    "require_number",
]


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
    array is written as the object :func:`qchan.linalg.matrix_to_json`
    returns (without building it), a 1-D array becomes a list of floats,
    and a ``Family`` is its value (a ``str``).
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
    elif _is_array(obj, 2):
        _write_matrix(obj, out, level)
    elif _is_array(obj, 1):
        _write([float(v) for v in obj], out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _is_array(obj: Any, ndim: int) -> bool:
    """Whether ``obj`` is an ndarray of ``ndim`` dimensions.

    Looked up in ``sys.modules``: an ndarray exists only once NumPy is
    loaded, so documents without one are written without importing it.
    """

    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray) and obj.ndim == ndim


def _write_matrix(m, out: list[str], level: int) -> None:
    """The text ``_write(linalg.matrix_to_json(m), out, level)`` writes, in one pass.

    Each distinct float is formatted once, keyed on its bits: -0.0 and
    0.0 print differently.
    """

    # Looked up at call time: linalg imports this module, and NumPy is loaded
    # whenever there is an array to write.
    import numpy as np

    from . import linalg

    m = linalg.as_matrix(m)
    if not m.size:
        _write(linalg.matrix_to_json(m), out, level)
        return
    parts = np.ascontiguousarray(m).reshape(-1).view(float)  # re, im of each entry
    bits, index = np.unique(parts.view(np.uint64), return_inverse=True)
    texts = [format_float(x) for x in bits.view(float).tolist()]
    pad, entry_pad, part_pad = ("  " * (level + k) for k in (1, 2, 3))
    # Each distinct value's text as a real part, then as an imaginary part
    # closing its entry; the parts pick theirs in data order.
    pieces = np.array(
        [f"{entry_pad}[\n{part_pad}{text},\n" for text in texts]
        + [f"{part_pad}{text}\n{entry_pad}],\n" for text in texts],
        dtype=object,
    )
    index[1::2] += len(texts)
    data = "".join(pieces[index].tolist())[:-2]  # no comma after the last entry
    out.append(
        f'{{\n{pad}"rows": {m.shape[0]},\n{pad}"cols": {m.shape[1]},\n'
        f'{pad}"data": [\n{data}\n{pad}]\n{"  " * level}}}'
    )


def require(obj: Any, field: str, context: str = "") -> Any:
    """Fetch ``obj[field]`` or raise a SchemaError naming the field."""

    path = f"{context}.{field}" if context else field
    if not isinstance(obj, dict):
        raise SchemaError(context or field, "expected a JSON object")
    if field not in obj:
        raise SchemaError(path, "missing required field")
    return obj[field]


def require_number(obj: Any, field: str, context: str = "") -> float:
    return finite_number(require(obj, field, context), f"{context}.{field}" if context else field)


def require_int(obj: Any, field: str, minimum: int, context: str = "") -> int:
    """Fetch ``obj[field]`` as an integer (not a bool) of at least ``minimum``."""

    value = require(obj, field, context)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        path = f"{context}.{field}" if context else field
        raise SchemaError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def finite_number(value: Any, path: str) -> float:
    """``value`` as a float, if it is a finite JSON number (not a bool); ``path`` names it."""

    try:
        number = float(value) if type(value) in (int, float) else math.nan  # a bool is neither
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, "expected a finite number")
    return number
