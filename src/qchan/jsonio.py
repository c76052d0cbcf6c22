"""Deterministic JSON output and schema-checked input.

Reports must be byte-identical for identical configuration and seed, so
floats are rendered with 17 significant digits (enough to round-trip a
double) instead of relying on ``repr`` heuristics.  A string of
printable ASCII with no ``"`` and no ``\\`` is written between quotes as
it stands, which is what ``json.dumps`` writes for it; only another
string imports :mod:`json`.  Parsing helpers and the value rules
(:func:`integer`, :func:`finite_number`) raise :class:`SchemaError` with
the offending field name, so the same value gets the same message from
a file, a flag or a library call; they import :mod:`numbers` only for a
value whose type is neither ``int`` nor, for :func:`finite_number`,
``float``.
"""

from __future__ import annotations

import math
import sys
from typing import Any

__all__ = [
    "SchemaError",
    "dumps",
    "finite_number",
    "format_float",
    "integer",
    "require",
    "require_int",
]


class SchemaError(ValueError):
    """A refused input value, from a file, a flag or a library call; ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"field '{field}': {message}")


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(float(x), ".17g")
    # Keep floats recognizably floats so round-trips preserve the type.
    if "e" not in text and "." not in text:
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Serialize ``obj`` deterministically, two-space indented.

    Accepts dict/list/tuple/str/float/int/bool/None and result records: a
    NamedTuple becomes an object of its fields in declaration order, a 2-D
    array is written as the object :func:`qchan.linalg.matrix_to_json`
    returns (without building it), a 1-D array becomes a list of floats,
    and a ``Family`` is its value (a ``str``).  Anything else, a channel
    object included, raises TypeError.  A list item that is the same
    object as the item before it is written as the same text, formatted
    once.
    """

    pieces: list[str] = []
    _write(obj, pieces, 0)
    return "".join(pieces)


_NOTHING = object()  # no list item is this object


def _write(obj: Any, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(_string(obj))
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
            out.append(pad + _string(key) + ": ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a NamedTuple record
        _write(obj._asdict(), out, level)
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        previous, text = _NOTHING, None
        for value in obj:
            # An item that is the object before it has that item's text: a
            # matrix of shared [re, im] lists is formatted once per distinct entry.
            if value is previous:
                if text is None:
                    text = "".join(out[start:])  # the previous item with its pad and comma
                out.append(text)
            else:
                previous, text, start = value, None, len(out)
                out.append(pad)
                _write(value, out, level + 1)
                out.append(",\n")
        out[-1] = out[-1][:-2] + "\n"  # no comma after the last item
        out.append(closing_pad + "]")
    elif _is_array(obj, 2):
        _write_matrix(obj, out, level)
    elif _is_array(obj, 1):
        _write([float(v) for v in obj], out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _string(s: str) -> str:
    """``json.dumps(s)``, without importing :mod:`json` for a plain string.

    ``'"' + s + '"'`` joins the str data, so a ``Family`` is written as its
    value, not as ``str(s)``.
    """

    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


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


def require_int(obj: Any, field: str, minimum: int, context: str = "") -> int:
    """Fetch ``obj[field]`` and check it with :func:`integer`."""

    return integer(require(obj, field, context), f"{context}.{field}" if context else field, minimum)


def integer(value: Any, path: str, minimum: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least ``minimum``; ``path`` names it."""

    if type(value) is int:  # the common case, before the slower ABC check
        if value >= minimum:
            return value
    else:
        import numbers

        if not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum:
            return int(value)
    raise SchemaError(path, f"expected an integer >= {minimum}, got {value!r}")


# The largest modulus of a channel's p or t_i, from a flag, a file or a library call (the families
# are CPTP only for |p| <= 1).  At the bound, Choi entries and a state's output entries are at most
# a few times 1e100, so n^2 of their squares sum far below the float maximum for every n a size guard admits.
_MAX_MAGNITUDE = 1e100


def finite_number(value: Any, path: str, bound: float = math.inf) -> float:
    """``value`` as a float, if it is a finite number (not a bool) of modulus at most ``bound``; ``path`` names it."""

    try:
        if type(value) is float or type(value) is int:  # the common cases, before the slower ABC checks
            number = float(value)
        else:
            import numbers

            number = math.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, "expected a finite number")
    if abs(number) > bound:
        raise SchemaError(path, f"expected a number of magnitude at most {bound:g}, got {number!r}")
    return number
