"""Versioned JSON run artifacts with a byte-stable canonical writer.

Rerunning an experiment with the same configuration must produce an
identical file, so floats are always rendered with 17 significant digits
(enough to round-trip float64 exactly) and key order is fixed by the
record builders, never by the serializer: a dataclass is written as its
fields in declaration order, a dict in insertion order.

The writer dispatches on a value's exact type first: a `str`, `float` or
`int` is written by that type's rule with no `isinstance` test, and a
dict, list or tuple, exact or subclass, as a container.  Everything else
takes one `isinstance` tail, in a fixed order: a bool before an int, numpy
scalars through `int()`/`float()`, a leaf subclass by the rule of its base
type, a dataclass as its fields.  The split is there for exact output, not
only for speed: an exact leaf type can match no other rule, and every
other value keeps the one rule the tail always gave it, so a bool is never
written as an int and an `np.float64` takes the 17-digit float rule.
Strings and keys are escaped by the C escaper that `json.dumps(s,
ensure_ascii=False)` calls, so their bytes are the standard library's.
A dict writes its exact leaf values by the same rules in its own loop, and
takes the escaped text of an exact `str` key from a bounded memo.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import RecordError

FORMAT_VERSION = 1

# The C escaper `json.dumps(s, ensure_ascii=False)` itself calls on a str.
_escape = json.encoder.encode_basestring


@dataclass(frozen=True)
class GenerationEntry:
    """One row of the per-generation log."""

    generation: int
    best_fitness: float
    parent_fitness: list[float]
    support: int
    new_evaluations: int
    best_mask: str
    best_accuracy: float
    parent_depth: int


@dataclass(frozen=True)
class DistributionRow:
    """One mask of the final parent's sampled distribution."""

    mask: str
    probability: float
    accuracy: float


@dataclass(frozen=True)
class RunTotals:
    """The run's evaluation counts against the m*K/2 prediction."""

    cache_size: int
    empirical_auc: float
    predicted_evaluations: float


@dataclass(frozen=True)
class RunRecord:
    """Everything one evolutionary run produced, ready to serialize."""

    format_version: int = field(default=FORMAT_VERSION, kw_only=True)
    config: dict
    generations: list[GenerationEntry]
    final_distribution: list[DistributionRow]
    totals: RunTotals


@dataclass(frozen=True)
class OracleRecord:
    """Exhaustive mask sweep: every accuracy plus the argmax."""

    format_version: int = field(default=FORMAT_VERSION, kw_only=True)
    config: dict
    entries: list[dict]  # {"mask", "accuracy"}, all 2^n in index order
    best_mask: str
    best_accuracy: float


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise RecordError(f"cannot serialize non-finite float {value!r}")
    text = "%.17g" % value
    # "%g" writes its exponent with a lower-case "e".
    if "." not in text and "e" not in text:
        text += ".0"
    return text


@functools.cache
def _line_breaks(indent: int) -> tuple[str, str, str]:
    """A container's breaks at `indent`: before its first item, between
    items, and before its closing bracket.

    Cached so that every container at one depth shares the same three
    strings: a 2^14-entry oracle record then holds no per-entry copies.
    """
    first = "\n" + "  " * (indent + 1)
    return first, "," + first, "\n" + "  " * indent


@functools.lru_cache(maxsize=1024)
def _key(key: str) -> str:
    """The escaped `key` and its colon, shared by every dict that has the key.

    Bounded, because a library caller may write dicts with any keys.
    """
    return _escape(key) + ": "


def _emit(value, out: list[str], indent: int) -> None:
    # Each container item is followed by the separator, and the last
    # separator is then replaced by the closing break.
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is float:
        out.append(_format_float(value))
    elif kind is int:
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        first, separator, last = _line_breaks(indent)
        out += ("{", first)
        for key, val in value.items():
            out.append(_key(key) if type(key) is str else _escape(str(key)) + ": ")
            # The exact leaf types are written here, as _emit would write them.
            kind = type(val)
            if kind is str:
                out.append(_escape(val))
            elif kind is float:
                out.append(_format_float(val))
            elif kind is int:
                out.append(str(val))
            else:
                _emit(val, out, indent + 1)
            out.append(separator)
        out[-1] = last
        out.append("}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        first, separator, last = _line_breaks(indent)
        out += ("[", first)
        for val in value:
            _emit(val, out, indent + 1)
            out.append(separator)
        out[-1] = last
        out.append("]")
    # The tail: bool, None, numpy scalars, leaf subclasses and dataclasses.
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif is_dataclass(value) and not isinstance(value, type):
        _emit({f.name: getattr(value, f.name) for f in fields(value)}, out, indent)
    else:
        raise RecordError(f"cannot serialize value of type {type(value).__name__}")


def dumps_canonical(value) -> str:
    """Deterministic pretty JSON: fixed order, 17-digit floats, final newline."""
    out: list[str] = []
    _emit(value, out, 0)
    return "".join(out) + "\n"


def write_json(value, path: str | Path) -> None:
    """Write `value` canonically as UTF-8; nothing is written if it cannot be."""
    try:
        data = dumps_canonical(value).encode("utf-8")
    except UnicodeEncodeError as err:
        raise RecordError(f"cannot write {path} as UTF-8: {err}") from None
    except (ValueError, RecursionError) as err:  # an int past the digit limit; deep nesting
        raise RecordError(f"cannot write {path}: {err}") from None
    try:
        Path(path).write_bytes(data)
    except OSError as err:
        raise RecordError(f"cannot write {path}: {err.strerror}") from None


def _load_json(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise RecordError(f"no such record file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise RecordError(f"{path} is not UTF-8 text: {err.reason}") from None
    except OSError as err:
        raise RecordError(f"cannot read {path}: {err.strerror}") from None
    # ValueError covers a JSONDecodeError and an integer past Python's
    # digit limit; RecursionError, arrays or objects nested too deeply.
    try:
        return json.loads(text)
    except ValueError as err:
        raise RecordError(f"corrupt record {path}: {err}") from None
    except RecursionError:
        raise RecordError(f"corrupt record {path}: nested too deeply") from None


# The JSON type each field annotation takes; a bool is neither integer
# nor number.
_JSON_TYPES = {
    "dict": ("an object", dict),
    "list": ("an array", list),
    "str": ("a string", str),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
}


def _from_dict(cls, raw):
    """Build dataclass `cls` from a JSON object that holds every field.

    Each value is decoded by its field's annotation.  A `format_version`
    field must equal FORMAT_VERSION.
    """
    if not isinstance(raw, dict):
        raise RecordError(f"{cls.__name__} must be a JSON object, got {type(raw).__name__}")
    names = [f.name for f in fields(cls)]
    if "format_version" in names and raw.get("format_version") != FORMAT_VERSION:
        raise RecordError(
            f"unsupported record format version {raw.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    missing = [name for name in names if name not in raw]
    if missing:
        raise RecordError(f"{cls.__name__} missing field(s) {', '.join(missing)}")
    where = cls.__name__ + "."
    return cls(**{f.name: _decode(f.type, raw[f.name], where + f.name) for f in fields(cls)})


# The record rows a field annotation may name.
_ROWS = {cls.__name__: cls for cls in (GenerationEntry, DistributionRow, RunTotals)}


def _decode(annotation: str, value, where: str):
    """`value` checked against `annotation`, with its record rows built.

    A record row is built by `_from_dict`, each item of a `list[X]` is
    decoded as an X, and any other value must have the annotation's JSON
    type.  `where` names the value in the error message.
    """
    if annotation in _ROWS:
        return _from_dict(_ROWS[annotation], value)
    outer, _, item = annotation.partition("[")
    kind, types = _JSON_TYPES[outer]
    if isinstance(value, bool) or not isinstance(value, types):
        raise RecordError(f"{where} must be {kind}, got {value!r:.40}")
    if item:
        return [_decode(item[:-1], v, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


def write_run_record(record: RunRecord, path: str | Path) -> None:
    write_json(record, path)


def read_run_record(path: str | Path) -> RunRecord:
    record = _from_dict(RunRecord, _load_json(path))
    if not record.generations:
        raise RecordError("generations must be a non-empty JSON array")
    return record


def write_oracle_record(record: OracleRecord, path: str | Path) -> None:
    write_json(record, path)


def read_oracle_record(path: str | Path) -> OracleRecord:
    return _from_dict(OracleRecord, _load_json(path))
