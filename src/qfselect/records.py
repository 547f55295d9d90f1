"""Versioned JSON run artifacts with a byte-stable canonical writer.

Rerunning an experiment with the same configuration must produce an
identical file, so floats are always rendered with 17 significant digits
(enough to round-trip float64 exactly) and key order is fixed by the
record builders, never by the serializer: a dataclass is written as its
fields in declaration order, a dict in insertion order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import RecordError

FORMAT_VERSION = 1


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
class RunRecord:
    """Everything one evolutionary run produced, ready to serialize."""

    format_version: int = field(default=FORMAT_VERSION, kw_only=True)
    config: dict
    generations: list[GenerationEntry]
    final_distribution: list[dict]  # {"mask", "probability", "accuracy"}
    totals: dict


@dataclass(frozen=True)
class OracleRecord:
    """Exhaustive mask sweep: every accuracy plus the argmax."""

    format_version: int = field(default=FORMAT_VERSION, kw_only=True)
    config: dict
    entries: list[dict]  # {"mask", "accuracy"}, all 2^n in index order
    best_mask: str
    best_accuracy: float


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise RecordError(f"cannot serialize non-finite float {value!r}")
    text = "%.17g" % value
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _emit(value, out: list[str], indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.append(inner + json.dumps(str(key), ensure_ascii=False) + ": ")
            _emit(val, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(value):
            out.append(inner)
            _emit(val, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
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
    try:
        Path(path).write_bytes(data)
    except OSError as err:
        raise RecordError(f"cannot write {path}: {err.strerror}") from None


def _load_json(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise RecordError(f"no such record file: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise RecordError(f"corrupt record {path}: {err}") from None


# The JSON type each field annotation takes; a bool is neither integer
# nor number.
_JSON_TYPES = {
    "dict": ("an object", dict),
    "list": ("an array", list),
    "str": ("a string", str),
    "int": ("an integer", int),
    "float": ("a number", (int, float)),
}


def _from_dict(cls, raw, **nested):
    """Build dataclass `cls` from a JSON object that holds every field.

    Each value must have the JSON type of its field's annotation.  `nested`
    maps a field name to the function that builds its value from the raw
    one.  A `format_version` field must equal FORMAT_VERSION.
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
    for f in fields(cls):
        kind, types = _JSON_TYPES[f.type.partition("[")[0]]
        value = raw[f.name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise RecordError(f"{cls.__name__}.{f.name} must be {kind}, got {value!r:.40}")
    values = {name: raw[name] for name in names}
    values.update((name, build(values[name])) for name, build in nested.items())
    return cls(**values)


def _generation_entries(raw) -> list[GenerationEntry]:
    if not raw:
        raise RecordError("generations must be a non-empty JSON array")
    return [_from_dict(GenerationEntry, entry) for entry in raw]


def write_run_record(record: RunRecord, path: str | Path) -> None:
    write_json(record, path)


def read_run_record(path: str | Path) -> RunRecord:
    return _from_dict(RunRecord, _load_json(path), generations=_generation_entries)


def write_oracle_record(record: OracleRecord, path: str | Path) -> None:
    write_json(record, path)


def read_oracle_record(path: str | Path) -> OracleRecord:
    return _from_dict(OracleRecord, _load_json(path))
