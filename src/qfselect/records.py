"""Versioned JSON run artifacts with a byte-stable canonical writer.

Rerunning an experiment with the same configuration must produce an
identical file, so floats are always rendered with 17 significant digits
(enough to round-trip float64 exactly) and key order is fixed by the
record builders, never by the serializer: a dataclass is written as its
fields in declaration order, a dict in insertion order.

Every value takes one `isinstance` chain, containers before leaves: a
bool before an int, numpy scalars through `int()`/`float()`, a leaf
subclass by the rule of its base type, a dataclass as its fields.
Strings and keys are escaped by the C escaper that `json.dumps(s,
ensure_ascii=False)` calls, so their bytes are the standard library's.
The streamed oracle writer holds no layout of its own: it cuts the text
`dumps_canonical` gives a record of placeholder values, and fills the
values in between the pieces.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
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


def _line_breaks(indent: int) -> tuple[str, str, str]:
    """A container's breaks at `indent`: before its first item, between
    items, and before its closing bracket."""
    first = "\n" + "  " * (indent + 1)
    return first, "," + first, "\n" + "  " * indent


def _emit(value, out: list[str], indent: int) -> None:
    # Each container item is followed by the separator, and the last
    # separator is then replaced by the closing break.
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        first, separator, last = _line_breaks(indent)
        out += ("{", first)
        for key, val in value.items():
            out.append(_escape(str(key)) + ": ")
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


@contextlib.contextmanager
def _writing(path: str | Path):
    """Raise a failure to render or write the record at `path` as RecordError."""
    try:
        yield
    except UnicodeEncodeError as err:
        raise RecordError(f"cannot write {path} as UTF-8: {err}") from None
    except (ValueError, RecursionError) as err:  # an int past the digit limit; deep nesting
        raise RecordError(f"cannot write {path}: {err}") from None
    except OSError as err:
        raise RecordError(f"cannot write {path}: {err.strerror}") from None


class _RecordFile:
    """A text file that replaces `path` on `commit`, and only then.

    The text goes to a new temporary file beside `path` (the file a symlink
    names), which `commit` renames over it; closed before that, the file is
    removed.  A `path` that is there but is no regular file (/dev/null, a
    pipe) is written in place: a rename would replace the node itself.
    """

    def __init__(self, path: str | Path) -> None:
        target = self._target = Path(os.path.realpath(path))
        self._temp = None
        if target.is_file() or not target.exists():  # created new, with the umask's mode
            self._temp = target.with_name(f".{target.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
        self._file = open(self._temp or target, "x" if self._temp else "w", encoding="utf-8",
                          newline="")
        self.write = self._file.write

    def commit(self) -> None:
        self._file.close()
        if self._temp is not None:
            os.replace(self._temp, self._target)
            self._temp = None

    def close(self) -> None:
        """Close the file, and remove it unless `commit` renamed it."""
        try:
            self._file.close()
        finally:
            if self._temp is not None:
                self._temp.unlink(missing_ok=True)
                self._temp = None


def write_json(value, path: str | Path) -> None:
    """Write `value` canonically as UTF-8; a failed write leaves `path` as it was."""
    with _writing(path), contextlib.closing(_RecordFile(path)) as file:
        file.write(dumps_canonical(value))
        file.commit()


@contextlib.contextmanager
def _reading(path: str | Path):
    """Yield the JSON value in the file at `path`; a RecordError raised while
    it is decoded is raised again naming `path`, as the loading errors do."""
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
        value = json.loads(text)
    except ValueError as err:
        raise RecordError(f"corrupt record {path}: {err}") from None
    except RecursionError:
        raise RecordError(f"corrupt record {path}: nested too deeply") from None
    try:
        yield value
    except RecordError as err:
        raise RecordError(f"{path}: {err}") from None


# The one table of field types for configs and records: each type name of
# an annotation, its text in messages, and its types (builtins first: an ABC
# alone is ten times slower).  numpy numbers pass; no bool is int or float.
_JSON_TYPES = {
    "dict": ("an object", dict),
    "list": ("an array", list),
    "str": ("a string", str),
    "int": ("an integer", (int, numbers.Integral)),
    "float": ("a real number", (float, int, numbers.Real)),
    "None": ("None", type(None)),
}


def has_type(value, name: str) -> bool:
    """Whether `value` has the type that table name `name` stands for."""
    return isinstance(value, _JSON_TYPES[name][1]) and not isinstance(value, bool)


def check_types(config) -> None:
    """Raise ValueError unless each field of dataclass `config` has its annotation's
    type: a table name, a class of its module, or several joined by " | "."""
    module = vars(sys.modules[type(config).__module__])
    for f in fields(config):
        value = getattr(config, f.name)
        names = f.type.split(" | ")
        if not any(
            has_type(value, name) if name in _JSON_TYPES else isinstance(value, module[name])
            for name in names
        ):
            kinds = " or ".join(
                _JSON_TYPES[name][0] if name in _JSON_TYPES else "a " + name for name in names
            )
            raise ValueError(f"{f.name} must be {kinds}, got {value!r}")


def _from_dict(cls, raw):
    """Build dataclass `cls` from a JSON object that holds every field, each
    decoded by its annotation; a `format_version` must equal FORMAT_VERSION."""
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
    if not has_type(value, outer):
        raise RecordError(f"{where} must be {_JSON_TYPES[outer][0]}, got {value!r:.40}")
    if item:
        return [_decode(item[:-1], v, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


def write_run_record(record: RunRecord, path: str | Path) -> None:
    write_json(record, path)


def read_run_record(path: str | Path) -> RunRecord:
    with _reading(path) as raw:
        record = _from_dict(RunRecord, raw)
        if not record.generations:
            raise RecordError("generations must be a non-empty JSON array")
    return record


# The value of every field `OracleRecordWriter` fills in, in the record it
# cuts its layout from.
_HOLE = "\x00"


class OracleRecordWriter:
    """Writes an oracle record to `path` a batch of entries at a time.

    The file holds the bytes `write_json` gives the whole `OracleRecord`.
    Its layout comes from `dumps_canonical`, once: a record of two entries
    whose masks, accuracies and best fields are all `_HOLE` is cut at
    those six holes, from the right, so a config that holds the hole
    stays in the head.  The head (`format_version`, `config`) is written
    on opening, each `add` writes the next entries, and `finish` writes
    `best_mask` and `best_accuracy`; the record is never held whole.
    `finish` commits the file as `write_json` does, and refuses a record
    with no entry; a writer closed before that, as a `with` block that
    raises closes it, leaves `path` as it was.  A failure to write raises
    RecordError, "cannot write {path}...".
    """

    def __init__(self, path: str | Path, config: dict) -> None:
        self._path = path
        self._entries = 0
        hole = {"mask": _HOLE, "accuracy": _HOLE}
        record = OracleRecord(config=config, entries=[hole, hole], best_mask=_HOLE,
                              best_accuracy=_HOLE)
        with _writing(path):
            head, self._within, self._between, _, *self._end = dumps_canonical(record).rsplit(
                _escape(_HOLE), 6
            )
            self._file = _RecordFile(path)
            try:
                self._file.write(head)
            except BaseException:
                self.close()
                raise

    def add(self, masks: list[str], accuracies: list[float]) -> None:
        """Write each mask and its accuracy as the next entry of the record."""
        within = self._within
        with _writing(self._path):
            text = self._between.join([
                _escape(mask) + within + _format_float(accuracy)
                for mask, accuracy in zip(masks, accuracies, strict=True)
            ])
            if text:
                self._file.write(self._between + text if self._entries else text)
                self._entries += len(masks)

    def finish(self, best_mask: str, best_accuracy: float) -> None:
        """Write the last two fields, then commit the file to `path`."""
        closing, middle, tail = self._end
        with _writing(self._path):
            if not self._entries:
                raise RecordError(f"cannot write {self._path}: an oracle record needs an entry")
            self._file.write(closing + _escape(best_mask) + middle + _format_float(best_accuracy)
                             + tail)
            self._file.commit()

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "OracleRecordWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_oracle_record(record: OracleRecord, path: str | Path) -> None:
    write_json(record, path)


def read_oracle_record(path: str | Path) -> OracleRecord:
    with _reading(path) as raw:
        record = _from_dict(OracleRecord, raw)
        for i, entry in enumerate(record.entries):
            for name, annotation in (("mask", "str"), ("accuracy", "float")):
                _decode(annotation, entry.get(name), f"OracleRecord.entries[{i}].{name}")
    return record
