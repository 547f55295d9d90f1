"""CSV ingestion and stratified splitting.

Labels may be arbitrary strings; they are mapped to dense class indices in
first-appearance order so downstream code never sees raw label spellings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DatasetError


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table with dense integer class labels."""

    feature_names: tuple[str, ...]
    features: np.ndarray  # rows x n, float64
    labels: np.ndarray  # rows, int64 in 0..n_classes-1
    label_names: tuple[str, ...]  # raw label values, first-appearance order

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class SplitDataset:
    """Train/test partition plus the train-only standardization statistics.

    train_std uses ddof=0; zero-variance columns keep std 0.0 and are only
    centered by consumers.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    train_mean: np.ndarray
    train_std: np.ndarray

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DatasetError(
            f"non-numeric cell {text!r} at data row {row}, column {column!r}"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise DatasetError(
            f"non-finite cell {text!r} at data row {row}, column {column!r}"
        )
    return value


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_csv(path: str | Path, label: str | int) -> Dataset:
    """Load a UTF-8 comma-separated file with one header row.

    `label` selects the label column by header name, or by 0-based position
    when no header matches (an integer or a string of digits).  Every other
    cell must parse as a finite number.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    # utf-8-sig drops a leading byte-order mark, which would join the first
    # header name.
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as err:
        raise DatasetError(f"{path} is not UTF-8 text: {err.reason}") from None
    except OSError as err:
        raise DatasetError(f"cannot read {path}: {err.strerror}") from None
    if not rows:
        raise DatasetError(f"empty file: {path}")

    header = [cell.strip() for cell in rows[0]]
    if all(_looks_numeric(cell) for cell in header):
        raise DatasetError(f"missing header row: first line of {path} is all numeric")
    if len(header) < 2:
        raise DatasetError("need at least one feature column besides the label")

    label_index = _resolve_label_column(header, label)
    feature_names = tuple(name for i, name in enumerate(header) if i != label_index)

    raw_labels: list[str] = []
    data: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DatasetError(
                f"row {r} has {len(row)} cells, expected {len(header)}"
            )
        raw_labels.append(row[label_index].strip())
        data.append(
            [
                _parse_cell(cell.strip(), r, header[i])
                for i, cell in enumerate(row)
                if i != label_index
            ]
        )
    if not data:
        raise DatasetError(f"no data rows in {path}")

    # Dense class indices in first-appearance order.
    label_names: list[str] = []
    index_of: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, raw in enumerate(raw_labels):
        if raw not in index_of:
            index_of[raw] = len(label_names)
            label_names.append(raw)
        labels[i] = index_of[raw]
    if len(label_names) < 2:
        raise DatasetError(f"need at least 2 classes, found {len(label_names)}")

    return Dataset(
        feature_names=feature_names,
        features=np.asarray(data, dtype=np.float64),
        labels=labels,
        label_names=tuple(label_names),
    )


def _resolve_label_column(header: list[str], label: str | int) -> int:
    if isinstance(label, str) and label in header:
        return header.index(label)
    try:
        index = int(label)
    except (TypeError, ValueError):
        raise DatasetError(f"no label column named {label!r} in header {header}") from None
    if not 0 <= index < len(header):
        raise DatasetError(
            f"label column index {index} out of range for {len(header)} columns"
        )
    return index


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> SplitDataset:
    """Deterministic per-class split.

    Each class contributes floor(test_fraction * class_count) test rows from
    its seeded shuffle; remaining test slots (up to round(test_fraction *
    rows) total) go one apiece to the largest classes, ties to the lower
    class index.  A split that would leave either side empty is refused.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed!r}")
    counts = data.class_counts()
    if counts.min() < 2:
        smallest = int(counts.argmin())
        raise DatasetError(
            f"class {data.label_names[smallest]!r} has {counts[smallest]} row(s); "
            "need at least 2 per class to split"
        )

    rng = np.random.default_rng(seed)
    shuffled: list[np.ndarray] = []
    take = np.empty(data.n_classes, dtype=np.int64)
    for c in range(data.n_classes):
        indices = np.flatnonzero(data.labels == c)
        shuffled.append(rng.permutation(indices))
        take[c] = int(math.floor(test_fraction * counts[c]))

    target = round(test_fraction * data.n_rows)
    deficit = target - int(take.sum())
    if deficit > 0:
        order = sorted(range(data.n_classes), key=lambda c: (-counts[c], c))
        for c in order[:deficit]:
            take[c] += 1
    n_test = int(take.sum())
    if n_test in (0, data.n_rows):
        empty = "test" if n_test == 0 else "train"
        raise DatasetError(
            f"test_fraction {test_fraction} leaves the {empty} set of "
            f"{data.n_rows} rows empty"
        )

    test_parts = [shuffled[c][: take[c]] for c in range(data.n_classes)]
    train_parts = [shuffled[c][take[c] :] for c in range(data.n_classes)]
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))

    train_features = data.features[train_idx]
    mean = train_features.mean(axis=0)
    std = train_features.std(axis=0)
    return SplitDataset(
        train_features=train_features,
        train_labels=data.labels[train_idx],
        test_features=data.features[test_idx],
        test_labels=data.labels[test_idx],
        train_mean=mean,
        train_std=std,
    )


def wine_csv_path() -> Path:
    """Path of the packaged wine chemistry table (178 rows, 13 features)."""
    return Path(resources.files("qfselect").joinpath("data", "wine.csv"))
