"""Mask-conditioned accuracy evaluators.

Three interchangeable backends score a feature mask on a fixed train/test
split: a from-scratch one-vs-rest linear SVM, a nearest-centroid model for
cheap tests, and a client that delegates to an external process over a
line protocol.  All are deterministic functions of their inputs.
"""

from __future__ import annotations

import queue
import shlex
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import SplitDataset
from .errors import DegenerateTrainingError, EvaluatorError
from .masks import mask_columns, validate_mask

KINDS = ("linear-svm", "nearest-centroid", "external")


@dataclass(frozen=True)
class EvaluatorSpec:
    """Which backend scores a mask, plus its hyperparameters."""

    kind: str = "linear-svm"
    C: float = 1.0
    epochs: int = 200
    external_cmd: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"evaluator kind must be one of {KINDS}, got {self.kind!r}")
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.kind == "external" and not self.external_cmd:
            raise ValueError("external evaluator requires a command line")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


@dataclass(frozen=True)
class LinearSvmModel:
    """One weight vector and bias per class, one-vs-rest."""

    classes: np.ndarray
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray  # (n_classes,)

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.biases

    def predict(self, features: np.ndarray) -> np.ndarray:
        # argmax takes the first maximum, so ties go to the lowest class.
        return self.classes[np.argmax(self.decision_scores(features), axis=1)]


# Masks trained together in one batched SVM fit; bounds its score matrices
# at (train rows) x (BATCH_MASKS * classes).
BATCH_MASKS = 64


def _train_ovr(
    features: np.ndarray,
    labels: np.ndarray,
    C: float,
    epochs: int,
    keep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train one one-vs-rest linear SVM per row of `keep` in a single loop.

    `keep` is (B, n_features) of 0/1: model b sees only the columns row b
    keeps.  Weights start at zero and a dropped column's gradient is
    zeroed, so its weight stays exactly 0 and model b is the model trained
    on its kept columns alone.  Returns (classes, weights, biases) with
    weights (B * n_classes, n_features) and model b's classes at rows
    b * n_classes onwards.
    """
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateTrainingError(
            f"training data has a single class ({classes[0]!r})"
        )
    n_rows = features.shape[0]
    batch = keep.shape[0]
    targets = np.tile(np.where(labels[:, None] == classes[None, :], 1.0, -1.0), batch)
    keep = np.repeat(keep, classes.size, axis=0)
    weights = np.zeros((batch * classes.size, features.shape[1]))
    biases = np.zeros(batch * classes.size)
    for t in range(1, epochs + 1):
        margins = targets * (features @ weights.T + biases)
        active = np.where(margins < 1.0, targets, 0.0)
        grad_w = C * weights - keep * (active.T @ features) / n_rows
        grad_b = -active.sum(axis=0) / n_rows
        lr = 1.0 / (C * t)
        weights -= lr * grad_w
        biases -= lr * grad_b
    return classes, weights, biases


def train_linear_svm(
    features: np.ndarray, labels: np.ndarray, C: float = 1.0, epochs: int = 200
) -> LinearSvmModel:
    """Full-batch subgradient descent on (C/2)||w||^2 + mean hinge loss.

    Zero initialization, learning rate 1/(C*t) at epoch t; one-vs-rest over
    the classes present in `labels`.  Entirely deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] < 1:
        raise ValueError("need at least one feature column")
    classes, weights, biases = _train_ovr(
        features, labels, C, epochs, np.ones((1, features.shape[1]))
    )
    return LinearSvmModel(classes=classes, weights=weights, biases=biases)


def _standardized(rows: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    # Zero-variance columns are centered but not scaled.
    scale = np.where(std > 0, std, 1.0)
    return (rows - mean) / scale


def _majority_accuracy(data: SplitDataset) -> float:
    majority = int(np.bincount(data.train_labels).argmax())
    return float(np.mean(data.test_labels == majority))


def _nearest_centroid_accuracy(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, test_y: np.ndarray
) -> float:
    classes = np.unique(train_y)
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])
    deltas = test_x[:, None, :] - centroids[None, :, :]
    distances = np.einsum("tcf,tcf->tc", deltas, deltas)
    # argmin takes the first minimum, so ties go to the lowest class.
    predictions = classes[np.argmin(distances, axis=1)]
    return float(np.mean(predictions == test_y))


def evaluate(mask: str, data: SplitDataset, spec: EvaluatorSpec) -> float:
    """Test accuracy of the configured model trained on the masked columns."""
    validate_mask(mask, data.n_features)
    if spec.kind == "external":
        raise EvaluatorError(
            "external evaluation needs a live process; use make_evaluator()"
        )
    if "1" not in mask:
        return _majority_accuracy(data)

    cols = mask_columns(mask)
    mean, std = data.train_mean[cols], data.train_std[cols]
    train_x = _standardized(data.train_features[:, cols], mean, std)
    test_x = _standardized(data.test_features[:, cols], mean, std)

    if spec.kind == "nearest-centroid":
        return _nearest_centroid_accuracy(
            train_x, data.train_labels, test_x, data.test_labels
        )
    try:
        model = train_linear_svm(train_x, data.train_labels, spec.C, spec.epochs)
    except DegenerateTrainingError:
        return _majority_accuracy(data)
    return float(np.mean(model.predict(test_x) == data.test_labels))


class ExternalEvaluator:
    """Client for a mask-scoring child process.

    Protocol over stdin/stdout, UTF-8, one line per message:
    we send "HELLO EQFS 1 <n>" and expect "READY"; each "EVAL <mask>" is
    answered by "OK <accuracy>" or "ERR <message>"; "QUIT" ends the
    session.  One request is in flight at a time; the process is reused
    for every mask of a run.
    """

    def __init__(self, command: str | list[str], n: int, timeout: float = 60.0):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self._timeout = timeout
        self._lock = threading.Lock()
        self._lines: queue.Queue[str | None] = queue.Queue()
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as err:
            raise EvaluatorError(f"cannot launch evaluator {argv!r}: {err}") from err
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self._send(f"HELLO EQFS 1 {n}")
            reply = self._receive()
            if reply != "READY":
                raise EvaluatorError(f"bad handshake reply: {reply!r}")
        except BaseException:
            self.close()
            raise

    def _pump(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\r\n"))
        self._lines.put(None)

    def _send(self, message: str) -> None:
        try:
            self._proc.stdin.write(message + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError, OSError) as err:
            raise EvaluatorError(f"evaluator process is gone: {err}") from err

    def _receive(self) -> str:
        try:
            line = self._lines.get(timeout=self._timeout)
        except queue.Empty:
            self._proc.kill()
            raise EvaluatorError(
                f"evaluator gave no reply within {self._timeout} s"
            ) from None
        if line is None:
            code = self._proc.wait()
            raise EvaluatorError(f"evaluator exited early with code {code}")
        return line

    def __call__(self, mask: str) -> float:
        with self._lock:
            self._send(f"EVAL {mask}")
            reply = self._receive()
        if reply.startswith("ERR"):
            raise EvaluatorError(f"evaluator error for mask {mask}: {reply[3:].strip()}")
        if not reply.startswith("OK "):
            raise EvaluatorError(f"malformed evaluator reply: {reply!r}")
        try:
            value = float(reply[3:].strip())
        except ValueError:
            raise EvaluatorError(f"malformed evaluator reply: {reply!r}") from None
        if not 0.0 <= value <= 1.0:
            raise EvaluatorError(f"evaluator accuracy {value} outside [0, 1]")
        return value

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write("QUIT\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError, OSError):
                pass
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # unflushed bytes for a process that is gone
        # The reader ends at end of file; close stdout only once it has.
        self._reader.join(timeout=5)
        if not self._reader.is_alive():
            self._proc.stdout.close()

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _LocalEvaluator:
    """Callable facade binding a split and spec; close() is a no-op.

    evaluate_many() scores a list of masks with one batched SVM fit per
    BATCH_MASKS masks; it returns what calling the evaluator on each mask
    returns.
    """

    def __init__(self, spec: EvaluatorSpec, data: SplitDataset):
        self.spec = spec
        self.data = data
        self._train_x = _standardized(data.train_features, data.train_mean, data.train_std)
        self._test_x = _standardized(data.test_features, data.train_mean, data.train_std)

    def __call__(self, mask: str) -> float:
        return evaluate(mask, self.data, self.spec)

    def evaluate_many(self, masks: list[str]) -> list[float]:
        """Accuracies of `masks`, in order."""
        if self.spec.kind != "linear-svm":
            return [self(mask) for mask in masks]
        for mask in masks:
            validate_mask(mask, self.data.n_features)
        keep = np.array(
            [[ch == "1" for ch in mask] for mask in masks], dtype=bool
        ).reshape(len(masks), self.data.n_features)
        accuracies = np.full(len(masks), _majority_accuracy(self.data))
        fitted = np.flatnonzero(keep.any(axis=1))
        try:
            for start in range(0, fitted.size, BATCH_MASKS):
                rows = fitted[start : start + BATCH_MASKS]
                accuracies[rows] = self._svm_accuracies(keep[rows])
        except DegenerateTrainingError:
            pass  # single-class training data: every mask scores the majority rule
        return accuracies.tolist()

    def _svm_accuracies(self, keep: np.ndarray) -> np.ndarray:
        classes, weights, biases = _train_ovr(
            self._train_x, self.data.train_labels, self.spec.C, self.spec.epochs, keep
        )
        scores = (self._test_x @ weights.T + biases).reshape(
            len(self._test_x), len(keep), classes.size
        )
        # argmax takes the first maximum, so ties go to the lowest class.
        predictions = classes[np.argmax(scores, axis=2)]
        return np.mean(predictions == self.data.test_labels[:, None], axis=0)

    def close(self) -> None:
        pass


def make_evaluator(spec: EvaluatorSpec, data: SplitDataset):
    """Mask -> accuracy callable with a close() method."""
    if spec.kind == "external":
        return ExternalEvaluator(spec.external_cmd, n=data.n_features, timeout=spec.timeout)
    return _LocalEvaluator(spec, data)
