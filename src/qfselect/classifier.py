"""Mask-conditioned accuracy evaluators.

Three interchangeable backends score a feature mask on a fixed train/test
split: a from-scratch one-vs-rest linear SVM, a nearest-centroid model for
cheap tests, and a client that delegates to an external process over a
line protocol.  All are deterministic functions of their inputs.  Each
evaluator scores every mask through its ``evaluate_many``; calling it on a
single mask scores a batch of one.
"""

from __future__ import annotations

import functools
import math
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .dataset import SplitDataset
from .errors import DegenerateTrainingError, EvaluatorError, FitnessError
from .masks import mask_columns, validate_masks
from .records import check_types

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
        check_types(self)
        if self.kind not in KINDS:
            raise ValueError(f"evaluator kind must be one of {KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.kind == "external":
            _argv(self.external_cmd or "")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")


# Masks trained together in one batched SVM fit; bounds its hinge buffer at
# classes x (train rows) x BATCH_MASKS.
BATCH_MASKS = 128

# Seconds close() gives an external evaluator to exit after "QUIT" before
# it kills it.
CLOSE_TIMEOUT_S = 5.0


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array that starts on a 64-byte boundary.

    malloc promises only 16 bytes; at 128 masks, a fit whose buffers started
    16 or 32 bytes past a cache line took about a fifth longer, with the
    same weights.
    """
    nbytes = math.prod(shape) * 8
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


@functools.lru_cache(maxsize=1)
def _rates(C: float, epochs: int) -> tuple[np.ndarray, ...]:
    """Epoch t's learning rate 1/(C*t) for t = 1..epochs, each a 0-d array.

    Python's C*t and 1/(C*t), rounded as the plain form's float scalars.
    Made once per (C, epochs), not once per fit; only the last pair is
    kept, so a large `epochs` does not stay resident.
    """
    return tuple(np.array(1.0 / (C * t)) for t in range(1, epochs + 1))


def _train_ovr(
    features: np.ndarray,
    labels: np.ndarray,
    C: float,
    epochs: int,
    keep: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train one one-vs-rest linear SVM per row of `keep` in a single loop.

    Full-batch subgradient descent on (C/2)||w||^2 + mean hinge loss, at
    learning rate 1/(C*t) in epoch t.

    `keep` is (B, n_features) of 0/1: model b sees only the columns row b
    keeps.  Returns (classes, weights, biases) with weights
    (B * n_classes, n_features) and model b's classes at rows
    b * n_classes onwards.  A column that row b drops has weight exactly
    +0.0 in model b, so model b is the model trained on its kept columns
    alone.

    Only the columns some row keeps, `used`, are fitted, with the bias
    after them; a column the whole batch drops is never read and its
    weights are the zeros they start at.  Within `used`, weights start at
    zero and a dropped column's gradient is divided by +inf, so its
    weight stays +0.0.

    The parameters are class-major: `params[c]`, (used + 1, B), holds
    class c's weights and bias for every mask, one column a mask.  Class c
    trains on its own signed design, `design[c] = y_c * [features[:, used] | 1]`
    with y_c = +1 on class c's rows and -1 elsewhere, so one product gives
    every hinge argument y * margin, and the product of the transposed
    design with the 0/1 hinge indicator gives the gradient.  The bias
    row's decay is 0, so the bias is not regularized.  An epoch is 9 numpy
    calls into buffers allocated once, each on a cache line; at the batch
    sizes a run makes, the cost of each call, not the arithmetic, sets the
    time, so every operand is an array made once per fit, none is
    broadcast, and every `out` is positional.  The classes are taken by
    bincount, as in `_centroid_table`.
    """
    classes = np.flatnonzero(np.bincount(labels))
    if classes.size < 2:
        raise DegenerateTrainingError(
            f"training data has a single class ({classes[0]!r})"
        )
    n_rows, n_features = features.shape
    batch = keep.shape[0]
    used = np.flatnonzero(keep.any(axis=0))
    width = used.size + 1  # the used columns, then the bias
    # A one-column product goes to BLAS gemv, which sums in another order
    # than gemm; a batch of one is fitted as two equal columns instead.
    columns = max(batch, 2)
    targets = np.where(labels[None, :] == classes[:, None], 1.0, -1.0)
    design = _aligned_empty((classes.size, n_rows, width))
    np.multiply(targets[:, :, None], np.hstack([features[:, used], np.ones((n_rows, 1))]), out=design)
    params = _aligned_empty((classes.size, width, columns))
    params[...] = 0.0
    # The gradient's divisor: n_rows for a kept column and the bias row,
    # +inf for a dropped column.  It and the decay have the parameters'
    # full shape: a broadcast operand cost each call 0.5-0.7 us more at
    # 2-9 masks, more than the extra bytes take to read.
    rows = _aligned_empty(params.shape)
    rows[:, :-1] = np.where(keep[:, used].T, float(n_rows), np.inf)
    rows[:, -1] = float(n_rows)
    decay = _aligned_empty(params.shape)
    decay[...] = float(C)
    decay[:, -1] = 0.0
    hinge = _aligned_empty((classes.size, n_rows, columns))
    # The hinge test writes bools, then one contiguous copy makes them the
    # float indicator: a float `out` for np.less costs a buffered cast,
    # about 2 us an epoch at 9 masks and 20 us at 128.
    active = np.empty(hinge.shape, dtype=bool)
    grad = _aligned_empty(params.shape)
    step = _aligned_empty(params.shape)
    # The weights and biases are bit for bit those of the plain form (a
    # product, a bias broadcast, a target multiply, a separate bias
    # gradient), for five reasons.  Negation is exact and rounding is
    # symmetric in sign, so each term (y*x)*w of the forward product is
    # y*(x*w) and its sum is y times the plain margin.  Each term of the
    # backward product, (y*x)*a with a in {0, 1}, is the plain form's
    # (y*a)*x, signed zeros included.  The bias enters the forward product
    # as the last term of each dot product, as the broadcast did; that holds
    # because the BLAS gemm kernel keeps one accumulator per output, which
    # the reference test checks.  The bias row of the backward product sums
    # integers in {-1, 0, 1}, exact in any order, and the bias step is
    # 0*b - s/n where the plain form takes -s/n, which differ at most in the
    # sign of a zero.  Signed zeros cannot reach `params`: p - (+-0) = p,
    # and `params` never holds -0.0.  The plain form masks a dropped
    # column's gradient as (g*0)/n_rows, the zero with g's sign; the kernel
    # takes g/inf, which for finite g is that same signed zero, and a kept
    # column's g/n_rows is the plain form's own division.  A column the
    # whole batch drops keeps +0.0 in the plain form too, so each of its
    # forward terms x*(+0.0) is a zero; leaving exact zeros out of a sum
    # changes at most the sign of a zero sum, which `hinge < 1` cannot see,
    # and the used columns keep their order, the bias still last.  With a
    # single feature column the plain form's weight gradient is a
    # matrix-vector product, summed in another order, so there the two
    # differ in the last bits.
    threshold = np.array(1.0)
    design_t = design.transpose(0, 2, 1)
    for rate in _rates(C, epochs):
        np.matmul(design, params, hinge)
        np.less(hinge, threshold, active)
        np.copyto(hinge, active)  # now 1.0 where the hinge is active, else +0.0
        np.matmul(design_t, hinge, grad)
        np.divide(grad, rows, grad)
        np.multiply(params, decay, step)
        np.subtract(step, grad, step)
        np.multiply(step, rate, step)
        np.subtract(params, step, params)
    # Back to one row a model, mask b's classes at rows b * n_classes onwards.
    models = params[:, :, :batch].transpose(2, 0, 1).reshape(-1, width)
    weights = np.zeros((models.shape[0], n_features))
    weights[:, used] = models[:, :-1]
    return classes, weights, models[:, -1]


def _standardized(rows: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    # Zero-variance columns are centered but not scaled.
    scale = np.where(std > 0, std, 1.0)
    return (rows - mean) / scale


def _centroid_table(
    train_x: np.ndarray, labels: np.ndarray, test_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Classes and the (tests * classes, features) table of squared deltas.

    Row t * classes + c holds (test_x[t, f] - centroid[c, f])**2 for every
    feature f, the centroids being the full-width class means.  The
    classes are the labels present, as np.unique would give them for these
    dense labels; np.unique's first call imports numpy.ma, about 15 ms and
    1 MiB of heap that making the evaluator does not need.
    """
    classes = np.flatnonzero(np.bincount(labels))
    centroids = np.stack([train_x[labels == c].mean(axis=0) for c in classes])
    deltas = test_x[:, None, :] - centroids[None, :, :]
    return classes, (deltas * deltas).reshape(-1, train_x.shape[1])


def _majority_accuracy(data: SplitDataset) -> float:
    majority = int(np.bincount(data.train_labels).argmax())
    return float(np.mean(data.test_labels == majority))


def _accuracy(line: bytes) -> float:
    """The accuracy in an "OK <accuracy>" reply line; anything else raises."""
    reply = _decoded(line)
    if reply.startswith("ERR"):
        raise EvaluatorError(f"evaluator error: {reply[3:].strip()}")
    if not reply.startswith("OK "):
        raise EvaluatorError(f"malformed evaluator reply: {reply!r}")
    try:
        value = float(reply[3:].strip())
    except ValueError:
        raise EvaluatorError(f"malformed evaluator reply: {reply!r}") from None
    if not 0.0 <= value <= 1.0:
        raise EvaluatorError(f"evaluator accuracy {value} outside [0, 1]")
    return value


def _accuracies(lines: list[bytes]) -> list[float] | None:
    """The accuracies in `lines` if every one is "OK <x>" with x in [0, 1], else None.

    One pass over the batch.  float() on bytes reads only ASCII, so a line
    it takes decodes and parses as _accuracy would parse it; any other line
    sends the batch back to _accuracy, one line at a time.
    """
    values = [line[3:] for line in lines if line[:3] == b"OK "]
    if len(values) < len(lines):
        return None
    try:
        values = [value for value in map(float, values) if 0.0 <= value <= 1.0]
    except ValueError:
        return None
    return values if len(values) == len(lines) else None


def _decoded(line: bytes) -> str:
    try:
        return line.removesuffix(b"\r").decode("utf-8")
    except UnicodeDecodeError:
        raise EvaluatorError(f"evaluator reply is not UTF-8: {line!r}") from None


def _argv(command: str | list[str]) -> list[str]:
    """The argv of an evaluator command line; ValueError if it names no program."""
    try:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
    except ValueError as err:
        raise ValueError(f"cannot split evaluator command line {command!r}: {err}") from None
    if not argv:
        raise ValueError(f"evaluator command line {command!r} names no program")
    return argv


class ExternalEvaluator:
    """Client for a mask-scoring child process.

    Protocol over stdin/stdout, UTF-8, one line per message:
    we send "HELLO EQFS 1 <n>" and expect "READY"; each "EVAL <mask>" is
    answered by "OK <accuracy>" or "ERR <message>", in request order;
    "QUIT" ends the session.  evaluate_many() streams a batch: it writes all
    its requests as one buffer on a non-blocking pipe and reads replies in
    the same select() loop while the rest is still being written.  So a
    server that answers each line before it reads the next serves a batch
    of any size, and so does one that reads the whole batch first; calling
    the evaluator on one mask is a batch of one.  Each reply must come
    within the timeout of the one before it.  The process is reused for
    every mask of a run.  The client waits on its pipes with select(), so it
    needs a POSIX system.
    """

    def __init__(self, command: str | list[str], n: int, timeout: float = 60.0):
        try:
            argv = _argv(command)
        except ValueError as err:
            raise EvaluatorError(str(err)) from None
        self.n = n
        self._timeout = timeout
        self._unread = b""  # bytes received after the last complete reply
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except (OSError, ValueError) as err:  # ValueError: a NUL byte in an argument
            raise EvaluatorError(f"cannot launch evaluator {argv!r}: {err}") from err
        try:
            # Set once: a write then takes what the pipe holds and never blocks.
            os.set_blocking(self._proc.stdin.fileno(), False)
            lines, lost = self._exchange(f"HELLO EQFS 1 {n}\n".encode("utf-8"), 1)
            if lost is not None:
                raise lost
            reply = _decoded(lines[0])
            if reply != "READY":
                raise EvaluatorError(f"bad handshake reply: {reply!r}")
        except BaseException:
            self.close()
            raise

    def _exchange(self, request: bytes, count: int) -> tuple[list[bytes], EvaluatorError | None]:
        """Write `request` while reading `count` reply lines, undecoded.

        Returns the lines read and, if fewer than `count` came, why the next
        one did not.  The loop writes what the pipe takes before it waits,
        and waits only for the pipe to drain or a reply to arrive, each
        reply at most the timeout after the one before it.  The whole
        request is written even when lines left from an earlier exchange
        already fill `count`, so that the server reads every line it was
        sent.  A server that stops reading its input is left to its replies:
        the first one missing ends the exchange.
        """
        try:
            out, fd = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        except ValueError as err:  # closed
            return [], EvaluatorError(f"evaluator process is gone: {err}")
        pending = memoryview(request)
        *lines, self._unread = self._unread.split(b"\n")
        deadline = time.monotonic() + self._timeout
        while True:
            if pending:
                try:
                    pending = pending[os.write(out, pending):]
                except BlockingIOError:
                    pass  # the pipe is full
                except OSError:  # the server closed its input, or exited
                    pending = pending[:0]
            if not pending and len(lines) >= count:
                break
            remaining = max(deadline - time.monotonic(), 0.0)
            readable, writable, _ = select.select([fd], [out] if pending else [], [], remaining)
            if writable and not readable:
                continue
            if not readable:
                self._proc.kill()
                if len(lines) >= count:
                    break  # every reply came, but the server stopped reading
                return lines, EvaluatorError(f"evaluator gave no reply within {self._timeout} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                return lines, self._closed(deadline)
            *complete, self._unread = (self._unread + chunk).split(b"\n")
            if complete:
                lines += complete
                deadline = time.monotonic() + self._timeout
        if len(lines) > count:  # lines sent unasked are read by the next exchange
            self._unread = b"\n".join(lines[count:] + [self._unread])
            del lines[count:]
        return lines, None

    def _closed(self, deadline: float) -> EvaluatorError:
        """Why no reply came after the server closed its output."""
        try:
            code = self._proc.wait(max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            return EvaluatorError(
                f"evaluator closed its output and gave no reply within {self._timeout} s"
            )
        return EvaluatorError(f"evaluator exited early with code {code}")

    def __call__(self, mask: str) -> float:
        return self.evaluate_many([mask])[0]

    def evaluate_many(self, masks: list[str]) -> list[float]:
        """Accuracies of `masks`, in order, sent as one stream of requests.

        Every mask is validated before anything is sent.  A failed request
        raises FitnessError naming the first mask left without an accuracy.
        The replies are all read before any is parsed, so an ERR reply
        leaves the stream in step, and an earlier mask's bad reply is the
        failure reported, as it would be one request at a time.
        """
        validate_masks(masks, self.n)
        if not masks:
            return []
        request = ("EVAL " + "\nEVAL ".join(masks) + "\n").encode("ascii")
        lines, lost = self._exchange(request, len(masks))
        values = _accuracies(lines) if lost is None else None
        if values is not None:
            return values
        values = []
        try:
            for line in lines:
                values.append(_accuracy(line))
            if lost is not None:
                raise lost
        except EvaluatorError as err:
            raise FitnessError(f"evaluator failed: {err}", mask=masks[len(values)]) from err
        return values

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                os.write(self._proc.stdin.fileno(), b"QUIT\n")
            except (OSError, ValueError):
                pass  # a full pipe, or a process that is gone
            deadline = time.monotonic() + CLOSE_TIMEOUT_S
            self._drain(deadline)
            try:
                self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def _drain(self, deadline: float) -> None:
        """Read the reply pipe to end of file, or until `deadline`.

        A server that exits closes its output first, and select() sees
        that at once, where Popen.wait(timeout) only polls in growing sleeps.
        """
        try:
            fd = self._proc.stdout.fileno()
        except ValueError:  # closed
            return
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return
            if not os.read(fd, 65536):
                return

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _LocalEvaluator:
    """Callable facade binding a split and spec; close() is a no-op.

    The features are standardized once, by the training statistics, and
    evaluate_many() is the one scoring routine: a mask's model sees only
    the columns the mask keeps, the all-zero mask scores the majority
    rule, and both models score up to BATCH_MASKS masks together from
    their bool keep-matrix.  The SVM fits the batch in one loop; the
    nearest-centroid model sums a table of per-feature squared distances
    over each mask's kept columns in one matrix product.  Calling the
    evaluator on one mask scores a batch of one.
    """

    def __init__(self, spec: EvaluatorSpec, data: SplitDataset):
        self.spec = spec
        self.data = data
        self._train_x = _standardized(data.train_features, data.train_mean, data.train_std)
        self._test_x = _standardized(data.test_features, data.train_mean, data.train_std)
        self._majority = _majority_accuracy(data)
        self._score = self._svm_accuracies
        if spec.kind == "nearest-centroid":
            self._classes, self._squares = _centroid_table(
                self._train_x, data.train_labels, self._test_x
            )
            self._score = self._centroid_accuracies

    def __call__(self, mask: str) -> float:
        return self.evaluate_many([mask])[0]

    def evaluate_many(self, masks: list[str]) -> list[float]:
        """Accuracies of `masks`, in order, scored BATCH_MASKS at a time."""
        keep = mask_columns(masks, self.data.n_features)
        accuracies = np.full(len(masks), self._majority)
        fitted = np.flatnonzero(keep.any(axis=1))
        try:
            for start in range(0, fitted.size, BATCH_MASKS):
                rows = fitted[start : start + BATCH_MASKS]
                accuracies[rows] = self._score(keep[rows])
        except DegenerateTrainingError:
            pass  # single-class training data: every mask scores the majority rule
        return accuracies.tolist()

    def _centroid_accuracies(self, keep: np.ndarray) -> np.ndarray:
        # A mask's centroids are the full-width ones restricted to its kept
        # columns, so its squared distances are the table summed over them.
        tests, classes = len(self._test_x), self._classes.size
        distances = (self._squares @ keep.T).reshape(tests, classes, len(keep))
        # argmin takes the first minimum, so ties go to the lowest class.
        predictions = self._classes[np.argmin(distances, axis=1)]
        return np.mean(predictions == self.data.test_labels[:, None], axis=0)

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
