"""Evaluator tests: linear SVM, nearest centroid, external protocol."""

import fcntl
import gc
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfselect import classifier
from qfselect.classifier import (
    EvaluatorSpec,
    ExternalEvaluator,
    _standardized,
    make_evaluator,
)
from qfselect.dataset import SplitDataset, load_csv, stratified_split, wine_csv_path
from qfselect.errors import DegenerateTrainingError, EvaluatorError, FitnessError, MaskError
from qfselect.objective import EvaluationLedger

from helpers import NOT_BITSTRINGS, planted_rows, reference_train_ovr

STUB = str(Path(__file__).parent / "evaluator_stub.py")
EXT_SERVER = str(Path(__file__).parent.parent / "bench" / "ext_server.py")


def stub_cmd(mode):
    return f"{sys.executable} {STUB} {mode}"


def replay_argv(*replies):
    return [sys.executable, STUB, "replay"] + [reply.hex() for reply in replies]


def make_split(train_x, train_y, test_x, test_y):
    train_x = np.asarray(train_x, dtype=np.float64)
    return SplitDataset(
        train_features=train_x,
        train_labels=np.asarray(train_y),
        test_features=np.asarray(test_x, dtype=np.float64),
        test_labels=np.asarray(test_y),
        train_mean=train_x.mean(axis=0),
        train_std=train_x.std(axis=0),
    )


def two_blob_split(seed=0, spread=0.2, n_train=20, n_test=10):
    rng = np.random.default_rng(seed)

    def blob(center, count):
        return center + rng.normal(scale=spread, size=(count, 2))

    train_x = np.vstack([blob([-1.0, -1.0], n_train), blob([1.0, 1.0], n_train)])
    test_x = np.vstack([blob([-1.0, -1.0], n_test), blob([1.0, 1.0], n_test)])
    train_y = np.array([0] * n_train + [1] * n_train)
    test_y = np.array([0] * n_test + [1] * n_test)
    return make_split(train_x, train_y, test_x, test_y)


def brute_force_separable(features, labels):
    """Grid search over 2-D separators; True if any line splits perfectly."""
    for theta in np.linspace(0.0, np.pi, 720, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = features @ w
        lo = proj[labels == 0]
        hi = proj[labels == 1]
        if lo.max() < hi.min() or hi.max() < lo.min():
            return True
    return False


class TestEvaluatorSpec:
    def test_defaults(self):
        spec = EvaluatorSpec()
        assert spec.kind == "linear-svm"
        assert spec.C == 1.0
        assert spec.epochs == 200

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            EvaluatorSpec(kind="forest")
        with pytest.raises(ValueError, match="C"):
            EvaluatorSpec(C=0.0)
        with pytest.raises(ValueError, match="epochs"):
            EvaluatorSpec(epochs=0)
        for command in (None, "", "   ", "'x"):
            with pytest.raises(ValueError, match="command line"):
                EvaluatorSpec(kind="external", external_cmd=command)
        with pytest.raises(ValueError, match="timeout"):
            EvaluatorSpec(timeout=0.0)
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="C"):
                EvaluatorSpec(C=value)
            with pytest.raises(ValueError, match="timeout"):
                EvaluatorSpec(timeout=value)
        for value in (2.5, 200.0, True):
            with pytest.raises(ValueError, match="epochs"):
                EvaluatorSpec(epochs=value)
        assert EvaluatorSpec(epochs=np.int64(3)).epochs == 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("C", True, "C must be a real number"),
            ("C", np.True_, "C must be a real number"),
            ("C", "1", "C must be a real number"),
            ("C", None, "C must be a real number"),
            ("C", 1j, "C must be a real number"),
            ("timeout", False, "timeout must be a real number"),
            ("timeout", "5", "timeout must be a real number"),
            ("external_cmd", ["python3", "server.py"], "external_cmd must be a string"),
            ("external_cmd", b"python3", "external_cmd must be a string"),
            ("external_cmd", True, "external_cmd must be a string"),
            ("kind", True, "kind must be a string"),
            ("kind", None, "kind must be a string"),
            ("epochs", True, "epochs must be an integer"),
            ("epochs", "200", "epochs must be an integer"),
            ("epochs", None, "epochs must be an integer"),
            ("timeout", None, "timeout must be a real number"),
        ],
    )
    def test_refuses_a_field_of_the_wrong_type(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EvaluatorSpec(**{field: value})

    def test_keeps_an_integer_C_as_given(self):
        # Records write the config as given: an int C stays an int.
        assert EvaluatorSpec(C=1).C == 1 and type(EvaluatorSpec(C=1).C) is int
        assert EvaluatorSpec(C=np.float64(0.5), timeout=5).timeout == 5


def train_one(x, y, C=1.0, epochs=200):
    """`_train_ovr` fitting one model on every column of `x`."""
    return classifier._train_ovr(x, y, C, epochs, np.ones((1, x.shape[1])))


class TestTrainLinearSvm:
    def test_one_dimensional_separable(self):
        x = np.array([[-2.0], [-2.1], [-1.9], [2.0], [2.1], [1.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        classes, weights, biases = train_one(x, y)
        assert np.array_equal(classes[np.argmax(x @ weights.T + biases, axis=1)], y)
        # The class-1 score grows with x, the class-0 score falls.
        assert weights[1, 0] > 0
        assert weights[0, 0] < 0

    def test_duplicated_rows_leave_model_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        if np.unique(y).size < 2:  # keep the fixture honest
            y[0] = (y[0] + 1) % 3
        _, weights, biases = train_one(x, y, C=1.0, epochs=50)
        _, doubled_w, doubled_b = train_one(
            np.vstack([x, x]), np.concatenate([y, y]), C=1.0, epochs=50
        )
        np.testing.assert_allclose(weights, doubled_w, atol=1e-12)
        np.testing.assert_allclose(biases, doubled_b, atol=1e-12)

    def test_single_epoch_defined(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        _, weights, _ = train_one(x, y, epochs=1)
        assert np.any(weights != 0)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train_one(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        _, weights, biases = train_one(x, y)
        _, again_w, again_b = train_one(x, y)
        assert np.array_equal(weights, again_w)
        assert np.array_equal(biases, again_b)


class TestEvaluate:
    def test_majority_rule_all_zero_mask(self):
        train_y = [0] * 7 + [1] * 2 + [2] * 1
        test_y = [0] * 7 + [1] * 2 + [2] * 1
        split = make_split(
            np.zeros((10, 3)), train_y, np.zeros((10, 3)), test_y
        )
        for kind in ("linear-svm", "nearest-centroid"):
            assert make_evaluator(EvaluatorSpec(kind=kind), split)("000") == pytest.approx(0.7)

    def test_separable_blobs_full_mask(self):
        split = two_blob_split()
        assert brute_force_separable(split.train_features, split.train_labels)
        assert make_evaluator(EvaluatorSpec(), split)("11") == 1.0
        assert make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)("11") == 1.0

    def test_determinism(self):
        split = two_blob_split(seed=3, spread=0.9)
        spec = EvaluatorSpec()
        values = {make_evaluator(spec, split)("11") for _ in range(5)}
        assert len(values) == 1

    def test_permuting_unselected_columns_is_invisible(self):
        rng = np.random.default_rng(11)
        train_x = rng.normal(size=(24, 5))
        test_x = rng.normal(size=(12, 5))
        train_y = rng.integers(0, 2, size=24)
        test_y = rng.integers(0, 2, size=12)
        mask = "10100"
        base = make_split(train_x, train_y, test_x, test_y)
        # Shuffle the mask-0 columns 1, 3, 4 among themselves.
        perm = [0, 3, 2, 4, 1]
        scrambled = make_split(train_x[:, perm], train_y, test_x[:, perm], test_y)
        for kind in ("linear-svm", "nearest-centroid"):
            spec = EvaluatorSpec(kind=kind)
            assert make_evaluator(spec, base)(mask) == make_evaluator(spec, scrambled)(mask)

    def test_label_copy_feature_scores_perfectly(self):
        rng = np.random.default_rng(2)
        train_y = rng.integers(0, 2, size=40)
        test_y = rng.integers(0, 2, size=20)
        train_x = np.column_stack(
            [rng.normal(size=40), train_y.astype(float), rng.normal(size=40)]
        )
        test_x = np.column_stack(
            [rng.normal(size=20), test_y.astype(float), rng.normal(size=20)]
        )
        split = make_split(train_x, train_y, test_x, test_y)
        ev = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)
        for mask in ("010", "011", "110", "111"):
            assert ev(mask) == 1.0

    def test_zero_variance_column_centered_only(self):
        train_x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        split = make_split(train_x, [0, 0, 1, 1], train_x, [0, 0, 1, 1])
        out = _standardized(train_x, split.train_mean, split.train_std)
        assert abs(out[:, 0].mean()) <= 1e-9
        assert out[:, 0].std() == pytest.approx(1.0)
        np.testing.assert_array_equal(out[:, 1], 0.0)
        # Still evaluable: the constant column adds nothing but breaks nothing.
        assert 0.0 <= make_evaluator(EvaluatorSpec(), split)("11") <= 1.0

    def test_standardization_uses_train_statistics(self):
        rng = np.random.default_rng(9)
        train_x = rng.normal(loc=10.0, scale=3.0, size=(30, 2))
        out = _standardized(train_x, train_x.mean(axis=0), train_x.std(axis=0))
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_mask_width_mismatch(self):
        split = two_blob_split()
        with pytest.raises(MaskError):
            make_evaluator(EvaluatorSpec(), split)("111")


WINE_SPLIT = stratified_split(load_csv(wine_csv_path(), "class"), 0.2, seed=21)


def reference_accuracy(mask, data, kind):
    """Accuracy of a model fitted on the standardized kept columns alone."""
    cols = [i for i, ch in enumerate(mask) if ch == "1"]
    if not cols:
        majority = np.bincount(data.train_labels).argmax()
        return float(np.mean(data.test_labels == majority))
    mean, std = data.train_mean[cols], data.train_std[cols]
    train_x = _standardized(data.train_features[:, cols], mean, std)
    test_x = _standardized(data.test_features[:, cols], mean, std)
    if kind == "linear-svm":
        classes, weights, biases = reference_train_ovr(
            train_x, data.train_labels, 1.0, 200, np.ones((1, len(cols)))
        )
        # argmax takes the first maximum, so ties go to the lowest class.
        predictions = classes[np.argmax(test_x @ weights.T + biases, axis=1)]
    else:
        classes = np.unique(data.train_labels)
        centroids = np.stack([train_x[data.train_labels == c].mean(axis=0) for c in classes])
        distances = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predictions = classes[np.argmin(distances, axis=1)]
    return float(np.mean(predictions == data.test_labels))


def _two_class_split_with_a_constant_column():
    features, labels = planted_rows(n=5, rows=40, informative=(0, 1, 2), seed=4)
    features[:, 3] = 2.5
    return make_split(features[:30], labels[:30], features[30:], labels[30:])


def _kernel_inputs(data):
    """Standardized training features and labels, as the evaluator fits them."""
    return _standardized(data.train_features, data.train_mean, data.train_std), data.train_labels


def _wide_split():
    features, labels = planted_rows(n=48, rows=80, informative=(5, 17, 40), seed=8)
    return make_split(features[:60], labels[:60], features[60:], labels[60:])


KERNEL_INPUTS = {
    "wine": _kernel_inputs(WINE_SPLIT),
    # The constant column standardizes to all zeros: the signed-zero path.
    "two-class": _kernel_inputs(_two_class_split_with_a_constant_column()),
    # Longer dot products than wine's 14 terms in both matrix products.
    "wide": _kernel_inputs(_wide_split()),
}


class TestTrainOvr:
    @settings(max_examples=150, deadline=None)
    @given(
        split=st.sampled_from(sorted(KERNEL_INPUTS)),
        batch=st.integers(1, classifier.BATCH_MASKS),
        C=st.sampled_from([0.25, 1.0, 3.0]),
        epochs=st.sampled_from([1, 2, 200]),
        seed=st.integers(0, 2**32 - 1),
        narrow=st.booleans(),
    )
    def test_bit_identical_to_reference(self, split, batch, C, epochs, seed, narrow):
        features, labels = KERNEL_INPUTS[split]
        width = features.shape[1]
        rng = np.random.default_rng(seed)
        keep = rng.random((batch, width)) < 0.5
        if narrow:
            # Every row within one subset of 1..F columns, keeping at least
            # one of them: the fit leaves the other columns out entirely.
            used = rng.choice(width, rng.integers(1, width + 1), replace=False)
            keep[:, np.setdiff1d(np.arange(width), used)] = False
            keep[np.arange(batch), rng.choice(used, batch)] = True
        classes, weights, biases = classifier._train_ovr(features, labels, C, epochs, keep)
        ref_classes, ref_weights, ref_biases = reference_train_ovr(
            features, labels, C, epochs, keep
        )
        assert np.array_equal(classes, ref_classes)
        assert weights.tobytes() == ref_weights.tobytes()
        assert biases.tobytes() == ref_biases.tobytes()

    def test_a_fit_does_not_import_numpy_ma(self):
        # np.unique's first call imports numpy.ma, about 15 ms and 1 MiB of
        # heap; the classes come from bincount instead.
        code = (
            "import sys, numpy as np; from qfselect import classifier; "
            "x = np.random.default_rng(0).normal(size=(30, 4)); "
            "classifier._train_ovr(x, np.arange(30) % 3, 1.0, 5, np.ones((2, 4))); "
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(Path(classifier.__file__).parents[1])),
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("split", sorted(KERNEL_INPUTS))
    def test_smallest_batches_bit_identical_to_reference(self, split, batch):
        # A one-column product would go to BLAS gemv, which sums in another
        # order than gemm, so a batch of one must be fitted as two columns.
        features, labels = KERNEL_INPUTS[split]
        rng = np.random.default_rng(5)
        for _ in range(4):
            keep = rng.random((batch, features.shape[1])) < 0.5
            _, weights, biases = classifier._train_ovr(features, labels, 1.0, 200, keep)
            _, ref_weights, ref_biases = reference_train_ovr(features, labels, 1.0, 200, keep)
            assert weights.tobytes() == ref_weights.tobytes()
            assert biases.tobytes() == ref_biases.tobytes()

    def test_two_class_split_has_a_zero_column(self):
        features, labels = KERNEL_INPUTS["two-class"]
        assert np.unique(labels).size == 2
        assert np.all(features[:, 3] == 0.0)

    def test_wide_split_has_48_columns(self):
        features, labels = KERNEL_INPUTS["wide"]
        assert features.shape == (60, 48)
        assert np.unique(labels).size == 2

    # A batch of one is padded to two columns; BATCH_MASKS is a full chunk.
    @pytest.mark.parametrize("batch", [1, 2, 9, classifier.BATCH_MASKS])
    @pytest.mark.parametrize("split", sorted(KERNEL_INPUTS))
    def test_dropped_columns_stay_positive_zero(self, split, batch):
        features, labels = KERNEL_INPUTS[split]
        keep = np.random.default_rng(3).random((batch, features.shape[1])) < 0.5
        keep[:, 1] = False  # a column the whole batch drops is never fitted
        classes, weights, _ = classifier._train_ovr(features, labels, 1.0, 200, keep)
        assert weights.shape == (batch * classes.size, features.shape[1])
        dropped = ~np.repeat(keep, classes.size, axis=0)
        assert dropped.any()
        assert np.all(weights[dropped] == 0.0)
        assert not np.any(np.signbit(weights[dropped]))

    @pytest.mark.parametrize("seed", range(12))
    def test_one_column_split_predicts_as_reference(self, seed):
        # With a single feature column the reference's weight gradient,
        # `active.T @ features`, is a matrix-vector product that BLAS sums
        # in another order than the kernel's two-column product, so the
        # weights may differ in their last bits.  The predictions may not.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 1))
        labels = np.digitize(x[:, 0] + rng.normal(scale=0.5, size=60), [-0.5, 0.5])
        labels = labels % (2 + seed % 2)  # two or three classes
        train_x, train_y, test_x = x[:40], labels[:40], x[40:]
        keep = np.ones((1, 1), dtype=bool)
        classes, weights, biases = classifier._train_ovr(train_x, train_y, 1.0, 200, keep)
        ref_classes, ref_weights, ref_biases = reference_train_ovr(
            train_x, train_y, 1.0, 200, keep
        )
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(biases, ref_biases, rtol=0, atol=1e-15)
        predictions = classes[np.argmax(test_x @ weights.T + biases, axis=1)]
        expected = ref_classes[np.argmax(test_x @ ref_weights.T + ref_biases, axis=1)]
        assert np.array_equal(predictions, expected)


class TestEvaluateMany:
    @settings(max_examples=30, deadline=None)
    @given(
        masks=st.lists(st.text(alphabet="01", min_size=13, max_size=13), max_size=8),
        chunk=st.sampled_from([1, 3, classifier.BATCH_MASKS]),
        kind=st.sampled_from(["linear-svm", "nearest-centroid"]),
    )
    def test_matches_per_mask_evaluate_on_wine(self, masks, chunk, kind):
        masks = masks + ["0" * 13] + masks[:2]  # the all-zero mask and duplicates
        ev = make_evaluator(EvaluatorSpec(kind=kind), WINE_SPLIT)
        with mock.patch.object(classifier, "BATCH_MASKS", chunk):
            got = ev.evaluate_many(masks)
        assert got == [reference_accuracy(mask, WINE_SPLIT, kind) for mask in masks]
        assert got == [ev(mask) for mask in masks]

    @pytest.mark.parametrize("kind", ["linear-svm", "nearest-centroid"])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_accuracies_do_not_depend_on_the_batch_size(self, kind, seed):
        # Running the masks of several runs, or of a whole oracle chunk, in
        # one batch relies on each mask's accuracy being the same in any batch,
        # whatever columns its batch-mates keep: a fit leaves out the columns
        # no mask of its batch keeps.  So 128 masks keep columns of one
        # 4-column subset only, and 64 keep each column with p = 0.12.
        rng = np.random.default_rng(seed)
        rows = rng.random((256, 13)) < 0.5
        narrow = rng.random((128, 13)) < 0.5
        narrow[:, rng.permutation(13)[4:]] = False
        sparse = rng.random((64, 13)) < 0.12
        rows = np.vstack([rows, narrow, sparse])
        masks = ["".join("1" if kept else "0" for kept in row) for row in rows]
        ev = make_evaluator(EvaluatorSpec(kind=kind), WINE_SPLIT)
        results = []
        for chunk in (128, 9, 1):
            with mock.patch.object(classifier, "BATCH_MASKS", chunk):
                results.append(ev.evaluate_many(masks))
        assert results[0] == results[1] == results[2]

    def test_every_wine_mask_scores_as_the_reference_nearest_centroid(self):
        # The batched table sums each mask's squared distances in another
        # order than a model fitted on the kept columns alone.
        masks = [format(index, "013b") for index in range(1, 1 << 13)]
        got = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), WINE_SPLIT).evaluate_many(masks)
        assert got == [reference_accuracy(mask, WINE_SPLIT, "nearest-centroid") for mask in masks]

    def test_single_class_training_scores_majority(self):
        split = make_split(
            [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]], [1, 1, 1],
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1, 0, 1, 0],
        )
        ev = make_evaluator(EvaluatorSpec(), split)
        assert ev("11") == 0.5
        assert ev.evaluate_many(["11", "10", "00"]) == [0.5, 0.5, 0.5]

    def test_bad_mask_rejected(self):
        ev = make_evaluator(EvaluatorSpec(), two_blob_split())
        with pytest.raises(MaskError):
            ev.evaluate_many(["11", "111"])
        with pytest.raises(MaskError):
            ev.evaluate_many(["1x"])

    @pytest.mark.parametrize("text", NOT_BITSTRINGS)
    def test_rejects_what_base_2_parsing_accepts(self, text):
        ev = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), two_blob_split())
        with pytest.raises(MaskError, match="not a bitstring"):
            ev.evaluate_many(["11", text])


class TestExternalEvaluator:
    def test_happy_path_and_reuse(self):
        with ExternalEvaluator(stub_cmd("ones-fraction"), n=3) as proc:
            assert proc("101") == pytest.approx(2 / 3)
            assert proc("000") == 0.0
            assert proc("111") == 1.0

    def test_err_reply(self):
        with ExternalEvaluator(stub_cmd("err"), n=3) as proc:
            with pytest.raises(EvaluatorError, match="no such column"):
                proc("101")

    def test_out_of_range_reply(self):
        with ExternalEvaluator(stub_cmd("range"), n=3) as proc:
            with pytest.raises(EvaluatorError, match="outside"):
                proc("101")

    def test_malformed_reply(self):
        with ExternalEvaluator(stub_cmd("malformed"), n=3) as proc:
            with pytest.raises(EvaluatorError, match="malformed"):
                proc("101")

    def test_process_death_detected(self):
        with ExternalEvaluator(stub_cmd("die"), n=3) as proc:
            with pytest.raises(EvaluatorError, match="exited"):
                proc("101")

    def test_timeout(self):
        with ExternalEvaluator(stub_cmd("slow"), n=3, timeout=0.3) as proc:
            with pytest.raises(EvaluatorError, match="no reply"):
                proc("101")

    def test_bad_handshake(self):
        with pytest.raises(EvaluatorError, match="handshake"):
            ExternalEvaluator(stub_cmd("bad-handshake"), n=3)

    def test_reply_that_is_not_utf8(self):
        with ExternalEvaluator(stub_cmd("bad-utf8"), n=3, timeout=30) as proc:
            started = time.monotonic()
            with pytest.raises(EvaluatorError, match="not UTF-8"):
                proc("101")
            assert time.monotonic() - started < 5

    def test_closed_stdout_of_a_live_process(self):
        # The child closes its stdout but keeps running: end of file must
        # not wait past the reply deadline.
        with ExternalEvaluator(stub_cmd("close-stdout"), n=3, timeout=1) as proc:
            started = time.monotonic()
            with pytest.raises(EvaluatorError, match="no reply within"):
                proc("101")
            assert time.monotonic() - started < 5

    def test_replies_split_across_reads_and_crlf(self):
        # Two replies in one write, the second with a CRLF ending, then a
        # reply sent a byte at a time: each call returns exactly one line.
        script = (
            "import sys, time\n"
            "out = sys.stdout.buffer\n"
            "sys.stdin.readline(); out.write(b'READY\\n'); out.flush()\n"
            "sys.stdin.readline(); out.write(b'OK 0.25\\nOK 0.5\\r\\n'); out.flush()\n"
            "sys.stdin.readline()\n"
            "sys.stdin.readline()\n"
            "for b in b'OK 0.75\\n':\n"
            "    out.write(bytes([b])); out.flush(); time.sleep(0.01)\n"
            "sys.stdin.readline()\n"
        )
        with ExternalEvaluator([sys.executable, "-c", script], n=3, timeout=5) as proc:
            assert [proc("101"), proc("011"), proc("111")] == [0.25, 0.5, 0.75]

    @settings(max_examples=25, deadline=None)
    @given(
        replies=st.lists(
            st.tuples(
                st.sampled_from([b"", b"OK "]),
                st.binary(max_size=24).map(lambda b: b.replace(b"\n", b""))
                | st.floats().map(lambda x: repr(x).encode()),
            ).map(b"".join),
            min_size=1,
            max_size=3,
        )
    )
    def test_any_reply_is_an_accuracy_or_an_evaluator_error(self, replies):
        with ExternalEvaluator(replay_argv(*replies), n=3, timeout=2) as proc:
            for _ in replies:
                try:
                    value = proc("101")
                except EvaluatorError:
                    continue
                assert type(value) is float and 0.0 <= value <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from([b"OK ", b"OK", b"ERR ", b"ok ", b""]),
                st.lists(
                    st.sampled_from(
                        [b"0", b"1", b".", b"5", b"e-1", b"_", b"-", b"+", b" ", b"\t",
                         b"\r", b"\x1f", b"\xc2\xa0", b"\xd9\xa0", b"\xff", b"nan", b"inf"]
                    ),
                    max_size=6,
                ).map(b"".join)
                | st.floats().map(lambda x: repr(x).encode()),
            ).map(b"".join),
            max_size=4,
        )
    )
    def test_one_pass_parse_agrees_with_the_line_rule(self, lines):
        # The batch parse may give up, but what it returns is what the
        # one-line rule gives, sign of zero included.
        values = classifier._accuracies(lines)
        if values is not None:
            assert [repr(v) for v in values] == [repr(classifier._accuracy(l)) for l in lines]

    @pytest.mark.parametrize(
        "mode",
        ["ones-fraction", "die", "slow", "bad-handshake", "bad-utf8", "close-stdout"],
    )
    def test_close_releases_pipes(self, mode):
        opened = []
        real_popen = classifier.subprocess.Popen

        def recording_popen(*args, **kwargs):
            opened.append(real_popen(*args, **kwargs))
            return opened[-1]

        with mock.patch.object(classifier.subprocess, "Popen", recording_popen):
            for score in (lambda ev: ev("101"), lambda ev: ev.evaluate_many(["101", "011"])):
                try:
                    with ExternalEvaluator(stub_cmd(mode), n=3, timeout=0.3) as proc:
                        score(proc)
                except (EvaluatorError, FitnessError):
                    pass
        assert len(opened) == 2
        for child in opened:
            assert child.stdin.closed and child.stdout.closed
            assert child.returncode is not None

    def test_close_kills_a_server_that_closes_its_output_but_keeps_running(
        self, monkeypatch
    ):
        # End of file on the reply pipe is not an exit: close() still waits
        # for the process, and kills it once its deadline passes.
        script = (
            "import os, sys, time\n"
            "sys.stdin.readline(); print('READY', flush=True)\n"
            "os.close(sys.stdout.fileno())\n"
            "time.sleep(30)\n"
        )
        monkeypatch.setattr(classifier, "CLOSE_TIMEOUT_S", 0.3)
        proc = ExternalEvaluator([sys.executable, "-c", script], n=3, timeout=5)
        child = proc._proc
        started = time.monotonic()
        proc.close()
        assert time.monotonic() - started < 5
        assert child.returncode == -signal.SIGKILL
        assert child.stdin.closed and child.stdout.closed

    def test_unlaunchable_command(self):
        with pytest.raises(EvaluatorError, match="launch"):
            ExternalEvaluator("/no/such/binary-xyz", n=3)
        with pytest.raises(EvaluatorError, match="launch"):
            ExternalEvaluator([sys.executable, "-c", "\0"], n=3)

    @pytest.mark.parametrize("command", ["'x", "   ", []])
    def test_command_that_names_no_program(self, command):
        with pytest.raises(EvaluatorError, match="evaluator command line"):
            ExternalEvaluator(command, n=3)

    @pytest.mark.parametrize(
        "mode", ["err", "range", "malformed", "die", "bad-utf8", "close-stdout", "slow"]
    )
    def test_a_failing_call_names_its_mask(self, mode):
        # ev(mask) is a batch of one: it raises what evaluate_many([mask]) does.
        with ExternalEvaluator(stub_cmd(mode), n=3, timeout=0.5) as proc:
            with pytest.raises(FitnessError) as one:
                proc("101")
        with ExternalEvaluator(stub_cmd(mode), n=3, timeout=0.5) as proc:
            with pytest.raises(FitnessError) as batch:
                proc.evaluate_many(["101"])
        assert one.value.mask == "101"
        assert isinstance(one.value, EvaluatorError)
        assert str(one.value) == str(batch.value)

    @pytest.mark.parametrize("bad", ["011\n111", "01", "0111", "0 1"])
    def test_bad_mask_is_refused_before_it_is_sent(self, bad):
        # A newline inside a mask would send two requests and leave every
        # later reply one call late.
        with ExternalEvaluator(stub_cmd("ones-fraction"), n=3, timeout=5) as proc:
            with pytest.raises(MaskError):
                proc(bad)
            with pytest.raises(MaskError):
                proc.evaluate_many(["100", bad])
            assert proc("110") == pytest.approx(2 / 3)
            assert proc.evaluate_many(["100", "000"]) == [pytest.approx(1 / 3), 0.0]


class TestPipelinedEvaluation:
    def test_requests_are_pipelined(self):
        # This server reads two requests before it answers either, so a
        # client that waits for each reply before sending the next hangs.
        script = (
            "import sys\n"
            "sys.stdin.readline(); print('READY', flush=True)\n"
            "lines = [sys.stdin.readline(), sys.stdin.readline()]\n"
            "for line in lines:\n"
            "    print(f'OK {line.split()[1].count(\"1\") / 3}', flush=True)\n"
            "sys.stdin.readline()\n"
        )
        with ExternalEvaluator([sys.executable, "-c", script], n=3, timeout=5) as proc:
            assert proc.evaluate_many(["100", "011"]) == [1 / 3, 2 / 3]

    def test_wide_batch_cannot_deadlock(self):
        # 8000 requests of 68 bytes and their replies of about 22 bytes each
        # overfill a 64 KiB pipe, so replies must be read while requests are
        # written: a client blocked writing while the stub is blocked writing
        # replies would hang.
        rng = np.random.default_rng(7)
        masks = ["".join(row) for row in rng.choice(["0", "1"], size=(8000, 62))]
        with ExternalEvaluator(stub_cmd("ones-fraction"), n=62, timeout=10) as proc:
            assert proc.evaluate_many(masks) == [mask.count("1") / 62 for mask in masks]

    @pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs Linux pipe sizing")
    def test_a_window_fits_the_smallest_pipe(self):
        # The server shrinks its request pipe to one page and never reads,
        # so 32 requests of 506 bytes fill it four times over: a blocking
        # write would wait until the server exits, instead of timing out on
        # the first reply.
        script = (
            "import fcntl, sys, time\n"
            "fcntl.fcntl(0, fcntl.F_SETPIPE_SZ, 4096)\n"
            "sys.stdin.readline(); print('READY', flush=True)\n"
            "time.sleep(3)\n"
        )
        masks = ["0" * 500] * 32
        with ExternalEvaluator([sys.executable, "-c", script], n=500, timeout=0.3) as proc:
            with pytest.raises(FitnessError, match="no reply within") as exc:
                proc.evaluate_many(masks)
        assert exc.value.mask == masks[0]

    def test_a_server_that_reads_the_whole_batch_first(self):
        # 3000 requests of 68 bytes, over 200 KiB, all read before the first
        # reply: a client that waits for replies before it has written the
        # whole batch times out here.
        script = (
            "import sys\n"
            "sys.stdin.readline(); print('READY', flush=True)\n"
            "batch = [sys.stdin.readline() for _ in range(3000)]\n"
            "sys.stdout.write(''.join(f'OK {line.split()[1].count(\"1\") / 62!r}\\n' for line in batch))\n"
            "sys.stdout.flush()\n"
            "sys.stdin.readline()\n"
        )
        rng = np.random.default_rng(11)
        masks = ["".join(row) for row in rng.choice(["0", "1"], size=(3000, 62))]
        with ExternalEvaluator([sys.executable, "-c", script], n=62, timeout=10) as proc:
            assert proc.evaluate_many(masks) == [mask.count("1") / 62 for mask in masks]

    def test_a_call_after_a_streamed_batch_gets_its_own_reply(self):
        rng = np.random.default_rng(3)
        masks = ["".join(row) for row in rng.choice(["0", "1"], size=(2000, 62))]
        with ExternalEvaluator(stub_cmd("ones-fraction"), n=62, timeout=10) as proc:
            assert proc.evaluate_many(masks) == [mask.count("1") / 62 for mask in masks]
            for ones in (62, 0, 31, 1):
                assert proc("1" * ones + "0" * (62 - ones)) == ones / 62

    @pytest.mark.parametrize("mode", ["ones-fraction", "die", "slow"])
    def test_a_streamed_batch_leaves_no_resource_warning(self, mode):
        masks = [format(i, "010b") for i in range(300)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            proc = ExternalEvaluator(stub_cmd(mode), n=10, timeout=0.5)
            try:
                proc.evaluate_many(masks)
            except FitnessError:
                pass
            proc.close()
            del proc
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_empty_batch_sends_nothing(self):
        with ExternalEvaluator(stub_cmd("die"), n=3, timeout=5) as proc:
            assert proc.evaluate_many([]) == []
            with pytest.raises(EvaluatorError, match="exited early with code 3"):
                proc("101")

    def test_bench_ext_server_serves_a_pipelined_sweep(self):
        masks = [format(i, "010b") for i in range(2**10)]
        with ExternalEvaluator([sys.executable, EXT_SERVER], n=10, timeout=10) as proc:
            assert proc.evaluate_many(masks) == [mask.count("1") / 10 for mask in masks]

    def test_error_reply_in_a_window_names_its_mask(self):
        ev = ExternalEvaluator(replay_argv(b"OK 0.5", b"OK 0.25", b"ERR bad col"), n=3, timeout=5)
        ledger = EvaluationLedger()
        with ev, pytest.raises(FitnessError, match="evaluator error: bad col") as exc:
            ledger.score(["100", "010", "001"], ev)
        assert exc.value.mask == "001"
        assert ledger.size == 0  # a failed batch caches none of its masks

    def test_error_reply_leaves_the_stream_in_step(self):
        argv = replay_argv(b"OK 0.5", b"ERR bad col", b"OK 0.25", b"OK 0.75")
        with ExternalEvaluator(argv, n=3, timeout=5) as proc:
            with pytest.raises(FitnessError, match="evaluator error: bad col") as exc:
                proc.evaluate_many(["100", "010", "001"])
            assert exc.value.mask == "010"
            assert proc("111") == 0.75

    def test_early_exit_in_a_window_names_its_mask(self, capfd):
        ev = ExternalEvaluator(replay_argv(b"OK 0.5"), n=3, timeout=5)
        with ev, pytest.raises(FitnessError, match="exited early") as exc:
            EvaluationLedger().score(["100", "010", "001"], ev)
        assert exc.value.mask == "010"
        capfd.readouterr()  # the stub's traceback for its missing reply

    def test_bad_reply_before_an_early_exit_is_the_failure_reported(self, capfd):
        # One request at a time, "010" would fail before "001" was sent.
        ev = ExternalEvaluator(replay_argv(b"OK 0.5", b"WAT"), n=3, timeout=5)
        with ev, pytest.raises(FitnessError, match="malformed evaluator reply: 'WAT'") as exc:
            ev.evaluate_many(["100", "010", "001"])
        assert exc.value.mask == "010"
        capfd.readouterr()

    def test_timeout_in_a_window_names_the_first_mask(self):
        ev = ExternalEvaluator(stub_cmd("slow"), n=3, timeout=0.3)
        with ev, pytest.raises(FitnessError, match="no reply within") as exc:
            EvaluationLedger().score(["100", "010", "001"], ev)
        assert exc.value.mask == "100"


class TestMakeEvaluator:
    def test_local_kind(self):
        split = two_blob_split()
        ev = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)
        assert ev("11") == 1.0
        ev.close()

    def test_external_kind(self):
        split = two_blob_split()
        spec = EvaluatorSpec(kind="external", external_cmd=stub_cmd("ones-fraction"))
        ev = make_evaluator(spec, split)
        try:
            assert ev("10") == 0.5
        finally:
            ev.close()
