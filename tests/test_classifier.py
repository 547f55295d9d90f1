"""Evaluator tests: linear SVM, nearest centroid, external protocol."""

import sys
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
    evaluate,
    make_evaluator,
    train_linear_svm,
)
from qfselect.dataset import SplitDataset, load_csv, stratified_split, wine_csv_path
from qfselect.errors import DegenerateTrainingError, EvaluatorError, MaskError

STUB = str(Path(__file__).parent / "evaluator_stub.py")


def stub_cmd(mode):
    return f"{sys.executable} {STUB} {mode}"


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
        with pytest.raises(ValueError, match="command"):
            EvaluatorSpec(kind="external")
        with pytest.raises(ValueError, match="timeout"):
            EvaluatorSpec(timeout=0.0)


class TestTrainLinearSvm:
    def test_one_dimensional_separable(self):
        x = np.array([[-2.0], [-2.1], [-1.9], [2.0], [2.1], [1.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = train_linear_svm(x, y)
        assert np.array_equal(model.predict(x), y)
        # The class-1 score grows with x, the class-0 score falls.
        assert model.weights[1, 0] > 0
        assert model.weights[0, 0] < 0

    def test_duplicated_rows_leave_model_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 3, size=12)
        if np.unique(y).size < 2:  # keep the fixture honest
            y[0] = (y[0] + 1) % 3
        single = train_linear_svm(x, y, C=1.0, epochs=50)
        doubled = train_linear_svm(np.vstack([x, x]), np.concatenate([y, y]), C=1.0, epochs=50)
        np.testing.assert_allclose(single.weights, doubled.weights, atol=1e-12)
        np.testing.assert_allclose(single.biases, doubled.biases, atol=1e-12)

    def test_single_epoch_defined(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_linear_svm(x, y, epochs=1)
        assert np.any(model.weights != 0)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train_linear_svm(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        a = train_linear_svm(x, y)
        b = train_linear_svm(x, y)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)


class TestEvaluate:
    def test_majority_rule_all_zero_mask(self):
        train_y = [0] * 7 + [1] * 2 + [2] * 1
        test_y = [0] * 7 + [1] * 2 + [2] * 1
        split = make_split(
            np.zeros((10, 3)), train_y, np.zeros((10, 3)), test_y
        )
        for kind in ("linear-svm", "nearest-centroid"):
            assert evaluate("000", split, EvaluatorSpec(kind=kind)) == pytest.approx(0.7)

    def test_separable_blobs_full_mask(self):
        split = two_blob_split()
        assert brute_force_separable(split.train_features, split.train_labels)
        assert evaluate("11", split, EvaluatorSpec()) == 1.0
        assert evaluate("11", split, EvaluatorSpec(kind="nearest-centroid")) == 1.0

    def test_determinism(self):
        split = two_blob_split(seed=3, spread=0.9)
        spec = EvaluatorSpec()
        values = {evaluate("11", split, spec) for _ in range(5)}
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
            assert evaluate(mask, base, spec) == evaluate(mask, scrambled, spec)

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
        spec = EvaluatorSpec(kind="nearest-centroid")
        for mask in ("010", "011", "110", "111"):
            assert evaluate(mask, split, spec) == 1.0

    def test_zero_variance_column_centered_only(self):
        train_x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
        split = make_split(train_x, [0, 0, 1, 1], train_x, [0, 0, 1, 1])
        out = _standardized(train_x, split.train_mean, split.train_std)
        assert abs(out[:, 0].mean()) <= 1e-9
        assert out[:, 0].std() == pytest.approx(1.0)
        np.testing.assert_array_equal(out[:, 1], 0.0)
        # Still evaluable: the constant column adds nothing but breaks nothing.
        assert 0.0 <= evaluate("11", split, EvaluatorSpec()) <= 1.0

    def test_standardization_uses_train_statistics(self):
        rng = np.random.default_rng(9)
        train_x = rng.normal(loc=10.0, scale=3.0, size=(30, 2))
        out = _standardized(train_x, train_x.mean(axis=0), train_x.std(axis=0))
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_mask_width_mismatch(self):
        split = two_blob_split()
        with pytest.raises(MaskError):
            evaluate("111", split, EvaluatorSpec())

    def test_external_kind_needs_process(self):
        split = two_blob_split()
        spec = EvaluatorSpec(kind="external", external_cmd="true")
        with pytest.raises(EvaluatorError, match="make_evaluator"):
            evaluate("11", split, spec)


WINE_SPLIT = stratified_split(load_csv(wine_csv_path(), "class"), 0.2, seed=21)


class TestEvaluateMany:
    @settings(max_examples=20, deadline=None)
    @given(
        masks=st.lists(st.text(alphabet="01", min_size=13, max_size=13), max_size=8),
        chunk=st.sampled_from([1, 3, classifier.BATCH_MASKS]),
    )
    def test_matches_per_mask_evaluate_on_wine(self, masks, chunk):
        masks = masks + ["0" * 13] + masks[:2]  # the all-zero mask and duplicates
        spec = EvaluatorSpec()
        ev = make_evaluator(spec, WINE_SPLIT)
        with mock.patch.object(classifier, "BATCH_MASKS", chunk):
            got = ev.evaluate_many(masks)
        assert got == [evaluate(mask, WINE_SPLIT, spec) for mask in masks]

    def test_single_class_training_scores_majority(self):
        split = make_split(
            [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]], [1, 1, 1],
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1, 0, 1, 0],
        )
        ev = make_evaluator(EvaluatorSpec(), split)
        assert evaluate("11", split, EvaluatorSpec()) == 0.5
        assert ev.evaluate_many(["11", "10", "00"]) == [0.5, 0.5, 0.5]

    def test_bad_mask_rejected(self):
        ev = make_evaluator(EvaluatorSpec(), two_blob_split())
        with pytest.raises(MaskError):
            ev.evaluate_many(["11", "111"])
        with pytest.raises(MaskError):
            ev.evaluate_many(["1x"])


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

    @pytest.mark.parametrize("mode", ["ones-fraction", "die", "slow", "bad-handshake"])
    def test_close_releases_pipes(self, mode):
        opened = []
        real_popen = classifier.subprocess.Popen

        def recording_popen(*args, **kwargs):
            opened.append(real_popen(*args, **kwargs))
            return opened[-1]

        with mock.patch.object(classifier.subprocess, "Popen", recording_popen):
            try:
                with ExternalEvaluator(stub_cmd(mode), n=3, timeout=0.3) as proc:
                    proc("101")
            except EvaluatorError:
                pass
        (child,) = opened
        assert child.stdin.closed and child.stdout.closed
        assert child.returncode is not None

    def test_unlaunchable_command(self):
        with pytest.raises(EvaluatorError, match="launch"):
            ExternalEvaluator("/no/such/binary-xyz", n=3)


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
