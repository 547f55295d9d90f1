"""Loader, stratified split, and column-mask tests."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfselect.dataset import (
    Dataset,
    load_csv,
    stratified_split,
    wine_csv_path,
)
from qfselect.errors import DatasetError, MaskError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_example(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\na,1.0,2.0\nb,3.5,4.5\na,5.0,6.0\n")
        data = load_csv(path, "label")
        assert data.n_features == 2
        assert data.feature_names == ("f0", "f1")
        assert data.labels.tolist() == [0, 1, 0]
        assert data.label_names == ("a", "b")
        np.testing.assert_array_equal(
            data.features, [[1.0, 2.0], [3.5, 4.5], [5.0, 6.0]]
        )

    def test_label_by_index(self, tmp_path):
        path = write(tmp_path, "y,f0\nu,1\nv,2\n")
        data = load_csv(path, 0)
        assert data.label_names == ("u", "v")
        data2 = load_csv(path, "0")
        assert data2.label_names == ("u", "v")

    def test_label_name_wins_over_index(self, tmp_path):
        # A header literally named "1" is matched by name before position.
        path = write(tmp_path, "f0,1\n3.0,u\n4.0,v\n")
        data = load_csv(path, "1")
        assert data.feature_names == ("f0",)
        assert data.label_names == ("u", "v")

    def test_label_column_last(self, tmp_path):
        path = write(tmp_path, "f0,f1,y\n1,2,a\n3,4,b\n")
        data = load_csv(path, "y")
        assert data.feature_names == ("f0", "f1")
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfclass,f0\na,1.0\nb,2.0\n")
        data = load_csv(path, "class")
        assert data.feature_names == ("f0",)
        assert data.label_names == ("a", "b")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "label")

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,f\xe9\na,1.0\nb,2.0\n")
        with pytest.raises(DatasetError, match="latin1.csv is not UTF-8"):
            load_csv(path, "label")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path, "label")

    # Arbitrary bytes, and bytes built from CSV-ish pieces so that some get
    # past the header and decoding checks.
    @settings(max_examples=300, deadline=None)
    @given(
        content=st.binary(max_size=64)
        | st.lists(
            st.sampled_from(
                [b"a", b"0", b"1.5", b"-2e3", b"nan", b",", b"\n", b"\r", b'"',
                 b" ", b"\x00", b"\xe9", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xd9\xa1"]
            ),
            max_size=40,
        ).map(b"".join)
    )
    def test_any_bytes_load_or_raise_dataset_error(self, content):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "data.csv"
            path.write_bytes(content)
            try:
                data = load_csv(path, "0")
            except DatasetError:
                return
        assert isinstance(data, Dataset)
        assert data.features.shape == (data.n_rows, len(data.feature_names))

    def test_nan_cell_rejected(self, tmp_path):
        path = write(tmp_path, "label,f0\na,NaN\nb,1.0\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path, "label")

    def test_inf_cell_rejected(self, tmp_path):
        path = write(tmp_path, "label,f0\na,inf\nb,1.0\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path, "label")

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "label,f0\na,1.0\nb,oops\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(path, "label")

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\na,1.0,\nb,1.0,2.0\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(path, "label")

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "1,2.0\n0,3.0\n")
        with pytest.raises(DatasetError, match="header"):
            load_csv(path, 0)

    def test_absent_label_column(self, tmp_path):
        path = write(tmp_path, "label,f0\na,1.0\nb,2.0\n")
        with pytest.raises(DatasetError, match="no label column"):
            load_csv(path, "target")
        with pytest.raises(DatasetError, match="out of range"):
            load_csv(path, 5)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "label,f0\na,1.0\na,2.0\n")
        with pytest.raises(DatasetError, match="2 classes"):
            load_csv(path, "label")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "label,f0,f1\na,1.0,2.0\nb,3.0\n")
        with pytest.raises(DatasetError, match="cells"):
            load_csv(path, "label")

    def test_wine_shape(self):
        data = load_csv(wine_csv_path(), "class")
        assert data.n_features == 13
        assert data.n_rows == 178
        assert data.n_classes == 3
        assert data.class_counts().tolist() == [59, 71, 48]
        assert data.feature_names[0] == "alcohol"


def toy_dataset(counts, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        features=rng.normal(size=(labels.size, n_features)),
        labels=labels.astype(np.int64),
        label_names=tuple(str(i) for i in range(len(counts))),
    )


class TestStratifiedSplit:
    def test_balanced_ten_rows(self):
        split = stratified_split(toy_dataset([5, 5]), 0.2, seed=1)
        assert split.test_labels.size == 2
        assert np.bincount(split.test_labels, minlength=2).tolist() == [1, 1]
        assert split.train_labels.size == 8

    def test_top_up_goes_to_largest_class(self):
        # floor gives 1 + 0 = 1 test row; round(1.8) = 2, extra from class 0.
        split = stratified_split(toy_dataset([5, 4]), 0.2, seed=3)
        assert split.test_labels.size == 2
        assert np.bincount(split.test_labels, minlength=2).tolist() == [2, 0]

    def test_top_up_tie_goes_to_lower_index(self):
        # 4/4/4 at 0.25: floor 1 each = 3, round(3.0) = 3, no top-up.
        # 5/5/2 at 0.25: floor 1/1/0 = 2, round(3.0) = 3 -> one extra, tie
        # between classes 0 and 1 on size 5 -> class 0.
        split = stratified_split(toy_dataset([5, 5, 2]), 0.25, seed=0)
        assert np.bincount(split.test_labels, minlength=3).tolist() == [2, 1, 0]

    def test_partition(self):
        data = toy_dataset([7, 9, 6])
        split = stratified_split(data, 0.3, seed=9)
        n = data.n_rows
        assert split.train_labels.size + split.test_labels.size == n
        # Features recombine to the full table exactly once each.
        combined = np.vstack([split.train_features, split.test_features])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, data.features))

    def test_seed_determinism(self):
        data = toy_dataset([10, 12])
        a = stratified_split(data, 0.25, seed=5)
        b = stratified_split(data, 0.25, seed=5)
        np.testing.assert_array_equal(a.test_features, b.test_features)
        c = stratified_split(data, 0.25, seed=6)
        assert not np.array_equal(a.test_features, c.test_features)

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            counts = rng.integers(2, 30, size=rng.integers(2, 5)).tolist()
            frac = float(rng.uniform(0.1, 0.5))
            data = toy_dataset(counts, seed=trial)
            split = stratified_split(data, frac, seed=trial)
            got = np.bincount(split.test_labels, minlength=len(counts))
            for c, count in enumerate(counts):
                assert abs(got[c] - frac * count) <= 1.0 + 1e-9
            assert got.sum() == round(frac * data.n_rows)

    def test_train_statistics(self):
        data = toy_dataset([8, 8])
        split = stratified_split(data, 0.25, seed=2)
        np.testing.assert_allclose(split.train_mean, split.train_features.mean(axis=0))
        np.testing.assert_allclose(split.train_std, split.train_features.std(axis=0))

    def test_tiny_class_rejected(self):
        with pytest.raises(DatasetError, match="at least 2"):
            stratified_split(toy_dataset([5, 1]), 0.2, seed=0)

    def test_fraction_validation(self):
        data = toy_dataset([5, 5])
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DatasetError, match="test_fraction"):
                stratified_split(data, frac, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DatasetError, match="seed"):
            stratified_split(toy_dataset([5, 5]), 0.2, seed=seed)

    def test_empty_side_rejected(self):
        with pytest.raises(DatasetError, match="train set"):
            stratified_split(toy_dataset([2, 2]), 0.99, seed=0)
        with pytest.raises(DatasetError, match="test set"):
            stratified_split(toy_dataset([2, 2]), 0.01, seed=0)

    def test_wine_split_counts(self):
        data = load_csv(wine_csv_path(), "class")
        split = stratified_split(data, 0.2, seed=7)
        # round(0.2 * 178) = 36; floors 11/14/9 = 34, extras to classes 1, 0.
        assert split.test_labels.size == 36
        assert split.train_labels.size == 142
        assert np.bincount(split.test_labels).tolist() == [12, 15, 9]
