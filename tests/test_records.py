"""Canonical JSON writer and record round-trip tests."""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qfselect.classifier import EvaluatorSpec, make_evaluator
from qfselect.dataset import load_csv, stratified_split, wine_csv_path
from qfselect import records
from qfselect.errors import RecordError
from qfselect.evolution import EvolutionConfig, evolve
from qfselect.records import (
    FORMAT_VERSION,
    DistributionRow,
    GenerationEntry,
    OracleRecord,
    RunRecord,
    RunTotals,
    dumps_canonical,
    read_oracle_record,
    read_run_record,
    write_oracle_record,
    write_run_record,
)

from helpers import reference_dumps_canonical


# Hypothesis strategies for JSON values and the record dataclasses.  Lone
# surrogates cannot be encoded as UTF-8, so they are left out of text.
finite = st.floats(allow_nan=False, allow_infinity=False)
text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**63), 2**63) | finite | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)
json_object = st.dictionaries(text, json_value, max_size=4)
masks = st.text(alphabet="01", min_size=1, max_size=6)
generation_entries = st.builds(
    GenerationEntry,
    generation=st.integers(0, 100),
    best_fitness=finite,
    parent_fitness=st.lists(finite, max_size=3),
    support=st.integers(0, 1000),
    new_evaluations=st.integers(0, 1000),
    best_mask=masks,
    best_accuracy=finite,
    parent_depth=st.integers(0, 100),
)
distribution_rows = st.builds(
    DistributionRow, mask=masks, probability=finite, accuracy=finite
)
run_totals = st.builds(
    RunTotals,
    cache_size=st.integers(0, 2**63),
    empirical_auc=finite,
    predicted_evaluations=finite,
)
run_records = st.builds(
    RunRecord,
    config=json_object,
    generations=st.lists(generation_entries, min_size=1, max_size=3),
    final_distribution=st.lists(distribution_rows, max_size=3),
    totals=run_totals,
)
oracle_records = st.builds(
    OracleRecord,
    config=json_object,
    entries=st.lists(json_object, max_size=4),
    best_mask=masks,
    best_accuracy=finite,
)


# Any value the writer may be handed, supported or not, for comparing it
# with the reference writer.
class DictSubclass(dict):
    pass


class ListSubclass(list):
    pass


any_text = st.text(max_size=6) | st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff",
                     "\u00e9", "\u2028", "\U0001f600", "a", "/"]),
    max_size=6,
).map("".join)
any_float = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e17, -1e22, 1e-7, 3.0, 2.0**53]
)
any_leaf = (
    st.none()
    | st.booleans()
    | st.integers(-(10**60), 10**60)
    | any_float
    | any_text
    | any_float.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.sampled_from([object(), np.arange(3), float("nan"), float("-inf")])
)
any_key = any_text | st.integers(-5, 5) | any_float | st.booleans() | st.none()
any_value = st.recursive(
    any_leaf | generation_entries | distribution_rows | run_totals,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3).map(ListSubclass)
    | st.dictionaries(any_key, inner, max_size=3)
    | st.dictionaries(any_key, inner, max_size=3).map(DictSubclass)
    | st.builds(DistributionRow, mask=inner, probability=inner, accuracy=inner),
    max_leaves=10,
) | run_records | oracle_records


# Dicts whose keys are of every type a dict may hold, some of them equal
# across types (True, 1 and 1.0), and whose values are leaves, numpy
# scalars and nested containers.
class StrSubclass(str):
    pass


dict_key = any_key | any_text.map(np.str_) | any_text.map(StrSubclass) | st.sampled_from(
    [True, 1, 1.0, "1", "True", np.str_("mask"), "mask", "accuracy"]
)
keyed_dicts = st.recursive(
    st.dictionaries(dict_key, any_leaf, max_size=4),
    lambda inner: st.dictionaries(
        dict_key, any_leaf | inner | st.lists(inner | any_leaf, max_size=2), max_size=4
    ),
    max_leaves=12,
)


def outcome(dumps, value):
    """The text `dumps` writes for `value`, or the error it raises."""
    try:
        return dumps(value)
    except Exception as err:
        return type(err), str(err)


def sample_record():
    entries = [
        GenerationEntry(
            generation=g,
            best_fitness=0.1 * g + 0.05,
            parent_fitness=[0.1 * g + 0.05],
            support=g + 1,
            new_evaluations=1,
            best_mask="0101",
            best_accuracy=0.1 * g + 0.07,
            parent_depth=g,
        )
        for g in range(3)
    ]
    return RunRecord(
        config=EvolutionConfig(n=4, generations=2, shots=8, seed=9).to_dict(),
        generations=entries,
        final_distribution=[
            DistributionRow("0101", 0.75, 0.27),
            DistributionRow("0001", 0.25, 0.17),
        ],
        totals=RunTotals(cache_size=3, empirical_auc=4.0, predicted_evaluations=8.0),
    )


class TestCanonicalJson:
    def test_mixed_structure(self):
        text = dumps_canonical({"a": 1, "b": [1.5, "x"], "c": {}, "d": None, "e": True})
        assert text.startswith("{\n")
        assert text.endswith("}\n")
        assert '"b": [' in text
        assert "true" in text and "null" in text

    def test_floats_use_17_significant_digits(self):
        assert dumps_canonical(0.1).strip() == "0.10000000000000001"
        assert dumps_canonical(1.0 / 3.0).strip() == "0.33333333333333331"

    def test_integral_floats_keep_a_decimal_point(self):
        assert dumps_canonical(384.0).strip() == "384.0"
        assert dumps_canonical(384).strip() == "384"

    def test_float_round_trip_is_exact(self):
        import json

        for value in (0.1, math.pi, 1e-300, 2**53 + 1.0, -0.3333333333333333):
            assert json.loads(dumps_canonical(value)) == value

    def test_non_finite_rejected(self):
        with pytest.raises(RecordError):
            dumps_canonical(float("nan"))
        with pytest.raises(RecordError):
            dumps_canonical(float("inf"))

    def test_unserializable_type_rejected(self):
        with pytest.raises(RecordError, match="type"):
            dumps_canonical({"x": object()})

    @settings(max_examples=400, deadline=None)
    @given(value=any_value)
    def test_matches_the_reference_writer(self, value):
        assert outcome(dumps_canonical, value) == outcome(reference_dumps_canonical, value)

    @settings(max_examples=300, deadline=None)
    @given(value=st.lists(keyed_dicts, max_size=4))
    def test_dicts_match_the_reference_writer(self, value):
        assert outcome(dumps_canonical, value) == outcome(reference_dumps_canonical, value)

    def test_keys_equal_across_types_keep_their_own_text(self):
        value = [{True: 1}, {1: 2}, {1.0: 3}, {"1": 4}, {np.str_("1"): 5}, {StrSubclass("1"): 6}]
        assert dumps_canonical(value) == reference_dumps_canonical(value)

    def test_the_key_memo_is_bounded(self):
        records._key.cache_clear()
        bound = records._key.cache_info().maxsize
        assert bound is not None
        text = dumps_canonical({f"k{i}": i for i in range(bound + 10)})
        assert text == reference_dumps_canonical({f"k{i}": i for i in range(bound + 10)})
        assert records._key.cache_info().currsize == bound

    def test_deterministic_output(self):
        record = sample_record()
        assert dumps_canonical(record) == dumps_canonical(record)


def nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestRunRecordRoundTrip:
    def test_identity(self, tmp_path):
        record = sample_record()
        path = tmp_path / "run.json"
        write_run_record(record, path)
        assert read_run_record(path) == record

    def test_bytes_stable(self, tmp_path):
        record = sample_record()
        write_run_record(record, tmp_path / "a.json")
        write_run_record(record, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_version_mismatch(self, tmp_path):
        record = sample_record()
        raw = json.loads(dumps_canonical(record))
        raw["format_version"] = FORMAT_VERSION + 1
        path = tmp_path / "bad.json"
        from qfselect.records import write_json

        write_json(raw, path)
        with pytest.raises(RecordError, match="version"):
            read_run_record(path)

    def test_unencodable_string_writes_nothing(self, tmp_path):
        from qfselect.records import write_json

        path = tmp_path / "surrogate.json"
        with pytest.raises(RecordError, match="UTF-8"):
            write_json({"a": "\ud800"}, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "value", [10**5000, nested_list(2000)], ids=["int-past-digit-limit", "nested-2000-deep"]
    )
    def test_unwritable_value_writes_nothing(self, tmp_path, value):
        from qfselect.records import write_json

        path = tmp_path / "unwritable.json"
        with pytest.raises(RecordError, match="cannot write"):
            write_json({"a": value}, path)
        assert not path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(RecordError, match="no such"):
            read_run_record(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(RecordError, match="corrupt"):
            read_run_record(path)

    def test_missing_field(self, tmp_path):
        raw = json.loads(dumps_canonical(sample_record()))
        del raw["totals"]
        path = tmp_path / "short.json"
        from qfselect.records import write_json

        write_json(raw, path)
        with pytest.raises(RecordError, match="missing"):
            read_run_record(path)

        raw = json.loads(dumps_canonical(sample_record()))
        del raw["generations"][1]["support"]
        write_json(raw, path)
        with pytest.raises(RecordError, match="GenerationEntry missing field.*support"):
            read_run_record(path)


class TestOracleRecordRoundTrip:
    def test_identity(self, tmp_path):
        record = OracleRecord(
            config={"n": 2, "evaluator": "nearest-centroid"},
            entries=[
                {"mask": "00", "accuracy": 0.5},
                {"mask": "10", "accuracy": 0.75},
                {"mask": "01", "accuracy": 0.25},
                {"mask": "11", "accuracy": 1.0},
            ],
            best_mask="11",
            best_accuracy=1.0,
        )
        path = tmp_path / "oracle.json"
        write_oracle_record(record, path)
        assert read_oracle_record(path) == record

    def test_entries_that_are_not_objects_rejected(self, tmp_path):
        record = OracleRecord(
            config={"n": 1}, entries=[5, "x"], best_mask="1", best_accuracy=1.0
        )
        path = tmp_path / "oracle.json"
        write_oracle_record(record, path)
        with pytest.raises(RecordError, match=r"OracleRecord.entries\[0\] must be an object"):
            read_oracle_record(path)


class TestRecordCodec:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(record=run_records | oracle_records)
    def test_round_trip_and_stable_bytes(self, record, tmp_path):
        write, read = (
            (write_run_record, read_run_record)
            if isinstance(record, RunRecord)
            else (write_oracle_record, read_oracle_record)
        )
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write(record, first)
        assert read(first) == record
        write(read(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_evolve_record_bytes_are_pinned(self, tmp_path):
        # Any change to key order, float formatting or the run itself moves
        # this digest; a change that means to must say so and update it.
        split = stratified_split(load_csv(wine_csv_path(), "class"), 0.2, seed=0)
        evaluator = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)
        record = evolve(EvolutionConfig(n=13, mu=2, generations=4, shots=16, seed=5), evaluator)
        path = tmp_path / "run.json"
        write_run_record(record, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1ddf1b05c5eefa2f5fc8ddb37e171d4a8b2111406b0d6f631ceb5704febbdb8d"
        )

    @settings(max_examples=300, deadline=None)
    @given(
        content=st.binary(max_size=64)
        | st.lists(
            st.sampled_from(
                [b"{", b"}", b"[", b"]", b'"', b":", b",", b"0", b"1.5", b"-2e3",
                 b"1e999", b"NaN", b"null", b"true", b'"format_version"',
                 b'"config"', b"\\ud800", b"\xff", b"\xc3\xa9", b"\xef\xbb\xbf"]
            ),
            max_size=40,
        ).map(b"".join)
    )
    def test_any_bytes_read_or_raise_record_error(self, content):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "record.json"
            path.write_bytes(content)
            for read, cls in ((read_run_record, RunRecord), (read_oracle_record, OracleRecord)):
                try:
                    record = read(path)
                except RecordError:
                    continue
                assert isinstance(record, cls)

    @pytest.mark.parametrize("read", [read_run_record, read_oracle_record])
    def test_non_object_rejected(self, read, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(RecordError, match="JSON object"):
            read(path)
