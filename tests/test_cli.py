"""End-to-end CLI tests: flags, exit codes, artifacts, reports."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfselect import classifier, cli
from qfselect.cli import main
from qfselect.dataset import wine_csv_path
from qfselect.evolution import EvolutionConfig, evolve
from qfselect.errors import FitnessError, RecordError
from qfselect.records import (
    OracleRecord,
    read_oracle_record,
    read_run_record,
    write_run_record,
)

from helpers import write_planted_csv

ROOT = Path(__file__).resolve().parent.parent
STUB_CMD = f"{sys.executable} tests/evaluator_stub.py"


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_planted_csv(path, n=4, rows=80, informative=(1, 2, 3), seed=5)
    return path


class ConstantEvaluator:
    """A plain mask -> accuracy callable with close(), and no evaluate_many."""

    def __init__(self, accuracy):
        self.accuracy = accuracy

    def __call__(self, mask):
        return self.accuracy

    def close(self):
        pass


class CallOnly:
    """An evaluator seen through __call__ and close() alone."""

    def __init__(self, inner):
        self._inner = inner

    def __call__(self, mask):
        return self._inner(mask)

    def close(self):
        self._inner.close()


class FailingBatch(ConstantEvaluator):
    """An evaluate_many that fails with an error that names no mask."""

    def evaluate_many(self, masks):
        raise RuntimeError("socket gone")


def run_args(toy_csv, out, **overrides):
    defaults = {
        "generations": "4",
        "shots": "16",
        "seed": "3",
        "repeat": "2",
        "evaluator": "nearest-centroid",
    }
    defaults.update({k.replace("_", "-"): v for k, v in overrides.items()})
    argv = ["run", "--data", str(toy_csv), "--label", "label", "--out", str(out)]
    for key, value in defaults.items():
        argv += [f"--{key}", value]
    return argv


class TestRun:
    def test_writes_records_and_aggregate(self, toy_csv, tmp_path):
        out = tmp_path / "runs"
        assert main(run_args(toy_csv, out)) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["aggregate.json", "record-000.json", "record-001.json"]
        record = read_run_record(out / "record-000.json")
        assert record.config["seed"] == 3
        assert record.config["dataset"]["digest"].startswith("sha256:")
        assert record.config["evaluator"]["kind"] == "nearest-centroid"
        second = read_run_record(out / "record-001.json")
        assert second.config["seed"] == 4

    def test_rerun_is_byte_identical(self, toy_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(toy_csv, out_a, repeat="1")) == 0
        assert main(run_args(toy_csv, out_b, repeat="1")) == 0
        assert (out_a / "record-000.json").read_bytes() == (
            out_b / "record-000.json"
        ).read_bytes()

    def test_record_does_not_depend_on_how_the_data_path_is_written(
        self, toy_csv, tmp_path, monkeypatch
    ):
        out_abs, out_rel = tmp_path / "abs", tmp_path / "rel"
        assert main(run_args(toy_csv.resolve(), out_abs, repeat="1")) == 0
        monkeypatch.chdir(toy_csv.parent)
        assert main(run_args(toy_csv.name, out_rel, repeat="1")) == 0
        assert (out_abs / "record-000.json").read_bytes() == (
            out_rel / "record-000.json"
        ).read_bytes()

    def test_aggregate_matches_records(self, toy_csv, tmp_path):
        out = tmp_path / "runs"
        assert main(run_args(toy_csv, out, repeat="3")) == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        records = [read_run_record(out / name) for name in aggregate["records"]]
        for g, mean in enumerate(aggregate["mean_best_accuracy"]):
            values = [r.generations[g].best_accuracy for r in records]
            assert abs(mean - np.mean(values)) <= 1e-12
        assert aggregate["wall_clock_seconds"] >= 0.0

    def test_external_evaluator(self, toy_csv, tmp_path):
        out = tmp_path / "runs"
        argv = run_args(
            toy_csv,
            out,
            repeat="1",
            evaluator="external",
            external_cmd=f"{STUB_CMD} ones-fraction",
        )
        assert main(argv) == 0
        record = read_run_record(out / "record-000.json")
        assert record.generations[-1].best_accuracy <= 1.0

    def test_failing_external_evaluator_is_runtime_error(self, toy_csv, tmp_path):
        argv = run_args(
            toy_csv,
            tmp_path / "runs",
            repeat="1",
            evaluator="external",
            external_cmd=f"{STUB_CMD} err",
        )
        assert main(argv) == 1

    def test_dying_external_evaluator_names_the_first_mask(self, tmp_path, capsys):
        argv = [
            "run", "--data", str(wine_csv_path()), "--out", str(tmp_path / "runs"),
            "--repeat", "1", "--generations", "2",
            "--evaluator", "external", "--external-cmd", f"{STUB_CMD} die",
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: mask 0000000000000: evaluator failed: "
            "evaluator exited early with code 3\n"
        )

    def test_non_finite_sigma_is_usage_error(self, toy_csv, tmp_path, capsys):
        # An infinite sigma would turn the first modify mutation into a
        # gate angle of +-inf; MutationConfig refuses it before the run.
        for sigma in ("inf", "nan"):
            argv = run_args(
                toy_csv, tmp_path / "runs", sigma=sigma,
                p_insert="0.5", p_modify="0.5", p_delete="0", p_swap="0",
            )
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: sigma_modify must be positive and finite")
        assert not (tmp_path / "runs").exists()

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        argv = [
            "run", "--data", str(tmp_path / "absent.csv"), "--label", "0",
            "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 1

    def test_zero_shots_is_usage_error(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(run_args(toy_csv, tmp_path / "runs", shots="0"))
        assert exc.value.code == 2

    def test_bad_mutation_probabilities_are_usage_error(self, toy_csv, tmp_path, capsys):
        argv = run_args(toy_csv, tmp_path / "runs", p_insert="0.9")
        assert main(argv) == 2  # 0.9 + 0.3 + 0.1 + 0.1 != 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        # The flags are checked before the data file is read.
        assert main(run_args(tmp_path / "absent.csv", tmp_path / "runs", p_insert="0.9")) == 2

    @pytest.mark.parametrize(
        "flag",
        [
            {"p_insert": "1.5", "p_modify": "-0.5", "p_delete": "0", "p_swap": "0"},
            {"p_swap": "nan"},
            {"sigma": "0"},
            {"sigma": "-0.1"},
        ],
        ids=["p-outside-0-1", "p-nan", "sigma-zero", "sigma-negative"],
    )
    def test_mutation_flag_out_of_range_is_usage_error(self, flag, tmp_path, capsys):
        argv = run_args(tmp_path / "absent.csv", tmp_path / "runs", **flag)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "runs").exists()

    def test_value_error_during_a_run_is_runtime_error(
        self, toy_csv, tmp_path, monkeypatch, capsys
    ):
        def broken_evolve(config, evaluator):
            raise ValueError("state has zero norm")

        monkeypatch.setattr(cli, "evolve", broken_evolve)
        assert main(run_args(toy_csv, tmp_path / "runs")) == 1
        assert "ValueError: state has zero norm" in capsys.readouterr().err

    def test_more_features_than_a_dense_state_holds(self, tmp_path):
        # A dense state over 32 features would hold 2^32 amplitudes; each
        # circuit is simulated on the span of its X/Y operand masks instead.
        data = tmp_path / "wide.csv"
        write_planted_csv(data, n=32, rows=120, informative=(0, 3, 7), seed=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(run_args(data, out, generations="4", repeat="2")) == 0
        for name in ("record-000.json", "record-001.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert read_run_record(out_a / "record-000.json").config["n"] == 32

    def test_register_past_int64_indices_is_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        write_planted_csv(data, n=63, rows=40, informative=(0, 3, 7), seed=2)
        assert main(run_args(data, tmp_path / "runs", repeat="1")) == 1
        assert "62-qubit limit" in capsys.readouterr().err

    def test_out_path_that_is_a_file_is_runtime_error(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(run_args(toy_csv, out, repeat="1")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}")
        assert "Traceback" not in err

    def test_failed_batch_is_an_error_line(self, toy_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, data: FailingBatch(0.5))
        assert main(run_args(toy_csv, tmp_path / "runs", repeat="1")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: evaluate_many failed on a batch of ")
        assert err.endswith(" mask(s): socket gone\n") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_external_without_command_is_usage_error(self, toy_csv, tmp_path):
        argv = run_args(toy_csv, tmp_path / "runs", evaluator="external")
        assert main(argv) == 2

    @pytest.mark.parametrize("command", ["'x", "   "])
    def test_external_command_naming_no_program_is_usage_error(
        self, tmp_path, capsys, command
    ):
        # The data file does not exist: reading it would exit 1, not 2.
        argv = [
            "run", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "runs"),
            "--evaluator", "external", "--external-cmd", command,
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "evaluator command line" in err
        assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("evaluator", [None, "nearest-centroid"])
    def test_external_command_for_a_local_evaluator_is_usage_error(
        self, toy_csv, tmp_path, capsys, command, evaluator
    ):
        # Recorded, the command would make the configs of identical runs differ.
        argv = [command, "--data", str(toy_csv), "--label", "label",
                "--out", str(tmp_path / "out"), "--external-cmd", "foo"]
        if evaluator is not None:
            argv += ["--evaluator", evaluator]
        assert main(argv) == 2
        kind = evaluator or "linear-svm"
        assert capsys.readouterr().err == (
            f"usage error: external_cmd is only for the external evaluator, not {kind!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_is_usage_error(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(run_args(toy_csv, tmp_path / "runs") + ["--turbo"])
        assert exc.value.code == 2


class TestOracle:
    def test_planted_argmax_contains_informative_features(self, tmp_path):
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=4, rows=120, informative=(0, 2), seed=9)
        out = tmp_path / "oracle.json"
        argv = [
            "oracle", "--data", str(data), "--label", "label",
            "--evaluator", "nearest-centroid", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        record = read_oracle_record(out)
        assert len(record.entries) == 16
        assert record.best_mask[0] == "1" and record.best_mask[2] == "1"
        assert record.best_accuracy == max(e["accuracy"] for e in record.entries)

    def test_oracle_record_bytes_are_pinned(self, tmp_path, monkeypatch):
        # Any change to key order, float formatting, string escaping or the
        # sweep itself moves this digest; a change that means to must say so
        # and update it.  An evaluator with only __call__ and close(), the
        # shape of bench/tracing.py's wrapper, must write the same bytes.
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=6, rows=60, informative=(1, 4), seed=11)
        make = cli.make_evaluator
        for name, factory in [
            ("evaluate_many", make),
            ("call-only", lambda spec, split: CallOnly(make(spec, split))),
        ]:
            monkeypatch.setattr(cli, "make_evaluator", factory)
            out = tmp_path / f"oracle-{name}.json"
            argv = [
                "oracle", "--data", str(data), "--label", "label",
                "--evaluator", "nearest-centroid", "--seed", "2", "--out", str(out),
            ]
            assert main(argv) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "b094b2f3bb316c04622a0171abb0c757c33cd4bb9e093478ca11eaa02f7d1cdf"
            ), name

    # The SVM sweep fits through BLAS gemm, so it also runs under other
    # OpenBLAS kernels than the one the host picks, and with a BLAS thread
    # count the user set: its record must not depend on either.
    @pytest.mark.parametrize("variables", [
        pytest.param({}, id="None"),
        pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="Haswell"),
        pytest.param({"OPENBLAS_CORETYPE": "Nehalem"}, id="Nehalem"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"}, id="threads2"),
    ])
    def test_svm_oracle_record_is_the_same_under_each_blas_kernel(self, tmp_path, variables):
        # The label and the first seven feature columns of wine, as written.
        lines = wine_csv_path().read_text(encoding="utf-8").splitlines()
        data = tmp_path / "wine7.csv"
        data.write_text("".join(",".join(line.split(",")[:8]) + "\n" for line in lines),
                        encoding="utf-8")
        out = tmp_path / "oracle.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("OPENBLAS_CORETYPE", None)
        env.update(variables)
        result = subprocess.run(
            [sys.executable, "-m", "qfselect.cli", "oracle", "--data", str(data),
             "--label", "class", "--evaluator", "linear-svm", "--seed", "21", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a5a52eaf96b0da1528f4ce0272aa2d5928bf58cc332116e7b43fc3ea6e6d7fea"
        )

    def test_external_evaluator_scores_every_mask(self, tmp_path):
        # 2^8 masks: two ledger chunks of 128, each sent as one stream.
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=8, rows=40, informative=(0, 3), seed=6)
        out = tmp_path / "oracle.json"
        argv = [
            "oracle", "--data", str(data), "--label", "label", "--out", str(out),
            "--evaluator", "external", "--external-cmd", f"{STUB_CMD} ones-fraction",
        ]
        assert main(argv) == 0
        record = read_oracle_record(out)
        masks = [cli.index_to_mask(index, 8) for index in range(2**8)]
        assert [e["mask"] for e in record.entries] == masks
        assert [e["accuracy"] for e in record.entries] == [m.count("1") / 8 for m in masks]
        assert record.best_mask == "11111111"
        assert record.best_accuracy == 1.0

    def test_single_feature_dataset(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text(
            "label,f0\na,0.1\na,0.2\nb,0.9\nb,1.1\n", encoding="utf-8"
        )
        out = tmp_path / "oracle.json"
        argv = [
            "oracle", "--data", str(data), "--label", "label",
            "--test-fraction", "0.5", "--out", str(out),
        ]
        assert main(argv) == 0
        assert len(read_oracle_record(out).entries) == 2

    # Rows (a, b, label) and the split options of tables in which column a
    # alone separates the classes and a cell sits at the float limit.
    FLOAT_LIMIT_TABLES = {
        # Column a is +-1e308 by class: its standard deviation overflows
        # unless it is taken at a scale where the squares fit.
        "a-at-the-limit": (
            [(1e308 if i % 2 == 0 else -1e308, x, f"c{i % 2}")
             for i, x in enumerate([0.3, -1.2, 0.7, 2.1, -0.4, 1.5, -0.9, 0.2, 1.1, -1.7])],
            [],
        ),
        # Column b is 0 in training and 1e308 in one test row: its square
        # overflowed, and mask 10, which drops b, read it as 0 * inf.
        "dropped-b-at-the-limit": (
            [(-1.0, 0.0, "a")] * 4 + [(1.0, 0.0, "b")] * 3 + [(1.0, 1e308, "b")],
            ["--test-fraction", "0.5", "--seed", "0"],
        ),
    }

    @pytest.mark.parametrize("evaluator, table", [
        pytest.param(kind, table, id=kind if table == "a-at-the-limit" else f"{kind}-{table}")
        for table in FLOAT_LIMIT_TABLES for kind in ("linear-svm", "nearest-centroid")
    ])
    def test_a_column_at_the_float_limit_scores_as_its_scaled_copy(
        self, tmp_path, evaluator, table
    ):
        # The copy with column a scaled by 2^-1000 must score the same,
        # and no RuntimeWarning (an error here) may be raised.
        rows, split = self.FLOAT_LIMIT_TABLES[table]
        scores = []
        for scale in (1.0, 2.0**-1000):
            data = tmp_path / "extreme.csv"
            data.write_text("a,b,label\n" + "".join(
                f"{a * scale!r},{b!r},{label}\n" for a, b, label in rows
            ), encoding="utf-8")
            out = tmp_path / "oracle.json"
            argv = ["oracle", "--data", str(data), "--label", "label", "--out", str(out),
                    "--evaluator", evaluator, *split]
            assert main(argv) == 0
            scores.append({e["mask"]: e["accuracy"] for e in read_oracle_record(out).entries})
        assert scores[0] == scores[1]
        assert scores[0]["10"] == 1.0

    @staticmethod
    def _planted_argv(tmp_path, n):
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=n, rows=40, informative=(0,), seed=2)
        return ["oracle", "--data", str(data), "--label", "label",
                "--out", str(tmp_path / "oracle.json")]

    @pytest.fixture()
    def planted_argv(self, tmp_path):
        return self._planted_argv(tmp_path, 3)

    @pytest.mark.parametrize("n", [3, 8])
    def test_plain_callable_ties_go_to_the_first_mask(self, n, tmp_path, monkeypatch):
        # At n = 8 the tie spans two 128-mask chunks.
        argv = self._planted_argv(tmp_path, n)
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, data: ConstantEvaluator(0.5))
        assert main(argv) == 0
        record = read_oracle_record(argv[-1])
        assert record.best_mask == cli.index_to_mask(0, n)
        assert record.best_accuracy == 0.5
        assert len(record.entries) == 2**n

    def test_out_of_range_accuracy_names_the_mask(self, planted_argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, data: ConstantEvaluator(1.5))
        out = planted_argv[-1]
        folder = os.listdir(os.path.dirname(out))
        assert main(planted_argv) == 1
        assert "mask 000" in capsys.readouterr().err
        assert os.listdir(os.path.dirname(out)) == folder  # no record, no temporary file
        # A record already at --out is left as it was.
        with open(out, "wb") as handle:
            handle.write(b"an earlier record\n")
        assert main(planted_argv) == 1
        assert sorted(os.listdir(os.path.dirname(out))) == sorted(folder + ["oracle.json"])
        with open(out, "rb") as handle:
            assert handle.read() == b"an earlier record\n"

    def test_failed_batch_is_an_error_line(self, planted_argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "make_evaluator", lambda spec, data: FailingBatch(0.5))
        out = planted_argv[-1]
        folder = os.listdir(os.path.dirname(out))
        assert main(planted_argv) == 1
        err = capsys.readouterr().err
        assert err == "error: evaluate_many failed on a batch of 8 mask(s): socket gone\n"
        assert os.listdir(os.path.dirname(out)) == folder  # no record, no temporary file

    def test_evaluator_that_dies_mid_sweep_leaves_no_debris(self, tmp_path, monkeypatch, capfd):
        # 2^8 masks are two chunks of 128; the stub answers the first chunk
        # and exits at the first request of the second, after the first
        # chunk's entries are written.
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=8, rows=40, informative=(0, 3), seed=6)
        out = tmp_path / "oracle.json"
        out.write_bytes(b"an earlier record\n")
        replies = " ".join([b"OK 0.5".hex()] * 128)
        argv = [
            "oracle", "--data", str(data), "--label", "label", "--out", str(out),
            "--evaluator", "external", "--external-cmd", f"{STUB_CMD} replay {replies}",
        ]
        opened = []
        real_popen = classifier.subprocess.Popen

        def recording_popen(*args, **kwargs):
            opened.append(real_popen(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(classifier.subprocess, "Popen", recording_popen)
        assert main(argv) == 1
        err = capfd.readouterr().err
        assert f"error: mask {cli.index_to_mask(128, 8)}: evaluator failed" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.json", "planted.csv"]
        assert out.read_bytes() == b"an earlier record\n"
        assert len(opened) == 1 and opened[0].returncode is not None

    def test_csv_that_is_not_utf8_is_an_error_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"label,f\xe9\na,1.0\nb,2.0\na,1.5\nb,2.5\n")
        assert main(["oracle", "--data", str(data), "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data} is not UTF-8")
        assert "Traceback" not in err

    def test_out_in_a_missing_directory_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=2, rows=40, informative=(0,), seed=1)
        out = tmp_path / "missing" / "dir" / "o.json"
        argv = [
            "oracle", "--data", str(data), "--label", "label",
            "--evaluator", "nearest-centroid", "--out", str(out),
        ]
        calls = []

        class Spy(ConstantEvaluator):
            def __call__(self, mask):
                calls.append(mask)
                return super().__call__(mask)

        def spy_factory(spec, data):
            calls.append("make_evaluator")
            return Spy(0.5)

        monkeypatch.setattr(cli, "make_evaluator", spy_factory)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}")
        assert "Traceback" not in err
        assert calls == []  # refused before any mask was scored

    def test_sweep_memory_does_not_grow_with_n(self, tmp_path):
        # The record is written a chunk at a time and no 2^n cache is
        # kept, so the traced peak is flat in n: at n = 16 the record alone
        # is over twice the bound, and its entries as dicts take 40 MiB.
        peaks = {}
        for n in (12, 16):
            data = tmp_path / f"planted-{n}.csv"
            write_planted_csv(data, n=n, rows=60, informative=(0, 2), seed=3)
            argv = [
                "oracle", "--data", str(data), "--label", "label",
                "--evaluator", "nearest-centroid", "--out", str(tmp_path / f"o{n}.json"),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert (tmp_path / "o16.json").stat().st_size > 4 * 2**20
        assert peaks[16] < 2 * 2**20
        assert peaks[16] < 2 * peaks[12]

    def test_too_many_features_refused(self, tmp_path):
        n = 21
        data = tmp_path / "wide.csv"
        header = "label," + ",".join(f"f{i}" for i in range(n))
        rows = [
            "a," + ",".join("0.1" for _ in range(n)),
            "a," + ",".join("0.3" for _ in range(n)),
            "b," + ",".join("0.9" for _ in range(n)),
            "b," + ",".join("1.1" for _ in range(n)),
        ]
        data.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        argv = ["oracle", "--data", str(data), "--label", "label",
                "--test-fraction", "0.5", "--out", str(tmp_path / "o.json")]
        assert main(argv) == 1


def use_cpus(monkeypatch, count):
    """Make the sweep see `count` CPUs, as `taskset` would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestOracleWorkers:
    """The sweep scores chunk i in process i mod W, W being the CPUs it may
    use, capped at the chunk count; the first process is the CLI's own."""

    @staticmethod
    def _argv(tmp_path, n, kind="linear-svm"):
        data = tmp_path / "planted.csv"
        write_planted_csv(data, n=n, rows=60, informative=(1, 4), seed=n)
        return ["oracle", "--data", str(data), "--label", "label",
                "--evaluator", kind, "--out", str(tmp_path / "oracle.json")]

    @pytest.mark.parametrize("kind", ["linear-svm", "nearest-centroid"])
    @pytest.mark.parametrize("n", [9, 10])
    def test_every_cpu_writes_the_bytes_one_process_writes(self, tmp_path, monkeypatch, n, kind):
        # n = 9 is 4 chunks, one a process; n = 10 is 8, two a process.
        argv = self._argv(tmp_path, n, kind)
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        written = []
        for cpus in (1, 4):
            use_cpus(monkeypatch, cpus)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            written.append(Path(argv[-1]).read_bytes())
        assert len(forks) == 3
        assert written[0] == written[1]
        assert_no_child_left()

    def test_a_failing_worker_names_the_mask_one_process_names(
        self, tmp_path, monkeypatch, capsys
    ):
        # The fit fails on a mask of chunk 1 and on one of chunk 3, each
        # scored by a worker of its own at four CPUs.  Whichever fails
        # first, the sweep reports chunk 1's mask, as one process does.
        argv = self._argv(tmp_path, 9)
        out = Path(argv[-1])
        out.write_bytes(b"an earlier record\n")
        bad = {cli.index_to_mask(200, 9), cli.index_to_mask(400, 9)}
        real_train = classifier._train_ovr

        def failing_train(features, labels, C, epochs, keep):
            for row in keep:
                mask = "".join("1" if kept else "0" for kept in row)
                if mask in bad:
                    raise FitnessError("no fit", mask=mask)
            return real_train(features, labels, C, epochs, keep)

        monkeypatch.setattr(classifier, "_train_ovr", failing_train)
        errors = []
        for cpus in (1, 4):
            use_cpus(monkeypatch, cpus)
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
            assert out.read_bytes() == b"an earlier record\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.json", "planted.csv"]
            assert_no_child_left()
        assert errors[0] == errors[1] == f"error: mask {cli.index_to_mask(200, 9)}: no fit\n"

    def test_a_worker_that_dies_names_its_chunk(self, tmp_path, monkeypatch, capsys):
        argv = self._argv(tmp_path, 9)
        parent = os.getpid()
        real_train = classifier._train_ovr

        def dying_train(features, labels, C, epochs, keep):
            if os.getpid() != parent:
                os._exit(3)
            return real_train(features, labels, C, epochs, keep)

        monkeypatch.setattr(classifier, "_train_ovr", dying_train)
        use_cpus(monkeypatch, 2)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: mask {cli.index_to_mask(128, 9)}: "
            "the oracle worker scoring it exited without a result\n"
        )
        assert not Path(argv[-1]).exists()
        assert_no_child_left()

    def test_an_interrupted_sweep_reaps_its_workers(self, tmp_path, monkeypatch):
        argv = self._argv(tmp_path, 10)
        out = Path(argv[-1])
        out.write_bytes(b"an earlier record\n")
        real_first_best = cli.first_best
        calls = []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_first_best(*args)

        monkeypatch.setattr(cli, "first_best", interrupted)
        use_cpus(monkeypatch, 4)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert out.read_bytes() == b"an earlier record\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.json", "planted.csv"]
        assert_no_child_left()

    def test_external_and_single_chunk_sweeps_never_fork(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("the sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 4)
        external = self._argv(tmp_path, 8, "external") + ["--external-cmd", f"{STUB_CMD} ones-fraction"]
        out = tmp_path / "oracle.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(external) == 0  # two chunks, one server process
            assert len(read_oracle_record(out).entries) == 2**8
            assert main(self._argv(tmp_path, 7)) == 0  # one chunk
            assert len(read_oracle_record(out).entries) == 2**7


class TestReport:
    @pytest.fixture()
    def run_dir(self, toy_csv, tmp_path):
        out = tmp_path / "runs"
        assert main(run_args(toy_csv, out, repeat="3")) == 0
        return out

    def test_tables(self, run_dir, capsys):
        paths = sorted(str(p) for p in run_dir.glob("record-*.json"))
        assert main(["report"] + paths) == 0
        lines = capsys.readouterr().out.splitlines()

        start = lines.index("# per-generation") + 2
        per_gen = []
        while start < len(lines) and lines[start]:
            per_gen.append(lines[start].split(","))
            start += 1
        assert len(per_gen) == 5  # generations 0..4
        assert all(float(row[2]) >= 0.0 for row in per_gen)  # std column

        dist_header = next(i for i, l in enumerate(lines) if l.startswith("# final"))
        dist = []
        for line in lines[dist_header + 2 :]:
            if not line:
                break
            dist.append(line.split(","))
        assert sum(float(row[1]) for row in dist) == pytest.approx(1.0, abs=1e-12)

        predicted_line = next(l for l in lines if l.startswith("predicted"))
        assert predicted_line.endswith("= 32.0")  # m=16, K=4

    def test_a_file_that_is_no_run_record_is_named(self, run_dir, capsys):
        aggregate = run_dir / "aggregate.json"
        assert main(["report", str(run_dir / "record-000.json"), str(aggregate)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {aggregate}: RunRecord missing field(s) config, ")

    def test_mixed_datasets_refused(self, toy_csv, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(toy_csv, out_a, repeat="1")) == 0
        other = tmp_path / "other.csv"
        write_planted_csv(other, n=4, rows=60, informative=(0, 1), seed=2)
        assert main(run_args(other, out_b, repeat="1")) == 0
        code = main(
            ["report", str(out_a / "record-000.json"), str(out_b / "record-000.json")]
        )
        assert code == 1

    def test_mixed_models_refused(self, toy_csv, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(toy_csv, out_a, repeat="1")) == 0
        assert main(run_args(toy_csv, out_b, repeat="1", evaluator="linear-svm")) == 0
        record_a, record_b = out_a / "record-000.json", out_b / "record-000.json"
        capsys.readouterr()
        assert main(["report", str(record_a), str(record_b)]) == 1
        assert "mix different models" in capsys.readouterr().err
        # The same kind with another C or epoch count is another model too.
        raw = json.loads(record_b.read_text())
        evaluator = raw["config"]["evaluator"]
        for key, value in (("C", 2.0), ("epochs", 50)):
            config = {**raw["config"], "evaluator": {**evaluator, key: value}}
            record_c = tmp_path / f"changed-{key}.json"
            record_c.write_text(json.dumps({**raw, "config": config}), encoding="utf-8")
            assert main(["report", str(record_b), str(record_c)]) == 1
            assert "mix different models" in capsys.readouterr().err

    def test_corrupt_record_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["report", str(bad)]) == 1

    @pytest.mark.parametrize(
        "make",
        [
            lambda path: path.mkdir(),
            lambda path: path.write_bytes(b"\xff\xfe{}"),
            lambda path: path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8"),
        ],
        ids=["directory", "not-utf8", "nested-too-deep"],
    )
    def test_unreadable_record_is_an_error_line(self, make, tmp_path, capsys):
        path = tmp_path / "record.json"
        make(path)
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_means_match_the_aggregate(self, toy_csv, tmp_path, capsys):
        # Nine records: enough for a pairwise column sum to differ from the
        # aggregate's row-by-row sum in the last bit, were they computed apart.
        out = tmp_path / "runs"
        assert main(run_args(toy_csv, out, repeat="9")) == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        capsys.readouterr()
        assert main(["report"] + [str(out / name) for name in aggregate["records"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[2 : 2 + 5]]
        assert [float(row[1]) for row in rows] == aggregate["mean_best_accuracy"]
        assert [float(row[2]) for row in rows] == aggregate["std_best_accuracy"]
        assert [float(row[3]) for row in rows] == aggregate["mean_support"]

    @pytest.fixture()
    def library_records(self, tmp_path):
        paths = []
        for seed in (1, 2):
            record = evolve(
                EvolutionConfig(n=3, generations=3, shots=8, seed=seed),
                lambda mask: mask.count("1") / len(mask),
            )
            paths.append(tmp_path / f"lib-{seed}.json")
            write_run_record(record, paths[-1])
        return paths

    def test_library_records_are_summarized(self, library_records, capsys):
        assert main(["report"] + [str(p) for p in library_records]) == 0
        out = capsys.readouterr().out
        assert "predicted m*K/2 = 12.0" in out  # m=8, K=3
        assert len(out.split("# final distribution")[0].splitlines()) == 2 + 4 + 1

    def test_library_and_cli_records_do_not_mix(self, library_records, toy_csv, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(run_args(toy_csv, out, repeat="1", generations="3")) == 0
        code = main(["report", str(library_records[0]), str(out / "record-000.json")])
        assert code == 1
        assert "mix different datasets" in capsys.readouterr().err

    def test_records_of_different_shot_counts_refused(self, tmp_path, capsys):
        paths = []
        for shots in (8, 64):
            record = evolve(
                EvolutionConfig(n=3, generations=3, shots=shots, seed=1),
                lambda mask: mask.count("1") / len(mask),
            )
            paths.append(tmp_path / f"shots-{shots}.json")
            write_run_record(record, paths[-1])
        assert main(["report"] + [str(p) for p in paths]) == 1
        assert "disagree on predicted evaluations" in capsys.readouterr().err

    def test_top_level_list_rejected(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[]", encoding="utf-8")
        assert main(["report", str(bad)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_config_block_not_an_object_rejected(self, library_records, capsys):
        raw = json.loads(library_records[0].read_text())
        for name in ("dataset", "evaluator"):
            changed = {**raw, "config": {**raw["config"], name: 7}}
            library_records[0].write_text(json.dumps(changed), encoding="utf-8")
            assert main(["report", str(library_records[0])]) == 1
            assert f"config.{name} is not a JSON object" in capsys.readouterr().err

    def test_generations_not_a_list_rejected(self, library_records, capsys):
        raw = json.loads(library_records[0].read_text())
        for bad in (7, {"generation": 0}, []):
            raw["generations"] = bad
            library_records[0].write_text(json.dumps(raw), encoding="utf-8")
            assert main(["report", str(library_records[0])]) == 1
            assert "generations" in capsys.readouterr().err

    def test_config_values_of_any_json_type_are_compared(self, library_records, capsys):
        raw = json.loads(library_records[0].read_text())
        changes = [
            {"evaluator": {"kind": [], "C": {}}},  # not hashable
            {"dataset": {"digest": 0}},  # not sortable beside a string
        ]
        for change in changes:
            library_records[1].write_text(
                json.dumps({**raw, "config": {**raw["config"], **change}}), encoding="utf-8"
            )
            assert main(["report", str(library_records[1])]) == 0
            capsys.readouterr()
            assert main(["report", str(library_records[0]), str(library_records[1])]) == 1
            assert capsys.readouterr().err.startswith("error: records mix different")

    @pytest.mark.parametrize(
        "change",
        [
            lambda raw: raw.update(config=[]),
            lambda raw: raw.update(totals={}),
            lambda raw: raw.update(totals=[]),
            lambda raw: raw["generations"][0].update(best_accuracy="0.5"),
            lambda raw: raw["generations"][0].update(parent_fitness=["x", None]),
            lambda raw: raw.update(final_distribution=5),
            lambda raw: raw["final_distribution"].__setitem__(0, [5]),
            lambda raw: raw["final_distribution"][0].pop("accuracy"),
            lambda raw: raw["totals"].update(predicted_evaluations=0.0),
            lambda raw: raw["totals"].update(predicted_evaluations=-12),
        ],
        ids=[
            "config-array",
            "totals-empty",
            "totals-array",
            "accuracy-string",
            "parent-fitness-items",
            "distribution-number",
            "distribution-row-array",
            "distribution-row-without-accuracy",
            "predicted-zero",
            "predicted-negative",
        ],
    )
    def test_structurally_wrong_record_is_an_error_line(self, library_records, change, capsys):
        raw = json.loads(library_records[0].read_text())
        change(raw)
        library_records[0].write_text(json.dumps(raw), encoding="utf-8")
        assert main(["report", str(library_records[0])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def cli_record(toy_csv, tmp_path_factory):
    """A record written by `qfselect run`, so it has every config block."""
    out = tmp_path_factory.mktemp("pristine")
    assert main(run_args(toy_csv, out, repeat="1", generations="3")) == 0
    return out / "record-000.json"


def json_paths(value, path=()):
    """The path of every value inside a JSON value, the root's `()` included."""
    yield path
    if isinstance(value, (dict, list)):
        keys = value.keys() if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from json_paths(value[key], path + (key,))


# One value of each JSON type, the two kinds of number apart.
JSON_EXAMPLES = (None, True, 7, 0.5, "x", [], {})


def change_once(raw, data):
    """`raw` after one drawn change: drop a key at any depth, change a
    value's JSON type, or zero a number."""
    path = data.draw(st.sampled_from(list(json_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]] if path else raw
    changes = ["retype"]
    if path and isinstance(parent, dict):
        changes.append("drop")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        changes.append("zero")
    change = data.draw(st.sampled_from(changes))
    if change == "drop":
        del parent[path[-1]]
        return raw
    others = [v for v in JSON_EXAMPLES if type(v) is not type(value)]
    new = 0 if change == "zero" else data.draw(st.sampled_from(others))
    if not path:
        return new
    parent[path[-1]] = new
    return raw


class TestReportRobustness:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_change_to_a_record_never_tracebacks(self, cli_record, data):
        raw = change_once(json.loads(cli_record.read_text(encoding="utf-8")), data)
        changed = cli_record.with_name("changed.json")
        changed.write_text(json.dumps(raw), encoding="utf-8")
        paths = [changed] + ([cli_record] if data.draw(st.booleans()) else [])

        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report"] + [str(p) for p in paths])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")


@pytest.fixture(scope="module")
def cli_oracle_record(toy_csv, tmp_path_factory):
    """A record written by `qfselect oracle`."""
    out = tmp_path_factory.mktemp("pristine-oracle") / "oracle.json"
    argv = ["oracle", "--data", str(toy_csv), "--label", "label", "--out", str(out)]
    assert main(argv) == 0
    return out


class TestOracleRecordRobustness:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_change_to_a_record_reads_or_raises_record_error(
        self, cli_oracle_record, data
    ):
        raw = change_once(json.loads(cli_oracle_record.read_text(encoding="utf-8")), data)
        changed = cli_oracle_record.with_name("changed.json")
        changed.write_text(json.dumps(raw), encoding="utf-8")
        try:
            record = read_oracle_record(changed)
        except RecordError:
            return
        assert isinstance(record, OracleRecord)
