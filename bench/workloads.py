"""The benchmark's workloads: seeded inputs, the timed unit, and the
correctness gate on the records each unit writes.

Every workload is a closed loop with one client: this process calls
qfselect (the library, or ``qfselect.cli.main`` in-process) and waits for
each result before issuing the next call.  A *unit* is one instance of
the workload, made of *jobs* (one evolve run or one oracle sweep each).
Each job is timed on its own and leaves one canonical record to check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import re
import resource
import shlex
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfselect import (
    EvaluatorSpec,
    EvolutionConfig,
    evolve,
    load_csv,
    make_evaluator,
    stratified_split,
    wine_csv_path,
    write_run_record,
)
from qfselect import cli

BENCH_DIR = Path(__file__).resolve().parent
TEST_FRACTION = 0.2
LABEL = "class"
# The paper's wine protocol starts at seed 21 (demos/03_wine_experiment.py).
WINE_BASE_SEED = 21


@dataclass
class Job:
    """One evolve run or oracle sweep inside a unit, with its own timing."""

    name: str
    record: Path
    error: str | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    # Mean reference-kernel time around the job (see reference.py).
    ref_s: float = 0.0


def cpu_seconds() -> float:
    """User+sys time of this process and of its children that have exited."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@contextlib.contextmanager
def timed(job: Job):
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        yield
    finally:
        job.wall_s = time.perf_counter() - start
        job.cpu_s = cpu_seconds() - cpu0


def _failure(err: BaseException) -> str:
    text = "".join(traceback.format_exception_only(type(err), err)).strip()
    print(f"job failed: {text}", file=sys.stderr)
    return text


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with path.open("w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_planted_csv(path: Path, seed: int, n: int, rows: int, signal: tuple[int, ...]) -> None:
    """Two classes decided by the sign of a fixed combination of `signal` columns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n))
    weights = np.array([1.0, -1.0, 0.5][: len(signal)])
    labels = (x[:, list(signal)] @ weights > 0).astype(int)
    header = [LABEL] + [f"f{i}" for i in range(n)]
    body = [[f"c{label}"] + [repr(float(v)) for v in row] for label, row in zip(labels, x)]
    _write_csv(path, header, body)


def write_wine_subset_csv(path: Path, seed: int, keep: int) -> None:
    """The bundled wine table restricted to `keep` feature columns drawn by `seed`."""
    with wine_csv_path().open(newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    label_at = table[0].index(LABEL)
    features = [i for i in range(len(table[0])) if i != label_at]
    chosen = sorted(np.random.default_rng(seed).choice(features, size=keep, replace=False))
    columns = [label_at] + [int(i) for i in chosen]
    _write_csv(path, [table[0][i] for i in columns], [[row[i] for i in columns] for row in table[1:]])


# Canonical records embed the dataset path and the external command line,
# both of which name the checkout the benchmark runs in (the record's
# cwd-dependence is a known defect); their lines are left out of the digest.
_CHECKOUT_DEPENDENT = re.compile(r'^      "(path|external_cmd)": .*\n', re.M)


def record_digest(path: Path) -> str:
    text = _CHECKOUT_DEPENDENT.sub("", path.read_text(encoding="utf-8"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_run_record(raw: dict) -> list[str]:
    problems = []
    generations = raw["generations"]
    best = [g["best_fitness"] for g in generations]
    if any(later < earlier for earlier, later in zip(best, best[1:])):
        problems.append(f"best fitness decreased: {best}")
    final = raw["final_distribution"]
    total = sum(row["probability"] for row in final)
    if abs(total - 1.0) > 1e-9:
        problems.append(f"final probabilities sum to {total!r}")
    accuracies = [g["best_accuracy"] for g in generations] + [row["accuracy"] for row in final]
    if any(not 0.0 <= a <= 1.0 for a in accuracies):
        problems.append("an accuracy lies outside [0, 1]")
    return problems


def check_oracle_record(raw: dict, n: int, score=None) -> list[str]:
    """Invariants of a sweep; `score(mask)` is the exact expected accuracy if known."""
    entries = raw["entries"]
    if len(entries) != 1 << n:
        return [f"{len(entries)} entries for n={n}"]
    problems = []
    for index, entry in enumerate(entries):
        mask, accuracy = entry["mask"], entry["accuracy"]
        if mask != format(index, f"0{n}b")[::-1]:
            problems.append(f"entry {index} has mask {mask}")
            break
        if not 0.0 <= accuracy <= 1.0 or (score is not None and accuracy != score(mask)):
            problems.append(f"entry {mask} has accuracy {accuracy!r}")
            break
    accuracies = [entry["accuracy"] for entry in entries]
    top = max(accuracies)
    argmax = entries[accuracies.index(top)]["mask"]
    if raw["best_mask"] != argmax or raw["best_accuracy"] != top:
        problems.append(f"best_mask {raw['best_mask']} is not the argmax {argmax}")
    return problems


class EvolveWorkload:
    """evolve() runs sharing one evaluator built once, outside the timed unit."""

    def __init__(self, data: Path, split_seed: int, seeds: list[int], generations: int, kind: str, kernel: str):
        self.kernel = kernel
        self.generations = generations
        self.data = data
        self.split_seed = split_seed
        self.seeds = seeds
        self.spec = EvaluatorSpec(kind=kind)
        self.n = 0
        self.evaluator = None

    def probe_args(self) -> list[str]:
        return [str(self.data), LABEL, str(TEST_FRACTION), str(self.split_seed), self.spec.kind, ""]

    def describe(self) -> str:
        return (
            f"data {self.data.name}, split seed {self.split_seed}, evolve seeds "
            f"{self.seeds[0]}..{self.seeds[-1]}, K={self.generations} m=64 lambda=6 mu=1, {self.spec.kind}"
        )

    def setup(self, tracer) -> None:
        data = tracer.wrap("dataset.load_csv", load_csv)(self.data, LABEL)
        split = tracer.wrap("dataset.stratified_split", stratified_split)(
            data, TEST_FRACTION, seed=self.split_seed
        )
        self.n = data.n_features
        self.evaluator = tracer.wrap("classifier.make_evaluator", make_evaluator)(self.spec, split)

    def run_unit(self, tracer, out_dir: Path, after_job=lambda job: None) -> list[Job]:
        evaluator = tracer.evaluator(self.evaluator)
        run = tracer.wrap("evolution.evolve", evolve)
        write = tracer.wrap("records.write", write_run_record)
        jobs = []
        for i, seed in enumerate(self.seeds):
            job = Job(f"evolve seed {seed}", out_dir / f"record-{i:03d}.json")
            config = EvolutionConfig(
                n=self.n, mu=1, lambda_=6, generations=self.generations, shots=64, seed=seed
            )
            try:
                with timed(job):
                    write(run(config, evaluator), job.record)
            except Exception as err:  # counted in failed_ratio; the run goes on
                job.error = _failure(err)
            after_job(job)
            jobs.append(job)
        return jobs

    def check(self, raw: dict) -> list[str]:
        return check_run_record(raw)

    def close(self) -> None:
        if self.evaluator is not None:
            self.evaluator.close()


class OracleWorkload:
    """One `qfselect oracle` sweep through cli.main per unit; it sets itself up."""

    def __init__(self, data: Path, n: int, split_seed: int, kind: str, kernel: str, command: str = "", score=None):
        self.kernel = kernel
        self.data = data
        self.n = n
        self.split_seed = split_seed
        self.kind = kind
        self.command = command
        self.score = score

    def probe_args(self) -> list[str]:
        return [str(self.data), LABEL, str(TEST_FRACTION), str(self.split_seed), self.kind, self.command]

    def describe(self) -> str:
        return f"data {self.data.name}, n={self.n}, 2^{self.n} masks, split seed {self.split_seed}, {self.kind}"

    def setup(self, tracer) -> None:
        pass

    def run_unit(self, tracer, out_dir: Path, after_job=lambda job: None) -> list[Job]:
        job = Job("oracle sweep", out_dir / "oracle.json")
        argv = [
            "oracle", "--data", str(self.data), "--label", LABEL,
            "--seed", str(self.split_seed), "--evaluator", self.kind, "--out", str(job.record),
        ]
        if self.command:
            argv += ["--external-cmd", self.command]
        try:
            with timed(job), contextlib.redirect_stdout(io.StringIO()):
                code = tracer.wrap("cli.oracle", cli.main)(argv)
            if code != 0:
                job.error = f"qfselect oracle exited with code {code}"
        except Exception as err:  # counted in failed_ratio; the run goes on
            job.error = _failure(err)
        after_job(job)
        return [job]

    def check(self, raw: dict) -> list[str]:
        return check_oracle_record(raw, self.n, self.score)

    def close(self) -> None:
        pass


def make_workload(name: str, seed: int, workdir: Path):
    """Build the named workload, writing its generated inputs under `workdir`.

    The two evolve workloads keep fixed inputs: the wine protocol is the
    paper's (split seed 21, runs 21..30), and an n=20 run's cost follows the
    circuit its selection happens to grow (105 to 340 simulated gates over
    seeds 0-3), far wider than any regression bound.  The n=20 run has 6
    generations, not 12, so that a call holds several units (README.md says
    why that matters).  The seed drives the
    oracle workloads' inputs and picks the correctness check (digests at
    the default seed, invariants everywhere).  Each workload also names the
    reference kernel (reference.py) that its times are divided by.
    """
    if name == "wine-evolve":
        seeds = list(range(WINE_BASE_SEED, WINE_BASE_SEED + 10))
        return EvolveWorkload(wine_csv_path(), WINE_BASE_SEED, seeds, 12, "linear-svm", "compute")
    if name == "wide-evolve":
        data = workdir / "planted-n20.csv"
        write_planted_csv(data, seed=0, n=20, rows=200, signal=(0, 3, 7))
        return EvolveWorkload(data, WINE_BASE_SEED, [WINE_BASE_SEED], 6, "nearest-centroid", "statevector")
    if name == "wine-oracle":
        data = workdir / "wine-subset.csv"
        write_wine_subset_csv(data, seed, keep=9)
        return OracleWorkload(data, 9, seed, "linear-svm", "compute")
    if name == "ext-oracle":
        # The client, its evaluator process and the set-up probes share one
        # CPU, so a round trip is two context switches there.  Across two
        # vCPUs of a shared VM it waits for the host to run the other one,
        # and a 2^15 sweep's median took 3.4 to 13.9 s as host load changed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        data = workdir / "planted-n14.csv"
        write_planted_csv(data, seed, n=14, rows=100, signal=(0, 3, 7))
        command = shlex.join([sys.executable, str(BENCH_DIR / "ext_server.py")])
        return OracleWorkload(data, 14, seed, "external", "compute", command, lambda mask: mask.count("1") / 14)
    raise ValueError(f"unknown workload {name!r}")
