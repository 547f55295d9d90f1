"""qfselect benchmark: one workload per call, or every workload with `all`.

    python3 bench/run.py --workload wine-evolve --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; qfselect is imported from its
src/ directory.  A call builds the workload's inputs from --seed in a
scratch directory under .bench_work/, measures set-up in fresh
interpreters, then repeats the workload's unit of jobs for --seconds
seconds, give or take half a unit, and checks every record the jobs wrote.

With --trace 0 the metrics are the end-to-end ones.  Each job's wall and
CPU time is divided by the time of a reference kernel (bench/reference.py)
run just before and just after it, which cancels the host's speed at that
moment.  Figures are per unit: the sum over its jobs of each job's median
over the repetitions, so a burst of noise in one repetition does not move
them.  The raw seconds are printed on comment lines.  With
--trace 1 untraced and traced units alternate, and the metrics are the
per-layer ones (medians over the traced units) plus the tracing
overhead; the spans go to .bench_out/.  Each printed line is one metric,
and the last line is a JSON object with keys correct, attempted, failed
and metrics.  bench/README.md says what every metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
from operator import attrgetter
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("wine-evolve", "wide-evolve", "wine-oracle", "ext-oracle")
DEFAULT_SEED = 0
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
REFERENCE = BENCH_DIR / "reference_digests.json"
WALL, CPU = attrgetter("wall_s"), attrgetter("cpu_s")

# name -> unit: every end-to-end metric a --trace 0 call reports.  A "ref"
# is one run of the workload's reference kernel at the same moment.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MiB",
}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_nonnegative, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=_positive, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help=f"store this call's record digests as the seed-{DEFAULT_SEED} reference",
    )
    return parser


def measure_setup(workload) -> float:
    """Median set-up seconds over SETUP_PROBES fresh interpreters.

    One extra probe runs first and is dropped: it pays for reading the
    interpreter's and NumPy's files into the page cache, which a user pays
    once, not on every run.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), *workload.probe_args()],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


class Gate:
    """Correctness gate over every job of every unit.

    Each record must pass the workload's invariants, match the same job's
    record from the first unit, and, when a reference is given, match its
    stored digest.  A job that raised counts as failed too.
    """

    def __init__(self, workload, reference: list[str] | None):
        self.workload = workload
        self.reference = reference
        self.first: list[str | None] | None = None
        self.attempted = 0
        self.failed = 0
        # Of the last checked unit: ledger (lookups, misses) and record bytes.
        self.ledger = (0, 0)
        self.record_bytes = 0

    def check(self, jobs) -> None:
        from workloads import record_digest

        digests: list[str | None] = []
        lookups = misses = self.record_bytes = 0
        for position, job in enumerate(jobs):
            self.attempted += 1
            problems = [job.error] if job.error else []
            digest = None
            if not problems:
                raw = json.loads(job.record.read_text(encoding="utf-8"))
                problems = self.workload.check(raw)
                digest = record_digest(job.record)
                self.record_bytes += job.record.stat().st_size
                if "totals" in raw:
                    lookups += sum(g["support"] for g in raw["generations"])
                    misses += raw["totals"]["cache_size"]
            digests.append(digest)
            if self.first is not None and digest != self.first[position]:
                problems.append("record differs from the first unit's")
            if self.reference is not None and digest != self.reference[position]:
                problems.append("record digest differs from the stored reference")
            if problems:
                self.failed += 1
                print(f"{job.name}: {'; '.join(problems)}", file=sys.stderr)
        self.ledger = (lookups, misses)
        if self.first is None:
            self.first = digests


def run_unit(workload, tracer, out_dir: Path, calibrator=None) -> list:
    """One unit of jobs; tracing installed only when `tracer` records spans.

    With a calibrator, each job is followed by a reference-kernel burst
    that sets its `ref_s`.
    """
    from tracing import NullTracer, installed

    gc.collect()
    if isinstance(tracer, NullTracer):
        return workload.run_unit(tracer, out_dir, calibrator.after if calibrator else lambda job: None)
    with installed(tracer):
        return workload.run_unit(tracer, out_dir)


def per_unit(units: list[list], value) -> float:
    """Sum over job positions of the median over units of `value(job)`."""
    return sum(statistics.median(value(job) for job in column) for column in zip(*units))


def _load_reference(args) -> tuple[dict, list[str] | None]:
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if args.seed != DEFAULT_SEED or args.update_reference:
        return references, None
    if args.workload not in references:
        print(f"no reference digests for {args.workload}", file=sys.stderr)
    return references, references.get(args.workload)


def run_workload(args) -> int:
    import machine
    from reference import Calibrator
    from tracing import LAYER_METRICS, NullTracer, Tracer, layer_metrics, median_metrics, write_spans
    from workloads import make_workload

    references, reference = _load_reference(args)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = calibrator = None
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        out_dir = workdir / "records"
        out_dir.mkdir()
        setup_s = None if args.trace else measure_setup(workload)
        setup_tracer = Tracer() if args.trace else NullTracer()
        workload.setup(setup_tracer)
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {workload.describe()}")
        print(f"# machine {json.dumps(machine.report(workload.n))}")
        gate = Gate(workload, reference)
        if not args.trace:
            calibrator = Calibrator(workload.kernel)
            calibrator.start()

        untraced, traced, traced_spans, layers = [], [], [], []
        started = time.perf_counter()
        while True:
            jobs = run_unit(workload, NullTracer(), out_dir, calibrator)
            gate.check(jobs)
            untraced.append(jobs)
            step = sum(job.wall_s for job in jobs)
            if args.trace:
                tracer = Tracer()
                jobs = run_unit(workload, tracer, out_dir)
                gate.check(jobs)
                traced.append(jobs)
                traced_spans.append(tracer.spans)
                layers.append(layer_metrics([setup_tracer.spans, tracer.spans], gate.ledger, gate.record_bytes))
                step += sum(job.wall_s for job in jobs)
            # Another step runs only if it should end at most half a step past --seconds.
            if time.perf_counter() - started + step / 2 > args.seconds:
                break

        if args.update_reference:
            references[args.workload] = gate.first
            REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"# stored {len(gate.first)} reference digest(s) in {REFERENCE.name}")
        print(
            f"# {len(untraced)} untraced and {len(traced)} traced unit(s) of {len(untraced[0])} job(s); "
            f"failed_ratio {gate.failed / gate.attempted!r} ({gate.failed}/{gate.attempted})"
        )
        if args.trace:
            metrics = median_metrics(layers)
            metrics["trace.overhead_ratio"] = per_unit(traced, WALL) / per_unit(untraced, WALL) - 1.0
            units = {name: unit for name, (unit, _better) in LAYER_METRICS.items()}
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            write_spans(trace_path, [setup_tracer.spans] + traced_spans)
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            print(
                f"# raw seconds per unit: wall {per_unit(untraced, WALL)!r}, "
                f"cpu {per_unit(untraced, CPU)!r}; reference kernel "
                f"{workload.kernel}, median {statistics.median(j.ref_s for u in untraced for j in u)!r} s "
                f"over {calibrator.samples} samples"
            )
            metrics = {
                "setup_s": setup_s,
                "wall_ref": per_unit(untraced, lambda job: job.wall_s / job.ref_s),
                "cpu_ref": per_unit(untraced, lambda job: job.cpu_s / job.ref_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        for name, value in metrics.items():
            print(f"{name} {value!r} {units[name]}")
        result = {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; one table."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    print(f"{'workload':<12} {'metric':<38} {'value':>14} unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload:<12} {name:<38} {metric['value']:>14.6g} {metric['unit']}")
                metrics[f"{workload}/{name}"] = metric
            print(f"{workload:<12} {'failed_ratio':<38} {result['failed'] / result['attempted']:>14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    package = ROOT / "src" / "qfselect"
    if not (package / "__init__.py").is_file():
        print(f"error: no qfselect sources at {package}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qfselect

    if Path(qfselect.__file__).resolve().parent != package.resolve():
        print(f"error: imported qfselect from {qfselect.__file__}, not {package}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
