"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 --seconds 20 [--workloads a,b] [--out FILE]

Runs bench/run.py once per (workload, seed) with --trace 0, then reports,
per workload and metric, the median of the values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of the median.  With --out it also writes every value, with the
machine report of the first call, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, WORKLOADS


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report: dict = {"seeds": args.seeds, "seconds": args.seconds, "machine": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=BENCH_DIR.parent,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            if report["machine"] is None:
                report["machine"] = next(
                    json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("# machine ")
                )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            ), flush=True)
        summary = {name: summarize(vals) for name, vals in values.items()}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            print(f"{workload:<12} {name:<12} median {s['median']:.4g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
