"""Command-line front end: run experiments, brute-force oracles, reports.

Exit codes: 0 on success, 2 for usage errors, 1 for every other failure
(bad data, evaluator trouble, corrupt records).  Argparse refuses a flag
it cannot parse; `MutationConfig` and `EvaluatorSpec` are the checks for
their flags' values, and they run before any file is read, so a value
they refuse is a usage error too.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .classifier import BATCH_MASKS, KINDS, EvaluatorSpec, make_evaluator
from .dataset import Dataset, load_csv, stratified_split
from .errors import EvaluatorError, OracleLimitError, QfselectError, RecordError
from .evolution import EvolutionConfig, MutationConfig, evolve
from .masks import index_to_mask
from .objective import evaluate_batch, first_best
from .records import (
    OracleRecordWriter,
    RunRecord,
    read_run_record,
    write_json,
    write_oracle_record,  # noqa: F401  (bench/tracing.py times it by this name)
    write_run_record,
)

ORACLE_MAX_FEATURES = 20


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="CSV file with a header row")
    sub.add_argument(
        "--label",
        default="0",
        help="label column, by header name or 0-based index (default: 0)",
    )
    sub.add_argument(
        "--test-fraction",
        type=_fraction,
        default=0.2,
        help="held-out fraction for the stratified split (default: 0.2)",
    )


def _add_evaluator_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--evaluator",
        choices=KINDS,
        default="linear-svm",
        help="mask-scoring backend (default: linear-svm)",
    )
    sub.add_argument(
        "--external-cmd",
        default=None,
        help="command line for --evaluator external",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfselect",
        description="Feature selection by evolving sampled quantum circuits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run seeded evolution experiments")
    _add_data_flags(run)
    _add_evaluator_flags(run)
    run.add_argument("--generations", type=_positive_int, default=12)
    run.add_argument("--shots", type=_positive_int, default=64)
    run.add_argument("--mu", type=_positive_int, default=1)
    run.add_argument("--lambda", dest="lambda_", type=_positive_int, default=6)
    run.add_argument("--seed", type=_nonnegative_int, default=0)
    run.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="independent runs with seeds seed, seed+1, ... (default: 1)",
    )
    run.add_argument("--p-insert", type=float, default=0.5)
    run.add_argument("--p-modify", type=float, default=0.3)
    run.add_argument("--p-delete", type=float, default=0.1)
    run.add_argument("--p-swap", type=float, default=0.1)
    run.add_argument(
        "--sigma",
        type=float,
        default=MutationConfig().sigma_modify,
        help="stddev of the angle-modify step in radians (default: pi/10)",
    )
    run.add_argument(
        "--out", default="runs", help="directory for record files (default: runs)"
    )
    run.set_defaults(func=cmd_run)

    oracle = commands.add_parser(
        "oracle", help="evaluate every mask exhaustively (n <= 20)"
    )
    _add_data_flags(oracle)
    _add_evaluator_flags(oracle)
    oracle.add_argument("--seed", type=_nonnegative_int, default=0)
    oracle.add_argument(
        "--out", default="oracle.json", help="output file (default: oracle.json)"
    )
    oracle.set_defaults(func=cmd_oracle)

    report = commands.add_parser("report", help="summarize run records as CSV")
    report.add_argument("records", nargs="+", help="RunRecord JSON files")
    report.set_defaults(func=cmd_report)

    return parser


def _dataset_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dataset_config(args, data: Dataset, split_seed: int) -> dict:
    return {
        "label": str(args.label),
        "digest": _dataset_digest(args.data),
        "rows": data.n_rows,
        "n_features": data.n_features,
        "classes": data.n_classes,
        "test_fraction": args.test_fraction,
        "split_seed": split_seed,
    }


def _configs_from_flags(args) -> None:
    """Build the configs that depend on flags alone, before any file is read."""
    if hasattr(args, "evaluator"):
        args.spec = EvaluatorSpec(kind=args.evaluator, external_cmd=args.external_cmd)
    if hasattr(args, "p_insert"):
        args.mutation = MutationConfig(
            p_insert=args.p_insert,
            p_modify=args.p_modify,
            p_delete=args.p_delete,
            p_swap=args.p_swap,
            sigma_modify=args.sigma,
        )


def cmd_run(args) -> int:
    data = load_csv(args.data, args.label)
    split = stratified_split(data, args.test_fraction, seed=args.seed)
    context = {
        "evaluator": dataclasses.asdict(args.spec),
        "dataset": _dataset_config(args, data, split_seed=args.seed),
    }

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise RecordError(f"cannot create output directory {out_dir}: {err.strerror}") from None

    started = time.perf_counter()
    records: list[RunRecord] = []
    paths: list[Path] = []
    evaluator = make_evaluator(args.spec, split)
    try:
        for i in range(args.repeat):
            config = EvolutionConfig(
                n=data.n_features,
                mu=args.mu,
                lambda_=args.lambda_,
                generations=args.generations,
                shots=args.shots,
                seed=args.seed + i,
                mutation=args.mutation,
            )
            record = evolve(config, evaluator)
            record = dataclasses.replace(record, config={**record.config, **context})
            path = out_dir / f"record-{i:03d}.json"
            write_run_record(record, path)
            records.append(record)
            paths.append(path)
    finally:
        evaluator.close()
    elapsed = time.perf_counter() - started

    aggregate = {
        "format_version": 1,
        "records": [p.name for p in paths],
        **_summarize(records),
        "wall_clock_seconds": elapsed,
    }
    write_json(aggregate, out_dir / "aggregate.json")

    best = max(r.generations[-1].best_accuracy for r in records)
    print(f"wrote {len(records)} record(s) + aggregate.json to {out_dir}")
    print(f"best accuracy over all repeats: {best!r} in {elapsed:.2f} s")
    return 0


# Stands in for the digest of a record without a dataset block (as evolve()
# writes it), so that such records never mix with CLI-written ones.
_NO_DATASET = "(no dataset block)"
# Likewise for a record without an evaluator block.
_NO_EVALUATOR = "(no evaluator block)"


def _block(record: RunRecord, name: str) -> dict | None:
    """The record's `name` config block, or None if it has none."""
    block = record.config.get(name)
    if block is not None and not isinstance(block, dict):
        raise RecordError(f"config.{name} is not a JSON object: {block!r}")
    return block


def _model(record: RunRecord) -> tuple | str:
    """The evaluator settings that decide a record's accuracies."""
    spec = _block(record, "evaluator")
    if spec is None:
        return _NO_EVALUATOR
    return tuple(spec.get(key) for key in ("kind", "C", "epochs"))


def _shared(values: list, refusal: str):
    """The one value in `values`; RecordError "records <refusal>" if they differ.

    Compares by equality alone, so a record's JSON values need not be
    hashable or of one type.
    """
    distinct: list = []
    for value in values:
        if value not in distinct:
            distinct.append(value)
    if len(distinct) > 1:
        raise RecordError(f"records {refusal}: {sorted(distinct, key=str)}")
    return distinct[0]


def _summarize(records: list[RunRecord]) -> dict:
    """Per-generation means over `records` and their mean totals.

    Refuses records of different datasets, models (evaluator kind, C or
    epochs), generation counts or shot counts (seen as different predicted
    evaluation totals).
    """
    digest = _shared(
        [(_block(r, "dataset") or {}).get("digest", _NO_DATASET) for r in records],
        "mix different datasets",
    )
    _shared([_model(r) for r in records], "mix different models")
    _shared([len(r.generations) for r in records], "disagree on generation count")
    predicted = _shared(
        [r.totals.predicted_evaluations for r in records],
        "disagree on predicted evaluations",
    )

    def per_generation(name: str) -> np.ndarray:
        return np.array([[getattr(e, name) for e in r.generations] for r in records])

    best_accuracy = per_generation("best_accuracy")
    return {
        "dataset_digest": digest,
        "mean_best_accuracy": best_accuracy.mean(axis=0).tolist(),
        "std_best_accuracy": best_accuracy.std(axis=0).tolist(),
        "mean_best_fitness": per_generation("best_fitness").mean(axis=0).tolist(),
        "mean_support": per_generation("support").mean(axis=0).tolist(),
        "mean_empirical_auc": float(np.mean([r.totals.empirical_auc for r in records])),
        "predicted_evaluations": predicted,
    }


def cmd_oracle(args) -> int:
    data = load_csv(args.data, args.label)
    n = data.n_features
    if n > ORACLE_MAX_FEATURES:
        raise OracleLimitError(
            f"refusing to enumerate 2^{n} masks; the oracle is capped at "
            f"n <= {ORACLE_MAX_FEATURES}"
        )
    split = stratified_split(data, args.test_fraction, seed=args.seed)
    config = {
        "n": n,
        "evaluator": dataclasses.asdict(args.spec),
        "dataset": _dataset_config(args, data, split_seed=args.seed),
    }
    starts = range(0, 2**n, BATCH_MASKS)
    # Chunk i is scored by process i mod `width`, this one being process 0,
    # one process per CPU this one may run on.  Interleaved chunks keep each
    # worker at most a pipe buffer ahead of the chunk this process writes.
    # An external evaluator's one server process cannot be shared.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    width = 1 if args.spec.kind == "external" else min(len(cpus), len(starts))

    # The record is written as the chunks are scored, so the sweep holds
    # one chunk at a time; it is opened first, so an unwritable --out
    # fails before anything is scored.
    best_mask, best_accuracy = None, float("-inf")
    with OracleRecordWriter(args.out, config) as writer:
        evaluator = make_evaluator(args.spec, split)

        def score(masks: list[str]) -> list[float]:
            return evaluate_batch(masks, evaluator)

        def masks_at(start: int) -> list[str]:
            return [index_to_mask(index, n) for index in range(start, min(start + BATCH_MASKS, 2**n))]

        workers: list[tuple[int, int]] = []
        try:
            for w in range(1, width):
                workers.append(_fork_worker(score, (masks_at(start) for start in starts[w::width])))
            for i, start in enumerate(starts):
                masks = masks_at(start)
                w = i % width
                accuracies = score(masks) if w == 0 else _receive(workers[w - 1][1], masks)
                writer.add([{"mask": m, "accuracy": a} for m, a in zip(masks, accuracies)])
                best_mask, best_accuracy = first_best(masks, accuracies, best_mask, best_accuracy)
        finally:
            _stop(workers)
            evaluator.close()
        writer.finish(best_mask, best_accuracy)
    print(f"wrote {2**n} mask evaluations to {args.out}")
    print(f"best mask {best_mask} accuracy {best_accuracy!r}")
    return 0


# The first byte of a worker's reply: its chunk's accuracies follow as
# float64, or its failure's message follows up to end of file.
_SCORED, _FAILED = b"+", b"!"


def _fork_worker(score, chunks) -> tuple[int, int]:
    """Fork a process that scores `chunks` in order, replying on a pipe.

    Returns its pid and the pipe's read end.  The worker leaves by os._exit
    on every path, so no buffer or exit handler the sweep owns runs twice.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as err:
        os.close(read_fd)
        os.close(write_fd)
        raise EvaluatorError(f"cannot start an oracle worker: {err.strerror}") from None
    if pid == 0:
        try:
            os.close(read_fd)
            for masks in chunks:
                _write(write_fd, _SCORED + np.array(score(masks), dtype=np.float64).tobytes())
        except QfselectError as err:
            _write(write_fd, _FAILED + str(err).encode())
        except BaseException:
            _write(write_fd, _FAILED + ("an oracle worker failed:\n" + traceback.format_exc()).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    """`size` bytes from `fd`, or fewer if it reaches end of file first."""
    blocks = []
    while size > 0 and (block := os.read(fd, min(size, 1 << 16))):
        blocks.append(block)
        size -= len(block)
    return b"".join(blocks)


def _receive(fd: int, masks: list[str]) -> list[float]:
    """A worker's accuracies for `masks`, its next chunk, or its failure raised."""
    size = 1 + 8 * len(masks)
    reply = _read(fd, size)
    if reply[:1] == _FAILED:
        raise EvaluatorError((reply[1:] + _read(fd, sys.maxsize)).decode(errors="replace"))
    if len(reply) < size:
        raise EvaluatorError(f"mask {masks[0]}: the oracle worker scoring it exited without a result")
    return np.frombuffer(reply, dtype=np.float64, offset=1).tolist()


def _stop(workers: list[tuple[int, int]]) -> None:
    """Kill and reap every worker and close its pipe."""
    for pid, _ in workers:
        os.kill(pid, signal.SIGKILL)
    for pid, fd in workers:
        os.waitpid(pid, 0)
        os.close(fd)


def cmd_report(args) -> int:
    records = [read_run_record(path) for path in args.records]
    for path, record in zip(args.records, records):
        predicted = record.totals.predicted_evaluations
        if not predicted > 0:
            raise RecordError(
                f"{path}: totals.predicted_evaluations must be positive, got {predicted!r}"
            )
    summary = _summarize(records)
    cumulative = np.cumsum(
        [[e.new_evaluations for e in r.generations] for r in records], axis=1
    ).mean(axis=0)

    print("# per-generation")
    print(
        "generation,mean_best_accuracy,std_best_accuracy,"
        "mean_support,mean_cumulative_new_evaluations"
    )
    columns = zip(
        summary["mean_best_accuracy"],
        summary["std_best_accuracy"],
        summary["mean_support"],
        cumulative.tolist(),
    )
    for g, (mean, std, support, new) in enumerate(columns):
        print(f"{g},{mean!r},{std!r},{support!r},{new!r}")

    best_index = int(
        np.argmax([r.generations[-1].best_accuracy for r in records])
    )
    chosen = records[best_index]
    print()
    print(f"# final distribution ({Path(args.records[best_index]).name})")
    print("mask,probability,accuracy")
    for row in chosen.final_distribution:
        print(f"{row.mask},{row.probability!r},{row.accuracy!r}")

    predicted = summary["predicted_evaluations"]
    mean_auc = summary["mean_empirical_auc"]
    mean_cache = float(np.mean([r.totals.cache_size for r in records]))
    print()
    print("# evaluations")
    print(f"predicted m*K/2 = {predicted!r}")
    print(f"empirical AUC mean = {mean_auc!r} ({mean_auc / predicted:.3f}x predicted)")
    print(f"distinct masks evaluated, mean = {mean_cache!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configs_from_flags(args)
    except ValueError as err:
        # A config refused a flag combination that argparse let through.
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except QfselectError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception:
        # A failure no QfselectError names: keep its traceback for the report.
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
