"""In-memory span tracing around qfselect's public calls, and the per-layer
metrics derived from the spans.

A span is (name, start_ns, end_ns, parent, ok, note): `parent` is the index
of the span that was open when this one started (-1 at the top), `ok` is
False when the call raised, and `note` is an optional per-call detail such
as the gate count of a simulated circuit.  Spans stay in a list until the
run ends.  Tracing works by replacing the module attributes that callers
look up (``qfselect.evolution.simulate`` and so on) with timing wrappers,
so nothing under ``src/`` changes; `installed()` puts the originals back.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from pathlib import Path

# (module, attribute, span name): every lookup site the traced run wraps.
PATCHES = (
    ("qfselect.evolution", "simulate", "simulator.simulate"),
    ("qfselect.evolution", "sample", "simulator.sample"),
    ("qfselect.evolution", "mutate", "evolution.mutate"),
    ("qfselect.evolution", "select", "evolution.select"),
    ("qfselect.evolution", "fitness", "objective.fitness"),
    ("qfselect.simulator", "index_to_mask", "masks.index_to_mask"),
    ("qfselect.cli", "load_csv", "dataset.load_csv"),
    ("qfselect.cli", "stratified_split", "dataset.stratified_split"),
    ("qfselect.cli", "index_to_mask", "masks.index_to_mask"),
    ("qfselect.cli", "write_oracle_record", "records.write"),
)

# Per-call details kept on a span, by span name.
NOTES = {
    "simulator.simulate": lambda circuit: (len(circuit.gates), circuit.n),
}


class NullTracer:
    """Tracing off: wrap() hands back the callable untouched."""

    spans: tuple = ()

    def wrap(self, name, fn):
        return fn

    def evaluator(self, inner):
        return inner


class Tracer:
    """Collects spans from wrapped callables; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                open_.pop()
                spans[index] = (
                    name, start, end, parent, ok, note(*args) if note else None
                )

        return traced

    def evaluator(self, inner):
        """Wrap a mask -> accuracy callable that also has close()."""
        return _TracedEvaluator(inner, self.wrap("classifier.evaluate", inner))


class _TracedEvaluator:
    def __init__(self, inner, call) -> None:
        self._inner = inner
        self._call = call

    def __call__(self, mask: str) -> float:
        return self._call(mask)

    def close(self) -> None:
        self._inner.close()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every lookup site in PATCHES (and cli.make_evaluator) for a wrapper."""
    saved = []
    try:
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        cli = importlib.import_module("qfselect.cli")
        make = cli.make_evaluator
        saved.append((cli, "make_evaluator", make))
        traced_make = tracer.wrap("classifier.make_evaluator", make)
        cli.make_evaluator = lambda spec, data: tracer.evaluator(traced_make(spec, data))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# name -> (unit, better): every per-layer metric the traced run reports.
LAYER_METRICS = {
    "simulator.simulate.calls": ("count", "lower"),
    "simulator.simulate.gates": ("count", "lower"),
    "simulator.simulate.s": ("s", "lower"),
    "simulator.simulate.us_per_gate": ("us", "lower"),
    "simulator.bytes_moved_computed": ("B", "lower"),
    "simulator.sample.calls": ("count", "lower"),
    "simulator.sample.s": ("s", "lower"),
    "simulator.sample.us_per_call": ("us", "lower"),
    "classifier.make_evaluator.s": ("s", "lower"),
    "classifier.evaluate.calls": ("count", "lower"),
    "classifier.evaluate.s": ("s", "lower"),
    "classifier.evaluate.failed": ("count", "lower"),
    "classifier.evaluate.ms_per_mask.p50": ("ms", "lower"),
    "classifier.evaluate.ms_per_mask.p99": ("ms", "lower"),
    "objective.fitness.calls": ("count", "lower"),
    "objective.fitness.self_s": ("s", "lower"),
    "objective.ledger.lookups": ("count", "lower"),
    "objective.ledger.misses": ("count", "lower"),
    "objective.ledger.hit_ratio": ("ratio", "higher"),
    "evolution.mutate.s": ("s", "lower"),
    "evolution.select.s": ("s", "lower"),
    "evolution.evolve.self_s": ("s", "lower"),
    "records.write.s": ("s", "lower"),
    "records.bytes": ("B", "lower"),
    "dataset.load_csv.s": ("s", "lower"),
    "dataset.stratified_split.s": ("s", "lower"),
    "masks.index_to_mask.calls": ("count", "lower"),
    "masks.index_to_mask.s": ("s", "lower"),
    "cli.oracle.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(groups: list[list[tuple]], ledger: tuple[int, int], record_bytes: int) -> dict:
    """Per-layer figures for one traced unit.

    `groups` are span lists whose parent indices are local to each list
    (the in-process set-up and the unit).  `ledger` is (lookups, misses)
    summed from the unit's run records: lookups are the summed support
    sizes, misses the summed cache sizes.
    """
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for spans in groups:
        children_ns = [0] * len(spans)
        for _name, start, end, parent, _ok, _note in spans:
            if parent >= 0:
                children_ns[parent] += end - start
        for (name, start, end, _parent, _ok, _note), child in zip(spans, children_ns):
            total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
            self_s[name] = self_s.get(name, 0.0) + (end - start - child) / 1e9
            calls[name] = calls.get(name, 0) + 1
    spans = [span for group in groups for span in group]

    gates = bytes_moved = 0
    evaluate_ms: list[float] = []
    evaluate_failed = 0
    for name, start, end, _parent, ok, note in spans:
        if name == "simulator.simulate":
            n_gates, n = note
            gates += n_gates
            # Each gate reads and writes the whole complex128 state once.
            bytes_moved += n_gates * 2 * 16 * (1 << n)
        elif name == "classifier.evaluate":
            evaluate_ms.append((end - start) / 1e6)
            evaluate_failed += not ok
    evaluate_ms.sort()

    simulate_s = total_s.get("simulator.simulate", 0.0)
    sample_calls = calls.get("simulator.sample", 0)
    sample_s = total_s.get("simulator.sample", 0.0)
    lookups, misses = ledger
    return {
        "simulator.simulate.calls": calls.get("simulator.simulate", 0),
        "simulator.simulate.gates": gates,
        "simulator.simulate.s": simulate_s,
        "simulator.simulate.us_per_gate": simulate_s / gates * 1e6 if gates else 0.0,
        "simulator.bytes_moved_computed": bytes_moved,
        "simulator.sample.calls": sample_calls,
        "simulator.sample.s": sample_s,
        "simulator.sample.us_per_call": sample_s / sample_calls * 1e6 if sample_calls else 0.0,
        "classifier.make_evaluator.s": total_s.get("classifier.make_evaluator", 0.0),
        "classifier.evaluate.calls": len(evaluate_ms),
        "classifier.evaluate.s": total_s.get("classifier.evaluate", 0.0),
        "classifier.evaluate.failed": evaluate_failed,
        "classifier.evaluate.ms_per_mask.p50": _percentile(evaluate_ms, 50),
        "classifier.evaluate.ms_per_mask.p99": _percentile(evaluate_ms, 99),
        "objective.fitness.calls": calls.get("objective.fitness", 0),
        "objective.fitness.self_s": self_s.get("objective.fitness", 0.0),
        "objective.ledger.lookups": lookups,
        "objective.ledger.misses": misses,
        "objective.ledger.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "evolution.mutate.s": total_s.get("evolution.mutate", 0.0),
        "evolution.select.s": total_s.get("evolution.select", 0.0),
        "evolution.evolve.self_s": self_s.get("evolution.evolve", 0.0),
        "records.write.s": total_s.get("records.write", 0.0),
        "records.bytes": record_bytes,
        "dataset.load_csv.s": total_s.get("dataset.load_csv", 0.0),
        "dataset.stratified_split.s": total_s.get("dataset.stratified_split", 0.0),
        "masks.index_to_mask.calls": calls.get("masks.index_to_mask", 0),
        "masks.index_to_mask.s": total_s.get("masks.index_to_mask", 0.0),
        "cli.oracle.self_s": self_s.get("cli.oracle", 0.0),
    }


def median_metrics(per_unit: list[dict]) -> dict:
    """Metric-by-metric median over the traced units; counts stay whole numbers."""
    medians = {}
    for name, first in per_unit[0].items():
        values = [m[name] for m in per_unit]
        medians[name] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    return medians


def write_spans(path: Path, units: list[list[tuple]]) -> None:
    """One JSON object per span; `unit` says which traced unit it belongs to."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for unit, spans in enumerate(units):
            for index, (name, start, end, parent, ok, _note) in enumerate(spans):
                out.write(
                    json.dumps(
                        {
                            "unit": unit,
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "ok": ok,
                        }
                    )
                    + "\n"
                )
