"""The benchmark under bench/ imports, looks up and patches these module
attributes by name; renaming or removing one breaks it without failing any
other test.
The same holds for the commands recorded in the per-layer evidence files."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from qfselect import evolution, simulator
from qfselect.evolution import EvolutionConfig, evolve
from qfselect.simulator import Circuit, Gate, GateKind

BENCH_NAMES = {
    # What bench/workloads.py imports from the package itself.
    "qfselect": (
        "EvaluatorSpec",
        "EvolutionConfig",
        "evolve",
        "load_csv",
        "make_evaluator",
        "stratified_split",
        "wine_csv_path",
        "write_run_record",
    ),
    "qfselect.evolution": ("simulate", "sample", "mutate", "select", "fitness"),
    "qfselect.simulator": ("index_to_mask",),
    "qfselect.cli": (
        "make_evaluator",
        "load_csv",
        "stratified_split",
        "index_to_mask",
        "write_oracle_record",
    ),
}

# The commands recorded in BENCH_train_ovr.json import `classifier as c`
# and call these names; the kept-columns command replays the wine
# experiment through make_evaluator and evolve.
EVIDENCE_FILE = Path(__file__).parents[1] / "BENCH_train_ovr.json"
EVIDENCE_NAMES = {
    "qfselect.classifier": (
        "_train_ovr",
        "_standardized",
        "_aligned_empty",
        "DegenerateTrainingError",
        "EvaluatorSpec",
        "make_evaluator",
    ),
    "qfselect.dataset": ("load_csv", "stratified_split", "wine_csv_path"),
    "qfselect.evolution": ("EvolutionConfig", "evolve"),
}


def _missing(module_name, names):
    module = importlib.import_module(module_name)
    return [name for name in names if not callable(getattr(module, name, None))]


@pytest.mark.parametrize("module_name", sorted(BENCH_NAMES))
def test_bench_lookup_names_resolve(module_name):
    missing = _missing(module_name, BENCH_NAMES[module_name])
    assert missing == [], f"{module_name} lacks {missing}"


@pytest.mark.parametrize("module_name", sorted(EVIDENCE_NAMES))
def test_evidence_command_names_resolve(module_name):
    missing = _missing(module_name, EVIDENCE_NAMES[module_name])
    assert missing == [], f"{module_name} lacks {missing}"


def test_evidence_commands_use_only_listed_names():
    used = set(re.findall(r"\bc\.(\w+)", EVIDENCE_FILE.read_text()))
    assert used and used <= set(EVIDENCE_NAMES["qfselect.classifier"])


def test_evolve_calls_simulate_with_one_positional_argument(monkeypatch):
    # The benchmark's `simulate` span note is a one-argument lambda.
    calls = []
    original = evolution.simulate

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "simulate", spy)
    evolve(EvolutionConfig(n=4, generations=3, seed=1), lambda mask: mask.count("1") / 4)
    assert calls and set(map(repr, calls)) == {repr((1, {}))}


def test_evolve_calls_fitness_once_per_sampled_circuit(monkeypatch):
    # The traced `objective.fitness.calls` counts one call per circuit.
    calls = []
    original = evolution.fitness

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "fitness", spy)
    config = EvolutionConfig(n=4, generations=3, seed=1)
    evolve(config, lambda mask: mask.count("1") / 4)
    assert len(calls) == 1 + config.generations * config.lambda_


def test_sample_renders_each_distinct_outcome_once(monkeypatch):
    # The traced `masks.index_to_mask.calls` counts one call per outcome.
    rendered = []
    original = simulator.index_to_mask

    def spy(index, n):
        rendered.append(index)
        return original(index, n)

    monkeypatch.setattr(simulator, "index_to_mask", spy)
    hadamard_like = tuple(Gate(GateKind.RY, (q,), np.pi / 2) for q in range(4))
    state = simulator.simulate(Circuit(4, hadamard_like))
    dist = evolution.sample(state, 256, np.random.default_rng(0))
    assert len(dist.counts) > 1
    assert len(rendered) == len(set(rendered)) == len(dist.counts)
