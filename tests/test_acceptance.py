"""Acceptance gate: nine end-to-end checks with printed verdict lines.

Each test prints one `[PASS]`/`[FAIL]` line (visible with -s, or in the
captured output of a failing run) and asserts the same condition, so the
pytest -v report carries exactly one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from qfselect.classifier import EvaluatorSpec, evaluate, make_evaluator
from qfselect.cli import main
from qfselect.dataset import Dataset, load_csv, stratified_split, wine_csv_path
from qfselect.evolution import EvolutionConfig, evolve
from qfselect.masks import index_to_mask
from qfselect.simulator import simulate

from helpers import dense_unitary, planted_rows, random_circuit

WINE_SEED = 21  # split seed and first evolution seed of the wine experiment
PLANTED_SEED = 4  # generator and split seed of the planted-feature dataset


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def compose_dense(circuit):
    unitary = np.eye(2**circuit.n, dtype=complex)
    for gate in circuit.gates:
        unitary = dense_unitary(gate, circuit.n) @ unitary
    return unitary


def planted_dataset(n: int, rows: int = 200) -> Dataset:
    features, labels = planted_rows(n, rows, informative=(0, 3, 7), seed=PLANTED_SEED)
    return Dataset(
        feature_names=tuple(f"f{i}" for i in range(n)),
        features=features,
        labels=labels,
        label_names=("0", "1"),
    )


@pytest.fixture(scope="module")
def wine_runs():
    """Ten wine runs sharing one split: linear SVM, K=12, m=64."""
    data = load_csv(wine_csv_path(), "class")
    split = stratified_split(data, 0.2, seed=WINE_SEED)
    spec = EvaluatorSpec()
    baseline = evaluate("1" * data.n_features, split, spec)
    evaluator = make_evaluator(spec, split)
    started = time.perf_counter()
    records = [
        evolve(
            EvolutionConfig(
                n=data.n_features,
                mu=1,
                lambda_=6,
                generations=12,
                shots=64,
                seed=WINE_SEED + i,
            ),
            evaluator,
        )
        for i in range(10)
    ]
    elapsed = time.perf_counter() - started
    return {"baseline": baseline, "records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def planted_runs():
    """Brute-force landscape plus ten evolution runs on the planted set."""
    data = planted_dataset(n=10)
    split = stratified_split(data, 0.2, seed=PLANTED_SEED)
    evaluator = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)
    started = time.perf_counter()
    oracle_max = max(
        evaluator(index_to_mask(index, 10)) for index in range(2**10)
    )
    records = [
        evolve(
            EvolutionConfig(
                n=10, mu=1, lambda_=6, generations=20, shots=64, seed=seed
            ),
            evaluator,
        )
        for seed in range(10)
    ]
    elapsed = time.perf_counter() - started
    return {"oracle_max": oracle_max, "records": records, "elapsed": elapsed}


def test_01_simulator_matches_dense_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        circuit = random_circuit(rng, n=3, n_gates=int(rng.integers(0, 13)))
        fast = simulate(circuit).dense()
        dense = compose_dense(circuit)[:, 0]
        worst = max(worst, float(np.abs(fast - dense).max()))
    elapsed = time.perf_counter() - started
    verdict(
        worst <= 1e-10 and elapsed < 5.0,
        "simulator oracle equivalence",
        f"200 circuits (n=3, <=12 gates), worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_unitarity_at_ten_qubits():
    rng = np.random.default_rng(2025)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        circuit = random_circuit(rng, n=10, n_gates=int(rng.integers(0, 51)))
        norm = float(np.linalg.norm(simulate(circuit).amplitudes))
        worst = max(worst, abs(norm - 1.0))
    elapsed = time.perf_counter() - started
    verdict(
        worst <= 1e-10 and elapsed < 10.0,
        "unitarity sweep",
        f"100 circuits (n=10, <=50 gates), worst norm error {worst:.2e}, {elapsed:.1f}s",
    )


def test_03_planted_feature_recovery(planted_runs):
    oracle_max = planted_runs["oracle_max"]
    hits = sum(
        record.generations[-1].best_accuracy >= oracle_max - 1e-12
        for record in planted_runs["records"]
    )
    elapsed = planted_runs["elapsed"]
    verdict(
        hits >= 8 and elapsed < 60.0,
        "planted-feature recovery",
        f"evolution matched the exhaustive-search max accuracy "
        f"({oracle_max:.4f}) in {hits}/10 seeds, {elapsed:.1f}s",
    )


def test_04_wine_improvement_ordering(wine_runs):
    baseline = wine_runs["baseline"]
    wins = sum(
        record.generations[-1].best_accuracy > baseline
        for record in wine_runs["records"]
    )
    elapsed = wine_runs["elapsed"]
    in_band = abs(baseline - 0.888) <= 0.05
    verdict(
        wins >= 9 and in_band and elapsed < 120.0,
        "wine improvement ordering",
        f"baseline {baseline:.4f} (within 0.05 of 0.888: {in_band}), "
        f"beaten strictly in {wins}/10 runs, {elapsed:.1f}s",
    )


def test_05_evaluation_count_model(wine_runs):
    records = wine_runs["records"]
    predicted = [record.totals["predicted_evaluations"] for record in records]
    mean_auc = float(np.mean([record.totals["empirical_auc"] for record in records]))
    support_ok = all(
        entry.support <= 6 * 64
        for record in records
        for entry in record.generations
    )
    verdict(
        all(p == 384.0 for p in predicted)
        and 192.0 <= mean_auc <= 768.0
        and support_ok,
        "evaluation-count model",
        f"predicted m*K/2 = 384 reported, mean empirical AUC {mean_auc:.0f} "
        f"in [192, 768], per-generation support <= 384: {support_ok}",
    )


def test_06_depth_bound_and_scale(wine_runs):
    finals = [record.generations[-1].parent_depth for record in wine_runs["records"]]
    mean_depth = float(np.mean(finals))
    verdict(
        max(finals) <= 12 and mean_depth <= 6.0,
        "depth bound and scale",
        f"final depths {finals}, max {max(finals)} <= 12, mean {mean_depth:.2f} <= 6",
    )


def test_07_elitism_monotonicity(wine_runs, planted_runs):
    violations = 0
    total = 0
    for record in wine_runs["records"] + planted_runs["records"]:
        accuracy = [entry.best_accuracy for entry in record.generations]
        fitness = [entry.best_fitness for entry in record.generations]
        total += 1
        if accuracy != sorted(accuracy) or fitness != sorted(fitness):
            violations += 1
    verdict(
        violations == 0,
        "elitism monotonicity",
        f"best-so-far accuracy and best fitness non-decreasing in all "
        f"{total} recorded runs",
    )


def test_08_determinism_byte_identical(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    argv_for = lambda out: [
        "run",
        "--data", str(wine_csv_path()),
        "--label", "class",
        "--generations", "12",
        "--shots", "64",
        "--mu", "1",
        "--lambda", "6",
        "--seed", str(WINE_SEED),
        "--repeat", "1",
        "--out", str(out),
    ]
    assert main(argv_for(base / "first")) == 0
    assert main(argv_for(base / "second")) == 0
    first = (base / "first" / "record-000.json").read_bytes()
    second = (base / "second" / "record-000.json").read_bytes()
    verdict(
        first == second,
        "determinism",
        f"same-seed reruns produced byte-identical records ({len(first)} bytes)",
    )


def test_09_cache_miss_scaling():
    results = []
    ok = True
    for n in (8, 10, 12):
        data = planted_dataset(n=n)
        split = stratified_split(data, 0.2, seed=PLANTED_SEED)
        evaluator = make_evaluator(EvaluatorSpec(kind="nearest-centroid"), split)
        bound = 4 * n * n
        worst = 0
        for seed in range(5):
            record = evolve(
                EvolutionConfig(
                    n=n, mu=1, lambda_=6, generations=n, shots=5 * n, seed=seed
                ),
                evaluator,
            )
            worst = max(worst, record.totals["cache_size"])
            ok = ok and record.totals["cache_size"] <= bound
        results.append(f"n={n}: max misses {worst} <= {bound}")
    verdict(ok, "evaluation-count scaling", "; ".join(results))
