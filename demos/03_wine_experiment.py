"""The wine benchmark: beat the all-features baseline across ten seeds.

Loads the bundled 13-feature wine dataset, scores the use-everything
baseline with a linear SVM, then runs ten independent evolutionary
searches over feature masks.  Each run samples 64 shots from its evolving
circuit for 12 generations; the printout mirrors the aggregate numbers the
command-line `run` command writes to aggregate.json.
"""

import numpy as np

from qfselect import (
    EvaluatorSpec,
    EvolutionConfig,
    evolve,
    load_csv,
    make_evaluator,
    stratified_split,
    wine_csv_path,
)

BASE_SEED = 21
REPEATS = 10


def main() -> None:
    data = load_csv(wine_csv_path(), label="class")
    split = stratified_split(data, test_fraction=0.2, seed=BASE_SEED)
    counts = data.class_counts()
    print(f"wine: {data.n_rows} rows, {data.n_features} features, "
          f"classes {dict(zip(data.label_names, counts.tolist()))}")
    print(f"split: {len(split.train_labels)} train / {len(split.test_labels)} test")

    evaluator = make_evaluator(EvaluatorSpec(), split)  # linear SVM, C=1.0, 200 epochs
    baseline = evaluator("1" * data.n_features)
    print(f"\nall-features baseline accuracy: {baseline:.4f}")

    print(f"\n{'seed':>4}  {'best-acc':>8}  {'depth':>5}  {'masks-tried':>11}  best-mask")
    finals, aucs, depths = [], [], []
    for i in range(REPEATS):
        record = evolve(
            EvolutionConfig(n=data.n_features, generations=12, shots=64,
                            seed=BASE_SEED + i),
            evaluator,
        )
        last = record.generations[-1]
        finals.append(last.best_accuracy)
        aucs.append(record.totals.empirical_auc)
        depths.append(last.parent_depth)
        marker = " <- beats baseline" if last.best_accuracy > baseline else ""
        print(f"{BASE_SEED + i:>4}  {last.best_accuracy:>8.4f}  "
              f"{last.parent_depth:>5}  {record.totals.cache_size:>11}  "
              f"{last.best_mask}{marker}")

    wins = sum(acc > baseline for acc in finals)
    print(f"\nstrict improvements over baseline: {wins}/{REPEATS}")
    print(f"mean best accuracy: {np.mean(finals):.4f} "
          f"(baseline {baseline:.4f})")
    print(f"mean final circuit depth: {np.mean(depths):.2f}")
    print(f"mean evaluation-curve area: {np.mean(aucs):.0f} "
          f"(naive-model prediction {64 * 12 / 2:.0f})")


if __name__ == "__main__":
    main()
