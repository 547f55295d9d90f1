"""Sampled objective F = sum_x p(x) f(x) and evaluation-count accounting.

The ledger is the one mutable object a run shares: it caches mask accuracy
so the classifier trains at most once per mask, and it counts, per
generation, both genuinely new evaluations (cache misses) and the summed
support sizes of all sampled distributions (the evaluation cost curve).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import FitnessError, InsufficientDataError
from .simulator import SampledDistribution, quasi_probabilities

Evaluator = Callable[[str], float]


class EvaluationLedger:
    """Mask-accuracy cache with per-generation counters.

    A mask enters the cache the first time it scores and is never
    evaluated again.  Counters accumulate until close_generation().
    """

    def __init__(self) -> None:
        self._cache: dict[str, float] = {}
        self._open_new = 0
        self._open_support = 0
        self.per_generation_new: list[int] = []
        self.per_generation_support: list[int] = []
        self.best_mask: str | None = None
        self.best_accuracy: float = float("-inf")

    @property
    def cache(self) -> dict[str, float]:
        return dict(self._cache)

    @property
    def size(self) -> int:
        return len(self._cache)

    def score(self, masks: Iterable[str], evaluator: Evaluator) -> list[float]:
        """Accuracies of `masks`, evaluating each uncached one once.

        The misses are evaluated in first-seen order: by one
        ``evaluator.evaluate_many(misses)`` call when the evaluator has that
        method, else by one call per miss.  Results enter the cache in that
        order, so a tie for the best accuracy goes to the first-seen mask.
        A mask whose evaluation fails or leaves [0, 1] raises FitnessError
        and is not cached; when ``evaluate_many`` raises, the misses are
        scored again one call at a time so that the error names its mask.
        """
        masks = list(masks)
        misses = [mask for mask in dict.fromkeys(masks) if mask not in self._cache]
        values = None
        if misses and hasattr(evaluator, "evaluate_many"):
            try:
                values = list(evaluator.evaluate_many(misses))
            except Exception:
                pass  # scored one call per mask below
        for i, mask in enumerate(misses):
            try:
                value = float(evaluator(mask) if values is None else values[i])
            except FitnessError:
                raise
            except Exception as err:
                raise FitnessError(f"evaluator failed: {err}", mask=mask) from err
            if not 0.0 <= value <= 1.0:
                raise FitnessError(
                    f"evaluator returned {value!r}, outside [0, 1]", mask=mask
                )
            self._cache[mask] = value
            self._open_new += 1
            if value > self.best_accuracy:
                self.best_accuracy = value
                self.best_mask = mask
        return [self._cache[mask] for mask in masks]

    def note_support(self, size: int) -> None:
        self._open_support += size

    def close_generation(self) -> None:
        """Snapshot and reset the per-generation counters."""
        self.per_generation_new.append(self._open_new)
        self.per_generation_support.append(self._open_support)
        self._open_new = 0
        self._open_support = 0


def fitness(
    dist: SampledDistribution, evaluator: Evaluator, ledger: EvaluationLedger
) -> float:
    """Shot-frequency-weighted accuracy of the masks in `dist`."""
    probs = quasi_probabilities(dist)
    total = 0.0
    for p, accuracy in zip(probs.values(), ledger.score(probs, evaluator)):
        total += p * accuracy
    ledger.note_support(len(probs))
    return total


def predicted_total_evaluations(m: int, K: int) -> float:
    """Closed-form area under the linear cost model: m*K/2."""
    return m * K / 2.0


def empirical_auc(ledger: EvaluationLedger) -> float:
    """Trapezoidal area under the per-generation support-size curve."""
    counts = ledger.per_generation_support
    if not counts:
        raise InsufficientDataError("no generations recorded")
    return float(np.trapezoid(np.asarray(counts, dtype=np.float64)))
