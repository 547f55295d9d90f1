"""Sampled objective F = sum_x p(x) f(x) and the evaluation-count model.

The ledger is the one mutable object a run shares: a mask -> accuracy memo,
so the classifier trains at most once per mask, that also tracks the best
mask seen.  The per-generation counts (support sizes and cache misses) are
the evolution loop's to log; ``empirical_auc`` integrates the support curve
it hands over.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluatorError, FitnessError, InsufficientDataError
from .simulator import SampledDistribution, quasi_probabilities

Evaluator = Callable[[str], float]


class EvaluationLedger:
    """Mask-accuracy cache that also tracks the best mask.

    A mask enters the cache the first time it scores and is never
    evaluated again, so ``size`` counts the evaluations made so far.
    """

    def __init__(self) -> None:
        self._cache: dict[str, float] = {}
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
        method, else by one call per miss, checked by `evaluate_batch`.
        Results enter the cache in that order, so a tie for the best
        accuracy goes to the first-seen mask.  A mask whose evaluation
        fails or leaves [0, 1] raises FitnessError and is not cached; the
        misses before it are.  A FitnessError from ``evaluate_many`` is
        raised as it is, with none of the batch cached.
        """
        masks = list(masks)
        misses = [mask for mask in dict.fromkeys(masks) if mask not in self._cache]
        if misses:
            accuracies = self._score_misses(misses, evaluator)
            if len(accuracies) == len(masks):  # every mask a distinct miss, in order
                return accuracies
        return [self._cache[mask] for mask in masks]

    def _score_misses(self, misses: list[str], evaluator: Evaluator) -> list[float]:
        """Evaluate and cache `misses`; on a failure, cache the ones before it and raise."""
        accuracies: list[float] = []
        try:
            evaluate_batch(misses, evaluator, accuracies)
        finally:  # cache every accuracy taken, up to a failure
            self._cache.update(zip(misses, accuracies))
            if accuracies:
                best = max(accuracies)  # the first of equal maxima
                if best > self.best_accuracy:
                    self.best_accuracy = best
                    self.best_mask = misses[accuracies.index(best)]
        return accuracies


def evaluate_batch(
    masks: list[str], evaluator: Evaluator, accuracies: list[float] | None = None
) -> list[float]:
    """Accuracies of `masks`, in order, each a float checked to lie in [0, 1].

    The batch is scored by one ``evaluator.evaluate_many(masks)`` call when
    the evaluator has that method, else by one call per mask.  A mask whose
    evaluation fails or leaves [0, 1] raises FitnessError naming it.  A
    FitnessError from ``evaluate_many`` already names its mask and is
    raised as it is; when ``evaluate_many`` raises anything else, the masks
    are scored again one call at a time so that the error names its mask.
    An ``evaluate_many`` result of another length than the batch raises
    EvaluatorError.  The accuracies are appended to `accuracies` (a new
    list if None) and it is returned; after a failure it holds those of
    the masks before the failing one.
    """
    if accuracies is None:
        accuracies = []
    values = None
    if hasattr(evaluator, "evaluate_many"):
        try:
            values = list(evaluator.evaluate_many(masks))
        except FitnessError:
            raise
        except Exception:
            pass  # scored one call per mask below
    if values is not None and len(values) != len(masks):
        raise EvaluatorError(
            f"evaluate_many returned {len(values)} result(s) for {len(masks)} mask(s)"
        )
    checked = None if values is None else _in_range(values)
    if checked is not None:
        accuracies += checked
        return accuracies
    for i, mask in enumerate(masks):  # one at a time, to name the mask that fails
        try:
            value = float(evaluator(mask) if values is None else values[i])
        except FitnessError:
            raise
        except Exception as err:
            raise FitnessError(f"evaluator failed: {err}", mask=mask) from err
        if not 0.0 <= value <= 1.0:
            raise FitnessError(f"evaluator returned {value!r}, outside [0, 1]", mask=mask)
        accuracies.append(value)
    return accuracies


def _in_range(values: list) -> list[float] | None:
    """The values as floats if every one converts and lies in [0, 1], else None."""
    try:
        accuracies = [value for value in map(float, values) if 0.0 <= value <= 1.0]
    except Exception:
        return None
    return accuracies if len(accuracies) == len(values) else None


def fitness(
    dist: SampledDistribution, evaluator: Evaluator, ledger: EvaluationLedger
) -> float:
    """Shot-frequency-weighted accuracy of the masks in `dist`.

    Uncached masks are scored into `ledger`; nothing else changes.
    """
    probs = quasi_probabilities(dist)
    total = 0.0
    for p, accuracy in zip(probs.values(), ledger.score(probs, evaluator)):
        total += p * accuracy
    return total


def predicted_total_evaluations(m: int, K: int) -> float:
    """Closed-form area under the linear cost model: m*K/2."""
    return m * K / 2.0


def empirical_auc(support: Sequence[int]) -> float:
    """Trapezoidal area under the per-generation support-size curve."""
    if len(support) == 0:
        raise InsufficientDataError("no generations recorded")
    return float(np.trapezoid(np.asarray(support, dtype=np.float64)))
