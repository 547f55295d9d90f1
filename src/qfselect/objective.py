"""Sampled objective F = sum_x p(x) f(x) and the evaluation-count model.

The ledger is the one mutable object a run shares: a mask -> accuracy memo,
so the classifier trains at most once per mask, that also tracks the best
mask seen.  Its misses, like each chunk of the oracle sweep, are scored
by `evaluate_batch` as one batch: one ``evaluate_many`` call, or one call
per mask for a plain mask -> accuracy callable, then one check of the
values.  The per-generation counts (support sizes and cache misses) are
the evolution loop's to log; ``empirical_auc`` integrates the support curve
it hands over.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

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

        The misses, in first-seen order, are scored as one batch by
        `evaluate_batch` and enter the cache in that order, so a tie for
        the best accuracy goes to the first-seen mask.  When the batch
        fails, the misses scored before the failure are cached and the
        rest are not; a failure of ``evaluate_many`` itself caches none.
        """
        masks = list(masks)
        misses = [mask for mask in dict.fromkeys(masks) if mask not in self._cache]
        if misses:
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
            if len(accuracies) == len(masks):  # every mask a distinct miss, in order
                return accuracies
        return [self._cache[mask] for mask in masks]


def evaluate_batch(
    masks: list[str], evaluator: Evaluator, accuracies: list[float] | None = None
) -> list[float]:
    """Accuracies of `masks`, in order, each a float checked to lie in [0, 1].

    The batch is one ``evaluator.evaluate_many(masks)`` call when the
    evaluator has that method; a plain callable is called once per mask,
    lazily, as the values are checked.  A FitnessError from
    ``evaluate_many`` is raised as it is; anything else it raises, or a
    result of another length than the batch, raises EvaluatorError.  A
    value that is not a float in [0, 1], or a plain callable's failure,
    raises FitnessError naming its mask.  The accuracies are appended to
    `accuracies` (a new list if None) and it is returned; after a failure
    it holds those of the masks before the failing one.
    """
    if accuracies is None:
        accuracies = []
    if hasattr(evaluator, "evaluate_many"):
        try:
            values = list(evaluator.evaluate_many(masks))
        except FitnessError:
            raise
        except Exception as err:
            raise EvaluatorError(
                f"evaluate_many failed on a batch of {len(masks)} mask(s): {err}"
            ) from err
        if len(values) != len(masks):
            raise EvaluatorError(
                f"evaluate_many returned {len(values)} result(s) for {len(masks)} mask(s)"
            )
    else:
        values = _one_call_per_mask(masks, evaluator)
    for mask, value in zip(masks, values):
        try:
            value = float(value)
        except Exception as err:
            raise FitnessError(f"evaluator failed: {err}", mask=mask) from err
        if not 0.0 <= value <= 1.0:
            raise FitnessError(f"evaluator returned {value!r}, outside [0, 1]", mask=mask)
        accuracies.append(value)
    return accuracies


def _one_call_per_mask(masks: list[str], evaluator: Evaluator) -> Iterator[object]:
    """A plain callable's values for `masks`, one call each, as they are taken."""
    for mask in masks:
        try:
            yield evaluator(mask)
        except FitnessError:
            raise
        except Exception as err:
            raise FitnessError(f"evaluator failed: {err}", mask=mask) from err


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
