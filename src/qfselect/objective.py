"""Sampled objective F = sum_x p(x) f(x) and the evaluation-count model.

The module holds functions only.  A run's memo is the evolution loop's
plain mask -> accuracy dict: the loop scores a generation's uncached
masks, like each chunk of the oracle sweep, with `evaluate_batch` as one
batch, adds them to the dict, and keeps the best mask by `first_best`;
``fitness`` only reads the dict.  ``empirical_auc`` integrates the
support curve the loop logs.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EvaluatorError, FitnessError, InsufficientDataError
from .simulator import SampledDistribution, quasi_probabilities

Evaluator = Callable[[str], float]


def first_best(masks: list[str], accuracies: list[float], mask: str | None, accuracy: float):
    """The first of the batch's equal maxima if it beats `accuracy`, else the old best."""
    best = max(accuracies, default=accuracy)
    return (masks[accuracies.index(best)], best) if best > accuracy else (mask, accuracy)


def evaluate_batch(masks: list[str], evaluator: Evaluator) -> list[float]:
    """Accuracies of `masks`, in order, each a float checked to lie in [0, 1].

    The batch is one ``evaluator.evaluate_many(masks)`` call when the
    evaluator has that method; a plain callable is called once per mask,
    lazily, as the values are checked, so no mask after a failing one is
    called.  A FitnessError from ``evaluate_many`` is raised as it is;
    anything else it raises, or a result of another length than the
    batch, raises EvaluatorError.  A value that is not a float in [0, 1],
    or a plain callable's failure, raises FitnessError naming its mask.
    The accuracies are returned only when every one of them passes.
    """
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
    accuracies = []
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


def fitness(dist: SampledDistribution, accuracies: Mapping[str, float]) -> float:
    """Shot-frequency-weighted accuracy of the masks in `dist`, read from `accuracies`."""
    total = 0.0
    for mask, p in quasi_probabilities(dist).items():
        total += p * accuracies[mask]
    return total


def predicted_total_evaluations(m: int, K: int) -> float:
    """Closed-form area under the linear cost model: m*K/2."""
    return m * K / 2.0


def empirical_auc(support: Sequence[int]) -> float:
    """Trapezoidal area under the per-generation support-size curve."""
    if len(support) == 0:
        raise InsufficientDataError("no generations recorded")
    return float(np.trapezoid(np.asarray(support, dtype=np.float64)))
