"""Objective, batch scoring, best-mask, and evaluation-count tests."""

import numpy as np
import pytest

from qfselect.errors import EvaluatorError, FitnessError, InsufficientDataError
from qfselect.objective import (
    empirical_auc,
    evaluate_batch,
    first_best,
    fitness,
    predicted_total_evaluations,
)
from qfselect.simulator import SampledDistribution


def dist(counts):
    return SampledDistribution(shots=sum(counts.values()), counts=dict(counts))


BAD_VALUES = [float("nan"), -0.5, 1.5, "x", None]


class CountingEvaluator:
    def __init__(self, table):
        self.table = table
        self.calls = []

    def __call__(self, mask):
        self.calls.append(mask)
        return self.table[mask]


class TestFitness:
    def test_single_mask_passthrough(self):
        assert fitness(dist({"111": 64}), {"111": 0.888}) == pytest.approx(0.888)

    def test_weighted_mean(self):
        value = fitness(dist({"10": 32, "01": 32}), {"10": 0.8, "01": 0.6})
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_linearity_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n_masks = int(rng.integers(1, 6))
            masks = []
            while len(masks) < n_masks:
                m = "".join(rng.choice(["0", "1"], size=4))
                if m not in masks:
                    masks.append(m)
            counts = {m: int(rng.integers(1, 40)) for m in masks}
            table = {m: float(rng.uniform(0, 1)) for m in masks}
            shots = sum(counts.values())
            got = fitness(dist(counts), table)
            want = sum(counts[m] / shots * table[m] for m in masks)
            assert abs(got - want) <= 1e-12
            lo, hi = min(table.values()), max(table.values())
            assert lo - 1e-12 <= got <= hi + 1e-12


class TestLedger:
    """The two rules a run's memo is kept by: `evaluate_batch` scores a batch
    all or nothing, and `first_best` keeps the first best mask."""

    def test_an_empty_batch_keeps_the_best(self):
        assert first_best([], [], "10", 0.5) == ("10", 0.5)
        assert first_best([], [], None, float("-inf")) == (None, float("-inf"))

    def test_best_tracking_prefers_first_on_tie(self):
        best = None, float("-inf")
        for masks, accuracies in [(["10"], [0.5]), (["01"], [0.9]), (["11"], [0.9])]:
            best = first_best(masks, accuracies, *best)
        assert best == ("01", 0.9)

    def test_a_tie_within_a_batch_goes_to_the_first_seen_mask(self):
        best = first_best(["100", "011", "110"], [0.25, 0.9, 0.9], "000", 0.5)
        assert best == ("011", 0.9)
        assert first_best(["111"], [0.9], *best) == ("011", 0.9)
        assert first_best(["111", "101"], [0.25, 0.5], "000", 0.5) == ("000", 0.5)

    def test_failed_evaluation_not_cached(self):
        attempts = []

        def flaky(mask):
            attempts.append(mask)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return 0.5

        with pytest.raises(FitnessError):
            evaluate_batch(["10"], flaky)
        assert evaluate_batch(["10"], flaky) == [0.5]
        assert len(attempts) == 2

    def test_batch_scoring_evaluates_each_miss_once_in_first_seen_order(self):
        ev = CountingEvaluator({"11": 0.5, "10": 0.75, "01": 0.25})
        assert evaluate_batch(["11", "10", "01"], ev) == [0.5, 0.75, 0.25]
        assert ev.calls == ["11", "10", "01"]

        calls = []

        def fails_on_01(mask):
            calls.append(mask)
            if mask == "01":
                raise RuntimeError("bad column")
            return 0.25

        # No mask after the failing one is called.
        with pytest.raises(FitnessError) as exc:
            evaluate_batch(["10", "01", "11"], fails_on_01)
        assert exc.value.mask == "01"
        assert calls == ["10", "01"]

    def test_batch_evaluator_gets_all_misses_in_one_call(self):
        class Batched(CountingEvaluator):
            def __call__(self, mask):
                raise AssertionError("a batch evaluator is called through evaluate_many")

            def evaluate_many(self, masks):
                self.calls.append(list(masks))
                return [self.table[m] for m in masks]

        ev = Batched({"11": 0.5, "10": 0.75, "01": 0.75})
        assert evaluate_batch(["11", "10", "01"], ev) == [0.5, 0.75, 0.75]
        assert ev.calls == [["11", "10", "01"]]

    def test_failed_batch_names_the_failing_mask(self):
        class Batched(CountingEvaluator):
            def evaluate_many(self, masks):
                return [self.table[m] for m in masks]

        # A batch that fails with anything but a FitnessError is one failed
        # call: it is not scored again one mask at a time to name a mask.
        ev = Batched({"10": 0.5})
        with pytest.raises(EvaluatorError, match="^evaluate_many failed on a batch of 2 mask") as exc:
            evaluate_batch(["10", "01"], ev)
        assert not isinstance(exc.value, FitnessError)
        assert isinstance(exc.value.__cause__, KeyError)
        assert ev.calls == []

        with pytest.raises(FitnessError, match="outside") as exc:
            evaluate_batch(["11", "00"], Batched({"11": 0.5, "00": 1.5}))
        assert exc.value.mask == "00"

    @pytest.mark.parametrize(
        "bad, form",
        [pytest.param(bad, "evaluate_many", id=str(bad)) for bad in BAD_VALUES]
        + [pytest.param(bad, "plain", id=f"{bad}-plain") for bad in BAD_VALUES],
    )
    def test_a_bad_value_in_a_batch_caches_the_masks_before_it(self, bad, form):
        # A batch is all or nothing: a bad value raises, naming its mask,
        # and no accuracy of the batch, not even one before it, is returned.
        values = {"00": 0.25, "01": 0.75, "10": bad, "11": 0.5}

        class Returns(CountingEvaluator):
            def evaluate_many(self, masks):
                return [0.25, 0.75, bad, 0.5]

        # The same four values, in mask order, either way.
        ev = Returns({}) if form == "evaluate_many" else CountingEvaluator(values)
        with pytest.raises(FitnessError, match="^mask 10: ") as exc:
            evaluate_batch(["00", "01", "10", "11"], ev)
        assert exc.value.mask == "10"
        if form == "plain":  # no mask after the bad value is called
            assert ev.calls == ["00", "01", "10"]

    def test_fitness_error_from_a_batch_is_raised_as_it_is(self):
        class NamesItsMask(CountingEvaluator):
            def evaluate_many(self, masks):
                raise FitnessError("evaluator failed: bad column", mask="01")

        ev = NamesItsMask({"10": 0.5, "01": 0.25})
        with pytest.raises(FitnessError, match="^mask 01: evaluator failed: bad column$"):
            evaluate_batch(["10", "01"], ev)
        assert ev.calls == []  # no retry one mask at a time

    @pytest.mark.parametrize("returned", [[0.5], [0.5, 0.25, 0.75]])
    def test_batch_result_of_the_wrong_length_is_refused(self, returned):
        class WrongLength(CountingEvaluator):
            def evaluate_many(self, masks):
                return returned

        with pytest.raises(EvaluatorError, match=f"{len(returned)} result.* for 2 mask"):
            evaluate_batch(["10", "01"], WrongLength({"10": 0.5, "01": 0.25}))


class TestEvaluationCounts:
    def test_closed_form(self):
        assert predicted_total_evaluations(64, 12) == 384.0
        assert predicted_total_evaluations(64, 1) == 32.0

    def test_auc_all_zero(self):
        assert empirical_auc([0] * 5) == 0.0

    def test_auc_matches_linear_ramp(self):
        # Support counts following (m/K)*k integrate to ~ m*K/2.
        m, big_k = 64, 12
        auc = empirical_auc([round(m / big_k * k) for k in range(big_k + 1)])
        assert auc == pytest.approx(predicted_total_evaluations(m, big_k), abs=8)

    def test_auc_single_point_is_zero(self):
        assert empirical_auc([10]) == 0.0

    def test_empty_ledger_rejected(self):
        with pytest.raises(InsufficientDataError):
            empirical_auc([])
