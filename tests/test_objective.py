"""Objective, ledger, and evaluation-count tests."""

import numpy as np
import pytest

from qfselect.errors import EvaluatorError, FitnessError, InsufficientDataError
from qfselect.objective import (
    EvaluationLedger,
    empirical_auc,
    evaluate_batch,
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
        ev = CountingEvaluator({"111": 0.888})
        ledger = EvaluationLedger()
        assert fitness(dist({"111": 64}), ev, ledger) == pytest.approx(0.888)

    def test_weighted_mean(self):
        ev = CountingEvaluator({"10": 0.8, "01": 0.6})
        ledger = EvaluationLedger()
        value = fitness(dist({"10": 32, "01": 32}), ev, ledger)
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
            ledger = EvaluationLedger()
            got = fitness(dist(counts), CountingEvaluator(table), ledger)
            want = sum(counts[m] / shots * table[m] for m in masks)
            assert abs(got - want) <= 1e-12
            lo, hi = min(table.values()), max(table.values())
            assert lo - 1e-12 <= got <= hi + 1e-12

    def test_cache_hit_purity(self):
        ev = CountingEvaluator({"10": 0.5, "01": 0.25, "11": 0.75})
        ledger = EvaluationLedger()
        fitness(dist({"10": 3, "01": 1}), ev, ledger)
        assert ledger.size == 2
        fitness(dist({"10": 2, "11": 2}), ev, ledger)
        assert ledger.size == 3
        # Each mask hit the evaluator exactly once.
        assert sorted(ev.calls) == ["01", "10", "11"]

    def test_evaluator_failure_carries_mask(self):
        def boom(mask):
            raise RuntimeError("disk on fire")

        ledger = EvaluationLedger()
        with pytest.raises(FitnessError) as exc:
            fitness(dist({"110": 4}), boom, ledger)
        assert exc.value.mask == "110"
        assert ledger.size == 0

    def test_out_of_range_accuracy_rejected(self):
        ledger = EvaluationLedger()
        with pytest.raises(FitnessError, match="outside"):
            fitness(dist({"1": 4}), lambda mask: 1.2, ledger)


class TestLedger:
    def test_best_tracking_prefers_first_on_tie(self):
        ledger = EvaluationLedger()
        ledger.score(("10",), lambda m: 0.5)
        ledger.score(("01",), lambda m: 0.9)
        ledger.score(("11",), lambda m: 0.9)
        assert ledger.best_mask == "01"
        assert ledger.best_accuracy == 0.9

    def test_failed_evaluation_not_cached(self):
        ledger = EvaluationLedger()
        attempts = []

        def flaky(mask):
            attempts.append(mask)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return 0.5

        with pytest.raises(FitnessError):
            ledger.score(("10",), flaky)
        assert ledger.score(("10",), flaky)[0] == 0.5
        assert len(attempts) == 2

    def test_batch_scoring_evaluates_each_miss_once_in_first_seen_order(self):
        ledger = EvaluationLedger()
        ledger.score(("00",), lambda m: 0.1)
        ev = CountingEvaluator({"11": 0.5, "10": 0.75, "01": 0.75})
        got = ledger.score(["11", "00", "10", "11", "01", "10"], ev)
        assert got == [0.5, 0.1, 0.75, 0.5, 0.75, 0.75]
        assert ev.calls == ["11", "10", "01"]
        assert list(ledger.cache) == ["00", "11", "10", "01"]
        assert ledger.best_mask == "10"

        def fails_on_01(mask):
            if mask == "01":
                raise RuntimeError("bad column")
            return 0.25

        ledger = EvaluationLedger()
        with pytest.raises(FitnessError) as exc:
            ledger.score(["10", "01", "11"], fails_on_01)
        assert exc.value.mask == "01"
        assert ledger.cache == {"10": 0.25}

    def test_batch_evaluator_gets_all_misses_in_one_call(self):
        class Batched(CountingEvaluator):
            def evaluate_many(self, masks):
                self.calls.append(list(masks))
                return [self.table[m] for m in masks]

        ledger = EvaluationLedger()
        ledger.score(("00",), lambda m: 0.1)
        ev = Batched({"11": 0.5, "10": 0.75, "01": 0.75})
        assert ledger.score(["11", "00", "10", "11", "01"], ev) == [0.5, 0.1, 0.75, 0.5, 0.75]
        assert ev.calls == [["11", "10", "01"]]
        assert ledger.best_mask == "10"
        assert ledger.score(["01", "11"], ev) == [0.75, 0.5]
        assert len(ev.calls) == 1

    def test_failed_batch_names_the_failing_mask(self):
        class Batched(CountingEvaluator):
            def evaluate_many(self, masks):
                return [self.table[m] for m in masks]

        # A batch that fails with anything but a FitnessError is one failed
        # call: it is not scored again one mask at a time to name a mask.
        ledger = EvaluationLedger()
        ev = Batched({"10": 0.5})
        with pytest.raises(EvaluatorError, match="^evaluate_many failed on a batch of 2 mask") as exc:
            ledger.score(["10", "01"], ev)
        assert not isinstance(exc.value, FitnessError)
        assert isinstance(exc.value.__cause__, KeyError)
        assert ledger.size == 0
        assert ev.calls == []

        with pytest.raises(FitnessError, match="outside") as exc:
            ledger.score(["11", "00"], Batched({"11": 0.5, "00": 1.5}))
        assert exc.value.mask == "00"
        assert "00" not in ledger.cache

    @pytest.mark.parametrize(
        "bad, form",
        [pytest.param(bad, "evaluate_many", id=str(bad)) for bad in BAD_VALUES]
        + [pytest.param(bad, "plain", id=f"{bad}-plain") for bad in BAD_VALUES],
    )
    def test_a_bad_value_in_a_batch_caches_the_masks_before_it(self, bad, form):
        values = {"00": 0.25, "01": 0.75, "10": bad, "11": 0.5}

        class Returns(CountingEvaluator):
            def evaluate_many(self, masks):
                return [0.25, 0.75, bad, 0.5]

        def make():  # the same four values, in mask order, either way
            return Returns({}) if form == "evaluate_many" else CountingEvaluator(values)

        ledger = EvaluationLedger()
        with pytest.raises(FitnessError) as exc:
            ledger.score(["00", "01", "10", "11"], make())
        assert exc.value.mask == "10"
        assert ledger.cache == {"00": 0.25, "01": 0.75}
        assert (ledger.best_mask, ledger.best_accuracy) == ("01", 0.75)
        # The same check without a ledger, as the oracle sweep makes it.
        accuracies = []
        with pytest.raises(FitnessError, match="^mask 10: "):
            evaluate_batch(["00", "01", "10", "11"], make(), accuracies)
        assert accuracies == [0.25, 0.75]

    def test_a_tie_within_a_batch_goes_to_the_first_seen_mask(self):
        class Batched(CountingEvaluator):
            def evaluate_many(self, masks):
                return [self.table[m] for m in masks]

        ledger = EvaluationLedger()
        ledger.score(["000"], lambda m: 0.5)
        ev = Batched({"011": 0.9, "100": 0.25, "110": 0.9, "111": 0.9})
        assert ledger.score(["100", "011", "110"], ev) == [0.25, 0.9, 0.9]
        assert (ledger.best_mask, ledger.best_accuracy) == ("011", 0.9)
        ledger.score(["111"], ev)
        assert ledger.best_mask == "011"

    def test_fitness_error_from_a_batch_is_raised_as_it_is(self):
        class NamesItsMask(CountingEvaluator):
            def evaluate_many(self, masks):
                raise FitnessError("evaluator failed: bad column", mask="01")

        ledger = EvaluationLedger()
        ev = NamesItsMask({"10": 0.5, "01": 0.25})
        with pytest.raises(FitnessError, match="^mask 01: evaluator failed: bad column$"):
            ledger.score(["10", "01"], ev)
        assert ev.calls == []  # no retry one mask at a time
        assert ledger.size == 0

    @pytest.mark.parametrize("returned", [[0.5], [0.5, 0.25, 0.75]])
    def test_batch_result_of_the_wrong_length_is_refused(self, returned):
        class WrongLength(CountingEvaluator):
            def evaluate_many(self, masks):
                return returned

        ledger = EvaluationLedger()
        with pytest.raises(EvaluatorError, match=f"{len(returned)} result.* for 2 mask"):
            ledger.score(["10", "01"], WrongLength({"10": 0.5, "01": 0.25}))
        assert ledger.size == 0


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
