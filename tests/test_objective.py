"""Objective, ledger, and evaluation-count tests."""

import numpy as np
import pytest

from qfselect.errors import FitnessError, InsufficientDataError
from qfselect.objective import (
    EvaluationLedger,
    empirical_auc,
    fitness,
    predicted_total_evaluations,
)
from qfselect.simulator import SampledDistribution


def dist(counts):
    return SampledDistribution(shots=sum(counts.values()), counts=dict(counts))


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

    def test_support_counter(self):
        ev = CountingEvaluator({"10": 0.5, "01": 0.25})
        ledger = EvaluationLedger()
        fitness(dist({"10": 3, "01": 1}), ev, ledger)
        fitness(dist({"10": 4}), ev, ledger)
        ledger.close_generation()
        assert ledger.per_generation_support == [3]
        assert ledger.per_generation_new == [2]

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

    def test_generation_counters_reset(self):
        ledger = EvaluationLedger()
        ledger.score(("1",), lambda m: 0.2)
        ledger.note_support(5)
        ledger.close_generation()
        ledger.score(("0",), lambda m: 0.4)
        ledger.score(("1",), lambda m: 0.2)  # cache hit, not a miss
        ledger.note_support(2)
        ledger.close_generation()
        assert ledger.per_generation_new == [1, 1]
        assert ledger.per_generation_support == [5, 2]
        assert sum(ledger.per_generation_new) == ledger.size

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
                return [self(m) for m in masks]

        ledger = EvaluationLedger()
        with pytest.raises(FitnessError) as exc:
            ledger.score(["10", "01"], Batched({"10": 0.5}))
        assert exc.value.mask == "01"
        assert ledger.cache == {"10": 0.5}

        with pytest.raises(FitnessError, match="outside") as exc:
            ledger.score(["11", "00"], Batched({"11": 0.5, "00": 1.5}))
        assert exc.value.mask == "00"
        assert "00" not in ledger.cache


class TestEvaluationCounts:
    def test_closed_form(self):
        assert predicted_total_evaluations(64, 12) == 384.0
        assert predicted_total_evaluations(64, 1) == 32.0

    def test_auc_all_zero(self):
        ledger = EvaluationLedger()
        for _ in range(5):
            ledger.close_generation()
        assert empirical_auc(ledger) == 0.0

    def test_auc_matches_linear_ramp(self):
        # Support counts following (m/K)*k integrate to ~ m*K/2.
        m, big_k = 64, 12
        ledger = EvaluationLedger()
        for k in range(big_k + 1):
            ledger.note_support(round(m / big_k * k))
            ledger.close_generation()
        auc = empirical_auc(ledger)
        assert auc == pytest.approx(predicted_total_evaluations(m, big_k), abs=8)

    def test_auc_single_point_is_zero(self):
        ledger = EvaluationLedger()
        ledger.note_support(10)
        ledger.close_generation()
        assert empirical_auc(ledger) == 0.0

    def test_empty_ledger_rejected(self):
        with pytest.raises(InsufficientDataError):
            empirical_auc(EvaluationLedger())
