"""Mutation, selection, and full-loop evolution tests."""

import math

import numpy as np
import pytest

from qfselect import evolution
from qfselect.classifier import EvaluatorSpec, make_evaluator
from qfselect.dataset import load_csv, stratified_split, wine_csv_path
from qfselect.evolution import (
    EvolutionConfig,
    Individual,
    MutationConfig,
    evolve,
    mutate,
    select,
)
from qfselect.records import dumps_canonical
from qfselect.simulator import Circuit, Gate, GateKind, depth, sample, simulate


def ones_fraction(mask):
    return mask.count("1") / len(mask)


def classify_mutation(parent: Circuit, child: Circuit) -> str:
    """Name the single mutation that maps parent to child."""
    if len(child.gates) == len(parent.gates) + 1:
        return "insert"
    if len(child.gates) == len(parent.gates) - 1:
        return "delete"
    diffs = [
        (old, new) for old, new in zip(parent.gates, child.gates) if old != new
    ]
    assert len(diffs) == 1, "exactly one gate must change"
    old, new = diffs[0]
    if old.qubits != new.qubits:
        assert new.qubits == old.qubits[::-1]
        assert (old.kind, old.angle) == (new.kind, new.angle)
        return "swap"
    assert (old.kind, old.qubits) == (new.kind, new.qubits)
    return "modify"


def mixed_circuit(n=3):
    return Circuit(
        n,
        (
            Gate(GateKind.RX, (0,), 0.3),
            Gate(GateKind.RXX, (0, 1), 1.1),
            Gate(GateKind.RY, (2,), 2.2),
            Gate(GateKind.RZZ, (1, 2), 0.7),
        ),
    )


class TestMutationConfig:
    def test_defaults(self):
        config = MutationConfig()
        assert config.probabilities == (0.5, 0.3, 0.1, 0.1)
        assert config.sigma_modify == pytest.approx(math.pi / 10)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MutationConfig(p_insert=0.5, p_modify=0.5, p_delete=0.5, p_swap=0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MutationConfig(p_insert=1.2, p_modify=-0.2, p_delete=0.0, p_swap=0.0)
        with pytest.raises(ValueError, match="sigma"):
            MutationConfig(sigma_modify=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_must_be_finite(self, sigma):
        # If accepted, an infinite step fails only mid-run, as a non-finite gate angle.
        with pytest.raises(ValueError, match="sigma"):
            MutationConfig(sigma_modify=sigma)

    @pytest.mark.parametrize(
        "name", ["p_insert", "p_modify", "p_delete", "p_swap", "sigma_modify"]
    )
    @pytest.mark.parametrize("value", [True, False, "0.5", None, 1j, [0.5]])
    def test_field_must_be_a_real_number(self, name, value):
        # A bool would be written into a record's config as true or false.
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            MutationConfig(**{name: value})

    def test_int_probabilities_kept_as_given(self):
        config = MutationConfig(p_insert=1, p_modify=0, p_delete=0, p_swap=0, sigma_modify=2)
        assert config.probabilities == (1, 0, 0, 0)
        assert all(type(p) is int for p in config.probabilities)
        assert type(config.sigma_modify) is int


class TestMutate:
    def test_exactly_one_mutation(self):
        rng = np.random.default_rng(0)
        parent = mixed_circuit()
        for _ in range(300):
            child = mutate(parent, rng, MutationConfig())
            assert abs(len(child.gates) - len(parent.gates)) <= 1
            classify_mutation(parent, child)  # raises unless a single clean diff
            assert child.n == parent.n
            for gate in child.gates:
                assert all(q < child.n for q in gate.qubits)

    def test_parent_untouched(self):
        parent = mixed_circuit()
        before = parent.gates
        mutate(parent, np.random.default_rng(1), MutationConfig())
        assert parent.gates == before

    def test_empty_circuit_falls_back_to_insert(self):
        only_delete = MutationConfig(p_insert=0.0, p_modify=0.0, p_delete=1.0, p_swap=0.0)
        child = mutate(Circuit(3, ()), np.random.default_rng(2), only_delete)
        assert len(child.gates) == 1

    def test_swap_without_two_qubit_gate_falls_back(self):
        only_swap = MutationConfig(p_insert=0.0, p_modify=0.0, p_delete=0.0, p_swap=1.0)
        parent = Circuit(3, (Gate(GateKind.RX, (0,), 0.5),))
        child = mutate(parent, np.random.default_rng(3), only_swap)
        assert len(child.gates) == 2  # fallback inserted instead

    def test_modify_touches_only_the_angle(self):
        only_modify = MutationConfig(p_insert=0.0, p_modify=1.0, p_delete=0.0, p_swap=0.0)
        parent = Circuit(2, (Gate(GateKind.RX, (0,), 0.3),))
        child = mutate(parent, np.random.default_rng(4), only_modify)
        gate = child.gates[0]
        assert (gate.kind, gate.qubits) == (GateKind.RX, (0,))
        assert gate.angle != 0.3

    def test_swap_reverses_operands(self):
        only_swap = MutationConfig(p_insert=0.0, p_modify=0.0, p_delete=0.0, p_swap=1.0)
        parent = Circuit(3, (Gate(GateKind.RXX, (0, 2), 1.0),))
        child = mutate(parent, np.random.default_rng(5), only_swap)
        assert child.gates[0].qubits == (2, 0)
        np.testing.assert_allclose(
            simulate(child).dense(), simulate(parent).dense(), atol=1e-10
        )

    def test_single_qubit_system_only_draws_single_qubit_gates(self):
        rng = np.random.default_rng(6)
        circuit = Circuit(1, ())
        for _ in range(60):
            circuit = mutate(circuit, rng, MutationConfig())
            assert all(g.kind.n_qubits == 1 for g in circuit.gates)

    def test_kind_frequencies_match_probabilities(self):
        rng = np.random.default_rng(7)
        parent = mixed_circuit()
        counts = {kind: 0 for kind in ("insert", "modify", "delete", "swap")}
        trials = 10_000
        for _ in range(trials):
            counts[classify_mutation(parent, mutate(parent, rng, MutationConfig()))] += 1
        for kind, expected in zip(
            ("insert", "modify", "delete", "swap"), (0.5, 0.3, 0.1, 0.1)
        ):
            assert abs(counts[kind] / trials - expected) <= 0.02

    @pytest.mark.parametrize(
        "config",
        [
            MutationConfig(),
            MutationConfig(p_insert=0.6, p_modify=0.0, p_delete=0.3, p_swap=0.1),
            # Sums to 1 - 2**-53 in floats, so the normalization matters.
            MutationConfig(p_insert=0.7, p_modify=0.1, p_delete=0.1, p_swap=0.1),
        ],
        ids=["default", "zero-modify", "inexact-sum"],
    )
    def test_kind_draw_is_the_draw_of_rng_choice(self, config):
        # Records depend on both the kind drawn and the stream left behind.
        for seed in range(2000):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                expected = evolution.MUTATION_KINDS[theirs.choice(4, p=config.probabilities)]
                assert evolution._mutation_kind(ours, config) == expected
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_depth_grows_by_at_most_one(self):
        rng = np.random.default_rng(10)
        parent = mixed_circuit()
        for _ in range(20):
            assert depth(mutate(parent, rng, MutationConfig())) <= depth(parent) + 1


def make_individual(fitness, n=2):
    circuit = Circuit(n, ())
    dist = None  # selection never looks at the distribution
    return Individual(circuit=circuit, fitness=fitness, distribution=dist)


class TestSelect:
    def test_takes_the_best(self):
        parents = [make_individual(0.9)]
        offspring = [make_individual(0.8), make_individual(0.95)]
        chosen = select(parents, offspring, mu=1)
        assert [c.fitness for c in chosen] == [0.95]

    def test_tie_prefers_parent(self):
        parent = make_individual(0.9)
        child = make_individual(0.9)
        assert select([parent], [child], mu=1)[0] is parent

    def test_tie_within_generation_prefers_insertion_order(self):
        first = make_individual(0.7)
        second = make_individual(0.7)
        chosen = select([], [first, second], mu=1)
        assert chosen[0] is first

    def test_best_of_seven(self):
        parents = [make_individual(0.5)]
        offspring = [make_individual(f) for f in (0.3, 0.8, 0.6, 0.9, 0.1, 0.7)]
        chosen = select(parents, offspring, mu=6)
        assert [c.fitness for c in chosen] == [0.9, 0.8, 0.7, 0.6, 0.5, 0.3]


class TestEvolve:
    def test_generation_count_and_monotonicity(self):
        config = EvolutionConfig(n=4, generations=8, shots=32, seed=11)
        record = evolve(config, ones_fraction)
        assert len(record.generations) == config.generations + 1
        best = [e.best_accuracy for e in record.generations]
        assert best == sorted(best)
        fits = [e.best_fitness for e in record.generations]
        assert fits == sorted(fits)

    def test_elitism_over_random_seeds(self):
        for seed in range(10):
            config = EvolutionConfig(n=3, generations=6, shots=16, seed=seed)
            record = evolve(config, ones_fraction)
            fits = [e.best_fitness for e in record.generations]
            assert all(b >= a for a, b in zip(fits, fits[1:]))

    def test_generation_zero_is_empty_circuit(self):
        config = EvolutionConfig(n=5, generations=1, shots=8, seed=0)
        record = evolve(config, ones_fraction)
        gen0 = record.generations[0]
        assert gen0.parent_depth == 0
        assert gen0.best_mask == "00000"
        assert gen0.support == 1
        assert gen0.new_evaluations == 1

    def test_depth_bounded_by_generation(self):
        config = EvolutionConfig(n=4, generations=10, shots=16, seed=13)
        record = evolve(config, ones_fraction)
        for entry in record.generations:
            assert entry.parent_depth <= entry.generation

    def test_deterministic_records(self):
        config = EvolutionConfig(n=4, generations=6, shots=32, seed=21)
        a = evolve(config, ones_fraction)
        b = evolve(config, ones_fraction)
        assert a == b

    def test_batched_and_per_mask_scoring_write_identical_records(self):
        # A plain callable has no evaluate_many, so evaluate_batch calls it
        # one mask at a time.
        split = stratified_split(load_csv(wine_csv_path(), "class"), 0.2, seed=21)
        ev = make_evaluator(EvaluatorSpec(), split)
        config = EvolutionConfig(n=13, generations=6, shots=64, seed=21)
        batched = dumps_canonical(evolve(config, ev))
        per_mask = dumps_canonical(evolve(config, lambda mask: ev(mask)))
        assert batched == per_mask

    def test_different_seeds_differ(self):
        base = EvolutionConfig(n=4, generations=6, shots=32, seed=21)
        other = EvolutionConfig(n=4, generations=6, shots=32, seed=22)
        assert evolve(base, ones_fraction) != evolve(other, ones_fraction)

    def test_support_bound(self):
        config = EvolutionConfig(n=4, generations=8, shots=16, seed=5, lambda_=4)
        record = evolve(config, ones_fraction)
        for entry in record.generations[1:]:
            assert entry.support <= config.lambda_ * config.shots

    def test_final_distribution_consistent(self):
        config = EvolutionConfig(n=4, generations=6, shots=32, seed=2)
        record = evolve(config, ones_fraction)
        probs = [row.probability for row in record.final_distribution]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert probs == sorted(probs, reverse=True)
        for row in record.final_distribution:
            assert row.accuracy == ones_fraction(row.mask)

    def test_mu_two_keeps_two_parents(self):
        config = EvolutionConfig(n=3, mu=2, lambda_=4, generations=4, shots=16, seed=3)
        record = evolve(config, ones_fraction)
        assert len(record.generations[-1].parent_fitness) == 2
        fits = record.generations[-1].parent_fitness
        assert fits == sorted(fits, reverse=True)

    def test_counts_are_logged_from_what_each_generation_sampled(self, monkeypatch):
        supports = []

        def recording_sample(state, shots, rng):
            dist = sample(state, shots, rng)
            supports.append(len(dist.counts))
            return dist

        class BatchEvaluator:
            def __init__(self):
                self.batches = []

            def __call__(self, mask):
                return ones_fraction(mask)

            def evaluate_many(self, masks):
                self.batches.append(len(masks))
                return [ones_fraction(m) for m in masks]

        monkeypatch.setattr(evolution, "sample", recording_sample)
        config = EvolutionConfig(n=5, lambda_=4, generations=6, shots=16, seed=8)
        ev = BatchEvaluator()
        record = evolve(config, ev)
        lam = config.lambda_
        per_generation = [supports[:1]] + [
            supports[1 + (g - 1) * lam : 1 + g * lam] for g in range(1, config.generations + 1)
        ]
        assert len(supports) == 1 + config.generations * lam
        assert [e.support for e in record.generations] == [sum(s) for s in per_generation]
        new = [e.new_evaluations for e in record.generations]
        assert [k for k in new if k] == ev.batches
        assert sum(new) == record.totals.cache_size

    def test_one_evaluator_call_per_generation_with_misses(self, monkeypatch):
        sampled = []

        def recording_sample(state, shots, rng):
            sampled.append(sample(state, shots, rng))
            return sampled[-1]

        class BatchesOnly:
            def __init__(self):
                self.batches = []

            def __call__(self, mask):
                raise AssertionError("a batch evaluator is called through evaluate_many")

            def evaluate_many(self, masks):
                self.batches.append(list(masks))
                return [ones_fraction(m) for m in masks]

        monkeypatch.setattr(evolution, "sample", recording_sample)
        config = EvolutionConfig(n=2, lambda_=3, generations=8, shots=8, seed=4)
        ev = BatchesOnly()
        record = evolve(config, ev)
        lam = config.lambda_
        seen, misses = set(), []
        for g in range(config.generations + 1):
            dists = sampled[:1] if g == 0 else sampled[1 + (g - 1) * lam : 1 + g * lam]
            first_seen = dict.fromkeys(mask for d in dists for mask in d.counts)
            misses.append([mask for mask in first_seen if mask not in seen])
            seen.update(first_seen)
        assert any(not m for m in misses)  # some generation has nothing to score
        assert any(len(m) > 1 for m in misses)
        assert ev.batches == [m for m in misses if m]
        assert [e.new_evaluations for e in record.generations] == [len(m) for m in misses]

        # A plain callable is called once per miss, in the same order.
        calls = []

        def plain(mask):
            calls.append(mask)
            return ones_fraction(mask)

        sampled.clear()
        assert evolve(config, plain) == record
        assert calls == [mask for m in misses for mask in m]

    @pytest.mark.parametrize("seed", range(6))
    def test_best_mask_is_the_first_maximum_scored_so_far(self, seed):
        # A table of few distinct values, so that equal maxima are common.
        rng = np.random.default_rng(seed)
        table = {
            format(i, "04b"): float(rng.choice([0.25, 0.5, 0.75, 1.0], p=[0.4, 0.3, 0.2, 0.1]))
            for i in range(16)
        }

        class Recording:
            def __init__(self):
                self.batches = []

            def evaluate_many(self, masks):
                self.batches.append(list(masks))
                return [table[m] for m in masks]

        ev = Recording()
        record = evolve(EvolutionConfig(n=4, lambda_=4, generations=8, shots=8, seed=seed), ev)
        batches = iter(ev.batches)
        scored = []
        for entry in record.generations:
            if entry.new_evaluations:
                scored += next(batches)
            accuracies = [table[m] for m in scored]
            first = scored[accuracies.index(max(accuracies))]
            assert (entry.best_mask, entry.best_accuracy) == (first, table[first])
        assert next(batches, None) is None
        assert len(scored) == len(set(scored)) == record.totals.cache_size

    def test_totals(self):
        config = EvolutionConfig(n=4, generations=6, shots=32, seed=2)
        record = evolve(config, ones_fraction)
        assert record.totals.predicted_evaluations == 96.0
        assert record.totals.cache_size == sum(
            e.new_evaluations for e in record.generations
        )
        assert record.totals.empirical_auc >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=0)
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, shots=0)
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, generations=0)
        with pytest.raises(ValueError):
            EvolutionConfig(n=3, seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 3.0),
            ("mu", True),
            ("lambda_", 6.0),
            ("generations", 2.0),
            ("shots", 8.5),
            ("seed", 1.5),
            ("seed", False),
        ]
        + [
            (name, value)
            for name in ("n", "mu", "lambda_", "generations", "shots", "seed")
            for value in (None, "3")
        ]
        + [(name, True) for name in ("n", "lambda_", "generations", "shots")],
    )
    def test_config_refuses_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EvolutionConfig(**{"n": 3, field: value})

    @pytest.mark.parametrize("value", [None, {}, "default"])
    def test_config_refuses_a_mutation_that_is_not_a_mutation_config(self, value):
        with pytest.raises(ValueError, match="mutation must be a MutationConfig"):
            EvolutionConfig(n=3, mutation=value)
