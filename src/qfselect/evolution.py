"""Elitist (mu + lambda) evolution of feature-sampling circuits.

Each generation clones the parents, applies exactly one mutation per
clone, samples every clone's output distribution, scores it through the
shared evaluation ledger, and keeps the best mu individuals.  Fitness is
frozen at evaluation time and never resampled, which makes the best
fitness literally monotone.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .objective import EvaluationLedger, Evaluator, empirical_auc, fitness, predicted_total_evaluations
from .records import DistributionRow, GenerationEntry, RunRecord, RunTotals
from .simulator import (
    Circuit,
    Gate,
    GateKind,
    SINGLE_QUBIT_KINDS,
    SampledDistribution,
    depth,
    quasi_probabilities,
    sample,
    simulate,
)

MUTATION_KINDS = ("insert", "modify", "delete", "swap")
_GATE_KINDS = tuple(GateKind)


@dataclass(frozen=True)
class MutationConfig:
    """Categorical mutation-kind probabilities and the angle-step scale."""

    p_insert: float = 0.5
    p_modify: float = 0.3
    p_delete: float = 0.1
    p_swap: float = 0.1
    sigma_modify: float = math.pi / 10

    def __post_init__(self) -> None:
        for name in ("p_insert", "p_modify", "p_delete", "p_swap", "sigma_modify"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        probs = (self.p_insert, self.p_modify, self.p_delete, self.p_swap)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"mutation probabilities must lie in [0, 1], got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"mutation probabilities must sum to 1, got {sum(probs)!r}")
        if not (math.isfinite(self.sigma_modify) and self.sigma_modify > 0):
            raise ValueError(
                f"sigma_modify must be positive and finite, got {self.sigma_modify}"
            )

    @property
    def probabilities(self) -> tuple[float, float, float, float]:
        return (self.p_insert, self.p_modify, self.p_delete, self.p_swap)


@dataclass(frozen=True)
class EvolutionConfig:
    """Full run description; the seed pins every random draw."""

    n: int
    mu: int = 1
    lambda_: int = 6
    generations: int = 12
    shots: int = 64
    seed: int = 0
    mutation: MutationConfig = field(default_factory=MutationConfig)

    def __post_init__(self) -> None:
        for name in ("n", "mu", "lambda_", "generations", "shots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("mu", "lambda_", "generations", "shots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.mutation, MutationConfig):
            raise ValueError(f"mutation must be a MutationConfig, got {self.mutation!r}")

    def to_dict(self) -> dict:
        """Fields in declaration order, `lambda_` written as "lambda"."""
        return {name.rstrip("_"): value for name, value in asdict(self).items()}


@dataclass(frozen=True)
class Individual:
    """A circuit with its frozen score and provenance."""

    circuit: Circuit
    fitness: float
    distribution: SampledDistribution
    birth_generation: int


def _mutation_kind(rng: np.random.Generator, mutation: MutationConfig) -> str:
    """The kind `rng.choice(4, p=mutation.probabilities)` draws, by its method.

    That call searches one uniform (side "right") in the cumulative sum of
    the probabilities divided by its last entry; this is the same draw from
    the same stream, without the call's checks, at about a fifth of the cost.
    """
    cumulative = list(itertools.accumulate(map(float, mutation.probabilities)))
    cumulative = [c / cumulative[-1] for c in cumulative]
    return MUTATION_KINDS[bisect.bisect_right(cumulative, rng.random())]


def mutate(circuit: Circuit, rng: np.random.Generator, mutation: MutationConfig) -> Circuit:
    """Apply exactly one mutation; inapplicable draws fall back to insert."""
    kind = _mutation_kind(rng, mutation)
    gates = list(circuit.gates)
    if kind == "swap":
        two_qubit_at = [i for i, g in enumerate(gates) if len(g.qubits) == 2]
        if not two_qubit_at:
            kind = "insert"
    elif kind in ("modify", "delete") and not gates:
        kind = "insert"

    if kind == "insert":
        # On a single qubit only the single-qubit rotations are drawable.
        kinds = _GATE_KINDS if circuit.n >= 2 else SINGLE_QUBIT_KINDS
        gate_kind = kinds[int(rng.integers(len(kinds)))]
        qubits = tuple(
            int(q) for q in rng.choice(circuit.n, size=gate_kind.n_qubits, replace=False)
        )
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        position = int(rng.integers(len(gates) + 1))
        gates.insert(position, Gate(gate_kind, qubits, angle))
    elif kind == "modify":
        index = int(rng.integers(len(gates)))
        old = gates[index]
        step = float(rng.normal(0.0, mutation.sigma_modify))
        gates[index] = Gate(old.kind, old.qubits, old.angle + step)
    elif kind == "delete":
        del gates[int(rng.integers(len(gates)))]
    else:  # swap operands of one two-qubit gate
        index = two_qubit_at[int(rng.integers(len(two_qubit_at)))]
        old = gates[index]
        gates[index] = Gate(old.kind, (old.qubits[1], old.qubits[0]), old.angle)
    return Circuit(circuit.n, tuple(gates))


def select(parents: list[Individual], offspring: list[Individual], mu: int) -> list[Individual]:
    """The mu fittest of parents + offspring, descending.

    Ties prefer the earlier birth generation, then the earlier position in
    the concatenated pool, so an equally fit parent always outranks its
    offspring.
    """
    pool = list(parents) + list(offspring)
    ranked = sorted(
        range(len(pool)),
        key=lambda i: (-pool[i].fitness, pool[i].birth_generation, i),
    )
    return [pool[i] for i in ranked[:mu]]


def evolve(config: EvolutionConfig, evaluator: Evaluator) -> RunRecord:
    """Run the full loop and return the per-generation record.

    Generation 0 is a single empty circuit (all probability mass on the
    all-zero mask), sampled from the (seed, 0) stream.  Each later
    generation derives one random substream per offspring from (seed,
    generation), used first for the mutation draws and then for the
    measurement shots, so results do not depend on evaluation order.  Every
    generation samples all its circuits before any is scored, sends their
    masks to the ledger as one batch, and is logged from what it sampled.
    """
    ledger = EvaluationLedger()
    entries: list[GenerationEntry] = []
    parents: list[Individual] = []

    for generation in range(config.generations + 1):
        sampled: list[tuple[Circuit, SampledDistribution]] = []
        if generation == 0:
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
            empty = Circuit(config.n, ())
            sampled.append((empty, sample(simulate(empty), config.shots, rng)))
        else:
            # The children SeedSequence((seed, generation)).spawn() would give,
            # built directly and all before the first is used: built one by
            # one between the mutations, they made a run about 2% slower.
            streams = [
                np.random.SeedSequence((config.seed, generation), spawn_key=(i,))
                for i in range(config.lambda_)
            ]
            for i in range(config.lambda_):
                rng = np.random.default_rng(streams[i])
                parent = parents[i % len(parents)]
                circuit = mutate(parent.circuit, rng, config.mutation)
                sampled.append((circuit, sample(simulate(circuit), config.shots, rng)))
        # One evaluator call for the whole generation's cache misses, in the
        # order a child-by-child pass would have met them.
        cached = ledger.size
        ledger.score((mask for _, dist in sampled for mask in dist.counts), evaluator)
        children = [
            Individual(circuit, fitness(dist, evaluator, ledger), dist, generation)
            for circuit, dist in sampled
        ]
        parents = select(parents, children, config.mu)
        entries.append(
            GenerationEntry(
                generation=generation,
                best_fitness=parents[0].fitness,
                parent_fitness=[p.fitness for p in parents],
                support=sum(len(dist.counts) for _, dist in sampled),
                new_evaluations=ledger.size - cached,
                best_mask=ledger.best_mask,
                best_accuracy=ledger.best_accuracy,
                parent_depth=depth(parents[0].circuit),
            )
        )

    cache = ledger.cache
    final = [
        DistributionRow(mask, prob, cache[mask])
        for mask, prob in sorted(
            quasi_probabilities(parents[0].distribution).items(),
            key=lambda item: (-item[1], item[0]),
        )
    ]
    return RunRecord(
        config=config.to_dict(),
        generations=entries,
        final_distribution=final,
        totals=RunTotals(
            cache_size=ledger.size,
            empirical_auc=empirical_auc([e.support for e in entries]),
            predicted_evaluations=predicted_total_evaluations(config.shots, config.generations),
        ),
    )
