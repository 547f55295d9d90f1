"""Exact statevector simulation for circuits of rotation gates.

Conventions:
- A state over n qubits is a complex ndarray of 2**n amplitudes.  Basis
  index j encodes bit i as ``(j >> i) & 1`` (little-endian); bit i is
  feature i, and bitstrings render x_0 leftmost (see masks.py).
- All gates follow the exp(-i*theta*P/2) convention, P a Pauli word.
- Gates mutate nothing: ``apply_gate`` returns a fresh array.

The gate basis is six rotations: RX, RY, RZ on one qubit and RXX, RYY,
RZZ on two.  All three two-qubit rotations are symmetric under operand
exchange, which the evolution loop's swap mutation relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidGateError, OracleLimitError
from .masks import index_to_mask

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class GateKind(Enum):
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    RXX = "rxx"
    RYY = "ryy"
    RZZ = "rzz"

    @property
    def n_qubits(self) -> int:
        return 1 if self in (GateKind.RX, GateKind.RY, GateKind.RZ) else 2


SINGLE_QUBIT_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ)
TWO_QUBIT_KINDS = (GateKind.RXX, GateKind.RYY, GateKind.RZZ)

_PAULI_1Q = {GateKind.RX: _X, GateKind.RY: _Y, GateKind.RZ: _Z}
_PAULI_2Q = {
    GateKind.RXX: np.kron(_X, _X),
    GateKind.RYY: np.kron(_Y, _Y),
    GateKind.RZZ: np.kron(_Z, _Z),
}


@dataclass(frozen=True)
class Gate:
    """One rotation gate; angle is kept unreduced (action is 2*pi-periodic)."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "angle", float(self.angle))
        if len(self.qubits) != self.kind.n_qubits:
            raise InvalidGateError(
                f"{self.kind.value} takes {self.kind.n_qubits} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError(f"duplicate qubit operands: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index: {self.qubits}")
        if not math.isfinite(self.angle):
            raise InvalidGateError(f"gate angle must be finite, got {self.angle}")

    def matrix(self) -> np.ndarray:
        """The 2x2 or 4x4 unitary exp(-i*angle*P/2)."""
        half = 0.5 * self.angle
        if self.kind.n_qubits == 1:
            pauli = _PAULI_1Q[self.kind]
            return math.cos(half) * np.eye(2) - 1j * math.sin(half) * pauli
        pauli = _PAULI_2Q[self.kind]
        return math.cos(half) * np.eye(4) - 1j * math.sin(half) * pauli


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over an n-qubit register; empty circuits are valid."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n < 1:
            raise InvalidGateError(f"need at least one qubit, got n={self.n}")
        for gate in self.gates:
            _check_gate(gate, self.n)


@dataclass(frozen=True)
class SampledDistribution:
    """Shot histogram over feature-mask bitstrings."""

    shots: int
    counts: dict[str, int]

    @property
    def n(self) -> int:
        return len(next(iter(self.counts)))

    def support_size(self) -> int:
        return len(self.counts)


def _check_gate(gate: Gate, n: int) -> None:
    if any(q >= n for q in gate.qubits):
        raise InvalidGateError(f"gate {gate.kind.value} on {gate.qubits} exceeds n={n}")


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate, updating amplitude pairs/quadruples in strides."""
    n = _qubit_count(state)
    _check_gate(gate, n)
    out = state.astype(complex, copy=True)
    m = gate.matrix()
    if gate.kind.n_qubits == 1:
        _apply_1q(out, m, gate.qubits[0])
    else:
        _apply_2q(out, m, gate.qubits[0], gate.qubits[1])
    return out


def _apply_1q(state: np.ndarray, m: np.ndarray, q: int) -> None:
    lo = 1 << q
    t = state.reshape(-1, 2, lo)
    a0 = t[:, 0, :].copy()
    a1 = t[:, 1, :].copy()
    t[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    t[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def _apply_2q(state: np.ndarray, m: np.ndarray, qa: int, qb: int) -> None:
    # m is indexed by k = 2*b_qb + b_qa; reshape splits bits at positions
    # p < r so axis 1 carries bit r and axis 3 carries bit p.
    p, r = min(qa, qb), max(qa, qb)
    lo, mid = 1 << p, 1 << (r - p - 1)
    t = state.reshape(-1, 2, mid, 2, lo)

    def k(br: int, bp: int) -> int:
        ba, bb = (bp, br) if qa == p else (br, bp)
        return 2 * bb + ba

    old = [[t[:, br, :, bp, :].copy() for bp in (0, 1)] for br in (0, 1)]
    for br in (0, 1):
        for bp in (0, 1):
            acc = 0
            for br2 in (0, 1):
                for bp2 in (0, 1):
                    acc = acc + m[k(br, bp), k(br2, bp2)] * old[br2][bp2]
            t[:, br, :, bp, :] = acc


def simulate(circuit: Circuit) -> np.ndarray:
    """Statevector of the circuit applied to |0...0>."""
    state = zero_state(circuit.n)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def sample(state: np.ndarray, shots: int, rng: np.random.Generator) -> SampledDistribution:
    """Draw ``shots`` i.i.d. measurements; counts keyed by mask bitstring."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = _qubit_count(state)
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    outcomes = rng.choice(len(state), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    return SampledDistribution(
        shots=shots,
        counts={index_to_mask(int(v), n): int(c) for v, c in zip(values, counts)},
    )


def quasi_probabilities(dist: SampledDistribution) -> dict[str, float]:
    """Empirical outcome frequencies count/shots; they sum to 1 exactly."""
    return {mask: count / dist.shots for mask, count in dist.counts.items()}


def depth(circuit: Circuit) -> int:
    """Wire-scheduling depth: gates on disjoint qubits share a layer."""
    layer = [0] * circuit.n
    top = 0
    for gate in circuit.gates:
        slot = 1 + max(layer[q] for q in gate.qubits)
        for q in gate.qubits:
            layer[q] = slot
        top = max(top, slot)
    return top


def dense_unitary(gate: Gate, n: int) -> np.ndarray:
    """Full 2**n x 2**n matrix of one gate; test oracle only (n <= 6)."""
    if n > 6:
        raise OracleLimitError(f"dense oracle capped at 6 qubits, got n={n}")
    _check_gate(gate, n)
    m = gate.matrix()
    if gate.kind.n_qubits == 1:
        q = gate.qubits[0]
        return np.kron(np.kron(np.eye(1 << (n - 1 - q)), m), np.eye(1 << q))
    # Two-qubit case: expand the Kronecker embedding entry by entry so
    # non-adjacent operand positions need no permutation matrices.
    qa, qb = gate.qubits
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    clear = ~((1 << qa) | (1 << qb))
    for j in range(dim):
        k_in = 2 * ((j >> qb) & 1) + ((j >> qa) & 1)
        base = j & clear
        for k_out in range(4):
            i = base | ((k_out & 1) << qa) | (((k_out >> 1) & 1) << qb)
            full[i, j] = m[k_out, k_in]
    return full


def _qubit_count(state: np.ndarray) -> int:
    n = int(np.log2(len(state)))
    if (1 << n) != len(state):
        raise ValueError(f"state length {len(state)} is not a power of two")
    return n
