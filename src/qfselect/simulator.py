"""Exact statevector simulation for circuits of rotation gates.

Conventions:
- A state over n qubits is a complex ndarray of 2**n amplitudes.  Basis
  index j encodes bit i as ``(j >> i) & 1`` (little-endian); bit i is
  feature i, and bitstrings render x_0 leftmost (see masks.py).
- All gates follow the exp(-i*theta*P/2) convention, P a Pauli word, so
  every gate is c*I - i*s*P with c = cos(theta/2), s = sin(theta/2).  A Z
  word phases each amplitude by the parity of its operand bits.  An X or
  Y word sets each amplitude to c times itself plus -i*s times the
  amplitude with its operand bits flipped, times the Pauli word's unit
  entry (1 for X, +-i for Y).  No 2x2 or 4x4 gate matrix is built; the
  tests hold that dense oracle.
- ``simulate`` updates one state in place, gate by gate, through one
  scratch buffer of the same size; ``apply_gate`` runs the same kernel on
  a copy and leaves its input unchanged.

The gate basis is six rotations: RX, RY, RZ on one qubit and RXX, RYY,
RZZ on two.  All three two-qubit rotations are symmetric under operand
exchange, which the evolution loop's swap mutation relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidGateError
from .masks import index_to_mask


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


def _check_gate(gate: Gate, n: int) -> None:
    if any(q >= n for q in gate.qubits):
        raise InvalidGateError(f"gate {gate.kind.value} on {gate.qubits} exceeds n={n}")


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


# Views and parity signs for a state reshaped to put each operand bit on
# an axis of length 2: (-1, 2, lo) for one qubit, (-1, 2, mid, 2, lo) for
# two.  The flip view reverses those axes; the sign is (-1)**(parity of
# the operand bits), shaped to broadcast against the reshaped state.
_FLIP_1Q = (slice(None), slice(None, None, -1))
_FLIP_2Q = _FLIP_1Q + _FLIP_1Q
_SIGN_1Q = np.array([1.0, -1.0])[:, None]
_SIGN_2Q = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, None, :, None]


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a copy of ``state``; the input is left unchanged."""
    _check_gate(gate, _qubit_count(state))
    out = state.astype(complex, copy=True)
    _apply_in_place(out, np.empty_like(out), gate)
    return out


def _apply_in_place(state: np.ndarray, buf: np.ndarray, gate: Gate) -> None:
    """Overwrite ``state`` with ``gate`` applied; ``buf`` is same-size scratch."""
    half = 0.5 * gate.angle
    c, s = math.cos(half), math.sin(half)
    if gate.kind.n_qubits == 1:
        q = gate.qubits[0]
        shape, flip, sign = (-1, 2, 1 << q), _FLIP_1Q, _SIGN_1Q
    else:
        p, r = sorted(gate.qubits)
        shape, flip, sign = (-1, 2, 1 << (r - p - 1), 2, 1 << p), _FLIP_2Q, _SIGN_2Q
    t = state.reshape(shape)
    if gate.kind in (GateKind.RZ, GateKind.RZZ):
        t *= c - 1j * s * sign
        return
    # -i*s times P's entry at (target, flipped target): 1 for an X word, the
    # product of -i*(-1)**b over the target's operand bits b for a Y word.
    if gate.kind in (GateKind.RX, GateKind.RXX):
        factor = -1j * s
    elif gate.kind is GateKind.RY:
        factor = -s * sign
    else:
        factor = 1j * s * sign
    np.multiply(t[flip], factor, out=buf.reshape(shape))
    state *= c
    state += buf


def simulate(circuit: Circuit) -> np.ndarray:
    """Statevector of the circuit applied to |0...0>, updated in place."""
    state = zero_state(circuit.n)
    buf = np.empty_like(state)
    for gate in circuit.gates:
        _apply_in_place(state, buf, gate)
    return state


def sample(state: np.ndarray, shots: int, rng: np.random.Generator) -> SampledDistribution:
    """Draw ``shots`` i.i.d. measurements; counts keyed by mask bitstring.

    Inverts the unnormalised CDF of |amplitude|**2 at ``rng.random(shots)``
    scaled by the total.  That consumes the same uniforms as
    ``rng.choice(2**n, size=shots, p=probs)`` and, but for a uniform that
    lands within rounding of a bin edge, draws the same outcomes.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = _qubit_count(state)
    cdf = np.abs(state)
    np.square(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    total = cdf[-1]
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"state norm must be finite and nonzero, got {total}")
    outcomes = cdf.searchsorted(rng.random(shots) * total, side="right")
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


def _qubit_count(state: np.ndarray) -> int:
    n = int(np.log2(len(state)))
    if (1 << n) != len(state):
        raise ValueError(f"state length {len(state)} is not a power of two")
    return n
