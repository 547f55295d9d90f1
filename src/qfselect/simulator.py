"""Exact simulation of circuits of rotation gates on the support of their state.

Conventions:
- A state over n qubits has 2**n amplitudes.  Basis index j encodes bit i
  as ``(j >> i) & 1`` (little-endian); bit i is feature i, and bitstrings
  render x_0 leftmost (see masks.py).
- All gates follow the exp(-i*theta*P/2) convention, P a Pauli word, so
  every gate is c*I - i*s*P with c = cos(theta/2), s = sin(theta/2).  A Z
  word phases each amplitude by the parity of its operand bits.  An X or
  Y word sets each amplitude to c times itself plus -i*s times the
  amplitude with its operand bits flipped, times the Pauli word's unit
  entry (1 for X, +-i for Y).  No 2x2 or 4x4 gate matrix is built; the
  tests hold that dense oracle.

The support of a circuit's state: it starts at |0...0>, Z words only
change phases, and an X or Y word with operand mask m mixes index j with
j ^ m.  So every nonzero amplitude lies in the GF(2) span of the
circuit's X/Y operand masks, of dimension d <= n.  ``simulate`` holds
only those 2**d amplitudes (a ``SupportState``), over a reduced echelon
basis of the span.  Three facts make one kernel serve every d:
- position k holds index(k) = XOR of basis[i] over the set bits i of k,
  and that map is strictly increasing, so the CDF of |amplitude|**2 over
  positions is the dense CDF without its zeros;
- a mask m in the span has m's bit at basis[i]'s leading bit as its i-th
  coordinate, at most two of them set, so the partner of position k is
  k ^ coordinates(m): a reversed-axis view, as on a dense state;
- the parity of index(k) & m is the parity of k & T, where bit i of T is
  the parity of basis[i] & m.
At d = n the basis is the unit vectors and the kernel is the dense one.
``SupportState.dense()`` scatters the amplitudes into a 2**n vector.

Sizes: n is at most MAX_QUBITS = 62 (indices are int64), and no state
array holds more than 2**MAX_DIMENSION = 2**24 amplitudes (256 MiB).  A
circuit past either cap raises StateSizeError before anything of that
size is allocated; ``dense()`` is capped at n <= 24 accordingly.

The gate basis is six rotations: RX, RY, RZ on one qubit and RXX, RYY,
RZZ on two.  All three two-qubit rotations are symmetric under operand
exchange, which the evolution loop's swap mutation relies on.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidGateError, StateSizeError
from .masks import index_to_mask
from .records import has_type


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

# Basis indices are int64, and no state array holds more than
# 2**MAX_DIMENSION amplitudes (256 MiB of complex128).
MAX_QUBITS = 62
MAX_DIMENSION = 24

_X_KINDS = (GateKind.RX, GateKind.RXX)
_Z_KINDS = (GateKind.RZ, GateKind.RZZ)


@dataclass(frozen=True)
class Gate:
    """One rotation gate; angle is kept unreduced (action is 2*pi-periodic)."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            raise InvalidGateError(f"gate kind must be a GateKind, got {self.kind!r}")
        if not isinstance(self.qubits, (tuple, list)):
            raise InvalidGateError(f"qubits must be a tuple of indices, got {self.qubits!r}")
        qubits = tuple(self.qubits)
        if not all(has_type(q, "int") for q in qubits):
            raise InvalidGateError(f"qubit indices must be integers, got {qubits!r}")
        if not has_type(self.angle, "float"):
            raise InvalidGateError(f"gate angle must be a real number, got {self.angle!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in qubits))
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
        if not isinstance(self.gates, (tuple, list)):
            raise InvalidGateError(f"gates must be a tuple of Gates, got {self.gates!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        if not has_type(self.n, "int"):
            raise InvalidGateError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InvalidGateError(f"need at least one qubit, got n={self.n}")
        for gate in self.gates:
            if not isinstance(gate, Gate):
                raise InvalidGateError(f"gates must be Gates, got {gate!r}")
            if any(q >= self.n for q in gate.qubits):
                raise InvalidGateError(
                    f"gate {gate.kind.value} on {gate.qubits} exceeds n={self.n}"
                )


@dataclass(frozen=True)
class SampledDistribution:
    """Shot histogram over feature-mask bitstrings."""

    shots: int
    counts: dict[str, int]


def _refuse_oversize(n: int, dimension: int) -> None:
    """Refuse a register past int64 indices or a state past the amplitude cap."""
    if n > MAX_QUBITS:
        raise StateSizeError(
            f"n={n} exceeds the simulator's {MAX_QUBITS}-qubit limit (int64 indices)"
        )
    if dimension > MAX_DIMENSION:
        raise StateSizeError(
            f"a state of 2^{dimension} amplitudes exceeds the cap of "
            f"2^{MAX_DIMENSION} (n={n})"
        )


@dataclass(frozen=True)
class SupportState:
    """A state whose nonzero amplitudes lie in the GF(2) span of ``basis``.

    ``basis`` is reduced echelon and ascending: each vector's highest set
    bit (its lead) is clear in every other vector.  ``amplitudes[k]`` is the
    amplitude of ``index(k)``, the XOR of ``basis[i]`` over the set bits i
    of k; that map is strictly increasing in k.
    """

    n: int
    basis: tuple[int, ...]
    amplitudes: np.ndarray

    def index(self, positions: np.ndarray) -> np.ndarray:
        """The basis index held at each of ``positions``."""
        indices = np.zeros_like(positions, dtype=np.int64)
        for i, vector in enumerate(self.basis):
            indices ^= (positions >> i & 1) * vector
        return indices

    def dense(self) -> np.ndarray:
        """The full 2**n statevector, zero outside the span."""
        _refuse_oversize(self.n, self.n)
        state = np.zeros(1 << self.n, dtype=complex)
        state[self.index(np.arange(len(self.amplitudes)))] = self.amplitudes
        return state


def _operand_mask(gate: Gate) -> int:
    return sum(1 << q for q in gate.qubits)


def span_basis(circuit: Circuit) -> tuple[int, ...]:
    """Reduced echelon basis, ascending, of the span of the X/Y operand masks.

    Raises StateSizeError for n > MAX_QUBITS, or as soon as the span would
    hold more than 2**MAX_DIMENSION states, before any state is allocated.
    """
    _refuse_oversize(circuit.n, 0)
    basis: list[int] = []
    for gate in circuit.gates:
        if gate.kind in _Z_KINDS:
            continue
        mask = _operand_mask(gate)
        for vector in basis:
            if mask >> (vector.bit_length() - 1) & 1:
                mask ^= vector
        if mask:
            _refuse_oversize(circuit.n, len(basis) + 1)
            lead = mask.bit_length() - 1
            basis = [v ^ mask if v >> lead & 1 else v for v in basis]
            basis.append(mask)
    # Leads are distinct highest bits, so value order is lead order.
    return tuple(sorted(basis))


_KEEP = slice(None)
_FLIP = slice(None, None, -1)
_ONE = np.ones(1)
_PLUS_MINUS = np.array([1.0, -1.0])


def _build_layout(flips: int, signs: int) -> tuple[tuple, tuple, np.ndarray]:
    """Reshape, flip view and sign for positions k of a coefficient array.

    Every bit set in ``flips | signs`` gets an axis of length 2: shape
    (-1, 2, gap, 2, gap, ...), highest bit first.  The view reverses the
    ``flips`` axes, which maps k to k ^ flips.  The sign is
    (-1)**parity(k & signs), shaped to broadcast against the reshape, and
    read-only, since ``_layout`` hands the same array to every caller.
    """
    axes = flips | signs
    bits = [b for b in reversed(range(axes.bit_length())) if axes >> b & 1]
    shape, view, sign = [-1], [_KEEP], np.ones(())
    for below, bit in zip(bits[1:] + [-1], bits):
        shape += [2, 1 << (bit - below - 1)]
        view += [_FLIP if flips >> bit & 1 else _KEEP, _KEEP]
        sign = np.multiply.outer(sign, _PLUS_MINUS if signs >> bit & 1 else _ONE)[..., None]
    sign.flags.writeable = False
    return tuple(shape), tuple(view), sign


# Runs meet few distinct layouts: 128 over the 3159 gates of the 10 wine
# runs.  The memo holds only layouts of at most _MEMO_AXES axes, whose sign
# has at most 2**8 entries; a wider one is built for each gate.
_MEMO_AXES = 8
_layout = functools.lru_cache(maxsize=1024)(_build_layout)


def _apply_in_place(
    state: np.ndarray, buf: np.ndarray, gate: Gate, basis: tuple[int, ...]
) -> None:
    """Overwrite the coefficients ``state`` over ``basis`` with ``gate`` applied.

    ``buf`` is same-size scratch.  An X or Y word's operand mask lies in the
    span; its coordinates (its bits at the basis leads, at most two) are the
    position flip.  The parity of an index's operand bits is the parity of
    k & T, where bit i of T is the parity of basis[i]'s operand bits.
    """
    half = 0.5 * gate.angle
    c, s = math.cos(half), math.sin(half)
    mask = _operand_mask(gate)
    flipping = gate.kind not in _Z_KINDS
    signed = gate.kind not in _X_KINDS
    flips = signs = 0
    for i, vector in enumerate(basis):
        if flipping and mask >> (vector.bit_length() - 1) & 1:
            flips |= 1 << i
        if signed and (vector & mask).bit_count() & 1:
            signs |= 1 << i
    layout = _layout if (flips | signs).bit_count() <= _MEMO_AXES else _build_layout
    shape, view, sign = layout(flips, signs)
    t = state.reshape(shape)
    if gate.kind in _Z_KINDS:
        t *= c - 1j * s * sign
        return
    # -i*s times P's entry at (target, flipped target): 1 for an X word, the
    # product of -i*(-1)**b over the target's operand bits b for a Y word.
    if gate.kind in _X_KINDS:
        factor = -1j * s
    elif gate.kind is GateKind.RY:
        factor = -s * sign
    else:
        factor = 1j * s * sign
    np.multiply(t[view], factor, out=buf.reshape(shape))
    state *= c
    state += buf


def simulate(circuit: Circuit) -> SupportState:
    """The circuit applied to |0...0>, held on the span of its X/Y masks."""
    basis = span_basis(circuit)
    # numpy multiplies a length-1 complex array in its scalar loop, which
    # rounds differently from the vector loop every longer state meets; a
    # zero pad keeps the d = 0 state on the vector loop, so its amplitude
    # is bit-equal to |0...0>'s in the dense kernel.
    state = np.zeros(max(2, 1 << len(basis)), dtype=complex)
    state[0] = 1.0
    buf = np.empty_like(state)
    for gate in circuit.gates:
        _apply_in_place(state, buf, gate, basis)
    return SupportState(circuit.n, basis, state[: 1 << len(basis)])


def sample(state: SupportState, shots: int, rng: np.random.Generator) -> SampledDistribution:
    """Draw ``shots`` i.i.d. measurements; counts keyed by mask bitstring.

    Inverts the unnormalised CDF of |amplitude|**2 at ``rng.random(shots)``
    scaled by the total.  The CDF over positions is the dense one with the
    exact zeros outside the span left out, so this consumes the same
    uniforms as ``rng.choice(2**n, size=shots, p=probs)`` on the dense
    probabilities and, but for a uniform that lands within rounding of a
    bin edge, draws the same outcomes.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.abs(state.amplitudes)
    np.square(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    total = cdf[-1]
    if not (math.isfinite(total) and total > 0):
        raise ValueError(f"state norm must be finite and nonzero, got {total}")
    outcomes = Counter(cdf.searchsorted(rng.random(shots) * total, side="right").tolist())
    # Ascending positions, so ascending indices: the ledger's first-seen
    # order, and so the records, depend on this order.
    counts = {}
    for position in sorted(outcomes):
        index, bits = 0, position
        while bits:
            low = bits & -bits
            index ^= state.basis[low.bit_length() - 1]
            bits ^= low
        counts[index_to_mask(index, state.n)] = outcomes[position]
    return SampledDistribution(shots=shots, counts=counts)


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
