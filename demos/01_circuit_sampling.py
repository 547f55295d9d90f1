"""Tour of the circuit layer: build, simulate, and sample a small circuit.

Every quantum state here lives over "feature mask" bitstrings: measuring a
3-qubit circuit yields strings like "101", read left to right as
feature 0 on, feature 1 off, feature 2 on.  This script builds a tiny
circuit by hand, inspects its exact output distribution, and compares it
with a finite-shot histogram.
"""

import math

import numpy as np

from qfselect import (
    Circuit,
    Gate,
    GateKind,
    depth,
    index_to_mask,
    quasi_probabilities,
    sample,
    simulate,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # A rotation on qubit 0 biases feature 0 toward "on"; the RZZ coupling
    # entangles qubits 1 and 2 after a pair of RY mixers.
    circuit = Circuit(
        n=3,
        gates=(
            Gate(GateKind.RY, (0,), 2 * math.pi / 3),
            Gate(GateKind.RY, (1,), math.pi / 2),
            Gate(GateKind.RY, (2,), math.pi / 2),
            Gate(GateKind.RZZ, (1, 2), math.pi / 2),
            Gate(GateKind.RX, (2,), math.pi / 4),
        ),
    )

    print(f"circuit on {circuit.n} qubits, {len(circuit.gates)} gates, "
          f"depth {depth(circuit)} (parallel gates share a layer)")

    # The simulator holds only the amplitudes its gates can reach; dense()
    # scatters them into all 2**n.
    support = simulate(circuit)
    state = support.dense()
    print(f"statevector norm: {np.linalg.norm(state):.12f}")

    exact = {
        index_to_mask(i, circuit.n): float(p)
        for i, p in enumerate(np.abs(state) ** 2)
        if p > 1e-12
    }
    print("\nexact distribution over masks:")
    for mask in sorted(exact, key=exact.get, reverse=True):
        bar = "#" * round(40 * exact[mask])
        print(f"  {mask}  {exact[mask]:.4f}  {bar}")

    # Finite shots are what the evolutionary loop actually sees.  With 64
    # shots the histogram is a rough sketch; with 4096 it hugs the exact
    # probabilities.
    for shots in (64, 4096):
        dist = sample(support, shots=shots, rng=np.random.default_rng(rng.integers(2**32)))
        freqs = quasi_probabilities(dist)
        worst = max(abs(freqs.get(mask, 0.0) - exact[mask]) for mask in exact)
        print(f"\n{shots} shots -> {len(freqs)} distinct masks, "
              f"largest deviation from exact {worst:.4f}")
        for mask in sorted(freqs, key=freqs.get, reverse=True)[:4]:
            print(f"  {mask}  {freqs[mask]:.4f}")

    print("\nthe empty circuit is the all-off mask with certainty:")
    dist = sample(simulate(Circuit(n=3, gates=())), shots=16, rng=np.random.default_rng(0))
    print(f"  {quasi_probabilities(dist)}")


if __name__ == "__main__":
    main()
