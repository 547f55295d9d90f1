import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfselect.errors import InvalidGateError, MaskError, OracleLimitError
from qfselect.masks import index_to_mask, mask_columns, mask_to_index
from qfselect.simulator import (
    Circuit,
    Gate,
    GateKind,
    TWO_QUBIT_KINDS,
    apply_gate,
    depth,
    quasi_probabilities,
    sample,
    simulate,
    zero_state,
)

from helpers import dense_unitary, random_circuit, random_gate


def compose_dense(circuit: Circuit) -> np.ndarray:
    """Independent oracle: multiply out full gate matrices."""
    full = np.eye(1 << circuit.n, dtype=complex)
    for gate in circuit.gates:
        full = dense_unitary(gate, circuit.n) @ full
    return full


class TestMasks:
    def test_little_endian_rendering(self):
        # index 1 sets bit 0, which renders leftmost
        assert index_to_mask(1, 3) == "100"
        assert index_to_mask(2, 3) == "010"
        assert index_to_mask(5, 3) == "101"
        assert mask_to_index("100") == 1
        assert mask_to_index("101") == 5

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24))
    def test_index_round_trip(self, data, n):
        index = data.draw(st.integers(0, 2**n - 1))
        mask = index_to_mask(index, n)
        assert len(mask) == n
        assert mask_to_index(mask) == index
        other = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
        assert index_to_mask(mask_to_index(other), n) == other

    def test_columns(self):
        assert mask_columns("1010001100100") == [0, 2, 6, 7, 10]

    def test_rejects_garbage(self):
        with pytest.raises(MaskError):
            mask_to_index("10x")
        with pytest.raises(MaskError):
            index_to_mask(8, 3)


class TestGateMatrices:
    def test_rz_diagonal(self):
        theta = 0.83
        m = Gate(GateKind.RZ, (0,), theta).matrix()
        expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(m, expected, atol=1e-12)

    def test_zero_angle_is_identity(self):
        assert np.allclose(Gate(GateKind.RX, (0,), 0.0).matrix(), np.eye(2), atol=1e-12)
        assert np.allclose(Gate(GateKind.RYY, (0, 1), 0.0).matrix(), np.eye(4), atol=1e-12)

    def test_rxx_closed_form(self):
        theta = 1.2
        m = Gate(GateKind.RXX, (0, 1), theta).matrix()
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        expected = np.array(
            [
                [c, 0, 0, -1j * s],
                [0, c, -1j * s, 0],
                [0, -1j * s, c, 0],
                [-1j * s, 0, 0, c],
            ]
        )
        assert np.allclose(m, expected, atol=1e-12)

    def test_gate_validation(self):
        with pytest.raises(InvalidGateError):
            Gate(GateKind.RX, (0, 1), 0.1)
        with pytest.raises(InvalidGateError):
            Gate(GateKind.RXX, (2, 2), 0.1)
        with pytest.raises(InvalidGateError):
            Circuit(2, (Gate(GateKind.RY, (5,), 0.1),))
        for angle in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidGateError, match="finite"):
                Gate(GateKind.RX, (0,), angle)


class TestApplyGate:
    def test_rx_pi_flips_qubit(self):
        state = apply_gate(zero_state(1), Gate(GateKind.RX, (0,), math.pi))
        assert np.allclose(state, [0.0, -1j], atol=1e-12)

    def test_rzz_phases_00(self):
        theta = 0.7
        state = apply_gate(zero_state(2), Gate(GateKind.RZZ, (0, 1), theta))
        expected = np.array([np.exp(-1j * theta / 2), 0, 0, 0])
        assert np.allclose(state, expected, atol=1e-12)

    def test_ryy_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = raw / np.linalg.norm(raw)
        gate = Gate(GateKind.RYY, (0, 2), 0.37)
        expected = dense_unitary(gate, 3) @ state
        assert np.max(np.abs(apply_gate(state, gate) - expected)) <= 1e-10

    def test_out_of_range_qubit(self):
        with pytest.raises(InvalidGateError):
            apply_gate(zero_state(2), Gate(GateKind.RX, (2,), 0.1))

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(GateKind)),
        n=st.integers(min_value=1, max_value=6),
        angle=st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle_at_every_placement(self, kind, n, angle, seed):
        # Every operand placement: wires 0 and n-1, adjacent and distant
        # pairs, both operand orders.
        n = max(n, kind.n_qubits)
        rng = np.random.default_rng(seed)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        if kind.n_qubits == 1:
            placements = [(q,) for q in range(n)]
        else:
            placements = [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in placements:
            gate = Gate(kind, qubits, angle)
            expected = dense_unitary(gate, n) @ state
            assert np.max(np.abs(apply_gate(state, gate) - expected)) <= 1e-10

    def test_input_state_unchanged(self):
        state = zero_state(2)
        apply_gate(state, Gate(GateKind.RY, (0,), 1.0))
        assert state[0] == 1.0


class TestSimulate:
    def test_empty_circuit(self):
        assert np.allclose(simulate(Circuit(2)), [1, 0, 0, 0])

    def test_rx_pi_on_qubit_1(self):
        circuit = Circuit(2, (Gate(GateKind.RX, (1,), math.pi),))
        state = simulate(circuit)
        probs = np.abs(state) ** 2
        assert probs[2] == pytest.approx(1.0, abs=1e-12)
        assert index_to_mask(2, 2) == "01"

    def test_five_random_gates_match_composed_oracle(self):
        rng = np.random.default_rng(11)
        circuit = random_circuit(rng, 3, 5)
        expected = compose_dense(circuit) @ zero_state(3)
        assert np.max(np.abs(simulate(circuit) - expected)) <= 1e-10

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            circuit = random_circuit(rng, 3, int(rng.integers(0, 13)))
            expected = compose_dense(circuit) @ zero_state(3)
            assert np.max(np.abs(simulate(circuit) - expected)) <= 1e-10

    def test_unitarity_random_circuits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            circuit = random_circuit(rng, n, int(rng.integers(0, 51)))
            assert abs(np.linalg.norm(simulate(circuit)) - 1.0) <= 1e-10


class TestSample:
    def test_delta_distribution(self):
        dist = sample(zero_state(3), 64, np.random.default_rng(0))
        assert dist.counts == {"000": 64}
        assert dist.shots == 64

    def test_half_half_within_binomial_bound(self):
        state = simulate(Circuit(1, (Gate(GateKind.RX, (0,), math.pi / 2),)))
        dist = sample(state, 10000, np.random.default_rng(42))
        # 3 sigma for Binomial(10000, 1/2) is about 150
        assert 4850 <= dist.counts["0"] <= 5150

    def test_counts_conserve_shots(self):
        rng = np.random.default_rng(9)
        state = simulate(random_circuit(rng, 4, 12))
        dist = sample(state, 257, rng)
        assert sum(dist.counts.values()) == 257
        assert all(c >= 1 for c in dist.counts.values())
        assert dist.support_size() <= min(257, 16)

    def test_total_variation_at_1e5_shots(self):
        rng = np.random.default_rng(77)
        state = simulate(random_circuit(rng, 3, 9))
        probs = np.abs(state) ** 2
        dist = sample(state, 100_000, rng)
        empirical = np.zeros(8)
        for mask, count in dist.counts.items():
            empirical[mask_to_index(mask)] = count / dist.shots
        tv = 0.5 * np.abs(empirical - probs).sum()
        assert tv <= 0.02

    def test_draws_what_rng_choice_draws(self):
        # Pins the RNG stream: a sampler change that alters records fails here.
        for n in range(1, 11):
            for seed in (0, 1, 2):
                state = simulate(random_circuit(np.random.default_rng(100 + n), n, 3 * n))
                shots = 64 * n
                probs = np.abs(state) ** 2
                drawn = np.random.default_rng(seed).choice(
                    1 << n, size=shots, p=probs / probs.sum()
                )
                expected = Counter(index_to_mask(int(i), n) for i in drawn)
                got = sample(state, shots, np.random.default_rng(seed)).counts
                assert got == dict(expected)

    def test_extreme_uniforms_never_draw_zero_probability_outcomes(self):
        class FixedUniforms:
            def random(self, size):
                return np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])[:size]

        state = np.array([0.0, 0.0, 1.0, 0.0])
        assert sample(state, 3, FixedUniforms()).counts == {"01": 3}

    def test_unnormalised_state_samples_like_normalised(self):
        state = simulate(random_circuit(np.random.default_rng(8), 5, 15))
        a = sample(state, 500, np.random.default_rng(4)).counts
        b = sample(3.0 * state, 500, np.random.default_rng(4)).counts
        assert a == b

    @pytest.mark.parametrize(
        "state",
        [np.zeros(4), np.array([0.5, np.nan, 0.5, 0.5]), np.array([1.0, np.inf])],
        ids=["zero", "nan", "inf"],
    )
    def test_refuses_zero_or_non_finite_norm(self, state):
        with pytest.raises(ValueError, match="finite and nonzero"):
            sample(state, 8, np.random.default_rng(0))

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(zero_state(1), 0, np.random.default_rng(0))


class TestQuasiProbabilities:
    def test_single_mask(self):
        dist = SampledDistributionFactory({"101": 64}, 64)
        assert quasi_probabilities(dist) == {"101": 1.0}

    def test_even_split(self):
        dist = SampledDistributionFactory({"00": 32, "11": 32}, 64)
        assert quasi_probabilities(dist) == {"00": 0.5, "11": 0.5}

    def test_exact_division(self):
        dist = SampledDistributionFactory({"0": 1, "1": 63}, 64)
        probs = quasi_probabilities(dist)
        assert probs == {"0": 0.015625, "1": 0.984375}
        assert abs(sum(probs.values()) - 1.0) <= 1e-12


def SampledDistributionFactory(counts, shots):
    from qfselect.simulator import SampledDistribution

    return SampledDistribution(shots=shots, counts=counts)


class TestDepth:
    def test_empty(self):
        assert depth(Circuit(3)) == 0

    def test_wire_scheduling(self):
        gates = [Gate(GateKind.RX, (0,), 0.1), Gate(GateKind.RY, (1,), 0.2)]
        assert depth(Circuit(2, tuple(gates))) == 1
        gates.append(Gate(GateKind.RXX, (0, 1), 0.3))
        assert depth(Circuit(2, tuple(gates))) == 2
        gates.append(Gate(GateKind.RY, (1,), 0.4))
        assert depth(Circuit(2, tuple(gates))) == 3

    def test_monotone_and_bounded_by_gate_count(self):
        rng = np.random.default_rng(3)
        circuit = Circuit(5)
        prev = 0
        for _ in range(30):
            circuit = Circuit(5, circuit.gates + (random_gate(rng, 5),))
            d = depth(circuit)
            assert d >= prev
            assert d <= len(circuit.gates)
            prev = d


class TestDenseUnitary:
    def test_rz_diag(self):
        theta = 1.9
        m = dense_unitary(Gate(GateKind.RZ, (0,), theta), 1)
        assert np.allclose(m, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]), atol=1e-12)

    def test_rx_zero_is_identity(self):
        assert np.allclose(dense_unitary(Gate(GateKind.RX, (0,), 0.0), 2), np.eye(4), atol=1e-12)

    def test_rxx_adjacent_structure(self):
        theta = 0.51
        m = dense_unitary(Gate(GateKind.RXX, (0, 1), theta), 2)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert np.allclose(np.diag(m), [c, c, c, c], atol=1e-12)
        assert np.allclose(np.diag(np.fliplr(m)), [-1j * s] * 4, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(OracleLimitError):
            dense_unitary(Gate(GateKind.RX, (0,), 0.1), 7)

    def test_two_qubit_exchange_symmetry(self):
        rng = np.random.default_rng(13)
        for kind in TWO_QUBIT_KINDS:
            theta = float(rng.uniform(0, 2 * np.pi))
            a = dense_unitary(Gate(kind, (0, 2), theta), 3)
            b = dense_unitary(Gate(kind, (2, 0), theta), 3)
            assert np.max(np.abs(a - b)) <= 1e-12
