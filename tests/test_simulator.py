"""Simulator tests.  ``simulate`` returns the state on the span of a
circuit's X/Y masks; the references it is checked against are independent
of that kernel: the multiplied-out dense unitaries of ``tests/helpers.py``
(n <= 6), and the same circuit run over all 2**n amplitudes after an
identity RX on every wire."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfselect.errors import InvalidGateError, MaskError, OracleLimitError, StateSizeError
from qfselect import simulator
from qfselect.masks import (
    index_to_mask,
    mask_columns,
    mask_to_index,
    validate_mask,
    validate_masks,
)
from qfselect.simulator import (
    Circuit,
    Gate,
    GateKind,
    MAX_DIMENSION,
    TWO_QUBIT_KINDS,
    SupportState,
    depth,
    quasi_probabilities,
    sample,
    simulate,
    span_basis,
)

from helpers import (
    NOT_BITSTRINGS,
    dense_unitary,
    gate_matrix,
    random_circuit,
    random_gate,
    reference_index,
    reference_mask,
)


def compose_dense(circuit: Circuit) -> np.ndarray:
    """Independent oracle: multiply out full gate matrices."""
    full = np.eye(1 << circuit.n, dtype=complex)
    for gate in circuit.gates:
        full = dense_unitary(gate, circuit.n) @ full
    return full


def spanning_every_wire(circuit: Circuit) -> Circuit:
    """The same circuit after RX(q, 0.0) on every wire.  Its span holds every
    unit vector (d = n), so ``.amplitudes`` is the whole 2**n state, and the
    identity prefix changes no amplitude."""
    prefix = tuple(Gate(GateKind.RX, (q,), 0.0) for q in range(circuit.n))
    return Circuit(circuit.n, prefix + circuit.gates)


def full_support(amplitudes) -> SupportState:
    """A hand-made state over all 2**n basis indices."""
    n = len(amplitudes).bit_length() - 1
    return SupportState(n, tuple(1 << q for q in range(n)), np.asarray(amplitudes))


def has_x_or_y_word(circuit: Circuit) -> bool:
    return any(g.kind not in (GateKind.RZ, GateKind.RZZ) for g in circuit.gates)


@st.composite
def small_circuits(draw):
    """Circuits over n <= 10 qubits whose gates act on the first ``width``
    wires only, so the span of the X/Y masks ranges from empty to full."""
    n = draw(st.integers(1, 10))
    width = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Circuit(n, random_circuit(rng, width, draw(st.integers(0, 14))).gates)


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 62))
    def test_codec_matches_the_per_bit_reference(self, data, n):
        indices = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=5))
        masks = [reference_mask(index, n) for index in indices]
        assert [index_to_mask(index, n) for index in indices] == masks
        assert [mask_to_index(mask) for mask in masks] == indices
        keep = mask_columns(masks, n)
        assert keep.shape == (len(masks), n) and keep.dtype == bool
        assert keep.tolist() == [[ch == "1" for ch in mask] for mask in masks]

    def test_rejects_garbage(self):
        with pytest.raises(MaskError):
            mask_to_index("10x")
        with pytest.raises(MaskError):
            index_to_mask(8, 3)
        with pytest.raises(MaskError):
            index_to_mask(0, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        masks=st.lists(
            st.text(alphabet="01", min_size=3, max_size=3)
            | st.text(alphabet="01x \n", max_size=4)
            | st.sampled_from(NOT_BITSTRINGS + ("", "011", b"011", None)),
            max_size=4,
        ),
        n=st.integers(0, 4),
    )
    def test_a_batch_is_checked_as_each_mask_would_be(self, masks, n):
        # validate_masks raises what the first failing validate_mask raises.
        def outcome(check, *items):
            try:
                for item in items:
                    check(item, n)
            except Exception as err:
                return type(err), str(err)
            return None

        assert outcome(validate_masks, masks) == outcome(validate_mask, *masks)

    @pytest.mark.parametrize("text", NOT_BITSTRINGS)
    def test_rejects_what_base_2_parsing_accepts(self, text):
        with pytest.raises(MaskError):
            validate_mask(text)
        with pytest.raises(MaskError):
            mask_to_index(text)
        with pytest.raises(MaskError):
            mask_columns([text], len(text))


class TestGateMatrices:
    def test_rz_diagonal(self):
        theta = 0.83
        m = gate_matrix(Gate(GateKind.RZ, (0,), theta))
        expected = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(m, expected, atol=1e-12)

    def test_zero_angle_is_identity(self):
        assert np.allclose(gate_matrix(Gate(GateKind.RX, (0,), 0.0)), np.eye(2), atol=1e-12)
        assert np.allclose(gate_matrix(Gate(GateKind.RYY, (0, 1), 0.0)), np.eye(4), atol=1e-12)

    def test_rxx_closed_form(self):
        theta = 1.2
        m = gate_matrix(Gate(GateKind.RXX, (0, 1), theta))
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
        # Integers and reals only, and no bool, caught before a run can use them.
        for n in (2.0, True, np.True_, "3", None):
            with pytest.raises(InvalidGateError, match="n must be an integer"):
                Circuit(n)
        for qubit in (0.7, True, np.True_, "a", None):
            with pytest.raises(InvalidGateError, match="qubit indices must be integers"):
                Gate(GateKind.RX, (qubit,), 1.0)
        for angle in ("1.5", True, None, 1j):
            with pytest.raises(InvalidGateError, match="angle must be a real number"):
                Gate(GateKind.RX, (0,), angle)
        gate = Gate(GateKind.RXX, (np.int64(2), np.int32(0)), np.float32(0.5))
        assert gate.qubits == (2, 0) and type(gate.qubits[0]) is int
        assert gate.angle == 0.5 and type(gate.angle) is float
        assert Circuit(np.int64(3), (gate,)).n == 3


class TestApplyGate:
    def test_rx_pi_flips_qubit(self):
        state = simulate(Circuit(1, (Gate(GateKind.RX, (0,), math.pi),))).dense()
        assert np.allclose(state, [0.0, -1j], atol=1e-12)

    def test_rzz_phases_00(self):
        theta = 0.7
        state = simulate(Circuit(2, (Gate(GateKind.RZZ, (0, 1), theta),))).dense()
        expected = np.array([np.exp(-1j * theta / 2), 0, 0, 0])
        assert np.allclose(state, expected, atol=1e-12)

    def test_ryy_matches_dense_oracle(self):
        # A Y word on distant wires, after a prefix that spreads the state.
        prefix = random_circuit(np.random.default_rng(7), 3, 8).gates
        circuit = Circuit(3, prefix + (Gate(GateKind.RYY, (0, 2), 0.37),))
        expected = compose_dense(circuit)[:, 0]
        assert np.max(np.abs(simulate(circuit).dense() - expected)) <= 1e-10

    def test_out_of_range_qubit(self):
        with pytest.raises(InvalidGateError, match="exceeds n=2"):
            Circuit(2, (Gate(GateKind.RX, (2,), 0.1),))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(GateKind)),
        n=st.integers(min_value=1, max_value=6),
        angle=st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_path_matches_dense_oracle_at_every_placement(self, kind, n, angle, seed):
        # The gate runs on the coefficients over the span of the prefix's
        # and its own X/Y masks, not on all 2**n amplitudes.  Every operand
        # placement: wires 0 and n-1, adjacent and distant pairs, both
        # operand orders.
        n = max(n, kind.n_qubits)
        rng = np.random.default_rng(seed)
        prefix = random_circuit(rng, n, int(rng.integers(0, 2 * n))).gates
        if kind.n_qubits == 1:
            placements = [(q,) for q in range(n)]
        else:
            placements = [(a, b) for a in range(n) for b in range(n) if a != b]
        before = compose_dense(Circuit(n, prefix))[:, 0]
        for qubits in placements:
            gate = Gate(kind, qubits, angle)
            expected = dense_unitary(gate, n) @ before
            got = simulate(Circuit(n, prefix + (gate,))).dense()
            assert np.max(np.abs(got - expected)) <= 1e-10


class TestSimulate:
    def test_empty_circuit(self):
        assert np.allclose(simulate(Circuit(2)).dense(), [1, 0, 0, 0])

    def test_rx_pi_on_qubit_1(self):
        circuit = Circuit(2, (Gate(GateKind.RX, (1,), math.pi),))
        probs = np.abs(simulate(circuit).dense()) ** 2
        assert probs[2] == pytest.approx(1.0, abs=1e-12)
        assert index_to_mask(2, 2) == "01"

    def test_five_random_gates_match_composed_oracle(self):
        rng = np.random.default_rng(11)
        circuit = random_circuit(rng, 3, 5)
        expected = compose_dense(circuit)[:, 0]
        assert np.max(np.abs(simulate(circuit).dense() - expected)) <= 1e-10

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            circuit = random_circuit(rng, 3, int(rng.integers(0, 13)))
            expected = compose_dense(circuit)[:, 0]
            assert np.max(np.abs(simulate(circuit).dense() - expected)) <= 1e-10

    def test_unitarity_random_circuits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            circuit = random_circuit(rng, n, int(rng.integers(0, 51)))
            assert abs(np.linalg.norm(simulate(circuit).amplitudes) - 1.0) <= 1e-10


class TestSupport:
    @settings(max_examples=150, deadline=None)
    @given(circuit=small_circuits())
    def test_scatters_to_the_dense_kernel_state(self, circuit):
        support = simulate(circuit)
        dense = simulate(spanning_every_wire(circuit)).amplitudes
        if has_x_or_y_word(circuit):
            assert np.array_equal(support.dense(), dense)
        else:
            # Only |0...0> carries amplitude.  numpy multiplies a length-1
            # array in its scalar loop and longer ones in its SIMD loop, so
            # the phase may differ in the last bit.
            assert len(support.amplitudes) == 1
            assert np.array_equal(support.dense()[1:], dense[1:])
            assert abs(support.amplitudes[0] - dense[0]) <= np.spacing(1.0)

    @settings(max_examples=150, deadline=None)
    @given(circuit=small_circuits())
    def test_support_lies_in_the_span_in_ascending_order(self, circuit):
        support = simulate(circuit)
        assert len(support.amplitudes) == 2 ** len(support.basis)
        positions = np.arange(len(support.amplitudes))
        indices = support.index(positions)
        assert indices.dtype == np.int64
        assert indices.tolist() == [reference_index(support.basis, k) for k in positions]
        assert np.all(np.diff(indices) > 0)
        dense = simulate(spanning_every_wire(circuit)).amplitudes
        assert set(np.flatnonzero(dense)) <= set(indices.tolist())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 62))
    def test_index_matches_the_per_bit_reference_at_any_width(self, data, n):
        # Any ascending reduced echelon basis: distinct leads, each clear in
        # every other vector.
        leads = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=min(n, 10))))
        basis = []
        for lead in leads:
            low = data.draw(st.integers(0, 2**lead - 1)) & ~sum(1 << b for b in leads)
            basis.append(1 << lead | low)
        support = SupportState(n, tuple(basis), np.zeros(1 << len(basis), dtype=complex))
        positions = np.arange(1 << len(basis))
        indices = support.index(positions)
        assert indices.tolist() == [reference_index(support.basis, k) for k in positions]
        assert np.all(np.diff(indices) > 0)

    @settings(max_examples=150, deadline=None)
    @given(circuit=small_circuits())
    def test_basis_is_reduced_echelon_and_spans_the_x_y_masks(self, circuit):
        basis = span_basis(circuit)
        leads = [v.bit_length() - 1 for v in basis]
        assert leads == sorted(set(leads))
        for v in basis:
            assert [lead for lead in leads if v >> lead & 1] == [v.bit_length() - 1]
        support = simulate(circuit)
        span = set(support.index(np.arange(len(support.amplitudes))).tolist())
        for gate in circuit.gates:
            if gate.kind not in (GateKind.RZ, GateKind.RZZ):
                assert sum(1 << q for q in gate.qubits) in span

    @settings(max_examples=150, deadline=None)
    @given(circuit=small_circuits(), seed=st.integers(0, 2**32 - 1))
    def test_samples_what_the_dense_state_samples(self, circuit, seed):
        dense = sample(simulate(spanning_every_wire(circuit)), 64, np.random.default_rng(seed))
        compact = sample(simulate(circuit), 64, np.random.default_rng(seed))
        # Same outcomes in the same order: the ledger scores masks as met.
        assert list(compact.counts.items()) == list(dense.counts.items())

    def test_draws_what_rng_choice_draws(self):
        # The RNG-stream pin of TestSample, on a support narrower than 2**n.
        for n in range(2, 11):
            for seed in (0, 1, 2):
                circuit = Circuit(
                    n, random_circuit(np.random.default_rng(100 + n), n - 1, 2 * n).gates
                )
                support = simulate(circuit)
                assert len(support.basis) < n
                shots = 64 * n
                probs = np.abs(support.dense()) ** 2
                drawn = np.random.default_rng(seed).choice(
                    1 << n, size=shots, p=probs / probs.sum()
                )
                expected = Counter(index_to_mask(int(i), n) for i in drawn)
                got = sample(support, shots, np.random.default_rng(seed)).counts
                assert got == dict(expected)

    def test_wide_register_runs_like_its_span(self):
        # Qubits 0 and 39 of a 40-qubit register act as qubits 0 and 1 of two.
        def circuit(n, far):
            return Circuit(n, (
                Gate(GateKind.RX, (far,), 0.4),
                Gate(GateKind.RYY, (0, far), 1.1),
                Gate(GateKind.RZZ, (far, 0), 0.7),
            ))

        wide, narrow = simulate(circuit(40, 39)), simulate(circuit(2, 1))
        assert wide.basis == (1, 1 << 39)
        assert np.array_equal(wide.amplitudes, narrow.amplitudes)
        got = sample(wide, 64, np.random.default_rng(0)).counts
        expected = sample(narrow, 64, np.random.default_rng(0)).counts
        assert got == {m[0] + "0" * 38 + m[1]: c for m, c in expected.items()}


class TestLayoutMemo:
    def test_cached_sign_is_read_only(self):
        _, _, sign = simulator._layout(0b101, 0b011)
        assert not sign.flags.writeable
        with pytest.raises(ValueError):
            sign[...] = 0.0

    def test_amplitudes_do_not_depend_on_the_memo(self):
        circuits = [random_circuit(np.random.default_rng(seed), 9, 30) for seed in range(5)]
        simulator._layout.cache_clear()
        cold = [simulate(c).amplitudes.tobytes() for c in circuits]
        warm = [simulate(c).amplitudes.tobytes() for c in circuits]
        simulator._layout.cache_clear()
        assert warm == cold == [simulate(c).amplitudes.tobytes() for c in circuits]

    def test_wide_layout_is_built_but_not_memoized(self, monkeypatch):
        # RZ(0) after RXX(0, i) for i = 1..10: all ten basis vectors hold
        # qubit 0, so its sign has one axis per vector, 2**10 entries.
        star = tuple(Gate(GateKind.RXX, (0, i), 0.3 + 0.1 * i) for i in range(1, 11))
        circuit = Circuit(11, star + (Gate(GateKind.RZ, (0,), 0.9),))
        built = []
        build = simulator._build_layout

        def spy(flips, signs):
            layout = build(flips, signs)
            built.append(layout[2].size)
            return layout

        monkeypatch.setattr(simulator, "_build_layout", spy)
        simulate(Circuit(11, star))
        cached = simulator._layout.cache_info().currsize
        state = simulate(circuit)
        assert built == [1 << 10]
        assert simulator._layout.cache_info().currsize == cached
        # Dense oracle, index by index: X0Xi mixes j with j ^ (1 | 1 << i),
        # and RZ(0) phases j by the parity of bit 0.
        dense = np.zeros(1 << 11, dtype=complex)
        dense[0] = 1.0
        j = np.arange(1 << 11)
        for gate in circuit.gates:
            c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
            if gate.kind is GateKind.RXX:
                dense = c * dense - 1j * s * dense[j ^ (1 | 1 << gate.qubits[1])]
            else:
                dense = dense * (c - 1j * s * (1 - 2 * (j & 1)))
        np.testing.assert_allclose(state.dense(), dense, atol=1e-12)


class TestSizeCaps:
    @staticmethod
    def assert_refused_without_allocating(fn, circuit, match):
        tracemalloc.start()
        try:
            with pytest.raises(StateSizeError, match=match):
                fn(circuit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fn", [simulate, span_basis])
    def test_register_past_int64_indices(self, fn):
        self.assert_refused_without_allocating(fn, Circuit(63), "62-qubit limit")

    @pytest.mark.parametrize("fn", [simulate, span_basis])
    def test_span_past_the_amplitude_cap(self, fn):
        gates = tuple(Gate(GateKind.RX, (q,), 0.1) for q in range(30))
        circuit = Circuit(40, gates)
        self.assert_refused_without_allocating(fn, circuit, f"2\\^{MAX_DIMENSION}")

    def test_dense_output_past_the_amplitude_cap(self):
        circuit = Circuit(MAX_DIMENSION + 1, (Gate(GateKind.RX, (0,), 0.1),))
        support = simulate(circuit)
        assert len(support.amplitudes) == 2
        self.assert_refused_without_allocating(
            lambda _: support.dense(), circuit, "exceeds the cap"
        )


class TestSample:
    def test_delta_distribution(self):
        dist = sample(simulate(Circuit(3)), 64, np.random.default_rng(0))
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
        assert len(dist.counts) <= min(257, 16)

    def test_total_variation_at_1e5_shots(self):
        rng = np.random.default_rng(77)
        state = simulate(random_circuit(rng, 3, 9))
        probs = np.abs(state.dense()) ** 2
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
                probs = np.abs(state.dense()) ** 2
                drawn = np.random.default_rng(seed).choice(
                    1 << n, size=shots, p=probs / probs.sum()
                )
                expected = Counter(index_to_mask(int(i), n) for i in drawn)
                got = sample(state, shots, np.random.default_rng(seed)).counts
                assert got == dict(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, simulator.MAX_QUBITS),
        n_gates=st.integers(0, 16),
        shots=st.integers(1, 512),
        circuit_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_as_np_unique_over_the_index_map(self, n, n_gates, shots, circuit_seed, seed):
        # At most 16 gates, so the span has d <= 16.
        state = simulate(random_circuit(np.random.default_rng(circuit_seed), n, n_gates))
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(np.abs(state.amplitudes) ** 2)
        positions, counts = np.unique(
            cdf.searchsorted(rng.random(shots) * cdf[-1], side="right"), return_counts=True
        )
        expected = [
            (index_to_mask(reference_index(state.basis, int(k)), n), int(c))
            for k, c in zip(positions, counts)
        ]
        got = sample(state, shots, np.random.default_rng(seed)).counts
        # Key for key and in order: the ledger scores masks as first met.
        assert list(got.items()) == expected

    def test_extreme_uniforms_never_draw_zero_probability_outcomes(self):
        class FixedUniforms:
            def random(self, size):
                return np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])[:size]

        state = full_support(np.array([0.0, 0.0, 1.0, 0.0]))
        assert sample(state, 3, FixedUniforms()).counts == {"01": 3}

    def test_unnormalised_state_samples_like_normalised(self):
        state = simulate(random_circuit(np.random.default_rng(8), 5, 15))
        a = sample(state, 500, np.random.default_rng(4)).counts
        b = sample(SupportState(state.n, state.basis, 3.0 * state.amplitudes), 500, np.random.default_rng(4)).counts
        assert a == b

    @pytest.mark.parametrize(
        "state",
        [np.zeros(4), np.array([0.5, np.nan, 0.5, 0.5]), np.array([1.0, np.inf])],
        ids=["zero", "nan", "inf"],
    )
    def test_refuses_zero_or_non_finite_norm(self, state):
        with pytest.raises(ValueError, match="finite and nonzero"):
            sample(full_support(state), 8, np.random.default_rng(0))

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(simulate(Circuit(1)), 0, np.random.default_rng(0))


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
