import numpy as np
import pytest

from qftkit import sim
from qftkit.circuit import Circuit, CircuitBuilder, dyadic
from qftkit.errors import CapacityError, SimulationError
from qftkit.qft_pow2 import QftPlan, bit_reversed_indices, logdepth_qft, standard_qft
from qftkit.sim import (
    DEFAULT_SEED,
    MAX_DFT_DIM,
    MAX_UNITARY_QUBITS,
    basis_state,
    dft_reference,
    extract_unitary,
    run_classical_bits,
    run_dense,
    run_sparse,
    sparse_marginal,
    sparse_to_dense,
)


def measured_random_circuit(rng, n_wires: int, n_gates: int) -> Circuit:
    """Random gates over the full gate set, about two in seven of them measurements."""
    b = CircuitBuilder(n_wires)
    for _ in range(n_gates):
        kind = int(rng.integers(0, 7))
        a, c, t = (int(w) for w in rng.choice(n_wires, size=3, replace=False))
        if kind == 0:
            b.h(a)
        elif kind == 1:
            b.cnot(a, t)
        elif kind == 2:
            b.toffoli(a, c, t)
        elif kind == 3:
            b.cp(a, t, dyadic(int(rng.integers(1, 16)), 4))
        elif kind == 4:
            b.p(a, dyadic(int(rng.integers(1, 8)), 3))
        else:
            b.measure(a, "zxy"[int(rng.integers(0, 3))])
    return b.build()


class TestBackendsAgree:
    def test_dense_and_sparse_match_on_random_circuits(self, rng, random_circuit):
        for _ in range(8):
            c = random_circuit(rng, n_qubits=5, n_gates=16)
            x = int(rng.integers(0, 32))
            dense = run_dense(c, x=x).state
            sparse = sparse_to_dense(run_sparse(c, x=x).amplitudes, 5)
            assert np.linalg.norm(dense - sparse) < 1e-12

    def test_dense_and_sparse_agree_on_measured_random_circuits(self, rng):
        # same seed, same draws: both backends must see the same outcomes in the
        # same order and leave the same collapsed state
        for _ in range(12):
            circuit = measured_random_circuit(rng, 5, 20)
            x = int(rng.integers(0, 32))
            for seed in range(3):
                dense = run_dense(circuit, x=x, rng=np.random.default_rng(seed))
                sparse = run_sparse(circuit, x=x, rng=np.random.default_rng(seed))
                assert dense.classical == sparse.classical
                assert np.max(np.abs(dense.state - sparse_to_dense(sparse.amplitudes, 5))) < 1e-12

    def test_norm_preserved(self, rng, random_circuit):
        c = random_circuit(rng, n_qubits=4, n_gates=20)
        amps = run_sparse(c, x=3).amplitudes
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_wall_is_uniform(self):
        b = CircuitBuilder(4)
        for w in range(4):
            b.h(w)
        amps = run_sparse(b.build()).amplitudes
        assert len(amps) == 16
        assert all(abs(a - 0.25) < 1e-12 for a in amps.values())


class TestStateConventions:
    def test_wire_zero_is_least_significant(self):
        b = CircuitBuilder(3)
        b.x(0)
        assert set(run_sparse(b.build()).amplitudes) == {1}
        b = CircuitBuilder(3)
        b.x(2)
        assert set(run_sparse(b.build()).amplitudes) == {4}

    def test_basis_state(self):
        v = basis_state(3, 5)
        assert v[5] == 1 and np.count_nonzero(v) == 1

    @pytest.mark.parametrize("run", [run_dense, run_sparse, run_classical_bits])
    @pytest.mark.parametrize("x", [-1, -8, 8])
    def test_input_outside_the_data_register_is_refused(self, run, x):
        b = CircuitBuilder(3)
        b.cnot(0, 1)
        b.new_ancilla()
        with pytest.raises(SimulationError):
            run(b.build(), x)

    def test_initial_amplitudes_override(self):
        b = CircuitBuilder(2)
        b.cnot(0, 1)
        initial = {0: 0.6, 1: 0.8}
        amps = run_sparse(b.build(), initial=initial).amplitudes
        assert amps[0] == pytest.approx(0.6)
        assert amps[3] == pytest.approx(0.8)

    @pytest.mark.parametrize("initial", [{-1: 1.0, 9: 0.0}, {4: 1.0}], ids=["neg-and-9", "key-4"])
    def test_initial_indices_outside_the_wires_are_refused(self, initial):
        b = CircuitBuilder(2)
        b.cnot(0, 1)
        with pytest.raises(SimulationError):
            run_sparse(b.build(), initial=initial)

    @pytest.mark.parametrize("initial", [{0: 0.1}, {0: 2.0}], ids=["norm-0.01", "norm-4"])
    def test_unnormalised_initial_state_is_refused(self, initial):
        # measurement draws read branch probabilities as given, so a state off
        # norm 1 would yield a wrong outcome rate and a rescaled state
        b = CircuitBuilder(1)
        b.h(0)
        b.measure(0, "z")
        with pytest.raises(SimulationError, match="norm"):
            run_sparse(b.build(), initial=initial)

    def test_sparse_marginal_orders_low_wire_first(self):
        b = CircuitBuilder(3)
        b.x(1)
        b.h(2)
        amps = run_sparse(b.build()).amplitudes
        probs = sparse_marginal(amps, [1, 2])
        # index bit 0 <- wire 1 (set), bit 1 <- wire 2 (uniform)
        assert probs == pytest.approx([0.0, 0.5, 0.0, 0.5])


    def test_sparse_keys_past_sixty_four_wires(self):
        b = CircuitBuilder(70)
        b.x(66)
        b.h(65)
        b.cnot(65, 69)
        amps = run_sparse(b.build(), x=1).amplitudes
        assert set(amps) == {1 + 2**66, 1 + 2**65 + 2**66 + 2**69}
        for amp in amps.values():
            assert abs(amp - 2**-0.5) < 1e-12


class TestPrunedMass:
    def test_exact_transform_prunes_nothing(self):
        for x in (0, 5, 255):
            assert run_sparse(standard_qft(8), x=x).pruned_mass == 0.0

    def test_cancelled_amplitude_is_reported(self):
        # H P(2^-60 turn) H leaves about 2.7e-18 on |1>, below the prune threshold
        b = CircuitBuilder(1)
        b.h(0)
        b.p(0, dyadic(1, 60))
        b.h(0)
        res = run_sparse(b.build())
        assert set(res.amplitudes) == {0}
        assert 0 < res.pruned_mass < 1e-30


class TestClassicalPath:
    def test_toffoli_adder_bits(self):
        b = CircuitBuilder(3)
        b.toffoli(0, 1, 2)
        b.cnot(0, 1)
        c = b.build()
        for x in range(8):
            out = run_classical_bits(c, x)
            a, s, carry = x & 1, (x >> 1) & 1, (x >> 2) & 1
            assert out == a | ((s ^ a) << 1) | ((carry ^ (a & s)) << 2)

    def test_rejects_non_classical_gates(self):
        with pytest.raises(Exception):
            run_classical_bits(standard_qft(2), 0)


class TestExtractUnitary:
    def test_qft_matches_reference_after_bit_reversal(self):
        for n in (1, 2, 3, 4):
            u = extract_unitary(standard_qft(n))[bit_reversed_indices(n), :]
            assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10

    def test_result_is_unitary(self, rng, random_circuit):
        c = random_circuit(rng, n_qubits=4, n_gates=12)
        u = extract_unitary(c)
        assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) < 1e-10

    def test_wide_path_matches_the_dense_path(self, rng, random_circuit, monkeypatch):
        narrow = random_circuit(rng, n_qubits=4, n_gates=16)
        padded = Circuit.from_gates(list(narrow.all_gates()), 4, n_ancilla=10)
        assert padded.width > MAX_UNITARY_QUBITS >= narrow.width
        want = extract_unitary(narrow)
        assert np.max(np.abs(extract_unitary(padded) - want)) < 1e-12
        # a 64-amplitude cap runs the 16 columns in four batches of four
        monkeypatch.setattr(sim, "SPARSE_SUPPORT_CAP", 64)
        assert np.max(np.abs(extract_unitary(padded) - want)) < 1e-12

    def test_wide_path_refuses_a_dirty_ancilla(self):
        b = CircuitBuilder(4)
        ancillas = b.new_ancillas(9)
        b.h(0)
        b.cnot(0, ancillas[-1])
        with pytest.raises(SimulationError, match="ancillas"):
            extract_unitary(b.build())


class TestReferencesAndMetrics:
    def test_dft_reference_is_unitary(self):
        for m in (2, 3, 7, 12):
            f = dft_reference(m)
            assert np.linalg.norm(f.conj().T @ f - np.eye(m), 2) < 1e-12

    def test_dft_reference_entries(self):
        f = dft_reference(4)
        assert f[1, 1] == pytest.approx(1j / 2)
        assert f[2, 3] == pytest.approx(-0.5)

    def test_dft_dimension_cap(self):
        with pytest.raises(CapacityError):
            dft_reference(MAX_DFT_DIM + 1)


class TestMeasurement:
    def test_measured_hadamard_is_balanced(self):
        b = CircuitBuilder(1)
        b.h(0)
        b.measure(0, "z")
        c = b.build()
        rng = np.random.default_rng(DEFAULT_SEED)
        ones = 0
        for _ in range(400):
            res = run_sparse(c, rng=rng)
            ones += res.classical[0]
        assert 160 <= ones <= 240

    def test_measurement_collapses_support(self):
        b = CircuitBuilder(2)
        b.h(0)
        b.cnot(0, 1)
        b.measure(0, "z")
        res = run_sparse(b.build(), rng=np.random.default_rng(0))
        assert len(res.amplitudes) == 1

    # classical records as strings, one per (circuit, x), "seed 0 seed 1";
    # any change to the draw order or to the measurement sequence moves them
    LOGDEPTH_RECORDS = {
        (1, 2): ["01 00", "11 10"],
        (2, 2): ["0011 0010", "0101 0100", "1011 1010", "0111 0110"],
        (2, 4): ["00000000 00001101", "01110000 01110101", "10100000 10101101", "01111010 01111111"],
    }
    RANDOM_RECORDS = [
        "01111000010 00000111000", "011110010 001011100", "000101000 000011001", "000010 000111",
        "0111010000 0010101110", "0111 0011", "0101 0000", "0111001 0010010", "01010000 00001011",
        "0001000 0000110",
    ]

    @staticmethod
    def _records(run, circuit, x):
        runs = (run(circuit, x=x, rng=np.random.default_rng(seed)) for seed in (0, 1))
        return " ".join("".join(map(str, res.classical)) for res in runs)

    @pytest.mark.parametrize("n, k", list(LOGDEPTH_RECORDS))
    def test_sparse_logdepth_records_are_pinned(self, n, k):
        circuit = logdepth_qft(QftPlan("logdepth", n, k=k)).circuit
        got = [self._records(run_sparse, circuit, x) for x in range(1 << n)]
        assert got == self.LOGDEPTH_RECORDS[n, k]

    def test_dense_records_on_measured_random_circuits_are_pinned(self):
        circuits = [measured_random_circuit(np.random.default_rng(seed), 6, 24) for seed in range(10)]
        got = [self._records(run_dense, circuit, x) for x, circuit in enumerate(circuits)]
        assert got == self.RANDOM_RECORDS

    @pytest.mark.parametrize("run", [run_sparse, run_dense])
    def test_unseeded_runs_draw_from_the_default_seed(self, run):
        c = measured_random_circuit(np.random.default_rng(5), 6, 24)
        assert c.has_measurement()
        bare, seeded = run(c, x=3), run(c, x=3, rng=np.random.default_rng(DEFAULT_SEED))
        assert bare.classical == seeded.classical
        assert bare.amplitudes == seeded.amplitudes
        np.testing.assert_array_equal(bare.state, seeded.state)

    def test_seeded_runs_reproduce(self):
        b = CircuitBuilder(2)
        b.h(0)
        b.h(1)
        b.measure(0, "z")
        b.measure(1, "x")
        c = b.build()
        first = run_sparse(c, rng=np.random.default_rng(11)).classical
        second = run_sparse(c, rng=np.random.default_rng(11)).classical
        assert first == second


class TestCapacity:
    def test_sparse_support_cap(self, monkeypatch):
        b = CircuitBuilder(8)
        for w in range(8):
            b.h(w)
        monkeypatch.setattr(sim, "SPARSE_SUPPORT_CAP", 64)
        with pytest.raises(CapacityError):
            run_sparse(b.build())
