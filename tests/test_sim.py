import numpy as np
import pytest

from qftkit import netlist, sim
from qftkit.circuit import CNOT, CP, Circuit, CircuitBuilder, H, P, dyadic
from qftkit.errors import CapacityError, SimulationError
from qftkit.qft_pow2 import QftPlan, bit_reversed_indices, logdepth_qft, standard_qft
from qftkit.sim import (
    DEFAULT_SEED,
    MAX_DFT_DIM,
    MAX_UNITARY_QUBITS,
    dft_reference,
    extract_unitary,
    run_classical_batch,
    run_classical_bits,
    run_dense,
    run_sparse,
    sparse_marginal,
)


def as_vector(amps: dict[int, complex], n_wires: int) -> np.ndarray:
    vec = np.zeros(1 << n_wires, dtype=complex)
    vec[list(amps)] = list(amps.values())
    return vec


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


def phase_heavy_circuit(rng, n_wires: int, n_gates: int, measure: bool = True) -> Circuit:
    """Random gates, most of them P and CP on the three lowest wires, mixed with
    H, flips and (when ``measure``) x, y and z measurements.  Angles reach
    denominators up to 2^64."""
    b = CircuitBuilder(n_wires)
    kinds = ("p", "cp", "p", "cp", "cp", "h", "x", "cnot", "ccx") + (("meas",) if measure else ())
    for _ in range(n_gates):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        shared = [int(w) for w in rng.choice(3, size=2, replace=False)]
        a, c, t = (int(w) for w in rng.choice(n_wires, size=3, replace=False))
        theta = dyadic(int(rng.integers(0, 1 << 62)), int(rng.choice([1, 2, 3, 7, 30, 64])))
        if kind == "p":
            b.p(shared[0] if rng.random() < 0.7 else a, theta)
        elif kind == "cp":
            b.cp(*(shared if rng.random() < 0.7 else (a, t)), theta)
        elif kind == "h":
            b.h(a)
        elif kind == "x":
            b.x(a)
        elif kind == "cnot":
            b.cnot(a, t)
        elif kind == "ccx":
            b.toffoli(a, c, t)
        else:
            b.measure(a, "zxy"[int(rng.integers(0, 3))])
    return b.build()


def halving_circuit(rng, n_wires: int, n_h: int, measure_after: dict[int, str]) -> Circuit:
    """``n_h`` Hadamards, each on a random wire just given a P term and CP
    terms with one partner below it and one above it (where it has them),
    with a CNOT after every tenth, and a measurement in basis
    ``measure_after[i]`` on a random wire after the ``i``-th Hadamard."""
    b = CircuitBuilder(n_wires)

    def angle():
        return dyadic(int(rng.integers(1, 1 << 62)), int(rng.choice([3, 30, 64])))

    for i in range(1, n_h + 1):
        t = int(rng.integers(0, n_wires))
        b.p(t, angle())
        if t > 0:
            b.cp(int(rng.integers(0, t)), t, angle())
        if t < n_wires - 1:
            b.cp(t, int(rng.integers(t + 1, n_wires)), angle())
        b.h(t)
        if i % 10 == 0:
            b.cnot(t, (t + 1) % n_wires)
        if i in measure_after:
            b.measure(int(rng.integers(0, n_wires)), measure_after[i])
    return b.build()


def reference_run(circuit: Circuit, x: int, rng: np.random.Generator) -> tuple[np.ndarray, list]:
    """Gate by gate with explicit 2^n x 2^n matrices; a measurement projects onto
    the basis's eigenvectors and reads 1 when ``rng.random()`` falls below its
    probability, the draw the simulators make."""
    n = circuit.width
    dim = 1 << n
    idx = np.arange(dim)

    def on_wire(w: int, m: np.ndarray) -> np.ndarray:
        full = np.eye(1)
        for v in reversed(range(n)):  # wire n - 1 is the leftmost factor
            full = np.kron(full, m if v == w else np.eye(2))
        return full

    def ones(wires) -> np.ndarray:
        return np.all([(idx >> w) & 1 for w in wires], axis=0)

    eigen = {  # basis -> (outcome 0, outcome 1) eigenvectors
        "z": (np.array([1, 0]), np.array([0, 1])),
        "x": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
        "y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
    }
    state = np.zeros(dim, dtype=np.complex128)
    state[x] = 1.0
    classical: list = [None] * circuit.n_classical
    for gate in circuit.all_gates():
        wires = gate.qubits()
        if gate.name == "h":
            state = on_wire(wires[0], np.array([[1, 1], [1, -1]]) / np.sqrt(2)) @ state
        elif gate.name in ("p", "cp"):
            angle = 2 * np.pi * gate.theta.numerator / 2.0**gate.theta.log_denominator
            state = np.diag(np.where(ones(wires), np.exp(1j * angle), 1.0)) @ state
        elif gate.name in ("x", "cnot", "ccx"):
            *ctrls, t = wires
            perm = np.zeros((dim, dim))
            perm[np.where(ones(ctrls), idx ^ (1 << t), idx), idx] = 1.0
            state = perm @ state
        else:
            projectors = [on_wire(gate.target, np.outer(v, v.conj())) for v in eigen[gate.basis]]
            p1 = float(np.linalg.norm(projectors[1] @ state) ** 2)
            outcome = 1 if rng.random() < p1 else 0
            state = projectors[outcome] @ state
            state /= np.linalg.norm(state)
            classical[gate.out] = outcome
    return state, classical


class TestHeldPhases:
    """The dense simulator holds P and CP per wire until a gate needs the wire."""

    @pytest.mark.parametrize("n_wires", [5, 6])
    def test_dense_matches_a_per_gate_matrix_reference(self, n_wires):
        rng = np.random.default_rng(170 + n_wires)
        for trial in range(20):
            circuit = phase_heavy_circuit(rng, n_wires, 40)
            x = int(rng.integers(0, 1 << n_wires))
            got = run_dense(circuit, x=x, rng=np.random.default_rng(trial))
            want, classical = reference_run(circuit, x, np.random.default_rng(trial))
            assert got.classical == classical
            assert np.max(np.abs(got.state - want)) < 1e-12

    def test_one_wire_state(self):
        # with every axis fixed, the butterfly still writes through views
        circuit = Circuit.from_gates([H(0), P(0, dyadic(1, 3)), H(0), P(0, dyadic(3, 4))], 1)
        for x in (0, 1):
            want, _ = reference_run(circuit, x, np.random.default_rng(0))
            assert np.max(np.abs(run_dense(circuit, x=x).state - want)) < 1e-12

    def test_unitary_batch_matches_the_reference(self):
        rng = np.random.default_rng(1717)
        for _ in range(6):
            circuit = phase_heavy_circuit(rng, 5, 40, measure=False)
            want = np.stack([reference_run(circuit, x, rng)[0] for x in range(32)], axis=1)
            assert np.max(np.abs(extract_unitary(circuit) - want)) < 1e-12

    def test_held_halvings_cross_the_rescale(self):
        # 131 Hadamards: two exact rescales and an odd rest; the x, y and z
        # measurements after the 64th read probabilities under held halvings
        rng = np.random.default_rng(2201)
        circuit = halving_circuit(rng, 7, 131, {70: "x", 100: "y", 120: "z"})
        assert sum(g.name == "h" for g in circuit.all_gates()) == 131
        for seed in range(2):
            x = int(rng.integers(0, 1 << 7))
            got = run_dense(circuit, x=x, rng=np.random.default_rng(seed))
            want, classical = reference_run(circuit, x, np.random.default_rng(seed))
            assert got.classical == classical
            assert np.max(np.abs(got.state - want)) < 1e-12
        unmeasured = Circuit.from_gates([g for g in circuit.all_gates() if g.family != "measure"], 7)
        xs = [int(x) for x in rng.choice(1 << 7, size=8, replace=False)]
        want = np.stack([reference_run(unmeasured, x, rng)[0] for x in xs], axis=1)
        assert np.max(np.abs(extract_unitary(unmeasured)[:, xs] - want)) < 1e-12

    def test_opposite_angles_cancel_exactly(self):
        # the held exponents sum to 0 mod 2^64, so no multiply is left on wires 0 and 1
        rng = np.random.default_rng(1718)
        theta = dyadic(int(rng.integers(1, 1 << 62)) | 1, 64)
        between = [H(2), CP(2, 3, dyadic(5, 7)), CNOT(4, 3), P(4, dyadic(1, 3)), H(3)]
        with_pair = Circuit.from_gates([P(0, dyadic(3, 9)), CP(0, 1, theta), *between, CP(0, 1, -theta)], 5)
        without = Circuit.from_gates([P(0, dyadic(3, 9)), *between], 5)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        finals = []
        for circuit in (with_pair, without):
            state = sim._DenseState(psi.copy().reshape([2] * 5), 5)
            sim._evolve(state, circuit, None)
            finals.append(state.psi)
        assert np.array_equal(*finals)


class TestBackendsAgree:
    def test_dense_and_sparse_match_on_random_circuits(self, rng, random_circuit):
        for _ in range(8):
            c = random_circuit(rng, n_qubits=5, n_gates=16)
            x = int(rng.integers(0, 32))
            dense = run_dense(c, x=x).state
            sparse = as_vector(run_sparse(c, x=x).amplitudes, 5)
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
                assert np.max(np.abs(dense.state - as_vector(sparse.amplitudes, 5))) < 1e-12

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
        v = run_dense(CircuitBuilder(3).build(), x=5).state
        np.testing.assert_array_equal(v, np.eye(8)[5])

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


def per_gate_walk(circuit: Circuit, x: int) -> int:
    """Oracle for the layered kernel: one Python-int XOR per flip gate, in gate order."""
    bits = x
    for gate in circuit.all_gates():
        *ctrls, target = gate.qubits()
        if all(bits >> c & 1 for c in ctrls):
            bits ^= 1 << target
    return bits


class TestClassicalBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_singles_and_per_gate_walk_agree(self, seed, random_circuit):
        # the draw's flip gates over 7 data wires and 2 ancillas; H and CP dropped
        draw = random_circuit(np.random.default_rng(seed), n_qubits=9, n_gates=80)
        c = Circuit.from_gates([g for g in draw.all_gates() if g.family == "flip"], 7, n_ancilla=2)
        xs = list(range(1 << 7))
        batch = run_classical_batch(c, xs)
        assert batch == [run_classical_bits(c, x) for x in xs]
        assert batch == [per_gate_walk(c, x) for x in xs]

    def test_empty_circuit_returns_its_inputs(self):
        assert run_classical_batch(CircuitBuilder(3).build(), [0, 5, 7]) == [0, 5, 7]

    def test_one_wire_x(self):
        b = CircuitBuilder(1)
        b.x(0)
        c = b.build()
        assert run_classical_batch(c, [0, 1, 1, 0]) == [1, 0, 0, 1]
        assert (run_classical_bits(c, 0), run_classical_bits(c, 1)) == (1, 0)

    def test_zero_and_all_ones_past_sixty_four_wires(self):
        b = CircuitBuilder(70)
        anc = b.new_ancilla()
        b.toffoli(0, 69, anc)
        b.cnot(anc, 3)
        b.x(64)
        c = b.build()
        top = (1 << 70) - 1
        assert run_classical_batch(c, [0, top]) == [1 << 64, (top ^ (1 << 3) ^ (1 << 64)) | (1 << 70)]
        assert [run_classical_bits(c, x) for x in (0, top)] == [per_gate_walk(c, x) for x in (0, top)]

    def test_empty_batch(self):
        assert run_classical_batch(standard_qft(2), []) == []

    @pytest.mark.parametrize("bad", [-1, 8, 1 << 70])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_input_out_of_range_anywhere_is_refused(self, bad, at):
        b = CircuitBuilder(3)
        b.cnot(0, 1)
        b.new_ancilla()
        xs = [0, 1, 2, 3]
        xs.insert(at, bad)
        with pytest.raises(SimulationError, match="out of range"):
            run_classical_batch(b.build(), xs)

    def test_non_flip_gate_is_refused(self):
        b = CircuitBuilder(2)
        b.cnot(0, 1)
        b.h(0)
        with pytest.raises(SimulationError, match="not a classical gate"):
            run_classical_batch(b.build(), [0, 1])

    def test_compiled_layers_leave_the_circuit_equal(self):
        c = logdepth_qft(QftPlan("logdepth", 2, k=2)).circuit
        flips = Circuit.from_gates([g for g in c.all_gates() if g.family == "flip"], c.n_qubits, c.n_ancilla)
        before = netlist.encode(flips)
        run_classical_batch(flips, [0, 1, 2, 3])
        assert flips.flip_layers is flips.flip_layers  # compiled once, kept
        assert netlist.encode(flips) == before
        assert netlist.decode(before) == flips
        assert flips == Circuit.from_gates(flips.all_gates(), flips.n_qubits, flips.n_ancilla)


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


def full_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))


def random_unitary(rng, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


class TestUnitarityCheck:
    """The block upper triangle of U^dagger U reports the defect of every entry."""

    @pytest.mark.parametrize("d", [2, 128, 256, 1024])
    def test_matches_the_full_product(self, d):
        rng = np.random.default_rng(d)
        # unit columns, so every Gram entry is at most 1 and 1e-12 is an absolute bound
        u = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u /= np.linalg.norm(u, axis=0)
        assert abs(sim._unitarity_defect(u) - full_defect(u)) < 1e-12
        near = random_unitary(rng, d) + 1e-6 * rng.normal(size=(d, d))
        assert abs(sim._unitarity_defect(near) - full_defect(near)) < 1e-12

    def test_an_overlap_below_the_diagonal_reads_through_its_mirror(self):
        # Gram entry (700, 3) is in a skipped block; only (3, 700) is formed
        u = random_unitary(np.random.default_rng(700), 1024)
        u[:, 700] = (u[:, 3] + u[:, 700]) / np.sqrt(2)
        assert abs(sim._unitarity_defect(u) - np.sqrt(0.5)) < 1e-12
        assert abs(sim._unitarity_defect(u) - full_defect(u)) < 1e-12

    # a Hadamard kernel that acts as [[1, 1], [1, 1]] / sqrt(2) on one wire: every
    # column keeps unit norm, but columns that differ only there coincide
    @pytest.mark.parametrize("n", [2, 8, 10])
    def test_dense_path_refuses_a_nonorthogonal_hadamard(self, n, monkeypatch):
        true_h = sim._DenseState.h

        def h(self, w):
            true_h(self, w)
            if w == n - 1:
                self.psi[self._at((w, 1))] = self.psi[self._at((w, 0))]

        monkeypatch.setattr(sim._DenseState, "h", h)
        with pytest.raises(SimulationError, match="not unitary: defect 1.000e"):
            extract_unitary(standard_qft(n))

    def test_wide_path_refuses_a_nonorthogonal_hadamard(self, monkeypatch):
        true_h = sim._SparseState.h

        def h(self, w):  # sqrt(2) |+><+| = sqrt(2) H |0><0| H
            true_h(self, w)
            if w == 3:
                keep = ~self.bits[w]
                self.bits, self.amps = self.bits[:, keep], self.amps[keep] * np.sqrt(2)
                true_h(self, w)

        padded = Circuit.from_gates(list(standard_qft(4).all_gates()), 4, n_ancilla=10)
        assert padded.width > MAX_UNITARY_QUBITS
        monkeypatch.setattr(sim._SparseState, "h", h)
        with pytest.raises(SimulationError, match="not unitary: defect 1.000e"):
            extract_unitary(padded)


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
        (1, 2): ["00 00", "10 10"],
        (2, 2): ["0010 0010", "1100 0100", "1010 1010", "1110 0110"],
        (2, 4): ["00000101 00001100", "01010101 11010100", "10100101 10101100", "01011111 11011110"],
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
