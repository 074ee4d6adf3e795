import numpy as np
import pytest

from qftkit import netlist, sim
from qftkit.circuit import CNOT, CP, Circuit, CircuitBuilder, H, MeasureBasis, P, Toffoli, X, dyadic
from qftkit.errors import CapacityError, SimulationError
from qftkit.qft_pow2 import QftPlan, banded_qft, logdepth_qft, standard_qft
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


def phased_hadamard_circuit(rng, n_wires: int, n_h: int, measure_after: dict[int, str]) -> Circuit:
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


def definite_bits(state: sim._DenseState) -> dict[int, int]:
    """Each definite wire's bit, read from the zero in its fixed vector."""
    return {w: int(v[0] == 0) for w, (_, v) in state.sep.items() if 0 in v}


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

    def test_131_phased_hadamards_and_x_y_z_measurements_match_the_reference(self):
        # 131 Hadamards, each on a wire just given P and CP terms, with x, y and z
        # measurements after the 70th, 100th and 120th; the unmeasured circuit's
        # unitary is checked on eight columns
        rng = np.random.default_rng(2201)
        circuit = phased_hadamard_circuit(rng, 7, 131, {70: "x", 100: "y", 120: "z"})
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


class TestTrueAmplitudes:
    """The dense state holds the true state after every gate, held phases
    aside: ``psi`` times the fixed wires' vectors is the true state, and
    each Hadamard applies its 1/sqrt(2) in the writes it makes."""

    @staticmethod
    def column_norms(state: sim._DenseState, n_data: int) -> list[float]:
        """Each column's squared norm; a tied data wire keeps its input-1
        columns at input slot 0, on its own axis's 1 slice.  A fixed
        wire's vector has unit norm, so ``psi`` alone gives the norm."""
        norms = []
        for x in range(1 << n_data):
            fixed = []
            for i in range(n_data):
                bit = x >> i & 1
                if i in state.ties:
                    fixed += [(state.nq + i, 0), (i, bit)]
                else:
                    fixed.append((state.nq + i, bit))
            norms.append(float(np.sum(np.abs(state.psi[state._at(*fixed)]) ** 2)))
        return norms

    def step(self, state: sim._DenseState, n_data: int, gates, kinds: set) -> None:
        """Apply ``gates`` one by one (a z measurement as the bare collapse),
        recording each Hadamard's wire as definite (fixed, with a zero in its
        vector), separable (any other fixed wire), tied or varying and held or
        not, and checking every column's squared norm and every fixed wire's
        vector after each step."""
        rng = np.random.default_rng(38)
        for g in gates:
            if g.family == "measure":
                state.collapse(g.target, rng)
            elif g.family == "h":
                w = g.target
                kind = (
                    "definite" if w in definite_bits(state)
                    else "separable" if w in state.sep
                    else "tied" if w in state.ties
                    else "varying"
                )
                kinds.add((kind, bool(state.pending[w])))
                state.h(w)
            elif g.family == "phase":
                state.phase(g.qubits(), g.theta)
            else:
                state.flip(g.qubits())
            assert np.allclose(self.column_norms(state, n_data), 1.0, rtol=0.0, atol=1e-12), g
            for _, v in state.sep.values():
                assert abs(abs(v[0]) ** 2 + abs(v[1]) ** 2 - 1.0) < 1e-12, g
        state.settle_all()
        assert not state.sep
        assert np.allclose(self.column_norms(state, n_data), 1.0, rtol=0.0, atol=1e-12)

    def test_every_gate_leaves_unit_columns(self):
        kinds: set = set()
        # one basis column, x = 0b0010: every wire starts definite, wire 1 at 1.  Wire 0
        # turns separable and takes its own P and the CP with the definite 1 as a P; the
        # CNOT merges it, the CP between the varying wire 2 and wire 1 is a P on wire 2,
        # and wire 1's own P is folded into its vector by its Hadamard
        psi = np.zeros([2] * 4, dtype=np.complex128)
        psi.flat[0b0010] = 1.0
        state = sim._DenseState(psi, 4, {w: 0b0010 >> w & 1 for w in range(4)})
        self.step(state, 0, [
            H(0), P(0, dyadic(1, 3)), CP(0, 1, dyadic(3, 4)), H(0), CNOT(0, 2), CP(2, 1, dyadic(5, 5)),
            P(1, dyadic(1, 4)), H(1), MeasureBasis(2, "z", 0), H(2), X(1), CP(1, 2, dyadic(5, 6)), H(1),
            Toffoli(0, 1, 3), H(3),
        ], kinds)
        # a batch of 8 columns as extract_unitary makes it: data wires 0-2 tied, ancilla 3
        # fixed at 0, separable after its H until the CP with the tied wire 1 merges it
        tensor = np.zeros([2] * 7, dtype=np.complex128)
        tensor.reshape(8, 16)[0, :8] = 1.0
        state = sim._DenseState(tensor, 4, {3: 0}, range(3))
        self.step(state, 3, [
            P(0, dyadic(1, 3)), CP(0, 1, dyadic(3, 4)), H(0), H(3), CP(3, 1, dyadic(1, 5)), H(1), H(0),
            CNOT(0, 2), P(2, dyadic(7, 8)), H(2), Toffoli(1, 2, 3), H(3),
        ], kinds)
        assert {kind for kind, held in kinds if held} == {"separable", "definite", "tied", "varying"}


class TestDefiniteWires:
    """A wire that holds one bit in every column costs no pass over the state:
    each case below puts definite wires under one kind of kernel."""

    @staticmethod
    def check(circuit: Circuit, x: int, seed: int = 0) -> None:
        got = run_dense(circuit, x=x, rng=np.random.default_rng(seed))
        want, classical = reference_run(circuit, x, np.random.default_rng(seed))
        assert got.classical == classical
        assert np.max(np.abs(got.state - want)) < 1e-12

    def test_x_on_a_definite_one_that_holds_terms(self):
        # wire 1 holds P and a CP with the varying wire 0 when the X flips it
        b = CircuitBuilder(3)
        b.h(0)
        b.p(1, dyadic(3, 5))
        b.cp(0, 1, dyadic(7, 6))
        b.x(1)
        b.h(0)
        b.h(1)
        circuit = b.build()
        for x in (0b010, 0b011, 0b110, 0b111):
            self.check(circuit, x)

    def test_flips_with_definite_controls_and_targets(self):
        # wire 1 reads 0 and wire 3 reads 1 at each input; wire 3 holds a CP with wire 0;
        # a flip with a definite 0 control is the identity, and any other flip makes the
        # definite wires it touches vary
        b = CircuitBuilder(4)
        b.h(0)
        b.cp(0, 3, dyadic(1, 3))
        b.cnot(1, 2)  # a definite 0 control
        b.toffoli(1, 0, 3)  # a definite 0 control beside a varying one
        b.toffoli(3, 0, 2)  # a definite 1 control beside a varying one
        b.cnot(0, 3)  # a varying control onto a definite target
        b.h(3)
        circuit = b.build()
        for x in (0b1000, 0b1100, 0b1001, 0b1101):
            self.check(circuit, x)

    @staticmethod
    def basis_state(nq: int, x: int, gates) -> sim._DenseState:
        """The dense state of basis input ``x`` after ``gates``, with no settle at the end."""
        psi = np.zeros([2] * nq, dtype=np.complex128)
        psi.flat[x] = 1.0
        state = sim._DenseState(psi, nq, {w: x >> w & 1 for w in range(nq)})
        for g in gates:
            if g.family == "h":
                state.h(g.target)
            elif g.family == "phase":
                state.phase(g.qubits(), g.theta)
            else:
                state.flip(g.qubits())
        return state

    def test_a_definite_one_control_stays_fixed(self):
        # from x = 0b10001, wire 4 reads 1: CNOT(4, 2) flips wire 2 as X(2) does and
        # leaves the live block the size X(2) leaves it, with wire 4 still fixed at its
        # basis vector; a Toffoli with the definite 1 as one control is the CNOT from
        # the other
        head = [H(0), CNOT(0, 1)]
        states = {
            name: self.basis_state(5, 0b10001, [*head, gate])
            for name, gate in (("x", X(2)), ("cnot", CNOT(4, 2)), ("toffoli", Toffoli(4, 0, 2)), ("cnot02", CNOT(0, 2)))
        }
        assert states["cnot"].sep[4] == (1, [0.0, 1.0])
        assert states["toffoli"].sep[4] == (1, [0.0, 1.0])
        assert states["cnot"]._live().size == states["x"]._live().size == 8  # wires 0-2 vary
        assert np.array_equal(states["cnot"].psi, states["x"].psi)
        assert np.array_equal(states["toffoli"].psi, states["cnot02"].psi)
        assert states["toffoli"]._live().size == states["cnot02"]._live().size
        tail = [H(2), CP(4, 2, dyadic(3, 4)), CP(2, 1, dyadic(1, 3)), H(4), CNOT(4, 3), H(1)]
        for gate in (CNOT(4, 2), Toffoli(4, 0, 2)):
            circuit = Circuit.from_gates([*head, gate, *tail], 5)
            for x in range(32):
                self.check(circuit, x)

    # wire 0 after H H is definite, its vector (c, 0) or (0, c) with c off 1 in the
    # last bit; after H P(1/2) H it is definite at the other bit, at the old slot,
    # since the half turn's phase is exactly -1; a P on a definite 1 leaves its
    # vector (0, 1) with an own term that a merge must apply
    PREFIXES = {
        "hh": [H(0), H(0)],
        "hph": [H(0), P(0, dyadic(1, 1)), H(0)],
        "own": [P(0, dyadic(3, 5))],
    }

    def test_the_prefixes_leave_the_vectors_they_name(self):
        for x in (0, 1):
            vectors = {}
            for name, gates in self.PREFIXES.items():
                state = self.basis_state(2, x, gates)
                vectors[name] = state.sep[0]
                assert definite_bits(state).get(0) == (1 - x if name == "hph" else x)
                assert bool(state.pending[0]) == (name == "own" and x == 1)
            slot, v = vectors["hh"]
            assert slot == x and v[1 - x] == 0 and 0.99 < abs(v[x]) != 1
            slot, v = vectors["hph"]
            assert slot == x and v[x] == 0 and 0.99 < abs(v[1 - x]) != 1
            assert vectors["own"] == (x, [1 - x, x])

    @pytest.mark.parametrize("prefix", sorted(PREFIXES))
    @pytest.mark.parametrize(
        "use",
        [
            [H(1), CP(0, 1, dyadic(3, 4)), H(1)],  # a CP partner
            [H(1), CP(1, 0, dyadic(5, 3)), P(0, dyadic(1, 3)), CP(0, 3, dyadic(1, 2))],
            [H(1), CNOT(0, 2), Toffoli(0, 1, 3), H(2)],  # a flip control
            [H(1), CNOT(1, 0), H(0), CP(0, 1, dyadic(1, 3))],  # a flip target
            [X(0), H(0), H(1), CNOT(0, 1)],
            [H(1), MeasureBasis(0, "z", 0), H(0), CP(0, 1, dyadic(3, 4))],  # a collapse
            [H(1), MeasureBasis(0, "x", 0), CNOT(0, 1), MeasureBasis(1, "y", 1)],
            [],  # merged only at the end
        ],
        ids=["cp", "cp-and-p", "control", "target", "x", "collapse", "x-y-measure", "end"],
    )
    def test_exact_zeros_and_held_phases_on_fixed_wires(self, prefix, use):
        circuit = Circuit.from_gates([*self.PREFIXES[prefix], *use], 4, n_classical=2)
        seeds = range(3) if circuit.has_measurement() else range(1)
        for x in range(16):
            for seed in seeds:
                self.check(circuit, x, seed)

    def test_cp_between_definite_ones_then_h_on_both(self):
        b = CircuitBuilder(3)
        b.h(2)
        b.cp(0, 1, dyadic(5, 4))
        b.p(0, dyadic(1, 3))
        b.cp(1, 2, dyadic(3, 3))
        b.h(0)
        b.h(1)
        circuit = b.build()
        for x in range(8):  # x = 3 and 7 hold the CP between two definite 1s
            self.check(circuit, x)

    def test_measuring_a_definite_wire_draws_once(self):
        # wire 1 is measured in x while definite; wire 2 in z while definite, then
        # in y after a CNOT from the varying wire 0
        b = CircuitBuilder(3)
        b.h(0)
        b.measure(1, "x")
        b.measure(2, "z")
        b.cnot(0, 2)
        b.measure(2, "y")
        b.measure(0, "x")
        circuit = b.build()
        for x in range(8):
            for seed in range(4):
                self.check(circuit, x, seed)
                dense = run_dense(circuit, x=x, rng=np.random.default_rng(seed))
                sparse = run_sparse(circuit, x=x, rng=np.random.default_rng(seed))
                assert dense.classical == sparse.classical

    def test_h_after_a_collapse(self):
        # the collapse leaves wire 0 definite, and the next Hadamard makes it vary again
        b = CircuitBuilder(3)
        b.h(0)
        b.cnot(0, 1)
        b.cp(1, 2, dyadic(1, 2))
        b.measure(0, "z")
        b.h(0)
        b.cp(0, 1, dyadic(3, 4))
        b.h(1)
        b.measure(1, "z")
        b.h(1)
        circuit = b.build()
        for x in (0b000, 0b100):
            for seed in range(4):
                self.check(circuit, x, seed)

    def test_slots_off_the_live_block_hold_zeros(self, monkeypatch):
        # the definite wires are read just before settle_all merges every fixed wire
        definite = []
        settle_all = sim._DenseState.settle_all

        def capturing(state):
            definite.append(definite_bits(state))
            settle_all(state)

        monkeypatch.setattr(sim._DenseState, "settle_all", capturing)
        rng = np.random.default_rng(3303)
        for trial in range(10):
            circuit = phase_heavy_circuit(rng, 5, 30)
            x = int(rng.integers(0, 32))
            psi = np.zeros([2] * 5, dtype=np.complex128)
            psi.flat[x] = 1.0
            state = sim._DenseState(psi, 5, {w: x >> w & 1 for w in range(5)})
            sim._evolve(state, circuit, np.random.default_rng(trial))
            want, _ = reference_run(circuit, x, np.random.default_rng(trial))
            assert np.max(np.abs(state.psi.reshape(-1) - want)) < 1e-12
            for w, bit in definite[-1].items():
                assert not state.psi[state._at((w, 1 - bit))].any()
        assert len(definite) == 10 and any(definite)  # some trial ends with definite wires


class TestSeparableWires:
    """A Hadamard on a definite wire keeps the wire as its own one-qubit
    factor, and only a gate that entangles it, a collapse on it or
    ``settle_all`` multiplies it into the block."""

    @pytest.mark.parametrize("circuit", [standard_qft(12), banded_qft(12, 4)], ids=["standard", "banded"])
    def test_the_ladder_writes_one_amplitude_until_settle_all(self, circuit, monkeypatch):
        counts = []
        settle_all = sim._DenseState.settle_all

        def counting(state):
            counts.append(int(np.count_nonzero(state.psi)))
            settle_all(state)

        monkeypatch.setattr(sim._DenseState, "settle_all", counting)
        for x in (0, 2741, 4095):
            got = run_dense(circuit, x=x).state
            want = as_vector(run_sparse(circuit, x=x).amplitudes, 12)
            assert np.max(np.abs(got - want)) < 1e-12
        assert counts == [1, 1, 1]

    def test_entangling_gates_flips_and_collapses_merge_a_separable_wire(self):
        b = CircuitBuilder(6)
        b.h(0)
        b.h(1)
        b.h(5)
        b.p(0, dyadic(3, 5))
        b.cp(0, 2, dyadic(7, 6))  # against a definite wire: an own term on wire 0, or nothing
        b.cp(0, 1, dyadic(5, 4))  # between two separable wires
        b.h(3)
        b.p(3, dyadic(5, 3))
        b.h(3)  # a Hadamard on a separable wire that holds its own term
        b.x(3)  # a separable flip target
        b.h(4)
        b.cnot(4, 2)  # a separable control
        b.p(5, dyadic(1, 3))
        b.measure(5, "z")  # a collapse on a separable wire that holds its own term
        b.measure(1, "x")
        b.toffoli(0, 5, 1)
        b.measure(2, "y")
        b.h(5)
        b.cp(5, 4, dyadic(1, 2))
        circuit = b.build()
        for x in range(64):
            for seed in range(3):
                got = run_dense(circuit, x=x, rng=np.random.default_rng(seed))
                want, classical = reference_run(circuit, x, np.random.default_rng(seed))
                assert got.classical == classical
                assert got.classical == run_sparse(circuit, x=x, rng=np.random.default_rng(seed)).classical
                assert np.max(np.abs(got.state - want)) < 1e-12

    def test_a_definite_one_with_a_varying_partner(self):
        # wire 2 reads 1, so its CP with the varying wire 0 is a P on wire 0, and wire 2
        # holds only its own P; its Hadamard folds that into its vector, and the wire
        # stays fixed until the CNOT merges it
        b = CircuitBuilder(4)
        b.h(0)
        b.cnot(0, 1)
        b.cp(0, 2, dyadic(3, 4))
        b.p(2, dyadic(1, 3))
        b.h(2)
        b.p(2, dyadic(5, 4))
        b.h(2)
        b.cnot(2, 3)
        circuit = b.build()
        state = sim._DenseState(np.zeros([2] * 4, dtype=np.complex128), 4, {w: 0b0100 >> w & 1 for w in range(4)})
        state.psi.flat[0b0100] = 1.0
        state.h(0)
        state.flip((0, 1))
        state.phase((0, 2), dyadic(3, 4))
        state.phase((2,), dyadic(1, 3))
        assert set(state.pending[2]) == {2} and set(state.pending[0]) == {0}
        assert definite_bits(state)[2] == 1
        state.h(2)
        assert 2 in state.sep and not state.pending[2]
        for x in (0b0100, 0b0101, 0b1110):
            want, _ = reference_run(circuit, x, np.random.default_rng(0))
            assert np.max(np.abs(run_dense(circuit, x=x).state - want)) < 1e-12

    def test_a_separable_ancilla_against_a_tied_wire(self):
        # the ancilla is separable after its H, and the CP with the tied wire 0 merges it
        b = CircuitBuilder(3)
        (a,) = b.new_ancillas(1)
        start = b.mark()
        b.h(a)
        b.cp(a, 0, dyadic(3, 4))
        stop = b.mark()
        b.h(1)
        b.cp(1, 2, dyadic(1, 3))
        b.uncompute(start, stop)
        circuit = b.build()
        want = np.stack([run_dense(circuit, x).state[:8] for x in range(8)], axis=1)
        assert np.max(np.abs(extract_unitary(circuit) - want)) < 1e-12

    def test_a_definite_zero_control_is_the_identity(self):
        # wires 0 and 1 read 0, wires 2 and 3 read 1, and wire 4 is separable
        psi = np.zeros([2] * 5, dtype=np.complex128)
        psi.flat[0b01100] = 1.0
        state = sim._DenseState(psi, 5, {w: 0b01100 >> w & 1 for w in range(5)})
        state.h(4)
        bits, before = definite_bits(state), state.psi.copy()
        assert bits == {0: 0, 1: 0, 2: 1, 3: 1}
        for wires in ((1, 3), (0, 2, 3), (4, 1, 2), (3, 0, 4)):
            state.flip(wires)
            assert definite_bits(state) == bits
            assert 4 in state.sep
        assert np.array_equal(state.psi, before)


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

    def test_every_simulator_refuses_a_non_integer_input(self):
        # an int() on the way in would run 1.5 as 1 and an initial key 0.5 as 0
        b = CircuitBuilder(2)
        b.cnot(0, 1)
        c = b.build()
        runs = [
            lambda v: run_dense(c, v),
            lambda v: run_sparse(c, v),
            lambda v: run_classical_bits(c, v),
            lambda v: run_sparse(c, initial={v: 1.0}),
        ]
        for run in runs:
            for bad in (1.0, 1.5, 0.5):
                with pytest.raises(TypeError, match="integer"):
                    run(bad)
        # numpy integers and bools are integers
        assert set(run_sparse(c, initial={np.int64(1): 1.0}).amplitudes) == {3}
        assert set(run_sparse(c, np.uint8(1)).amplitudes) == {3}
        assert run_classical_bits(c, True) == 3
        np.testing.assert_array_equal(run_dense(c, np.int32(1)).state, np.eye(4)[3])

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

    def test_sparse_marginal_equals_the_loop_over_entries(self, rng):
        # keys past 64 bits, wires out of order and one past every key; the sums
        # run in the dict's order, so they equal the per-entry loop bit for bit
        keys = {int(hi) << 40 | int(lo) for hi, lo in rng.integers(0, 1 << 40, size=(300, 2))}
        amps = {k: complex(*rng.normal(size=2)) for k in keys}
        wires = [75, 3, 40, 0, 90, 17]
        want = np.zeros(1 << len(wires))
        for idx, amp in amps.items():
            want[sum(((idx >> w) & 1) << j for j, w in enumerate(wires))] += abs(amp) ** 2
        assert sparse_marginal(amps, wires).tolist() == want.tolist()

    def test_sparse_marginal_refuses_a_negative_wire(self):
        # numpy would shift by a negative count to 0 and read the wire as unset
        with pytest.raises(ValueError, match="wires"):
            sparse_marginal({1: 1.0}, [0, -1])

    def test_sparse_marginal_refuses_past_the_dense_cap_before_reading(self, monkeypatch):
        # the marginal is a dense array of 2**len(wires) entries: 27 wires would be 1 GiB
        def no_read(*args, **kwargs):
            raise AssertionError("the cap must refuse before any key is read")

        monkeypatch.setattr(sim, "_read_bits", no_read)
        with pytest.raises(CapacityError, match="27 wires exceeds dense cap 26"):
            sparse_marginal({0: 1.0}, range(sim.MAX_DENSE_QUBITS + 1))

    def test_sparse_marginal_of_no_amplitudes_is_zero(self):
        probs = sparse_marginal({}, [0, 3])
        assert probs.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert sparse_marginal({}, []).tolist() == [0.0]

    @pytest.mark.parametrize("num_rows", [0, 1, 8, 63, 64, 65, 128, 129, 200])
    def test_bit_rows_equals_the_loop_over_keys(self, rng, num_rows):
        # one 64-bit limb per key up to 64 rows, several past it; the all-ones key fills every limb
        drawn = [int.from_bytes(rng.bytes(26), "little") >> (208 - num_rows) for _ in range(37)]
        keys = [(1 << num_rows) - 1, 0] + drawn
        want = np.array([[k >> i & 1 for k in keys] for i in range(num_rows)], dtype=np.uint8)
        want = want.reshape(num_rows, len(keys))
        got = sim._bit_rows(keys, num_rows)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert sim._bit_rows([], num_rows).shape == (num_rows, 0)


    def test_sparse_keys_past_sixty_four_wires(self):
        b = CircuitBuilder(70)
        b.x(66)
        b.h(65)
        b.cnot(65, 69)
        amps = run_sparse(b.build(), x=1).amplitudes
        assert set(amps) == {1 + 2**66, 1 + 2**65 + 2**66 + 2**69}
        for amp in amps.values():
            assert abs(amp - 2**-0.5) < 1e-12

    def test_merging_hadamards_past_bit_sixty_three(self, rng, random_circuit, monkeypatch):
        # five wires on both sides of the first word boundary: the merge clears bit w in either word
        wires = [0, 63, 64, 65, 70]
        small = CircuitBuilder(5)
        for w in [*range(5), *rng.permutation(5).tolist()]:
            small.h(w)
        small.inline(random_circuit(rng, n_qubits=5, n_gates=24), range(5))
        for w in rng.permutation(5).tolist():
            small.h(w)
        small = small.build()
        wide = CircuitBuilder(71)
        wide.inline(small, wires)
        packed = []
        pack = sim._pack

        def counting_pack(bits):
            packed.append(bits.shape)
            return pack(bits)

        monkeypatch.setattr(sim, "_pack", counting_pack)
        amps = run_sparse(wide.build()).amplitudes
        assert len(packed) > 10  # the readback packs once; every other call is a merge
        assert all(k & ~sum(1 << w for w in wires) == 0 for k in amps)
        relabelled = {sum((k >> w & 1) << j for j, w in enumerate(wires)): a for k, a in amps.items()}
        assert np.abs(as_vector(relabelled, 5) - run_dense(small).state).max() < 1e-12


class TestKeys:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 128, 129])
    def test_keys_match_a_per_column_sum(self, rows):
        bits = np.random.default_rng(rows).random((rows, 40)) < 0.5
        bits[:, 0] = False
        bits[:, 1] = True
        want = [sum(int(bits[i, j]) << i for i in range(rows)) for j in range(bits.shape[1])]
        got = sim._keys(bits)
        assert got == want
        assert all(type(k) is int for k in got)


class TestPhaseTable:
    """``_table`` fills one preallocated table in place, equal to the doubling by concatenation."""

    @staticmethod
    def concatenated(state: sim._DenseState, w: int) -> np.ndarray:
        terms = dict(state.pending[w])
        table = np.array([sim._turn_phase(terms.pop(w, 0))])
        shape = [1] * state.psi.ndim
        for b in sorted(terms):
            table = np.concatenate((table, table * sim._turn_phase(terms[b])))
            shape[state.psi.ndim - 1 - b] = 2
        fixed = {state.psi.ndim - 1 - v for v in (*state.sep, w)}
        return table.reshape([s for axis, s in enumerate(shape) if axis not in fixed])

    @staticmethod
    def state(nq: int, ones: list[int]) -> sim._DenseState:
        return sim._DenseState(np.zeros([2] * nq, dtype=np.complex128), nq, dict.fromkeys(ones, 1))

    def assert_bitwise_equal(self, state: sim._DenseState, w: int) -> None:
        assert not state.pending[w].keys() & state.sep.keys()  # a definite partner resolved at its gate
        want = self.concatenated(state, w)
        got = state._table(w)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not state.pending[w] and all(w not in terms for terms in state.pending)

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_partners_match_the_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        nq = 8
        ones = [int(v) for v in rng.choice(nq, size=int(rng.integers(0, 4)), replace=False)]
        state = self.state(nq, ones)
        w = int(rng.choice([v for v in range(nq) if v not in ones]))  # a definite w holds no table
        for _ in range(int(rng.integers(1, 12))):
            theta = dyadic(int(rng.integers(1, 1 << 62)), int(rng.choice([3, 30, 64])))
            partner = int(rng.integers(0, nq))
            state.phase((w, partner) if partner != w else (w,), theta)
        self.assert_bitwise_equal(state, w)

    @pytest.mark.parametrize(
        "wires", [[(0,)], [(0, 1)], [(0, 2)], [(0,), (0, 1)], [(0,), (0, 2)]], ids=str
    )
    def test_no_partner_and_one_partner(self, wires):
        # wire 1 varies and wire 2 is definite at 1
        state = self.state(3, [2])
        for i, ws in enumerate(wires):
            state.phase(ws, dyadic(2 * i + 3, 7))
        self.assert_bitwise_equal(state, 0)


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
        # the draw's flip gates, H and CP dropped: over 7 data wires and 2 ancillas on
        # every input, then over 66 data wires and 4 ancillas, so the readback crosses
        # a 64-bit word, on 37 drawn inputs, a batch that is no multiple of 8
        rng = np.random.default_rng(seed)
        for n_data, n_ancilla in ((7, 2), (66, 4)):
            draw = random_circuit(rng, n_qubits=n_data + n_ancilla, n_gates=80)
            c = Circuit.from_gates([g for g in draw.all_gates() if g.family == "flip"], n_data, n_ancilla)
            if n_data == 7:
                xs = list(range(1 << 7))
            else:
                xs = [int.from_bytes(rng.bytes(9), "little") >> 6 for _ in range(37)]
            batch = run_classical_batch(c, xs)
            assert batch == [run_classical_bits(c, x) for x in xs]
            assert batch == [per_gate_walk(c, x) for x in xs]
            for x in xs[:3]:  # the sparse simulator reads its columns back the same way
                assert run_sparse(c, x).amplitudes == {per_gate_walk(c, x): 1.0}

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
    def test_qft_matches_reference_after_bit_reversal(self, bit_reversed):
        for n in (1, 2, 3, 4):
            u = extract_unitary(standard_qft(n))[bit_reversed(n), :]
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

    @staticmethod
    def with_two_ancillas() -> tuple[CircuitBuilder, list[int]]:
        b = CircuitBuilder(4)
        ancillas = b.new_ancillas(2)
        return b, ancillas

    def test_a_measuring_circuit_is_refused(self):
        circuit = Circuit.from_gates([H(0), MeasureBasis(0, "z", 0)], 1, n_classical=1)
        with pytest.raises(SimulationError, match="cannot extract a unitary from a measuring circuit"):
            extract_unitary(circuit)

    def test_dense_path_refuses_an_entangled_ancilla(self):
        b, ancillas = self.with_two_ancillas()
        b.h(0)
        b.cnot(0, ancillas[-1])
        circuit = b.build()
        assert circuit.width <= MAX_UNITARY_QUBITS
        with pytest.raises(SimulationError, match="ancillas"):
            extract_unitary(circuit)

    def test_dense_path_refuses_a_flipped_ancilla(self):
        b, ancillas = self.with_two_ancillas()
        b.x(ancillas[0])
        with pytest.raises(SimulationError, match="ancillas"):
            extract_unitary(b.build())

    def test_dense_path_matches_the_reference_after_uncompute(self):
        b, (a0, a1) = self.with_two_ancillas()
        b.h(0)
        b.h(1)
        start = b.mark()
        b.toffoli(0, 1, a0)
        b.x(a1)
        b.cnot(a0, a1)
        stop = b.mark()
        b.cp(a1, 2, dyadic(3, 4))
        b.p(a0, dyadic(1, 3))
        b.h(3)
        b.uncompute(start, stop)
        circuit = b.build()
        want = np.stack([reference_run(circuit, x, None)[0][:16] for x in range(16)], axis=1)
        assert np.max(np.abs(extract_unitary(circuit) - want)) < 1e-12

    def test_a_flip_ends_a_twin_on_the_wide_path(self):
        # each CNOT flips wire 1, which then no longer equals its reference row, so
        # the H on wire 1 must pair the columns that the flips brought together
        gates = [H(0), CNOT(0, 1), H(0), CNOT(0, 1), H(1)]
        padded = Circuit.from_gates(gates, 2, n_ancilla=11)
        assert padded.width > MAX_UNITARY_QUBITS
        want = extract_unitary(Circuit.from_gates(gates, 2))
        assert np.max(np.abs(extract_unitary(padded) - want)) < 1e-12

    def test_tied_wires_match_per_column_dense_runs(self):
        # wire 1 is a flip target before its H, wires 0 and 2 control a CNOT and a
        # Toffoli while tied, P and CP act on tied wires, wire 3 is still tied at the
        # end with held terms, and wire 4 is never touched; a flip that kept its
        # target tied would return a unitary but wrong matrix
        b = CircuitBuilder(5)
        (a,) = b.new_ancillas(1)
        b.p(2, dyadic(1, 3))
        b.cp(0, 3, dyadic(3, 4))
        b.cnot(0, 1)
        b.toffoli(0, 2, a)
        b.cp(a, 3, dyadic(1, 2))
        b.toffoli(0, 2, a)
        b.h(1)
        b.cp(1, 2, dyadic(5, 4))
        b.h(2)
        b.h(0)
        circuit = b.build()
        assert circuit.width <= MAX_UNITARY_QUBITS
        want = np.stack([run_dense(circuit, x).state[:32] for x in range(32)], axis=1)
        assert np.max(np.abs(extract_unitary(circuit) - want)) < 1e-12

    def test_a_hadamard_on_a_tied_wire_applies_its_held_terms(self):
        # wire 0 is still tied at its H and holds its own P and three CP terms: with
        # the ancilla flipped to 1, with wire 1 (still tied) and with wire 2 (varying
        # since its own tied H, which holds no terms)
        b = CircuitBuilder(4)
        (a,) = b.new_ancillas(1)
        b.h(2)
        b.x(a)
        b.p(0, dyadic(3, 5))
        b.cp(0, a, dyadic(1, 3))
        b.cp(0, 1, dyadic(7, 4))
        b.cp(2, 0, dyadic(5, 6))
        b.h(0)
        b.x(a)
        b.cp(1, 3, dyadic(1, 2))
        b.h(1)
        circuit = b.build()
        assert circuit.width <= MAX_UNITARY_QUBITS
        want = np.stack([run_dense(circuit, x).state[:16] for x in range(16)], axis=1)
        assert np.max(np.abs(extract_unitary(circuit) - want)) < 1e-12

    def test_qft_at_the_cap_matches_the_reference(self, bit_reversed):
        # 12 data wires, MAX_UNITARY_QUBITS; the reference 512 rows at a time, so
        # the unitary is the one 4096^2 array held
        n = MAX_UNITARY_QUBITS
        dim = 1 << n
        u = extract_unitary(standard_qft(n))
        rows, idx = bit_reversed(n), np.arange(dim)
        for i in range(0, dim, 512):
            want = sim._dft_block(dim, idx[i : i + 512], idx)
            assert np.max(np.abs(u[rows[i : i + 512]] - want)) < 1e-9

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


def planted_defect(d: int, at: tuple[int, int], size: float) -> np.ndarray:
    """A random unitary whose Gram entry ``at`` is moved off the identity by ``size``.

    On the diagonal, column i is scaled by sqrt(1 + size); below it, column i
    takes ``size`` of column l and is renormalised, so columns keep unit norm.
    """
    u = random_unitary(np.random.default_rng(d), d)
    i, l = at
    if i == l:
        u[:, i] *= np.sqrt(1.0 + size)
    else:
        u[:, i] = (u[:, i] + size * u[:, l]) / np.sqrt(1.0 + size**2)
    return u


class TestUnitarityProbe:
    """16 seeded probe columns pass a unitary; any larger residual runs the exact check."""

    # true unitaries read about 1e-14 against a bar of UNITARY_TOL / 16 = 6.25e-11
    @pytest.mark.parametrize("n", [1, 8, 10, 12])
    def test_exact_unitaries_pass_far_below_the_bar(self, n):
        assert sim._probe_residual(extract_unitary(standard_qft(n))) < sim._PROBE_BAR / 1000

    # defects in (tau, 2 tau]: on the diagonal, and below it where the exact check
    # reads the entry through its mirror
    @pytest.mark.parametrize("at", [(100, 100), (200, 7)])
    def test_a_defect_just_over_the_tolerance_is_refused(self, at):
        u = planted_defect(256, at, 1.5 * sim.UNITARY_TOL)
        defect = sim._unitarity_defect(u)
        assert sim.UNITARY_TOL < defect <= 2 * sim.UNITARY_TOL
        assert sim._probe_residual(u) > sim._PROBE_BAR
        with pytest.raises(SimulationError, match=f"not unitary: defect {defect:.3e}"):
            sim._checked_unitary(u)

    def test_a_defect_between_the_bar_and_the_tolerance_falls_back_and_passes(self, monkeypatch):
        u = planted_defect(256, (200, 7), 0.5 * sim.UNITARY_TOL)
        before = u.copy()
        assert sim._PROBE_BAR < sim._unitarity_defect(u) <= sim.UNITARY_TOL
        assert sim._probe_residual(u) > sim._PROBE_BAR
        exact = sim._unitarity_defect
        calls = []
        monkeypatch.setattr(sim, "_unitarity_defect", lambda m: calls.append(m) or exact(m))
        assert sim._checked_unitary(u) is u
        assert len(calls) == 1 and calls[0] is u
        assert np.array_equal(u, before)

    @pytest.mark.parametrize("wide", [False, True])
    def test_a_unitary_never_reaches_the_exact_check(self, wide, monkeypatch):
        def exact(u):
            raise AssertionError("the probe should have passed this unitary")

        circuit = standard_qft(4 if wide else 10)
        if wide:
            circuit = Circuit.from_gates(list(circuit.all_gates()), 4, n_ancilla=10)
        monkeypatch.setattr(sim, "_unitarity_defect", exact)
        extract_unitary(circuit)

    def test_the_constants_bound_a_miss_below_two_to_the_minus_64(self):
        # rounding of W at the cap, then a miss needs all 16 columns at most bar + rounding
        rounding = 2 * (1 << MAX_UNITARY_QUBITS) ** 1.5 * 2.0**-53
        assert rounding <= sim._PROBE_BAR
        assert ((sim._PROBE_BAR + rounding) / sim.UNITARY_TOL) ** (2 * sim._PROBES) <= 2.0**-64


class TestReferencesAndMetrics:
    def test_dft_reference_is_unitary(self):
        for m in (2, 3, 7, 12):
            f = dft_reference(m)
            assert np.linalg.norm(f.conj().T @ f - np.eye(m), 2) < 1e-12

    def test_dft_reference_entries(self):
        f = dft_reference(4)
        assert f[1, 1] == pytest.approx(1j / 2)
        assert f[2, 3] == pytest.approx(-0.5)

    def test_dft_reference_probe_residual_at_1024(self):
        # the phase of each entry is formed from x*y mod m, not from the unreduced product
        assert sim._probe_residual(dft_reference(1024)) <= 1e-13

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
    def test_dense_cap_is_checked_before_any_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the dense cap must refuse before the state is allocated")

        circuit = Circuit.from_gates([H(sim.MAX_DENSE_QUBITS)], sim.MAX_DENSE_QUBITS + 1)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(CapacityError, match="27 qubits exceeds dense cap 26"):
            run_dense(circuit)

    def test_sparse_support_cap(self, monkeypatch):
        b = CircuitBuilder(8)
        for w in range(8):
            b.h(w)
        monkeypatch.setattr(sim, "SPARSE_SUPPORT_CAP", 64)
        with pytest.raises(CapacityError):
            run_sparse(b.build())
