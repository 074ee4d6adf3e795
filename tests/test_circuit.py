import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qftkit import circuit as circuit_module
from qftkit.circuit import (
    CNOT,
    CP,
    MAX_LOG_DENOMINATOR,
    Circuit,
    CircuitBuilder,
    DyadicAngle,
    H,
    MeasureBasis,
    P,
    Toffoli,
    X,
    dyadic,
)
from qftkit.errors import StructuralError
from qftkit.qft_pow2 import QftPlan, copy_fourier, logdepth_qft, prep_exact, split_qft, standard_qft
from qftkit.shor import build_order_circuit
from qftkit.sim import extract_unitary, run_sparse


class TestDyadicAngle:
    def test_reduces_to_odd_numerator(self):
        assert dyadic(2, 3) == dyadic(1, 2)
        assert dyadic(12, 4) == dyadic(3, 2)

    def test_wraps_mod_one_turn(self):
        assert dyadic(9, 3) == dyadic(1, 3)
        assert dyadic(-1, 3) == dyadic(7, 3)

    def test_zero_collapses_denominator(self):
        assert dyadic(0, 7) == dyadic(0, 0)
        assert str(dyadic(0, 7)) == "0"

    def test_str_form(self):
        assert str(dyadic(3, 3)) == "3/2^3"

    def test_negation_is_involution_mod_one(self):
        a = dyadic(3, 4)
        assert -(-a) == a
        assert float(-a) == pytest.approx(1 - 3 / 16)

    def test_denominator_cap(self):
        dyadic(1, MAX_LOG_DENOMINATOR)
        with pytest.raises(StructuralError):
            dyadic(1, MAX_LOG_DENOMINATOR + 1)

    @given(st.integers(-500, 500), st.integers(0, 16))
    def test_phase_matches_float(self, num, ld):
        a = DyadicAngle(num, ld)
        assert 0 <= float(a) < 1
        expected = complex(math.cos(math.tau * float(a)), math.sin(math.tau * float(a)))
        assert a.phase() == pytest.approx(expected)

    def test_quarter_turn_phases_are_exact(self):
        # at any denominator, so a Z, S or S† leaves a basis vector with an exact zero
        for ld in (2, 10, MAX_LOG_DENOMINATOR):
            for k, want in enumerate((1, 1j, -1, -1j)):
                got = DyadicAngle(k << (ld - 2), ld).phase()
                assert type(got) is complex and got == want

    @staticmethod
    def halved(num: int, ld: int) -> tuple[int, int]:
        """The reduction by repeated halving: the reference for the one bit operation."""
        num %= 1 << ld
        while num and num % 2 == 0:
            num //= 2
            ld -= 1
        return (num, ld) if num else (0, 0)

    @given(
        st.one_of(
            st.integers(2**64 - 2**16, 2**64 + 2**16),
            st.integers(-(2**65), 2**65),
            st.tuples(st.integers(-(2**64), 2**64), st.integers(0, 70)).map(lambda t: t[0] << t[1]),
        ),
        st.integers(0, MAX_LOG_DENOMINATOR),
    )
    def test_reduction_matches_repeated_halving(self, num, ld):
        a = DyadicAngle(num, ld)
        assert (a.numerator, a.log_denominator) == self.halved(num, ld)


class TestBuilderAndLayers:
    def test_asap_packs_disjoint_gates(self):
        b = CircuitBuilder(4)
        b.h(0)
        b.h(1)
        b.cnot(2, 3)
        c = b.build()
        assert c.depth == 1
        assert c.size == 3

    def test_asap_stacks_overlapping_gates(self):
        b = CircuitBuilder(2)
        b.h(0)
        b.cnot(0, 1)
        b.h(1)
        assert b.build().depth == 3

    def test_from_layers_rejects_wire_reuse_in_layer(self):
        with pytest.raises(StructuralError):
            Circuit.from_layers([[H(0), CNOT(0, 1)]], 2)

    def test_uncompute_undoes_the_segment_and_keeps_the_use(self, rng):
        def flip_phase_gates(count):
            gates = []
            for _ in range(count):
                a, b, c = (int(w) for w in rng.choice(4, size=3, replace=False))
                theta = dyadic(int(rng.integers(1, 16)), 4)
                kinds = [X(a), CNOT(a, b), Toffoli(a, b, c), P(a, theta), CP(a, b, theta)]
                gates.append(kinds[int(rng.integers(0, 5))])
            return gates

        def built(gates):
            b = CircuitBuilder(4)
            for g in gates:
                b.add(g)
            return b

        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        initial = dict(enumerate(amps / np.linalg.norm(amps)))
        for _ in range(5):
            pre, seg, use = flip_phase_gates(4), flip_phase_gates(12), flip_phase_gates(3)
            b = built(pre + seg)
            b.uncompute(len(pre), b.mark())
            got = run_sparse(b.build(), initial=initial).amplitudes
            want = run_sparse(built(pre).build(), initial=initial).amplitudes
            assert max(abs(got.get(i, 0) - a) for i, a in want.items()) < 1e-12
            # gates added after ``stop`` (the use) stay between the segment and its inverse
            b = built(pre + seg + use)
            b.uncompute(len(pre), len(pre) + len(seg))
            assert b.build() == built(pre + seg + use + [g.inverse() for g in reversed(seg)]).build()

    def test_ancillas_extend_width(self):
        b = CircuitBuilder(2)
        w = b.new_ancillas(3)
        assert w == [2, 3, 4]
        b.h(w[0])
        c = b.build()
        assert (c.n_qubits, c.n_ancilla, c.width) == (2, 3, 5)

    def test_unallocated_wires_rejected_at_build(self):
        b = CircuitBuilder(2)
        b.h(2)
        with pytest.raises(StructuralError, match="quantum wire 2"):
            b.build()
        b = CircuitBuilder(1)
        b.new_classical()
        b.add(MeasureBasis(0, "z", 1))
        with pytest.raises(StructuralError, match="classical wire"):
            b.build()

    def test_repeated_wire_in_one_gate_rejected_at_build(self):
        b = CircuitBuilder(3)
        b.toffoli(0, 2, 2)
        with pytest.raises(StructuralError, match="quantum wire 2 used twice"):
            b.build()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 3, k=4)), id="logdepth(3,4)"),
            pytest.param(lambda: split_qft(8), id="split_qft(8)"),
            pytest.param(lambda: copy_fourier(3, 4), id="copy_fourier(3,4)"),
            pytest.param(lambda: build_order_circuit(15, 7), id="order_circuit(15,7)"),
        ],
    )
    def test_composite_builders_schedule_once(self, monkeypatch, build):
        # one schedule per composite, and no second walk: the schedule proves the layer rule
        calls = {"schedule": 0, "layer_fault": 0}
        schedule, fault = circuit_module._asap_layers, circuit_module.layer_fault

        def counted_schedule(*args):
            calls["schedule"] += 1
            return schedule(*args)

        def counted_fault(*args):
            calls["layer_fault"] += 1
            return fault(*args)

        monkeypatch.setattr(circuit_module, "_asap_layers", counted_schedule)
        monkeypatch.setattr(circuit_module, "layer_fault", counted_fault)
        build()
        assert calls == {"schedule": 1, "layer_fault": 0}

    def test_metadata_is_attached_but_not_compared(self):
        mk = lambda meta: CircuitBuilder(1).build(metadata=meta)
        assert mk({"kind": "a"}) == mk({"kind": "b"})
        assert mk({"kind": "a"}).metadata["kind"] == "a"


_SCHED_QUBITS, _SCHED_CLBITS = 5, 3


@st.composite
def _gate_sequences(draw, malformed=False):
    """Random gates over a few quantum wires and classical bits, measurements included.

    With ``malformed``, some gates break the layer rule on their own: a wire
    outside ``0.._SCHED_QUBITS-1``, a wire repeated within the gate, or a bit
    outside ``0.._SCHED_CLBITS-1``.
    """
    theta = dyadic(1, 3)
    gates = []
    for kind in draw(st.lists(st.integers(0, 9 if malformed else 6), max_size=40)):
        w = draw(st.permutations(range(_SCHED_QUBITS)))
        if kind == 7:
            w[draw(st.integers(0, 2))] = draw(st.sampled_from((-1, _SCHED_QUBITS, _SCHED_QUBITS + 7)))
            kind = draw(st.integers(0, 5))
        elif kind == 8:
            w[1], w[2] = draw(st.sampled_from(((w[0], w[2]), (w[1], w[0]), (w[1], w[1]))))
            kind = draw(st.sampled_from((2, 4, 5)))
        if kind == 6:
            gates.append(MeasureBasis(w[0], draw(st.sampled_from("xyz")), draw(st.integers(0, _SCHED_CLBITS - 1))))
        elif kind == 9:
            gates.append(MeasureBasis(w[0], "z", draw(st.sampled_from((-1, _SCHED_CLBITS, _SCHED_CLBITS + 7)))))
        else:
            gates.append([H(w[0]), P(w[0], theta), CP(w[0], w[1], theta), X(w[0]), CNOT(w[0], w[1]), Toffoli(*w[:3])][kind])
    return gates


class TestAsapSchedule:
    """Well-formed layers, order kept on shared wires, and each gate one layer above
    its latest predecessor: together these admit exactly one layering, the ASAP one."""

    @given(_gate_sequences())
    def test_schedule_is_asap(self, gates):
        layers, _ = circuit_module._asap_layers(gates, _SCHED_QUBITS, _SCHED_CLBITS)
        assert circuit_module.layer_fault(layers, _SCHED_QUBITS, _SCHED_CLBITS) is None
        where = {id(g): li for li, layer in enumerate(layers) for g in layer}
        assert len(where) == len(gates) == sum(map(len, layers))
        order = {id(g): i for i, g in enumerate(gates)}
        for layer in layers:
            assert [order[id(g)] for g in layer] == sorted(order[id(g)] for g in layer)

        def touches(g):
            return {("q", w) for w in g.qubits()} | {("c", w) for w in g.clbits()}

        for j, g in enumerate(gates):
            lj = where[id(g)]
            earlier = [where[id(f)] for f in gates[:j] if touches(f) & touches(g)]
            # gates sharing a wire or bit keep their sequence order across layers
            assert all(li < lj for li in earlier)
            # a gate above layer 0 waits on an earlier gate in the layer just below
            assert lj == 0 or lj - 1 in earlier

    @given(_gate_sequences(malformed=True))
    def test_schedule_proves_the_layer_rule(self, gates):
        # width 5 as 3 data wires and 2 ancillas
        layers, ok = circuit_module._asap_layers(gates, _SCHED_QUBITS, _SCHED_CLBITS)
        fault = circuit_module.layer_fault(layers, _SCHED_QUBITS, _SCHED_CLBITS)
        assert ok == (fault is None)
        if fault is None:
            c = Circuit.from_gates(gates, 3, 2, _SCHED_CLBITS)
            assert c == Circuit.from_layers(layers, 3, 2, _SCHED_CLBITS)
            assert c.metadata == {}
        else:
            with pytest.raises(StructuralError) as err:
                Circuit.from_gates(gates, 3, 2, _SCHED_CLBITS)
            assert str(err.value) == f"layer {fault[0]}: {fault[2]}"


class TestComposeInverse:
    def test_compose_size_additive_depth_subadditive(self):
        # circuits compose by inlining into one builder
        a = prep_exact(3)
        b = copy_fourier(3, 2)
        builder = CircuitBuilder(6)
        builder.inline(a, range(6))
        builder.inline(b, range(6))
        c = builder.build()
        assert c.size == a.size + b.size
        assert c.depth <= a.depth + b.depth

    def test_compose_requires_matching_data_width(self):
        with pytest.raises(StructuralError):
            CircuitBuilder(2).inline(standard_qft(3), range(2))

    def test_inline_refuses_two_sub_wires_on_one_parent_wire(self):
        # H(0) H(1) mapped through [0, 0] would silently become H(0) H(0)
        sub = Circuit.from_gates([H(0), H(1)], 2)
        with pytest.raises(StructuralError, match="repeats a parent wire"):
            CircuitBuilder(2).inline(sub, [0, 0])

    def test_inverse_reverses_unitary(self, rng, random_circuit):
        for _ in range(5):
            c = random_circuit(rng, n_qubits=4, n_gates=10)
            u = extract_unitary(c)
            v = extract_unitary(c.inverse())
            assert np.linalg.norm(v @ u - np.eye(u.shape[0]), 2) < 1e-10

    def test_inverse_preserves_layer_count(self):
        c = standard_qft(4)
        assert c.inverse().depth == c.depth


class TestLightCone:
    def test_empty_circuit_cone_is_singleton(self):
        c = CircuitBuilder(3).build()
        assert c.light_cone([1]) == {1}

    def test_out_of_range_wire_rejected(self):
        with pytest.raises(StructuralError):
            standard_qft(2).light_cone([5])

    def test_qft_top_qubit_sees_every_input(self):
        for n in (2, 4, 7):
            assert standard_qft(n).light_cone([n - 1]) == set(range(n))

    def test_cone_bounded_by_three_to_depth(self, rng, random_circuit):
        # Toffoli acts on 3 wires, so the growth base is 3
        for _ in range(10):
            c = random_circuit(rng, n_qubits=5, n_gates=8)
            for w in range(5):
                assert len(c.light_cone([w])) <= 3 ** c.depth

    def test_cone_matches_brute_force(self, rng, random_circuit):
        def brute(c, w):
            cone = {w}
            for layer in reversed(c.layers):
                for g in layer:
                    if set(g.qubits()) & cone:
                        cone |= set(g.qubits())
            return cone

        for _ in range(5):
            c = random_circuit(rng, n_qubits=6, n_gates=15)
            for w in range(6):
                assert c.light_cone([w]) == brute(c, w)


class TestGateBasics:
    def test_qubit_supports(self):
        assert set(CNOT(2, 0).qubits()) == {0, 2}
        assert set(Toffoli(1, 4, 2).qubits()) == {1, 2, 4}
        assert set(X(3).qubits()) == {3}

    def test_cp_is_symmetric_in_unitary(self):
        theta = dyadic(1, 2)
        b1 = CircuitBuilder(2)
        b1.cp(0, 1, theta)
        b2 = CircuitBuilder(2)
        b2.cp(1, 0, theta)
        u1 = extract_unitary(b1.build())
        u2 = extract_unitary(b2.build())
        assert np.allclose(u1, u2)

    def test_self_inverse_gates(self):
        for g in (H(0), X(1), CNOT(0, 1), Toffoli(0, 1, 2)):
            assert g.inverse() == g

    def test_cp_inverse_negates_angle(self):
        g = CP(0, 1, dyadic(3, 3))
        assert g.inverse() == CP(0, 1, dyadic(-3, 3))
