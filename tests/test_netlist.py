import hashlib

import pytest

from qftkit.circuit import Circuit, CircuitBuilder, dyadic
from qftkit.errors import NetlistError
from qftkit.netlist import decode, encode
from qftkit.qft_pow2 import QftPlan, banded_qft, copy_fourier, logdepth_qft, split_qft, standard_qft
from qftkit.revarith import build_prefix_add, build_telescoping_subtract
from qftkit.shor import build_order_circuit

# first 16 hex digits of sha256(encode(circuit)), pinned so the codec stays byte-identical
PINNED_NETLISTS = [
    pytest.param(lambda: standard_qft(5), "270ac160f4e615ef", id="standard_qft(5)"),
    pytest.param(lambda: banded_qft(6, 2), "b6767a9134503abd", id="banded_qft(6,2)"),
    pytest.param(lambda: split_qft(6), "db9d1136e5a2d6d2", id="split_qft(6)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 3, k=4)).circuit, "fad15897a4f4b854", id="logdepth(3,4)"),
    pytest.param(lambda: build_telescoping_subtract(3, 4), "bf05975279ad6daf", id="telescoping_subtract(3,4)"),
    pytest.param(lambda: build_order_circuit(15, 7), "ba0e458f5275aff0", id="order_circuit(15,7)"),
    # the benchmark's build plans
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 12, k=4)).circuit, "baff7daf2e8d0d42", id="logdepth(12,4)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 32, k=8)).circuit, "1261e194d94be5b0", id="logdepth(32,8)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 8, k=32)).circuit, "2a1604753245a6f1", id="logdepth(8,32)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 16, k=48)).circuit, "616dd6568958cdd0", id="logdepth(16,48)"),
    pytest.param(lambda: build_prefix_add(8, 16), "d211909a05972787", id="prefix_add(8,16)"),
]

# the same digest of encode(circuit.inverse()), for each pinned circuit without a measurement
PINNED_INVERSES = [
    pytest.param(lambda: standard_qft(5), "758eed6a11874469", id="standard_qft(5)"),
    pytest.param(lambda: banded_qft(6, 2), "b16d905a93632a01", id="banded_qft(6,2)"),
    pytest.param(lambda: split_qft(6), "ca1ad986c413218d", id="split_qft(6)"),
    pytest.param(lambda: build_telescoping_subtract(3, 4), "db34fa0541638e84", id="telescoping_subtract(3,4)"),
    pytest.param(lambda: build_order_circuit(15, 7), "e35fa6d5c285cd68", id="order_circuit(15,7)"),
    pytest.param(lambda: copy_fourier(3, 3), "665a394f1df25a70", id="copy_fourier(3,3)"),
    pytest.param(lambda: build_prefix_add(8, 16), "943fff616467acdc", id="prefix_add(8,16)"),
]

# the same digest over each layer's lines sorted: pins which gates share a layer
# (and the header and metadata), but not their order within the layer
PINNED_LAYER_SETS = [
    pytest.param(lambda: standard_qft(5), "981475492fbf47fe", id="standard_qft(5)"),
    pytest.param(lambda: banded_qft(6, 2), "eec0806346172c2e", id="banded_qft(6,2)"),
    pytest.param(lambda: split_qft(6), "1da65351a23d5b36", id="split_qft(6)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 3, k=4)).circuit, "c9db7250271e67d2", id="logdepth(3,4)"),
    pytest.param(lambda: build_telescoping_subtract(3, 4), "a316e51964030882", id="telescoping_subtract(3,4)"),
    pytest.param(lambda: build_order_circuit(15, 7), "03bf96acb15c221a", id="order_circuit(15,7)"),
    pytest.param(lambda: copy_fourier(3, 3), "db59a685ffaae901", id="copy_fourier(3,3)"),
    pytest.param(lambda: logdepth_qft(QftPlan("logdepth", 12, k=4)).circuit, "bf0f6dc479b0dc3c", id="logdepth(12,4)"),
]


def roundtrip(circuit):
    text = encode(circuit)
    back = decode(text)
    assert back == circuit
    assert back.metadata == circuit.metadata
    assert encode(back) == text
    return text


class TestEncode:
    def test_hadamard_line(self):
        b = CircuitBuilder(4)
        b.h(3)
        assert encode(b.build()).splitlines()[1] == "h 3"

    def test_controlled_phase_line(self):
        # an eighth of a turn prints in reduced a/2^b form
        b = CircuitBuilder(5)
        b.cp(2, 4, dyadic(1, 3))
        assert encode(b.build()).splitlines()[1] == "cp 1/2^3 2 4"

    def test_header_counts(self):
        b = CircuitBuilder(2)
        b.new_ancillas(1)
        b.new_classical()
        b.new_classical()
        b.h(0)
        assert encode(b.build()).splitlines()[0] == "qubits 2 ancilla 1 classical 2"

    def test_metadata_pragma_emitted_once(self):
        text = encode(standard_qft(3))
        assert text.splitlines()[1].startswith("# meta {")
        assert sum(1 for l in text.splitlines() if l.startswith("#")) == 1

    def test_plain_circuit_has_no_pragma(self):
        b = CircuitBuilder(1)
        b.h(0)
        assert "#" not in encode(b.build())


@pytest.mark.parametrize("build, digest", PINNED_NETLISTS)
def test_pinned_netlist_bytes(build, digest):
    assert hashlib.sha256(encode(build()).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("build, digest", PINNED_INVERSES)
def test_pinned_inverse_bytes(build, digest):
    inverse = build().inverse()
    assert hashlib.sha256(encode(inverse).encode()).hexdigest()[:16] == digest
    assert decode(encode(inverse)) == inverse


@pytest.mark.parametrize("build, digest", PINNED_LAYER_SETS)
def test_pinned_layer_sets(build, digest):
    layers = [sorted(chunk.splitlines()) for chunk in encode(build()).split("\n---\n")]
    assert hashlib.sha256(repr(layers).encode()).hexdigest()[:16] == digest


class TestRoundTrip:
    def test_random_circuits_byte_identical(self, rng, random_circuit):
        for _ in range(20):
            roundtrip(random_circuit(rng, n_qubits=5, n_gates=14))

    def test_logdepth_channel_byte_identical(self):
        circuit = logdepth_qft(QftPlan(kind="logdepth", n=3, k=4)).circuit
        assert circuit.has_measurement()
        roundtrip(circuit)

    def test_banded_keeps_error_bound(self):
        text = roundtrip(banded_qft(6, 2))
        assert "error_bound" in text
        assert decode(text).metadata["error_bound"] == banded_qft(6, 2).metadata["error_bound"]

    def test_layer_structure_preserved_exactly(self):
        c = standard_qft(4)
        assert decode(encode(c)).layers == c.layers

    def test_header_only_is_an_empty_circuit(self):
        text = "qubits 2 ancilla 1 classical 0\n"
        c = decode(text)
        assert (c.width, c.depth, c.size) == (3, 0, 0)
        assert encode(c) == text

    def test_zero_angle(self):
        text = "qubits 2 ancilla 0 classical 0\np 0 1\n"
        assert decode(text).layers[0][0].theta == dyadic(0, 0)
        assert encode(decode(text)) == text

    def test_repeated_line_decodes_as_a_fresh_parse(self):
        lines = ["cnot 0 1", "p 3/2^3 2", "meas y 2 -> c1", "ccx 0 1 2"]
        text = "qubits 3 ancilla 0 classical 2\n" + "\n---\n".join(lines + lines[::-1]) + "\n"
        fresh = [decode(f"qubits 3 ancilla 0 classical 2\n{line}\n").layers[0][0] for line in lines + lines[::-1]]
        c = decode(text)
        assert c == Circuit.from_layers([[g] for g in fresh], 3, 0, 2)
        assert encode(c) == text

    def test_measurement_line(self):
        b = CircuitBuilder(2)
        b.measure(1, "x")
        text = encode(b.build())
        assert "meas x 1 -> c0" in text
        roundtrip(b.build())


class TestDecodeErrors:
    def test_bad_header(self):
        with pytest.raises(NetlistError):
            decode("qubits 2 classical 0\nh 0\n")

    def test_empty_netlist(self):
        with pytest.raises(NetlistError):
            decode("")

    def test_angle_must_be_power_of_two_form(self):
        with pytest.raises(NetlistError, match="angle"):
            decode("qubits 5 ancilla 0 classical 0\ncp 1/8 2 4\n")

    def test_angle_must_be_reduced(self):
        with pytest.raises(NetlistError, match="reduced"):
            decode("qubits 2 ancilla 0 classical 0\ncp 2/2^2 0 1\n")

    def test_angle_denominator_cap(self):
        with pytest.raises(NetlistError, match="denominator"):
            decode("qubits 1 ancilla 0 classical 0\np 1/2^65 0\n")

    def test_wire_out_of_range_reports_line(self):
        with pytest.raises(NetlistError, match="out of range"):
            decode("qubits 2 ancilla 0 classical 0\nh 0\n---\nh 5\n")

    def test_wire_reuse_within_layer(self):
        with pytest.raises(NetlistError, match="twice"):
            decode("qubits 2 ancilla 0 classical 0\nh 0\ncnot 0 1\n")

    def test_unknown_gate(self):
        with pytest.raises(NetlistError, match="unrecognized"):
            decode("qubits 1 ancilla 0 classical 0\nry 0.3 0\n")

    def test_trailing_separator(self):
        with pytest.raises(NetlistError, match="trailing"):
            decode("qubits 1 ancilla 0 classical 0\nh 0\n---\n")

    def test_classical_wire_out_of_range(self):
        with pytest.raises(NetlistError, match="classical"):
            decode("qubits 1 ancilla 0 classical 1\nmeas z 0 -> c3\n")

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            pytest.param("qubits 2 ancilla 0 classical 0\nh 0\n---\nh 1\nh 5\n", 5, "quantum wire 5 out of range", id="qubit-range"),
            pytest.param("qubits 2 ancilla 0 classical 0\nh 1\n---\nh 0\n# note\ncnot 1 0\n", 6, "quantum wire 0 used twice", id="qubit-reuse"),
            pytest.param("qubits 2 ancilla 0 classical 1\nh 0\nmeas z 1 -> c3\n", 3, "classical wire 3 out of range", id="clbit-range"),
            pytest.param("qubits 2 ancilla 0 classical 1\nmeas z 0 -> c0\nmeas z 1 -> c0\n", 3, "classical wire 0 used twice", id="clbit-reuse"),
            # a gate that repeats a wire breaks the same rule as two gates sharing one
            pytest.param("qubits 2 ancilla 0 classical 0\nh 0\ncnot 1 1\n", 3, "quantum wire 1 used twice", id="cnot-repeat"),
            pytest.param("qubits 3 ancilla 0 classical 0\ncp 1/2^2 2 2\n", 2, "quantum wire 2 used twice", id="cp-repeat"),
            pytest.param("qubits 2 ancilla 0 classical 0\nh 1\n---\nccx 0 0 1\n", 4, "quantum wire 0 used twice", id="ccx-repeat"),
            # a repeated bad line is reported at its first occurrence
            pytest.param("qubits 2 ancilla 0 classical 0\nh 0\n---\ncnot 1 1\n---\ncnot 1 1\n", 4, "quantum wire 1 used twice", id="repeated-bad-line"),
        ],
    )
    def test_layer_fault_reports_the_gate_line(self, text, line, reason):
        with pytest.raises(NetlistError, match=reason) as exc:
            decode(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            pytest.param("qubits 2 ancilla 0 classical 0\nh 0\ncnot a 1\n", 3, "bad wire 'a'", id="bad-wire"),
            pytest.param("qubits 2 ancilla 0 classical 0\nh -1\n", 2, "wire '-1' must be nonnegative", id="negative-wire"),
            pytest.param("qubits 1 ancilla 0 classical 0\nh 0\n---\n---\nh 0\n", 4, "empty layer", id="empty-layer"),
            pytest.param("qubits 1 ancilla 0 classical 0\nh 0\n\nh 0\n", 3, "blank line", id="blank-line"),
            pytest.param("qubits 2 ancilla 0 classical 0\nh 0\n---\ncnot 1 a\n---\ncnot 1 a\n", 4, "bad wire 'a'", id="repeated-bad-syntax"),
        ],
    )
    def test_syntax_error_reports_its_line(self, text, line, reason):
        with pytest.raises(NetlistError, match=reason) as exc:
            decode(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            pytest.param("qubits 11 ancilla 0 classical 0\nh 1_0\n", 2, "bad wire '1_0'", id="underscore"),
            pytest.param("qubits 4 ancilla 0 classical 0\nh +3\n", 2, "bad wire '\\+3'", id="plus-sign"),
            pytest.param("qubits 4 ancilla 0 classical 0\nh 03\n", 2, "bad wire '03'", id="leading-zero"),
            pytest.param("qubits 4 ancilla 0 classical 0\nh \u0663\n", 2, "bad wire '\u0663'", id="arabic-indic-digit"),
            pytest.param("qubits 1 ancilla 0 classical 4\nmeas x 0 -> c\u0663\n", 2, "bad classical wire '\u0663'", id="clbit-arabic-indic"),
            pytest.param("qubits 1 ancilla 0 classical 4\nmeas x 0 -> c03\n", 2, "bad classical wire '03'", id="clbit-leading-zero"),
            pytest.param("qubits 0_3 ancilla 0 classical 0\nh 0\n", 1, "bad qubit count '0_3'", id="header-underscore"),
        ],
    )
    def test_integers_are_only_the_form_encode_writes(self, text, line, reason):
        # int() accepts each of these, and encode would write it back as other bytes
        with pytest.raises(NetlistError, match=reason) as exc:
            decode(text)
        assert exc.value.line == line

    def test_unknown_basis(self):
        with pytest.raises(NetlistError, match="basis"):
            decode("qubits 1 ancilla 0 classical 1\nmeas q 0 -> c0\n")


class TestWideHeaders:
    """Scheduling and validation cost O(gates), not O(width): no table is sized by a header count."""

    def test_trillion_qubits_one_gate(self):
        c = decode("qubits 1000000000000 ancilla 0 classical 0\nh 0\n")
        assert (c.width, c.size) == (10**12, 1)
        assert Circuit.from_gates(c.all_gates(), c.n_qubits, c.n_ancilla, c.n_classical).size == 1

    def test_trillion_classical_bits_one_measurement(self):
        c = decode("qubits 1 ancilla 0 classical 1000000000000\nmeas z 0 -> c999999999999\n")
        assert (c.n_classical, c.size) == (10**12, 1)
        assert Circuit.from_gates(c.all_gates(), c.n_qubits, c.n_ancilla, c.n_classical).size == 1


class TestCommentsAndPragma:
    def test_plain_comments_ignored(self):
        text = "qubits 1 ancilla 0 classical 0\n# a note\nh 0\n  # indented note\n"
        assert decode(text).size == 1

    def test_meta_pragma_restores_metadata(self):
        text = 'qubits 1 ancilla 0 classical 0\n# meta {"n":1,"kind":"custom"}\nh 0\n'
        assert decode(text).metadata == {"n": 1, "kind": "custom"}

    def test_absent_pragma_means_empty_metadata(self):
        assert decode("qubits 1 ancilla 0 classical 0\nh 0\n").metadata == {}

    def test_malformed_pragma_rejected(self):
        with pytest.raises(NetlistError, match="metadata"):
            decode("qubits 1 ancilla 0 classical 0\n# meta {oops\nh 0\n")

    def test_pragma_must_hold_object(self):
        with pytest.raises(NetlistError, match="object"):
            decode("qubits 1 ancilla 0 classical 0\n# meta [1,2]\nh 0\n")

    def test_second_pragma_rejected(self):
        # a second pragma would replace the first, and re-encoding would lose its keys
        text = 'qubits 1 ancilla 0 classical 0\n# meta {"a":1}\nh 0\n# meta {"b":2}\n'
        with pytest.raises(NetlistError, match="second metadata pragma") as exc:
            decode(text)
        assert exc.value.line == 4

    def test_pragma_after_a_gate_rejected(self):
        # encode writes the pragma above every gate, so this file would not round-trip
        text = 'qubits 1 ancilla 0 classical 0\nh 0\n# meta {"a":1}\n'
        with pytest.raises(NetlistError, match="metadata pragma after the first gate line") as exc:
            decode(text)
        assert exc.value.line == 3
