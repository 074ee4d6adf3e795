"""Plain-text netlist codec.

Grammar (one gate per line, layers separated by ``---``)::

    qubits <n> ancilla <m> classical <k>
    h 3
    cp 1/2^3 2 4
    ---
    p 1/2^3 4
    meas x 5 -> c2

A unitary gate is ``<token> [<angle>] <wire>...``, as declared in the gate
table of ``qftkit.circuit``; a measurement is ``meas <basis> <wire> -> c<j>``.
Angles are dyadic fractions of a turn, written ``a/2^b`` (or ``0``).
Comment lines start with ``#``; builder metadata rides along in a single
``# meta {...}`` pragma after the header so netlists keep their recorded
output permutation and error bound.  ``decode`` preserves the explicit layer
structure and ``encode`` is canonical, so files survive a decode/encode
round trip byte for byte.
"""

from __future__ import annotations

import json
import re

from .circuit import GATES, MAX_LOG_DENOMINATOR, MEASURE_BASES, Circuit, DyadicAngle, Gate
from .errors import NetlistError, StructuralError

_ANGLE_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")
_CLBIT_RE = re.compile(r"^c(\d+)$")

SEPARATOR = "---"
META_PRAGMA = "# meta "


def _parse_angle(token: str, line: int) -> DyadicAngle:
    if token == "0":
        return DyadicAngle(0, 0)
    m = _ANGLE_RE.match(token)
    if not m:
        raise NetlistError(f"bad angle {token!r}, expected a/2^b", line)
    num, ld = int(m.group(1)), int(m.group(2))
    if ld > MAX_LOG_DENOMINATOR:
        raise NetlistError(f"angle denominator 2^{ld} too large", line)
    angle = DyadicAngle(num, ld)
    if str(angle) != token:
        raise NetlistError(f"angle {token!r} is not in reduced form", line)
    return angle


# derived from the gate table: per gate type, its token then a "%s" for the angle
# (if any) and each wire; per unitary token, its class, token count and first wire
_LINE_FORMATS = {cls: cls.name + " %s" * (cls.angled + len(cls.wires)) for cls in GATES.values()}
_UNITARY_SHAPES = {
    cls.name: (cls, 1 + cls.angled + len(cls.wires), 1 + cls.angled)
    for cls in GATES.values()
    if cls.family != "measure"
}


def _format_gate(g: Gate) -> str:
    if g.family == "measure":
        return f"{g.name} {g.basis} {g.qubits()[0]} -> c{g.out}"
    if g.angled:
        return _LINE_FORMATS[type(g)] % (g.theta, *g.qubits())
    return _LINE_FORMATS[type(g)] % g.qubits()


def encode(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits} ancilla {circuit.n_ancilla} classical {circuit.n_classical}"]
    if circuit.metadata:
        lines.append(META_PRAGMA + json.dumps(circuit.metadata, sort_keys=True, separators=(",", ":")))
    for i, layer in enumerate(circuit.layers):
        if i:
            lines.append(SEPARATOR)
        lines.extend(_format_gate(g) for g in layer)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise NetlistError(f"bad {what} {token!r}", line) from None
    if value < 0:
        raise NetlistError(f"{what} {token!r} must be nonnegative", line)
    return value


def decode(text: str) -> Circuit:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise NetlistError("empty netlist")

    header = lines[0].split()
    if len(header) != 6 or header[0] != "qubits" or header[2] != "ancilla" or header[4] != "classical":
        raise NetlistError("expected header 'qubits <n> ancilla <m> classical <k>'", 1)
    n_qubits = _parse_int(header[1], "qubit count", 1)
    n_ancilla = _parse_int(header[3], "ancilla count", 1)
    n_classical = _parse_int(header[5], "classical count", 1)
    num_quantum = n_qubits + n_ancilla

    layers: list[list[Gate]] = []
    current: list[Gate] = []
    seen_q: set[int] = set()
    seen_c: set[int] = set()
    saw_separator = False

    def qwire(token: str, line: int) -> int:
        w = _parse_int(token, "wire", line)
        if w >= num_quantum:
            raise NetlistError(f"quantum wire {w} out of range 0..{num_quantum - 1}", line)
        if w in seen_q:
            raise NetlistError(f"quantum wire {w} used twice in one layer", line)
        return w

    def flush(line: int) -> None:
        if not current:
            raise NetlistError("empty layer", line)
        layers.append(list(current))
        current.clear()
        seen_q.clear()
        seen_c.clear()

    metadata: dict = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw == SEPARATOR:
            flush(lineno)
            saw_separator = True
            continue
        if raw.lstrip().startswith("#"):
            if raw.startswith(META_PRAGMA):
                try:
                    parsed = json.loads(raw[len(META_PRAGMA):])
                except json.JSONDecodeError as exc:
                    raise NetlistError(f"bad metadata pragma: {exc}", lineno) from None
                if not isinstance(parsed, dict):
                    raise NetlistError("metadata pragma must hold a JSON object", lineno)
                metadata = parsed
            continue
        tok = raw.split()
        if not tok:
            raise NetlistError("blank line", lineno)
        try:
            gate = _parse_gate(tok, raw, lineno, qwire, seen_c, n_classical)
        except StructuralError as exc:
            raise NetlistError(str(exc), lineno) from None
        seen_q.update(gate.qubits())
        current.append(gate)

    if current:
        layers.append(current)
    elif saw_separator or layers:
        raise NetlistError("trailing layer separator", len(lines))

    return Circuit.from_layers(layers, n_qubits, n_ancilla, n_classical, metadata)


def _parse_gate(tok, raw, lineno, qwire, seen_c, n_classical) -> Gate:
    shape = _UNITARY_SHAPES.get(tok[0])
    if shape is not None and len(tok) == shape[1]:
        cls, _, first = shape
        theta = _parse_angle(tok[1], lineno) if cls.angled else None
        wires = []
        for t in tok[first:]:  # a loop rather than a comprehension: once per line
            wires.append(qwire(t, lineno))
        return cls(*wires, theta) if cls.angled else cls(*wires)
    cls = GATES.get(tok[0])
    if cls is not None and cls.family == "measure" and len(tok) == 5 and tok[3] == "->":
        basis = tok[1]
        if basis not in MEASURE_BASES:
            raise NetlistError(f"unknown measurement basis {basis!r}", lineno)
        target = qwire(tok[2], lineno)
        m = _CLBIT_RE.match(tok[4])
        if not m:
            raise NetlistError(f"bad classical wire {tok[4]!r}, expected c<j>", lineno)
        out = int(m.group(1))
        if out >= n_classical:
            raise NetlistError(f"classical wire {out} out of range 0..{n_classical - 1}", lineno)
        if out in seen_c:
            raise NetlistError(f"classical wire {out} used twice in one layer", lineno)
        seen_c.add(out)
        return cls(target, basis, out)
    raise NetlistError(f"unrecognized gate line {raw!r}", lineno)
