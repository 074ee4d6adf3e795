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
``# meta {...}`` pragma after the header (``decode`` refuses a second one), so
netlists keep their recorded output permutation and error bound.  ``decode``
preserves the explicit layer structure and ``encode`` is canonical, so files
survive a decode/encode round trip byte for byte.
"""

from __future__ import annotations

import json
import re
from array import array

from .circuit import GATES, Circuit, DyadicAngle, Gate, layer_fault
from .errors import NetlistError, StructuralError

_ANGLE_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")

SEPARATOR = "---"
META_PRAGMA = "# meta "


def _parse_angle(token: str, line: int) -> DyadicAngle:
    if token == "0":
        return DyadicAngle(0, 0)
    m = _ANGLE_RE.match(token)
    if not m:
        raise NetlistError(f"bad angle {token!r}, expected a/2^b", line)
    angle = DyadicAngle(int(m.group(1)), int(m.group(2)))
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
    # only the form encode writes: ASCII digits, no sign, no leading zero
    if token.isascii() and token.isdigit() and (token[0] != "0" or len(token) == 1):
        return int(token)
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise NetlistError(f"{what} {token!r} must be nonnegative", line)
    raise NetlistError(f"bad {what} {token!r}", line)


def decode(text: str) -> Circuit:
    """Parse a netlist, keeping its layers as written.

    The circuit must satisfy ``Circuit``'s rules; a gate that breaks one is
    reported as a ``NetlistError`` carrying that gate's line.
    """
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

    # gate_lines[i][j] is the line of gate layers[i][j]; arrays, since a list
    # of ints costs 36 bytes per gate against 8.  Gates are frozen values, so a
    # gate line seen before reuses the gate parsed at its first occurrence
    # (compute / uncompute blocks write most flips twice).
    layers: list[list[Gate]] = [[]]
    gate_lines: list[array] = [array("q")]
    parsed: dict[str, Gate] = {}
    metadata: dict | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        gate = parsed.get(raw)
        if gate is None:
            if raw == SEPARATOR:
                if not layers[-1]:
                    raise NetlistError("empty layer", lineno)
                layers.append([])
                gate_lines.append(array("q"))
                continue
            if raw.lstrip().startswith("#"):
                if raw.startswith(META_PRAGMA):
                    if metadata is not None:
                        raise NetlistError("second metadata pragma", lineno)
                    try:
                        metadata = json.loads(raw[len(META_PRAGMA):])
                    except json.JSONDecodeError as exc:
                        raise NetlistError(f"bad metadata pragma: {exc}", lineno) from None
                    if not isinstance(metadata, dict):
                        raise NetlistError("metadata pragma must hold a JSON object", lineno)
                continue
            tok = raw.split()
            if not tok:
                raise NetlistError("blank line", lineno)
            try:
                gate = parsed[raw] = _parse_gate(tok, raw, lineno)
            except StructuralError as exc:
                raise NetlistError(str(exc), lineno) from None
        layers[-1].append(gate)
        gate_lines[-1].append(lineno)

    if not layers[-1]:
        if len(layers) > 1:
            raise NetlistError("trailing layer separator", len(lines))
        layers.pop()

    try:
        return Circuit.from_layers(layers, n_qubits, n_ancilla, n_classical, metadata)
    except StructuralError:
        li, gi, reason = layer_fault(layers, n_qubits + n_ancilla, n_classical)
        raise NetlistError(reason, gate_lines[li][gi]) from None


def _parse_gate(tok: list[str], raw: str, lineno: int) -> Gate:
    shape = _UNITARY_SHAPES.get(tok[0])
    if shape is not None and len(tok) == shape[1]:
        cls, _, first = shape
        theta = _parse_angle(tok[1], lineno) if cls.angled else None
        wires = []
        for t in tok[first:]:  # a loop rather than a comprehension: once per line
            wires.append(_parse_int(t, "wire", lineno))
        return cls(*wires, theta) if cls.angled else cls(*wires)
    cls = GATES.get(tok[0])
    if cls is not None and cls.family == "measure" and len(tok) == 5 and tok[3] == "->":
        target = _parse_int(tok[2], "wire", lineno)
        if not tok[4].startswith("c"):
            raise NetlistError(f"bad classical wire {tok[4]!r}, expected c<j>", lineno)
        return cls(target, tok[1], _parse_int(tok[4][1:], "classical wire", lineno))
    raise NetlistError(f"unrecognized gate line {raw!r}", lineno)
