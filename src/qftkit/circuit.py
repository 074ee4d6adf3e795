"""Layered circuit IR with exact dyadic phase angles.

Circuits are immutable containers of gate layers over three wire spaces:
data qubits ``0..n_qubits-1``, ancilla qubits ``n_qubits..n_qubits+n_ancilla-1``
(one shared quantum index space), and classical bits ``0..n_classical-1``.
Layers are greedy ASAP: each gate lands on the earliest layer where every
wire it touches is free.  Phase angles are fractions of a full turn with a
power-of-two denominator, kept exact as ``numerator / 2**log_denominator``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, NonInvertibleError, SimulationError, StructuralError

MAX_LOG_DENOMINATOR = 64
_QUARTER_TURNS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


@dataclass(frozen=True, slots=True)
class DyadicAngle:
    """An angle ``numerator / 2**log_denominator`` in turns, reduced mod 1.

    After construction the numerator is odd (or zero with log_denominator 0)
    and lies in ``[0, 2**log_denominator)``.
    """

    numerator: int
    log_denominator: int

    def __post_init__(self):
        ld = self.log_denominator
        if not 0 <= ld <= MAX_LOG_DENOMINATOR:
            raise StructuralError(f"log_denominator {ld} out of range 0..{MAX_LOG_DENOMINATOR}")
        num = self.numerator % (1 << ld)
        if num:
            tz = (num & -num).bit_length() - 1  # trailing zero bits
            num >>= tz
            ld -= tz
        else:
            ld = 0
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "log_denominator", ld)

    def __neg__(self) -> DyadicAngle:
        return DyadicAngle(-self.numerator, self.log_denominator)

    def __float__(self) -> float:
        return self.numerator / (1 << self.log_denominator)

    def phase(self) -> complex:
        """The unit complex number exp(2*pi*i * float(self)), exact at multiples of a quarter turn."""
        if self.log_denominator <= 2:
            return _QUARTER_TURNS[self.numerator << (2 - self.log_denominator)]
        return complex(math.cos(math.tau * float(self)), math.sin(math.tau * float(self)))

    def __str__(self) -> str:
        if self.numerator == 0:
            return "0"
        return f"{self.numerator}/2^{self.log_denominator}"


def dyadic(numerator: int, log_denominator: int) -> DyadicAngle:
    return DyadicAngle(numerator, log_denominator)


def _check_angle_grid(builder: str, finest: int) -> None:
    """The one build limit: refuse, before any gate, a finest angle 2^-finest turns below the grid."""
    if finest > MAX_LOG_DENOMINATOR:
        raise CapacityError(f"{builder} needs angle 2^-{finest}, below the 2^-{MAX_LOG_DENOMINATOR} angle limit")


# --- gates ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Gate:
    """A row of the gate table, read by every consumer in place of the gate's type.

    ``name``: the netlist token.  ``wires``: the quantum wire fields, in
    constructor and ``qubits()`` order.  ``angled``: a dyadic ``theta`` follows
    the wires.  ``family``: ``"h"``, ``"phase"`` (multiply the all-ones state
    of the wires by exp(2*pi*i*theta)), ``"flip"`` (X on the last wire,
    controlled by the others) or ``"measure"``.
    """

    name = "gate"
    wires = ()
    angled = False
    family = ""

    def qubits(self) -> tuple[int, ...]:
        """The one target wire; CP, CNOT and Toffoli override this."""
        return (self.target,)

    def clbits(self) -> tuple[int, ...]:
        return ()

    def inverse(self) -> Gate:
        """Phase gates negate theta, H and flips are self-inverse."""
        if self.family == "phase":
            return type(self)(*self.qubits(), -self.theta)
        if self.family == "measure":
            raise NonInvertibleError("measurement has no inverse")
        return self


@dataclass(frozen=True, slots=True)
class H(Gate):
    target: int
    name = "h"
    wires = ("target",)
    family = "h"


@dataclass(frozen=True, slots=True)
class P(Gate):
    """Phase gate diag(1, exp(2*pi*i*theta)) on one wire."""

    target: int
    theta: DyadicAngle
    name = "p"
    wires = ("target",)
    angled = True
    family = "phase"


@dataclass(frozen=True, slots=True)
class CP(Gate):
    """Symmetric controlled phase: multiplies |11> by exp(2*pi*i*theta)."""

    a: int
    b: int
    theta: DyadicAngle
    name = "cp"
    wires = ("a", "b")
    angled = True
    family = "phase"

    def __post_init__(self):
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def qubits(self):
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class X(Gate):
    target: int
    name = "x"
    wires = ("target",)
    family = "flip"


@dataclass(frozen=True, slots=True)
class CNOT(Gate):
    control: int
    target: int
    name = "cnot"
    wires = ("control", "target")
    family = "flip"

    def qubits(self):
        return (self.control, self.target)


@dataclass(frozen=True, slots=True)
class Toffoli(Gate):
    c1: int
    c2: int
    target: int
    name = "ccx"
    wires = ("c1", "c2", "target")
    family = "flip"

    def __post_init__(self):
        if self.c1 > self.c2:
            c1, c2 = self.c2, self.c1
            object.__setattr__(self, "c1", c1)
            object.__setattr__(self, "c2", c2)

    def qubits(self):
        return (self.c1, self.c2, self.target)


MEASURE_BASES = ("x", "y", "z")


@dataclass(frozen=True, slots=True)
class MeasureBasis(Gate):
    """Projective single-qubit measurement in the x, y, or z basis.

    The outcome bit lands on classical wire ``out``; the qubit collapses to
    the observed basis state (expressed back in the computational basis),
    and later gates act on it there.
    """

    target: int
    basis: str
    out: int
    name = "meas"
    wires = ("target",)
    family = "measure"

    def __post_init__(self):
        if self.basis not in MEASURE_BASES:
            raise StructuralError(f"unknown measurement basis {self.basis!r}")

    def clbits(self):
        return (self.out,)


GATES: dict[str, type[Gate]] = {g.name: g for g in (H, P, CP, X, CNOT, Toffoli, MeasureBasis)}


# --- circuit --------------------------------------------------------------


def layer_fault(
    layers: Sequence[Sequence[Gate]], width: int, n_classical: int
) -> tuple[int, int, str] | None:
    """The first (layer, position in layer, reason) at which ``layers`` break a rule, or None.

    Every quantum wire lies in ``0..width-1``, every classical bit in
    ``0..n_classical-1``, and no layer uses a wire or a bit twice.
    """
    for li, layer in enumerate(layers):
        seen_q: set[int] = set()
        seen_c: set[int] = set()
        for gi, g in enumerate(layer):
            for w in g.qubits():
                if not 0 <= w < width:
                    return li, gi, f"quantum wire {w} out of range 0..{width - 1}"
                if w in seen_q:
                    return li, gi, f"quantum wire {w} used twice in one layer"
                seen_q.add(w)
            for w in g.clbits():
                if not 0 <= w < n_classical:
                    return li, gi, f"classical wire {w} out of range 0..{n_classical - 1}"
                if w in seen_c:
                    return li, gi, f"classical wire {w} used twice in one layer"
                seen_c.add(w)
    return None


def _refuse_fault(layers: Sequence[Sequence[Gate]], width: int, n_classical: int) -> None:
    fault = layer_fault(layers, width, n_classical)
    if fault is not None:
        raise StructuralError(f"layer {fault[0]}: {fault[2]}")


# One int-keyed frontier per wire space (wire or bit -> next free layer): no width, so no table sized by it.
# The frontier also proves the layer rule, so ``from_gates`` needs no second walk.  A gate lands above
# every earlier gate it shares a wire or bit with, so a layer can only hold a wire twice within one
# gate: the update then finds that wire already moved to the new frontier (no gate reads two bits).
# Every wire and bit seen is a key, so one range test over the keys covers the rest.  The flag is
# False when some gate breaks the rule; ``layer_fault`` then says where.
def _asap_layers(
    gates: Iterable[Gate], width: int, n_classical: int
) -> tuple[tuple[tuple[Gate, ...], ...], bool]:
    qfree: dict[int, int] = {}
    cfree: dict[int, int] = {}
    layers: list[list[Gate]] = []
    ok = True
    for g in gates:
        qs = g.qubits()
        layer = 0
        for w in qs:
            f = qfree.get(w, 0)
            if f > layer:
                layer = f
        cs = g.clbits()
        for w in cs:
            f = cfree.get(w, 0)
            if f > layer:
                layer = f
        if layer == len(layers):
            layers.append([g])
        else:
            layers[layer].append(g)
        layer += 1
        for w in qs:
            if qfree.get(w) == layer:
                ok = False
            qfree[w] = layer
        for w in cs:
            cfree[w] = layer
    for free, bound in ((qfree, width), (cfree, n_classical)):
        if free and not (0 <= min(free) and max(free) < bound):
            ok = False
    return tuple(map(tuple, layers)), ok


@dataclass(frozen=True)
class Circuit:
    """An immutable layered circuit.

    Equality is structural (dimensions and layers); metadata is excluded so
    two builds of the same circuit compare equal regardless of annotations.
    """

    n_qubits: int
    n_ancilla: int
    n_classical: int
    layers: tuple[tuple[Gate, ...], ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        _refuse_fault(self.layers, self.width, self.n_classical)

    @classmethod
    def _proved(
        cls,
        n_qubits: int,
        n_ancilla: int,
        n_classical: int,
        layers: tuple[tuple[Gate, ...], ...],
        metadata: dict,
    ) -> Circuit:
        """A circuit whose layers are already known to keep the layer rule, made without walking them again."""
        c = object.__new__(cls)
        c.__dict__.update(
            n_qubits=n_qubits, n_ancilla=n_ancilla, n_classical=n_classical, layers=layers, metadata=metadata
        )
        return c

    @classmethod
    def from_gates(
        cls,
        gates: Iterable[Gate],
        n_qubits: int,
        n_ancilla: int = 0,
        n_classical: int = 0,
        metadata: dict | None = None,
    ) -> Circuit:
        """ASAP-schedule a gate sequence into layers; the schedule itself checks the layer rule."""
        width = n_qubits + n_ancilla
        layers, ok = _asap_layers(gates, width, n_classical)
        if not ok:
            _refuse_fault(layers, width, n_classical)
        return cls._proved(n_qubits, n_ancilla, n_classical, layers, metadata or {})

    @classmethod
    def from_layers(
        cls,
        layers: Sequence[Sequence[Gate]],
        n_qubits: int,
        n_ancilla: int = 0,
        n_classical: int = 0,
        metadata: dict | None = None,
    ) -> Circuit:
        """Wrap explicit layers without rescheduling."""
        return cls(n_qubits, n_ancilla, n_classical, tuple(tuple(l) for l in layers), metadata or {})

    # metrics

    @property
    def width(self) -> int:
        return self.n_qubits + self.n_ancilla

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def gate_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for g in self.all_gates():
            hist[g.name] = hist.get(g.name, 0) + 1
        return dict(sorted(hist.items()))

    def all_gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    def has_measurement(self) -> bool:
        return any(g.family == "measure" for g in self.all_gates())

    @cached_property
    def flip_layers(self) -> tuple[np.ndarray, ...]:
        """Each layer as an ``np.intp`` array of rows ``(a, b, t)``: gate ``j`` XORs ``a[j] AND b[j]`` into ``t[j]``.

        Row ``width`` stands for a wire held at 1, which pads X and CNOT up to
        the Toffoli form.  Compiled on first use and kept with the circuit;
        a gate outside the ``flip`` family raises ``SimulationError``.
        """
        one = self.width
        pads = {cls: (one,) * (3 - len(cls.wires)) for cls in GATES.values() if cls.family == "flip"}
        compiled = []
        for layer in self.layers:
            flat: list[int] = []
            for g in layer:
                pad = pads.get(type(g))
                if pad is None:
                    raise SimulationError(f"not a classical gate: {g!r}")
                flat.extend(pad + g.qubits())
            compiled.append(np.array(flat, dtype=np.intp).reshape(-1, 3).T)
        return tuple(compiled)

    # structure

    def inverse(self) -> Circuit:
        """Reverse the layer order and invert every gate; layers are kept.

        An inverse gate keeps its wires, so the reversed layers keep the rule these ones keep.
        """
        inv = tuple(tuple(g.inverse() for g in layer) for layer in reversed(self.layers))
        return Circuit._proved(self.n_qubits, self.n_ancilla, self.n_classical, inv, dict(self.metadata))

    def light_cone(self, wires: Iterable[int]) -> set[int]:
        """Quantum wires that can influence ``wires``, walking layers backward."""
        cone = set(wires)
        nq = self.width
        for w in cone:
            if not 0 <= w < nq:
                raise StructuralError(f"quantum wire {w} out of range")
        for layer in reversed(self.layers):
            for g in layer:
                support = set(g.qubits())
                if support & cone:
                    cone |= support
        return cone


# --- builder --------------------------------------------------------------


class CircuitBuilder:
    """Mutable gate-list builder with ancilla allocation and uncompute helpers."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self._n_ancilla = 0
        self._n_classical = 0
        self._gates: list[Gate] = []

    # wires

    def new_ancilla(self) -> int:
        w = self.n_qubits + self._n_ancilla
        self._n_ancilla += 1
        return w

    def new_ancillas(self, count: int) -> list[int]:
        return [self.new_ancilla() for _ in range(count)]

    def new_classical(self) -> int:
        w = self._n_classical
        self._n_classical += 1
        return w

    # gates

    def add(self, gate: Gate) -> None:
        """Append a gate; its wires are checked against the allocation once, at ``build``."""
        self._gates.append(gate)

    def h(self, t: int) -> None:
        self.add(H(t))

    def p(self, t: int, theta: DyadicAngle) -> None:
        self.add(P(t, theta))

    def cp(self, a: int, b: int, theta: DyadicAngle) -> None:
        self.add(CP(a, b, theta))

    def x(self, t: int) -> None:
        self.add(X(t))

    def cnot(self, c: int, t: int) -> None:
        self.add(CNOT(c, t))

    def toffoli(self, c1: int, c2: int, t: int) -> None:
        self.add(Toffoli(c1, c2, t))

    def measure(self, t: int, basis: str) -> int:
        """Measure wire ``t`` in ``basis`` onto a fresh classical bit; returns the bit."""
        out = self.new_classical()
        self.add(MeasureBasis(t, basis, out))
        return out

    # segments

    def mark(self) -> int:
        return len(self._gates)

    def uncompute(self, start: int, stop: int) -> None:
        """Append the inverses of the gates between marks ``start`` and ``stop``, in reverse order.

        The Bennett compute / use / uncompute block: whatever was added after
        ``stop`` (the use) stays where it is.
        """
        self._gates.extend(g.inverse() for g in reversed(self._gates[start:stop]))

    def inline(self, sub: Circuit, qmap: Sequence[int]) -> None:
        """Append ``sub``'s gates with wires remapped into this builder.

        Sub wire ``i`` goes to parent wire ``qmap[i]``.  ``qmap`` covers at
        least the sub data wires; sub ancillas past its end get fresh parent
        ancillas, and sub classical bits get fresh parent ones.
        """
        wmap = dict(enumerate(qmap))
        if len(wmap) < sub.n_qubits:
            raise StructuralError(f"inline map missing data wire {len(wmap)}")
        if len(set(qmap)) < len(qmap):
            raise StructuralError(f"inline map repeats a parent wire: {list(qmap)}")
        for a in range(sub.n_qubits, sub.n_qubits + sub.n_ancilla):
            if a not in wmap:
                wmap[a] = self.new_ancilla()
        cm: dict[int, int] = {}
        for g in sub.all_gates():
            self.add(_remap_gate(g, wmap, cm, self))

    def build(self, metadata: dict | None = None) -> Circuit:
        return Circuit.from_gates(
            self._gates, self.n_qubits, self._n_ancilla, self._n_classical, metadata
        )


def _remap_gate(g: Gate, qm: dict[int, int], cm: dict[int, int], builder: CircuitBuilder) -> Gate:
    # a loop rather than a comprehension: this runs once per inlined gate
    wires = []
    for w in g.qubits():
        wires.append(qm[w])
    if g.family == "measure":
        if g.out not in cm:
            cm[g.out] = builder.new_classical()
        return type(g)(*wires, g.basis, cm[g.out])
    if g.angled:
        return type(g)(*wires, g.theta)
    return type(g)(*wires)
