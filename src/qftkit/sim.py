"""Circuit simulators: dense statevector, sparse amplitudes, classical bits.

Wire/bit convention everywhere: basis index bit ``i`` is quantum wire ``i``
(wire 0 is the least significant bit).  Data wires come first, ancillas
after, and an integer input ``x`` loads the data wires with ancillas at 0.

One loop, ``_evolve``, applies gates to an amplitude state: it dispatches on
the gate family, runs the measurement sequence (rotate into z, collapse,
rotate back) and seeds the default generator.  It drives two state types
through the same kernels (``h``, ``phase``, ``flip``, ``collapse``), and
calls ``settle_all`` once after the last gate:

* ``_DenseState`` is a tensor with one axis of length 2 per wire, whose
  kernels act on a live block beside the wires it keeps fixed or tied; its
  docstring is the one description of the design.
* ``_SparseState`` keeps the nonzero amplitudes in arrays: a boolean bit
  matrix with one row per wire and one column per amplitude, beside a
  complex amplitude vector.  A flip XORs one row with the AND of its control
  rows, a phase is a masked multiply, a measurement filters columns, and a
  Hadamard emits each column twice and sums partners (the rule is in
  ``_SparseState.h``'s docstring), skipping the sums when no column can
  have a partner: its wire is constant, or it still equals its twin, the
  row of ``extract_unitary``'s Choi state that holds the wire's input.  The
  support can only double at a Hadamard, so circuits that are wide but
  classically-branching-poor (reversible arithmetic with a few H wires) run
  in time proportional to their true branching.

Flip-only circuits (X, CNOT, Toffoli) also run on ``run_classical_batch``,
which holds the same bit matrix with one column per input, plus a row held
at 1, and applies each layer of ``Circuit.flip_layers`` as one
gather-AND-XOR over all inputs at once; ``run_classical_bits`` is its
one-input call.  Both build the matrix from integers with ``_bit_rows`` and
read its columns back as integers with ``_keys``; ``_read_bits`` is the one
reading of chosen wires' bits from basis indices.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .circuit import MAX_LOG_DENOMINATOR, Circuit, DyadicAngle, Gate, H, P, dyadic
from .errors import CapacityError, SimulationError

DEFAULT_SEED = 1729
MAX_DENSE_QUBITS = 26
MAX_UNITARY_QUBITS = 12
SPARSE_SUPPORT_CAP = 1 << 21
UNITARY_TOL = 1e-9
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_PRUNE = 1e-13
_S_DAGGER = dyadic(3, 2)
_TURN_BITS = MAX_LOG_DENOMINATOR  # a held angle is an integer number of 2**-64 turns


def _basis_rotation(gate: Gate) -> tuple[Gate, ...]:
    """Gates that turn an x or y measurement into a z measurement.

    ``_evolve`` applies them before the collapse and their inverses, in
    reverse order, after it, so the wire is left in the observed basis state.
    """
    w = gate.target
    if gate.basis == "x":
        return (H(w),)
    if gate.basis == "y":
        return (P(w, _S_DAGGER), H(w))
    return ()


@dataclass
class RunResult:
    """Final state plus the classical bits written by measurements.

    ``pruned_mass`` is the total squared magnitude the sparse simulator
    dropped at ``_PRUNE`` over the run (always 0 for the dense simulator).
    """

    classical: list
    state: np.ndarray | None = None
    amplitudes: dict[int, complex] = field(default_factory=dict)
    pruned_mass: float = 0.0


# --- dense statevector -----------------------------------------------------


def _check_input(circuit: Circuit, x: int) -> int:
    """``x`` as an int: TypeError if it is not an integer, SimulationError if
    it does not fit the circuit's data wires."""
    x = operator.index(x)
    if not 0 <= x < (1 << circuit.n_qubits):
        raise SimulationError(f"input {x} out of range for {circuit.n_qubits} data wires")
    return x


def _draw(p1: float, rng: np.random.Generator) -> tuple[int, float]:
    """Draw an outcome with probability ``p1`` of reading 1, by one ``rng.random()``.

    Returns the outcome and the kept branch's probability; both state types
    collapse through here, so equal seeds give them equal records.
    """
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome else max(1.0 - p1, 0.0)
    if p <= 0.0:
        raise SimulationError("measurement branch has zero probability")
    return outcome, p


def _turn_phase(turns: int) -> complex:
    """exp(2*pi*i * turns / 2**64) for an exact angle held as an integer mod 2**64."""
    return DyadicAngle(turns, _TURN_BITS).phase()


class _DenseState:
    """Amplitudes as a tensor ``psi`` with wire ``w`` on axis ``psi.ndim - 1 - w``.

    Axes in front of the ``nq`` wires are left alone, so a leading batch of
    columns is carried through every kernel; ``extract_unitary`` puts one
    input axis there per data bit, the one for data wire ``i`` on the axis
    that a wire ``nq + i`` would have.

    A wire is of one of three kinds.  Every kernel acts only on the live
    block, the view of ``psi`` that holds each fixed wire at its slot and
    each tied wire's input axis at 0; the other slots hold zeros in memory.

    * Fixed: ``sep`` maps the wire to its slot and its two amplitudes ``v``,
      and the state is the live block times ``v`` on the wire.  A basis
      input fixes every wire at the basis vector of its bit, and
      ``extract_unitary`` fixes its ancillas at 0.  A fixed wire holds only
      its own phase term, ``pending[w][w]``, the factor on ``v[1]``: a ``P``
      adds to it, and a Hadamard applies it to ``v`` and then mixes ``v``,
      so the transforms' product states (every wire
      (|0> + e^{2 pi i phi}|1>)/sqrt(2)) cost no write until the end.  A
      fixed wire whose ``v`` has an exact zero is definite, and its gates
      resolve when they come: a ``P`` or ``CP`` on a definite 0 is dropped,
      a ``CP`` with a definite 1 is a ``P`` on the other wire, a flip with a
      definite 0 control is the identity, and a flip drops its definite 1
      controls.  So no held term involves a fixed wire.  Any other ``CP``
      or flip on the wire and a collapse on it first merge it: ``v``, with
      its own term applied, is multiplied into the block at both slots, one
      copy with weights, after which the wire varies.  The merge skips the
      copy when the other slot's weight is exactly 0, as its zeros are
      already in memory, and the scaling when the slot's own weight is
      exactly 1, so a basis vector at its slot writes nothing.  A collapse
      leaves its wire fixed at the observed basis vector, and
      ``settle_all`` merges the wires still fixed in ascending order, so the
      block grows over contiguous inner axes.
    * Tied: ``ties`` holds the data wires that still hold their column's
      input bit.  The wire's input axis is held at 0 and its own axis
      carries that bit, and to phases and controls it is a varying wire.  A
      Hadamard on it ends the tie in one pass: with ``A`` and ``B`` the live
      block's wire-0 and wire-1 slices and ``T`` the held table, it writes
      ``B T`` and ``-B T`` into input slot 1 and ``A`` into both of slot 0's
      slices, each times 1/sqrt(2).  A flip target on it, or
      ``settle_all``, unties it by moving the live block's wire-1 slice into
      input slot 1.  ``collapse`` never meets a tie, since
      ``extract_unitary`` refuses measuring circuits.
    * Varying: every other wire.  A Hadamard on it is a butterfly through a
      prefix of one preallocated half state.

    The phase terms of tied and varying wires are held, not applied:
    ``pending[w]`` maps a wire to the summed angle, as an integer mod 2**64,
    of the terms on ``w``.  ``P(w)`` sits under ``pending[w][w]`` and
    ``CP(a, b)`` under both ``pending[a][b]`` and ``pending[b][a]``.
    ``_table(w)`` pops every term on ``w`` as one factor
    ``p_w * (x)_b [1, q_b]`` over its partners ``b``, for the live ``w = 1``
    slice.  A Hadamard on ``w`` folds it into its write, and a collapse or a
    flip with target ``w`` applies it first; a flip's controls need no
    settling, as a term without the target commutes with the flip.  The
    Hadamard scales the table by 1/sqrt(2) in place (or takes 1/sqrt(2)
    alone when nothing is held) and applies it in the one multiply it makes
    on the old ``w = 1`` slice; its other writes carry the 1/sqrt(2) too, so
    ``psi`` times the fixed wires' vectors is the true state after every
    gate.  ``settle_all`` applies what is still held after the last gate.
    """

    def __init__(self, psi: np.ndarray, nq: int, fixed: dict[int, int] | None = None, ties: Iterable[int] = ()):
        self.psi = psi
        self.nq = nq
        self.sep: dict[int, tuple[int, list[complex]]] = {}
        for w, bit in (fixed or {}).items():
            self._fix(w, bit)
        self.ties = set(ties)
        self.pending: list[dict[int, int]] = [{} for _ in range(nq)]
        self.scratch = np.empty(psi.size // 2, dtype=psi.dtype)  # one half state, for h and flip

    def _fix(self, w: int, bit: int) -> None:
        """Make ``w`` fixed at ``bit``, with the basis vector of ``bit``; the block must sit at that slot."""
        self.sep[w] = (bit, [0.0, 1.0] if bit else [1.0, 0.0])

    def _bit(self, w: int) -> int | None:
        """The bit a definite wire holds, or ``None``: a definite wire is fixed, with an exact zero in ``v``."""
        v = self.sep[w][1] if w in self.sep else (None, None)
        return 0 if v[1] == 0 else 1 if v[0] == 0 else None

    def _at(self, *fixed: tuple[int, int]) -> tuple:
        """Basic index that holds wire ``w`` at ``bit`` for each ``(w, bit)``.

        The trailing ``...`` makes it select a view even when every axis is fixed.
        """
        idx: list = [slice(None)] * self.psi.ndim
        for w, bit in fixed:
            idx[self.psi.ndim - 1 - w] = bit
        return (*idx, ...)

    def _held(self) -> list[tuple[int, int]]:
        """The ``(axis wire, slot)`` pairs that the live block holds: each tied input axis and each fixed wire."""
        return [*((self.nq + i, 0) for i in self.ties), *((w, slot) for w, (slot, _) in self.sep.items())]

    def _live(self, *fixed: tuple[int, int]) -> np.ndarray:
        """The live block, with wire ``w`` also held at ``bit`` for each ``(w, bit)``."""
        return self.psi[self._at(*self._held(), *fixed)]

    def _buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """A prefix of the scratch half state, viewed with ``shape``."""
        return self.scratch[: math.prod(shape)].reshape(shape)

    def _hold(self, w: int, partner: int, turns: int) -> None:
        terms = self.pending[w]
        total = (terms.get(partner, 0) + turns) % (1 << _TURN_BITS)
        if total:
            terms[partner] = total
        else:
            terms.pop(partner, None)

    def _table(self, w: int) -> np.ndarray | None:
        """Pop every held term on ``w``; the factor for its live ``w = 1`` slice, or ``None``.

        The table is allocated at its final size and doubled in place, once
        per partner.
        """
        terms = self.pending[w]
        if not terms:
            return None
        self.pending[w] = {}
        own = _turn_phase(terms.pop(w, 0))
        table = np.empty(1 << len(terms), dtype=np.complex128)
        table[0] = own
        k = 1  # entries filled so far
        shape = [1] * self.psi.ndim
        for b in sorted(terms):  # the fastest axis first, each partner a new slower one
            np.multiply(table[:k], _turn_phase(terms[b]), out=table[k : 2 * k])
            k *= 2
            shape[self.psi.ndim - 1 - b] = 2
            del self.pending[b][w]
        fixed = {self.psi.ndim - 1 - v for v, _ in (*self._held(), (w, 1))}
        return table.reshape([s for axis, s in enumerate(shape) if axis not in fixed])

    def settle(self, w: int) -> None:
        """Apply and clear every held term on ``w``."""
        table = self._table(w)
        if table is not None:
            ones = self._live((w, 1))
            ones *= table

    def _untie(self, w: int) -> None:
        """If ``w`` is tied, move its input-1 columns into input slot 1 and zero where they were."""
        if w in self.ties:
            self.ties.remove(w)
            ones = self._live((self.nq + w, 0), (w, 1))
            np.copyto(self._live((self.nq + w, 1), (w, 1)), ones)
            ones.fill(0.0)

    def _own(self, w: int) -> complex:
        """Pop the held own term of a fixed wire: the factor on its ``1`` amplitude."""
        return _turn_phase(self.pending[w].pop(w, 0))

    def _merge(self, w: int) -> None:
        """If ``w`` is fixed, multiply its amplitudes into the block, after which ``w`` varies."""
        if w in self.sep:
            slot, v = self.sep.pop(w)
            v[1] *= self._own(w)
            live = self._live((w, slot))
            if v[1 - slot] != 0:  # else the other slot's zeros are already in memory
                np.multiply(live, v[1 - slot], out=self._live((w, 1 - slot)))
            if v[slot] != 1:
                live *= v[slot]

    def settle_all(self) -> None:
        for w in range(self.nq):
            self._untie(w)
            if w not in self.sep:
                self.settle(w)
        for w in sorted(self.sep):  # ascending, so the block grows over contiguous inner axes
            self._merge(w)

    def h(self, w: int) -> None:
        if w in self.sep:
            v = self.sep[w][1]
            a, b = v[0], v[1] * self._own(w)
            v[:] = (a + b) * _SQRT_HALF, (a - b) * _SQRT_HALF
            return
        table = self._table(w)
        f = _SQRT_HALF if table is None else np.multiply(table, _SQRT_HALF, out=table)
        a, b = self._live((w, 0)), self._live((w, 1))
        if w in self.ties:  # input slot 0 holds A at w = 0 and B at w = 1; slot 1 is empty
            lo, hi = self._live((self.nq + w, 1), (w, 0)), self._live((self.nq + w, 1), (w, 1))
            np.multiply(b, f, out=lo)
            np.negative(lo, out=hi)
            np.multiply(a, _SQRT_HALF, out=b)
            a *= _SQRT_HALF
            self.ties.remove(w)
        else:
            t = self._buffer(a.shape)
            np.multiply(b, f, out=t)
            a *= _SQRT_HALF
            np.subtract(a, t, out=b)
            a += t

    def phase(self, wires, theta: DyadicAngle) -> None:
        a, b = wires[0], wires[-1]
        bit_a, bit_b = self._bit(a), self._bit(b)
        if bit_a == 0 or bit_b == 0:
            return
        if bit_b == 1:  # a CP with a definite 1 is a P on the other wire
            b = a
        elif bit_a == 1:
            a = b
        elif a != b:
            self._merge(a)
            self._merge(b)
        turns = theta.numerator << (_TURN_BITS - theta.log_denominator)
        self._hold(a, b, turns)
        if b != a:
            self._hold(b, a, turns)

    def flip(self, wires) -> None:
        *controls, t = wires
        bits = [self._bit(c) for c in controls]
        if 0 in bits:  # a definite 0 control: the identity
            return
        controls = [c for c, bit in zip(controls, bits) if bit is None]  # a definite 1 control always fires
        for w in (*controls, t):
            self._merge(w)
        self._untie(t)
        self.settle(t)
        on = [(c, 1) for c in controls]
        lo, hi = self._live(*on, (t, 0)), self._live(*on, (t, 1))
        tmp = self._buffer(lo.shape)
        np.copyto(tmp, lo)
        lo[...] = hi
        hi[...] = tmp

    def collapse(self, w: int, rng: np.random.Generator) -> int:
        self._merge(w)
        self.settle(w)
        outcome, p = _draw(float(np.sum(np.abs(self._live((w, 1))) ** 2)), rng)
        self._live((w, 1 - outcome))[...] = 0.0
        self._fix(w, outcome)
        live = self._live()
        live *= 1.0 / np.sqrt(p)
        return outcome


# --- sparse amplitudes ------------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """Column keys as uint64 words: row ``i`` is bit ``i % 64`` of word ``i // 64``."""
    words = np.zeros((max(1, -(-len(bits) // 64)), bits.shape[1]), dtype=np.uint64)
    for i in np.flatnonzero(bits.any(axis=1)):
        words[i >> 6] |= bits[i].astype(np.uint64) << np.uint64(i & 63)
    return words


def _keys(bits: np.ndarray) -> list[int]:
    """The column keys of a bit matrix as ints: column ``j``'s row ``i`` is bit ``i`` of key ``j``."""
    words = _pack(bits)
    keys = words[-1].tolist()
    for row in words[-2::-1]:  # each lower word in turn, under the words above it
        keys = [k << 64 | w for k, w in zip(keys, row.tolist())]
    return keys


def _bit_rows(keys: list[int], num_rows: int) -> np.ndarray:
    """A uint8 bit matrix whose column ``j`` holds bits ``0..num_rows-1`` of ``keys[j]``, row ``i`` bit ``i``.

    Each key becomes ``limbs`` little-endian 64-bit words.  Keys of at most
    64 bits take one ``np.fromiter``; wider keys are cut by ``int.to_bytes``,
    which costs less per key than one pass over the keys per limb.
    """
    limbs = max(1, -(-num_rows // 64))
    if limbs == 1:
        words = np.fromiter(keys, "<u8", count=len(keys))
    else:
        words = np.frombuffer(b"".join(int(k).to_bytes(8 * limbs, "little") for k in keys), "<u8")
    raw = words.view(np.uint8).reshape(len(keys), 8 * limbs)
    return np.unpackbits(raw, axis=1, count=num_rows, bitorder="little").T


def _read_bits(keys: Iterable[int], wires: Iterable[int]) -> np.ndarray:
    """The ``_bit_rows`` matrix of ``keys`` restricted to ``wires``: row ``j`` holds bit ``wires[j]`` of every key.

    Keys may be of any width; a wire past a key's top bit reads 0.
    """
    keys, wires = list(keys), np.asarray(wires, dtype=np.intp)
    if wires.size and wires.min() < 0:
        raise ValueError(f"wires must be >= 0, got {wires.min()}")
    num_rows = max(int(wires.max(initial=-1)) + 1, max(keys, default=0).bit_length())
    return _bit_rows(keys, num_rows)[wires]


class _SparseState:
    """Nonzero amplitudes as arrays: column ``j`` is the basis state whose wire ``w``
    reads ``bits[w, j]``, with amplitude ``amps[j]``.  No two columns are equal.

    Rows past the circuit's width are carried along untouched, so a reference
    register can label each column with the input it came from.  ``twins``
    maps a wire to the reference row it still equals in every column; a flip
    with that wire as target or a Hadamard on it ends the twin.
    """

    def __init__(self, keys: list[int], amps, num_rows: int):
        self.bits = np.ascontiguousarray(_bit_rows(keys, num_rows), dtype=bool)
        self.amps = np.array(amps, dtype=np.complex128)
        self.pruned_mass = 0.0
        self.twins: dict[int, int] = {}

    def _all_set(self, wires) -> np.ndarray:
        bits = self.bits
        mask = bits[wires[0]]
        for w in wires[1:]:
            mask = mask & bits[w]
        return mask

    def h(self, w: int) -> None:
        """Pair each column with its partner across wire ``w`` and emit both sums.

        The pairing rule, stated here only: a column's partner has the same
        ``_pack`` key once bit ``w`` is cleared, and ``np.add.reduceat`` sums
        each run of equal keys in ``np.lexsort`` order, lower column first.
        No column has a partner when wire ``w`` is constant or still equals
        its twin row; each column is then emitted twice as it stands.
        """
        bits, amps = self.bits, self.amps
        half = amps * _SQRT_HALF
        out = np.concatenate((half, np.where(bits[w], -half, half)))  # the w = 0 half, then the w = 1 half
        if self.twins.pop(w, None) is None and bits[w].any() and not bits[w].all():
            keys = _pack(bits)
            keys[w >> 6] &= ~np.uint64(1 << (w & 63))
            order = np.lexsort(keys)
            sorted_keys = keys[:, order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0)
            starts = np.flatnonzero(first)
            rep = order[starts]
            out = np.add.reduceat(np.take(out.reshape(2, -1), order, axis=1), starts, axis=1).reshape(-1)
            out += 0.0  # reduceat keeps a -0.0 sum; a sum that starts from 0.0 reads +0.0
            bits = np.take(bits, np.concatenate((rep, rep)), axis=1)
        else:  # wire w is constant or equals its twin, so no column has a partner
            bits = np.concatenate((bits, bits), axis=1)
        n_groups = out.size // 2
        bits[w, :n_groups] = False
        bits[w, n_groups:] = True
        magnitude = np.abs(out)
        keep = magnitude > _PRUNE
        if not keep.all():
            self.pruned_mass += float(np.sum(magnitude[~keep] ** 2))
            bits, out = bits[:, keep], out[keep]
        self.bits, self.amps = bits, out
        if out.size > SPARSE_SUPPORT_CAP:
            raise CapacityError(f"sparse support {out.size} exceeds cap {SPARSE_SUPPORT_CAP}")

    def collapse(self, w: int, rng: np.random.Generator) -> int:
        mask = self.bits[w]
        outcome, p = _draw(float(np.sum(np.abs(self.amps[mask]) ** 2)), rng)
        kept = np.flatnonzero(mask if outcome else ~mask)
        self.bits = np.take(self.bits, kept, axis=1)
        self.amps = self.amps[kept] * (1.0 / np.sqrt(p))
        return outcome

    def phase(self, wires, theta: DyadicAngle) -> None:
        np.multiply(self.amps, theta.phase(), out=self.amps, where=self._all_set(wires))

    def flip(self, wires) -> None:
        self.twins.pop(wires[-1], None)
        target = self.bits[wires[-1]]
        if len(wires) > 1:
            target ^= self._all_set(wires[:-1])
        else:
            np.logical_not(target, out=target)

    def settle_all(self) -> None:
        """Nothing to do: every sparse kernel acts at once."""


# --- the gate loop ------------------------------------------------------------


def _evolve(state: _DenseState | _SparseState, circuit: Circuit, rng: np.random.Generator | None) -> list:
    """Run every gate of ``circuit`` on ``state``; returns the classical bits.

    A measurement rotates its wire into the z basis, collapses it and rotates
    it back.  Measurements draw from ``rng``, or from a generator seeded with
    ``DEFAULT_SEED`` when none is given.
    """

    def apply(gate: Gate) -> None:
        family = gate.family
        if family == "h":
            state.h(gate.target)
        elif family == "phase":
            state.phase(gate.qubits(), gate.theta)
        else:
            state.flip(gate.qubits())

    classical: list = [None] * circuit.n_classical
    for gate in circuit.all_gates():
        if gate.family != "measure":
            apply(gate)
            continue
        if rng is None:
            rng = np.random.default_rng(DEFAULT_SEED)
        rotation = _basis_rotation(gate)
        for g in rotation:
            apply(g)
        classical[gate.out] = state.collapse(gate.target, rng)
        for g in reversed(rotation):
            apply(g.inverse())
    state.settle_all()
    return classical


# --- simulators ---------------------------------------------------------------


def run_dense(circuit: Circuit, x: int = 0, rng: np.random.Generator | None = None) -> RunResult:
    """Simulate on a full statevector from the basis input ``x``; returns the flat final state.

    Measurements draw from ``rng``, or from a generator seeded with
    ``DEFAULT_SEED`` when none is given.
    """
    nq = circuit.width
    if nq > MAX_DENSE_QUBITS:
        raise CapacityError(f"{nq} qubits exceeds dense cap {MAX_DENSE_QUBITS}")
    x = _check_input(circuit, x)
    psi = np.zeros([2] * nq, dtype=np.complex128)
    psi.flat[x] = 1.0
    state = _DenseState(psi, nq, {w: x >> w & 1 for w in range(nq)})
    classical = _evolve(state, circuit, rng)
    return RunResult(classical=classical, state=state.psi.reshape(-1))


def run_sparse(
    circuit: Circuit,
    x: int = 0,
    rng: np.random.Generator | None = None,
    initial: dict[int, complex] | None = None,
) -> RunResult:
    """Simulate tracking only nonzero amplitudes.

    ``initial`` maps basis indices over all ``circuit.width`` wires to
    amplitudes; a non-integer index or one outside ``0 <= k <
    2**circuit.width`` is refused, and so is a state whose squared norm is
    off 1 by more than 1e-9, since every measurement draw reads branch
    probabilities as they stand.
    """
    if initial is not None:
        dim = 1 << circuit.width
        keys = [operator.index(k) for k in initial]
        for k in keys:
            if not 0 <= k < dim:
                raise SimulationError(f"initial index {k} out of range for {circuit.width} wires")
        state = _SparseState(keys, list(initial.values()), circuit.width)
        norm = float(np.sum(np.abs(state.amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise SimulationError(f"initial state has squared norm {norm:.6g}, not 1")
    else:
        state = _SparseState([_check_input(circuit, x)], [1.0], circuit.width)
    classical = _evolve(state, circuit, rng)
    amplitudes = dict(zip(_keys(state.bits), state.amps.tolist()))
    return RunResult(classical=classical, amplitudes=amplitudes, pruned_mass=state.pruned_mass)


def sparse_marginal(amps: dict[int, complex], wires: Sequence[int]) -> np.ndarray:
    """Measurement distribution over ``wires`` (wires[0] is the LSB), a dense array of 2**len(wires)."""
    if len(wires) > MAX_DENSE_QUBITS:
        raise CapacityError(f"marginal over {len(wires)} wires exceeds dense cap {MAX_DENSE_QUBITS}")
    ys = _pack(_read_bits(amps, wires))[0].astype(np.intp)
    vals = np.fromiter(amps.values(), dtype=np.complex128, count=len(amps))
    # hypot(re, im) ** 2 is abs(amp) ** 2 bit for bit; np.abs can differ in the last place
    return np.bincount(ys, np.hypot(vals.real, vals.imag) ** 2, minlength=1 << len(wires))


# --- classical bit evolution ------------------------------------------------


def run_classical_batch(circuit: Circuit, xs: Iterable[int]) -> list[int]:
    """Evolve the basis inputs ``xs`` through a circuit of flip gates (X, CNOT, Toffoli) only.

    Returns each input's final bit pattern over all quantum wires, in order.
    The state is the sparse state's bit matrix, one row per wire and one
    column per input, plus a row held at 1; each layer of
    ``circuit.flip_layers`` is one ``s[t] ^= s[a] & s[b]`` over every input,
    which is exact because the gates of a layer touch disjoint wires.  Used
    to test reversible arithmetic exhaustively.
    """
    xs = [_check_input(circuit, x) for x in xs]
    if not xs:
        return []
    width = circuit.width
    state = np.zeros((width + 1, len(xs)), dtype=bool)
    state[: circuit.n_qubits] = _bit_rows(xs, circuit.n_qubits)
    state[width] = True
    for a, b, t in circuit.flip_layers:
        state[t] ^= state[a] & state[b]
    return _keys(state[:width])


def run_classical_bits(circuit: Circuit, x: int) -> int:
    """``run_classical_batch`` on the one input ``x``."""
    return run_classical_batch(circuit, [x])[0]


# --- unitary extraction -----------------------------------------------------

_GRAM_BLOCK = 128  # columns per block row of U^dagger U in the exact unitarity check
_PROBES = 16  # random columns in the unitarity probe
_PROBE_BAR = UNITARY_TOL / _PROBES  # the probe passes U when max |U^dagger U R - R| is at most this


def _unitarity_defect(u: np.ndarray) -> float:
    """max |U^dagger U - I| over every entry, formed on the block upper triangle only.

    Block row ``i`` holds the Gram entries of columns ``i..i+B-1`` against
    themselves and every later column; a skipped block below the diagonal is
    the conjugate transpose of a formed one.
    """
    defect = 0.0
    for i in range(0, u.shape[1], _GRAM_BLOCK):
        gram = u[:, i : i + _GRAM_BLOCK].conj().T @ u[:, i:]
        k = np.arange(gram.shape[0])
        gram[k, k] -= 1.0
        defect = max(defect, float(np.max(np.abs(gram))))
    return defect


def _probe_residual(u: np.ndarray) -> float:
    """max |U^dagger U R - R| for R, ``_PROBES`` columns of i.i.d. standard complex normals.

    R is drawn from a generator seeded with ``DEFAULT_SEED``, and the
    residual is read as the conjugate transpose (U R)^dagger U - R^dagger,
    two products of dim^2 * ``_PROBES`` terms with no conjugate copy of U.
    """
    g = np.random.default_rng(DEFAULT_SEED).standard_normal((2, u.shape[1], _PROBES))
    r = (g[0] + 1j * g[1]) * _SQRT_HALF
    return float(np.max(np.abs((u @ r).conj().T @ u - r.conj().T)))


def _checked_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` itself, unless some entry of U^dagger U - I exceeds ``UNITARY_TOL``.

    The probe passes ``u`` when its residual is at most ``_PROBE_BAR``;
    otherwise the exact ``_unitarity_defect`` decides, and words any refusal.
    """
    if _probe_residual(u) > _PROBE_BAR:
        defect = _unitarity_defect(u)
        if defect > UNITARY_TOL:
            raise SimulationError(f"restriction to data wires is not unitary: defect {defect:.3e}")
    return u


def extract_unitary(circuit: Circuit) -> np.ndarray:
    """The unitary on the data wires, with ancillas going |0> -> |0>.

    Dense batched evaluation when the whole circuit fits in
    ``MAX_UNITARY_QUBITS``: one input axis per data bit sits in front of the
    wires, each data wire starts tied to its input axis and each ancilla
    definite at 0, so the live block doubles only when a data wire first
    leaves its input.  This path returns a Fortran-ordered array, each
    column contiguous.  Otherwise sparse runs of the Choi state
    sum_x |x>|0>|x>, whose extra reference register labels each column with
    its input and is each data wire's twin until the wire is flipped or
    Hadamarded, for any width as long as there are at most
    ``MAX_UNITARY_QUBITS`` data wires.  The columns run in batches of
    ``SPARSE_SUPPORT_CAP >> n_qubits``, and each batch's support is held to
    ``SPARSE_SUPPORT_CAP``.  Any amplitude left on a nonzero ancilla pattern
    (beyond ``UNITARY_TOL`` mass per column) is an error, as is a restriction
    U whose U^dagger U is off the identity by more than tau = ``UNITARY_TOL``
    in any entry.

    Both paths check unitarity through one seeded probe, which passes U
    without forming U^dagger U.  With R the ``_PROBES`` = 16 columns of
    i.i.d. standard complex normals drawn from a generator seeded with
    ``DEFAULT_SEED``, it computes W = U^dagger (U R) - R, two products of
    dim^2 * 16 terms, and passes U when max |W| <= ``_PROBE_BAR`` = tau/16.
    A larger residual runs the exact check, which alone decides and words a
    refusal, so a false alarm costs time and never changes a verdict.  The
    exact check forms U^dagger U in blocks of ``_GRAM_BLOCK`` rows, each
    from its diagonal block rightwards: the product is Hermitian, so every
    entry below the diagonal blocks mirrors a formed one with the same
    magnitude, and the maximum covers every entry at about half the work.

    Miss bound (Freivalds' check with Gaussian columns).  Let D = U^dagger U
    - I and say some |D_il| > tau, so row D_i has norm ||D_i|| > tau.  Then
    W = D R, and each W_ij = sum_l D_il R_lj is CN(0, ||D_i||^2),
    independently over the 16 columns, so P(|W_ij| <= t) = 1 - exp(-t^2 /
    ||D_i||^2) < (t / tau)^2.  The computed W is off the exact one by at most
    e, the rounding of two length-dim inner products against a column of
    norm about sqrt(dim): about 2 * dim^1.5 * 2^-53, at most 5.8e-11 <=
    tau/16 at dim 4096 (for columns of about unit norm; a column far from
    it puts an entry far above tau on D's diagonal).  A miss needs every
    |W_ij| <= tau/16 + e <= tau/8, which one column allows with probability
    below 1/64 and all 16 with probability below 2^-96.  R is drawn
    independently of the circuit, so this bounds the share of draws that
    would pass any one faulty U.
    """
    if circuit.has_measurement():
        raise SimulationError("cannot extract a unitary from a measuring circuit")
    n_data = circuit.n_qubits
    nq = circuit.width
    dim = 1 << n_data
    if nq <= MAX_UNITARY_QUBITS:
        # one input axis per data bit in front of the wires, so column x is input
        # slot x; the ancillas start fixed at 0 and each data wire tied to its
        # input, so column x starts at entry x of slot 0
        tensor = np.zeros([2] * (n_data + nq), dtype=np.complex128)
        tensor.reshape(dim, 1 << nq)[0, :dim] = 1.0
        _evolve(_DenseState(tensor, nq, dict.fromkeys(range(n_data, nq), 0), range(n_data)), circuit, None)
        matrix = tensor.reshape(dim, 1 << nq).T
        if nq == n_data:
            unitary, leak = matrix, 0.0
        else:  # a copy, so the ancilla rows can be freed
            unitary = matrix[:dim, :].copy(order="F")
            leak = float(np.max(np.sum(np.abs(matrix[dim:, :]) ** 2, axis=0)))
    elif n_data <= MAX_UNITARY_QUBITS:
        # reference rows past the circuit's width hold each column's input x
        unitary = np.zeros((dim, dim), dtype=np.complex128)
        leak = 0.0
        batch = max(1, SPARSE_SUPPORT_CAP >> n_data)
        for start in range(0, dim, batch):
            xs = range(start, min(dim, start + batch))
            state = _SparseState([x | x << nq for x in xs], np.ones(len(xs)), nq + n_data)
            state.twins = {w: nq + w for w in range(n_data)}
            _evolve(state, circuit, None)
            y = _pack(state.bits[:n_data])[0].astype(np.intp)
            x = _pack(state.bits[nq:])[0].astype(np.intp)
            clean = ~state.bits[n_data:nq].any(axis=0)
            unitary[y[clean], x[clean]] = state.amps[clean]
            col_leak = np.bincount(x[~clean], np.abs(state.amps[~clean]) ** 2, minlength=dim)
            leak = max(leak, float(col_leak.max()))
    else:
        raise CapacityError(
            f"{n_data} data wires exceeds unitary cap {MAX_UNITARY_QUBITS}"
        )
    if leak > UNITARY_TOL:
        raise SimulationError(f"ancillas do not return to |0>: leaked mass {leak:.3e}")
    return _checked_unitary(unitary)


# --- references ------------------------------------------------------------

MAX_DFT_DIM = 4096


def dft_reference(m: int) -> np.ndarray:
    """The m-point DFT matrix with entry (y, x) = exp(2*pi*i*x*y/m)/sqrt(m).

    Each entry is gathered from the m roots at x*y mod m, so no phase is
    formed from the unreduced product.
    """
    if m > MAX_DFT_DIM:
        raise CapacityError(f"DFT dimension {m} exceeds cap {MAX_DFT_DIM}")
    idx = np.arange(m)
    out = np.empty((m, m), dtype=np.complex128)
    for y in range(0, m, 512):  # row blocks, so no m x m index array is formed
        out[y : y + 512] = _dft_block(m, idx[y : y + 512], idx)
    return out


def _dft_block(m: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The entries (ys, xs) of ``dft_reference(m)``, gathered the same way."""
    roots = np.exp(2j * np.pi * np.arange(m) / m) / np.sqrt(m)
    return roots[np.outer(ys, xs) % m]
