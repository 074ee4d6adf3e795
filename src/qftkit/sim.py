"""Circuit simulators: dense statevector, sparse amplitudes, classical bits.

Wire/bit convention everywhere: basis index bit ``i`` is quantum wire ``i``
(wire 0 is the least significant bit).  Data wires come first, ancillas
after, and an integer input ``x`` loads the data wires with ancillas at 0.

One loop, ``_evolve``, applies gates to an amplitude state: it dispatches on
the gate family, runs the measurement sequence (rotate into z, collapse,
rotate back) and seeds the default generator.  It drives two state types
through the same kernels (``h``, ``phase``, ``flip``, ``collapse``), and
calls ``settle_all`` once after the last gate:

* ``_DenseState`` is a tensor with one axis of length 2 per wire; axes past
  the wires (a batch of columns in ``extract_unitary``) ride along.  Its
  ``phase`` only adds the gate's exact angle to a per-wire table of held
  terms.  A Hadamard folds its wire's terms into a three-pass butterfly
  through one preallocated half state and counts its 1/sqrt(2) instead of
  applying it; a flip on the wire as target or a collapse applies them in
  one broadcast multiply, and ``settle_all`` applies what is still held.
* ``_SparseState`` keeps the nonzero amplitudes in arrays: a boolean bit
  matrix with one row per wire and one column per amplitude, beside a
  complex amplitude vector.  A flip XORs one row with the AND of its control
  rows, a phase is a masked multiply, a measurement filters columns, and a
  Hadamard emits each column twice and merges equal columns.  The support
  can only double at a Hadamard, so circuits that are wide but
  classically-branching-poor (reversible arithmetic with a few H wires) run
  in time proportional to their true branching.

Flip-only circuits (X, CNOT, Toffoli) also run on ``run_classical_batch``,
which holds one bit row per wire with one column per input, and applies
each layer of ``Circuit.flip_layers`` as one gather-AND-XOR over all inputs
at once; ``run_classical_bits`` is its one-input call.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
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
_RESCALE_HALVINGS = 64  # dense Hadamards between exact 2**-32 rescales
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


def _check_input(circuit: Circuit, x: int) -> None:
    """Refuse a basis input that does not fit the circuit's data wires."""
    if not 0 <= x < (1 << circuit.n_qubits):
        raise SimulationError(f"input {x} out of range for {circuit.n_qubits} data wires")


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
    """Amplitudes as a tensor ``psi`` with wire ``w`` on axis ``nq - 1 - w``.

    Axes past the first ``nq`` are left alone, so a trailing batch axis of
    columns is carried through every kernel.

    Phase gates are held, not applied: ``pending[w]`` maps a wire to the
    summed angle, as an integer mod 2**64, of the terms on ``w``.  ``P(w)``
    sits under ``pending[w][w]`` and ``CP(a, b)`` under both
    ``pending[a][b]`` and ``pending[b][a]``.  ``_table(w)`` pops every term
    on ``w`` as one factor ``p_w * (x)_b [1, q_b]`` over its partners ``b``
    for the ``w = 1`` slice, which a Hadamard folds into its butterfly and a
    collapse or a flip with target ``w`` applies first.  A flip's controls
    need no settling: a term without the target commutes with the flip.
    ``psi`` is the true state times 2**(halvings / 2), since a Hadamard
    counts its 1/sqrt(2): every ``_RESCALE_HALVINGS`` halvings it is scaled
    by an exact power of two, and a collapse folds in the rest.
    ``settle_all`` applies what is left of both after the last gate.
    """

    def __init__(self, psi: np.ndarray, nq: int):
        self.psi = psi
        self.nq = nq
        self.pending: list[dict[int, int]] = [{} for _ in range(nq)]
        self.halvings = 0
        self.scratch = np.empty(psi.shape[1:], dtype=psi.dtype)  # one half state, for h and flip

    def _at(self, *fixed: tuple[int, int]) -> tuple:
        """Basic index that holds wire ``w`` at ``bit`` for each ``(w, bit)``.

        The trailing ``...`` makes it select a view even when every axis is fixed.
        """
        idx: list = [slice(None)] * self.psi.ndim
        for w, bit in fixed:
            idx[self.nq - 1 - w] = bit
        return (*idx, ...)

    def _hold(self, w: int, partner: int, turns: int) -> None:
        terms = self.pending[w]
        total = (terms.get(partner, 0) + turns) % (1 << _TURN_BITS)
        if total:
            terms[partner] = total
        else:
            terms.pop(partner, None)

    def _table(self, w: int) -> np.ndarray | None:
        """Pop every held term on ``w``; the factor for its ``w = 1`` slice, or ``None``."""
        terms = self.pending[w]
        if not terms:
            return None
        self.pending[w] = {}
        table = np.array([_turn_phase(terms.pop(w, 0))])
        shape = [1] * self.psi.ndim
        for b in sorted(terms):  # the fastest axis first, each partner a new slower one
            table = np.concatenate((table, table * _turn_phase(terms[b])))
            shape[self.nq - 1 - b] = 2
            del self.pending[b][w]
        del shape[self.nq - 1 - w]
        return table.reshape(shape)

    def settle(self, w: int) -> None:
        """Apply and clear every held term on ``w``."""
        table = self._table(w)
        if table is not None:
            self.psi[self._at((w, 1))] *= table

    def settle_all(self) -> None:
        for w in range(self.nq):
            self.settle(w)
        if self.halvings:
            self.psi *= 2.0 ** (-self.halvings / 2)
            self.halvings = 0

    def h(self, w: int) -> None:
        psi, t = self.psi, self.scratch
        a, b = psi[self._at((w, 0))], psi[self._at((w, 1))]
        table = self._table(w)
        if table is None:
            np.copyto(t, b)
        else:
            np.multiply(b, table, out=t)
        np.subtract(a, t, out=b)
        a += t
        self.halvings = (self.halvings + 1) % _RESCALE_HALVINGS
        if not self.halvings:
            psi *= 2.0 ** (-_RESCALE_HALVINGS // 2)

    def phase(self, wires, theta: DyadicAngle) -> None:
        turns = theta.numerator << (_TURN_BITS - theta.log_denominator)
        a, b = wires[0], wires[-1]
        self._hold(a, b, turns)
        if b != a:
            self._hold(b, a, turns)

    def flip(self, wires) -> None:
        self.settle(wires[-1])
        psi = self.psi
        on = [(c, 1) for c in wires[:-1]]
        lo, hi = self._at(*on, (wires[-1], 0)), self._at(*on, (wires[-1], 1))
        tmp = self.scratch[(*[0] * len(on), ...)]  # a corner of the half, shaped like psi[lo]
        np.copyto(tmp, psi[lo])
        psi[lo] = psi[hi]
        psi[hi] = tmp

    def collapse(self, w: int, rng: np.random.Generator) -> int:
        self.settle(w)
        psi, scale = self.psi, 2.0 ** -self.halvings
        outcome, p = _draw(scale * float(np.sum(np.abs(psi[self._at((w, 1))]) ** 2)), rng)
        psi[self._at((w, 1 - outcome))] = 0.0
        psi *= np.sqrt(scale / p)
        self.halvings = 0
        return outcome


# --- sparse amplitudes ------------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """Column keys as uint64 words: row ``i`` is bit ``i % 64`` of word ``i // 64``."""
    words = np.zeros((max(1, -(-len(bits) // 64)), bits.shape[1]), dtype=np.uint64)
    for i in np.flatnonzero(bits.any(axis=1)):
        words[i >> 6] |= bits[i].astype(np.uint64) << np.uint64(i & 63)
    return words


def _bit_rows(keys: list[int], num_rows: int) -> np.ndarray:
    """A uint8 bit matrix whose column ``j`` holds bits ``0..num_rows-1`` of ``keys[j]``, row ``i`` bit ``i``."""
    nbytes = max(1, -(-num_rows // 8))
    raw = np.frombuffer(b"".join(int(k).to_bytes(nbytes, "little") for k in keys), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(keys), nbytes), axis=1, count=num_rows, bitorder="little").T


class _SparseState:
    """Nonzero amplitudes as arrays: column ``j`` is the basis state whose wire ``w``
    reads ``bits[w, j]``, with amplitude ``amps[j]``.  No two columns are equal.

    Rows past the circuit's width are carried along untouched, so a reference
    register can label each column with the input it came from.
    """

    def __init__(self, keys: list[int], amps, num_rows: int):
        self.bits = np.ascontiguousarray(_bit_rows(keys, num_rows), dtype=bool)
        self.amps = np.array(amps, dtype=np.complex128)
        self.pruned_mass = 0.0

    def keys(self) -> list[int]:
        words = _pack(self.bits)
        keys = words[0].astype(object)
        for j in range(1, len(words)):
            if words[j].any():
                keys |= words[j].astype(object) << (64 * j)
        return keys.tolist()

    def _all_set(self, wires) -> np.ndarray:
        bits = self.bits
        mask = bits[wires[0]]
        for w in wires[1:]:
            mask = mask & bits[w]
        return mask

    def h(self, w: int) -> None:
        """Pair each column with its partner across wire ``w`` and emit both sums."""
        bits, amps = self.bits, self.amps
        if bits[w].any() and not bits[w].all():
            rows = np.flatnonzero(bits.any(axis=1) & ~bits.all(axis=1))
            keys = _pack(bits[rows[rows != w]])
            order = np.lexsort(keys)
            sorted_keys = keys[:, order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = np.any(sorted_keys[:, 1:] != sorted_keys[:, :-1], axis=0)
            group = np.empty(order.size, dtype=np.intp)
            group[order] = np.cumsum(first) - 1
            rep = order[first]
        else:  # wire w is the same in every column, so no column has a partner
            group = rep = np.arange(amps.size)
        n_groups = rep.size
        half = amps * _SQRT_HALF
        out = np.empty(2 * n_groups, dtype=np.complex128)
        for lo, contrib in ((0, half), (n_groups, np.where(bits[w], -half, half))):
            out.real[lo : lo + n_groups] = np.bincount(group, contrib.real, n_groups)
            out.imag[lo : lo + n_groups] = np.bincount(group, contrib.imag, n_groups)
        magnitude = np.abs(out)
        keep = magnitude > _PRUNE
        self.pruned_mass += float(np.sum(magnitude[~keep] ** 2))
        self.bits = np.take(bits, np.concatenate((rep, rep))[keep], axis=1)
        self.bits[w] = (np.arange(2 * n_groups) >= n_groups)[keep]
        self.amps = out[keep]
        if self.amps.size > SPARSE_SUPPORT_CAP:
            raise CapacityError(f"sparse support {self.amps.size} exceeds cap {SPARSE_SUPPORT_CAP}")

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
    _check_input(circuit, x)
    psi = np.zeros([2] * nq, dtype=np.complex128)
    psi.flat[x] = 1.0
    state = _DenseState(psi, nq)
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
    amplitudes; an index outside ``0 <= k < 2**circuit.width`` is refused,
    and so is a state whose squared norm is off 1 by more than 1e-9, since
    every measurement draw reads branch probabilities as they stand.
    """
    if initial is not None:
        dim = 1 << circuit.width
        for k in initial:
            if not 0 <= k < dim:
                raise SimulationError(f"initial index {k} out of range for {circuit.width} wires")
        state = _SparseState(list(initial), list(initial.values()), circuit.width)
        norm = float(np.sum(np.abs(state.amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise SimulationError(f"initial state has squared norm {norm:.6g}, not 1")
    else:
        _check_input(circuit, x)
        state = _SparseState([x], [1.0], circuit.width)
    classical = _evolve(state, circuit, rng)
    amplitudes = dict(zip(state.keys(), state.amps.tolist()))
    return RunResult(classical=classical, amplitudes=amplitudes, pruned_mass=state.pruned_mass)


def sparse_marginal(amps: dict[int, complex], wires: list[int]) -> np.ndarray:
    """Measurement distribution over ``wires`` (wires[0] is the LSB)."""
    probs = np.zeros(1 << len(wires))
    for idx, amp in amps.items():
        y = 0
        for j, w in enumerate(wires):
            if idx & (1 << w):
                y |= 1 << j
        probs[y] += abs(amp) ** 2
    return probs


# --- classical bit evolution ------------------------------------------------


def run_classical_batch(circuit: Circuit, xs: Iterable[int]) -> list[int]:
    """Evolve the basis inputs ``xs`` through a circuit of flip gates (X, CNOT, Toffoli) only.

    Returns each input's final bit pattern over all quantum wires, in order.
    The state holds one bit row per wire, the inputs packed eight to a byte
    along it, plus a row held at 1; each layer of ``circuit.flip_layers``
    is one ``s[t] ^= s[a] & s[b]`` over every input, which is exact because
    the gates of a layer touch disjoint wires.  Used to test reversible
    arithmetic exhaustively.
    """
    xs = [operator.index(x) for x in xs]
    for x in xs:
        _check_input(circuit, x)
    if not xs:
        return []
    width, count = circuit.width, len(xs)
    state = np.zeros((width + 1, -(-count // 8)), dtype=np.uint8)
    state[: circuit.n_qubits] = np.packbits(_bit_rows(xs, circuit.n_qubits), axis=1, bitorder="little")
    state[width] = 0xFF
    for a, b, t in circuit.flip_layers:
        state[t] ^= state[a] & state[b]
    bits = np.unpackbits(state[:width], axis=1, count=count, bitorder="little")
    out = np.packbits(bits.T, axis=1, bitorder="little")
    step, raw = out.shape[1], out.tobytes()
    return [int.from_bytes(raw[j * step : (j + 1) * step], "little") for j in range(count)]


def run_classical_bits(circuit: Circuit, x: int) -> int:
    """``run_classical_batch`` on the one input ``x``."""
    return run_classical_batch(circuit, [x])[0]


# --- unitary extraction -----------------------------------------------------

_GRAM_BLOCK = 128  # columns per block row of U^dagger U in the unitarity check


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


def extract_unitary(circuit: Circuit) -> np.ndarray:
    """The unitary on the data wires, with ancillas going |0> -> |0>.

    Dense batched evaluation when the whole circuit fits in
    ``MAX_UNITARY_QUBITS``; otherwise one sparse run of the Choi state
    sum_x |x>|0>|x>, whose extra reference register labels each column with
    its input, for any width as long as there are at most
    ``MAX_UNITARY_QUBITS`` data wires.  The columns run in batches of
    ``SPARSE_SUPPORT_CAP >> n_qubits``, and each batch's support is held to
    ``SPARSE_SUPPORT_CAP``.  Any amplitude left on a nonzero ancilla pattern
    (beyond ``UNITARY_TOL`` mass per column) is an error, as is a restriction
    whose U^dagger U is off the identity by more than ``UNITARY_TOL`` in any
    entry.  The check forms U^dagger U in blocks of ``_GRAM_BLOCK`` rows,
    each from its diagonal block rightwards: the product is Hermitian, so
    every entry below the diagonal blocks mirrors a formed one with the same
    magnitude, and the maximum covers every entry at about half the work.
    """
    if circuit.has_measurement():
        raise SimulationError("cannot extract a unitary from a measuring circuit")
    n_data = circuit.n_qubits
    nq = circuit.width
    dim = 1 << n_data
    if nq <= MAX_UNITARY_QUBITS:
        matrix = np.zeros((1 << nq, dim), dtype=np.complex128)
        matrix[np.arange(dim), np.arange(dim)] = 1.0
        _evolve(_DenseState(matrix.reshape([2] * nq + [dim]), nq), circuit, None)
        if nq == n_data:
            unitary, leak = matrix, 0.0
        else:  # a copy, so the ancilla rows can be freed
            unitary = matrix[:dim, :].copy()
            leak = float(np.max(np.sum(np.abs(matrix[dim:, :]) ** 2, axis=0)))
    elif n_data <= MAX_UNITARY_QUBITS:
        # reference rows past the circuit's width hold each column's input x
        unitary = np.zeros((dim, dim), dtype=np.complex128)
        leak = 0.0
        batch = max(1, SPARSE_SUPPORT_CAP >> n_data)
        for start in range(0, dim, batch):
            xs = range(start, min(dim, start + batch))
            state = _SparseState([x | x << nq for x in xs], np.ones(len(xs)), nq + n_data)
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
    defect = _unitarity_defect(unitary)
    if defect > UNITARY_TOL:
        raise SimulationError(f"restriction to data wires is not unitary: defect {defect:.3e}")
    return unitary


# --- references ------------------------------------------------------------

MAX_DFT_DIM = 4096


def dft_reference(m: int) -> np.ndarray:
    """The m-point DFT matrix with entry (y, x) = exp(2*pi*i*x*y/m)/sqrt(m)."""
    if m > MAX_DFT_DIM:
        raise CapacityError(f"DFT dimension {m} exceeds cap {MAX_DFT_DIM}")
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)
