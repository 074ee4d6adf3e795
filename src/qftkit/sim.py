"""Circuit simulators: dense statevector, sparse amplitudes, classical bits.

Wire/bit convention everywhere: basis index bit ``i`` is quantum wire ``i``
(wire 0 is the least significant bit).  Data wires come first, ancillas
after, and an integer input ``x`` loads the data wires with ancillas at 0.

The sparse simulator tracks a ``dict[int, complex]`` of nonzero amplitudes.
Its support can only double at a Hadamard, so circuits that are wide but
classically-branching-poor (reversible arithmetic with a few H wires) run in
time proportional to their true branching, independent of total width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, H, P, dyadic
from .errors import CapacityError, SimulationError

DEFAULT_SEED = 1729
MAX_DENSE_QUBITS = 26
MAX_UNITARY_QUBITS = 12
SPARSE_SUPPORT_CAP = 1 << 21
_SQRT_HALF = 1.0 / np.sqrt(2.0)
_PRUNE = 1e-13
_S_DAGGER = dyadic(3, 2)


def _basis_rotation(gate: Gate) -> tuple[Gate, ...]:
    """Gates that turn an x or y measurement into a z measurement.

    Each simulator applies them before the collapse and their inverses, in
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
    """Final state plus the classical bits written by measurements."""

    classical: list
    state: np.ndarray | None = None
    amplitudes: dict[int, complex] = field(default_factory=dict)


# --- dense statevector -----------------------------------------------------


def basis_state(num_wires: int, x: int) -> np.ndarray:
    if not 0 <= x < (1 << num_wires):
        raise SimulationError(f"basis index {x} out of range for {num_wires} wires")
    state = np.zeros(1 << num_wires, dtype=np.complex128)
    state[x] = 1.0
    return state


def _check_input(circuit: Circuit, x: int) -> None:
    """Refuse a basis input that does not fit the circuit's data wires."""
    if not 0 <= x < (1 << circuit.n_qubits):
        raise SimulationError(f"input {x} out of range for {circuit.n_qubits} data wires")


def _axis(nq: int, wire: int) -> int:
    return nq - 1 - wire


def _sl(ndim: int, ax: int, bit: int) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[ax] = bit
    return tuple(idx)


def _apply_h_dense(psi: np.ndarray, ax: int) -> None:
    a = psi[_sl(psi.ndim, ax, 0)].copy()
    b = psi[_sl(psi.ndim, ax, 1)].copy()
    psi[_sl(psi.ndim, ax, 0)] = (a + b) * _SQRT_HALF
    psi[_sl(psi.ndim, ax, 1)] = (a - b) * _SQRT_HALF


def _apply_phase_dense(psi: np.ndarray, axes: list[int], phase: complex) -> None:
    idx: list = [slice(None)] * psi.ndim
    for ax in axes:
        idx[ax] = 1
    psi[tuple(idx)] *= phase


def _apply_flip_dense(psi: np.ndarray, ctrl_axes: list[int], ax_t: int) -> None:
    idx: list = [slice(None)] * psi.ndim
    for ax in ctrl_axes:
        idx[ax] = 1
    sub = psi[tuple(idx)]
    ax = ax_t - sum(a < ax_t for a in ctrl_axes)
    tmp = sub[_sl(sub.ndim, ax, 0)].copy()
    sub[_sl(sub.ndim, ax, 0)] = sub[_sl(sub.ndim, ax, 1)]
    sub[_sl(sub.ndim, ax, 1)] = tmp


def _collapse_dense(psi: np.ndarray, ax: int, rng: np.random.Generator) -> int:
    branch1 = psi[_sl(psi.ndim, ax, 1)]
    p1 = float(np.sum(np.abs(branch1) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome else max(1.0 - p1, 0.0)
    if p <= 0.0:
        raise SimulationError("measurement branch has zero probability")
    psi[_sl(psi.ndim, ax, 1 - outcome)] = 0.0
    psi *= 1.0 / np.sqrt(p)
    return outcome


def _dense_apply_gate(psi, gate, nq, rng, classical) -> None:
    family = gate.family
    axes = [_axis(nq, w) for w in gate.qubits()]
    if family == "h":
        _apply_h_dense(psi, axes[0])
    elif family == "phase":
        _apply_phase_dense(psi, axes, gate.theta.phase())
    elif family == "flip":
        _apply_flip_dense(psi, axes[:-1], axes[-1])
    elif family == "measure":
        rotation = _basis_rotation(gate)
        for g in rotation:
            _dense_apply_gate(psi, g, nq, rng, classical)
        classical[gate.out] = _collapse_dense(psi, axes[0], rng)
        for g in reversed(rotation):
            _dense_apply_gate(psi, g.inverse(), nq, rng, classical)
    else:
        raise SimulationError(f"dense simulator cannot apply {gate!r}")


def run_dense(
    circuit: Circuit,
    x: int = 0,
    rng: np.random.Generator | None = None,
    initial: np.ndarray | None = None,
) -> RunResult:
    """Simulate on a full statevector; returns the flat final state."""
    nq = circuit.width
    if nq > MAX_DENSE_QUBITS:
        raise CapacityError(f"{nq} qubits exceeds dense cap {MAX_DENSE_QUBITS}")
    if initial is not None:
        state = np.array(initial, dtype=np.complex128)
        if state.shape != (1 << nq,):
            raise SimulationError("initial state has wrong dimension")
    else:
        _check_input(circuit, x)
        state = basis_state(nq, x)
    psi = state.reshape([2] * nq) if nq else state
    classical: list = [None] * circuit.n_classical
    for gate in circuit.all_gates():
        if gate.family == "measure" and rng is None:
            rng = np.random.default_rng(DEFAULT_SEED)
        _dense_apply_gate(psi, gate, nq, rng, classical)
    return RunResult(classical=classical, state=state.reshape(-1))


# --- sparse amplitudes ------------------------------------------------------


def _sparse_h(amps: dict[int, complex], w: int) -> dict[int, complex]:
    out: dict[int, complex] = {}
    mask = 1 << w
    for idx, amp in amps.items():
        base = idx & ~mask
        contrib = amp * _SQRT_HALF
        out[base] = out.get(base, 0.0) + contrib
        sign = -contrib if idx & mask else contrib
        out[base | mask] = out.get(base | mask, 0.0) + sign
    return {k: v for k, v in out.items() if abs(v) > _PRUNE}


def _sparse_phase(amps, wires: tuple[int, ...], phase: complex) -> dict[int, complex]:
    mask = 0
    for w in wires:
        mask |= 1 << w
    return {idx: (amp * phase if (idx & mask) == mask else amp) for idx, amp in amps.items()}


def _sparse_flip(amps, ctrls: tuple[int, ...], target: int) -> dict[int, complex]:
    cmask = 0
    for w in ctrls:
        cmask |= 1 << w
    tmask = 1 << target
    return {(idx ^ tmask if (idx & cmask) == cmask else idx): amp for idx, amp in amps.items()}


def _sparse_collapse(amps, w, rng) -> tuple[dict[int, complex], int]:
    mask = 1 << w
    p1 = sum(abs(a) ** 2 for idx, a in amps.items() if idx & mask)
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome else max(1.0 - p1, 0.0)
    if p <= 0.0:
        raise SimulationError("measurement branch has zero probability")
    scale = 1.0 / np.sqrt(p)
    amps = {idx: a * scale for idx, a in amps.items() if bool(idx & mask) == bool(outcome)}
    return amps, outcome


def _sparse_apply_gate(amps, gate, rng, classical) -> dict[int, complex]:
    family = gate.family
    if family == "h":
        return _sparse_h(amps, gate.qubits()[0])
    if family == "phase":
        return _sparse_phase(amps, gate.qubits(), gate.theta.phase())
    if family == "flip":
        *ctrls, target = gate.qubits()
        return _sparse_flip(amps, ctrls, target)
    if family == "measure":
        rotation = _basis_rotation(gate)
        for g in rotation:
            amps = _sparse_apply_gate(amps, g, rng, classical)
        amps, classical[gate.out] = _sparse_collapse(amps, gate.target, rng)
        for g in reversed(rotation):
            amps = _sparse_apply_gate(amps, g.inverse(), rng, classical)
        return amps
    raise SimulationError(f"sparse simulator cannot apply {gate!r}")


def run_sparse(
    circuit: Circuit,
    x: int = 0,
    rng: np.random.Generator | None = None,
    initial: dict[int, complex] | None = None,
    support_cap: int = SPARSE_SUPPORT_CAP,
) -> RunResult:
    """Simulate tracking only nonzero amplitudes.

    ``initial`` maps basis indices over all ``circuit.width`` wires to
    amplitudes; an index outside ``0 <= k < 2**circuit.width`` is refused.
    """
    if initial is not None:
        amps = dict(initial)
        dim = 1 << circuit.width
        for k in amps:
            if not 0 <= k < dim:
                raise SimulationError(f"initial index {k} out of range for {circuit.width} wires")
    else:
        _check_input(circuit, x)
        amps = {x: 1.0 + 0.0j}
    classical: list = [None] * circuit.n_classical
    for gate in circuit.all_gates():
        if gate.family == "measure" and rng is None:
            rng = np.random.default_rng(DEFAULT_SEED)
        amps = _sparse_apply_gate(amps, gate, rng, classical)
        if len(amps) > support_cap:
            raise CapacityError(f"sparse support {len(amps)} exceeds cap {support_cap}")
    return RunResult(classical=classical, amplitudes=amps)


def sparse_to_dense(amps: dict[int, complex], num_wires: int) -> np.ndarray:
    if num_wires > MAX_DENSE_QUBITS:
        raise CapacityError(f"{num_wires} qubits exceeds dense cap {MAX_DENSE_QUBITS}")
    state = np.zeros(1 << num_wires, dtype=np.complex128)
    for idx, amp in amps.items():
        state[idx] = amp
    return state


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


def run_classical_bits(circuit: Circuit, x: int) -> int:
    """Evolve a basis state through a circuit of flip gates (X, CNOT, Toffoli) only.

    Returns the final bit pattern over all quantum wires.  Orders of
    magnitude faster than either quantum simulator; used to test reversible
    arithmetic exhaustively.
    """
    _check_input(circuit, x)
    bits = x
    for gate in circuit.all_gates():
        if gate.family != "flip":
            raise SimulationError(f"not a classical gate: {gate!r}")
        *ctrls, target = gate.qubits()
        for c in ctrls:
            if not bits >> c & 1:
                break
        else:
            bits ^= 1 << target
    return bits


# --- unitary extraction -----------------------------------------------------


def extract_unitary(circuit: Circuit, atol: float = 1e-9) -> np.ndarray:
    """The unitary on the data wires, with ancillas going |0> -> |0>.

    Dense batched evaluation when the whole circuit fits in
    ``MAX_UNITARY_QUBITS``; otherwise a per-column sparse pass that works for
    any width as long as there are at most ``MAX_UNITARY_QUBITS`` data wires.
    Any amplitude left on a nonzero ancilla pattern (beyond ``atol`` mass per
    column) is an error, as is a non-unitary restriction.
    """
    if circuit.has_measurement():
        raise SimulationError("cannot extract a unitary from a measuring circuit")
    n_data = circuit.n_qubits
    nq = circuit.width
    dim = 1 << n_data
    if nq <= MAX_UNITARY_QUBITS:
        cols = np.zeros((1 << nq, dim), dtype=np.complex128)
        cols[np.arange(dim), np.arange(dim)] = 1.0
        psi = cols.reshape([2] * nq + [dim])
        for gate in circuit.all_gates():
            _dense_apply_gate(psi, gate, nq, None, None)
        matrix = cols
        unitary = matrix[:dim, :].copy()
        leak = 0.0 if nq == n_data else float(np.max(np.sum(np.abs(matrix[dim:, :]) ** 2, axis=0)))
    elif n_data <= MAX_UNITARY_QUBITS:
        unitary = np.zeros((dim, dim), dtype=np.complex128)
        leak = 0.0
        for x in range(dim):
            res = run_sparse(circuit, x=x)
            col_leak = 0.0
            for idx, amp in res.amplitudes.items():
                if idx < dim:
                    unitary[idx, x] = amp
                else:
                    col_leak += abs(amp) ** 2
            leak = max(leak, col_leak)
    else:
        raise CapacityError(
            f"{n_data} data wires exceeds unitary cap {MAX_UNITARY_QUBITS}"
        )
    if leak > atol:
        raise SimulationError(f"ancillas do not return to |0>: leaked mass {leak:.3e}")
    defect = float(np.max(np.abs(unitary.conj().T @ unitary - np.eye(dim))))
    if defect > atol:
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
