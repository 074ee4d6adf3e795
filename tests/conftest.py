import numpy as np
import pytest

from qftkit.circuit import CircuitBuilder, dyadic


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def bit_reversed():
    """r with r[y] = the n-bit reversal of y: the row order every transform builder records."""

    def rev(n: int) -> np.ndarray:
        return np.array([int(f"{y:0{n}b}"[::-1], 2) for y in range(1 << n)])

    return rev


@pytest.fixture
def random_circuit():
    """Factory for small random circuits of H, CNOT, Toffoli, X and CP gates.

    ``phases=False`` leaves out X and CP.  No draw emits ``P``.
    """

    def make(rng, n_qubits: int = 4, n_gates: int = 12, phases: bool = True):
        b = CircuitBuilder(n_qubits)
        for _ in range(n_gates):
            kind = rng.integers(0, 5 if phases else 3)
            wires = rng.choice(n_qubits, size=3, replace=False)
            if kind == 0:
                b.h(int(wires[0]))
            elif kind == 1:
                b.cnot(int(wires[0]), int(wires[1]))
            elif kind == 2:
                b.toffoli(int(wires[0]), int(wires[1]), int(wires[2]))
            elif kind == 3:
                b.x(int(wires[0]))
            else:
                b.cp(int(wires[0]), int(wires[1]), dyadic(int(rng.integers(1, 16)), 4))
        return b.build()

    return make
