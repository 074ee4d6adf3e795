"""Every gate in the table behaves the same through every consumer of the table."""

import numpy as np
import pytest

from qftkit.circuit import (
    CNOT,
    CP,
    GATES,
    Circuit,
    CircuitBuilder,
    H,
    MeasureBasis,
    P,
    Toffoli,
    X,
    dyadic,
)
from qftkit.errors import NonInvertibleError
from qftkit.netlist import decode, encode
from qftkit.sim import run_dense, run_sparse

# one instance of each declared gate on wires 0..2, and the same gate after
# inlining through PERM (sub wire i -> parent wire PERM[i])
PERM = (2, 0, 1)
EXAMPLES = {
    H: (H(2), H(1)),
    P: (P(1, dyadic(3, 3)), P(0, dyadic(3, 3))),
    CP: (CP(0, 2, dyadic(1, 4)), CP(2, 1, dyadic(1, 4))),
    X: (X(1), X(0)),
    CNOT: (CNOT(2, 0), CNOT(1, 2)),
    Toffoli: (Toffoli(0, 2, 1), Toffoli(2, 1, 0)),
    MeasureBasis: (MeasureBasis(1, "y", 0), MeasureBasis(0, "y", 0)),
}


@pytest.mark.parametrize("cls", list(GATES.values()), ids=list(GATES))
def test_gate_table_row(cls):
    gate, remapped = EXAMPLES[cls]
    assert gate.qubits() == tuple(getattr(gate, f) for f in cls.wires)
    n_classical = len(gate.clbits())

    c = Circuit.from_gates([gate], 3, n_classical=n_classical)
    text = encode(c)
    assert decode(text) == c and encode(decode(text)) == text

    b = CircuitBuilder(3)
    b.inline(c, PERM)
    assert b.build().layers == ((remapped,),)

    if cls.family == "measure":
        with pytest.raises(NonInvertibleError):
            gate.inverse()
    else:
        assert gate.inverse().inverse() == gate

    # a superposition with a distinct phase per wire, so that flips and phases show
    b = CircuitBuilder(3)
    for _ in range(n_classical):
        b.new_classical()
    for w in range(3):
        b.h(w)
        b.p(w, dyadic(1, w + 3))
    b.add(gate)
    c = b.build()
    dense = run_dense(c, x=5, rng=np.random.default_rng(3))
    sparse = run_sparse(c, x=5, rng=np.random.default_rng(3))
    assert dense.classical == sparse.classical
    sparse_state = np.zeros(8, dtype=complex)
    sparse_state[list(sparse.amplitudes)] = list(sparse.amplitudes.values())
    assert np.linalg.norm(dense.state - sparse_state) < 1e-12
