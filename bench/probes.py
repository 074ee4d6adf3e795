"""Fixed calls made only in traced passes.

``gate_kind_costs`` times the dense and sparse simulators on circuits made of
one gate kind.  ``layer_kit`` makes one small call into every layer, so that
every per-layer metric has a reading on every workload, including layers the
workload itself never calls; its spans sit under ``bench.kit``.
"""

from __future__ import annotations

import time

import numpy as np

from qftkit import circuit, netlist, qft_pow2, revarith, shor, sim
from qftkit.circuit import CNOT, CP, H, MeasureBasis, P, Toffoli, X, dyadic

GATE_KINDS = ("h", "p", "cp", "x", "cnot", "ccx", "meas")
DENSE_WIRES = 14
SPARSE_WIRES = 10
GATES_PER_CIRCUIT = 24
REPEATS = 3


def _one_kind(kind: str, nq: int, rng: np.random.Generator) -> circuit.Circuit:
    gates = []
    for i in range(GATES_PER_CIRCUIT if kind != "meas" else nq):
        w = [int(v) for v in rng.choice(nq, size=3, replace=False)]
        theta = dyadic(int(rng.integers(1, 64)) | 1, 7)
        gates.append(
            {
                "h": lambda: H(w[0]),
                "p": lambda: P(w[0], theta),
                "cp": lambda: CP(w[0], w[1], theta),
                "x": lambda: X(w[0]),
                "cnot": lambda: CNOT(w[0], w[1]),
                "ccx": lambda: Toffoli(w[0], w[1], w[2]),
                "meas": lambda: MeasureBasis(i, "x", i),
            }[kind]()
        )
    n_classical = nq if kind == "meas" else 0
    return circuit.Circuit.from_gates(gates, nq, n_classical=n_classical)


def _best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def gate_kind_costs() -> dict[str, float]:
    """ns per amplitude per gate, dense (2^14 amplitudes) and sparse (full 2^10 support)."""
    rng = np.random.default_rng(20000606)
    amps = rng.normal(size=1 << SPARSE_WIRES) + 1j * rng.normal(size=1 << SPARSE_WIRES)
    amps /= np.linalg.norm(amps)
    support = {i: complex(a) for i, a in enumerate(amps)}
    empty_dense = circuit.Circuit.from_gates([], DENSE_WIRES)
    empty_sparse = circuit.Circuit.from_gates([], SPARSE_WIRES)
    base_dense = _best_time(lambda: sim.run_dense(empty_dense))
    base_sparse = _best_time(lambda: sim.run_sparse(empty_sparse, initial=support))
    out = {}
    for kind in GATE_KINDS:
        dense = _one_kind(kind, DENSE_WIRES, rng)
        sparse = _one_kind(kind, SPARSE_WIRES, rng)
        meas_rng = np.random.default_rng(1)
        t_dense = _best_time(lambda: sim.run_dense(dense, rng=meas_rng)) - base_dense
        t_sparse = _best_time(lambda: sim.run_sparse(sparse, rng=meas_rng, initial=support)) - base_sparse
        out[f"sim.dense_ns_per_amp.{kind}"] = 1e9 * t_dense / (dense.size << DENSE_WIRES)
        out[f"sim.sparse_ns_per_amp.{kind}"] = 1e9 * t_sparse / (sparse.size << SPARSE_WIRES)
    return out


def layer_kit() -> None:
    """One small call into each layer; the shor caches are left as found (empty)."""
    adder = revarith.build_prefix_add(3, 4)
    revarith.build_telescoping_subtract(3, 4)
    revarith.build_multiplier(3, 3, 6)
    revarith.build_iterated_product(15, revarith.precompute_powers(7, 15, 4))
    sim.run_classical_bits(adder, 0x5A3)
    circuit.CircuitBuilder(adder.n_qubits).inline(adder, list(range(adder.n_qubits)))
    pipe = qft_pow2.logdepth_qft(qft_pow2.QftPlan("logdepth", 4, k=4))
    pipe.run_channel(5, trials=50, seed=0)
    netlist.decode(netlist.encode(pipe.circuit))
    ladder = qft_pow2.standard_qft(6)
    qft_pow2.banded_qft(6, 2)
    qft_pow2.split_qft(6)
    sim.run_dense(ladder, x=3)
    sim.extract_unitary(qft_pow2.standard_qft(4))
    res = sim.run_sparse(ladder, x=3)
    sim.sparse_marginal(res.amplitudes, list(range(6)))
    shor.gate_distribution(15, 7)
    shor.analytic_distribution(21, 2)
    shor.factor(21, seed=0, backend="analytic")
    shor._GATE_CACHE.clear()
    shor._ANALYTIC_CACHE.clear()
