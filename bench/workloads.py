"""The three workloads: their inputs, their fixed list of operations, their checks.

Every workload draws its inputs from the workload seed in ``prepare`` and
then runs the same list of operations in every pass.  An operation returns
the program's output; its check compares that output with ``references`` or
with a property the method must have, and returns one of the verdicts below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import references as ref
from qftkit import acceptance, netlist, phasest, qft_pow2, revarith, shor, sim
from qftkit.qft_pow2 import QftPlan

OK = "ok"
FAILED = "failed"  # the operation did not do its job (counted in ``failed``)
WRONG = "wrong"  # the output contradicts its reference (``correct`` turns false)

TOL = 1e-9

# the inputs are the same in every pass, so each reference is computed once
_dft_column = functools.cache(ref.dft_column)
_dft_matrix = functools.cache(ref.dft_matrix)
_order_distribution = functools.cache(ref.order_distribution)


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any], str] = lambda result: OK
    built: Callable[[Any], Any] = lambda result: None  # the circuit to count, if any


def _verdict(ok: bool) -> str:
    return OK if ok else WRONG


def _max_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)))


class Workload:
    name = ""
    load = ""  # the reference computation that normalises pass time

    def prepare(self, seed: int) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict) -> list[Op]:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Put the program back in a fresh process's state before each pass."""


# --- build ------------------------------------------------------------------------

# n = k = 64 is left out: its 12 s build is one operation no reference can
# follow, and with it the workload's pass_ref spread by 5-13% between runs
BUILD_PLANS = ((12, 4), (32, 8), (8, 32), (16, 48))
CHANNEL_TRIALS = 200
CHANNEL_STRATA = 4
PREFIX_PLANS = ((8, 16), (16, 32))
PREFIX_VECTORS = 3


def channel_floor(fail_bound: float, trials: int) -> float:
    """1 - failure_bound - 3 sigma of the success count at the promised rate."""
    p = max(0.0, 1.0 - fail_bound)
    return p - 3.0 * math.sqrt(p * (1.0 - p) / trials)


class Build(Workload):
    name = "build"
    load = "churn"

    def prepare(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        channel = {}
        for n, k in BUILD_PLANS:
            if k < n:
                continue
            width = (1 << n) // CHANNEL_STRATA
            xs = [s * width + int(rng.integers(0, width)) for s in range(CHANNEL_STRATA)]
            channel[n, k] = [(x, int(rng.integers(1 << 31))) for x in xs]
        prefix = {
            (k, n): [[int(v) for v in rng.integers(0, 1 << n, size=k)] for _ in range(PREFIX_VECTORS)]
            for k, n in PREFIX_PLANS
        }
        # warm-up: one small trip through every operation kind
        pipe = qft_pow2.logdepth_qft(QftPlan("logdepth", 4, k=4))
        netlist.decode(netlist.encode(pipe.circuit))
        pipe.run_channel(3, trials=10, seed=0)
        sim.run_classical_bits(revarith.build_prefix_add(3, 4), 0x123)
        return {"channel": channel, "prefix": prefix}

    def ops(self, inputs: dict) -> list[Op]:
        ops: list[Op] = []
        for n, k in BUILD_PLANS:
            ops += self._plan_ops(n, k, inputs["channel"].get((n, k), []))
        for (k, n), vectors in inputs["prefix"].items():
            ops += self._prefix_ops(k, n, vectors)
        return ops

    @staticmethod
    def _plan_ops(n: int, k: int, channel_inputs) -> list[Op]:
        def build(ctx):
            ctx.clear()  # drop the previous plan's circuit and text
            ctx["pipe"] = qft_pow2.logdepth_qft(QftPlan("logdepth", n, k=k))
            return ctx["pipe"]

        def check_build(pipe) -> str:
            c = pipe.circuit
            depth_cap = acceptance.C_DEPTH * (math.log2(n) + math.log2(k))
            stages = sum(c.metadata["stage_sizes"].values())
            return _verdict(c.depth <= depth_cap and c.size <= acceptance.C_SIZE * n * k and stages == c.size)

        def encode(ctx):
            ctx["text"] = netlist.encode(ctx["pipe"].circuit)
            return ctx

        def decode(ctx):
            ctx["decoded"] = netlist.decode(ctx["text"])
            return ctx

        def check_decode(ctx) -> str:
            d, c = ctx.pop("decoded"), ctx["pipe"].circuit
            return _verdict(d == c and d.metadata == c.metadata and netlist.encode(d) == ctx["text"])

        ops = [
            Op(f"logdepth({n},{k})", build, check_build, built=lambda pipe: pipe.circuit),
            Op(f"encode({n},{k})", encode),
            Op(f"decode({n},{k})", decode, check_decode),
        ]
        floor = channel_floor(phasest.failure_bound(n, k), CHANNEL_TRIALS)
        for x, seed in channel_inputs:
            ops.append(
                Op(
                    f"run_channel({n},{k},x={x})",
                    lambda ctx, x=x, seed=seed: ctx["pipe"].run_channel(x, trials=CHANNEL_TRIALS, seed=seed),
                    lambda out: OK if out["success_rate"] >= floor else FAILED,
                )
            )
        return ops

    @staticmethod
    def _prefix_ops(k: int, n: int, vectors) -> list[Op]:
        def build(ctx):
            ctx["adder"] = revarith.build_prefix_add(k, n)
            return ctx["adder"]

        def check_sums(bits, values) -> str:
            regs = [(bits >> (j * n)) & ((1 << n) - 1) for j in range(k)]
            return _verdict(regs == ref.prefix_sums(values, n) and bits >> (k * n) == 0)

        ops = [Op(f"prefix_add({k},{n})", build, built=lambda c: c)]
        for i, values in enumerate(vectors):
            packed = sum(v << (j * n) for j, v in enumerate(values))
            ops.append(
                Op(
                    f"prefix_add({k},{n})#{i}",
                    lambda ctx, packed=packed: sim.run_classical_bits(ctx["adder"], packed),
                    lambda bits, values=values: check_sums(bits, values),
                )
            )
        return ops


# --- statevector --------------------------------------------------------------------

# name -> (qft_pow2 builder, args); banded transforms carry their band as the second argument
SV_CIRCUITS = {
    "standard(20)": ("standard_qft", (20,)),
    "banded(20,6)": ("banded_qft", (20, 6)),
    "standard(16)": ("standard_qft", (16,)),
    "banded(16,4)": ("banded_qft", (16, 4)),
    "standard(10)": ("standard_qft", (10,)),
    "split(8)": ("split_qft", (8,)),
    "banded(8,3)": ("banded_qft", (8, 3)),
}
SV_DENSE = ("standard(20)", "banded(20,6)", "standard(16)", "banded(16,4)")
SV_UNITARY = ("standard(10)", "split(8)", "banded(8,3)")
SV_SPARSE = ("standard(16)", "standard(16)")


class Statevector(Workload):
    name = "statevector"
    load = "arrays"

    def prepare(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        inputs = {
            "dense": [(name, int(rng.integers(0, 1 << SV_CIRCUITS[name][1][0]))) for name in SV_DENSE],
            "sparse": [(name, int(rng.integers(0, 1 << SV_CIRCUITS[name][1][0]))) for name in SV_SPARSE],
        }
        sim.run_dense(qft_pow2.standard_qft(14), x=5)
        sim.extract_unitary(qft_pow2.standard_qft(4))
        sim.run_sparse(qft_pow2.standard_qft(8), x=5)
        return inputs

    def _check_state(self, name: str, state: np.ndarray, x: int) -> str:
        args = SV_CIRCUITS[name][1]
        n = args[0]
        got = state[ref.bit_reversal(n)]
        want = _dft_column(n, x)
        if len(args) == 2:  # banded: within the recomputed bound of the exact column
            return _verdict(float(np.linalg.norm(got - want)) <= ref.banded_bound(n, args[1]) + TOL)
        return _verdict(_max_err(got, want) <= TOL)

    def _check_unitary(self, name: str, u: np.ndarray) -> str:
        args = SV_CIRCUITS[name][1]
        n = args[0]
        got = u[ref.bit_reversal(n)]
        want = _dft_matrix(n)
        if len(args) == 2:
            return _verdict(float(np.linalg.norm(got - want, 2)) <= ref.banded_bound(n, args[1]) + TOL)
        return _verdict(_max_err(got, want) <= TOL)

    def ops(self, inputs: dict) -> list[Op]:
        ops = []
        for name, (builder, args) in SV_CIRCUITS.items():

            def build(ctx, name=name, builder=builder, args=args):
                ctx[name] = getattr(qft_pow2, builder)(*args)
                return ctx[name]

            ops.append(Op(f"build {name}", build, built=lambda c: c))
        for name, x in inputs["dense"]:
            ops.append(
                Op(
                    f"run_dense {name} x={x}",
                    lambda ctx, name=name, x=x: sim.run_dense(ctx[name], x=x).state,
                    lambda state, name=name, x=x: self._check_state(name, state, x),
                )
            )
        for name in SV_UNITARY:
            ops.append(
                Op(
                    f"extract_unitary {name}",
                    lambda ctx, name=name: sim.extract_unitary(ctx[name]),
                    lambda u, name=name: self._check_unitary(name, u),
                )
            )
        for name, x in inputs["sparse"]:
            n = SV_CIRCUITS[name][1][0]

            def check_sparse(amps, name=name, x=x, n=n) -> str:
                state = np.zeros(1 << n, dtype=np.complex128)
                for idx, amp in amps.items():
                    state[idx] = amp
                return self._check_state(name, state, x)

            ops.append(
                Op(
                    f"run_sparse {name} x={x}",
                    lambda ctx, name=name, x=x: sim.run_sparse(ctx[name], x=x).amplitudes,
                    check_sparse,
                )
            )
        return ops


# --- factor -------------------------------------------------------------------------

GATE_MODULUS = 15
GATE_BASES = tuple(a for a in range(2, GATE_MODULUS) if math.gcd(a, GATE_MODULUS) == 1)
GATE_FACTOR_SEEDS = 4  # per transform variant
BIG_COMPOSITES = (1025, 2047)  # 2^22-point kernels
BIG_DRAWS = 2
SMALL_COMPOSITES = (129, 255)  # 2^16-point kernels, cheap enough that retries barely move pass time
SMALL_DRAWS = 6


class Factor(Workload):
    name = "factor"
    load = "mixed"  # the 2^22-point kernels are array work, the rest object churn

    def prepare(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        big = []
        for n in rng.choice(ref.odd_composites(*BIG_COMPOSITES), size=BIG_DRAWS, replace=False):
            n = int(n)
            units = [a for a in range(2, n - 1) if math.gcd(a, n) == 1]
            big.append((n, int(rng.choice(units)), int(rng.integers(1 << 31))))
        small = [
            (int(n), int(rng.integers(1 << 31)))
            for n in rng.choice(ref.odd_composites(*SMALL_COMPOSITES), size=SMALL_DRAWS, replace=False)
        ]
        gate_seeds = [int(s) for s in rng.integers(1 << 31, size=GATE_FACTOR_SEEDS)]
        shor.gate_distribution(GATE_MODULUS, 2)
        shor.analytic_distribution(21, 2)
        return {"big": big, "small": small, "gate_seeds": gate_seeds}

    def start_pass(self) -> None:
        shor._GATE_CACHE.clear()
        shor._ANALYTIC_CACHE.clear()

    def _check_distribution(self, probs: np.ndarray, n: int, a: int) -> str:
        want = _order_distribution(n, a)
        return _verdict(probs.shape == want.shape and _max_err(probs, want) <= TOL)

    @staticmethod
    def _check_divisor(out: dict, n: int) -> str:
        d = out["divisor"]
        if d is None:
            return FAILED
        return _verdict(1 < d < n and n % d == 0)

    def ops(self, inputs: dict) -> list[Op]:
        m15 = GATE_MODULUS
        n_x = 2 * m15.bit_length()
        rev = ref.bit_reversal(n_x)
        ops = []

        def order_circuit(ctx, a):
            ctx[a] = shor.build_order_circuit(m15, a)
            return ctx[a]

        def order_sparse(ctx, a):
            ctx[a] = sim.run_sparse(ctx[a], x=0).amplitudes
            return ctx[a]

        for a in GATE_BASES:
            ops += [
                Op(f"build_order_circuit({m15},{a})", lambda ctx, a=a: order_circuit(ctx, a), built=lambda c: c),
                Op(f"run_sparse order({m15},{a})", lambda ctx, a=a: order_sparse(ctx, a)),
                Op(
                    f"sparse_marginal order({m15},{a})",
                    lambda ctx, a=a: sim.sparse_marginal(ctx.pop(a), list(range(n_x))),
                    lambda probs, a=a: self._check_distribution(probs[rev], m15, a),
                ),
            ]
        for a in GATE_BASES:
            ops.append(
                Op(
                    f"gate_distribution({m15},{a})",
                    lambda ctx, a=a: shor.gate_distribution(m15, a),
                    lambda probs, a=a: self._check_distribution(probs, m15, a),
                )
            )
            ops.append(
                Op(
                    f"analytic_distribution({m15},{a})",
                    lambda ctx, a=a: shor.analytic_distribution(m15, a),
                    lambda probs, a=a: self._check_distribution(probs, m15, a),
                )
            )
        for qft in shor.QFT_VARIANTS:
            for s in inputs["gate_seeds"]:
                ops.append(
                    Op(
                        f"factor({m15},gate,{qft},seed={s})",
                        lambda ctx, s=s, qft=qft: shor.factor(m15, seed=s, backend="gate", qft=qft),
                        lambda out: self._check_divisor(out, m15),
                    )
                )
        for n, a, s in inputs["big"]:

            def check_order(res, n=n, a=a) -> str:
                in_range = 0 <= res.y < res.m
                return _verdict(in_range and (not res.verified or pow(a, res.convergent[1], n) == 1))

            ops += [
                Op(
                    f"analytic_distribution({n},{a})",
                    lambda ctx, n=n, a=a: shor.analytic_distribution(n, a),
                    lambda probs, n=n, a=a: self._check_distribution(probs, n, a),
                ),
                Op(
                    f"order_finding_run({n},{a})",
                    lambda ctx, n=n, a=a, s=s: shor.order_finding_run(
                        shor.FactorTask(n, a), backend="analytic", rng=np.random.default_rng(s)
                    ),
                    check_order,
                ),
            ]
        for n, s in inputs["small"]:
            ops.append(
                Op(
                    f"factor({n},analytic,seed={s})",
                    lambda ctx, n=n, s=s: shor.factor(n, seed=s, backend="analytic"),
                    lambda out, n=n: self._check_divisor(out, n),
                )
            )
        return ops


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Build, Statevector, Factor)}
