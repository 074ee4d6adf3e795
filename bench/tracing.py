"""Spans around calls into qftkit's layers, recorded from the benchmark side.

``Tracer.install`` swaps each listed public function for a wrapper that
records a span (name, start, end, parent), wherever the package holds a
reference to it, so calls a layer makes into another layer are caught too.
Nothing is wrapped in untraced runs.  Spans stay in memory until the run
ends; a layer's self time is its spans' length minus what their child spans
cover.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import defaultdict

from qftkit import circuit, netlist, phasest, qft_pow2, revarith, shor, sim

# (owner, attribute, span name); the span name is the layer metric's stem
TARGETS = (
    (circuit.Circuit, "from_gates", "circuit.from_gates"),
    (circuit.Circuit, "from_layers", "circuit.from_layers"),
    (circuit.Circuit, "inverse", "circuit.inverse"),
    (circuit.CircuitBuilder, "inline", "circuit.inline"),
    (revarith, "build_prefix_add", "revarith.prefix_add"),
    (revarith, "build_telescoping_subtract", "revarith.telescoping_subtract"),
    (revarith, "build_iterated_product", "revarith.iterated_product"),
    (revarith, "build_multiplier", "revarith.multiplier"),
    (qft_pow2, "prep_approx", "qft_pow2.prep"),
    (qft_pow2, "copy_fourier", "qft_pow2.copy"),
    (qft_pow2, "logdepth_qft", "qft_pow2.logdepth"),
    (qft_pow2, "standard_qft", "qft_pow2.ladder"),
    (qft_pow2, "banded_qft", "qft_pow2.ladder"),
    (qft_pow2, "split_qft", "qft_pow2.split"),
    (qft_pow2.LogdepthQft, "run_channel", "qft_pow2.run_channel"),
    (netlist, "encode", "netlist.encode"),
    (netlist, "decode", "netlist.decode"),
    (sim, "run_dense", "sim.dense"),
    (sim, "extract_unitary", "sim.unitary"),
    (sim, "run_sparse", "sim.sparse"),
    (sim, "sparse_marginal", "sim.marginal"),
    (sim, "run_classical_bits", "sim.classical"),
    (phasest, "reconstruct_batch", "phasest.reconstruct_batch"),
    (shor, "build_order_circuit", "shor.order_circuit"),
    (shor, "gate_distribution", "shor.gate_distribution"),
    (shor, "analytic_distribution", "shor.analytic_distribution"),
    (shor, "factor", "shor.factor"),
)

STAGES = ("prep", "copy", "measure", "uncopy")


class Tracer:
    """Span recorder for one traced run, cut into passes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.passes: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._gc_start = 0.0
        self._copy_depth = 0  # depth of the copy stage of the logdepth build in progress

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        c = self.counts
        if name == "circuit.from_gates":
            c["circuit.gates_scheduled"] += result.size
        elif name == "netlist.encode":
            c["netlist.bytes"] += len(result)
        elif name == "sim.sparse":
            c["sim.sparse_support"] = max(c["sim.sparse_support"], len(result.amplitudes))
        elif name == "shor.factor":
            c["shor.attempts"] += result["attempts"]
        elif name in ("qft_pow2.prep", "qft_pow2.copy") and self.parent_name() == "qft_pow2.logdepth":
            stage = name.split(".")[1]
            c[f"qft_pow2.stage_depth.{stage}"] += result.depth
            if stage == "copy":
                self._copy_depth = result.depth
        elif name == "qft_pow2.logdepth":
            sizes = result.circuit.metadata.get("stage_sizes", {})
            for stage in STAGES:
                c[f"qft_pow2.stage_gates.{stage}"] += sizes.get(stage, 0)
            # measurements sit on distinct wires, one layer; uncopy mirrors copy
            c["qft_pow2.stage_depth.measure"] += 1 if sizes.get("measure") else 0
            c["qft_pow2.stage_depth.uncopy"] += self._copy_depth if sizes.get("uncopy") else 0
            c["qft_pow2.ancilla"] += result.circuit.n_ancilla

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start

    # --- install / remove ---------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qftkit" or k.startswith("qftkit.")]
        for owner, attr, name in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, name)
            if isinstance(owner, type):
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            # a module function: replace every reference the package holds
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._undo.append((mod, key, raw))
                        setattr(mod, key, wrapped)
        gc.callbacks.append(self._gc_callback)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # --- per pass -----------------------------------------------------------

    def end_pass(self) -> dict[str, float]:
        """Self time per layer and the counts of one pass; spans move to the pass record."""
        self_time: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            self_time[name] += end - start
        for _, start, end, parent in self.spans:
            if parent is not None:
                self_time[self.spans[parent][0]] -= end - start
        values = {f"{name}_s": t for name, t in self_time.items() if not name.startswith("bench.")}
        values.update(self.counts)
        self.passes.append({"values": values, "spans": self.spans})
        self.spans = []
        self.counts = defaultdict(float)
        return values
