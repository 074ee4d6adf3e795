"""Power-of-two QFT constructions.

Four builders for the transform mod 2^n: the textbook H/CP ladder
(``standard_qft``), its banded approximation with an analytic error bound
(``banded_qft``), an exact divide-and-conquer form whose cross term is a
Karatsuba-split phase product (``split_qft``), and a three-stage shallow
pipeline (``logdepth_qft``) that prepares Fourier factor qubits directly,
copies them, and measures the copies, whose statistics decide the erasure of
the input register.

All builders leave the output in carry order: circuit wire i holds the factor
with denominator 2^{i+1}, which is the bit-reversal of the index order used by
``sim.dft_reference``.  The permutation is recorded in circuit metadata as
``output_permutation`` and read back through ``_output_wires``.

``overlap_witness`` and the cosine-tail helpers quantify how close two Fourier
states with phase parameters differing in a single high bit can be, which is
the obstruction that forces any exact transform to depth >= log2(n).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import CP, Circuit, CircuitBuilder, DyadicAngle, Gate, H, _check_angle_grid, dyadic
from .phasest import erase_failure, failure_bound
from .revarith import ONE, ZERO, BitRef, _emit_addsub_core, _emit_wallace, bnot
from .sim import DEFAULT_SEED

__all__ = [
    "QftPlan",
    "PLAN_KINDS",
    "standard_qft",
    "banded_qft",
    "split_qft",
    "prep_exact",
    "prep_approx",
    "copy_fourier",
    "LogdepthQft",
    "logdepth_qft",
    "build_from_plan",
    "viete_partial",
    "cos_tail",
    "overlap_witness",
]

PLAN_KINDS = ("standard", "banded", "split", "logdepth")


@dataclass(frozen=True)
class QftPlan:
    """What to build: a transform kind plus its size parameters.

    ``b`` is the band width (banded only, >= 1); ``k`` the copy count (logdepth
    only, even and >= 2 so the two readout bases get k/2 samples each).
    """

    kind: str
    n: int
    b: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.kind == "banded" and self.b is None:
            raise ValueError("banded plan needs a band width b")
        if self.kind != "banded" and self.b is not None:
            raise ValueError(f"{self.kind} plan takes no band width b")
        if self.b is not None and self.b < 1:
            raise ValueError(f"band width must be >= 1, got {self.b}")
        if self.kind != "logdepth" and self.k is not None:
            raise ValueError(f"{self.kind} plan takes no copy count k")
        if self.kind == "logdepth":
            if self.k is None:
                raise ValueError("logdepth plan needs a copy count k")
            if self.k < 2 or self.k % 2:
                raise ValueError(f"copy count must be even and >= 2, got {self.k}")


# --- standard and banded ladders ----------------------------------------------


def _output_permutation(n: int) -> list[int]:
    return [n - 1 - i for i in range(n)]


def _output_wires(circuit: Circuit) -> list[int]:
    """Wire ``j`` of the result holds bit ``j`` of the natural output index.

    The inverse of the recorded ``output_permutation`` (which sends wire w's bit
    to bit perm[w]), the identity when none is recorded, then the wires past it.
    A record that is not a permutation of the data wires is refused: a netlist
    can carry any metadata, and a repeated wire would merge amplitudes.
    """
    perm = circuit.metadata.get("output_permutation")
    if perm is None:
        return list(range(circuit.width))
    n = circuit.n_qubits
    if not (isinstance(perm, list) and all(type(w) is int for w in perm) and sorted(perm) == list(range(n))):
        raise ValueError(f"output_permutation {perm!r} is not a permutation of 0..{n - 1}")
    wires = [0] * n
    for w, j in enumerate(perm):
        wires[j] = w
    return wires + list(range(n, circuit.width))


def _ladder_layers(wires: Sequence[int], band: int | None = None) -> list[list[Gate]]:
    """The fixed ladder schedule on ``wires``, n = len(wires).

    H(wires[i]) sits at layer 2(n-1-i) and CP(wires[i], wires[t]) at
    (n-1-i)+(n-1-t).  wires[i] ends carrying the factor with denominator
    2^{i+1}.  The layer assignment packs everything into 2n-1 layers; CP
    gates sharing a layer have constant index sum i + t, hence are disjoint.
    """
    n = len(wires)
    layers: list[list[Gate]] = [[] for _ in range(2 * n - 1)]
    for i in range(n):
        layers[2 * (n - 1 - i)].append(H(wires[i]))
        for t in range(i):
            d = i - t
            if band is not None and d > band:
                continue
            layers[(n - 1 - i) + (n - 1 - t)].append(CP(wires[i], wires[t], dyadic(1, d + 1)))
    return [layer for layer in layers if layer]


def standard_qft(n: int) -> Circuit:
    """Exact transform mod 2^n: n H gates, n(n-1)/2 CP gates, depth <= 2n-1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_angle_grid("standard_qft", n)
    meta = {"kind": "standard", "n": n, "output_permutation": _output_permutation(n)}
    return Circuit.from_layers(_ladder_layers(range(n)), n, metadata=meta)


def banded_qft(n: int, b: int) -> Circuit:
    """The standard ladder with every CP of angle below 1/2^{b+1} dropped.

    The band is clamped to [1, n].  metadata["error_bound"] is the triangle
    inequality bound: each dropped CP(1/2^{d+1}) moves the operator by at most
    2*pi/2^{d+1}, and there are n-d of them at distance d.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    b_eff = max(1, min(b, n))
    _check_angle_grid("banded_qft", min(b_eff, n - 1) + 1)
    bound = 0.0
    for d in range(b_eff + 1, n):
        bound += math.ldexp((n - d) * 2.0 * math.pi, -(d + 1))
    meta = {
        "kind": "banded",
        "n": n,
        "b": b_eff,
        "error_bound": bound,
        "output_permutation": _output_permutation(n),
    }
    return Circuit.from_layers(_ladder_layers(range(n), band=b_eff), n, metadata=meta)


# --- split (phase product) exact transform ---------------------------------------


# Operand width at or below which a phase product is one CP per bit pair.  Of
# the bases below 32 (a base of 32 or more never splits at a buildable n), 17
# to 31 tie for the fewest gates in split_qft(64), and 17 is the smallest
# (ROADMAP item 9's table).
_PHASE_BASE = 17


def _emit_phase_product(b: CircuitBuilder, u: Sequence[BitRef], v: Sequence[BitRef], theta: DyadicAngle) -> None:
    """Apply e^{2 pi i theta u v} to two registers of wires and ZERO bits, lowest bit first.

    Bit pair (i, j) contributes theta 2^{i+j} turns, a whole number once
    i + j reaches theta's log denominator, so those bits drop, as do ZERO top
    bits.  An operand of at most ``_PHASE_BASE`` bits gets one CP per pair.
    Otherwise both split at h = ceil(max width / 2), u = u1 2^h + u0, and
    Karatsuba's identity uv = 2^h st + (2^{2h} - 2^h) u1 v1 + (1 - 2^h) u0 v0,
    with s = u0 + u1 and t = v0 + v1, makes the phase three half-size phase
    products, since the phase of a sum is the product of the phases.  s and
    t are summed out of place into h + 1 fresh wires and uncomputed after.
    """
    num, k = theta.numerator, theta.log_denominator
    u, v = list(u[:k]), list(v[:k])
    while u and u[-1] == ZERO:
        u.pop()
    while v and v[-1] == ZERO:
        v.pop()
    if min(len(u), len(v)) <= _PHASE_BASE:
        for i, x in enumerate(u):
            for j, y in enumerate(v[: k - i]):
                if x != ZERO and y != ZERO:
                    b.cp(x, y, dyadic(num << (i + j), k))
        return
    h = -(-max(len(u), len(v)) // 2)
    # each half padded with ZERO to h + 1 bits, the top one for the sum's carry out
    u0, u1, v0, v1 = ((half + [ZERO] * (h + 1))[: h + 1] for half in (u[:h], u[h:], v[:h], v[h:]))
    start = b.mark()
    s, t = b.new_ancillas(h + 1), b.new_ancillas(h + 1)
    _emit_addsub_core(b, u0, u1, outs=s)
    _emit_addsub_core(b, v0, v1, outs=t)
    stop = b.mark()
    _emit_phase_product(b, s, t, dyadic(num << h, k))
    _emit_phase_product(b, u1, v1, dyadic((num << 2 * h) - (num << h), k))
    _emit_phase_product(b, u0, v0, dyadic(num - (num << h), k))
    b.uncompute(start, stop)


def _emit_split(b: CircuitBuilder, wires: list[int]) -> int:
    """Split transform on ``wires``; returns this level's cross-term gate count.

    After the top half is transformed, the cross phase between the halves is
    e^{2 pi i u v / 2^n}, where u reads the top half in reversed wire order
    and v reads the untouched bottom half: one phase product.
    """
    n = len(wires)
    if n <= 3:
        for layer in _ladder_layers(wires):
            for g in layer:
                b.add(g)
        return 0
    m = n // 2
    lo, hi = wires[:m], wires[m:]
    _emit_split(b, hi)
    start = b.mark()
    _emit_phase_product(b, hi[::-1], lo, dyadic(1, n))
    step2 = b.mark() - start
    _emit_split(b, lo)
    return step2


def split_qft(n: int) -> Circuit:
    """Exact transform mod 2^n built by halving; recursion stops at 3 wires.

    metadata["step2_size"] counts the top level's cross-term gates, the phase
    product with its adders and their uncompute, so size(n) = size(ceil) +
    size(floor) + step2_size holds exactly.  Operands of at most
    ``_PHASE_BASE`` bits make the cross term plain CPs, so up to n = 35 the
    circuit is the ladder's gates in another order, on no ancilla.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_angle_grid("split_qft", n)
    b = CircuitBuilder(n)
    step2 = _emit_split(b, list(range(n)))
    meta = {
        "kind": "split",
        "n": n,
        "step2_size": step2,
        "output_permutation": _output_permutation(n),
    }
    return b.build(meta)


# --- factor-qubit preparation ---------------------------------------------------


def _fan_out(b: CircuitBuilder, root: int, copies: int) -> list[int]:
    """Grow a register of ``copies`` correlated wires by CNOT doubling."""
    refs = [root]
    while len(refs) < copies:
        grow = min(len(refs), copies - len(refs))
        for s in list(refs[:grow]):
            a = b.new_ancilla()
            b.cnot(s, a)
            refs.append(a)
    return refs


def prep_approx(n: int, k: int) -> Circuit:
    """|x>|0^n> -> |x>|psi~_x> keeping the k largest phase contributions per factor.

    Output wire n+w holds the factor with denominator 2^{n-w}.  Both sides of
    every controlled phase are fanned out by CNOT trees so all CP gates land
    in a single layer; the trees are then unwound.  Exact when k = n,
    otherwise each factor is off by a phase below 2^{-k} of a turn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"window must satisfy 1 <= k <= n, got {k}")
    _check_angle_grid("prep_approx", k)
    b = CircuitBuilder(2 * n)
    _emit_prep(b, n, k)
    meta = {
        "kind": "prep",
        "n": n,
        "k": k,
        "error_bound": n * 2.0 * math.pi * 2.0 ** (-k),
    }
    return b.build(meta)


def _emit_prep(b: CircuitBuilder, n: int, k: int) -> None:
    """prep_approx(n, k) on the builder's first 2n wires."""
    for j in range(n):
        b.h(2 * n - 1 - j)
    start = b.mark()
    ctrl_refs = [_fan_out(b, t, min(n - t, k)) for t in range(n)]
    tgt_refs = [_fan_out(b, 2 * n - 1 - j, min(j + 1, k)) for j in range(n)]
    stop = b.mark()
    ctrl_used = [0] * n
    tgt_used = [0] * n
    for j in range(n):
        for t in range(max(0, j + 1 - k), j + 1):
            cw = ctrl_refs[t][ctrl_used[t]]
            tw = tgt_refs[j][tgt_used[j]]
            ctrl_used[t] += 1
            tgt_used[j] += 1
            b.cp(cw, tw, dyadic(1, j + 1 - t))
    b.uncompute(start, stop)


def prep_exact(n: int) -> Circuit:
    """|x>|0^n> -> |x>|psi_x> exactly; prep_approx with the full window."""
    return prep_approx(n, n)


def copy_fourier(n: int, k: int) -> Circuit:
    """|0^n>^{k-1}|psi_x> -> |psi_x>^{k} on k n-wire registers, source last.

    H on the first (k-1)n wires, then the source loses the sum of the blanks:
    src <- src - sum_j blank_j mod 2^n.  That basis map sends the source's
    phase parameter x to every register, so each ends holding |psi_x>.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got ({n}, {k})")
    b = CircuitBuilder(k * n)
    if k > 1:
        _emit_copy(b, [list(range(j * n, (j + 1) * n)) for j in range(k)])
    return b.build({"kind": "copy", "n": n, "k": k})


def _emit_copy(b: CircuitBuilder, regs: Sequence[Sequence[int]]) -> None:
    """copy_fourier on the registers ``regs``, source last.

    The blanks' sum stays in carry-save form, as the Wallace tree's rows
    (s, c).  With ~v = -v - 1, one 3-2 step and one adder give
    t = src + ~s + ~c + 2 = src - (s + c) on fresh wires; the +2 is the
    adder's carry-in plus the free low bit of the step's carry row.  A second
    step and adder clear src ^= t + s + c, and two CNOTs move t into src.
    The second step is emitted before the first is undone, so it reads s and
    c while the first adder unwinds.
    """
    *blanks, src = regs
    n = len(src)
    for reg in blanks:
        for w in reg:
            b.h(w)
    start = b.mark()
    s, c = _emit_wallace(b, blanks, n)
    tree = b.mark()
    a_sum, a_carry = _emit_wallace(b, [src, [bnot(r) for r in s], [bnot(r) for r in c]], n)
    a_carry[0] = ONE
    a_stop = b.mark()
    t = b.new_ancillas(n)
    _emit_addsub_core(b, a_sum, a_carry, outs=t, carry_in=True)
    b_start = b.mark()
    b_sum, b_carry = _emit_wallace(b, [t, s, c], n)
    b_stop = b.mark()
    b.uncompute(tree, a_stop)
    _emit_addsub_core(b, b_sum, b_carry, outs=src)
    b.uncompute(b_start, b_stop)
    for ti, si in zip(t, src):
        b.cnot(ti, si)
        b.cnot(si, ti)
    b.uncompute(start, tree)


# --- the three-stage shallow pipeline --------------------------------------------


@dataclass
class LogdepthQft:
    """A built shallow transform plus its measurement-channel runner."""

    circuit: Circuit
    n: int
    k: int

    @property
    def window(self) -> int:
        """Phase contributions prep keeps per factor: all n once k >= n."""
        return min(self.n, self.k)

    def run_channel(
        self, x: int, trials: int = 1, seed: int | None = None
    ) -> dict:
        """Draw ``trials`` runs of the measure-and-erase stage for input x.

        A run clears the input register iff the modes of the k/2 readouts per
        basis and position reconstruct x, so ``successes`` ~ Bin(trials, 1 -
        ``erase_failure``); ``psi_fidelity`` is 1.  A truncated window (k < n)
        entangles the copies, which this model does not describe, so it is refused.
        """
        n, k, w = self.n, self.k, self.window
        if w < n:
            raise ValueError(f"run_channel needs the full window, got window {w} < n = {n}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        failure = erase_failure(n, k, x)
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        successes = int(rng.binomial(trials, 1.0 - failure))
        return {
            "trials": trials,
            "successes": successes,
            "success_rate": successes / trials,
            "psi_fidelity": 1.0,
            "erase_failure": failure,
            "failure_bound": failure_bound(n, k),
            "window": w,
        }


def logdepth_qft(plan: QftPlan) -> LogdepthQft:
    """Assemble prepare, copy, measure for the plan's (n, k).

    Data wires: |x> on 0..n-1, the transform output on n..2n-1.  The k copy
    registers live on ancillas and are measured, half in each readout basis;
    measured copies are discarded, so nothing uncomputes them.  The erase
    decision itself is statistics over the measurement record, so it lives in
    run_channel rather than in gates.
    """
    if plan.kind != "logdepth":
        raise ValueError(f"expected a logdepth plan, got kind {plan.kind!r}")
    n, k = plan.n, plan.k
    assert k is not None
    window = min(n, k)
    _check_angle_grid("logdepth_qft", window)

    b = CircuitBuilder(2 * n)
    _emit_prep(b, n, window)
    prep_size = b.mark()

    copies = b.new_ancillas(k * n)
    regs = [copies[c * n : (c + 1) * n] for c in range(k)]
    _emit_copy(b, regs + [list(range(n, 2 * n))])  # source register = transform output
    copy_size = b.mark() - prep_size

    for c in range(k):
        basis = "x" if c < k // 2 else "y"
        for i in range(n):
            b.measure(copies[c * n + i], basis)

    meta = {
        "kind": "logdepth",
        "n": n,
        "k": k,
        "window": window,
        "stage_sizes": {
            "prep": prep_size,
            "copy": copy_size,
            "measure": k * n,
        },
    }
    return LogdepthQft(b.build(meta), n, k)


def build_from_plan(plan: QftPlan) -> Circuit:
    """Build the circuit a plan describes (the logdepth runner is dropped)."""
    if plan.kind == "standard":
        return standard_qft(plan.n)
    if plan.kind == "banded":
        assert plan.b is not None
        return banded_qft(plan.n, plan.b)
    if plan.kind == "split":
        return split_qft(plan.n)
    return logdepth_qft(plan).circuit


# --- overlap witnesses ------------------------------------------------------------


def viete_partial(i: int) -> float:
    """The partial product cos(pi/4) cos(pi/8) ... cos(pi/2^i); limit 2/pi."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    return math.prod((math.cos(math.ldexp(math.pi, -t)) for t in range(2, i + 1)), start=1.0)


def cos_tail(i: int) -> tuple[float, float]:
    """Tail product over t > i of cos(pi/2^t) and its closed-form lower bound.

    The bound 1 - pi^2/(6*4^i) comes from cos(theta) >= 1 - theta^2/2 and a
    geometric sum; the true tail is computed directly (terms reach 1.0 in
    double precision well before t = 120).
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    true_tail = math.prod((math.cos(math.ldexp(math.pi, -t)) for t in range(i + 1, 121)), start=1.0)
    bound = 1.0 - math.ldexp(math.pi ** 2 / 6.0, -2 * i)
    return true_tail, bound


def overlap_witness(n: int, r: int) -> dict:
    """How well two Fourier states differing in bit r of the phase can be told apart.

    Take z = 2^n - 1 and the hybrid state that agrees with the Fourier state
    of z except at the single factor where the state of z + 2^r differs
    orthogonally.  Their inner product is the cosine product over
    t = 2..n-r, so the trace distance stays below sqrt(1 - (2/pi)^2) < 0.7712
    no matter how large n gets: erasing the knowledge of one high bit cannot
    be decided locally.  ``cross_check`` is |<hybrid|shifted>| read from the
    two product states' factor phases: the product over factors of
    (1 + e^{2 pi i (theta_s - theta_h)})/2, at any n.
    """
    if n < 2 or not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    ip = viete_partial(n - r)
    overlap = 1.0 + 0.0j
    for j in range(1, n + 1):
        # factor phases of the two states, position j from the top
        theta_z = 1.0 - 2.0 ** (-j)
        theta_s = ((1 << r) - 1) / (1 << j) if j > r else theta_z
        theta_h = theta_s if j == r + 1 else theta_z
        overlap *= (1.0 + cmath.exp(2j * math.pi * (theta_s - theta_h))) / 2.0
    return {
        "n": n,
        "r": r,
        "inner_product": ip,
        "trace_distance": math.sqrt(max(0.0, 1.0 - ip * ip)),
        "cross_check": abs(overlap),
    }
