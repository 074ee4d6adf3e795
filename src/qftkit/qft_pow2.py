"""Power-of-two QFT constructions.

Four builders for the transform mod 2^n: the textbook H/CP ladder
(``standard_qft``), its banded approximation with an analytic error bound
(``banded_qft``), an exact divide-and-conquer form whose cross terms are
realised by one integer multiplier and n single-qubit phases (``split_qft``),
and a three-stage shallow pipeline (``logdepth_qft``) that prepares Fourier
factor qubits directly, copies them, and measures the copies, whose
statistics decide the erasure of the input register.

All builders leave the output in carry order: circuit wire i holds the factor
with denominator 2^{i+1}, which is the bit-reversal of the index order used by
``sim.dft_reference``.  The permutation is recorded in circuit metadata and
exposed via ``bit_reversed_indices``.

``overlap_witness`` and the cosine-tail helpers quantify how close two Fourier
states with phase parameters differing in a single high bit can be, which is
the obstruction that forces any exact transform to depth >= log2(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import CP, Circuit, CircuitBuilder, Gate, H, dyadic
from .errors import CapacityError
from .phasest import erase_failure, failure_bound
from .revarith import _emit_multiplier, _emit_prefix_add
from .sim import DEFAULT_SEED

__all__ = [
    "MAX_STANDARD_N",
    "MAX_SPLIT_N",
    "MAX_CHANNEL_N",
    "MAX_WITNESS_N",
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
    "bit_reversed_indices",
    "fourier_state",
    "viete_partial",
    "cos_tail",
    "overlap_witness",
]

MAX_STANDARD_N = 20
MAX_SPLIT_N = 10
MAX_CHANNEL_N = 64
MAX_WITNESS_N = 64
_MAX_STATE_N = 20

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


def bit_reversed_indices(n: int) -> np.ndarray:
    """Permutation r with r[y] = the n-bit reversal of y."""
    if n < 0:
        raise ValueError("n must be >= 0")
    idx = np.arange(1 << n)
    rev = np.zeros_like(idx)
    for b in range(n):
        rev |= ((idx >> b) & 1) << (n - 1 - b)
    return rev


def fourier_state(n: int, x: int) -> np.ndarray:
    """The length-2^n state with amplitude e^{2 pi i x y / 2^n} / 2^{n/2} at y."""
    if not 1 <= n <= _MAX_STATE_N:
        raise CapacityError(f"fourier_state supports 1 <= n <= {_MAX_STATE_N}")
    if not 0 <= x < (1 << n):
        raise ValueError(f"phase parameter must be in 0..{(1 << n) - 1}, got {x}")
    y = np.arange(1 << n)
    return np.exp(2j * np.pi * x * y / (1 << n)) / math.sqrt(1 << n)


# --- standard and banded ladders ----------------------------------------------


def _output_permutation(n: int) -> list[int]:
    return [n - 1 - i for i in range(n)]


def _ladder_layers(n: int, band: int | None = None) -> list[list[Gate]]:
    """The fixed schedule: H(i) at layer 2(n-1-i), CP(i,t) at (n-1-i)+(n-1-t).

    Wire i ends carrying the factor with denominator 2^{i+1}.  The layer
    assignment packs everything into 2n-1 layers; CP gates sharing a layer
    have constant wire-index sum, hence are disjoint.
    """
    layers: list[list[Gate]] = [[] for _ in range(2 * n - 1)]
    for i in range(n):
        layers[2 * (n - 1 - i)].append(H(i))
        for t in range(i):
            d = i - t
            if band is not None and d > band:
                continue
            layers[(n - 1 - i) + (n - 1 - t)].append(CP(i, t, dyadic(1, d + 1)))
    return [layer for layer in layers if layer]


def standard_qft(n: int) -> Circuit:
    """Exact transform mod 2^n: n H gates, n(n-1)/2 CP gates, depth <= 2n-1."""
    if not 1 <= n <= MAX_STANDARD_N:
        raise CapacityError(f"standard_qft supports 1 <= n <= {MAX_STANDARD_N}")
    meta = {"kind": "standard", "n": n, "output_permutation": _output_permutation(n)}
    return Circuit.from_layers(_ladder_layers(n), n, metadata=meta)


def banded_qft(n: int, b: int) -> Circuit:
    """The standard ladder with every CP of angle below 1/2^{b+1} dropped.

    The band is clamped to [1, n].  metadata["error_bound"] is the triangle
    inequality bound: each dropped CP(1/2^{d+1}) moves the operator by at most
    2*pi/2^{d+1}, and there are n-d of them at distance d.
    """
    if not 1 <= n <= MAX_STANDARD_N:
        raise CapacityError(f"banded_qft supports 1 <= n <= {MAX_STANDARD_N}")
    b_eff = max(1, min(b, n))
    bound = 0.0
    for d in range(b_eff + 1, n):
        bound += (n - d) * 2.0 * math.pi / (1 << (d + 1))
    meta = {
        "kind": "banded",
        "n": n,
        "b": b_eff,
        "error_bound": bound,
        "output_permutation": _output_permutation(n),
    }
    return Circuit.from_layers(_ladder_layers(n, band=b_eff), n, metadata=meta)


# --- split (multiply-based) exact transform -------------------------------------


def _emit_ladder_on(b: CircuitBuilder, wires: Sequence[int]) -> None:
    n = len(wires)
    for i in range(n - 1, -1, -1):
        b.h(wires[i])
        for t in range(i - 1, -1, -1):
            b.cp(wires[i], wires[t], dyadic(1, i - t + 1))


def _emit_split(b: CircuitBuilder, wires: list[int]) -> int:
    """Split transform on ``wires``; returns this level's cross-term gate count.

    After the top half is transformed, the cross phase between the halves is
    e^{2 pi i u v / 2^n} where u reads the top half in reversed wire order and
    v reads the untouched bottom half.  One multiplier computes u*v into a
    fresh register, n phase gates apply it, and the inverse multiplier cleans
    up.
    """
    n = len(wires)
    if n <= 3:
        _emit_ladder_on(b, wires)
        return 0
    m = n // 2
    lo, hi = wires[:m], wires[m:]
    _emit_split(b, hi)

    prod = b.new_ancillas(n)
    start = b.mark()
    _emit_multiplier(b, hi[::-1], lo, prod)
    stop = b.mark()
    for t, w in enumerate(prod):
        b.p(w, dyadic(1, n - t))
    b.uncompute(start, stop)
    step2 = 2 * (stop - start) + n

    _emit_split(b, lo)
    return step2


def split_qft(n: int) -> Circuit:
    """Exact transform mod 2^n built by halving; recursion stops at 3 wires.

    metadata["step2_size"] counts the top-level multiply/phase/unmultiply
    gates, so size(n) = size(ceil) + size(floor) + step2_size holds exactly.
    """
    if not 1 <= n <= MAX_SPLIT_N:
        raise CapacityError(f"split_qft supports 1 <= n <= {MAX_SPLIT_N}")
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
    if n > MAX_CHANNEL_N:
        raise CapacityError(f"prep_approx supports n <= {MAX_CHANNEL_N}")
    if not 1 <= k <= n:
        raise ValueError(f"window must satisfy 1 <= k <= n, got {k}")
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

    H on the first (k-1)n wires then one telescoping subtraction across the
    registers; the final register's phase parameter telescopes into every
    register exactly.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got ({n}, {k})")
    b = CircuitBuilder(k * n)
    if k > 1:
        _emit_copy(b, [list(range(j * n, (j + 1) * n)) for j in range(k)])
    return b.build({"kind": "copy", "n": n, "k": k})


def _emit_copy(b: CircuitBuilder, regs: Sequence[Sequence[int]]) -> None:
    """copy_fourier on the registers ``regs``, source last.

    The telescoping subtraction is the prefix-add network, inverted in place.
    """
    for reg in regs[:-1]:
        for w in reg:
            b.h(w)
    mark = b.mark()
    _emit_prefix_add(b, regs)
    b.invert_since(mark)


# --- the three-stage shallow pipeline --------------------------------------------


@dataclass
class LogdepthQft:
    """A built shallow transform plus its measurement-channel runner."""

    circuit: Circuit
    n: int
    k: int
    window: int

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
    if n > MAX_CHANNEL_N:
        raise CapacityError(f"logdepth_qft supports n <= {MAX_CHANNEL_N}")
    window = min(n, k)

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
    return LogdepthQft(b.build(meta), n, k, window)


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
    return math.prod(math.cos(math.pi / (1 << t)) for t in range(2, i + 1))


def cos_tail(i: int) -> tuple[float, float]:
    """Tail product over t > i of cos(pi/2^t) and its closed-form lower bound.

    The bound 1 - pi^2/(6*4^i) comes from cos(theta) >= 1 - theta^2/2 and a
    geometric sum; the true tail is computed directly (terms reach 1.0 in
    double precision well before t = 120).
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    true_tail = math.prod(math.cos(math.pi / (1 << t)) for t in range(i + 1, 121))
    bound = 1.0 - math.pi ** 2 / (6.0 * 4.0 ** i)
    return true_tail, bound


def _mu_vector(theta: float) -> np.ndarray:
    return np.array([1.0, np.exp(2j * np.pi * theta)]) / math.sqrt(2.0)


def overlap_witness(n: int, r: int) -> dict:
    """How well two Fourier states differing in bit r of the phase can be told apart.

    Take z = 2^n - 1 and the hybrid state that agrees with the Fourier state
    of z except at the single factor where the state of z + 2^r differs
    orthogonally.  Their inner product is the cosine product over
    t = 2..n-r, so the trace distance stays below sqrt(1 - (2/pi)^2) < 0.7712
    no matter how large n gets: erasing the knowledge of one high bit cannot
    be decided locally.
    """
    if n < 2 or not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if n > MAX_WITNESS_N:
        raise CapacityError(f"overlap_witness supports n <= {MAX_WITNESS_N}")
    ip = math.prod(math.cos(math.pi / (1 << p)) for p in range(2, n - r + 1))
    out = {
        "n": n,
        "r": r,
        "inner_product": ip,
        "trace_distance": math.sqrt(max(0.0, 1.0 - ip * ip)),
    }
    if n <= _MAX_STATE_N:
        hybrid = np.array([1.0])
        shifted = np.array([1.0])
        for j in range(1, n + 1):
            # factor phases of the two states, position j from the top
            theta_z = 1.0 - 2.0 ** (-j)
            theta_s = ((1 << r) - 1) / (1 << j) if j > r else theta_z
            theta_h = theta_s if j == r + 1 else theta_z
            hybrid = np.kron(hybrid, _mu_vector(theta_h))
            shifted = np.kron(shifted, _mu_vector(theta_s))
        out["cross_check"] = float(abs(np.vdot(hybrid, shifted)))
    return out
