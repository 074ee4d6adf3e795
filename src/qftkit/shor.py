"""Order finding and the factoring retry loop.

The quantum step comes in two interchangeable backends.  The gate backend
assembles the full register pipeline (Hadamards, the known-power product
tree of windowed table lookups and modular multipliers, the exact
transform) and reads the measurement distribution off a sparse statevector
run; it is exact but only fits moduli up to ``MAX_GATE_MODULUS``.  The
analytic backend evaluates the same distribution in closed form from the
true multiplicative order, up to ``MAX_ANALYTIC_MODULUS``.  Both feed
continued-fraction post-processing and the classical retry loop.
``_check_cap`` is the one home of both caps: each distribution calls it,
and so does every entry point once it has resolved its backend, so an
oversized modulus is refused before any draw or table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import revarith
from .circuit import Circuit, CircuitBuilder, _check_angle_grid
from .errors import CapacityError, QftkitError
from .phasest import failure_bound
from .qft_pow2 import _ladder_layers, _output_permutation, _output_wires
from .sim import DEFAULT_SEED, run_sparse, sparse_marginal

MAX_GATE_MODULUS = 15
MAX_ANALYTIC_MODULUS = 2048
DEFAULT_MAX_RETRIES = 32

# copies per register when the measured-transform variant stands in for the
# exact one; failure_bound(2n, 64) stays near 1% at gate-backend sizes
LOGDEPTH_CHANNEL_K = 64

BACKENDS = ("gate", "analytic", "auto")
QFT_VARIANTS = ("standard", "logdepth")

# rng.choice's tolerance on the total of p
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class LuckyFactor(QftkitError):
    """The chosen base already shares a divisor with the modulus."""

    def __init__(self, a: int, modulus: int, divisor: int):
        super().__init__(f"gcd({a}, {modulus}) = {divisor} is a nontrivial divisor")
        self.a = a
        self.modulus = modulus
        self.divisor = divisor


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact far beyond the backend caps)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def perfect_power_root(n: int) -> tuple[int, int] | None:
    """(p, e) with p**e == n and e >= 2, preferring the largest exponent."""
    for e in range(n.bit_length(), 1, -1):
        p = round(n ** (1.0 / e))
        for cand in (p - 1, p, p + 1):
            if cand >= 2 and cand**e == n:
                return cand, e
    return None


def multiplicative_order(a: int, modulus: int) -> int:
    if modulus < 2:
        raise ValueError(f"modulus {modulus} has no multiplicative group")
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    r, v = 1, a % modulus
    while v != 1:
        v = v * a % modulus
        r += 1
    return r


@dataclass(frozen=True)
class FactorTask:
    """One order-finding attempt: modulus and base; ``order_finding_run`` takes the generator."""

    modulus: int
    a: int

    def __post_init__(self) -> None:
        if self.modulus < 3 or self.modulus % 2 == 0:
            raise ValueError("modulus must be odd and at least 3")
        if is_prime(self.modulus):
            raise ValueError("modulus must be composite")
        if not 2 <= self.a <= self.modulus - 1:
            raise ValueError(f"base {self.a} not in [2, {self.modulus - 1}]")


@dataclass(frozen=True)
class OrderResult:
    """One measured y with its continued-fraction reading."""

    y: int
    m: int
    convergent: tuple[int, int] | None
    verified: bool


def _screen_base(a: int, modulus: int) -> None:
    """Raise LuckyFactor when the base shares a proper divisor with the modulus.

    A base that is 0 mod the modulus yields only the trivial divisor, and is
    refused with ValueError instead.
    """
    d = math.gcd(a, modulus)
    if d == modulus:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    if d > 1:
        raise LuckyFactor(a, modulus, d)


def _check_cap(backend: str, modulus: int) -> None:
    """Refuse a modulus above the cap of a resolved backend, gate or analytic."""
    cap = MAX_GATE_MODULUS if backend == "gate" else MAX_ANALYTIC_MODULUS
    if modulus > cap:
        raise CapacityError(f"modulus {modulus} exceeds {backend}-backend cap {cap}")


def _x_width(modulus: int) -> int:
    """Wires of the x register: 2n for an n-bit modulus, so M = 2^(2n) > N^2."""
    return 2 * modulus.bit_length()


def build_order_circuit(modulus: int, a: int) -> Circuit:
    """Hadamards, the known-power product tree, then the exact transform.

    Data wires: x register on [0, 2n), product register on [2n, 2n + nb).
    The transform leaves the x register in bit-reversed wire order, recorded
    in metadata the same way the bare transform builders do; the product
    register keeps its order.  The product tree writes each window of at
    most ``revarith.LARGEST_WINDOW`` exponent bits by one table lookup and
    multiplies the window values up a tree of modular multipliers; at N = 15
    at most two powers differ from 1, so it is one lookup and no multiplier.
    ``metadata["stage_sizes"]`` gives the gates of each stage (hadamards,
    product_tree, transform); they sum to the size.
    """
    _screen_base(a, modulus)
    nb = modulus.bit_length()
    n_x = _x_width(modulus)
    _check_angle_grid("build_order_circuit", n_x)
    powers = revarith.precompute_powers(a, modulus, n_x)
    b = CircuitBuilder(n_x + nb)
    for w in range(n_x):
        b.h(w)
    revarith._emit_iterated_product(b, list(range(n_x)), list(range(n_x, n_x + nb)), modulus, powers)
    tree_stop = b.mark()
    # the exact ladder on the x register, in standard_qft's gate order
    for layer in _ladder_layers(range(n_x)):
        for g in layer:
            b.add(g)
    return b.build(
        metadata={
            "kind": "order_finding",
            "modulus": modulus,
            "a": a,
            "n_x": n_x,
            "output_permutation": _output_permutation(n_x) + list(range(n_x, n_x + nb)),
            "stage_sizes": {
                "hadamards": n_x,
                "product_tree": tree_stop - n_x,
                "transform": b.mark() - tree_stop,
            },
        }
    )


_GATE_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ANALYTIC_CACHE: dict[tuple[int, int], np.ndarray] = {}


def gate_distribution(modulus: int, a: int) -> np.ndarray:
    """Exact y distribution of the order-finding circuit, by sparse simulation.

    The result is cached and read-only; copy it before writing to it.
    """
    _check_cap("gate", modulus)
    key = (modulus, a)
    if key not in _GATE_CACHE:
        circuit = build_order_circuit(modulus, a)
        wires = _output_wires(circuit)[: circuit.metadata["n_x"]]
        probs = sparse_marginal(run_sparse(circuit, x=0).amplitudes, wires)
        probs.setflags(write=False)
        _GATE_CACHE[key] = probs
    return _GATE_CACHE[key]


def analytic_distribution(modulus: int, a: int) -> np.ndarray:
    """Closed-form y distribution of order finding from the true order r.

    The x register holds each residue class mod r in a coset of size
    c = floor(M/r) or c + 1; each coset contributes a Dirichlet-kernel term
    sin^2(pi c theta)/sin^2(pi theta) at theta = r y / M (c^2 where theta is
    an integer).

    With g the largest power of two dividing r, M' = M/g, r' = r/g and
    rem' = (M mod r)/g, theta = r' y / M', so P(y) has period M' in y and is
    mirror-symmetric, P(y) = P(M' - y).  Since M' = c r' + rem', the two
    numerator phases are c r' y = -rem' y and (c + 1) r' y = (r' - rem') y
    (mod M'), and all three sines are evaluated straight in y order for
    y = 0..M'/2: sin^2(pi v / M') at v = s y mod M' for s = r', rem' and
    r' - rem'.  Each v is folded in exact integers to min(v, M' - v), so no
    sine is taken near pi, and the folded v equals the one that the phase
    u = r' y mod M' yields, so evaluating per phase class and gathering at u
    would give the same floats.  No gather is made: its stride of r' words
    misses cache on almost every read.  The half period is normalised,
    mirrored to length M' and tiled g times.

    The result is cached and read-only; copy it before writing to it.
    """
    _check_cap("analytic", modulus)
    _screen_base(a, modulus)
    key = (modulus, a)
    if key not in _ANALYTIC_CACHE:
        big_m = 1 << _x_width(modulus)
        r = multiplicative_order(a, modulus)
        full, rem = divmod(big_m, r)
        g = r & -r
        period, r_odd, rem_odd = big_m // g, r // g, rem // g
        mask, half = period - 1, period // 2
        y = np.arange(half + 1, dtype=np.int64)

        def sin2(step: int) -> np.ndarray:
            v = step * y
            v &= mask
            np.minimum(v, period - v, out=v)
            s = v / period
            s *= np.pi
            np.sin(s, out=s)
            return np.square(s, out=s)

        denom = sin2(r_odd)
        denom[0] = 1.0

        def kernel(step: int, c: int) -> np.ndarray:
            k = sin2(step)
            k /= denom
            k[0] = float(c) ** 2
            return k

        kernels = kernel(r_odd - rem_odd, full + 1)
        kernels *= rem
        kernels += (r - rem) * kernel(rem_odd, full)
        kernels /= float(big_m) ** 2
        probs = np.empty(big_m)
        one_period = probs[:period]
        one_period[: half + 1] = kernels
        one_period[half + 1 :] = kernels[half - 1 : 0 : -1]
        one_period /= g * one_period.sum()
        probs.reshape(g, period)[1:] = one_period
        probs.setflags(write=False)
        _ANALYTIC_CACHE[key] = probs
    return _ANALYTIC_CACHE[key]


def continued_fraction_post(y: int, m: int, modulus: int) -> tuple[int, int] | None:
    """Best convergent k/r of y/m with k < r < modulus and |y/m - k/r| <= 1/m.

    The largest qualifying denominator wins; y = 0 yields (0, 1); None when
    no convergent qualifies.  Garbage y is tolerated, it just fails to
    produce a convergent (or produces one that order verification rejects).
    """
    if not 0 <= y < m:
        raise ValueError(f"sample {y} not in [0, {m})")
    if y == 0:
        return 0, 1
    best = None
    h2, h1, k2, k1 = 0, 1, 1, 0
    num, den = y, m
    while den:
        q, rest = divmod(num, den)
        h = q * h1 + h2
        k = q * k1 + k2
        if k >= modulus:
            break
        if 0 <= h < k and abs(y * k - h * m) <= k:
            best = (h, k)
        h2, h1, k2, k1 = h1, h, k1, k
        num, den = den, rest
    return best


def _resolve_knobs(backend: str, qft: str, modulus: int) -> str:
    """The backend that runs at ``modulus``; refuses an unknown knob and a modulus over that backend's cap."""
    if qft not in QFT_VARIANTS:
        raise ValueError(f"qft must be one of {QFT_VARIANTS}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    if backend == "auto":
        backend = "gate" if modulus <= MAX_GATE_MODULUS else "analytic"
    _check_cap(backend, modulus)
    return backend


def _read_attempt(modulus: int, a: int, convergent: tuple[int, int] | None) -> tuple[int | None, str, int | None]:
    """(verified order, outcome, divisor) of an attempt with base ``a`` whose y read as ``convergent``.

    The outcome is no_convergent, unverified_order, odd_order, trivial_gcd or
    divisor.  The factoring loop and the exact success sum both read here.
    """
    if convergent is None:
        return None, "no_convergent", None
    r = convergent[1]
    if pow(a, r, modulus) != 1:
        return None, "unverified_order", None
    if r % 2:
        return r, "odd_order", None
    d = math.gcd(pow(a, r // 2, modulus) - 1, modulus)
    return (r, "divisor", d) if 1 < d < modulus else (r, "trivial_gcd", None)


def _y_distribution(modulus: int, a: int, backend: str, qft: str) -> np.ndarray:
    """The y law an attempt samples on a resolved backend, with the logdepth floor mixed in."""
    probs = gate_distribution(modulus, a) if backend == "gate" else analytic_distribution(modulus, a)
    if qft == "logdepth":
        miss = failure_bound(_x_width(modulus), LOGDEPTH_CHANNEL_K)
        probs = (1.0 - miss) * probs + miss / probs.size
    return probs


def order_finding_run(
    task: FactorTask,
    backend: str = "auto",
    qft: str = "standard",
    rng: np.random.Generator | None = None,
) -> OrderResult:
    """Sample one y and post-process it into a candidate order.

    The sample is drawn from ``rng``, or from a generator seeded with
    ``DEFAULT_SEED`` when none is given, by the steps that
    ``rng.choice(m, p=probs)`` takes: one ``rng.random()`` searched in the
    cumulative sum normalised by its last entry, so y equals what that call
    would return.  Its refusals are kept: a negative or NaN probability, or
    a total more than sqrt(eps) = 1.49e-8 away from 1, raises ValueError.

    With the measured-transform variant (qft="logdepth") selected, the exact
    distribution is mixed with a uniform floor: a failed erase leaves which-x
    information behind, which dephases the coset superposition and makes the
    readout uniform.  The floor's weight is the bound failure_bound(2 nb,
    LOGDEPTH_CHANNEL_K) at nb modulus bits, not a measured erase rate: no
    channel and no log-depth circuit is run, so this variant models the
    bound's worst case rather than simulating the transform.  A base that
    shares a divisor with the modulus raises LuckyFactor on either backend.
    """
    resolved = _resolve_knobs(backend, qft, task.modulus)
    probs = _y_distribution(task.modulus, task.a, resolved, qft)
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    # rng.choice(probs.size, p=probs) without its Kahan sum and p < 0 pass;
    # min() is NaN when any entry is
    if not probs.min() >= 0.0:
        raise ValueError("probabilities must be non-negative and not NaN")
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > _CHOICE_ATOL:
        raise ValueError(f"probabilities sum to {cdf[-1]!r}, not 1")
    cdf /= cdf[-1]
    y = int(cdf.searchsorted(rng.random(), side="right"))
    conv = continued_fraction_post(y, probs.size, task.modulus)
    verified = _read_attempt(task.modulus, task.a, conv)[0] is not None
    return OrderResult(y=y, m=probs.size, convergent=conv, verified=verified)


def _attempt_success(modulus: int, backend: str, qft: str) -> float:
    """Exact chance that one of ``factor``'s attempts returns a divisor, the base uniform on [2, N - 1].

    A base sharing a divisor with the modulus wins by its gcd.  Each y's
    convergent is computed once and shared across the bases.
    """
    backend = _resolve_knobs(backend, qft, modulus)
    m = 1 << _x_width(modulus)
    convergents = [continued_fraction_post(y, m, modulus) for y in range(m)]
    slots = {c: i for i, c in enumerate(dict.fromkeys(convergents))}
    slot = np.fromiter((slots[c] for c in convergents), dtype=np.int64, count=m)
    total = 0.0
    for a in range(2, modulus):
        if math.gcd(a, modulus) > 1:
            total += 1.0
            continue
        mass = np.bincount(slot, weights=_y_distribution(modulus, a, backend, qft), minlength=len(slots))
        total += sum(mass[i] for c, i in slots.items() if _read_attempt(modulus, a, c)[2] is not None)
    return total / (modulus - 2)


def factor(
    modulus: int,
    seed: int | None = None,
    backend: str = "auto",
    qft: str = "standard",
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> dict:
    """Classical screens, then order-finding attempts until a divisor drops out.

    Returns {"divisor", "attempts", "trace"}.  A returned divisor always
    divides the modulus and is nontrivial; an exhausted retry budget returns
    divisor None with the full trace.  Even and prime-power inputs are
    dispatched classically without any quantum sampling, but only after every
    knob and the resolved backend's cap have been checked.
    """
    backend = _resolve_knobs(backend, qft, modulus)
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    if modulus < 4:
        raise ValueError("nothing to factor below 4")
    if is_prime(modulus):
        raise ValueError(f"{modulus} is prime; no nontrivial divisor exists")
    if modulus % 2 == 0:
        return {"divisor": 2, "attempts": 0, "trace": [{"stage": "screen", "reason": "even"}]}
    root = perfect_power_root(modulus)
    if root is not None:
        trace = [{"stage": "screen", "reason": "prime_power", "base": root[0], "exponent": root[1]}]
        return {"divisor": root[0], "attempts": 0, "trace": trace}
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    trace: list[dict] = []
    for attempt in range(1, max_retries + 1):
        a = int(rng.integers(2, modulus - 1, endpoint=True))
        d = math.gcd(a, modulus)
        if d > 1:
            trace.append({"attempt": attempt, "a": a, "outcome": "lucky_gcd", "divisor": d})
            return {"divisor": d, "attempts": attempt, "trace": trace}
        res = order_finding_run(FactorTask(modulus, a), backend=backend, qft=qft, rng=rng)
        order, outcome, divisor = _read_attempt(modulus, a, res.convergent)
        rec = {"attempt": attempt, "a": a, "y": res.y, "order": order, "outcome": outcome, "divisor": divisor}
        trace.append({key: value for key, value in rec.items() if value is not None})
        if divisor is not None:
            return {"divisor": divisor, "attempts": attempt, "trace": trace}
    return {"divisor": None, "attempts": max_retries, "trace": trace}
