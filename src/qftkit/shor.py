"""Order finding and the factoring retry loop.

The quantum step comes in two interchangeable backends.  The gate backend
assembles the full register pipeline (Hadamards, the known-power product
tree, the exact transform) and reads the measurement distribution off a
sparse statevector run; it is exact but only fits small moduli.  The
analytic backend evaluates the same distribution in closed form from the
true multiplicative order, which scales to any desk-size modulus.  Both
feed continued-fraction post-processing and the classical retry loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import revarith
from .circuit import Circuit, CircuitBuilder
from .errors import CapacityError, QftkitError
from .phasest import failure_bound
from .qft_pow2 import bit_reversed_indices, standard_qft
from .sim import DEFAULT_SEED, run_sparse, sparse_marginal

MAX_GATE_MODULUS = 15
MAX_ANALYTIC_MODULUS = 2048
MAX_TASK_MODULUS = 1 << 20
DEFAULT_MAX_RETRIES = 32

# copies per register when the measured-transform variant stands in for the
# exact one; failure_bound(2n, 64) stays near 1% at gate-backend sizes
LOGDEPTH_CHANNEL_K = 64

BACKENDS = ("gate", "analytic", "auto")
QFT_VARIANTS = ("standard", "logdepth")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class LuckyFactor(QftkitError):
    """The chosen base already shares a divisor with the modulus."""

    def __init__(self, a: int, modulus: int, divisor: int):
        super().__init__(f"gcd({a}, {modulus}) = {divisor} is a nontrivial divisor")
        self.a = a
        self.modulus = modulus
        self.divisor = divisor


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact far beyond the desk cap)."""
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
        if self.modulus >= MAX_TASK_MODULUS:
            raise CapacityError(f"modulus {self.modulus} exceeds cap {MAX_TASK_MODULUS}")
        if is_prime(self.modulus):
            raise ValueError("modulus must be composite")
        if not 2 <= self.a <= self.modulus - 1:
            raise ValueError(f"base {self.a} not in [2, {self.modulus - 1}]")

    @property
    def n_bits(self) -> int:
        return self.modulus.bit_length()


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


def _check_gate_cap(modulus: int) -> None:
    if modulus > MAX_GATE_MODULUS:
        raise CapacityError(f"modulus {modulus} exceeds gate-backend cap {MAX_GATE_MODULUS}")


def build_order_circuit(modulus: int, a: int) -> Circuit:
    """Hadamards, the known-power product tree, then the exact transform.

    Data wires: x register on [0, 2n), product register on [2n, 2n + nb).
    The transform leaves the x register in bit-reversed wire order, recorded
    in metadata the same way the bare transform builders do.
    """
    _check_gate_cap(modulus)
    _screen_base(a, modulus)
    nb = modulus.bit_length()
    n_x = 2 * nb
    powers = revarith.precompute_powers(a, modulus, n_x)
    b = CircuitBuilder(n_x + nb)
    for w in range(n_x):
        b.h(w)
    revarith._emit_iterated_product(b, list(range(n_x)), list(range(n_x, n_x + nb)), modulus, powers)
    b.inline(standard_qft(n_x), list(range(n_x)))
    return b.build(
        metadata={
            "kind": "order_finding",
            "modulus": modulus,
            "a": a,
            "n_x": n_x,
            "output_permutation": list(reversed(range(n_x))),
        }
    )


_GATE_CACHE: dict[tuple[int, int], np.ndarray] = {}
_ANALYTIC_CACHE: dict[tuple[int, int], np.ndarray] = {}


def gate_distribution(modulus: int, a: int) -> np.ndarray:
    """Exact y distribution of the order-finding circuit, by sparse simulation.

    The result is cached and read-only; copy it before writing to it.
    """
    key = (modulus, a)
    if key not in _GATE_CACHE:
        circuit = build_order_circuit(modulus, a)
        n_x = 2 * modulus.bit_length()
        res = run_sparse(circuit, x=0)
        probs = sparse_marginal(res.amplitudes, list(range(n_x)))
        probs = probs[bit_reversed_indices(n_x)]
        probs.setflags(write=False)
        _GATE_CACHE[key] = probs
    return _GATE_CACHE[key]


def analytic_distribution(modulus: int, a: int) -> np.ndarray:
    """Closed-form y distribution of order finding from the true order r.

    The x register holds each residue class mod r in a coset of size
    c = floor(M/r) or c + 1; each coset contributes a Dirichlet-kernel term
    sin^2(pi c theta)/sin^2(pi theta) at theta = r y / M (c^2 where theta is
    an integer).

    The kernels are evaluated once per phase class.  With g the largest
    power of two dividing r, M' = M/g and r' = r/g, theta = u/M' for
    u = r' y mod M', so P(y) depends on u alone, has period M' in y, and is
    mirror-symmetric, K(u) = K(M' - u).  Both kernels are computed for
    u = 0..M'/2 only, mirrored to length M', gathered at u = r' y mod M'
    for y < M', normalised, and tiled g times.  Every sine argument is
    reduced in exact integers to pi v / M' with 0 <= v <= M'/2, so no sine
    is taken near pi.

    The result is cached and read-only; copy it before writing to it.
    """
    if modulus > MAX_ANALYTIC_MODULUS:
        raise CapacityError(f"modulus {modulus} exceeds analytic cap {MAX_ANALYTIC_MODULUS}")
    _screen_base(a, modulus)
    key = (modulus, a)
    if key not in _ANALYTIC_CACHE:
        big_m = 1 << (2 * modulus.bit_length())
        r = multiplicative_order(a, modulus)
        full, rem = divmod(big_m, r)
        g = r & -r
        period, r_odd = big_m // g, r // g
        mask, half = period - 1, period // 2
        u = np.arange(half + 1, dtype=np.int64)

        def sin2(v: np.ndarray) -> np.ndarray:
            v = np.minimum(v, period - v)
            return np.sin(np.pi * (v / period)) ** 2

        denom = sin2(u)
        denom[0] = 1.0

        def kernel(c: int) -> np.ndarray:
            k = sin2((c * u) & mask) / denom
            k[0] = float(c) ** 2
            return k

        kernels = rem * kernel(full + 1) + (r - rem) * kernel(full)
        mirrored = np.concatenate((kernels, kernels[half - 1 : 0 : -1]))
        phase_class = (r_odd * np.arange(period, dtype=np.int64)) & mask
        one_period = mirrored[phase_class] / float(big_m) ** 2
        one_period /= g * one_period.sum()
        probs = np.tile(one_period, g)
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
    target = Fraction(y, m)
    bound = Fraction(1, m)
    best = None
    h2, h1, k2, k1 = 0, 1, 1, 0
    num, den = y, m
    while den:
        q, rest = divmod(num, den)
        h = q * h1 + h2
        k = q * k1 + k2
        if k >= modulus:
            break
        if 0 <= h < k and abs(target - Fraction(h, k)) <= bound:
            best = (h, k)
        h2, h1, k2, k1 = h1, h, k1, k
        num, den = den, rest
    return best


def _resolve_knobs(backend: str, qft: str, modulus: int) -> str:
    """The backend that runs at ``modulus``; refuses an unknown knob and a gate run over the cap."""
    if qft not in QFT_VARIANTS:
        raise ValueError(f"qft must be one of {QFT_VARIANTS}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    if backend == "auto":
        return "gate" if modulus <= MAX_GATE_MODULUS else "analytic"
    if backend == "gate":
        _check_gate_cap(modulus)
    return backend


def order_finding_run(
    task: FactorTask,
    backend: str = "auto",
    qft: str = "standard",
    rng: np.random.Generator | None = None,
) -> OrderResult:
    """Sample one y and post-process it into a candidate order.

    The sample is drawn from ``rng``, or from a generator seeded with
    ``DEFAULT_SEED`` when none is given.

    With the measured-transform variant (qft="logdepth") selected, the exact
    distribution is mixed with a uniform floor: a failed erase leaves which-x
    information behind, which dephases the coset superposition and makes the
    readout uniform.  The floor's weight is the bound
    failure_bound(2 * n_bits, LOGDEPTH_CHANNEL_K), not a measured erase rate:
    no channel and no log-depth circuit is run, so this variant models the
    bound's worst case rather than simulating the transform.  A base that
    shares a divisor with the modulus raises LuckyFactor on either backend.
    """
    resolved = _resolve_knobs(backend, qft, task.modulus)
    _screen_base(task.a, task.modulus)
    if resolved == "gate":
        probs = gate_distribution(task.modulus, task.a)
    else:
        probs = analytic_distribution(task.modulus, task.a)
    if qft == "logdepth":
        miss = failure_bound(2 * task.n_bits, LOGDEPTH_CHANNEL_K)
        probs = (1.0 - miss) * probs + miss / probs.size
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    y = int(rng.choice(probs.size, p=probs))
    conv = continued_fraction_post(y, probs.size, task.modulus)
    verified = conv is not None and pow(task.a, conv[1], task.modulus) == 1
    return OrderResult(y=y, m=probs.size, convergent=conv, verified=verified)


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
    knob has been checked.
    """
    backend = _resolve_knobs(backend, qft, modulus)
    if max_retries < 1:
        raise ValueError(f"max_retries must be >= 1, got {max_retries}")
    if modulus < 4:
        raise ValueError("nothing to factor below 4")
    if modulus >= MAX_TASK_MODULUS:
        raise CapacityError(f"modulus {modulus} exceeds cap {MAX_TASK_MODULUS}")
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
        rec: dict = {"attempt": attempt, "a": a, "y": res.y}
        if not res.verified:
            rec["outcome"] = "unverified_order" if res.convergent else "no_convergent"
            trace.append(rec)
            continue
        r = res.convergent[1]
        rec["order"] = r
        if r % 2:
            rec["outcome"] = "odd_order"
            trace.append(rec)
            continue
        d = math.gcd(pow(a, r // 2, modulus) - 1, modulus)
        if 1 < d < modulus:
            if modulus % d:
                raise QftkitError(f"internal: {d} does not divide {modulus}")
            rec["outcome"] = "divisor"
            rec["divisor"] = d
            trace.append(rec)
            return {"divisor": d, "attempts": attempt, "trace": trace}
        rec["outcome"] = "trivial_gcd"
        trace.append(rec)
    return {"divisor": None, "attempts": max_retries, "trace": trace}
