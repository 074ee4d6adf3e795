"""The acceptance battery: one callable per criterion, shared by CLI and tests.

Each criterion returns a CriterionResult whose details string carries the
measured numbers next to the pinned tolerances, so a pass line records what
was verified and at what margin.  ``quick=True`` shrinks sweep ranges and
trial counts without touching any tolerance.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import phasest, qft_moduli, revarith, shor
from .qft_pow2 import (
    QftPlan,
    banded_qft,
    bit_reversed_indices,
    copy_fourier,
    cos_tail,
    fourier_state,
    logdepth_qft,
    overlap_witness,
    prep_exact,
    split_qft,
    standard_qft,
    viete_partial,
)
from .sim import dft_reference, extract_unitary, run_classical_bits, run_sparse, sparse_to_dense

OPERATOR_TOL = 1e-9
EXACTNESS_TOL = 1e-10

# fitted over the full sweep of the three-stage pipeline: depth/(log2 n + log2 k)
# peaks at 16.7 (n=8, k=16) and size/(n k) at 77.3 (n=32, k=16)
C_DEPTH = 20.0
C_SIZE = 90.0
# depth(n=32)/depth(n=4) measured 1.44..1.56 per k; linear growth would be 8
SUBLINEAR_CAP = 3.0

TRACE_BOUND = 0.7712
MINMAX_PROB = 0.5 + math.sqrt(2.0) / 4.0

ERASE_N, ERASE_K = 8, 48
ERASE_PIN = 1e-6  # worst exact erase failure over every x; pinned before it was computed


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    details: str


def _failure(name: str, details: str) -> CriterionResult:
    return CriterionResult(name, False, details)


# --- 1: exact transforms ------------------------------------------------------


def criterion_exact_transforms(quick: bool = False) -> CriterionResult:
    name = "exact-transforms"
    worst = 0.0
    max_std = 6 if quick else 8
    for n in range(1, max_std + 1):
        circ = standard_qft(n)
        hist = circ.gate_histogram()
        if hist != ({"h": 1} if n == 1 else {"cp": n * (n - 1) // 2, "h": n}):
            return _failure(name, f"standard({n}) gate counts {hist}")
        if circ.depth > 2 * n - 1:
            return _failure(name, f"standard({n}) depth {circ.depth} > {2 * n - 1}")
        u = extract_unitary(circ)[bit_reversed_indices(n), :]
        worst = max(worst, float(np.linalg.norm(u - dft_reference(1 << n), 2)))
    max_split = 4 if quick else 6
    for n in range(1, max_split + 1):
        u = extract_unitary(split_qft(n))[bit_reversed_indices(n), :]
        worst = max(worst, float(np.linalg.norm(u - dft_reference(1 << n), 2)))
    details = (
        f"operator distance <= {worst:.2e} (tol {OPERATOR_TOL:.0e}) over standard n<={max_std}, "
        f"split n<={max_split}; ladder counts n H + n(n-1)/2 CP and depth <= 2n-1 exact"
    )
    return CriterionResult(name, worst <= OPERATOR_TOL, details)


# --- 2: banded approximation --------------------------------------------------


def criterion_banded_approximation(quick: bool = False) -> CriterionResult:
    name = "banded-approximation"
    n = 8
    dft = dft_reference(1 << n)
    rev = bit_reversed_indices(n)
    margin = -math.inf
    for b in range(1, n + 1):
        circ = banded_qft(n, b)
        if circ.size > n * b + n:
            return _failure(name, f"banded({n},{b}) size {circ.size} > {n * b + n}")
        dist = float(np.linalg.norm(extract_unitary(circ)[rev, :] - dft, 2))
        bound = circ.metadata["error_bound"]
        if dist > bound + 1e-12:
            return _failure(name, f"banded({n},{b}) distance {dist:.3e} > bound {bound:.3e}")
        margin = max(margin, dist - bound)
    clamped = banded_qft(10, 14)
    if clamped != standard_qft(10):
        return _failure(name, "banded(10, 14) did not clamp to the exact ladder")
    rev10 = bit_reversed_indices(10)
    dft10 = dft_reference(1 << 10)
    probe_dist = 0.0
    for x in (0, 1, 437, 1023):
        vec = sparse_to_dense(run_sparse(clamped, x=x).amplitudes, 10)
        probe_dist = max(probe_dist, float(np.linalg.norm(vec - dft10[:, x][rev10])))
    details = (
        f"n=8 all bands: distance <= analytic bound (worst slack {-margin:.2e}), "
        f"size <= nb+n; clamped n=10 b=14 basis probes {probe_dist:.2e} <= 1e-3"
    )
    return CriterionResult(name, probe_dist <= 1e-3, details)


# --- 3: depth/size certificates -----------------------------------------------


def criterion_depth_certificates(quick: bool = False) -> CriterionResult:
    name = "depth-size-certificates"
    ns = (4, 8, 16) if quick else (4, 8, 16, 32)
    ks = (4, 8, 16)
    depths: dict[tuple[int, int], int] = {}
    fit_c = fit_cp = 0.0
    for n in ns:
        for k in ks:
            circ = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit
            depths[n, k] = circ.depth
            fit_c = max(fit_c, circ.depth / (math.log2(n) + math.log2(k)))
            fit_cp = max(fit_cp, circ.size / (n * k))
    ratios = [depths[ns[-1], k] / depths[ns[0], k] for k in ks]
    passed = fit_c <= C_DEPTH and fit_cp <= C_SIZE and max(ratios) <= SUBLINEAR_CAP
    details = (
        f"fitted c = {fit_c:.1f} (pin {C_DEPTH}), c' = {fit_cp:.1f} (pin {C_SIZE}) over "
        f"n in {ns}, k in {ks}; depth({ns[-1]},k)/depth({ns[0]},k) = "
        f"{min(ratios):.2f}..{max(ratios):.2f} (cap {SUBLINEAR_CAP}, linear would be {ns[-1] // ns[0]})"
    )
    return CriterionResult(name, passed, details)


# --- 4: component unitarity -----------------------------------------------------


def _prep_fidelity(n: int, x: int) -> float:
    res = run_sparse(prep_exact(n), x=x)
    ref = fourier_state(n, x)
    mask = (1 << n) - 1
    overlap = 0.0j
    for idx, amp in res.amplitudes.items():
        if idx & mask == x and idx >> (2 * n) == 0:
            overlap += np.conj(ref[(idx >> n) & mask]) * amp
    return abs(overlap)


def _copy_error(n: int, k: int, y: int) -> float:
    circ = copy_fourier(n, k)
    psi = fourier_state(n, y)
    shift = (k - 1) * n
    initial = {v << shift: psi[v] for v in range(1 << n)}
    expected: dict[int, complex] = {}
    for regs in product(range(1 << n), repeat=k):
        key = sum(v << (c * n) for c, v in enumerate(regs))
        expected[key] = math.prod(psi[v] for v in regs)
    actual = run_sparse(circ, initial=initial).amplitudes
    err = 0.0
    for key in expected.keys() | actual.keys():
        err += abs(actual.get(key, 0.0) - expected.get(key, 0.0)) ** 2
    return math.sqrt(err)


def _arithmetic_fault(circ, widths, ranges, contract) -> str | None:
    """The first input on which ``circ`` leaves an ancilla set or breaks ``contract``, or None.

    ``widths`` splits the data wires into registers, lowest wire first.  The
    leading registers take every combination of values in ``ranges``, the
    rest start at 0, and ``contract(inputs, registers)`` reads the registers
    after the run.
    """
    for ins in product(*ranges):
        out = run_classical_bits(circ, sum(v << sum(widths[:j]) for j, v in enumerate(ins)))
        if out >> circ.n_qubits:
            return f"{circ.metadata['kind']} dirty ancillas on input {list(ins)}"
        regs = [(out >> sum(widths[:j])) & ((1 << w) - 1) for j, w in enumerate(widths)]
        if not contract(ins, regs):
            return f"{circ.metadata['kind']}{list(ins)} -> {regs}"
    return None


def criterion_component_unitarity(quick: bool = False) -> CriterionResult:
    name = "component-unitarity"
    min_fid = 1.0
    for n in range(1, (3 if quick else 4) + 1):
        for x in range(1 << n):
            min_fid = min(min_fid, _prep_fidelity(n, x))
    if min_fid < 1.0 - EXACTNESS_TOL:
        return _failure(name, f"prep_exact fidelity {min_fid} below 1 - {EXACTNESS_TOL:.0e}")
    copy_err = 0.0
    for n, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
        for y in range(1 << n):
            copy_err = max(copy_err, _copy_error(n, k, y))
    if copy_err > EXACTNESS_TOL:
        return _failure(name, f"copy_fourier state error {copy_err:.2e}")

    # each block returns the registers it only reads unchanged
    cases = (
        (revarith.build_prefix_add(3, 2), [2] * 3, [range(4)] * 3,
         lambda v, r: r == [sum(v[: j + 1]) % 4 for j in range(3)]),
        (revarith.build_telescoping_subtract(3, 2), [2] * 3, [range(4)] * 3,
         lambda v, r: r == [(v[j] - (v[j - 1] if j else 0)) % 4 for j in range(3)]),
        (revarith.build_adder(3), [3, 3], [range(8)] * 2, lambda v, r: r == [v[0], (v[1] + v[0]) % 8]),
        (revarith.build_subtractor(3), [3, 3], [range(8)] * 2, lambda v, r: r == [v[0], (v[1] - v[0]) % 8]),
        (revarith.build_three_two(2), [2, 2, 2, 2, 3], [range(4)] * 3,
         lambda v, r: r[:3] == list(v) and r[3] + r[4] == sum(v)),
        (revarith.build_four_two(2), [2, 2, 2, 2, 3, 4], [range(4)] * 4,
         lambda v, r: r[:4] == list(v) and r[4] + r[5] == sum(v)),
        (revarith.build_multiplier(2, 2, 4), [2, 2, 4], [range(4)] * 2, lambda v, r: r == [*v, v[0] * v[1] % 16]),
        (revarith.build_modmul(5), [3, 3, 3], [range(5)] * 2, lambda v, r: r == [*v, v[0] * v[1] % 5]),
    )
    for case in cases:
        fault = _arithmetic_fault(*case)
        if fault is not None:
            return _failure(name, fault)

    details = (
        f"prep fidelity >= {min_fid:.12f} (all x, n <= {3 if quick else 4}); copy state error "
        f"<= {copy_err:.2e}; prefix/telescoping exhaustive at (k=3, n=2); adder/subtractor/"
        f"carry-save/multiplier/modmul exhaustive at small widths"
    )
    return CriterionResult(name, True, details)


# --- 5: phase-estimation statistics --------------------------------------------


def _promise_options(x: int, j: int) -> list[int]:
    theta = (x % (1 << j)) / (1 << j)
    opts = []
    for l in range(4):
        frac = (theta - l / 4.0) % 1.0
        if min(frac, 1.0 - frac) < 0.25:
            opts.append(l)
    return opts


def criterion_phase_statistics(quick: bool = False) -> CriterionResult:
    name = "phase-estimation-statistics"
    worst = max(phasest.erase_failure(ERASE_N, ERASE_K, x) for x in range(1 << ERASE_N))
    bound = phasest.failure_bound(ERASE_N, ERASE_K)
    erase = f"exact erase failure {worst:.3e} over all {1 << ERASE_N} x at (n={ERASE_N}, k={ERASE_K})"
    if not worst <= min(ERASE_PIN, bound):
        return _failure(name, f"{erase} > pin {ERASE_PIN:.0e} or bound {bound:.4f}")

    max_n = 8 if quick else 10
    sequences = 0
    for n in range(1, max_n + 1):
        for x in range(1 << n):
            rows = np.array(list(product(*(_promise_options(x, j) for j in range(1, n + 1)))))
            sequences += rows.shape[0]
            if not (phasest.reconstruct_batch(rows) == x).all():
                return _failure(name, f"reconstruct_batch missed x={x} at n={n}")

    details = (
        f"{erase} <= pin {ERASE_PIN:.0e} < bound {bound:.4f}; "
        f"reconstruct exact on {sequences} promise-valid sequences (n <= {max_n})"
    )
    return CriterionResult(name, True, details)


# --- 6: small-angle numerics ----------------------------------------------------


def criterion_small_angle_numerics(quick: bool = False) -> CriterionResult:
    name = "small-angle-numerics"
    v = viete_partial(64)
    if not (0.6366 < v < 0.6367 and abs(v - 2.0 / math.pi) <= 1e-9):
        return _failure(name, f"cos product {v!r} outside (0.6366, 0.6367) or 1e-9 of 2/pi")
    for i in range(1, 9):
        tail, bound = cos_tail(i)
        if bound > tail:
            return _failure(name, f"tail bound {bound} exceeds true tail {tail} at i={i}")
    worst_trace = 0.0
    worst_cross = 0.0
    for n in range(2, (12 if quick else 20) + 1):
        for r in range(1, n):
            w = overlap_witness(n, r)
            worst_trace = max(worst_trace, w["trace_distance"])
            worst_cross = max(worst_cross, abs(w["cross_check"] - abs(w["inner_product"])))
    if worst_trace >= TRACE_BOUND:
        return _failure(name, f"trace distance {worst_trace} >= {TRACE_BOUND}")
    if worst_cross > 1e-9:
        return _failure(name, f"witness cross-check off by {worst_cross:.2e}")
    grid = np.arange(100000) / 100000.0
    minmax = float(phasest.basis_probs(grid).max(axis=-1).min())
    if minmax < MINMAX_PROB - 1e-9:
        return _failure(name, f"grid min-max prob {minmax:.9f} < {MINMAX_PROB:.9f}-1e-9")
    cones_ok = True
    builders = [(standard_qft, (2, 4, 8, 16)), (split_qft, (2, 4, 6)), (lambda n: banded_qft(n, n), (8,))]
    for build, sizes in builders:
        for n in sizes:
            circ = build(n)
            cone = circ.light_cone([n - 1])
            cones_ok = cones_ok and set(range(n)) <= cone and circ.depth >= math.ceil(math.log2(n))
    details = (
        f"cos product {v:.10f} in (0.6366, 0.6367), within 1e-9 of 2/pi; tail bounds hold i=1..8; "
        f"trace distance <= {worst_trace:.6f} < {TRACE_BOUND} (r < n <= {12 if quick else 20}, "
        f"cross-check {worst_cross:.1e}); grid min-max prob {minmax:.9f} >= {MINMAX_PROB:.9f}-1e-9; "
        f"top-wire light cones complete"
    )
    return CriterionResult(name, cones_ok, details)


# --- 7: CRT and arbitrary-modulus estimation ------------------------------------


def criterion_crt_identities(quick: bool = False) -> CriterionResult:
    name = "crt-and-estimation"
    worst_ident = 0.0
    for m in (6, 12, 15, 30, 105):
        basis = qft_moduli.CrtBasis.for_modulus(m)
        err = float(np.abs(qft_moduli.mixed_radix_qft(basis) - dft_reference(m)).max())
        worst_ident = max(worst_ident, err)
    if worst_ident > 1e-10:
        return _failure(name, f"mixed-radix identity error {worst_ident:.2e} > 1e-10")
    seeds = 30 if quick else 100
    min_success = 1.0
    min_rate = 1.0
    for m in (5, 7, 12):
        for x in range(m):
            r = qft_moduli.arbitrary_modulus_estimate(m, x, copies=1, seed=0)
            min_success = min(min_success, r["success_probability"])
        ok = 0
        for seed in range(seeds):
            ok += all(
                qft_moduli.arbitrary_modulus_estimate(m, x, copies=25, seed=seed * 7919 + x)["mode_correct"]
                for x in range(m)
            )
        min_rate = min(min_rate, ok / seeds)
    passed = min_success > 0.5 and min_rate >= 0.99
    details = (
        f"mixed-radix identity error <= {worst_ident:.2e} (tol 1e-10) for m in (6,12,15,30,105); "
        f"per-sample success >= {min_success:.4f} > 1/2; mode recovery {min_rate:.0%} of {seeds} seeds "
        f"(need 99%), 25 copies, m in (5,7,12)"
    )
    return CriterionResult(name, passed, details)


# --- 8: factoring end-to-end -----------------------------------------------------


def criterion_factoring(quick: bool = False) -> CriterionResult:
    name = "factoring-end-to-end"
    n15_seeds = 10 if quick else 25
    for qft in ("standard", "logdepth"):
        for seed in range(n15_seeds):
            out = shor.factor(15, seed=seed, backend="gate", qft=qft)
            if out["divisor"] not in (3, 5):
                return _failure(name, f"factor(15, seed={seed}, qft={qft}) -> {out['divisor']}")
    seeds = 30 if quick else 100
    min_rate = 1.0
    for n in (21, 33, 35):
        wins = 0
        for seed in range(seeds):
            out = shor.factor(n, seed=seed, backend="analytic", max_retries=10)
            if out["divisor"] is not None and n % out["divisor"] == 0 and 1 < out["divisor"] < n:
                wins += 1
        min_rate = min(min_rate, wins / seeds)
    if min_rate < 0.95:
        return _failure(name, f"analytic factoring success {min_rate:.0%} of {seeds} seeds < 95%")
    samples = 1000 if quick else 2000
    rng = np.random.default_rng(424242)
    pg = shor.gate_distribution(15, 7)
    pa = shor.analytic_distribution(15, 7)
    eg = np.bincount(rng.choice(pg.size, size=samples, p=pg), minlength=pg.size) / samples
    ea = np.bincount(rng.choice(pa.size, size=samples, p=pa), minlength=pa.size) / samples
    tv = 0.5 * float(np.abs(eg - ea).sum())
    details = (
        f"factor(15) gate backend in {{3, 5}} for {n15_seeds} seeds x both transform variants; "
        f"N in (21, 33, 35) analytic success {min_rate:.0%} of {seeds} seeds (need 95%) within 10 "
        f"retries; gate-vs-analytic TV {tv:.4f} <= 0.08 at {samples} samples"
    )
    return CriterionResult(name, tv <= 0.08, details)


# --- battery ---------------------------------------------------------------------

CRITERIA: tuple[Callable[[bool], CriterionResult], ...] = (
    criterion_exact_transforms,
    criterion_banded_approximation,
    criterion_depth_certificates,
    criterion_component_unitarity,
    criterion_phase_statistics,
    criterion_small_angle_numerics,
    criterion_crt_identities,
    criterion_factoring,
)


def run_all(quick: bool = False) -> list[CriterionResult]:
    return [criterion(quick) for criterion in CRITERIA]


def format_line(index: int, result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} criterion {index}: {result.name}: {result.details}"
