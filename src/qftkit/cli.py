"""Command-line front end.

Subcommands: ``build`` (emit a circuit netlist), ``stats`` (metrics for a
netlist), ``sim`` (amplitudes or sampled shots), ``verify`` (named check
suites), ``factor`` (order-finding factorizer), ``accept`` (the full
acceptance battery).  Exit codes: 0 success, 1 a verification-style check
failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

import numpy as np

from . import acceptance, netlist, shor
from .acceptance import MINMAX_PROB, OPERATOR_TOL, TRACE_BOUND
from .circuit import Circuit
from .errors import CapacityError, QftkitError
from .qft_pow2 import (
    QftPlan,
    banded_qft,
    bit_reversed_indices,
    copy_fourier,
    logdepth_qft,
    overlap_witness,
    prep_approx,
    prep_exact,
    split_qft,
    standard_qft,
    viete_partial,
)
from .phasest import basis_probs
from .sim import DEFAULT_SEED, dft_reference, extract_unitary, run_sparse, sparse_marginal

STATS_KEYS = ("n", "size", "depth", "width", "gate_histogram", "error_bound", "measured_error", "seed")
VERIFY_SUITES = ("unitary", "arith", "phase", "moduli", "bounds", "all")


class UsageError(Exception):
    pass


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("QFTKIT_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"QFTKIT_SEED must be an integer, got {env!r}") from None


def _build_circuit(args: argparse.Namespace) -> Circuit:
    kind, n = args.kind, args.n
    if kind == "standard":
        return standard_qft(n)
    if kind == "split":
        return split_qft(n)
    if kind == "banded":
        if args.band is None:
            raise UsageError("--kind banded requires --band")
        return banded_qft(n, args.band)
    if kind == "logdepth":
        if args.k is None:
            raise UsageError("--kind logdepth requires --k (erasure repetitions)")
        return logdepth_qft(QftPlan(kind="logdepth", n=n, k=args.k)).circuit
    if kind == "prep":
        return prep_exact(n)
    if kind == "prep-approx":
        if args.k is None:
            raise UsageError("--kind prep-approx requires --k (phase window)")
        return prep_approx(n, args.k)
    if kind == "copy":
        return copy_fourier(n, 2 if args.k is None else args.k)
    raise UsageError(f"unknown kind {kind!r}")


def cmd_build(args: argparse.Namespace) -> int:
    text = netlist.encode(_build_circuit(args))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load(path: str) -> Circuit:
    try:
        with open(path) as fh:
            return netlist.decode(fh.read())
    except OSError as exc:
        raise UsageError(str(exc)) from None


def _stats_payload(circ: Circuit, seed: int) -> dict:
    meta = circ.metadata
    return {
        "n": meta.get("n", circ.n_qubits),
        "size": circ.size,
        "depth": circ.depth,
        "width": circ.width,
        "gate_histogram": dict(sorted(circ.gate_histogram().items())),
        "error_bound": meta.get("error_bound"),
        "measured_error": meta.get("measured_error"),
        "seed": seed,
    }


def cmd_stats(args: argparse.Namespace) -> int:
    payload = _stats_payload(_load(args.path), _resolve_seed(args.seed))
    if args.json:
        print(json.dumps(payload))
    else:
        for key in STATS_KEYS:
            value = payload[key]
            if key == "gate_histogram":
                value = " ".join(f"{g}={c}" for g, c in value.items()) or "-"
            print(f"{key}: {value}")
    return 0


def _permuted_index(idx: int, perm: Sequence[int] | None, n_data: int) -> int:
    if perm is None:
        return idx
    out = idx & ~((1 << n_data) - 1)
    for w in range(n_data):
        out |= ((idx >> w) & 1) << perm[w]
    return out


def cmd_sim(args: argparse.Namespace) -> int:
    circ = _load(args.path)
    bits = args.input
    if not bits or set(bits) - {"0", "1"}:
        raise UsageError(f"--input must be a nonempty bitstring, got {bits!r}")
    if len(bits) != circ.n_qubits:
        raise UsageError(f"--input has {len(bits)} bits, circuit has {circ.n_qubits} data wires")
    x = int(bits, 2)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    perm = circ.metadata.get("output_permutation")
    if args.shots is None:
        if circ.has_measurement():
            raise UsageError("circuit contains measurement; amplitudes need --shots")
        amps = run_sparse(circ, x=x).amplitudes
        width = circ.width
        table = {_permuted_index(i, perm, circ.n_qubits): complex(a) for i, a in amps.items()}
        for idx in sorted(table):
            amp = table[idx]
            print(f"{idx:0{width}b} {amp.real:+.12f} {amp.imag:+.12f}")
        return 0
    if args.shots <= 0:
        raise UsageError("--shots must be positive")
    n = circ.n_qubits
    counts: dict[int, int] = {}
    if circ.has_measurement():
        # measurement collapses differently per run, so sample one outcome per run
        for _ in range(args.shots):
            probs = sparse_marginal(run_sparse(circ, x=x, rng=rng).amplitudes, range(n))
            y = int(rng.choice(probs.size, p=probs))
            counts[y] = counts.get(y, 0) + 1
    else:
        probs = sparse_marginal(run_sparse(circ, x=x).amplitudes, range(n))
        for y in rng.choice(probs.size, size=args.shots, p=probs):
            y = int(y)
            counts[y] = counts.get(y, 0) + 1
    table = {f"{_permuted_index(y, perm, n):0{n}b}": c for y, c in counts.items()}
    print(json.dumps({"shots": args.shots, "seed": seed, "counts": dict(sorted(table.items()))}))
    return 0


# --- verify suites --------------------------------------------------------------


def _suite_unitary(cap: int) -> list[acceptance.CriterionResult]:
    results = []
    worst = 0.0
    for n in range(1, cap + 1):
        u = extract_unitary(standard_qft(n))[bit_reversed_indices(n), :]
        worst = max(worst, float(np.linalg.norm(u - dft_reference(1 << n), 2)))
    results.append(
        acceptance.CriterionResult(
            "standard-qft-unitary", worst <= OPERATOR_TOL, f"operator distance <= {worst:.2e} for n <= {cap}"
        )
    )
    worst = 0.0
    for n in range(1, min(cap, 6) + 1):
        u = extract_unitary(split_qft(n))[bit_reversed_indices(n), :]
        worst = max(worst, float(np.linalg.norm(u - dft_reference(1 << n), 2)))
    results.append(
        acceptance.CriterionResult(
            "split-qft-unitary",
            worst <= OPERATOR_TOL,
            f"operator distance <= {worst:.2e} for n <= {min(cap, 6)}",
        )
    )
    n = min(cap, 8)
    dft = dft_reference(1 << n)
    rev = bit_reversed_indices(n)
    ok = True
    margin = -math.inf
    for b in range(1, n + 1):
        circ = banded_qft(n, b)
        dist = float(np.linalg.norm(extract_unitary(circ)[rev, :] - dft, 2))
        ok = ok and dist <= circ.metadata["error_bound"] + 1e-12
        margin = max(margin, dist - circ.metadata["error_bound"])
    results.append(
        acceptance.CriterionResult(
            "banded-qft-bound", ok, f"n={n}, all bands within analytic bound (worst slack {-margin:.2e})"
        )
    )
    return results


def _suite_bounds() -> list[acceptance.CriterionResult]:
    v = viete_partial(64)
    results = [
        acceptance.CriterionResult(
            "cos-product",
            0.6366 < v < 0.6367 and abs(v - 2.0 / math.pi) <= 1e-9,
            f"{v:.10f} in (0.6366, 0.6367), within 1e-9 of 2/pi",
        )
    ]
    worst = 0.0
    for n in range(2, 21):
        for r in range(1, n):
            worst = max(worst, overlap_witness(n, r)["trace_distance"])
    results.append(
        acceptance.CriterionResult(
            "trace-distance", worst < TRACE_BOUND, f"max {worst:.6f} < {TRACE_BOUND} over 1 <= r < n <= 20"
        )
    )
    grid = np.arange(100000) / 100000.0
    minmax = float(basis_probs(grid).max(axis=-1).min())
    results.append(
        acceptance.CriterionResult(
            "min-max-prob",
            minmax >= MINMAX_PROB - 1e-9,
            f"{minmax:.9f} >= {MINMAX_PROB:.6f} over a 1e5-point grid",
        )
    )
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None and not 1 <= args.n <= 8:
        raise UsageError("--n must be in 1..8 for verify")
    cap = args.n or 6
    results: list[acceptance.CriterionResult] = []
    suite = args.suite
    if suite in ("unitary", "all"):
        results += _suite_unitary(cap)
    if suite in ("arith", "all"):
        results.append(acceptance.criterion_component_unitarity(quick=True))
    if suite in ("phase", "all"):
        results.append(acceptance.criterion_phase_statistics(quick=True))
    if suite in ("moduli", "all"):
        results.append(acceptance.criterion_crt_identities(quick=True))
    if suite in ("bounds", "all"):
        results += _suite_bounds()
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.details}")
        failed = failed or not res.passed
    return 1 if failed else 0


def cmd_factor(args: argparse.Namespace) -> int:
    out = shor.factor(
        args.n,
        seed=_resolve_seed(args.seed),
        backend=args.backend or "auto",
        qft=args.qft,
        max_retries=args.max_retries,
    )
    print(json.dumps(out))
    return 0 if out["divisor"] is not None else 1


def cmd_accept(args: argparse.Namespace) -> int:
    failed = False
    for i, result in enumerate(acceptance.run_all(quick=args.quick), 1):
        print(acceptance.format_line(i, result))
        failed = failed or not result.passed
    return 1 if failed else 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qftkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="construct a circuit and emit its netlist")
    p.add_argument(
        "--kind",
        required=True,
        choices=("standard", "banded", "split", "logdepth", "prep", "prep-approx", "copy"),
    )
    p.add_argument("--n", type=int, required=True, help="register width in qubits")
    p.add_argument("--band", type=int, help="kept controlled-phase distance (banded only)")
    p.add_argument("--k", type=int, help="copies / repetitions / window, per kind")
    p.add_argument("--out", help="netlist output path (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="metrics for a netlist file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sim", help="simulate a netlist on a basis input")
    p.add_argument("path")
    p.add_argument("--input", required=True, help="basis state, most significant bit first")
    p.add_argument("--seed", type=int)
    p.add_argument("--shots", type=int, help="sample outcomes instead of printing amplitudes")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.add_argument("--n", type=int, help="max register width for the unitary suite")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factor", help="factor an odd composite via order finding")
    p.add_argument("n", type=int)
    p.add_argument("--backend", choices=("gate", "analytic"))
    p.add_argument("--qft", choices=("standard", "logdepth"), default="standard")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-retries", type=int, default=shor.DEFAULT_MAX_RETRIES)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("accept", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="smaller sweeps, same tolerances")
    p.set_defaults(func=cmd_accept)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qftkit: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CapacityError) as exc:
        print(f"qftkit: error: {exc}", file=sys.stderr)
        return 2
    except QftkitError as exc:
        print(f"qftkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
