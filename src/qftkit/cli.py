"""Command-line front end.

Subcommands: ``build`` (emit a circuit netlist), ``stats`` (metrics for a
netlist), ``sim`` (amplitudes or sampled shots), ``verify`` (a named subset of
the acceptance criteria), ``factor`` (order-finding factorizer), ``accept``
(the full acceptance battery).  Exit codes: 0 success, 1 a verification-style
check failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from . import acceptance, netlist, shor
from .circuit import Circuit
from .errors import CapacityError, QftkitError
from .qft_pow2 import PLAN_KINDS, QftPlan, _output_wires, build_from_plan, copy_fourier, prep_approx, prep_exact
from .sim import DEFAULT_SEED, _keys, _read_bits, run_sparse, sparse_marginal

STATS_KEYS = ("n", "size", "depth", "width", "gate_histogram", "error_bound")
# suite -> the acceptance criteria it runs (numbered as in ``qftkit accept``)
VERIFY_SUITES = {
    "unitary": (1, 2),
    "arith": (4,),
    "phase": (5,),
    "moduli": (7,),
    "bounds": (6,),
    "all": (1, 2, 4, 5, 6, 7),
}


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
    if kind in PLAN_KINDS:
        return build_from_plan(QftPlan(kind, n, b=args.band, k=args.k))
    if args.band is not None:
        raise UsageError(f"--kind {kind} takes no --band")
    if kind == "prep":
        if args.k is not None:
            raise UsageError("--kind prep takes no --k")
        return prep_exact(n)
    if kind == "prep-approx":
        if args.k is None:
            raise UsageError("--kind prep-approx requires --k (phase window)")
        return prep_approx(n, args.k)
    # argparse's choices leave only "copy"
    return copy_fourier(n, 2 if args.k is None else args.k)


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


def _stats_payload(circ: Circuit) -> dict:
    meta = circ.metadata
    return {
        "n": meta.get("n", circ.n_qubits),
        "size": circ.size,
        "depth": circ.depth,
        "width": circ.width,
        "gate_histogram": circ.gate_histogram(),
        "error_bound": meta.get("error_bound"),
    }


def cmd_stats(args: argparse.Namespace) -> int:
    payload = _stats_payload(_load(args.path))
    if args.json:
        print(json.dumps(payload))
    else:
        for key in STATS_KEYS:
            value = payload[key]
            if key == "gate_histogram":
                value = " ".join(f"{g}={c}" for g, c in value.items()) or "-"
            print(f"{key}: {value}")
    return 0


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
    wires = _output_wires(circ)
    if args.shots is None:
        if circ.has_measurement():
            raise UsageError("circuit contains measurement; amplitudes need --shots")
        amps = run_sparse(circ, x=x).amplitudes
        table = dict(zip(_keys(_read_bits(amps, wires)), amps.values()))
        for idx in sorted(table):
            amp = table[idx]
            print(f"{idx:0{circ.width}b} {amp.real:+.12f} {amp.imag:+.12f}")
        return 0
    if args.shots <= 0:
        raise UsageError("--shots must be positive")
    n = circ.n_qubits
    counts: dict[int, int] = {}
    # measurement collapses differently per run, so a measured circuit draws one outcome per run
    runs, per_run = (args.shots, 1) if circ.has_measurement() else (1, args.shots)
    for _ in range(runs):
        probs = sparse_marginal(run_sparse(circ, x=x, rng=rng).amplitudes, range(n))
        for y in rng.choice(probs.size, size=per_run, p=probs).tolist():
            counts[y] = counts.get(y, 0) + 1
    table = {f"{y:0{n}b}": c for y, c in zip(_keys(_read_bits(counts, wires[:n])), counts.values())}
    print(json.dumps({"shots": args.shots, "seed": seed, "counts": dict(sorted(table.items()))}))
    return 0


# --- verify suites --------------------------------------------------------------


def _report(results: Iterable[tuple[int, acceptance.CriterionResult]]) -> int:
    failed = False
    for index, result in results:
        print(acceptance.format_line(index, result))
        failed = failed or not result.passed
    return 1 if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    return _report((i, acceptance.CRITERIA[i - 1](False)) for i in VERIFY_SUITES[args.suite])


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
    return _report(enumerate(acceptance.run_all(quick=args.quick), 1))


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qftkit", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="construct a circuit and emit its netlist")
    p.add_argument(
        "--kind",
        required=True,
        choices=(*PLAN_KINDS, "prep", "prep-approx", "copy"),
    )
    p.add_argument("--n", type=int, required=True, help="register width in qubits")
    p.add_argument("--band", type=int, help="kept controlled-phase distance (banded only)")
    p.add_argument("--k", type=int, help="copies / repetitions / window, per kind")
    p.add_argument("--out", help="netlist output path (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="metrics for a netlist file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sim", help="simulate a netlist on a basis input")
    p.add_argument("path")
    p.add_argument("--input", required=True, help="basis state, most significant bit first")
    p.add_argument("--seed", type=int)
    p.add_argument("--shots", type=int, help="sample outcomes instead of printing amplitudes")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("verify", help="run the acceptance criteria a suite names")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("factor", help="factor an odd composite via order finding")
    p.add_argument("n", type=int)
    p.add_argument("--backend", choices=("gate", "analytic"))
    p.add_argument("--qft", choices=shor.QFT_VARIANTS, default="standard")
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
    except (UsageError, ValueError, CapacityError) as exc:
        print(f"qftkit: error: {exc}", file=sys.stderr)
        return 2
    except QftkitError as exc:
        print(f"qftkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
