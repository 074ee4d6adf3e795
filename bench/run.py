"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``).  Per-pass records, and in traced runs the spans, go to
``bench/.runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS / OpenMP thread and one processor: the program is single-threaded
# Python and numpy, and the reference sampler must share the pass's processor
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

SETUP_REPEATS = 9
# CPU seconds of one ``churn`` reference call on the VM the README's figures
# come from; it converts set-up time in reference calls back to seconds
CHURN_CALL_S = 0.015
REF_EVERY_S = 0.5  # shortest stretch of operations divided by one reference
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import qftkit; print(time.process_time() - t)"
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "qftkit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
    _fail(f"no qftkit sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import qftkit  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402
import yardstick  # noqa: E402
from tracing import Tracer  # noqa: E402

if Path(qftkit.__file__).resolve().parent != SRC / "qftkit":
    _fail(f"imported qftkit from {qftkit.__file__}, not from {SRC}")


def import_seconds() -> float:
    """CPU time of ``import qftkit`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip())


def set_up(workload: wl.Workload, seed: int) -> tuple[float, dict]:
    """Set-up time: import plus the workload's untimed preparation, repeated.

    Each repeat's CPU time is divided by the ``churn`` reference measured
    during it and converted back to seconds by ``CHURN_CALL_S``, so that the
    figure moves with the set-up work and not with the machine's speed; the
    median over repeats is returned.
    """
    sampler = yardstick.Sampler("churn")
    sampler.start()
    ratios = []
    inputs: dict = {}
    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cpu = import_seconds()
            c0 = time.thread_time()
            inputs = workload.prepare(seed)
            cpu += time.thread_time() - c0
            ratios.append(cpu / sampler.reference(start, time.perf_counter()))
    finally:
        sampler.stop()
    return CHURN_CALL_S * statistics.median(ratios), inputs


def run_pass(workload: wl.Workload, ops: list[wl.Op], sampler, tracer: Tracer | None, report: bool) -> dict:
    """One pass over the operations.

    Operations are timed in thread CPU time and grouped into stretches of at
    least ``REF_EVERY_S``; each stretch is divided by the reference measured
    during it.
    """
    workload.start_pass()
    ctx: dict = {}
    seconds = stretch_cpu = stretch_wall = 0.0
    stretch_start = time.perf_counter()
    stretches = []  # (thread CPU seconds, wall seconds, reference seconds)
    verdicts = {wl.OK: 0, wl.FAILED: 0, wl.WRONG: 0}
    gates = depth = width = 0
    for op in ops:
        sid = tracer.open(f"bench.op.{op.name}") if tracer else None
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            result = op.call(ctx)
            error = None
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            result, error = None, exc
        c1, t1 = time.thread_time(), time.perf_counter()
        if tracer:
            tracer.close(sid)
        seconds += t1 - t0
        stretch_cpu += c1 - c0
        stretch_wall += t1 - t0
        if error is not None:
            verdict = wl.FAILED
            traceback.print_exception(error, file=sys.stderr)
        else:
            verdict = op.check(result)
            built = op.built(result)
            if built is not None:
                gates, depth, width = gates + built.size, depth + built.depth, width + built.width
        verdicts[verdict] += 1
        if verdict != wl.OK and report:
            print(f"bench: {verdict}: {op.name}", file=sys.stderr)
        now = time.perf_counter()
        if now - stretch_start >= REF_EVERY_S or op is ops[-1]:
            stretches.append((stretch_cpu, stretch_wall, sampler.reference(stretch_start, now)))
            stretch_cpu, stretch_wall, stretch_start = 0.0, 0.0, now
    return {
        "seconds": seconds,
        "pass_ref": sum(c / r for c, _, r in stretches),
        "stretches": stretches,
        "verdicts": verdicts,
        "circuit_gates": gates,
        "circuit_depth": depth,
        "circuit_width": width,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics()[args.trace]

    workload = wl.WORKLOADS[args.workload]()
    setup_s, inputs = set_up(workload, args.seed)
    ops = workload.ops(inputs)
    sampler = yardstick.Sampler(workload.load)
    sampler.start()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    passes: list[dict] = []
    layer_values: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        rec = run_pass(workload, ops, sampler, tracer, report=not passes)
        if tracer:
            sid = tracer.open("bench.kit")
            probes.layer_kit()
            tracer.close(sid)
            layer_values.append(tracer.end_pass())
        rec["wall"] = time.perf_counter() - t_pass
        passes.append(rec)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(p["wall"] for p in passes) > args.seconds:
            break
    sampler.stop()
    if tracer:
        tracer.remove()

    attempted = len(ops) * len(passes)
    failed = sum(p["verdicts"][wl.FAILED] + p["verdicts"][wl.WRONG] for p in passes)
    correct = all(p["verdicts"][wl.WRONG] == 0 for p in passes)
    pass_ref = statistics.median(p["pass_ref"] for p in passes)
    if tracer:
        kinds = probes.gate_kind_costs()
        values = {name: statistics.median(v.get(name, 0.0) for v in layer_values) for name in declared}
        values.update({name: kinds[name] for name in kinds if name in declared})
    else:
        values = {
            "setup_s": setup_s,
            "pass_ref": pass_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "circuit_gates": statistics.median(p["circuit_gates"] for p in passes),
            "circuit_depth": statistics.median(p["circuit_depth"] for p in passes),
            "circuit_width": statistics.median(p["circuit_width"] for p in passes),
        }
    missing = sorted(set(declared) - set(values))
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}

    RUNS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "pass_ref": pass_ref,
        "passes": passes,
        "metrics": metrics,
    }
    if tracer:
        record["layer_passes"] = tracer.passes
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(
        f"{args.workload} passes {len(passes)} pass_seconds "
        f"{statistics.median(p['seconds'] for p in passes):.4f} pass_ref {pass_ref:.4f}"
        f" attempted {attempted} failed {failed}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
