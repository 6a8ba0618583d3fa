"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload adaptive_tpch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload exec_dop_sweep --seed 1 --seconds 15 --trace 1

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs pass 0 untraced, traced and untraced again, prints the
per-layer table and the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when the
program's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
#: Set-ups per run: at least SETUP_REPEATS, and more while they have taken
#: less than SETUP_MIN_S in all (up to SETUP_MAX_REPEATS); ``setup_s`` is
#: their median.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 25
#: Passes per 15 s of ``--seconds``: a timed run makes
#: ``round(PASSES_PER_15_S * seconds / 15)`` passes, and at least MIN_PASSES,
#: so the work of a run is fixed by ``--seconds``, never by how fast the host
#: happens to be.  On the reference host (2 vCPU, Python 3.11) one pass takes
#: about 15 s (adaptive_tpch), 5.5 s (exec_dop_sweep), 9 s (serve_tenants)
#: and 6 s (scaleout_skew).  exec_dop_sweep repeats most: one memory-bound
#: execution (q19 at DOP 256) is half its host time, and its time varied
#: from 2.8 to 3.5 s between consecutive passes of one process.
MIN_PASSES = 2
PASSES_PER_15_S = {
    "adaptive_tpch": 2,
    "exec_dop_sweep": 5,
    "serve_tenants": 2,
    "scaleout_skew": 2,
}

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p99": "ms",
    "nodes_per_s": "1/s",
    "queries_per_s": "1/s",
    "sim_gme_speedup": "x",
    "sim_runs_to_gme": "runs",
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p99": "ms",
    "slo_miss_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PASSES_PER_15_S))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one expected output to prove the checks fail")
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(cls, args) -> tuple[dict, list, int, int, list[str]]:
    from suite import geomean
    from tracing import NullProbe

    setups: list[float] = []
    workload = None
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        workload = None  # release the previous inputs before building new ones
        workload = cls(args.seed, args.size, args.inject_mismatch)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    passes = max(MIN_PASSES,
                 round(PASSES_PER_15_S[cls.name] * args.seconds / 15.0))
    results = [workload.run_pass(NullProbe()) for __ in range(passes)]
    first = results[0]
    failures = [m for r in results for m in r.failures]
    failed = sum(r.failed for r in results)
    if any(r.sim_signature() != first.sim_signature()
           or len(r.units) != len(first.units) for r in results[1:]):
        failures.append("simulated results differ between identical passes")
        failed += 1
    # Host interference on a shared machine only ever slows a unit down, so
    # each unit counts at its fastest repetition across the passes.
    units = [min(group, key=lambda u: u.host_s)
             for group in zip(*(r.units for r in results))]
    host_s = sum(u.host_s for u in units)
    run_ms = [ms for u in units for ms in u.run_ms]
    values = {
        "setup_s": statistics.median(setups),
        "runs_per_s": sum(u.runs for u in units) / host_s,
        "run_ms_p50": percentile(run_ms, 50),
        "run_ms_p99": percentile(run_ms, 99),
        "nodes_per_s": sum(u.nodes for u in units) / host_s,
        "queries_per_s": sum(u.queries for u in units) / host_s,
        "sim_gme_speedup": geomean(first.speedups),
        "sim_runs_to_gme": first.runs_to_gme,
        "sim_latency_ms_p50": percentile(first.sim_latency_ms, 50),
        "sim_latency_ms_p99": percentile(first.sim_latency_ms, 99),
        "slo_miss_ratio": first.slo_missed / first.slo_total,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(r.attempted for r in results)
    notes = [
        f"passes: {passes}, units per pass: {len(units)}, host seconds of "
        f"the fastest repetitions: {host_s:.3f}",
        f"run_ms samples: {len(run_ms)}; sim latency samples: "
        f"{len(first.sim_latency_ms)}",
        f"error_ratio: {failed / max(attempted, 1):.6f} "
        f"({failed} of {attempted} operations)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, notes, attempted, failed, failures


def traced_run(cls, args) -> tuple[dict, list, int, int, list[str]]:
    from layers import per_layer_metrics, render_table
    from tracing import ROOT as ROOT_SPAN
    from tracing import NullProbe, SpanTable, Tracer

    def untraced() -> tuple[float, Any]:
        start = perf_counter()
        workload = cls(args.seed, args.size, args.inject_mismatch)
        workload.setup()
        result = workload.run_pass(NullProbe())
        return perf_counter() - start, result

    # The untraced pass runs before and after the traced one; the faster of
    # the two is the baseline, so warm-up and drift do not hide the overhead.
    before, plain = untraced()
    tracer = Tracer()
    holder = {}

    def traced_pass() -> None:
        traced = cls(args.seed, args.size, args.inject_mismatch)
        traced.setup()
        holder["result"] = traced.run_pass(tracer)

    with tracer.installed():
        tracer.call(ROOT_SPAN, traced_pass)
    result = holder["result"]
    table = SpanTable(tracer.names, tracer.arrays())
    metrics = per_layer_metrics(table, tracer, result)
    tracer.memos.clear()  # release the traced pass's caches
    after, again = untraced()
    untraced_wall = min(before, after)
    overhead = table.wall_ms / 1000.0 / untraced_wall
    metrics["trace.overhead_ratio"]["value"] = overhead
    failures = plain.failures + result.failures + again.failures
    failed = plain.failed + result.failed + again.failed
    problems = table.well_formed()
    layers = table.layer_self_ms()
    total = sum(layers.values()) + table.unattributed_ms
    if abs(total - table.wall_ms) > 1e-6 * table.wall_ms + 1e-6:
        problems.append(f"layer self times sum to {total:.6f} ms, "
                        f"wall is {table.wall_ms:.6f} ms")
    failures += [f"trace: {p}" for p in problems]
    failed += len(problems)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{cls.name}-seed{args.seed}.npz"
    tracer.write(spans_path)
    notes = render_table(table, layers) + [
        f"untraced wall: {untraced_wall * 1000.0:.3f} ms, traced wall: "
        f"{table.wall_ms:.3f} ms, overhead x{overhead:.3f}",
        f"reconciliation: layers {sum(layers.values()):.3f} ms + unattributed "
        f"{table.unattributed_ms:.3f} ms = {total:.3f} ms "
        f"({'ok' if not problems else 'FAILED'})",
        f"spans: {len(tracer.start)} written to {spans_path.relative_to(ROOT)}",
    ]
    attempted = plain.attempted + result.attempted + again.attempted
    return metrics, notes, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from suite import WORKLOADS

    cls = WORKLOADS[args.workload]
    runner = traced_run if args.trace else timed_run
    metrics, notes, attempted, failed, failures = runner(cls, args)
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    for message in failures:
        print(f"  CHECK FAILED: {message}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
