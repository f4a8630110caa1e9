"""Run the repository benchmark.

    python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``serve_cached``, ``adhoc_small``, ``olap_corpus``,
``ingest_refresh``, or ``all`` (each in turn, in one process). With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Run it from the repository root; it imports the program from ``src/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from core import end_to_end, run_ops, timed_setups
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_spans"

#: End-to-end metrics and their units, as BENCHMARK.json declares them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Reported by ``ingest_refresh`` on the human-readable lines only: the
#: other workloads have no writes.
WRITE_METRICS = {"write_p50_ms": "ms", "write_p90_ms": "ms"}

OPERATORS = ["SCAN", "PARTITION", "SORT", "MERGE", "HASHAGG", "ORDAGG",
             "WINDOW", "COMBINE"]
#: Per-layer metrics: name -> (unit, span name, scale) for span self times
#: per read op; the others are computed in :func:`per_layer`.
SPAN_METRICS = {
    "server.normalize_us_per_op": ("us", "server.normalize", 1e6),
    "server.submit_self_us_per_op": ("us", "server.submit", 1e6),
    "observability.record_us_per_op": ("us", "observability.record", 1e6),
    "observability.fingerprint_us_per_op": ("us", "observability.fingerprint", 1e6),
    "sql.parse_us_per_op": ("us", "sql.parse", 1e6),
    "sql.bind_us_per_op": ("us", "sql.bind", 1e6),
    "logical.estimate_us_per_op": ("us", "logical.estimate", 1e6),
    "lolepop.translate_us_per_op": ("us", "lolepop.translate", 1e6),
    "lolepop.optimize_us_per_op": ("us", "lolepop.optimize", 1e6),
    "lolepop.clone_us_per_op": ("us", "lolepop.clone", 1e6),
    "execution.region_ms_per_op": ("ms", "execution.region", 1e3),
    "storage.group_codes_ms_per_op": ("ms", "storage.group_codes", 1e3),
    "storage.take_ms_per_op": ("ms", "storage.take", 1e3),
    "relational.hash_join_ms_per_op": ("ms", "relational.hash_join", 1e3),
    "expr.evaluate_ms_per_op": ("ms", "expr.evaluate", 1e3),
}
PER_LAYER = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    "server.normalize_calls_per_op": "count",
    "server.result_cache_hit_ratio": "ratio",
    "server.plan_cache_hit_ratio": "ratio",
    "server.queue_wait_us_per_op": "us",
    "execution.regions_per_op": "count",
    "execution.serial_ms_per_op": "ms",
    "storage.batches_per_op": "count",
    "storage.spill_bytes_per_op": "B",
    **{f"lolepop.{op}.ms_per_op": "ms" for op in OPERATORS},
    "storage.insert_ms_per_write": "ms",
    "reuse.maintenance_ms_per_write": "ms",
    "reuse.hit_ratio": "ratio",
    "reuse.resident_mb": "MB",
    "host.ref_loop_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_ratio": "ratio",
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(tracer, before, after, traced_s, untraced_s, probe_ms):
    """Per-layer metrics of one traced pass (see README.md)."""
    totals = tracer.layer_totals()
    reads = max(tracer.op_counts["read"], 1)
    writes = tracer.op_counts["write"]

    def layer(name, kind="read", field="self_s"):
        return totals.get(f"{name}|{kind}", {}).get(field, 0.0)

    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    out = {
        name: layer(span) * scale / reads
        for name, (_, span, scale) in SPAN_METRICS.items()
    }
    maintenance_s = delta("maintenance_s")
    client_s = sum(tracer.op_seconds.values())
    top_s = layer("top", "read", "inclusive_s") + layer("top", "write", "inclusive_s")
    out.update({
        "server.normalize_calls_per_op": layer("server.normalize", field="calls") / reads,
        "server.result_cache_hit_ratio": _ratio(delta("result_hits"), delta("result_misses")),
        "server.plan_cache_hit_ratio": _ratio(delta("plan_hits"), delta("plan_misses")),
        "server.queue_wait_us_per_op": delta("queue_wait_s") * 1e6 / reads,
        "execution.regions_per_op": layer("execution.region", field="calls") / reads,
        "execution.serial_ms_per_op": tracer.serial_s * 1e3 / reads,
        "storage.batches_per_op": tracer.batches / reads,
        "storage.spill_bytes_per_op": tracer.spill_bytes / reads,
        # Time inside Table.insert_arrays that view maintenance (which the
        # insert triggers) did not take.
        "storage.insert_ms_per_write": (
            (layer("storage.insert", "write", "inclusive_s") - maintenance_s)
            * 1e3 / writes if writes else 0.0
        ),
        "reuse.maintenance_ms_per_write": (
            maintenance_s * 1e3 / writes if writes else 0.0
        ),
        "reuse.hit_ratio": _ratio(delta("reuse_hits"), delta("reuse_misses")),
        "reuse.resident_mb": after.get("resident_bytes", 0) / 2**20,
        "host.ref_loop_ms": statistics.median(probe_ms),
        # Share by which tracing lengthened the same ops' client time.
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        # Share of client time that no recorded span covers.
        "trace.unaccounted_ratio": (client_s - top_s) / client_s,
    })
    for op in OPERATORS:
        out[f"lolepop.{op}.ms_per_op"] = tracer.operator_s.get(op, 0.0) * 1e3 / reads
    return out


def run_untraced(workload):
    from workloads import SETUP_REPEATS

    setups = timed_setups(workload, SETUP_REPEATS)
    workload.prepare_check()
    run = run_ops(workload)
    workload.close()
    return run, end_to_end(run, setups)


def run_traced(workload, seed):
    workload.setup()
    workload.prepare_check()
    untraced = run_ops(workload)
    workload.close()

    workload.collect_metrics = True
    workload.setup()
    workload.prepare_check()
    tracer = Tracer()
    before = workload.counters()
    tracer.install()
    try:
        traced = run_ops(workload, tracer)
    finally:
        tracer.uninstall()
    after = workload.counters()
    workload.close()
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.dump(str(SPANS_DIR / f"{workload.name}-seed{seed}.npz"))
    metrics = per_layer(
        tracer, before, after,
        traced_s=float(traced.seconds().sum()),
        untraced_s=float(untraced.seconds().sum()),
        probe_ms=traced.clock.ms + untraced.clock.ms,
    )
    return untraced, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Every run measures the program's defaults, whatever the caller's
    # environment says; the program reads these variables at import.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(WORKLOADS)} or 'all'")

    attempted = failed = 0
    reported = {}
    for name in names:
        workload = WORKLOADS[name](args.seed, args.seconds)
        print("# config " + json.dumps({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "shape": workload.shape(),
        }), flush=True)
        if args.trace:
            untraced, traced, metrics = run_traced(workload, args.seed)
            runs = (untraced, traced)
            units = PER_LAYER
        else:
            run, metrics = run_untraced(workload)
            runs = (run,)
            units = {**END_TO_END, **WRITE_METRICS}
            units.update({f"raw.{k}": u for k, u in units.items()})
            units["host.ref_loop_ms"] = "ms"
        for run in runs:
            attempted += run.attempted
            failed += run.failed
        for metric, value in metrics.items():
            print(f"# {name} {metric} = {value:.6g} {units[metric]}")
        declared = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in declared:
            reported[prefix + metric] = {"value": metrics[metric], "unit": declared[metric]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
