"""Tests of the benchmark's own pieces.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import core  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self-time arithmetic ------------------------------------------------
def test_self_times_subtract_direct_children_only():
    # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(end - start, parent)
    assert own.tolist() == [10 - 4 - 3, 4 - 1, 1, 3]
    assert own.sum() == pytest.approx(10.0)  # self times tile the root


def test_tracer_links_nested_spans_and_restores_originals():
    toy = types.SimpleNamespace()

    def inner():
        time.sleep(0.002)

    def outer():
        toy.inner()
        toy.inner()
        time.sleep(0.002)

    toy.inner, toy.outer = inner, outer
    tracer = tracing.Tracer()
    toy.inner = tracer.span_wrapper("toy.inner", inner, True)
    toy.outer = tracer.span_wrapper("toy.outer", outer, True)
    tracer.begin_op(0, "read")
    toy.outer()
    tracer.end_op(0.01)
    totals = tracer.layer_totals()
    assert totals["toy.inner|read"]["calls"] == 2
    outer_total = totals["toy.outer|read"]
    inner_total = totals["toy.inner|read"]["inclusive_s"]
    assert outer_total["self_s"] == pytest.approx(
        outer_total["inclusive_s"] - inner_total
    )
    assert totals["top|read"]["inclusive_s"] == outer_total["inclusive_s"]

    tracer.install()
    from repro.server import cache

    assert hasattr(cache.normalize_sql, "__wrapped__")
    tracer.uninstall()
    assert not hasattr(cache.normalize_sql, "__wrapped__")


def test_non_reentrant_span_does_not_nest_in_itself():
    tracer = tracing.Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = tracer.span_wrapper("rec", depth, False)
    assert wrapped(5) == 5
    assert len(tracer.spans) == 1


# -- failed ops ----------------------------------------------------------
class _Fake:
    """Ten ops answering their index; op 3 answers wrongly, op 7 raises."""

    def ops(self):
        def answer(i):
            if i == 7:
                raise RuntimeError("refused")
            return -1 if i == 3 else i

        return [("read", lambda i=i: answer(i)) for i in range(10)]

    def check(self, index, answer):
        return answer == index


def test_wrong_answer_and_error_count_as_failed_ops():
    run = core.run_ops(_Fake())
    assert (run.attempted, run.failed) == (10, 2)
    assert len(run.latencies_ms("read")) == 8


def test_injected_wrong_answer_in_a_workload_is_a_failed_op():
    workload = workloads.ServeCached(seed=5, seconds=0)
    try:
        workload.setup()
        workload.prepare_check()
        workload.expected[0] = workload.expected[0][:-1]  # wrong reference
        run = core.run_ops(workload)
    finally:
        workload.close()
    wrong = int((workload.sequence == 0).sum())
    assert wrong > 0
    assert run.attempted == len(workload.sequence)
    assert run.failed == wrong


# -- percentiles ---------------------------------------------------------
def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="need at least 10"):
        core.percentile([float(v) for v in range(99)], 0.9)
    assert core.percentile([float(v) for v in range(100)], 0.9) == 89.0


# -- the command ---------------------------------------------------------
def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    out = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in names:
        for metric in declared:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], float)
            assert f"# {workload} {metric['name']} = " in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "serve_cached", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
