"""Golden file: every corpus query's LOLEPOP plan and rewrite log.

For each of the ``CORPORA`` queries this pins, at the corpus's own
``config()`` (and once more with cost-based DISTINCT on, so the optimizer
prices nodes from cardinality estimates instead of the default row count):

- the :func:`~repro.observability.workload.plan_fingerprint` over
  ``QueryResult.dags`` — operator names, parameters, data and ``after``
  edges of every executed region DAG;
- the rewrite log of those DAGs as ``(pass_name, nodes, cost_before,
  cost_after)`` — which optimizer / translator decisions fired, on which
  nodes, and what they did to the estimated plan cost.

A refactor of the optimizer, the verifier or the cost model must leave
this file unchanged. Regenerate it (only for an intended plan change)
with ``PYTHONPATH=src python -m tests.test_corpus_plan_golden``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import pytest

from repro.bench.corpora import CORPORA
from repro.observability.workload import plan_fingerprint

GOLDEN = os.path.join(os.path.dirname(__file__), "corpus_plans.json")
SCALE = 0.002
VARIANTS = {"default": {}, "costed": {"cost_based_distinct": True}}


def _rewrite_log(dags) -> List[list]:
    return [
        [event.pass_name, list(event.nodes), event.cost_before, event.cost_after]
        for dag in dags
        for event in dag.rewrites
    ]


def collect() -> Dict[str, dict]:
    """Fresh ``{"corpus/query/variant": {fingerprint, rewrites}}``."""
    out: Dict[str, dict] = {}
    for corpus in CORPORA.values():
        db = corpus.build_database(scale_factor=SCALE)
        for variant, overrides in VARIANTS.items():
            config = corpus.config(verify_plans="strict", **overrides)
            for name, sql in corpus.queries.items():
                result = db.sql(sql, config=config)
                out[f"{corpus.name}/{name}/{variant}"] = {
                    "fingerprint": plan_fingerprint(result.dags, sql),
                    "rewrites": _rewrite_log(result.dags),
                }
    return out


@pytest.fixture(scope="module")
def fresh() -> Dict[str, dict]:
    return collect()


@pytest.fixture(scope="module")
def golden() -> Dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_corpus_query(golden):
    expected = {
        f"{corpus.name}/{name}/{variant}"
        for corpus in CORPORA.values()
        for name in corpus.queries
        for variant in VARIANTS
    }
    assert set(golden) == expected
    assert len(expected) == 43 * len(VARIANTS)


def test_plan_fingerprints_unchanged(fresh, golden):
    changed = sorted(
        key
        for key in golden
        if fresh[key]["fingerprint"] != golden[key]["fingerprint"]
    )
    assert not changed, f"plan shape changed for {changed}"


def test_rewrite_logs_unchanged(fresh, golden):
    for key, pinned in golden.items():
        got = fresh[key]["rewrites"]
        assert [entry[:2] for entry in got] == [
            entry[:2] for entry in pinned["rewrites"]
        ], key
        for entry, want in zip(got, pinned["rewrites"]):
            for value, expected in zip(entry[2:], want[2:]):
                if expected is None:
                    assert value is None, key
                else:
                    assert value == pytest.approx(expected, rel=1e-9), key


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
