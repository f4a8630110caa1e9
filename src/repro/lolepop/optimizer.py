"""DAG optimization passes (step E of Figure 2).

Several of the paper's step-E decisions are made during construction
(buffer reuse, aggregation-strategy selection, producer ordering via
``after`` edges) or at runtime (sort elision when the buffer's ordering
already has the required prefix; sort-mode selection by tuple width). The
passes here operate on the built DAG and read one
:func:`~repro.lolepop.verify.propagate` walk:

- ``elide_redundant_sorts`` — a SORT whose buffer already carries the
  required ordering as a prefix is removed statically (the MSSD plan's
  group-key sort, Figure 3 plan 5). The walk treats such a SORT as the
  identity, so it finds cascades too. A runtime check in SortOp covers
  anything this static pass cannot prove.
- ``remove_redundant_combines`` — a join-mode COMBINE with a single
  producer is the identity and is spliced out (Figure 1's COMBINE(d,c)).
"""

from __future__ import annotations

from typing import List

from ..execution.context import EngineConfig
from .base import Dag
from .combine_op import CombineOp
from .verify import NodeFacts, propagate, verify_dag


def optimize(dag: Dag, config: EngineConfig, estimator=None) -> None:
    """Run all enabled passes in place; record each fired pass in
    ``dag.rewrites`` as a :class:`~repro.lolepop.base.RewriteEvent` — pass
    name, the names of the nodes it removed, and the estimated whole-DAG
    cost before/after — so EXPLAIN ANALYZE and ``tools/plan_diff.py`` can
    attribute plan-cost movement to the step-E decision that caused it.

    ``estimator`` is an optional
    :class:`~repro.logical.cardinality.CardinalityEstimator`; with one the
    cost is priced from per-node cardinality estimates, without one every
    node is priced at the neutral default row count (deltas remain
    meaningful: a removed SORT still subtracts its term). Both passes
    remove nodes that pass their input rows through, so the cost after a
    pass is the cost before minus the removed nodes' own costs.

    Under ``verify_plans="strict"`` the DAG is re-verified after every
    pass that fired, so a plan-breaking rewrite is attributed to the pass
    (via the entry it just appended to ``dag.rewrites``) instead of
    surfacing as a confusing post-translation failure.
    """
    facts = propagate(dag, estimator)
    cost = facts.total_cost
    removed: List[int] = []
    if config.elide_sorts:
        sorts = [entry for entry in facts.nodes.values() if entry.redundant]
        cost = _splice(dag, config, "elide_redundant_sorts", sorts, removed, cost)
    if config.remove_redundant_combines:
        combines = [
            entry
            for entry in facts.nodes.values()
            if isinstance(entry.node, CombineOp)
            and entry.node.mode == "join"
            and len(entry.node.inputs) == 1
        ]
        _splice(dag, config, "remove_redundant_combines", combines, removed, cost)


def _splice(
    dag: Dag,
    config: EngineConfig,
    pass_name: str,
    doomed: List[NodeFacts],
    removed: List[int],
    cost: float,
) -> float:
    """Splice every ``doomed`` node out of ``dag`` (each passes its first
    input through), record the pass, and return the cost after it.
    ``removed`` collects the walk positions of every node spliced so far:
    a label's ``#i`` is the node's position once earlier removals are gone."""
    if not doomed:
        return cost
    labels: List[str] = []
    for entry in doomed:
        node = entry.node
        shift = sum(1 for position in removed if position < entry.index)
        describe = node.describe()
        labels.append(
            f"#{entry.index - shift} {node.name()}"
            + (f" [{describe}]" if describe else "")
        )
        # Consumers inherit the spliced node's anti-dependencies.
        for other in dag.nodes:
            if node in other.inputs:
                other.after.extend(node.after)
        dag.replace(node, node.inputs[0])
        removed.append(entry.index)
    after = cost - sum(entry.cost for entry in doomed)
    dag.record_rewrite(
        f"{pass_name} x{len(doomed)}",
        pass_name=pass_name,
        detail=f"x{len(doomed)}",
        nodes=labels,
        cost_before=cost,
        cost_after=after,
    )
    if config.verify_plans == "strict":
        verify_dag(dag, context=f"optimizer pass {dag.rewrites[-1].text}")
    return after
