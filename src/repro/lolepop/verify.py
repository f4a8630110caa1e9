"""Static plan verifier and the one property walk every DAG analysis reads.

:func:`propagate` walks a LOLEPOP DAG once, in
:meth:`Dag.topological_order` — which is also the execution order of both
schedulers, so the propagated buffer state at each node is exactly the
state the node will observe at runtime — and records per node its
contract, the owner of the buffer it outputs, the buffer's current derived
:class:`~repro.lolepop.properties.PhysProps`, the estimated output rows
and the unit cost (:func:`repro.costmodel.node_cost`). The verifier, the
optimizer's sort elision and rewrite costing, and EXPLAIN ANALYZE's
estimates all read these :class:`DagFacts`; none of them walks the DAG on
its own. The walk never runs a kernel and never touches data.

Buffers are mutated in place (SORT reorders, WINDOW appends columns), so
the walk tracks the *current* state per buffer root: a consumer placed
after a re-sort in the topological order sees the re-sorted state. A SORT
whose input is already ordered with the SORT's keys as a prefix is
*redundant* and the walk treats it as the identity — the buffer keeps the
ordering it had, exactly what ``SortOp``'s runtime
``ordering_satisfies`` check does — so one walk finds every redundant
SORT, cascades included.

The verifier reports three families of :class:`Diagnostic`:

**Structural** (``no-sink`` / ``cycle`` / ``unreachable`` / ``arity`` /
``kind-mismatch`` / ``no-contract`` / ``unrebindable-source``): the DAG is
well-formed, acyclic over data + ``after`` edges, single-sink, every node
has a registered contract with compatible input kinds, and (for plan-cache
templates) every SOURCE can be rebound to a new query.

**Physical properties** (``property``): each operator's requirements on
its input's partitioning / per-partition ordering / uniqueness / schema
are met by the properties derived upstream — e.g. ORDAGG over a buffer not
sorted on its group keys, MERGE over partitions not sorted on the merge
keys, COMBINE(join) over an input not unique on the group key.

**Buffer-reuse races** (``race``): for every in-place mutator of a shared
buffer, every consumer whose result depends on the aspect being mutated
(ordering for SORT, full-schema reads for WINDOW's appended columns) must
be ordered with respect to the mutator via data or ``after`` edges. A
missing anti-dependency edge — the hardest class of parallel-mode bug —
becomes a deterministic lint finding instead of a nondeterministic wrong
result.

Entry points: :func:`propagate` (the facts), :func:`check_dag` (collect
diagnostics), :func:`verify_dag` (raise
:class:`~repro.errors.PlanVerificationError`), and
:func:`derive_properties` (best-effort per-node properties for EXPLAIN /
EXPLAIN ANALYZE).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..costmodel import DEFAULT_COST_ROWS, node_cost
from ..errors import PlanError, PlanVerificationError
from ..logical import Aggregate, Limit, LogicalPlan, Sort, Window
from .base import Dag, Lolepop, SourceOp
from .combine_op import CombineOp
from .hashagg_op import HashAggOp
from .ordagg_op import OrdAggOp
from .properties import OperatorContract, PhysProps, contract_of
from .scan_op import ScanOp
from .sort_op import SortOp

if TYPE_CHECKING:
    from ..logical.cardinality import CardinalityEstimator


class Diagnostic:
    """One verifier finding, attributed to a node when possible."""

    __slots__ = ("code", "node", "message")

    def __init__(
        self, code: str, node: Optional[Lolepop], message: str
    ) -> None:
        #: Stable machine-readable family: 'no-sink', 'cycle',
        #: 'unreachable', 'no-contract', 'arity', 'kind-mismatch',
        #: 'property', 'race', 'unrebindable-source'.
        self.code = code
        self.node = node
        self.message = message

    def render(self, ids: Dict[int, int]) -> str:
        if self.node is None:
            return f"[{self.code}] {self.message}"
        index = ids.get(id(self.node))
        tag = f"#{index} " if index is not None else ""
        try:
            name = self.node.name()
        except PlanError:
            name = type(self.node).__name__
        return f"[{self.code}] {tag}{name}: {self.message}"

    def __repr__(self) -> str:
        return f"Diagnostic({self.code!r}, {self.message!r})"


@dataclass(slots=True)
class NodeFacts:
    """What :func:`propagate` derived for one node."""

    node: Lolepop
    #: Position in the topological (= execution) order.
    index: int
    contract: Optional[OperatorContract]
    #: The node whose execution created the buffer this node outputs;
    #: ``None`` for stream producers and contract-less nodes.
    root: Optional[Lolepop]
    #: Output properties at the moment the node executes (for a buffer:
    #: the shared buffer's current state).
    props: PhysProps
    #: Estimated output rows; ``None`` without an estimator or when the
    #: estimate cannot be derived.
    rows: Optional[float]
    #: :func:`repro.costmodel.node_cost` at the estimated rows.
    cost: float
    #: A SORT whose input is already ordered with its keys as a prefix.
    redundant: bool = False


@dataclass
class DagFacts:
    """The result of one :func:`propagate` walk."""

    order: List[Lolepop] = field(default_factory=list)
    #: ``id(node)`` -> facts, in topological order.
    nodes: Dict[int, NodeFacts] = field(default_factory=dict)
    #: Structural and property diagnostics (races and rebindability are
    #: checked on top of the facts by :func:`check_dag`).
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        """Estimated whole-DAG cost: the sum of the per-node unit costs."""
        return sum(facts.cost for facts in self.nodes.values())

    def props(self) -> Dict[int, PhysProps]:
        return {key: facts.props for key, facts in self.nodes.items()}


def _region_input_plan(plan: Optional[LogicalPlan]) -> Optional[LogicalPlan]:
    """The logical plan feeding a statistics region's compute operators."""
    node = plan
    while isinstance(node, Limit):
        node = node.child
    if isinstance(node, (Aggregate, Window, Sort)):
        return node.child
    return node


def _estimate_rows(
    node: Lolepop,
    context: Optional[LogicalPlan],
    estimator: CardinalityEstimator,
    known: Dict[int, NodeFacts],
) -> Optional[float]:
    """Estimated output rows of ``node``, mirroring how each operator
    transforms cardinality: SOURCE estimates its relational pipeline,
    HASHAGG/ORDAGG estimate group counts against the region's input plan,
    COMBINE takes the max (join mode) or sum (union mode) of its inputs,
    SCAN caps at its LIMIT, and buffer movers (PARTITION / SORT / MERGE /
    WINDOW) pass their input estimate through."""

    def rows_of(dep: Lolepop) -> Optional[float]:
        dep_facts = known.get(id(dep))
        return None if dep_facts is None else dep_facts.rows

    try:
        if isinstance(node, SourceOp):
            return estimator.rows(node.plan) if node.plan is not None else None
        if isinstance(node, (HashAggOp, OrdAggOp)):
            if context is None:
                return None
            return estimator.group_count(context, node.key_names)
        if isinstance(node, CombineOp):
            estimates = [rows_of(dep) for dep in node.inputs]
            present = [rows for rows in estimates if rows is not None]
            if not present:
                return None
            return sum(present) if node.mode == "union" else max(present)
        estimate = rows_of(node.inputs[0]) if node.inputs else None
        if isinstance(node, ScanOp) and estimate is not None and node.limit is not None:
            return float(min(estimate, node.limit))
        return estimate
    except Exception:  # noqa: BLE001 — estimation is best-effort
        return None


def _cost_rows(rows: Optional[float]) -> float:
    return DEFAULT_COST_ROWS if rows is None else max(1.0, float(rows))


def propagate(
    dag: Dag, estimator: Optional[CardinalityEstimator] = None
) -> DagFacts:
    """Walk ``dag`` once in topological order and return its
    :class:`DagFacts`. Never raises for an invalid plan — invalidity is
    reported as diagnostics — and never executes any operator."""
    facts = DagFacts()
    diagnostics = facts.diagnostics
    if dag.sink is None:
        diagnostics.append(Diagnostic("no-sink", None, "DAG has no sink"))
        return facts
    try:
        order = dag.topological_order()
    except PlanError as exc:
        diagnostics.append(Diagnostic("cycle", None, f"not a DAG: {exc}"))
        return facts
    facts.order = order

    reachable = {id(node) for node in order}
    for node in dag.nodes:
        if id(node) not in reachable:
            diagnostics.append(
                Diagnostic(
                    "unreachable",
                    node,
                    "node is registered in the DAG but not reachable from "
                    "the sink (dead operator left behind by a rewrite?)",
                )
            )

    context = (
        _region_input_plan(dag.region_plan) if estimator is not None else None
    )
    known = facts.nodes
    #: id(buffer root) -> the shared buffer's current properties.
    root_state: Dict[int, PhysProps] = {}
    for index, node in enumerate(order):
        rows = (
            _estimate_rows(node, context, estimator, known)
            if estimator is not None
            else None
        )
        contract: Optional[OperatorContract]
        try:
            contract = contract_of(node)
        except PlanError as exc:
            contract = None
            diagnostics.append(Diagnostic("no-contract", node, str(exc)))
        first = known.get(id(node.inputs[0])) if node.inputs else None
        cost = node_cost(
            contract.name if contract is not None else type(node).__name__,
            _cost_rows(rows),
            _cost_rows(first.rows if first else None) if node.inputs else None,
        )
        if contract is None:
            declared = getattr(node, "produces", "stream")
            known[id(node)] = NodeFacts(
                node,
                index,
                None,
                None,
                PhysProps(
                    declared if declared in ("stream", "buffer") else "stream"
                ),
                rows,
                cost,
            )
            continue

        count = len(node.inputs)
        if count < contract.min_inputs or (
            contract.max_inputs is not None and count > contract.max_inputs
        ):
            expected = (
                str(contract.min_inputs)
                if contract.min_inputs == contract.max_inputs
                else f"{contract.min_inputs}+"
                if contract.max_inputs is None
                else f"{contract.min_inputs}..{contract.max_inputs}"
            )
            diagnostics.append(
                Diagnostic(
                    "arity",
                    node,
                    f"{contract.name} takes {expected} input(s), got {count}",
                )
            )

        ins: List[PhysProps] = []
        for dep in node.inputs:
            dep_facts = known.get(id(dep))
            if dep_facts is None:  # dangling input, not part of the DAG
                diagnostics.append(
                    Diagnostic(
                        "unreachable",
                        node,
                        "input operator was never produced by this DAG",
                    )
                )
                dep_props = PhysProps("stream")
            else:
                dep_props = dep_facts.props
            if contract.consumes and dep_props.kind not in contract.consumes:
                diagnostics.append(
                    Diagnostic(
                        "kind-mismatch",
                        node,
                        f"{contract.name} consumes "
                        f"{'/'.join(contract.consumes)} but its input "
                        f"produces a {dep_props.kind}",
                    )
                )
            if dep_props.kind == "buffer" and dep_facts is not None:
                dep_root = dep_facts.root
                if dep_root is not None and id(dep_root) in root_state:
                    dep_props = root_state[id(dep_root)]
            ins.append(dep_props)

        for message in contract.requires(node, ins):
            diagnostics.append(Diagnostic("property", node, message))
        redundant = (
            isinstance(node, SortOp)
            and bool(ins)
            and ins[0].kind == "buffer"
            and ins[0].ordering_satisfies(node.keys)
        )
        derived = ins[0] if redundant else contract.derive(node, ins)
        root: Optional[Lolepop] = None
        if contract.buffer_role == "creates":
            root = node
        elif contract.buffer_role == "forwards" and first is not None:
            root = first.root
        known[id(node)] = NodeFacts(
            node, index, contract, root, derived, rows, cost, redundant
        )
        if derived.kind == "buffer" and root is not None:
            root_state[id(root)] = derived
    return facts


def check_dag(
    dag: Dag, require_rebindable: bool = False
) -> Tuple[List[Diagnostic], Dict[int, PhysProps]]:
    """Verify ``dag``; return ``(diagnostics, properties)`` where
    ``properties`` maps ``id(node)`` to the node's derived
    :class:`~repro.lolepop.properties.PhysProps` (the state of its output
    at the moment the node executes).

    Never raises for an invalid plan — invalidity is reported as
    diagnostics — and never executes any operator.
    """
    facts = propagate(dag)
    diagnostics = list(facts.diagnostics)
    order = facts.order
    known = facts.nodes

    # ------------------------------------------------------------------
    # Buffer-reuse races: every (in-place mutator, affected consumer) pair
    # sharing a buffer must be ordered via data + after edges.
    # ------------------------------------------------------------------
    ancestors: Dict[int, Set[int]] = {}
    for node in order:
        deps: Set[int] = set()
        for dep in list(node.inputs) + list(node.after):
            deps.add(id(dep))
            deps |= ancestors.get(id(dep), set())
        ancestors[id(node)] = deps

    consumers: Dict[int, List[Lolepop]] = {}
    mutators: Dict[int, List[Lolepop]] = {}
    for node in order:
        contract = known[id(node)].contract
        if contract is None:
            continue
        seen_roots: Set[int] = set()
        for dep in node.inputs:
            dep_facts = known.get(id(dep))
            if dep_facts is None or dep_facts.props.kind != "buffer":
                continue
            root = dep_facts.root
            if root is None or id(root) in seen_roots:
                continue
            seen_roots.add(id(root))
            consumers.setdefault(id(root), []).append(node)
            if contract.mutation_effect is not None:
                mutators.setdefault(id(root), []).append(node)

    for root_id, muts in mutators.items():
        for mutator in muts:
            # A node only lands in ``mutators`` when its contract resolved
            # (the walk above skips contract-less nodes).
            mutator_facts = known[id(mutator)]
            mutator_contract = mutator_facts.contract
            assert mutator_contract is not None
            effect = mutator_contract.mutation_effect
            for consumer in consumers.get(root_id, []):
                if consumer is mutator:
                    continue
                contract = known[id(consumer)].contract
                if contract is None:
                    continue
                if effect == "order":
                    affected = contract.order_sensitive(consumer)
                elif effect == "schema":
                    affected = contract.reads_full_schema(consumer)
                else:
                    affected = False
                if not affected:
                    continue
                ordered = (
                    id(mutator) in ancestors[id(consumer)]
                    or id(consumer) in ancestors[id(mutator)]
                )
                if not ordered:
                    diagnostics.append(
                        Diagnostic(
                            "race",
                            consumer,
                            f"reads a shared buffer that "
                            f"#{mutator_facts.index} "
                            f"{mutator_contract.name} mutates in "
                            f"place ({effect}), but no data/after edge "
                            f"orders the two — add an anti-dependency "
                            f"edge (run_after)",
                        )
                    )

    # ------------------------------------------------------------------
    # Cache-template rebindability: a cloned template re-points each
    # SOURCE at the new query via SourceOp.rebind, which needs the
    # logical plan the translator attached.
    # ------------------------------------------------------------------
    if require_rebindable:
        for node in order:
            if isinstance(node, SourceOp) and node.plan is None:
                diagnostics.append(
                    Diagnostic(
                        "unrebindable-source",
                        node,
                        "SOURCE has no logical plan attached; a cached "
                        "template cloned from this DAG could never be "
                        "rebound to a new query",
                    )
                )

    return diagnostics, facts.props()


def verify_dag(
    dag: Dag, require_rebindable: bool = False, context: str = ""
) -> Dict[int, PhysProps]:
    """Run :func:`check_dag` and raise
    :class:`~repro.errors.PlanVerificationError` listing every finding if
    the plan is invalid; return the derived properties otherwise."""
    diagnostics, props = check_dag(dag, require_rebindable=require_rebindable)
    if diagnostics:
        try:
            ids = {id(n): i for i, n in enumerate(dag.topological_order())}
        except PlanError:
            ids = {id(n): i for i, n in enumerate(dag.nodes)}
        where = f" ({context})" if context else ""
        lines = "\n".join("  " + d.render(ids) for d in diagnostics)
        try:  # flight-recorder breadcrumb (lazy import: no cycle, no cost
            from ..observability.telemetry import GLOBAL_TELEMETRY  # when off)

            GLOBAL_TELEMETRY.event(
                "verifier.diagnostic",
                context=context or "-",
                count=len(diagnostics),
                codes=sorted({d.code for d in diagnostics}),
            )
        except Exception:  # noqa: BLE001 — telemetry never masks the error
            pass
        raise PlanVerificationError(
            f"plan verification failed{where}: "
            f"{len(diagnostics)} diagnostic(s)\n{lines}",
            diagnostics,
        )
    return props


def derive_properties(dag: Dag) -> Dict[int, PhysProps]:
    """Best-effort per-node properties for EXPLAIN rendering: never raises,
    returns an empty mapping when the DAG cannot be analyzed."""
    try:
        return propagate(dag).props()
    except Exception:
        return {}
