"""Span tracing for the traced run, recorded from the benchmark's side.

:class:`Tracer` replaces a public function or method of the program with a
wrapper that records one span per call: name, start, end, parent span and
op. A module-level function is patched in the module that *calls* it (for
example ``repro.api.parse_sql``), a method on its class. Nothing in the
program is edited; :meth:`Tracer.uninstall` puts every original back.

A layer's self time is its spans' duration minus the time their child
spans cover (:func:`self_times`). Spans are kept in memory and written to
one ``.npz`` file when the run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

#: ``(target, attribute, span name, reentrant)``. ``target`` is a module,
#: or ``module:Class`` for a method. A non-reentrant span does not nest in
#: itself: the recursive calls of ``evaluate`` and of the cardinality
#: estimator stay inside the outermost span of their layer.
SPAN_PATCHES: List[Tuple[str, str, str, bool]] = [
    ("repro.server.service:QueryService", "submit", "server.submit", True),
    ("repro.server.cache", "normalize_sql", "server.normalize", True),
    ("repro.server.service", "normalize_sql", "server.normalize", True),
    ("repro.api", "parse_sql", "sql.parse", True),
    ("repro.api", "bind", "sql.bind", True),
    ("repro.logical.cardinality:CardinalityEstimator", "rows",
     "logical.estimate", False),
    ("repro.lolepop.engine", "translate_statistics", "lolepop.translate", True),
    ("repro.lolepop.optimizer", "optimize", "lolepop.optimize", True),
    ("repro.lolepop.base:Dag", "clone", "lolepop.clone", True),
    ("repro.api", "plan_fingerprint", "observability.fingerprint", True),
    ("repro.observability.workload", "plan_fingerprint",
     "observability.fingerprint", True),
    ("repro.observability.telemetry:Telemetry", "record_query",
     "observability.record", True),
    ("repro.execution.scheduler:SimulatedScheduler", "run_region",
     "execution.region", True),
    ("repro.storage.keys", "group_codes", "storage.group_codes", True),
    ("repro.lolepop.hashagg_op", "group_codes", "storage.group_codes", True),
    ("repro.lolepop.combine_op", "group_codes", "storage.group_codes", True),
    ("repro.reuse.views", "group_codes", "storage.group_codes", True),
    ("repro.storage.column:Column", "take", "storage.take", True),
    ("repro.relational.hash_join:HashJoinTable", "__init__",
     "relational.hash_join", True),
    ("repro.relational.hash_join:HashJoinTable", "probe",
     "relational.hash_join", True),
    ("repro.relational.hash_join:HashJoinTable", "semi_mask",
     "relational.hash_join", True),
    ("repro.expr.eval", "evaluate", "expr.evaluate", False),
    ("repro.relational.executor", "evaluate", "expr.evaluate", False),
    ("repro.lolepop.scan_op", "evaluate", "expr.evaluate", False),
    ("repro.lolepop.window_op", "evaluate", "expr.evaluate", False),
    ("repro.storage.table:Table", "insert_arrays", "storage.insert", True),
]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def self_times(
    durations: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Self time of every span: its duration minus its children's.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``. Spans of
    one thread nest strictly, so the time the children of a span cover is
    the sum of their durations.
    """
    nested = parents >= 0
    covered = np.bincount(
        parents[nested], weights=durations[nested], minlength=len(durations)
    )
    return durations - covered


class Tracer:
    """Records spans around the patched calls and per-op observations."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: One ``[name id, start, end, parent, op, kind]`` per span.
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []
        self.op = -1
        self.kind = "read"
        #: Client-side seconds of each op, by kind.
        self.op_seconds: Dict[str, float] = {"read": 0.0, "write": 0.0}
        self.op_counts: Dict[str, int] = {"read": 0, "write": 0}
        #: Observations of executed queries (read ops only).
        self.serial_s = 0.0
        self.spill_bytes = 0
        self.batches = 0
        self.operator_s: Dict[str, float] = {}

    # -- ops --------------------------------------------------------------
    def begin_op(self, index: int, kind: str) -> None:
        self.op = index
        self.kind = kind

    def end_op(self, elapsed: float) -> None:
        self.op_seconds[self.kind] += elapsed
        self.op_counts[self.kind] += 1

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, name: str, fn: Callable, reentrant: bool) -> Callable:
        name_id = self._name_id(name)
        spans = self.spans
        lock = self._lock

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not reentrant and stack and spans[stack[-1]][0] == name_id:
                return fn(*args, **kwargs)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op, self.kind]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _observe_run(self, fn: Callable) -> Callable:
        """Wrap ``LolepopEngine.run``: every real execution (a result-cache
        hit never reaches it) adds its serial work, spill and per-operator
        profile times."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.kind == "read":
                self.serial_s += result.serial_time
                self.spill_bytes += (result.spill or {}).get("bytes_written", 0)
                if result.profile is not None:
                    for _, _, name, _, stats in result.profile.operator_stats():
                        self.operator_s[name] = (
                            self.operator_s.get(name, 0.0) + stats.wall_time
                        )
            return result

        return wrapper

    def _count_batches(self, fn: Callable) -> Callable:
        def wrapper(batch, *args, **kwargs):
            if self.kind == "read":
                self.batches += 1
            return fn(batch, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, replacement: Callable) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for target, attribute, name, reentrant in SPAN_PATCHES:
            owner = _resolve(target)
            original = getattr(owner, attribute)
            self._patch(
                owner, attribute, self.span_wrapper(name, original, reentrant)
            )
        engine = _resolve("repro.lolepop.engine:LolepopEngine")
        self._patch(engine, "run", self._observe_run(engine.run))
        batch = _resolve("repro.storage.batch:Batch")
        self._patch(batch, "__init__", self._count_batches(batch.__init__))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """Every span as columns (names index ``names``)."""
        rows = self.spans
        return {
            "names": np.array(self._names, dtype=object),
            "name": np.array([s[0] for s in rows], dtype=np.int32),
            "start": np.array([s[1] for s in rows], dtype=np.float64),
            "end": np.array([s[2] for s in rows], dtype=np.float64),
            "parent": np.array([s[3] for s in rows], dtype=np.int64),
            "op": np.array([s[4] for s in rows], dtype=np.int64),
            "write": np.array([s[5] == "write" for s in rows], dtype=bool),
        }

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name and op kind: ``calls``, ``self_s``, ``inclusive_s``;
        plus ``("top", kind)`` seconds covered by spans without a parent."""
        cols = self.arrays()
        durations = cols["end"] - cols["start"]
        own = self_times(durations, cols["parent"])
        out: Dict[str, Dict[str, float]] = {}
        for kind, mask in (("read", ~cols["write"]), ("write", cols["write"])):
            names = cols["name"][mask]
            for name_id, name in enumerate(cols["names"]):
                pick = names == name_id
                out[f"{name}|{kind}"] = {
                    "calls": float(pick.sum()),
                    "self_s": float(own[mask][pick].sum()),
                    "inclusive_s": float(durations[mask][pick].sum()),
                }
            top = mask & (cols["parent"] < 0)
            out[f"top|{kind}"] = {"inclusive_s": float(durations[top].sum())}
        return out

    def dump(self, path: str) -> None:
        np.savez(path, **self.arrays())

