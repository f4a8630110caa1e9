"""The benchmark's four workloads.

Each is closed-loop with one client: the caller issues an op and waits for
its reply before the next. A run executes a fixed number of ops, derived
from ``--seconds`` alone, never from the clock, so a faster program does
the same work in less time. The seed drives the data, the statement
choice and the literals. See README.md for why each workload exists.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional

import numpy as np

from repro import Database, QueryService, ServiceConfig
from repro.bench.corpora import CORPORA
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import Telemetry, TelemetryConfig
from repro.tpch import LINEITEM_SCHEMA, generate_tpch, populate_database

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _service(db: Database) -> QueryService:
    """The service every service-path workload drives: one admission slot,
    so the service worker and the client never run at the same time; no
    health-sampler thread; a private metrics registry so one workload's
    counters do not leak into the next."""
    return QueryService(
        db,
        ServiceConfig(max_concurrent=1, health_interval_s=0),
        registry=MetricsRegistry(),
    )


def _oracle_db() -> Database:
    """A database for reference answers only: it shares no cache or
    telemetry with the database under test."""
    return Database(plan_cache_size=0, telemetry=Telemetry(TelemetryConfig(enabled=False)))


def _order_key(row) -> tuple:
    coarse = tuple(
        (v is None, f"{v:.6g}" if isinstance(v, float) else str(v)) for v in row
    )
    return coarse, repr(row)


def answers_match(got: List[tuple], want: List[tuple]) -> bool:
    """Whether two answers hold the same rows, in any order, with floats
    equal up to summation order (relative 1e-8, absolute 1e-9).

    Engines add in different orders, so a sum can differ in its last
    digits; rounding both sides first (as ``canonical_rows`` does) still
    disagrees when the exact value sits on a rounding boundary."""
    if len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=_order_key), sorted(want, key=_order_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not (x == y or math.isclose(x, y, rel_tol=1e-8, abs_tol=1e-9)
                        or (math.isnan(x) and math.isnan(y))):
                    return False
            elif x != y:
                return False
    return True


def _service_counters(service: Optional[QueryService]) -> Dict[str, float]:
    if service is None:
        return {}
    stats = service.stats()
    wait = stats["service"].get("queue_wait_seconds") or {}
    out = {
        "plan_hits": stats["plan_cache"]["hits"],
        "plan_misses": stats["plan_cache"]["misses"],
        "result_hits": stats["result_cache"]["hits"],
        "result_misses": stats["result_cache"]["misses"],
        "queue_wait_s": wait.get("sum", 0.0),
    }
    if "reuse" in stats:
        out.update(
            reuse_hits=stats["reuse"]["hits"],
            reuse_misses=stats["reuse"]["misses"],
            maintenance_s=stats["reuse"]["maintenance_s"],
            resident_bytes=stats["reuse"]["resident_bytes"],
        )
    return out


class Workload:
    """Shared shape; see :mod:`core` for the protocol."""

    name = ""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        #: Set by the traced run before ``setup``.
        self.collect_metrics = False
        self.service: Optional[QueryService] = None
        self.db: Optional[Database] = None

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def shape(self) -> Dict[str, object]:
        """Scales and op counts, printed with the results."""
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters from the program's public stats."""
        return _service_counters(self.service)


# ----------------------------------------------------------------------
# serve_cached
# ----------------------------------------------------------------------
_DASHBOARD_TEMPLATES = [
    "SELECT l_returnflag, sum(l_quantity), count(*) FROM lineitem "
    "WHERE l_shipdate < date '{date}' GROUP BY l_returnflag",
    "SELECT l_shipmode, avg(l_extendedprice), count(*) FROM lineitem "
    "WHERE l_discount >= {disc} GROUP BY l_shipmode",
    "SELECT l_linestatus, max(l_extendedprice), min(l_quantity) FROM lineitem "
    "WHERE l_suppkey < {supp} GROUP BY l_linestatus",
    "SELECT l_linenumber, sum(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_quantity > {qty} GROUP BY l_linenumber",
    "SELECT l_shipmode, median(l_quantity) FROM lineitem "
    "WHERE l_suppkey BETWEEN {lo} AND {hi} GROUP BY l_shipmode",
    "SELECT l_returnflag, l_linestatus, sum(l_tax) FROM lineitem "
    "WHERE l_partkey < {part} GROUP BY l_returnflag, l_linestatus",
]


def _dashboard_literals(rng: np.random.Generator) -> Dict[str, str]:
    day = int(rng.integers(1, 29))
    month = int(rng.integers(1, 13))
    year = int(rng.integers(1993, 1998))
    lo = int(rng.integers(1, 40))
    return {
        "date": f"{year}-{month:02d}-{day:02d}",
        "disc": f"0.0{int(rng.integers(0, 10))}",
        "supp": str(int(rng.integers(5, 50))),
        "qty": str(int(rng.integers(1, 50))),
        "lo": str(lo),
        "hi": str(lo + int(rng.integers(5, 40))),
        "part": str(int(rng.integers(50, 1000))),
    }


class ServeCached(Workload):
    """A dashboard re-issuing a fixed statement set; every timed op is a
    result-cache hit."""

    name = "serve_cached"
    scale = 0.005
    statements = 16
    #: Statement texts stay in one length band: normalizing a statement
    #: costs time in proportion to its length, so a mix of short and long
    #: texts would split p50 and p90 across cost classes.
    length_band = (100, 119)
    ops_per_second = 8000

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        rng = self.rng(1)
        chosen: List[str] = []
        while len(chosen) < self.statements:
            template = _DASHBOARD_TEMPLATES[len(chosen) % len(_DASHBOARD_TEMPLATES)]
            sql = template.format(**_dashboard_literals(rng))
            low, high = self.length_band
            if low <= len(sql) <= high and sql not in chosen:
                chosen.append(sql)
        self.sql = chosen
        count = max(200, self.ops_per_second * seconds)
        self.sequence = self.rng(2).integers(0, len(chosen), count)

    def shape(self):
        return {
            "tpch_sf": self.scale,
            "statements": len(self.sql),
            "statement_chars": [min(map(len, self.sql)), max(map(len, self.sql))],
            "ops": len(self.sequence),
        }

    def setup(self) -> None:
        self.close()
        self.db = Database()
        populate_database(self.db, self.scale, self.seed, tables=["lineitem"])
        self.service = _service(self.db)
        self.session = self.service.session()
        for _ in range(2):
            for sql in self.sql:
                self.session.execute(sql)

    def prepare_check(self) -> None:
        config = self.session.engine_config()
        self.expected = [
            self.db.sql(sql, config=config).rows() for sql in self.sql
        ]
        #: id(result) -> (result, verdict per statement index): a cache hit
        #: hands back the same object, so each object is compared once.
        self._seen: Dict[int, tuple] = {}

    def ops(self):
        execute = self.session.execute
        return [
            ("read", functools.partial(execute, self.sql[i])) for i in self.sequence
        ]

    def check(self, index: int, answer) -> bool:
        which = int(self.sequence[index])
        seen = self._seen.get(id(answer))
        if seen is None:
            seen = self._seen[id(answer)] = (answer, {})
        verdicts = seen[1]
        if which not in verdicts:
            verdicts[which] = answers_match(answer.rows(), self.expected[which])
        return verdicts[which]


# ----------------------------------------------------------------------
# adhoc_small
# ----------------------------------------------------------------------
_CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
_REGIONS = ["north", "south", "east", "west"]

_ADHOC_TEMPLATES = [
    "SELECT cat, sum(x), count(*) FROM events WHERE y < {y} GROUP BY cat",
    "SELECT k, avg(x), max(y) FROM events WHERE x BETWEEN {x0} AND {x1} GROUP BY k",
    "SELECT cat, median(x) FROM events WHERE y >= {y} GROUP BY cat",
    "SELECT id, y, x FROM events WHERE y > {y} ORDER BY x DESC, id LIMIT {limit}",
    "SELECT k, cat, min(x), count(*) FROM events WHERE y < {y} GROUP BY k, cat",
    "SELECT count(*), sum(x) FROM events WHERE cat = '{cat}' AND y < {y}",
    "SELECT id, rank() OVER (PARTITION BY cat ORDER BY x, id) AS r FROM events "
    "WHERE y < {y}",
    "SELECT cat, percentile_disc(0.9) WITHIN GROUP (ORDER BY x) FROM events "
    "WHERE y < {y} GROUP BY cat",
    "SELECT region, sum(x), count(*) FROM events JOIN cats ON events.cat = cats.c "
    "WHERE y < {y} GROUP BY region",
]


class AdhocSmall(Workload):
    """Every op is a new statement over small tables, literals inlined as a
    BI filter widget writes them: both caches miss on every op."""

    name = "adhoc_small"
    rows = 600
    ops_per_second = 250
    warmup_statements = 30

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        count = max(200, self.ops_per_second * seconds)
        seen = set()
        self.warmup = self._statements(self.rng(3), self.warmup_statements, seen)
        self.sql = self._statements(self.rng(4), count, seen)

    def _statements(self, rng, count: int, seen: set) -> List[str]:
        """``count`` new statements, the templates in equal shares (so
        every seed runs the same cost mix) and in seeded order."""
        out = []
        while len(out) < count:
            template = _ADHOC_TEMPLATES[len(out) % len(_ADHOC_TEMPLATES)]
            x0 = round(float(rng.uniform(0, 500)), 2)
            sql = template.format(
                y=int(rng.integers(0, 100_000)),
                x0=x0,
                x1=round(x0 + float(rng.uniform(50, 500)), 2),
                limit=int(rng.integers(5, 50)),
                cat=_CATEGORIES[int(rng.integers(0, len(_CATEGORIES)))],
            )
            if sql not in seen:
                seen.add(sql)
                out.append(sql)
        return [out[i] for i in rng.permutation(count)]

    def shape(self):
        return {"events_rows": self.rows, "cats_rows": len(_CATEGORIES),
                "ops": len(self.sql)}

    def _load(self, db: Database) -> None:
        rng = self.rng(5)
        n = self.rows
        db.create_table("events", {"id": "int64", "k": "int64", "cat": "string",
                                   "x": "float64", "y": "int64"})
        db.insert("events", {
            "id": np.arange(n, dtype=np.int64),
            "k": rng.integers(0, 20, n),
            "cat": np.array(_CATEGORIES, dtype=object)[rng.integers(0, 8, n)],
            "x": np.round(rng.uniform(0, 1000, n), 2),
            "y": rng.integers(0, 100_000, n),
        })
        db.create_table("cats", {"c": "string", "region": "string"})
        db.insert("cats", {
            "c": np.array(_CATEGORIES, dtype=object),
            "region": np.array(_REGIONS * 2, dtype=object),
        })

    def setup(self) -> None:
        self.close()
        self.db = Database()
        self._load(self.db)
        self.service = _service(self.db)
        self.session = self.service.session()
        for sql in self.warmup:
            self.session.execute(sql)

    def prepare_check(self) -> None:
        self.oracle = _oracle_db()
        self._load(self.oracle)

    def ops(self):
        execute = self.session.execute
        return [("read", functools.partial(execute, sql)) for sql in self.sql]

    def check(self, index: int, answer) -> bool:
        expected = self.oracle.sql(self.sql[index], engine="naive")
        return answers_match(answer.rows(), expected.rows())


# ----------------------------------------------------------------------
# olap_corpus
# ----------------------------------------------------------------------
def _same_batch(left, right) -> bool:
    """Exact equality of two result batches, column by column."""
    if len(left) != len(right) or len(left.columns) != len(right.columns):
        return False
    for a, b in zip(left.columns, right.columns):
        if (a.valid is None) != (b.valid is None):
            return False
        if a.valid is not None and not np.array_equal(a.valid, b.valid):
            return False
        if not np.array_equal(a.values, b.values):
            return False
    return True


class OlapCorpus(Workload):
    """The 43 self-verifying corpus queries through ``Database.sql`` in
    serial simulated mode, in a new seeded order on every pass."""

    name = "olap_corpus"
    scales = {"tpch": 0.01, "star_ds": 0.1, "sensor_edge": 0.1}
    #: One pass takes about this long on the reference host.
    pass_seconds = 1.25

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        self.queries = [
            (corpus, name, sql)
            for corpus in CORPORA
            for name, sql in CORPORA[corpus].queries.items()
        ]
        # At least three passes: p90 needs ten samples beyond it.
        passes = max(3, math.ceil(seconds / self.pass_seconds))
        rng = self.rng(6)
        self.sequence = np.concatenate(
            [rng.permutation(len(self.queries)) for _ in range(passes)]
        )

    def shape(self):
        return {"scales": self.scales, "queries": len(self.queries),
                "passes": len(self.sequence) // len(self.queries),
                "ops": len(self.sequence)}

    def _data_seed(self, corpus: str) -> int:
        return self.seed * 10 + list(CORPORA).index(corpus)

    def _config(self, corpus: str):
        return CORPORA[corpus].config(
            execution_mode="simulated", num_threads=1,
            collect_metrics=self.collect_metrics,
        )

    def setup(self) -> None:
        self.dbs = {
            corpus: CORPORA[corpus].build_database(
                self.scales[corpus], self._data_seed(corpus)
            )
            for corpus in CORPORA
        }
        self.configs = {corpus: self._config(corpus) for corpus in CORPORA}
        self.warm = [
            self.dbs[corpus].sql(sql, config=self.configs[corpus])
            for corpus, _, sql in self.queries
        ]

    def prepare_check(self) -> None:
        # The naive row engine is quadratic on several window queries
        # (t3_q15 alone ran 38 s at TPC-H SF 0.002), so the per-run
        # reference is the columnar baseline engine on a separate database
        # built from the same seed.
        oracles = {
            corpus: CORPORA[corpus].build_database(
                self.scales[corpus], self._data_seed(corpus)
            )
            for corpus in CORPORA
        }
        self.expected = [
            oracles[corpus].sql(sql, engine="columnar").rows()
            for corpus, _, sql in self.queries
        ]
        self.warm_ok = [
            answers_match(result.rows(), expected)
            for result, expected in zip(self.warm, self.expected)
        ]

    def ops(self):
        out = []
        for i in self.sequence:
            corpus, _, sql = self.queries[i]
            out.append(("read", functools.partial(
                self.dbs[corpus].sql, sql, config=self.configs[corpus])))
        return out

    def check(self, index: int, answer) -> bool:
        which = int(self.sequence[index])
        if _same_batch(answer.batch, self.warm[which].batch):
            return self.warm_ok[which]
        return answers_match(answer.rows(), self.expected[which])

    def counters(self):
        hits = misses = 0
        for db in getattr(self, "dbs", {}).values():
            stats = db.plan_cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]
        return {"plan_hits": hits, "plan_misses": misses}


# ----------------------------------------------------------------------
# ingest_refresh
# ----------------------------------------------------------------------
#: (statement, group columns, aggregates as (function, column)).
_REFRESH = [
    ("SELECT l_returnflag, l_linestatus, sum(l_quantity) AS q, "
     "sum(l_extendedprice) AS p, count(*) AS n FROM lineitem "
     "GROUP BY l_returnflag, l_linestatus",
     ("l_returnflag", "l_linestatus"),
     (("sum", "l_quantity"), ("sum", "l_extendedprice"), ("count", None))),
    ("SELECT l_returnflag, sum(l_quantity) AS q, count(*) AS n FROM lineitem "
     "GROUP BY l_returnflag",
     ("l_returnflag",), (("sum", "l_quantity"), ("count", None))),
    ("SELECT l_linestatus, sum(l_extendedprice) AS p FROM lineitem "
     "GROUP BY l_linestatus",
     ("l_linestatus",), (("sum", "l_extendedprice"),)),
    ("SELECT l_shipmode, count(*) AS n, max(l_discount) AS d FROM lineitem "
     "GROUP BY l_shipmode",
     ("l_shipmode",), (("count", None), ("max", "l_discount"))),
    ("SELECT l_shipmode, median(l_quantity) AS m FROM lineitem "
     "GROUP BY l_shipmode",
     ("l_shipmode",), (("median", "l_quantity"),)),
]


def _group_codes(pool, groups):
    """(codes, labels) of the pool rows' group keys, over the whole pool."""
    if len(groups) == 1:
        uniques, codes = np.unique(pool[groups[0]], return_inverse=True)
        return codes, [(u,) for u in uniques]
    joined = np.array(
        ["\x00".join(key) for key in zip(*(pool[g] for g in groups))],
        dtype=object,
    )
    uniques, codes = np.unique(joined, return_inverse=True)
    return codes, [tuple(u.split("\x00")) for u in uniques]


def _expected_rows(pool, n: int, codes, labels, aggregates) -> List[tuple]:
    """The answer of one dashboard statement over the first ``n`` pool
    rows, computed with numpy alone."""
    codes = codes[:n]
    counts = np.bincount(codes, minlength=len(labels))
    rows = []
    for code, label in enumerate(labels):
        if not counts[code]:
            continue
        mask = codes == code
        values = []
        for func, column in aggregates:
            if func == "count":
                values.append(int(counts[code]))
                continue
            data = pool[column][:n][mask]
            values.append(float({"sum": np.sum, "max": np.max,
                                 "median": np.median}[func](data)))
        rows.append(label + tuple(values))
    return rows


class IngestRefresh(Workload):
    """Rounds of one batch insert followed by one dashboard refresh through
    the service, with the materialization manager on."""

    name = "ingest_refresh"
    scale = 0.01
    initial_rows = 20_000
    batch_rows = 25
    rounds_per_second = 15

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        self.rounds = max(100, self.rounds_per_second * seconds)

    def shape(self):
        return {"tpch_sf_pool": self.scale, "initial_rows": self.initial_rows,
                "batch_rows": self.batch_rows, "rounds": self.rounds,
                "statements_per_refresh": len(_REFRESH),
                "ops": 2 * self.rounds}

    def setup(self) -> None:
        self.close()
        lineitem = generate_tpch(self.scale, self.seed)["lineitem"]
        needed = self.initial_rows + self.rounds * self.batch_rows
        if len(lineitem["l_orderkey"]) < needed:
            raise ValueError(f"TPC-H SF {self.scale} holds fewer than {needed} rows")
        self.pool = lineitem
        self.db = Database(reuse=True)
        self.db.create_table("lineitem", LINEITEM_SCHEMA)
        self.db.insert("lineitem", self._slice(0, self.initial_rows))
        self.service = _service(self.db)
        self.session = self.service.session()
        # Two refreshes reach the views' build threshold; the third is
        # served from them.
        for _ in range(3):
            self._refresh()

    def _slice(self, start: int, stop: int) -> Dict[str, np.ndarray]:
        return {name: values[start:stop] for name, values in self.pool.items()}

    def _refresh(self):
        execute = self.session.execute
        return [execute(sql) for sql, _, _ in _REFRESH]

    def _insert(self, round_index: int):
        start = self.initial_rows + round_index * self.batch_rows
        batch = self._slice(start, start + self.batch_rows)
        return lambda: self.db.insert("lineitem", batch)

    def prepare_check(self) -> None:
        self.groupings = [_group_codes(self.pool, g) for _, g, _ in _REFRESH]

    def ops(self):
        out = []
        for r in range(self.rounds):
            out.append(("write", self._insert(r)))
            out.append(("read", self._refresh))
        return out

    def check(self, index: int, answer) -> bool:
        if index % 2 == 0:
            return answer == self.batch_rows
        visible = self.initial_rows + (index // 2 + 1) * self.batch_rows
        return all(
            answers_match(
                result.rows(),
                _expected_rows(self.pool, visible, codes, labels, aggregates),
            )
            for result, (codes, labels), (_, _, aggregates)
            in zip(answer, self.groupings, _REFRESH)
        )


WORKLOADS = {w.name: w for w in (ServeCached, AdhocSmall, OlapCorpus, IngestRefresh)}
