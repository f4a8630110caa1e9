"""Tests for expression evaluation: vectorized and row-at-a-time must agree
(the row evaluator is the differential oracle's foundation)."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindError
from repro.expr import BinaryOp, CaseExpr, Cast, ColumnRef, FuncCall, InList, IsNull, UnaryOp, col, evaluate, evaluate_row, infer_dtype, lit, columns_referenced
from repro.storage import Batch
from repro.types import DataType, Schema

SCHEMA = Schema.of(
    ("a", "int64"), ("b", "float64"), ("s", "string"), ("d", "date"), ("f", "bool")
)


def make_batch(rows):
    data = {name: [] for name in SCHEMA.names()}
    for row in rows:
        for name in SCHEMA.names():
            data[name].append(row.get(name))
    return Batch.from_pydict(SCHEMA, data)


def both_ways(expr, rows):
    """Evaluate vectorized and per-row; assert agreement; return values."""
    batch = make_batch(rows)
    vector = evaluate(expr, batch).to_pylist()
    scalar = [evaluate_row(expr, row) for row in rows]

    def norm(v):
        return round(v, 9) if isinstance(v, float) else v

    assert [norm(v) for v in vector] == [norm(v) for v in scalar]
    return vector


ROWS = [
    {"a": 3, "b": 1.5, "s": "xy", "d": datetime.date(1995, 1, 2), "f": True},
    {"a": None, "b": -2.0, "s": "zz", "d": datetime.date(1995, 1, 3), "f": False},
    {"a": 0, "b": None, "s": "a%b", "d": None, "f": None},
]


class TestArithmetic:
    def test_add_nulls_propagate(self):
        assert both_ways(col("a") + col("b"), ROWS) == [4.5, None, None]

    def test_division_always_float(self):
        values = both_ways(col("a") / lit(2), ROWS)
        assert values == [1.5, None, 0.0]

    def test_division_by_zero_is_null(self):
        assert both_ways(col("a") / lit(0), ROWS) == [None, None, None]

    def test_modulo(self):
        assert both_ways(BinaryOp("%", col("a"), lit(2)), ROWS) == [1, None, 0]

    def test_modulo_by_zero_is_null(self):
        assert both_ways(BinaryOp("%", col("a"), lit(0)), ROWS)[0] is None

    def test_unary_minus(self):
        assert both_ways(UnaryOp("-", col("b")), ROWS) == [-1.5, 2.0, None]

    def test_date_minus_int_is_date(self):
        expr = BinaryOp("-", col("d"), lit(1))
        assert infer_dtype(expr, SCHEMA) is DataType.DATE
        assert both_ways(expr, ROWS)[0] == datetime.date(1995, 1, 1)

    def test_date_minus_date_is_days(self):
        expr = BinaryOp("-", col("d"), col("d"))
        assert infer_dtype(expr, SCHEMA) is DataType.INT64
        assert both_ways(expr, ROWS)[0] == 0


class TestComparisons:
    def test_ordering(self):
        assert both_ways(BinaryOp("<", col("a"), lit(1)), ROWS) == [False, None, True]

    def test_string_equality(self):
        assert both_ways(BinaryOp("=", col("s"), lit("zz")), ROWS) == [
            False, True, False,
        ]

    def test_like(self):
        expr = BinaryOp("like", col("s"), lit("a%"))
        assert both_ways(expr, ROWS) == [False, False, True]

    def test_like_underscore(self):
        expr = BinaryOp("like", col("s"), lit("_y"))
        assert both_ways(expr, ROWS)[0] is True

    def test_like_pattern_cache_is_bounded(self):
        from repro.expr.eval import _like_regex

        for i in range(2000):
            assert _like_regex(f"p{i}_%").match(f"p{i}x-tail")
            assert not _like_regex(f"p{i}_%").match(f"q{i}x")
        assert _like_regex.cache_info().currsize <= 256
        # Patterns evicted long ago still compile and match correctly.
        assert _like_regex("p0_%").match("p0xy")
        assert not _like_regex("p0_%").match("p0")
        expr = BinaryOp("like", col("s"), lit("a%"))
        assert both_ways(expr, ROWS) == [False, False, True]


class TestLogic:
    def test_kleene_and(self):
        # Row 3: f is NULL, IsNull(a)=FALSE -> NULL AND FALSE = FALSE.
        expr = BinaryOp("and", col("f"), IsNull(col("a")))
        assert both_ways(expr, ROWS) == [False, False, False]

    def test_kleene_and_null_survives(self):
        # TRUE AND NULL = NULL (row 1: f=TRUE, f2 references f of row 3).
        expr = BinaryOp("and", lit(True), col("f"))
        assert both_ways(expr, ROWS) == [True, False, None]

    def test_kleene_or(self):
        # Row 3: NULL OR FALSE = NULL; row 2: a IS NULL -> TRUE dominates.
        expr = BinaryOp("or", col("f"), IsNull(col("a")))
        assert both_ways(expr, ROWS) == [True, True, None]

    def test_not_propagates_null(self):
        assert both_ways(UnaryOp("not", col("f")), ROWS) == [False, True, None]


class TestConstructs:
    def test_is_null(self):
        assert both_ways(IsNull(col("a")), ROWS) == [False, True, False]
        assert both_ways(IsNull(col("a"), negated=True), ROWS) == [True, False, True]

    def test_in_list(self):
        expr = InList(col("a"), [lit(0), lit(3)])
        assert both_ways(expr, ROWS) == [True, None, True]

    def test_not_in_list(self):
        expr = InList(col("a"), [lit(0)], negated=True)
        assert both_ways(expr, ROWS) == [True, None, False]

    def test_case(self):
        expr = CaseExpr(
            [(BinaryOp(">", col("a"), lit(1)), lit("big"))], lit("small")
        )
        assert both_ways(expr, ROWS) == ["big", "small", "small"]

    def test_case_no_default_yields_null(self):
        expr = CaseExpr([(BinaryOp(">", col("a"), lit(100)), lit(1))], None)
        assert both_ways(expr, ROWS) == [None, None, None]

    def test_cast(self):
        expr = Cast(col("a"), DataType.FLOAT64)
        assert both_ways(expr, ROWS) == [3.0, None, 0.0]

    def test_nullif(self):
        expr = FuncCall("nullif", [col("a"), lit(0)])
        assert both_ways(expr, ROWS) == [3, None, None]

    def test_coalesce(self):
        expr = FuncCall("coalesce", [col("a"), lit(-1)])
        assert both_ways(expr, ROWS) == [3, -1, 0]

    def test_scalar_functions(self):
        assert both_ways(FuncCall("abs", [col("b")]), ROWS) == [1.5, 2.0, None]
        assert both_ways(FuncCall("power", [col("b"), lit(2)]), ROWS) == [
            2.25, 4.0, None,
        ]
        assert both_ways(FuncCall("length", [col("s")]), ROWS) == [2, 2, 3]
        assert both_ways(FuncCall("year", [col("d")]), ROWS) == [1995, 1995, None]

    def test_unknown_function(self):
        with pytest.raises(BindError):
            evaluate(FuncCall("frobnicate", [col("a")]), make_batch(ROWS))

    def test_arity_check(self):
        with pytest.raises(BindError):
            evaluate(FuncCall("abs", [col("a"), col("b")]), make_batch(ROWS))


class TestIntrospection:
    def test_columns_referenced(self):
        expr = CaseExpr(
            [(BinaryOp("=", col("a"), lit(1)), col("b"))], FuncCall("abs", [col("d")])
        )
        assert columns_referenced(expr) == {"a", "b", "d"}

    def test_infer_types(self):
        assert infer_dtype(col("a") + col("a"), SCHEMA) is DataType.INT64
        assert infer_dtype(col("a") + col("b"), SCHEMA) is DataType.FLOAT64
        assert infer_dtype(BinaryOp("=", col("a"), lit(1)), SCHEMA) is DataType.BOOL
        assert infer_dtype(FuncCall("sqrt", [col("a")]), SCHEMA) is DataType.FLOAT64

    def test_structural_equality(self):
        assert (col("a") + lit(1)) == (col("a") + lit(1))
        assert (col("a") + lit(1)) != (col("a") + lit(2))
        assert hash(col("x")) == hash(ColumnRef("X"))  # case-folded


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-100, 100), st.none()),
            st.one_of(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                st.none(),
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_vector_scalar_agreement_property(pairs):
    """Property: both evaluators agree on a compound expression over random
    nullable data."""
    rows = [
        {"a": a, "b": b, "s": "t", "d": datetime.date(2000, 1, 1), "f": True}
        for a, b in pairs
    ]
    expr = FuncCall(
        "coalesce",
        [
            (col("a") + col("b")) / lit(3),
            FuncCall("abs", [col("b")]),
            Cast(col("a"), DataType.FLOAT64),
            lit(0.0),
        ],
    )
    both_ways(expr, rows)
