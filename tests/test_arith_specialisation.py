"""Type-specialised arithmetic is exact.

Both engines pick plain ``+`` / ``-`` over the date/interval helpers from
one static-type decision (``expression.statically_numeric``).  A seeded
corpus of ``+ - *`` expressions over INT, DOUBLE, DECIMAL, DATE and
DATETIME columns, interval literals and NULLs must give the same value
and the same Python type under the row and the batch engine, or raise
the same exception class in both — and the same outcome as with every
``+`` / ``-`` routed through the helpers; the generated batch code must
inline numeric arithmetic and keep the helpers exactly where a date or
an interval can appear.
"""

import datetime
import random

import pytest

from repro import Database
from repro.catalog import Column, Index, TableSchema
from repro.executor import batch as batch_compiler
from repro.executor import expression
from repro.executor.plan import walk_plan_nodes
from repro.mysql_types import MySQLType
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

SEED = 20221

COLUMNS = ("i", "j", "x", "q", "d", "e", "ts")
LITERALS = ("7", "-2", "2.5", "0", "NULL", "DATE '2021-03-31'",
            "INTERVAL '1' MONTH", "INTERVAL 3 DAY")
OPS = ("+", "-", "*")

#: Shapes the corpus must contain whatever the seed draws.
PINNED = [
    "d - e",                      # date - date: days between
    "ts - d",                     # datetime - date
    "d + 3", "d - 3", "3 + d",    # date +/- int (and the int + date error)
    "d + INTERVAL '1' MONTH", "d - INTERVAL 3 DAY",
    "ts + INTERVAL '1' MONTH", "ts - INTERVAL 3 DAY",
    "i - d",                      # int - date: TypeError in both
    "i + INTERVAL 3 DAY",         # interval without a date
    "x - INTERVAL '1' MONTH",
    "i + j", "i - j", "x - i * 2", "q + x", "-i + q", "i * NULL",
    "(i - j) * (x + q)", "CAST(x AS SIGNED) - i",
    # Function results are "may be temporal": these must keep the helper.
    "COALESCE(d, e) + 3", "COALESCE(d, e) - INTERVAL 3 DAY",
    "GREATEST(d, e) - e", "CAST(ts AS DATE) - d", "ABS(i) - j",
]


def _rows(rng):
    rows = []
    for k in range(60):
        def maybe(value):
            return None if rng.random() < 0.2 else value
        day = datetime.date(2020, 1, 1) + datetime.timedelta(
            days=rng.randrange(800))
        if rng.random() < 0.2:  # month ends exercise interval clamping
            day = datetime.date(2020, rng.choice((1, 3, 5, 8)), 31)
        rows.append((
            k,
            maybe(rng.randrange(-50, 50)),
            maybe(rng.randrange(100)),
            maybe(rng.uniform(-100, 100)),
            maybe(round(rng.uniform(0, 1000), 2)),
            maybe(day),
            maybe(datetime.date(2019, 6, 1)
                  + datetime.timedelta(days=rng.randrange(900))),
            maybe(datetime.datetime(2020, 1, 31, 12)
                  + datetime.timedelta(hours=rng.randrange(20000))),
        ))
    return rows


@pytest.fixture(scope="module")
def db():
    rng = random.Random(SEED)
    database = Database()
    database.create_table(TableSchema("t", [
        Column.of("k", MySQLType.LONG, nullable=False),
        Column.of("i", MySQLType.LONG),
        Column.of("j", MySQLType.LONGLONG),
        Column.of("x", MySQLType.DOUBLE),
        Column.of("q", MySQLType.DECIMAL),
        Column.of("d", MySQLType.DATE),
        Column.of("e", MySQLType.DATE),
        Column.of("ts", MySQLType.DATETIME),
    ], [Index("PRIMARY", ("k",), primary=True)]))
    database.load("t", _rows(rng))
    database.analyze()
    return database


def _operand(rng, depth):
    if depth and rng.random() < 0.45:
        left = _operand(rng, depth - 1)
        right = _operand(rng, depth - 1)
        return f"({left} {rng.choice(OPS)} {right})"
    if rng.random() < 0.6:
        return rng.choice(COLUMNS)
    return rng.choice(LITERALS)


def corpus():
    rng = random.Random(SEED)
    drawn = []
    while len(drawn) < 160:
        expr = f"{_operand(rng, 2)} {rng.choice(OPS)} {_operand(rng, 2)}"
        if any(column in expr for column in COLUMNS):  # not all literal
            drawn.append(expr)
    return PINNED + drawn


def _outcome(db, sql, mode):
    try:
        result = db.run(sql, executor_mode=mode, use_plan_cache=False)
    except Exception as exc:  # the class is what is compared
        cause = exc.__cause__
        return ("raise", type(exc),
                type(cause) if cause is not None else None)
    assert result.executor_mode == mode
    return ("rows", [(value, type(value)) for row in result.rows
                     for value in row])


def test_corpus_is_seeded_and_covers_every_shape():
    exprs = corpus()
    assert exprs == corpus()
    assert len(exprs) == len(PINNED) + 160


@pytest.mark.parametrize("expr", corpus())
def test_row_and_batch_agree_with_the_helpers(db, expr, monkeypatch):
    """Both engines agree, and agree with the same statement compiled
    with every ``+`` / ``-`` through the date-aware helpers — the
    semantics specialisation must preserve."""
    sql = f"SELECT k, {expr} FROM t ORDER BY k"
    row = _outcome(db, sql, "row")
    batch = _outcome(db, sql, "batch")
    for module in (expression, batch_compiler):
        monkeypatch.setattr(module, "numeric_arithmetic", lambda e: False)
    assert row == batch == _outcome(db, sql, "row") \
        == _outcome(db, sql, "batch")


def test_error_cases_raise_in_both_engines(db):
    for expr in ("i - d", "3 + d", "i + INTERVAL 3 DAY",
                 "x - INTERVAL '1' MONTH"):
        sql = f"SELECT {expr} FROM t"
        row = _outcome(db, sql, "row")
        assert row[0] == "raise", expr
        assert row == _outcome(db, sql, "batch"), expr


def test_date_shapes_keep_their_semantics(db):
    rows = db.run("SELECT d, e, d - e, d + 3, d + INTERVAL '1' MONTH "
                  "FROM t WHERE d IS NOT NULL AND e IS NOT NULL",
                  executor_mode="batch").rows
    assert rows
    for d, e, days, plus3, plus_month in rows:
        assert days == (d - e).days and type(days) is int
        assert plus3 == d + datetime.timedelta(days=3)
        assert plus_month.day <= d.day and plus_month > d


def _batch_sources(db, sql):
    executor = db._compile(sql, "auto")[0]
    executor.ensure_batch_lowered()
    fns = [executor.top_plan.bx_select]
    for node in walk_plan_nodes(executor.top_plan):
        for name, value in vars(node).items():
            if name.startswith("bx_") and value is not None \
                    and not isinstance(value, bool):
                fns.extend(value if isinstance(value, list) else [value])
    return [fn._batch_source for fn in fns if fn is not None]


@pytest.fixture(scope="module")
def tpch():
    database = Database()
    load_tpch(database, scale=0.01)
    return database


def test_q1_generated_code_calls_no_arithmetic_helper(tpch):
    sources = _batch_sources(tpch, TPCH_QUERIES[1])
    assert any(" - " in source and " * " in source for source in sources)
    assert not any("_arith_" in source for source in sources)


@pytest.mark.parametrize("expr", [
    "l_shipdate - INTERVAL '3' DAY",
    "l_shipdate + INTERVAL '1' MONTH",
    "l_receiptdate - l_shipdate",
    "l_shipdate + 1",
])
def test_date_shapes_keep_the_helper(tpch, expr):
    sources = _batch_sources(tpch, f"SELECT {expr} FROM lineitem")
    assert any("_arith_" in source for source in sources)


def test_derived_columns_keep_the_helper(tpch):
    # A materialised derived table's column type is inferred, not
    # declared: the arithmetic over it may not be specialised.
    sql = ("SELECT t.v + 1 FROM "
           "(SELECT MAX(l_quantity) AS v FROM lineitem) t")
    sources = _batch_sources(tpch, sql)
    assert any("_arith_add" in source for source in sources)
