"""One fused, null-aware batch evaluator per operator input list.

The batch compiler lowers an operator's whole expression list — an
aggregate's group keys and arguments, a sort's keys, a join's keys, a
projection — into one generated loop that reads each column slot once
per row and computes a repeated pure subexpression once where its first
evaluation dominates the reuse.  A read skips its NULL guard only when
the plan proves it: a base-table entry read from the batch, not
NULL-extended below the operator, and a column its table declares NOT
NULL.  These tests hold that evaluator to the row interpreter on seeded
NULL-heavy data at batch sizes 1, 7 and 1024, pin the guard a LEFT
join's inner side keeps, and check the fused parallel pre-aggregation
against the serial one bit for bit.
"""

import random

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.errors import ReproError
from repro.executor.batch import BatchExpressionCompiler, RowBatch
from repro.executor.plan import (
    HashJoinNode,
    JoinKind,
    NestedLoopJoinNode,
    walk_plan_nodes,
)
from repro.mysql_types import MySQLType
from repro.sql import ast
from repro.workloads.tpch import load_tpch
from tests.test_executor_equivalence import bits


def _schemas():
    """``p`` and ``c``: NOT NULL keys and measures beside NULL-heavy
    nullable columns."""
    return [
        TableSchema("p", [
            Column.of("id", MySQLType.LONG, nullable=False),
            Column.of("x", MySQLType.LONG, nullable=False),
            Column.of("y", MySQLType.LONG),
            Column.of("f", MySQLType.DOUBLE, nullable=False),
            Column.of("g", MySQLType.DOUBLE),
            Column.of("s", MySQLType.VARCHAR, 4, nullable=False),
        ], [Index("PRIMARY", ("id",), primary=True)]),
        TableSchema("c", [
            Column.of("id", MySQLType.LONG, nullable=False),
            Column.of("pid", MySQLType.LONG, nullable=False),
            Column.of("v", MySQLType.LONG, nullable=False),
            Column.of("w", MySQLType.LONG),
            Column.of("t", MySQLType.VARCHAR, 4, nullable=False),
        ], [Index("PRIMARY", ("id",), primary=True),
            Index("c_pid", ("pid",))]),
    ]


def _rows(seed):
    rng = random.Random(seed)
    parents = [(i, rng.randrange(-3, 9),
                None if rng.random() < 0.6 else rng.randrange(-2, 5),
                round(rng.uniform(-4, 4), 2),
                None if rng.random() < 0.5 else round(rng.uniform(0, 1), 3),
                rng.choice(("ab", "ba", "cc")))
               for i in range(60)]
    # About a third of the parents have no child: the LEFT and ANTI
    # joins below null-extend their NOT NULL child columns.
    children = [(i, rng.randrange(90), rng.randrange(-2, 6),
                 None if rng.random() < 0.7 else rng.randrange(3),
                 rng.choice(("ab", "zz")))
                for i in range(120)]
    return parents, children


def _database(batch_size, seed=11):
    db = Database(DatabaseConfig(batch_size=batch_size,
                                 complex_query_threshold=3))
    parents, children = _rows(seed)
    for schema in _schemas():
        db.create_table(schema)
    db.load("p", parents)
    db.load("c", children)
    db.analyze()
    return db


#: Expression lists that repeat subexpressions at the top level, inside
#: AND / OR / CASE / COALESCE branches and behind a division by zero,
#: over NOT NULL and NULL-heavy columns alike.
QUERIES = [
    "SELECT id, x * (1 - f), x * (1 - f) * (1 + x), x * (1 - f) > 2 "
    "FROM p ORDER BY id",
    "SELECT id, CASE WHEN y > 0 THEN x * 2 ELSE x * 2 + y END, x * 2, "
    "COALESCE(y, x * 2), COALESCE(x * 2, y) FROM p ORDER BY id",
    "SELECT id, (x > 2 AND y / (x - x) > 1) OR x * 3 > 4, x * 3, "
    "y / (x - x), y / (x - x) IS NULL, x / (x - x) FROM p ORDER BY id",
    "SELECT id, g * (1 - g), (g * (1 - g)) * 2, -g, NOT (g > 0.5), "
    "g BETWEEN 0.2 AND 0.8, s LIKE 'a%', y IN (1, 2, NULL), "
    "x IN (1, 2, 3) FROM p ORDER BY id",
    "SELECT s, COUNT(*), SUM(x * (1 - f)), SUM(x * (1 - f) * (1 + x)), "
    "AVG(x), SUM(x), MIN(y), MAX(g), COUNT(y), SUM(y * 2) "
    "FROM p GROUP BY s ORDER BY s",
    "SELECT x, y, COUNT(*), SUM(f) FROM p WHERE x * 2 > y OR y IS NULL "
    "GROUP BY x, y ORDER BY x, y",
    "SELECT id FROM p WHERE x > 0 AND f * x > 1 AND (y IS NULL OR "
    "y * x < f * x) ORDER BY id",
    # A NULL left operand never reads its right one: no batch read.
    "SELECT id, NULL * x, x FROM p ORDER BY id",
    "SELECT NULL * x, x * 1 FROM p WHERE NULL * x IS NULL ORDER BY x",
    # LEFT joins: the child side is NULL-extended, NOT NULL or not.
    "SELECT p.id, c.id, c.v, c.v + 1, c.v * (1 - p.f), COALESCE(c.v, -1), "
    "c.t, c.v IS NULL FROM p LEFT JOIN c ON c.pid = p.id "
    "ORDER BY p.id, c.id",
    "SELECT p.id, c.v FROM p LEFT JOIN c ON c.pid = p.id AND c.v > 2 "
    "WHERE c.v IS NULL OR c.v * 2 > p.x ORDER BY p.id, c.v",
    "SELECT p.s, COUNT(c.id), SUM(c.v), MIN(c.t), SUM(c.v * (1 - p.f)) "
    "FROM p LEFT JOIN c ON c.pid = p.id GROUP BY p.s ORDER BY p.s",
    # ANTI and SEMI joins.
    "SELECT p.id, p.x * 2 FROM p WHERE NOT EXISTS (SELECT 1 FROM c "
    "WHERE c.pid = p.id AND c.v > 1) ORDER BY p.id",
    "SELECT p.id FROM p WHERE NOT EXISTS (SELECT 1 FROM c "
    "WHERE c.pid = p.id AND c.v * 2 > p.x) AND p.x * 2 > 0 ORDER BY p.id",
    "SELECT p.id FROM p WHERE p.id NOT IN (SELECT c.pid FROM c "
    "WHERE c.w IS NOT NULL) ORDER BY p.id",
    "SELECT p.id, p.y FROM p WHERE EXISTS (SELECT 1 FROM c "
    "WHERE c.pid = p.id AND c.v * 2 = p.x * 2) ORDER BY p.id",
    "SELECT c.t, SUM(c.v), COUNT(*) FROM c JOIN p ON p.id = c.pid "
    "WHERE p.x * 2 > c.v GROUP BY c.t ORDER BY c.t",
]


@pytest.fixture(scope="module", params=[1, 7, 1024])
def db(request):
    return _database(request.param)


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("optimizer", ["auto", "mysql", "orca"])
def test_fused_batch_matches_the_row_engine(db, sql, optimizer):
    row = db.run(sql, optimizer=optimizer, executor_mode="row",
                 use_plan_cache=False)
    batch = db.run(sql, optimizer=optimizer, executor_mode="batch",
                   use_plan_cache=False)
    assert bits(batch.rows) == bits(row.rows), sql
    assert [(n.label, n.actual, n.loops)
            for n in batch.plan_quality.nodes] \
        == [(n.label, n.actual, n.loops) for n in row.plan_quality.nodes]


@pytest.mark.parametrize("seed", range(4))
def test_seeded_data_at_every_batch_size(seed):
    sql = QUERIES[7]
    results = [_database(size, seed).run(sql, executor_mode=mode).rows
               for size in (1, 7, 1024) for mode in ("batch", "row")]
    assert all(rows == results[0] for rows in results)


def _random_value(rng, columns, depth):
    """A seeded scalar expression: arithmetic that may divide by zero,
    CASE / COALESCE branches and NULL literals, over ``columns``."""
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(columns) if rng.random() < 0.6 \
            else rng.choice(["NULL", "0", "1", "-1", "0.5", "3"])
    a = _random_value(rng, columns, depth - 1)
    b = _random_value(rng, columns, depth - 1)
    return rng.choice([
        f"({a} {rng.choice(['+', '-', '*', '/', '%'])} {b})",
        f"CASE WHEN {_random_test(rng, columns, depth - 1)} THEN {a} "
        f"ELSE {b} END",
        f"COALESCE({a}, {b})", f"(-{a})", f"ABS({a})",
    ])


def _random_test(rng, columns, depth):
    a = _random_value(rng, columns, depth)
    b = _random_value(rng, columns, depth)
    return rng.choice([
        f"({a} {rng.choice(['=', '<', '>=', '<>'])} {b})",
        f"({a} > 0 AND {a} > {b})", f"({a} < {b} OR {a} IS NULL)",
        f"({a} BETWEEN {b} AND 3)", f"({a} IN (1, 2, NULL))",
        f"NOT ({a} > {b})",
    ])


@pytest.mark.parametrize("seed", range(3))
def test_seeded_random_expression_lists(seed):
    """Random select lists, filters and aggregate arguments, each with a
    subexpression repeated at the top level and inside a COALESCE, over
    a scan, an inner join and LEFT joins: batch equals the row engine
    (or both raise the same error)."""
    rng = random.Random(seed)
    dbs = {size: _database(size, seed) for size in (1, 7, 1024)}
    parent = ["p.x", "p.y", "p.f", "p.g", "p.id"]
    child = ["c.v", "c.w", "c.id"]
    for __ in range(25):
        source, columns = rng.choice([
            ("p", parent),
            ("p JOIN c ON c.pid = p.id", parent + child),
            ("p LEFT JOIN c ON c.pid = p.id", parent + child),
            ("p LEFT JOIN c ON c.pid = p.id AND c.v > 1", parent + child)])
        first = _random_value(rng, columns, 3)
        second = _random_value(rng, columns, 3)
        shared = _random_value(rng, columns, 2)
        repeated = f"({shared}) * 2 + COALESCE({shared}, 0)"
        where = f" WHERE {_random_test(rng, columns, 2)}" \
            if rng.random() < 0.6 else ""
        if rng.random() < 0.3:
            sql = (f"SELECT COUNT(*), SUM({first}), MIN({second}), "
                   f"MAX({repeated}), SUM({shared}) FROM {source}{where}")
        else:
            sql = (f"SELECT p.id, {first}, {second}, {repeated} "
                   f"FROM {source}{where} ORDER BY 1, 2, 3, 4")
        db = dbs[rng.choice((1, 7, 1024))]
        optimizer = rng.choice(("mysql", "orca"))
        outcomes = []
        for mode in ("row", "batch"):
            try:
                outcomes.append(db.run(sql, optimizer=optimizer,
                                       executor_mode=mode,
                                       use_plan_cache=False).rows)
            except ReproError as error:
                outcomes.append(type(error))
        row, batch = outcomes
        if isinstance(row, list) and isinstance(batch, list):
            assert bits(batch) == bits(row), sql
        else:
            assert batch == row, sql


# -- the generated code -------------------------------------------------------------

def _lowered(db, sql):
    executor = db._compile(sql, "mysql")[0]
    executor.ensure_batch_lowered()
    return executor


def test_left_join_inner_not_null_column_keeps_its_guard():
    db = _database(1024)
    executor = _lowered(db, "SELECT p.x, c.v FROM p LEFT JOIN c "
                            "ON c.pid = p.id")
    (join,) = [node for node in walk_plan_nodes(executor.top_plan)
               if isinstance(node, (NestedLoopJoinNode, HashJoinNode))]
    assert join.kind is JoinKind.LEFT
    inner = join.inner if isinstance(join, NestedLoopJoinNode) \
        else join.build
    (child,) = inner.produced_entries()
    (parent,) = [entry for entry in join.produced_entries()
                 if entry != child]
    source = executor.top_plan.bx_select._batch_source
    # c.v (position 2) is NOT NULL, but the LEFT join pads it with NULL
    # rows: its read stays guarded.  p.x (position 1) is read bare.
    assert f"_r{child}[2] if _r{child} is not None else None" in source
    assert f"_r{parent}[1] for" in source or \
        f"= _r{parent}[1]\n" in source
    assert executor.top_plan.bx_select.nonnull == (True, False)


def test_inner_join_reads_not_null_columns_bare():
    db = _database(1024)
    executor = _lowered(db, "SELECT p.x + c.v, p.y + c.v FROM p "
                            "JOIN c ON c.pid = p.id")
    source = executor.top_plan.bx_select._batch_source
    assert "is not None else None" in source  # p.y is nullable
    assert executor.top_plan.bx_select.nonnull == (True, False)


def _column(entry, position):
    return ast.ColumnRef("t", f"c{position}", entry, position)


def test_shared_subexpression_is_computed_once_per_row():
    # x * (1 - f) twice, over proven columns: one multiplication.
    product = ast.BinaryExpr(
        ast.BinOp.MUL, _column(0, 0),
        ast.BinaryExpr(ast.BinOp.SUB, ast.Literal(1), _column(0, 1)))
    again = ast.BinaryExpr(
        ast.BinOp.MUL, _column(0, 0),
        ast.BinaryExpr(ast.BinOp.SUB, ast.Literal(1), _column(0, 1)))
    fn = BatchExpressionCompiler().compile_columns(
        [product, ast.BinaryExpr(ast.BinOp.ADD, again, _column(0, 0))],
        frozenset({0}), nonnull={0: frozenset({0, 1})})
    assert fn._batch_source.count(" * ") == 1
    assert fn._batch_source.count("_r0[0]") == 1
    assert fn(RowBatch({0: [(2, 0.5), (3, 2)]}, 2)) \
        == [[1.0, -3], [3.0, 0]]


def test_branch_evaluations_are_not_shared():
    # x / y under COALESCE's second argument runs only for NULL y; the
    # top-level x / y after it must not reuse it.
    quotient = ast.BinaryExpr(ast.BinOp.DIV, _column(0, 0), _column(0, 1))
    fn = BatchExpressionCompiler().compile_columns(
        [ast.FuncCall("COALESCE", [_column(0, 1), quotient]),
         ast.BinaryExpr(ast.BinOp.DIV, _column(0, 0), _column(0, 1))],
        frozenset({0}))
    assert fn._batch_source.count(" / ") == 2
    assert fn(RowBatch({0: [(4, 2), (4, None), (4, 0), None]}, 4)) \
        == [[2, None, 0, None], [2.0, None, None, None]]


def test_filter_masks_are_strict():
    compiler = BatchExpressionCompiler()
    greater = ast.BinaryExpr(ast.BinOp.GT, _column(0, 0), ast.Literal(1))
    for nonnull in ({}, {0: frozenset({0})}):
        fn = compiler.compile_filter([greater], frozenset({0}),
                                     nonnull=nonnull)
        rows = [(0,), (2,)] if nonnull else [(0,), (2,), (None,), None]
        mask = fn(RowBatch({0: rows}, len(rows)))
        assert all(value is True or value is False for value in mask)
        assert mask == [False, True] + [False] * (len(rows) - 2)


# -- the parallel pre-aggregation -------------------------------------------------------

Q1_SHAPED = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
    "SUM(l_extendedprice), SUM(l_extendedprice * (1 - l_discount)), "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), "
    "AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus")


@pytest.mark.usefixtures("force_fanout")
def test_q1_shaped_hash_aggregate_fans_out_bit_identically():
    db = Database(DatabaseConfig(batch_size=64))
    load_tpch(db, scale=0.02)
    # Orca plans Q1's aggregate as a hash aggregate over the scan, the
    # shape the parallel pre-aggregation takes.
    serial = db.run(Q1_SHAPED, optimizer="orca", use_plan_cache=False)
    fanned = db.run(Q1_SHAPED, optimizer="orca", use_plan_cache=False,
                    executor_workers=2)
    assert "Group aggregate (hash)" in "\n".join(
        node.label for node in fanned.plan_quality.nodes)
    assert db.metrics.count("executor.parallel_fanout") >= 1
    assert fanned.rows == serial.rows
    assert [type(value) for row in fanned.rows for value in row] \
        == [type(value) for row in serial.rows for value in row]
