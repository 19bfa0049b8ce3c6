"""Scalar functions' NULL behaviour, pinned against SQLite.

Each scalar function declares whether it is NULL-strict (any NULL
argument makes the result NULL); the row interpreter and the batch
compiler both read that flag.  Here every function, with a NULL in each
argument position in turn — as a literal and as a NULL read from a
column — must be NULL exactly when SQLite's counterpart is, in both
engines.  NULLIF is the one lenient function: ``NULLIF(a, NULL)`` is
``a``.
"""

import datetime
import sqlite3
import types

import pytest

from repro import Database
from repro.catalog import Column, Index, TableSchema
from repro.executor.batch import BatchExpressionCompiler, RowBatch
from repro.executor.expression import RAW_SCALARS, ExpressionCompiler
from repro.mysql_types import MySQLType
from repro.sql import ast

DAY = datetime.date(1995, 6, 17)

#: name -> (sample argument values, SQLite's counterpart as a format
#: string over SQL literals).  SQLite 3.40 has no CONCAT, GREATEST /
#: LEAST or date-part functions: ``||``, the multi-argument scalar
#: ``max`` / ``min`` and ``strftime`` stand in.
CASES = {
    "CONCAT": (["ab", "cd"], "{0} || {1}"),
    "UPPER": (["ab"], "upper({0})"),
    "LOWER": (["AB"], "lower({0})"),
    "LENGTH": (["abc"], "length({0})"),
    "TRIM": ([" ab "], "trim({0})"),
    "LTRIM": ([" ab "], "ltrim({0})"),
    "RTRIM": ([" ab "], "rtrim({0})"),
    "ABS": ([-2], "abs({0})"),
    "ROUND": ([2.567, 1], "round({0}, {1})"),
    "FLOOR": ([2.5], "floor({0})"),
    "CEIL": ([2.5], "ceil({0})"),
    "CEILING": ([2.5], "ceiling({0})"),
    "SQRT": ([4.0], "sqrt({0})"),
    "MOD": ([7, 3], "mod({0}, {1})"),
    "POWER": ([2, 3], "power({0}, {1})"),
    "SUBSTRING": (["abcdef", 2, 3], "substr({0}, {1}, {2})"),
    "SUBSTR": (["abcdef", 2, 3], "substr({0}, {1}, {2})"),
    "YEAR": ([DAY], "strftime('%Y', {0})"),
    "MONTH": ([DAY], "strftime('%m', {0})"),
    "DAYOFMONTH": ([DAY], "strftime('%d', {0})"),
    "DAYOFWEEK": ([DAY], "strftime('%w', {0})"),
    "NULLIF": ([1, 2], "nullif({0}, {1})"),
    "GREATEST": ([1, 2], "max({0}, {1})"),
    "LEAST": ([1, 2], "min({0}, {1})"),
}


def _sqlite_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, (str, datetime.date)):
        return f"'{value}'"
    return repr(value)


#: A column read whose value is NULL: entry 0, position 0.
NULL_COLUMN = ast.ColumnRef("t", "x", 0, 0)


def _evaluate(expr):
    """``expr`` in the row interpreter and in the batch compiler, over
    one row whose column ``x`` is NULL."""
    row = ExpressionCompiler().compile(expr)([(None,)])
    host = types.SimpleNamespace(
        current_runtime=types.SimpleNamespace(ctx=[]))
    fn = BatchExpressionCompiler(host).compile(expr, frozenset({0}))
    (batch,) = fn(RowBatch({0: [(None,)]}, 1))
    return row, batch


def test_every_scalar_function_is_pinned():
    assert set(CASES) == set(RAW_SCALARS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_null_arguments_match_sqlite(name):
    """A NULL in each argument position, as a literal and as a column
    read: NULL in both engines exactly when SQLite's result is."""
    lite = sqlite3.connect(":memory:")
    values, template = CASES[name]
    for position in [None] + list(range(len(values))):
        lite_args = [_sqlite_literal(None if index == position else value)
                     for index, value in enumerate(values)]
        (expected,), = lite.execute(
            "SELECT " + template.format(*lite_args)).fetchall()
        for null in (ast.Literal(None), NULL_COLUMN):
            args = [null if index == position else ast.Literal(value)
                    for index, value in enumerate(values)]
            row, batch = _evaluate(ast.FuncCall(name, args))
            assert (row is None) == (expected is None), \
                (name, position, row, expected)
            assert repr(batch) == repr(row), (name, position)


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table(TableSchema("z", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("x", MySQLType.LONG)],
        [Index("PRIMARY", ("id",), primary=True)]))
    database.load("z", [(7, None)])
    return database


@pytest.mark.parametrize("mode", ["row", "batch"])
@pytest.mark.parametrize("call,expected", [
    ("NULLIF(1, NULL)", 1),
    ("NULLIF(1, x)", 1),
    ("NULLIF(id, NULL)", 7),
    ("NULLIF(id, x)", 7),
    ("NULLIF('a', NULL)", "a"),
    ("NULLIF(NULL, 1)", None),
    ("NULLIF(x, 1)", None),
    ("NULLIF(x, NULL)", None),
    ("NULLIF(1, 1)", None),
    ("NULLIF(id, 7)", None),
    ("NULLIF(1, 2)", 1),
])
def test_nullif_values(db, mode, call, expected):
    (got,), = db.run(f"SELECT {call} FROM z", executor_mode=mode).rows
    assert got == expected and type(got) is type(expected)
    lite_call = call.replace("id", "7").replace("x", "NULL")
    assert sqlite3.connect(":memory:").execute(
        f"SELECT {lite_call}").fetchall() == [(expected,)]
