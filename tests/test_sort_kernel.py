"""The column-wise sort kernel orders rows exactly as the old one did.

``reference_sort_rows`` is the multi-pass sort the executor used before
the kernel: one stable pass per key, least significant first, keyed by a
``(flag, value)`` tuple per row.  ``sort_permutation`` (the batch
engine's kernel), ``sort_rows`` (the row engine's entry to it) and a
batch-mode ``ORDER BY`` must all give its order position for position on
seeded inputs: NULL-free and NULL-heavy keys, mixed directions, long
runs of duplicate keys, empty input, sizes around the batch size, and
int/float mixes.
"""

import random

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.executor.plan import sort_permutation, sort_rows
from repro.mysql_types import MySQLType
from repro.sql import ast

BATCH = 64


def reference_sort_rows(captured, order_items):
    """The pre-kernel ``plan.sort_rows``, verbatim."""
    for index in range(len(order_items) - 1, -1, -1):
        descending = order_items[index].descending

        def key_fn(entry, i=index):
            value = entry[0][i]
            if value is None:
                return (0, 0)
            return (1, value)

        captured.sort(key=key_fn, reverse=descending)


def _value(rng, kind, null_share):
    if rng.random() < null_share:
        return None
    if kind == "dup":
        return rng.randrange(3)
    if kind == "mixed":
        return rng.choice((rng.randrange(-5, 5), rng.randrange(-5, 5) + 0.5,
                           float(rng.randrange(-5, 5))))
    if kind == "text":
        return rng.choice(("A", "N", "R", "F", "O"))
    return rng.randrange(1000)


CASES = [
    # (kinds of the key columns, directions, NULL share, row count)
    (("int",), (False,), 0.0, 500),
    (("int",), (True,), 0.4, 500),
    (("dup", "dup"), (False, False), 0.0, 700),
    (("dup", "dup"), (True, True), 0.0, 700),
    (("dup", "int"), (False, True), 0.0, 300),
    (("dup", "dup", "dup"), (True, False, True), 0.3, 400),
    (("text", "text"), (False, False), 0.0, BATCH - 1),
    (("text", "text"), (False, False), 0.5, BATCH),
    (("mixed", "dup"), (True, False), 0.2, BATCH + 1),
    (("mixed",), (False,), 0.0, 3 * BATCH),
    (("dup",), (False,), 1.0, 50),
    (("int", "dup"), (True, True), 0.9, 200),
    (("dup",), (False,), 0.0, 0),
    (("dup",), (True,), 0.0, 1),
]


def _case(index):
    kinds, directions, null_share, count = CASES[index]
    rng = random.Random(1000 + index)
    keys = [tuple(_value(rng, kind, null_share) for kind in kinds)
            for __ in range(count)]
    items = [ast.OrderItem(ast.Literal(0), desc) for desc in directions]
    return keys, items


@pytest.mark.parametrize("index", range(len(CASES)))
def test_permutation_matches_the_reference(index):
    keys, items = _case(index)
    expected = [(key, position) for position, key in enumerate(keys)]
    reference_sort_rows(expected, items)
    key_cols = [list(column) for column in zip(*keys)] \
        or [[] for __ in items]
    order = sort_permutation(key_cols, [i.descending for i in items],
                             len(keys))
    assert order == [position for __, position in expected]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_sort_rows_matches_the_reference(index):
    keys, items = _case(index)
    expected = [(key, (position,)) for position, key in enumerate(keys)]
    actual = list(expected)
    reference_sort_rows(expected, items)
    sort_rows(actual, items)
    assert actual == expected


def test_no_keys_keeps_input_order():
    assert sort_permutation([], [], 5) == [0, 1, 2, 3, 4]
    captured = [((), (i,)) for i in range(5)]
    sort_rows(captured, [])
    assert [payload for __, payload in captured] == [(i,) for i in range(5)]


@pytest.fixture(scope="module")
def db():
    rng = random.Random(77)
    database = Database(DatabaseConfig(batch_size=BATCH))
    database.create_table(TableSchema("s", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("a", MySQLType.LONG),
        Column.of("b", MySQLType.DOUBLE),
        Column.of("c", MySQLType.VARCHAR, 4),
    ], [Index("PRIMARY", ("id",), primary=True)]))
    rows = []
    for k in range(3 * BATCH + 1):
        rows.append((k,
                     None if rng.random() < 0.3 else rng.randrange(4),
                     None if rng.random() < 0.2 else
                     rng.choice((1, 1.5, 2, 2.0, -1)),
                     rng.choice(("x", "y", None))))
    database.load("s", rows)
    database.analyze()
    return database, rows


@pytest.mark.parametrize("order_by", [
    "a", "a DESC", "a, b", "a DESC, b DESC", "b, a DESC", "c DESC, a, b",
])
@pytest.mark.parametrize("limit", [BATCH - 1, BATCH, BATCH + 1, None])
def test_order_by_in_both_engines_is_the_reference_order(db, order_by,
                                                         limit):
    database, rows = db
    positions = {"a": 1, "b": 2, "c": 3}
    items = []
    for part in order_by.split(", "):
        name, *rest = part.split()
        items.append((positions[name], bool(rest)))
    captured = [(tuple(row[p] for p, __ in items), row) for row in rows]
    reference_sort_rows(captured, [ast.OrderItem(ast.Literal(0), desc)
                                   for __, desc in items])
    expected = [(row[0],) for __, row in captured][:limit]
    sql = f"SELECT id FROM s ORDER BY {order_by}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    for mode in ("row", "batch"):
        result = database.run(sql, executor_mode=mode)
        assert result.executor_mode == mode
        assert result.rows == expected, mode
