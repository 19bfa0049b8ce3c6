"""A GROUP BY key that holds a subquery is matched in the SELECT list.

The SELECT-list copy of a grouped subquery must read the aggregate's
key slot, not the pre-aggregate row.  ``expr_key`` once keyed a
subquery by its block id, so the two textual copies never matched: the
row engine returned the last scanned row's value for every group and
the batch engine raised.  Subqueries are now keyed by their body's
shape and their correlation bindings.  Results are checked against
stdlib ``sqlite3`` over the same generated rows, under both optimizers
and both engines, at two scales with more than ten groups.
"""

import datetime
import sqlite3

import pytest

from repro import Database
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.sql.rewrite import expr_key
from repro.workloads.tpch import load_tpch
from repro.workloads.tpch.datagen import generate_tpch
from repro.workloads.tpch.schema import build_tpch_schema

NATION_OF = "(SELECT n_name FROM nation WHERE n_nationkey = c_nationkey{})"
ORDERS_OF = "(SELECT COUNT(*) FROM orders WHERE o_custkey = c_custkey)"

STATEMENTS = {
    # The reported shape: a correlated scalar lookup, grouped and
    # selected.
    "lookup": (f"SELECT {NATION_OF.format('')} AS nn, COUNT(*) "
               f"FROM customer GROUP BY {NATION_OF.format('')}"),
    # A correlated aggregate body, selected inside arithmetic.
    "aggregate": (f"SELECT {ORDERS_OF} + 1, COUNT(*), SUM(c_acctbal) "
                  f"FROM customer GROUP BY {ORDERS_OF}"),
    # Two keys whose subqueries differ only in a literal: each SELECT
    # item must read its own key, never the other's.
    "literal": (f"SELECT {NATION_OF.format(' + 1')} AS b, "
                f"{NATION_OF.format(' + 0')} AS a, COUNT(*) FROM customer "
                f"GROUP BY {NATION_OF.format(' + 0')}, "
                f"{NATION_OF.format(' + 1')}"),
}
SCALES = (0.05, 0.1)


def _sorted(rows):
    return sorted(rows, key=lambda row: [(value is None, value)
                                         for value in row])


def _rounded(rows):
    return [tuple(round(value, 6) if isinstance(value, float) else value
                  for value in row) for row in rows]


@pytest.fixture(scope="module", params=SCALES)
def scale(request):
    return request.param


@pytest.fixture(scope="module")
def tpch(scale):
    db = Database()
    load_tpch(db, scale=scale)
    return db


@pytest.fixture(scope="module")
def oracle(scale):
    rows = generate_tpch(scale, 42)
    con = sqlite3.connect(":memory:")
    for schema in build_tpch_schema():
        if schema.name not in ("customer", "nation", "orders"):
            continue
        names = [column.name for column in schema.columns]
        con.execute(f"CREATE TABLE {schema.name} ({', '.join(names)})")
        con.executemany(
            f"INSERT INTO {schema.name} VALUES "
            f"({', '.join('?' * len(names))})",
            [tuple(value.isoformat()
                   if isinstance(value, datetime.date) else value
                   for value in row) for row in rows[schema.name]])
    answers = {name: _sorted(con.execute(sql).fetchall())
               for name, sql in STATEMENTS.items()}
    con.close()
    return answers


def test_oracle_has_more_than_ten_groups(oracle):
    assert len(oracle["lookup"]) > 10
    assert len(oracle["literal"]) > 10
    assert len({row[0] for row in oracle["lookup"]}) == len(oracle["lookup"])


@pytest.mark.parametrize("name", sorted(STATEMENTS))
@pytest.mark.parametrize("optimizer", ["mysql", "orca"])
@pytest.mark.parametrize("mode", ["row", "batch"])
def test_grouped_subquery_matches_sqlite(tpch, oracle, name, optimizer,
                                         mode):
    result = tpch.run(STATEMENTS[name], optimizer=optimizer,
                      executor_mode=mode, use_plan_cache=False)
    assert _rounded(_sorted(result.rows)) == _rounded(oracle[name])


def _select_and_group_keys(db, sql):
    block, __ = Resolver(db.catalog).resolve(parse_statement(sql))
    prepare(block)
    return ([expr_key(item.expr) for item in block.select_items],
            [expr_key(expr) for expr in block.group_by])


def test_copies_share_a_key_and_a_literal_splits_them():
    db = Database()
    load_tpch(db, scale=0.01)
    select, group = _select_and_group_keys(db, STATEMENTS["literal"])
    assert select[0] == group[1] and select[1] == group[0]
    assert group[0] != group[1]


def test_correlation_bindings_split_equal_bodies():
    """The same body text bound to different outer columns keys apart."""
    db = Database()
    load_tpch(db, scale=0.01)
    sql = ("SELECT COUNT(*) FROM customer c1, customer c2 "
           "GROUP BY (SELECT n_name FROM nation WHERE n_nationkey = "
           "c1.c_nationkey), (SELECT n_name FROM nation WHERE "
           "n_nationkey = c2.c_nationkey)")
    __, group = _select_and_group_keys(db, sql)
    assert group[0] != group[1]
