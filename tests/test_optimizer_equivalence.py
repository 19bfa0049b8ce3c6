"""Property-based optimizer equivalence: random queries, equal results.

The reproduction's core invariant — whatever plans the two optimizers
pick, execution must agree — is fuzzed here with randomly composed
queries over the mini schema: random filters, join subsets, aggregation,
ordering, semi-joins, and limits.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.paper import results_match
from tests.conftest import build_mini_db

_DB = build_mini_db(seed=77, orders=120)

_FILTERS = [
    "o_totalprice > {n}",
    "o_totalprice <= {n}",
    "o_status = 'O'",
    "o_priority <> '1-PRIO'",
    "o_orderkey BETWEEN {k} AND {k2}",
    "o_comment IS NOT NULL",
    "o_custkey IN (1, 2, 3, {c})",
    "o_status = 'F' OR o_totalprice < {n}",
]

_JOIN_TAILS = [
    ("", ""),
    (", customer", " AND c_custkey = o_custkey"),
    (", customer, lineitem",
     " AND c_custkey = o_custkey AND l_orderkey = o_orderkey"),
    (", lineitem", " AND l_orderkey = o_orderkey AND l_quantity > 10"),
]

_SHAPES = [
    "SELECT COUNT(*), SUM(o_totalprice) FROM orders{tables} WHERE {where}",
    "SELECT o_status, COUNT(*) FROM orders{tables} WHERE {where} "
    "GROUP BY o_status ORDER BY o_status",
    "SELECT o_orderkey FROM orders{tables} WHERE {where} "
    "ORDER BY o_orderkey LIMIT 17",
    "SELECT o_custkey, MAX(o_totalprice) FROM orders{tables} "
    "WHERE {where} GROUP BY o_custkey HAVING COUNT(*) > 1 "
    "ORDER BY o_custkey LIMIT 25",
    "SELECT o_orderkey FROM orders{tables} WHERE {where} "
    "AND EXISTS (SELECT * FROM lineitem l2 "
    "WHERE l2.l_orderkey = o_orderkey AND l2.l_quantity > 25)",
]


@given(
    shape=st.sampled_from(_SHAPES),
    join=st.sampled_from(_JOIN_TAILS),
    filters=st.lists(st.sampled_from(_FILTERS), min_size=1, max_size=3,
                     unique=True),
    n=st.integers(100, 9000),
    k=st.integers(1, 100),
    c=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_queries_agree(shape, join, filters, n, k, c):
    tables, join_condition = join
    where = " AND ".join(
        f"({f.format(n=n, k=k, k2=k + 20, c=c)})" for f in filters)
    sql = shape.format(tables=tables, where=where + join_condition)
    mysql_rows = _DB.execute(sql, optimizer="mysql")
    orca_rows = _DB.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows), sql


@given(st.integers(1, 5), st.integers(0, 45))
@settings(max_examples=30, deadline=None)
def test_left_join_equivalence(limit, threshold):
    sql = f"""
        SELECT c_custkey, COUNT(o_orderkey) FROM customer
        LEFT JOIN orders ON c_custkey = o_custkey
             AND o_totalprice > {threshold * 200}
        GROUP BY c_custkey
        ORDER BY c_custkey LIMIT {limit * 10}"""
    mysql_rows = _DB.execute(sql, optimizer="mysql")
    orca_rows = _DB.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows), sql


@given(st.sampled_from(["Brand#0", "Brand#1", "Brand#2", "Brand#9"]),
       st.integers(5, 45))
@settings(max_examples=20, deadline=None)
def test_correlated_subquery_equivalence(brand, quantity):
    sql = f"""
        SELECT COUNT(*) FROM lineitem, part
        WHERE p_partkey = l_partkey AND p_brand = '{brand}'
          AND l_quantity < {quantity}
          AND l_price > (SELECT AVG(l_price) * 0.5 FROM lineitem
                         WHERE l_partkey = p_partkey)"""
    mysql_rows = _DB.execute(sql, optimizer="mysql")
    orca_rows = _DB.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows), sql
