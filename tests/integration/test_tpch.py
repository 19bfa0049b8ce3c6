"""Integration: every TPC-H query agrees across the two optimizers.

This is the correctness backbone of the reproduction — the paper's whole
evaluation assumes both optimizers' plans compute identical results.
"""

import pytest

from repro import Database, DatabaseConfig
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

from benchmarks.paper import results_match


@pytest.fixture(scope="module")
def db():
    database = Database(DatabaseConfig(complex_query_threshold=3))
    load_tpch(database, scale=0.25, seed=42)
    return database


@pytest.mark.parametrize("number", sorted(TPCH_QUERIES))
def test_query_results_match(db, number):
    sql = TPCH_QUERIES[number]
    mysql_rows = db.execute(sql, optimizer="mysql")
    orca_rows = db.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows)


def test_workload_has_all_22_queries():
    assert sorted(TPCH_QUERIES) == list(range(1, 23))


def test_selected_queries_nonempty(db):
    # A guard against silently-degenerate data: the headline queries must
    # produce rows at this scale.
    for number in (1, 3, 4, 5, 6, 10, 12, 13, 14, 16, 18):
        rows = db.execute(TPCH_QUERIES[number], optimizer="mysql")
        assert rows, f"Q{number} returned no rows"


def test_routing_sends_complex_queries_to_orca(db):
    # At the paper's threshold of 3, Q5 (6 tables) goes to Orca and the
    # single-table Q1 and Q6 stay on MySQL (Section 6.1 ran with the
    # default threshold 3).
    assert db.run(TPCH_QUERIES[5]).optimizer_used == "orca"
    assert db.run(TPCH_QUERIES[6]).optimizer_used == "mysql"
