"""Tests for query routing (Sections 3, 4.1) and the Database facade."""

import pytest

from repro import Database, DatabaseConfig
from repro.errors import ReproError, UnsupportedSqlError

from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=9, orders=120)


class TestThresholdRouting:
    def test_default_threshold_is_three(self):
        # Section 4.1: "the resulting 'complex query threshold' is set to
        # three".
        assert DatabaseConfig().complex_query_threshold == 3

    def test_simple_query_uses_mysql(self, db):
        result = db.run("SELECT COUNT(*) FROM orders")
        assert result.optimizer_used == "mysql"

    def test_two_tables_below_threshold(self, db):
        result = db.run("""
            SELECT COUNT(*) FROM orders, customer
            WHERE o_custkey = c_custkey""")
        assert result.optimizer_used == "mysql"

    def test_three_tables_routed_to_orca(self, db):
        result = db.run("""
            SELECT COUNT(*) FROM orders, customer, lineitem
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey""")
        assert result.optimizer_used == "orca"

    def test_subquery_tables_count_toward_threshold(self, db):
        # "Query complexity is defined to be the total number of table
        # references in a query" — including subqueries.
        result = db.run("""
            SELECT COUNT(*) FROM orders, customer
            WHERE o_custkey = c_custkey
              AND EXISTS (SELECT * FROM lineitem
                          WHERE l_orderkey = o_orderkey)""")
        assert result.optimizer_used == "orca"

    def test_threshold_configurable(self):
        db = build_mini_db(seed=9, orders=50)
        db.config.complex_query_threshold = 1
        assert db.run("SELECT COUNT(*) FROM orders").optimizer_used == \
            "orca"

    def test_forced_mysql_overrides_threshold(self, db):
        result = db.run("""
            SELECT COUNT(*) FROM orders, customer, lineitem
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey""",
            optimizer="mysql")
        assert result.optimizer_used == "mysql"

    def test_forced_optimizer_overrides_threshold(self, db):
        result = db.run("SELECT COUNT(*) FROM orders", optimizer="orca")
        assert result.optimizer_used == "orca"

    def test_unknown_optimizer_rejected(self, db):
        with pytest.raises(ReproError):
            db.run("SELECT 1 FROM orders", optimizer="hyper")


class TestExplainTagging:
    def test_orca_plans_tagged(self, db):
        text = db.explain("""
            SELECT COUNT(*) FROM orders, customer, lineitem
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey""",
            optimizer="orca")
        assert text.startswith("EXPLAIN (ORCA)")

    def test_mysql_plans_untagged(self, db):
        text = db.explain("SELECT COUNT(*) FROM orders",
                          optimizer="mysql")
        assert text.startswith("EXPLAIN")
        assert "(ORCA)" not in text.splitlines()[0]

    def test_orca_costs_shown_in_explain(self, db):
        # Section 4.2.2: "the cost and row estimations are copied to the
        # iterators, and show up in ... the EXPLAIN output".
        text = db.explain("""
            SELECT COUNT(*) FROM orders, customer, lineitem
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey""",
            optimizer="orca")
        assert "cost=" in text and "rows=" in text


class TestUnsupportedConstructs:
    def test_intersect_raises_mysql_error(self, db):
        with pytest.raises(UnsupportedSqlError):
            db.run("SELECT o_orderkey FROM orders INTERSECT "
                   "SELECT l_orderkey FROM lineitem")

    def test_recursive_cte_rejected(self, db):
        with pytest.raises(UnsupportedSqlError):
            db.run("WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r")


class TestStatementResult:
    def test_timings_populated(self, db):
        result = db.run("SELECT COUNT(*) FROM orders")
        assert result.compile_seconds > 0
        assert result.execute_seconds >= 0

    def test_compile_only_returns_explain(self, db):
        result = db.compile_only("SELECT COUNT(*) FROM orders")
        assert result.explain is not None
        assert result.rows == []
        assert result.execute_seconds == 0.0

    def test_execute_returns_rows(self, db):
        rows = db.execute("SELECT COUNT(*) FROM customer")
        assert rows[0][0] == db.storage.store("customer").row_count
