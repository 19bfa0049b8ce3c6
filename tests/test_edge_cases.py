"""Edge-case behaviours across the engine."""

import pytest

from benchmarks.paper import results_match
from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=91, orders=80)


def run_both(db, sql):
    mysql_rows = db.execute(sql, optimizer="mysql")
    orca_rows = db.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows), sql
    return mysql_rows


class TestUnionOrdering:
    def test_union_all_with_order_by_output_column(self, db):
        rows = run_both(db, """
            SELECT o_orderkey FROM orders WHERE o_orderkey <= 5
            UNION ALL
            SELECT o_orderkey FROM orders
            WHERE o_orderkey BETWEEN 3 AND 6
            ORDER BY o_orderkey DESC""")
        values = [r[0] for r in rows]
        assert values == sorted(values, reverse=True)

    def test_union_dedup_then_limit(self, db):
        rows = run_both(db, """
            SELECT o_status FROM orders
            UNION
            SELECT o_status FROM orders
            LIMIT 2""")
        assert len(rows) == 2
        assert len(set(rows)) == 2


class TestWindowEdges:
    def test_running_sum_with_order(self, db):
        rows = run_both(db, """
            SELECT o_orderkey,
                   SUM(o_totalprice) OVER (ORDER BY o_orderkey) AS running
            FROM orders
            ORDER BY o_orderkey
            LIMIT 10""")
        totals = dict((o[0], o[3])
                      for o in db.storage.store("orders").scan())
        expected = 0.0
        for orderkey, running in rows:
            expected += totals[orderkey]
            assert running == pytest.approx(expected)

    def test_rank_over_aggregate(self, db):
        # Windows over aggregated output (the SELECT(2) + window(2) order
        # of Section 4.1).
        rows = run_both(db, """
            SELECT o_status, COUNT(*) AS cnt,
                   RANK() OVER (ORDER BY COUNT(*) DESC) AS rk
            FROM orders GROUP BY o_status""")
        by_rank = sorted(rows, key=lambda r: r[2])
        counts = [r[1] for r in by_rank]
        assert counts == sorted(counts, reverse=True)


class TestEmptyAndBoundary:
    def test_empty_table_aggregate(self, db):
        rows = run_both(db, """
            SELECT COUNT(*), SUM(o_totalprice) FROM orders
            WHERE o_orderkey > 999999""")
        assert rows == [(0, None)]

    def test_limit_zero(self, db):
        assert run_both(db, "SELECT o_orderkey FROM orders LIMIT 0") == []

    def test_limit_beyond_rows(self, db):
        rows = run_both(db,
                        "SELECT COUNT(*) FROM customer LIMIT 9999")
        assert len(rows) == 1

    def test_select_constant_no_from(self, db):
        assert db.execute("SELECT 1 + 1", optimizer="mysql") == [(2,)]

    def test_cross_product_small(self, db):
        rows = run_both(db, """
            SELECT COUNT(*) FROM part p1, part p2
            WHERE p1.p_partkey <= 3 AND p2.p_partkey <= 3""")
        assert rows == [(9,)]

    def test_self_join_aliases_stay_distinct(self, db):
        rows = run_both(db, """
            SELECT o1.o_orderkey, o2.o_orderkey
            FROM orders o1, orders o2
            WHERE o1.o_orderkey + 1 = o2.o_orderkey
              AND o1.o_orderkey <= 3""")
        assert sorted(rows) == [(1, 2), (2, 3), (3, 4)]

    def test_having_without_group_by(self, db):
        rows = run_both(db, """
            SELECT COUNT(*) FROM orders HAVING COUNT(*) > 0""")
        assert len(rows) == 1

    def test_in_list_with_duplicates(self, db):
        rows = run_both(db, """
            SELECT COUNT(*) FROM orders
            WHERE o_orderkey IN (1, 1, 2, 2)""")
        assert rows == [(2,)]


class TestStatisticsLifecycle:
    def test_analyze_refreshes_after_dml(self):
        db = build_mini_db(seed=92, orders=50)
        before = db.catalog.statistics("orders").row_count
        db.run("DELETE FROM orders WHERE o_orderkey <= 10")
        # Stats are stale until ANALYZE, like MySQL.
        assert db.catalog.statistics("orders").row_count == before
        db.analyze()
        assert db.catalog.statistics("orders").row_count == before - 10

    def test_queries_still_correct_with_stale_stats(self):
        db = build_mini_db(seed=93, orders=50)
        db.run("DELETE FROM orders WHERE o_orderkey <= 25")
        rows = run_both(db, "SELECT COUNT(*) FROM orders")
        assert rows == [(25,)]
