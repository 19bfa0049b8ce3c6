"""Row-vs-batch executor equivalence: same rows, same order, same work.

The batch engine must be observationally identical to the row engine —
identical result multisets, identical ordering wherever the query
specifies one, and identical storage access counters on full
consumption.  Statements the batch engine cannot lower must still
produce row-engine results, with the degrade recorded in the fallback
log.
"""

from collections import Counter

import pytest

from repro.resilience import FallbackReason
from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=37, orders=150)


def run_modes(db, sql, optimizer="auto"):
    row = db.run(sql, optimizer=optimizer, executor_mode="row")
    batch = db.run(sql, optimizer=optimizer, executor_mode="batch")
    return row, batch


#: Queries covering every batched operator: scans (table, index range,
#: index ordered), filters, expression shapes, joins of every kind,
#: both aggregation strategies, sorts, limits, set operations, derived
#: tables, and subqueries that decorrelate into joins.
CORPUS = [
    "SELECT o_orderkey, o_totalprice FROM orders",
    "SELECT o_orderkey FROM orders WHERE o_totalprice > 5000",
    "SELECT o_orderkey FROM orders WHERE o_orderkey BETWEEN 10 AND 40",
    "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC",
    "SELECT o_orderkey, o_totalprice FROM orders "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 7",
    "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5 OFFSET 95",
    "SELECT DISTINCT o_status FROM orders",
    "SELECT o_status, COUNT(*), SUM(o_totalprice), AVG(o_totalprice), "
    "MIN(o_orderdate), MAX(o_orderdate) FROM orders GROUP BY o_status",
    "SELECT o_custkey, COUNT(DISTINCT o_status) FROM orders "
    "GROUP BY o_custkey ORDER BY o_custkey",
    "SELECT COUNT(*) FROM orders WHERE o_comment IS NULL",
    "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status "
    "HAVING COUNT(*) > 5 ORDER BY o_status",
    "SELECT c_name, o_totalprice FROM customer "
    "JOIN orders ON c_custkey = o_custkey WHERE o_totalprice > 8000",
    "SELECT c_name, COUNT(*) FROM customer "
    "LEFT JOIN orders ON c_custkey = o_custkey AND o_totalprice > 9000 "
    "GROUP BY c_name ORDER BY c_name",
    "SELECT o_orderkey, l_quantity FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey WHERE l_quantity > 30",
    "SELECT c_name FROM customer WHERE c_custkey IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 9000)",
    "SELECT c_name FROM customer WHERE c_custkey NOT IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 9500)",
    "SELECT c_name FROM customer WHERE EXISTS "
    "(SELECT 1 FROM orders WHERE o_custkey = c_custkey)",
    "SELECT o_priority, CASE WHEN o_totalprice > 5000 THEN 'big' "
    "ELSE 'small' END FROM orders",
    "SELECT COALESCE(o_comment, 'none') FROM orders",
    "SELECT o_orderkey FROM orders WHERE o_priority LIKE '%URGENT%'",
    "SELECT o_orderkey FROM orders "
    "WHERE o_status IN ('F', 'O') AND o_totalprice < 2000",
    "SELECT UPPER(o_status), o_orderkey + 1 FROM orders LIMIT 20",
    "SELECT t.s, t.n FROM (SELECT o_status AS s, COUNT(*) AS n "
    "FROM orders GROUP BY o_status) t WHERE t.n > 2",
    "SELECT o_status FROM orders WHERE o_totalprice > 9000 "
    "UNION SELECT o_status FROM orders WHERE o_totalprice < 500 "
    "ORDER BY o_status",
    "SELECT o_orderkey FROM orders WHERE o_orderkey < 5 "
    "UNION ALL SELECT o_orderkey FROM orders WHERE o_orderkey < 3",
    "SELECT COUNT(*), SUM(l_quantity * l_price) FROM lineitem "
    "WHERE l_shipdate >= DATE '1995-01-01'",
    "SELECT COUNT(*) FROM part p1, part p2 "
    "WHERE p1.p_partkey <= 4 AND p2.p_partkey <= 4",
    "SELECT 1 + 2, 'x'",
]

ORDERED = [sql for sql in CORPUS if "ORDER BY" in sql]


class TestResultEquivalence:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_same_multiset(self, db, sql):
        row, batch = run_modes(db, sql)
        assert Counter(row.rows) == Counter(batch.rows)

    @pytest.mark.parametrize("sql", ORDERED)
    def test_same_ordering(self, db, sql):
        row, batch = run_modes(db, sql)
        assert row.rows == batch.rows

    @pytest.mark.parametrize("sql", CORPUS)
    def test_both_optimizers(self, db, sql):
        for optimizer in ("mysql", "orca"):
            row, batch = run_modes(db, sql, optimizer=optimizer)
            assert Counter(row.rows) == Counter(batch.rows), optimizer


class TestModeReporting:
    def test_result_reports_batch_mode(self, db):
        result = db.run("SELECT o_orderkey FROM orders",
                        executor_mode="batch")
        assert result.executor_mode == "batch"

    def test_result_reports_row_mode(self, db):
        result = db.run("SELECT o_orderkey FROM orders",
                        executor_mode="row")
        assert result.executor_mode == "row"

    def test_default_mode_comes_from_config(self, db):
        assert db.config.executor_mode == "batch"
        result = db.run("SELECT COUNT(*) FROM orders")
        assert result.executor_mode == "batch"

    def test_unknown_mode_rejected(self, db):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            db.run("SELECT 1", executor_mode="columnar")


class TestCounterParity:
    """AccessCounters must charge identical totals in both modes when
    the plan is consumed to completion (no LIMIT)."""

    PARITY_QUERIES = [
        "SELECT o_orderkey FROM orders WHERE o_totalprice > 3000",
        "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
        "SELECT c_name, o_totalprice FROM customer "
        "JOIN orders ON c_custkey = o_custkey",
        "SELECT o_orderkey FROM orders "
        "WHERE o_orderkey BETWEEN 20 AND 60",
    ]

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_counters_match(self, db, sql):
        counters = db.storage.counters
        snapshots = {}
        for mode in ("row", "batch"):
            counters.reset()
            db.run(sql, executor_mode=mode)
            snapshots[mode] = counters.snapshot()
        assert snapshots["row"] == snapshots["batch"]


class TestFallback:
    def test_window_function_degrades_to_row(self, db):
        sql = ("SELECT o_orderkey, RANK() OVER "
               "(ORDER BY o_totalprice DESC) FROM orders")
        row, batch = run_modes(db, sql)
        assert batch.executor_mode == "row"
        assert row.rows == batch.rows
        events = [e for e in db.fallback_log.events
                  if e.reason is FallbackReason.EXEC_BATCH_UNSUPPORTED]
        assert events
        assert "window" in (events[-1].error_message or "")

    def test_supported_statement_does_not_log_fallback(self, db):
        before = sum(
            1 for e in db.fallback_log.events
            if e.reason is FallbackReason.EXEC_BATCH_UNSUPPORTED)
        db.run("SELECT COUNT(*) FROM orders", executor_mode="batch")
        after = sum(
            1 for e in db.fallback_log.events
            if e.reason is FallbackReason.EXEC_BATCH_UNSUPPORTED)
        assert after == before


class TestBatchMetrics:
    def test_batch_counters_advance(self, db):
        before_batches = db.metrics.count("executor.batches")
        before_rows = db.metrics.count("executor.batch_rows")
        before_exprs = db.metrics.count("exec.compiled_exprs")
        db.run("SELECT o_orderkey FROM orders WHERE o_totalprice > 0",
               executor_mode="batch")
        assert db.metrics.count("executor.batches") > before_batches
        assert db.metrics.count("executor.batch_rows") > before_rows
        assert db.metrics.count("exec.compiled_exprs") > before_exprs

    def test_row_mode_leaves_batch_counters(self, db):
        before = db.metrics.count("executor.batches")
        db.run("SELECT o_orderkey FROM orders", executor_mode="row")
        assert db.metrics.count("executor.batches") == before


class TestBatchedIndexProbe:
    """Every TPC-H statement under both optimizers: the batched index
    nested loop returns the row engine's rows in the row engine's order
    and leaves the same storage counters and per-node actual rows and
    loops (EXPLAIN ANALYZE and the statement log read them)."""

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro import Database
        from repro.workloads.tpch import load_tpch

        database = Database()
        load_tpch(database, scale=0.05)
        return database

    @staticmethod
    def _work(db, sql, optimizer, mode):
        counters = db.storage.counters
        before = (counters.index_lookups, counters.index_rows_read,
                  counters.rows_scanned, counters.chunks_skipped)
        result = db.run(sql, optimizer=optimizer, executor_mode=mode)
        after = (counters.index_lookups, counters.index_rows_read,
                 counters.rows_scanned, counters.chunks_skipped)
        return (result.rows,
                [(n.label, n.actual, n.loops)
                 for n in result.plan_quality.nodes],
                [a - b for a, b in zip(after, before)])

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_row_and_batch_do_the_same_work(self, tpch, optimizer):
        from repro.executor.plan import NestedLoopJoinNode, walk_plan_nodes
        from repro.workloads.tpch import TPCH_QUERIES

        kinds = set()
        for number, sql in sorted(TPCH_QUERIES.items()):
            row = self._work(tpch, sql, optimizer, "row")
            batch = self._work(tpch, sql, optimizer, "batch")
            assert batch == row, f"Q{number}"
            executor = tpch._compile(sql, optimizer)[0]
            if executor.ensure_batch_lowered():
                kinds.update(node.kind.value
                             for node in walk_plan_nodes(executor.top_plan)
                             if isinstance(node, NestedLoopJoinNode)
                             and node.bx_probe)
        assert kinds >= {"inner", "semi", "antijoin"}
        if optimizer == "mysql":
            assert "left" in kinds
