"""Row-vs-batch executor equivalence: same rows, same order, same work.

The batch engine must be observationally identical to the row engine —
identical result multisets, identical ordering wherever the query
specifies one, and identical storage access counters on full
consumption.  Every plan of both optimizers lowers to the batch engine,
window functions and subquery expressions included.
"""

from collections import Counter

import pytest

from repro import DatabaseConfig
from repro.executor.plan import walk_plan_nodes
from repro.sql.facts import contains_subquery
from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=37, orders=150)


@pytest.fixture(scope="module", params=[1024, 8], ids=["batch1024", "batch8"])
def sized_db(request):
    """The mini database at the default batch size and at 8 rows, where
    window output and subquery calls cross batch boundaries."""
    return build_mini_db(seed=37, orders=150,
                         config=DatabaseConfig(batch_size=request.param))


@pytest.fixture(scope="module")
def tpch():
    from repro import Database
    from repro.workloads.tpch import load_tpch

    database = Database()
    load_tpch(database, scale=0.05)
    return database


@pytest.fixture(scope="module")
def tpcds():
    from repro import Database
    from repro.workloads.tpcds import load_tpcds

    database = Database()
    # Large enough that float sums span several batches: a fold that
    # depended on where batches end would move last digits here.
    load_tpcds(database, scale=0.5)
    return database


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


def do_work(db, sql, optimizer, mode, workers=1):
    """Rows, per-node (label, actual rows, loops) and the storage
    counters one execution leaves."""
    counters = db.storage.counters
    before = counters.snapshot()
    result = db.run(sql, optimizer=optimizer, executor_mode=mode,
                    executor_workers=workers)
    after = counters.snapshot()
    assert result.executor_mode == mode
    return (result.rows,
            [(n.label, n.actual, n.loops)
             for n in result.plan_quality.nodes],
            {key: after[key] - before[key] for key in after})


#: Window functions with and without PARTITION BY / ORDER BY, over a
#: scan, a join and a GROUP BY.
WINDOWS = [
    "SELECT o_orderkey, RANK() OVER (ORDER BY o_totalprice DESC) "
    "FROM orders",
    "SELECT o_orderkey, DENSE_RANK() OVER "
    "(PARTITION BY o_status ORDER BY o_orderdate) FROM orders",
    "SELECT o_orderkey, ROW_NUMBER() OVER "
    "(PARTITION BY o_custkey ORDER BY o_orderkey) FROM orders",
    "SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_status) "
    "FROM orders",
    "SELECT o_orderkey, AVG(o_totalprice) OVER (ORDER BY o_orderdate) "
    "FROM orders",
    "SELECT o_orderkey, COUNT(*) OVER () FROM orders",
    "SELECT o_orderkey, COUNT(o_comment) OVER "
    "(PARTITION BY o_status ORDER BY o_orderkey) FROM orders",
    "SELECT o_custkey, COUNT(*), RANK() OVER (ORDER BY COUNT(*) DESC) "
    "FROM orders GROUP BY o_custkey",
    "SELECT l_orderkey, SUM(l_quantity), DENSE_RANK() OVER "
    "(ORDER BY SUM(l_quantity)) FROM lineitem GROUP BY l_orderkey",
    "SELECT c_name, o_orderkey, ROW_NUMBER() OVER "
    "(PARTITION BY c_custkey ORDER BY o_totalprice DESC) "
    "FROM customer JOIN orders ON c_custkey = o_custkey",
]

#: Scalar, IN, NOT IN and EXISTS subquery expressions that stay
#: expressions (no decorrelation into a join), correlated and not, in
#: SELECT, WHERE, CASE, HAVING and a join condition.  Two nest a
#: correlated subquery inside another, reading the outermost row two
#: levels down; the join condition's row-invariant subquery must not run
#: for an outer batch whose index probe finds nothing, as the row engine
#: never reaches it.
SUBQUERIES = [
    "SELECT o_orderkey, (SELECT MAX(c_acctbal) FROM customer) FROM orders",
    "SELECT c_name, (SELECT COUNT(*) FROM orders "
    "WHERE o_custkey = c_custkey) FROM customer",
    "SELECT o_orderkey FROM orders "
    "WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)",
    "SELECT o1.o_orderkey FROM orders o1 WHERE o1.o_totalprice > "
    "(SELECT AVG(o2.o_totalprice) FROM orders o2 "
    "WHERE o2.o_custkey = o1.o_custkey)",
    "SELECT o_orderkey, CASE WHEN o_totalprice > "
    "(SELECT AVG(o_totalprice) FROM orders) THEN 'high' ELSE 'low' END "
    "FROM orders",
    "SELECT c_name, CASE WHEN EXISTS (SELECT 1 FROM orders "
    "WHERE o_custkey = c_custkey AND o_totalprice > 9000) "
    "THEN 'big' ELSE 'small' END FROM customer",
    "SELECT c_name FROM customer WHERE c_custkey IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 9000) "
    "OR c_acctbal < 0",
    "SELECT c_name FROM customer WHERE c_custkey NOT IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 5000) "
    "OR c_segment = 'GOLD'",
    "SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders "
    "WHERE o_custkey = c_custkey AND o_totalprice > 9500) "
    "OR c_acctbal > 4000",
    "SELECT c_name, c_custkey IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 9000) "
    "FROM customer",
    "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status "
    "HAVING COUNT(*) > (SELECT COUNT(*) FROM customer)",
    "SELECT c_name FROM customer WHERE EXISTS (SELECT 1 FROM orders "
    "WHERE o_totalprice > (SELECT AVG(l_price) * 30 FROM lineitem "
    "WHERE l_quantity < c_acctbal / 100)) OR c_acctbal < 0",
    "SELECT c_name, (SELECT COUNT(*) FROM orders WHERE o_totalprice < "
    "(SELECT MAX(l_price) FROM lineitem "
    "WHERE l_quantity * 100 < c_acctbal) * 10) FROM customer",
    "SELECT o_orderkey, l_quantity FROM orders LEFT JOIN lineitem "
    "ON l_orderkey = o_orderkey + 100000 "
    "AND (SELECT COUNT(*) FROM part) > 5",
]


def _keeps_subquery_expression(executor) -> bool:
    plan = executor.top_plan
    exprs = list(plan.select_exprs)
    for node in walk_plan_nodes(plan):
        exprs.extend(node.filter_conjuncts)
        exprs.extend(getattr(node, "conjuncts", ()))
    return any(contains_subquery(expr) for expr in exprs)


class TestWindowsAndSubqueriesRunInBatch:
    """The constructs batch lowering used to refuse: the batch engine
    runs them and matches the row engine row for row, node for node and
    counter for counter."""

    @pytest.mark.parametrize("sql", WINDOWS + SUBQUERIES)
    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_same_rows_actuals_and_counters(self, sized_db, sql, optimizer):
        row = do_work(sized_db, sql, optimizer, "row")
        batch = do_work(sized_db, sql, optimizer, "batch")
        assert batch == row

    def test_window_output_is_recut_at_the_batch_size(self, sized_db):
        sql = ("SELECT o_orderkey, ROW_NUMBER() OVER (ORDER BY o_orderkey) "
               "FROM orders ORDER BY o_orderkey LIMIT 20")
        row, batch = run_modes(sized_db, sql)
        assert batch.rows == row.rows
        assert batch.rows == [(key, key) for key in range(1, 21)]

    @pytest.mark.parametrize("sql", SUBQUERIES)
    def test_subquery_expressions_reach_the_batch_compiler(self, db, sql):
        # Under MySQL routing none of these decorrelates, so the cases
        # above exercise the per-row subquery call, not a join.
        executor = db._compile(sql, "mysql")[0]
        assert _keeps_subquery_expression(executor)


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
    """Every TPC-H statement and the TPC-DS statements with window
    functions or subquery expressions, under both optimizers: the batch
    engine returns the row engine's rows in the row engine's order and
    leaves the same storage counters and per-node actual rows and loops
    (EXPLAIN ANALYZE and the statement log read them)."""

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_row_and_batch_do_the_same_work(self, tpch, optimizer):
        from repro.executor.plan import NestedLoopJoinNode
        from repro.workloads.tpch import TPCH_QUERIES

        kinds = set()
        for number, sql in sorted(TPCH_QUERIES.items()):
            row = do_work(tpch, sql, optimizer, "row")
            batch = do_work(tpch, sql, optimizer, "batch")
            assert batch == row, f"Q{number}"
            executor = tpch._compile(sql, optimizer)[0]
            executor.ensure_batch_lowered()
            kinds.update(node.kind.value
                         for node in walk_plan_nodes(executor.top_plan)
                         if isinstance(node, NestedLoopJoinNode)
                         and node.bx_probe)
        assert kinds >= {"inner", "semi", "antijoin"}
        if optimizer == "mysql":
            assert "left" in kinds

    #: The TPC-DS statements batch lowering refused under one optimizer
    #: or both (window functions, subquery expressions).
    FORMERLY_REFUSED = (1, 6, 9, 12, 14, 24, 28, 41, 44, 57, 73, 81, 87)

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_formerly_refused_tpcds_statements_do_the_same_work(
            self, tpcds, optimizer):
        from repro.workloads.tpcds import TPCDS_QUERIES

        for number in self.FORMERLY_REFUSED:
            sql = TPCDS_QUERIES[number]
            row = do_work(tpcds, sql, optimizer, "row")
            batch = do_work(tpcds, sql, optimizer, "batch")
            assert exact(batch) == exact(row), f"ds{number}"


def bits(rows):
    """Rows with every cell as its type and ``repr``: equal only when
    bit-identical (0.0 is not -0.0, 1 is not 1.0)."""
    return [[(type(cell), repr(cell)) for cell in row] for row in rows]


def exact(work):
    """``do_work``'s result, rows as :func:`bits`."""
    return (bits(work[0]),) + tuple(work[1:])


class TestTotalLowering:
    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_every_benchmark_statement_lowers(self, tpch, tpcds,
                                              optimizer):
        from repro.workloads.tpcds import TPCDS_QUERIES
        from repro.workloads.tpch import TPCH_QUERIES

        for db, queries in ((tpch, TPCH_QUERIES), (tpcds, TPCDS_QUERIES)):
            for sql in queries.values():
                executor = db._compile(sql, optimizer)[0]
                executor.ensure_batch_lowered()
                assert executor.top_plan.bx_select is not None
