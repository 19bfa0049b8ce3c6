"""Bound entries: subquery bodies and nested-loop inners as batch plans.

A plan that reads entries from outside its operator subtree — a subquery
body's correlation sources, the outer entries of a nested-loop inner
that is not a batched index probe — is lowered with those entries bound:
the caller writes their rows into the runtime context, and each
generated evaluator reads a bound slot once per call.  These tests pin
the code generator's bound reads, the batch engine's parity with the row
reference over the whole TPC-H and TPC-DS corpus, the absence of any
row-plan call in a batch execution, the shape-keyed kernel cache, and
governance inside a body.
"""

import time
import types

import pytest

from repro import Database, DatabaseConfig
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    StatementCancelledError,
)
from repro.executor import batch as batch_module
from repro.executor import plan as plan_module
from repro.executor.batch import BatchExpressionCompiler, RowBatch
from repro.executor.executor import Executor
from repro.governor import CancelToken
from repro.sql import ast
from tests.conftest import build_mini_db
from tests.test_executor_equivalence import SUBQUERIES, do_work, exact


class _CountingCtx(list):
    """A runtime context that counts slot reads."""

    reads = 0

    def __getitem__(self, index):
        _CountingCtx.reads += 1
        return super().__getitem__(index)


def _host(ctx):
    return types.SimpleNamespace(
        current_runtime=types.SimpleNamespace(ctx=ctx))


def _column(entry, position=0):
    return ast.ColumnRef("t", f"c{position}", entry, position)


class TestBoundCodegen:
    def test_bare_bound_column_replicates_the_bound_value(self):
        ctx = [None, None, (7, "x")]
        fn = BatchExpressionCompiler(_host(ctx)).compile(
            _column(2, 1), frozenset({0}), frozenset({2}))
        assert fn(RowBatch({0: [(1,), (2,), (3,)]}, 3)) == ["x"] * 3
        # Not the bare-column comprehension: that would read the batch.
        assert "_ctx" in fn._batch_source

    def test_bound_read_beside_batch_columns(self):
        ctx = [None, None, (10,)]
        expr = ast.BinaryExpr(ast.BinOp.GT, _column(0), _column(2))
        fn = BatchExpressionCompiler(_host(ctx)).compile(
            expr, frozenset({0}), frozenset({2}))
        batch = RowBatch({0: [(5,), (11,), (None,), None]}, 4)
        assert fn(batch) == [False, True, None, None]

    def test_bound_slot_is_read_once_per_call(self):
        ctx = _CountingCtx([None, None, (10,)])
        expr = ast.BinaryExpr(ast.BinOp.GT, _column(0), _column(2))
        fn = BatchExpressionCompiler(_host(ctx)).compile_filter(
            [expr], frozenset({0}), frozenset({2}))
        _CountingCtx.reads = 0
        fn(RowBatch({0: [(n,) for n in range(50)]}, 50))
        assert _CountingCtx.reads == 1

    def test_bound_read_inside_a_row_invariant_expression(self):
        ctx = _CountingCtx([None, (4,)])
        expr = ast.BinaryExpr(ast.BinOp.MUL, _column(1),
                              ast.Literal(3))
        fn = BatchExpressionCompiler(_host(ctx)).compile(
            expr, frozenset({0}), frozenset({1}))
        _CountingCtx.reads = 0
        assert fn(RowBatch({0: [(1,), (2,)]}, 2)) == [12, 12]
        assert _CountingCtx.reads == 1
        # No rows, no evaluation — and no context read.
        assert fn(RowBatch({0: []}, 0)) == []
        assert _CountingCtx.reads == 1

    def test_null_bound_value(self):
        expr = ast.BinaryExpr(ast.BinOp.LT, _column(0), _column(1))
        for bound_row in (None, (None,)):
            ctx = [None, bound_row]
            fn = BatchExpressionCompiler(_host(ctx)).compile(
                expr, frozenset({0}), frozenset({1}))
            assert fn(RowBatch({0: [(1,), (2,)]}, 2)) == [None, None]
            bare = BatchExpressionCompiler(_host(ctx)).compile(
                _column(1), frozenset({0}), frozenset({1}))
            assert bare(RowBatch({0: [(1,)]}, 1)) == [None]

    def test_unbound_read_outside_the_subtree_is_refused(self):
        compiler = BatchExpressionCompiler(_host([None] * 3))
        with pytest.raises(ExecutionError, match=r"entries \[2\]"):
            compiler.compile(_column(2), frozenset({0}), frozenset({1}))

    def test_a_batch_entry_is_never_read_from_the_context(self):
        # An entry both in the batch and bound is read from the batch.
        fn = BatchExpressionCompiler(_host([None])).compile(
            _column(0), frozenset({0}), frozenset({0}))
        assert "_ctx" not in fn._batch_source
        assert fn(RowBatch({0: [(3,)]}, 1)) == [3]


#: A derived table correlated only to a body's bound entry: under Orca
#: it becomes the body's driver, and must re-materialise per distinct
#: correlation value, not serve the first call's rows to every row.
DRIVER_DERIVED = SUBQUERIES[11]

#: A correlated subquery nested in another, reading the outermost row
#: two levels down.
DOUBLY_NESTED = SUBQUERIES[12]


@pytest.fixture(scope="module", params=[1024, 8], ids=["batch1024", "batch8"])
def sized_db(request):
    return build_mini_db(seed=37, orders=150,
                         config=DatabaseConfig(batch_size=request.param))


class TestBoundStatements:
    def test_the_pinned_statements_have_their_shapes(self):
        assert "l_quantity < c_acctbal / 100" in DRIVER_DERIVED
        assert "l_quantity * 100 < c_acctbal" in DOUBLY_NESTED

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_body_driven_by_a_correlated_derived_table(self, sized_db,
                                                       optimizer):
        row = do_work(sized_db, DRIVER_DERIVED, optimizer, "row")
        batch = do_work(sized_db, DRIVER_DERIVED, optimizer, "batch")
        assert batch == row
        assert len(batch[0]) == 27

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_doubly_nested_correlation(self, sized_db, optimizer):
        row = do_work(sized_db, DOUBLY_NESTED, optimizer, "row")
        batch = do_work(sized_db, DOUBLY_NESTED, optimizer, "batch")
        assert batch == row


#: Nested loops whose inner side is a table scan filtered on the outer
#: row — re-run per outer row with the outer entries bound — of every
#: join kind, with the kind each plans under MySQL.
REBOUND_LOOPS = [
    ("semi", "SELECT c_name FROM customer WHERE EXISTS "
     "(SELECT 1 FROM part WHERE p_size * 100 > c_acctbal)"),
    ("antijoin", "SELECT c_name FROM customer WHERE NOT EXISTS "
     "(SELECT 1 FROM part WHERE p_size * 100 > c_acctbal)"),
    ("semi", "SELECT o_orderkey FROM orders WHERE EXISTS "
     "(SELECT 1 FROM customer WHERE c_acctbal > o_totalprice)"),
    ("left", "SELECT c_name, p_partkey FROM customer LEFT JOIN part "
     "ON p_size * 100 > c_acctbal AND p_partkey < 5"),
    ("inner", "SELECT c_name, p_partkey FROM customer JOIN part "
     "ON p_size * 100 > c_acctbal WHERE p_partkey + c_custkey < 40"),
]


def _rebound_kinds(db, sql, optimizer):
    from repro.executor.plan import NestedLoopJoinNode

    executor = db._compile(sql, optimizer)[0]
    executor.ensure_batch_lowered()
    return {node.kind.value for node in executor.iter_plan_nodes()
            if isinstance(node, NestedLoopJoinNode) and not node.bx_probe}


class TestReboundNestedLoops:
    @pytest.mark.parametrize("kind, sql", REBOUND_LOOPS)
    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_same_rows_actuals_and_counters(self, sized_db, kind, sql,
                                            optimizer):
        # MySQL plans each of them as such a loop; Orca may not.
        if optimizer == "mysql":
            assert kind in _rebound_kinds(sized_db, sql, optimizer)
        row = do_work(sized_db, sql, optimizer, "row")
        batch = do_work(sized_db, sql, optimizer, "batch")
        assert batch == row

    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    def test_tpch_q22_antijoin(self, optimizer):
        from repro.workloads.tpch import TPCH_QUERIES, load_tpch

        db = Database()
        load_tpch(db, scale=0.02)
        sql = TPCH_QUERIES[22]
        assert "antijoin" in _rebound_kinds(db, sql, optimizer)
        assert do_work(db, sql, optimizer, "batch") \
            == do_work(db, sql, optimizer, "row")


# ---------------------------------------------------------------------------
# The whole corpus, row reference against batch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[1024, 8], ids=["batch1024", "batch8"])
def corpus_dbs(request):
    from repro.workloads.tpcds import load_tpcds
    from repro.workloads.tpch import load_tpch

    config = dict(batch_size=request.param)
    tpch = Database(DatabaseConfig(**config))
    load_tpch(tpch, scale=0.05)
    tpcds = Database(DatabaseConfig(**config))
    load_tpcds(tpcds, scale=0.2)
    return tpch, tpcds


@pytest.mark.parametrize("optimizer", ["mysql", "orca"])
def test_every_corpus_statement_does_the_row_reference_work(
        corpus_dbs, optimizer, force_fanout):
    """Row, batch and two fork workers: the same rows bit for bit, the
    same per-node actuals and storage counters."""
    from repro.workloads.tpcds import TPCDS_QUERIES
    from repro.workloads.tpch import TPCH_QUERIES

    tpch, tpcds = corpus_dbs
    for name, db, queries in (("h", tpch, TPCH_QUERIES),
                              ("ds", tpcds, TPCDS_QUERIES)):
        for number, sql in sorted(queries.items()):
            row = exact(do_work(db, sql, optimizer, "row"))
            assert exact(do_work(db, sql, optimizer, "batch")) == row, \
                f"{name}{number}"
            assert exact(do_work(db, sql, optimizer, "batch", 2)) == row, \
                f"{name}{number} with 2 workers"


# ---------------------------------------------------------------------------
# No row plan in a batch execution
# ---------------------------------------------------------------------------

def _plan_node_classes():
    pending = [plan_module.PlanNode]
    found = []
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def test_a_batch_execution_never_enters_a_row_plan(monkeypatch):
    from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds

    db = Database()
    load_tpcds(db, scale=0.05)
    mini = build_mini_db(seed=37, orders=150)
    entered = []

    def refuse(self, runtime):
        entered.append(type(self).__name__)
        raise AssertionError("row plan entered in a batch execution")

    for cls in _plan_node_classes():
        if "run" in vars(cls):
            monkeypatch.setattr(cls, "run", refuse)
    monkeypatch.setattr(plan_module.QueryPlan, "run", refuse)
    assert not hasattr(plan_module.NestedLoopJoinNode, "run_ctx")
    # ds1 / ds81: correlated derived tables re-run per outer row under
    # Orca; ds41 / ds9 / ds6: subquery bodies.
    for number in (1, 81, 41, 9, 6):
        for optimizer in ("mysql", "orca"):
            db.run(TPCDS_QUERIES[number], optimizer=optimizer)
    for sql in SUBQUERIES:
        for optimizer in ("mysql", "orca"):
            mini.run(sql, optimizer=optimizer)
    assert entered == []


# ---------------------------------------------------------------------------
# Kernel cache
# ---------------------------------------------------------------------------

def test_second_lowering_compiles_nothing(monkeypatch):
    db = build_mini_db(seed=37, orders=150)
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(batch_module, "compile", counting_compile,
                        raising=False)
    sql = SUBQUERIES[12]
    first = db.run(sql, use_plan_cache=False)
    before = len(calls)
    second = db.run(sql, use_plan_cache=False)
    assert second.rows == first.rows
    assert not second.plan_cache_hit
    assert len(calls) == before


def test_kernel_cache_respects_its_cap_oldest_first(monkeypatch):
    monkeypatch.setattr(batch_module, "_KERNELS", {})
    monkeypatch.setattr(batch_module, "KERNEL_CACHE_CAPACITY", 3)
    compiler = BatchExpressionCompiler()
    sources = []
    for position in range(5):
        fn = compiler.compile(_column(0, position), frozenset({0}))
        sources.append(fn._batch_source)
        assert fn(RowBatch({0: [tuple(range(5))]}, 1)) == [position]
    assert list(batch_module._KERNELS) == sources[2:]


# ---------------------------------------------------------------------------
# Governance inside a body
# ---------------------------------------------------------------------------

#: One body run per customer, each scanning orders.
PER_ROW_BODY = ("SELECT c_name, (SELECT COUNT(*) FROM orders "
                "WHERE o_custkey = c_custkey) FROM customer")


@pytest.fixture
def body_spy(monkeypatch):
    """Records each body call, and the typed error one raised."""
    record = {"calls": 0, "raised": None, "before_call": None}
    original = Executor.run_block

    def spy(self, block, runtime):
        record["calls"] += 1
        if record["before_call"] is not None:
            record["before_call"](record["calls"])
        try:
            return original(self, block, runtime)
        except (StatementCancelledError, DeadlineExceededError) as error:
            record["raised"] = type(error)
            raise

    monkeypatch.setattr(Executor, "run_block", spy)
    return record


def test_cancel_inside_a_body_aborts_typed(body_spy):
    db = build_mini_db(seed=37, orders=150)
    token = CancelToken(cancel_after_checks=12)
    with pytest.raises(StatementCancelledError):
        db.run(PER_ROW_BODY, optimizer="mysql", use_plan_cache=False,
               cancel_token=token)
    assert body_spy["raised"] is StatementCancelledError
    assert body_spy["calls"] > 1
    assert len(db.run(PER_ROW_BODY, optimizer="mysql").rows) == 30


def test_deadline_inside_a_body_aborts_typed(body_spy):
    db = build_mini_db(seed=37, orders=150)

    def stall(call):
        if call == 3:
            time.sleep(0.3)

    body_spy["before_call"] = stall
    with pytest.raises(DeadlineExceededError):
        db.run(PER_ROW_BODY, optimizer="mysql", use_plan_cache=False,
               timeout_seconds=0.25)
    assert body_spy["raised"] is DeadlineExceededError


def test_body_hash_aggregate_charge_matches_the_row_engine():
    db = build_mini_db(seed=37, orders=150)
    sql = ("SELECT c_name FROM customer WHERE c_custkey IN "
           "(SELECT o_custkey FROM orders WHERE o_totalprice > c_acctbal "
           "GROUP BY o_custkey HAVING COUNT(*) > 1)")
    peaks = {}
    for mode in ("row", "batch"):
        result = db.run(sql, optimizer="mysql", executor_mode=mode,
                        use_plan_cache=False)
        peaks[mode] = (result.rows,
                       result.governor_stats["peak_tracked_bytes"])
    assert peaks["batch"] == peaks["row"]
    assert peaks["batch"][1] > 0
