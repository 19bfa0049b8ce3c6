"""Morsel-driven parallel pre-aggregation: the costed fan-out gate,
identical results, governed aborts.

The referee for the parallel engine is the serial batch engine: for
every query in the equivalence corpus, any worker count must produce
*bit-identical* rows in the same order, on both optimizers.  Whether an
eligible operator fans out is a pure, deterministic cost decision;
governor bounds must hold inside workers (a deadline, cancel, or memory
abort mid-morsel surfaces as the same typed error a serial run raises);
staying serial is recorded as a decision on the ``execute`` span, never
as a fallback.

Small test tables sit far on the serial side of the gate, so tests that
exercise the fork path use the ``force_fanout`` fixture (conftest),
which zeroes the gate's cost constants.
"""

import os
import random
import time
from types import SimpleNamespace

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    ReproError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.executor import parallel
from repro.executor.parallel import (
    ParallelContext,
    _decode_error,
    _encode_error,
    _pick_error,
    fanout_decision,
)
from repro.governor import CancelToken, ExecutionGovernor
from repro.mysql_types import MySQLType
from repro.observability import find_spans
from repro.resilience import FallbackReason
from repro.workloads.tpch import load_tpch, tpch_query
from tests.conftest import build_mini_db
from tests.test_executor_equivalence import CORPUS


def parallel_config(**overrides) -> DatabaseConfig:
    """Small chunks so even the mini db has many morsels per scan."""
    options = dict(complex_query_threshold=3, batch_size=32)
    options.update(overrides)
    return DatabaseConfig(**options)


def decision_of(result) -> dict:
    """The ``parallel_*`` attributes of a traced result's execute span."""
    attrs = find_spans(result.trace, "execute")[0].attributes
    return {name: value for name, value in attrs.items()
            if name.startswith("parallel_")}


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=37, orders=150, config=parallel_config())


@pytest.mark.usefixtures("force_fanout")
class TestBitIdentity:
    """Parallel rows must equal serial rows exactly — same values, same
    order — because the merge replays the serial fold in chunk order."""

    @pytest.mark.parametrize("sql", CORPUS)
    def test_workers_4_matches_serial(self, db, sql):
        serial = db.run(sql, executor_mode="batch", use_plan_cache=False)
        par = db.run(sql, executor_mode="batch", use_plan_cache=False,
                     executor_workers=4)
        assert par.rows == serial.rows
        assert par.executor_mode == serial.executor_mode

    @pytest.mark.parametrize("sql", CORPUS)
    def test_both_optimizers(self, db, sql):
        for optimizer in ("mysql", "orca"):
            serial = db.run(sql, optimizer=optimizer,
                            executor_mode="batch", use_plan_cache=False)
            par = db.run(sql, optimizer=optimizer, executor_mode="batch",
                         use_plan_cache=False, executor_workers=4)
            assert par.rows == serial.rows, optimizer

    def test_worker_counts_agree(self, db):
        sql = ("SELECT o_status, COUNT(*), SUM(o_totalprice), "
               "AVG(o_totalprice) FROM orders WHERE o_totalprice > 500 "
               "GROUP BY o_status ORDER BY o_status")
        reference = db.run(sql, executor_mode="batch",
                           use_plan_cache=False).rows
        for workers in (2, 3, 4, 8):
            got = db.run(sql, executor_mode="batch", use_plan_cache=False,
                         executor_workers=workers).rows
            assert got == reference, workers

    def test_counters_match_across_worker_counts(self, db):
        sql = ("SELECT COUNT(*), SUM(o_totalprice) FROM orders "
               "WHERE o_totalprice > 500")
        db.storage.counters.reset()
        db.run(sql, executor_mode="batch", use_plan_cache=False)
        serial_counts = db.storage.counters.snapshot()
        db.storage.counters.reset()
        db.run(sql, executor_mode="batch", use_plan_cache=False,
               executor_workers=4)
        assert db.storage.counters.snapshot() == serial_counts


class TestConfigValidation:
    def test_batch_size_floor(self):
        with pytest.raises(ReproError, match="batch_size"):
            DatabaseConfig(batch_size=0)

    def test_workers_floor(self):
        with pytest.raises(ReproError, match="executor_workers"):
            DatabaseConfig(executor_workers=0)

    @pytest.mark.parametrize("option", ["parallel_backend",
                                        "parallel_min_table_rows"])
    def test_removed_knobs_are_unknown_options(self, option):
        with pytest.raises(TypeError, match=option):
            DatabaseConfig(**{option: 1})

    def test_per_statement_workers_validated(self, db):
        with pytest.raises(ReproError, match="executor_workers"):
            db.run("SELECT 1", executor_workers=0)


@pytest.mark.usefixtures("force_fanout")
class TestObservability:
    def test_morsel_metrics(self, db):
        before = db.metrics.count("executor.morsels")
        fanned = db.metrics.count("executor.parallel_fanout")
        result = db.run(
            "SELECT COUNT(*) FROM orders WHERE o_totalprice > 500",
            executor_mode="batch", use_plan_cache=False,
            executor_workers=4)
        assert result.executor_mode == "batch"
        assert db.metrics.count("executor.morsels") > before
        assert db.metrics.count("executor.parallel_workers") >= 2
        assert db.metrics.count("executor.parallel_fanout") == fanned + 1

    def test_explain_analyze_reports_workers(self, db):
        text = db.explain_analyze(
            "SELECT COUNT(*), SUM(o_totalprice) FROM orders "
            "WHERE o_totalprice > 500",
            executor_mode="batch", executor_workers=4)
        assert "workers=4" in text

    def test_serial_explain_has_no_workers(self, db):
        text = db.explain_analyze(
            "SELECT COUNT(*) FROM orders WHERE o_totalprice > 500",
            executor_mode="batch")
        assert "workers=" not in text


class TestDecisionIsNotAFallback:
    """Serial-kept statements carry a decision on the execute span and
    write nothing to the fallback log."""

    AGG = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 500"
    SCAN = "SELECT c_name FROM customer WHERE c_acctbal > 0"

    def run(self, db, sql, workers=4):
        return db.run(sql, executor_mode="batch", use_plan_cache=False,
                      executor_workers=workers, trace=True)

    def test_small_table_is_gated_by_cost(self, db):
        events = len(db.fallback_log.events)
        gated = db.metrics.count("executor.parallel_gated")
        decision = decision_of(self.run(db, self.AGG, workers=2))
        assert decision["parallel_decision"] == "serial:cost"
        assert decision["parallel_est_fanout_ms"] \
            > decision["parallel_est_serial_ms"] > 0
        assert db.metrics.count("executor.parallel_gated") == gated + 1
        assert len(db.fallback_log.events) == events

    def test_ineligible_plan_is_serial_by_shape(self, db, force_fanout):
        events = len(db.fallback_log.events)
        decision = decision_of(self.run(db, self.SCAN))
        assert decision == {"parallel_decision": "serial:shape"}
        assert len(db.fallback_log.events) == events

    #: Pre-aggregations over a bare scan whose filter, group key or
    #: argument holds a subquery expression, each under the optimizer
    #: whose plan has that shape.
    SUBQUERY_AGGS = [
        ("mysql", "SELECT COUNT(*) FROM orders "
         "WHERE o_totalprice > (SELECT AVG(c_acctbal) FROM customer)"),
        ("orca", "SELECT COUNT(*) FROM orders GROUP BY (SELECT MAX(c_acctbal) "
         "FROM customer WHERE c_custkey = o_custkey) > 2000"),
        ("orca", "SELECT o_status, SUM(CASE WHEN EXISTS (SELECT 1 FROM "
         "customer WHERE c_custkey = o_custkey AND c_acctbal > 2000) "
         "THEN 1 ELSE 0 END) FROM orders GROUP BY o_status"),
    ]

    @pytest.mark.parametrize("optimizer, sql", SUBQUERY_AGGS)
    def test_subquery_expressions_never_fan_out(self, db, force_fanout,
                                                optimizer, sql):
        # A forked worker would run the subquery body: its storage
        # counters would never reach the parent.
        results, counters = {}, {}
        for workers in (1, 2):
            db.storage.counters.reset()
            results[workers] = db.run(
                sql, optimizer=optimizer, use_plan_cache=False,
                executor_workers=workers, trace=True)
            counters[workers] = db.storage.counters.snapshot()
        assert decision_of(results[2]) == {"parallel_decision": "serial:shape"}
        assert results[2].rows == results[1].rows
        assert counters[2] == counters[1]

    def test_fanout_records_both_estimates(self, db, force_fanout):
        decision = decision_of(self.run(db, self.AGG))
        assert decision["parallel_decision"] == "fanout"
        assert decision["parallel_est_fanout_ms"] \
            < decision["parallel_est_serial_ms"]
        assert decision["parallel_workers"] == 4

    def test_one_worker_sets_no_decision(self, db):
        assert decision_of(self.run(db, self.AGG, workers=1)) == {}

    def test_explain_analyze_footer_prints_the_decision(self, db):
        text = db.explain_analyze(self.AGG, executor_mode="batch",
                                  executor_workers=2)
        assert "parallel: serial:cost (estimated serial" in text
        assert "workers=" not in text

    def test_not_parallel_safe_reason_is_gone(self):
        assert not hasattr(FallbackReason, "EXEC_NOT_PARALLEL_SAFE")


class TestFanoutGate:
    """The decision itself, against the committed constants."""

    def test_decision_is_a_pure_function(self):
        inputs = dict(rows=200_000, groups=4, exprs=11, workers=2,
                      morsels=196)
        first = fanout_decision(**inputs)
        assert fanout_decision(**inputs) == first
        assert first.fanout and first.fanout_ms < first.serial_ms
        # More rows of the same shape never flip a fan-out back.
        bigger = fanout_decision(**dict(inputs, rows=400_000, morsels=391))
        assert bigger.fanout
        # One worker, or nothing to share, is never a fan-out.
        assert not fanout_decision(**dict(inputs, workers=1)).fanout
        assert not fanout_decision(0, 1, 2, 2, 0).fanout

    def test_cheap_fragments_never_fan_out(self):
        # A filter plus one aggregate offloads less per row than the
        # copy-on-write penalty costs, whatever the table size.
        for rows in (10_000, 1_000_000, 100_000_000):
            assert not fanout_decision(rows, 1, 2, 2, rows // 1024).fanout

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_repeat_queries_stay_serial_at_benchmark_scale(
            self, scale, monkeypatch):
        monkeypatch.setattr(parallel, "USABLE_CPUS", 2)
        db = Database()
        load_tpch(db, scale=scale)
        for number in (1, 6, 12, 14, 3, 5, 10, 13):  # e2e REPEAT_QUERIES
            serial = db.run(tpch_query(number), executor_workers=1)
            par = db.run(tpch_query(number), executor_workers=2)
            assert par.rows == serial.rows, number
        assert db.metrics.count("executor.morsels") == 0
        assert db.metrics.count("executor.parallel_fanout") == 0

    @pytest.fixture(scope="class")
    def wide_db(self):
        """48k rows x 8 measures: past the break-even for a wide
        low-cardinality GROUP BY on two workers."""
        db = Database()
        db.create_table(TableSchema("wide", [
            Column.of("k", MySQLType.LONGLONG, nullable=False),
            Column.of("g", MySQLType.LONG, nullable=False),
            Column.of("h", MySQLType.LONG, nullable=False),
        ] + [Column.of(f"v{i}", MySQLType.DOUBLE, nullable=False)
             for i in range(8)], [Index("PRIMARY", ("k",), primary=True)]))
        rng = random.Random(5)
        db.load("wide", [
            (k, k % 3, k % 2) + tuple(rng.uniform(0, 100) for __ in range(8))
            for k in range(48_000)])
        db.analyze()
        return db

    AGGS = ", ".join(f"SUM(v{i})" for i in range(6)) + ", AVG(v6), COUNT(*)"

    def run_both(self, db, sql, monkeypatch):
        monkeypatch.setattr(parallel, "USABLE_CPUS", 2)
        assert "(hash)" in db.explain(sql, optimizer="orca")
        serial = db.run(sql, optimizer="orca", use_plan_cache=False)
        par = db.run(sql, optimizer="orca", use_plan_cache=False,
                     executor_workers=2, trace=True)
        return serial, par

    def test_wide_group_by_fans_out_bit_identical(self, wide_db,
                                                  monkeypatch):
        sql = (f"SELECT g, h, {self.AGGS} FROM wide WHERE v7 >= 1 "
               f"GROUP BY g, h")
        serial, par = self.run_both(wide_db, sql, monkeypatch)
        assert decision_of(par)["parallel_decision"] == "fanout"
        assert par.rows == serial.rows

    def test_high_cardinality_group_by_stays_serial(self, wide_db,
                                                    monkeypatch):
        # Same table, same aggregates, but one group per row: every
        # row's partial state would be shipped back.
        sql = f"SELECT k, h, {self.AGGS} FROM wide WHERE v7 >= 1 " \
              f"GROUP BY k, h"
        serial, par = self.run_both(wide_db, sql, monkeypatch)
        decision = decision_of(par)
        assert decision["parallel_decision"] == "serial:cost"
        assert decision["parallel_est_fanout_ms"] \
            > 2 * decision["parallel_est_serial_ms"]
        assert par.rows == serial.rows

    def test_platform_without_fork_runs_serial(self, db, force_fanout,
                                               monkeypatch):
        monkeypatch.delattr(os, "fork")
        sql = ("SELECT o_status, COUNT(*), SUM(o_totalprice) FROM orders "
               "GROUP BY o_status ORDER BY o_status")
        serial = db.run(sql, executor_mode="batch", use_plan_cache=False)
        par = db.run(sql, executor_mode="batch", use_plan_cache=False,
                     executor_workers=4, trace=True)
        assert par.rows == serial.rows
        assert decision_of(par) == {"parallel_decision": "serial:nofork"}


@pytest.mark.usefixtures("force_fanout")
class TestGovernedAborts:
    """Bounds must hold *inside* workers and surface as the same typed
    errors serial execution raises — never a raw pickle/OS escape."""

    def test_memory_breach_mid_parallel_merge(self):
        db = build_mini_db(seed=37, orders=150, config=parallel_config())
        # One group per order: the parent's merge charges far more
        # than the 2 KB cap while folding the workers' partials.  The
        # breach surfaces as a typed hash_agg error — the only one the
        # streaming retry answers — and the serial retry gets the rows.
        sql = ("SELECT l_orderkey, COUNT(*), SUM(l_quantity) "
               "FROM lineitem GROUP BY l_orderkey")
        result = db.run(sql, optimizer="orca", executor_mode="batch",
                        use_plan_cache=False, executor_workers=4,
                        memory_limit_bytes=2000)
        assert result.low_memory_retry
        assert db.metrics.count("governor.stream_agg_retries") == 1
        assert db.metrics.count("executor.worker_morsels") > 0
        assert db.fallback_log.count(
            FallbackReason.RESOURCE_EXHAUSTED) >= 1
        assert sorted(result.rows) == sorted(
            db.run(sql, optimizer="orca", use_plan_cache=False).rows)

    def test_cancel_token_aborts_parallel_statement(self):
        db = build_mini_db(seed=37, orders=150, config=parallel_config())
        sql = ("SELECT o_status, COUNT(*) FROM orders "
               "WHERE o_totalprice > 0 GROUP BY o_status")
        token = CancelToken(cancel_after_checks=12, reason="test abort")
        with pytest.raises(StatementCancelledError):
            db.run(sql, executor_mode="batch", use_plan_cache=False,
                   executor_workers=4, cancel_token=token)
        assert db.fallback_log.count(
            FallbackReason.STATEMENT_CANCELLED) == 1

    def test_deadline_trips_inside_fork_worker(self):
        governor = ExecutionGovernor(timeout_seconds=0.005)
        runtime = SimpleNamespace(governor=governor)
        context = ParallelContext(2)

        def slow_task(index):
            time.sleep(0.02)
            return 1, [index]

        with pytest.raises(DeadlineExceededError) as err:
            context._run_morsels(runtime, list(range(8)), slow_task, 2)
        assert err.value.stage == "parallel"

    def test_cancel_trips_inside_fork_worker(self):
        token = CancelToken(cancel_after_checks=2, reason="stop now")
        governor = ExecutionGovernor(cancel_token=token)
        runtime = SimpleNamespace(governor=governor)
        context = ParallelContext(2)
        with pytest.raises(StatementCancelledError) as err:
            context._run_morsels(runtime, list(range(8)),
                                 lambda index: (1, [index]), 2)
        assert err.value.reason == "stop now"

    def test_worker_crash_surfaces_as_execution_error(self):
        runtime = SimpleNamespace(governor=None)
        context = ParallelContext(2)

        def crash(index):
            raise KeyError(f"morsel {index}")

        with pytest.raises(ExecutionError, match="KeyError"):
            context._run_morsels(runtime, list(range(8)), crash, 2)


class TestErrorTransport:
    """Governor errors have multi-arg constructors; the fork pipe ships
    them as typed tuples and rebuilds the exact type in the parent."""

    def test_roundtrip_preserves_type_and_state(self):
        cases = [
            StatementCancelledError("user asked", "parallel"),
            DeadlineExceededError(1.5, 1.0, "parallel"),
            ResourceExhaustedError("hash_join_build", 4096, 1024),
            KeyError("boom"),
        ]
        decoded = [_decode_error(_encode_error(exc)) for exc in cases]
        assert isinstance(decoded[0], StatementCancelledError)
        assert decoded[0].reason == "user asked"
        assert isinstance(decoded[1], DeadlineExceededError)
        assert decoded[1].budget == 1.0
        assert isinstance(decoded[2], ResourceExhaustedError)
        assert decoded[2].operator == "hash_join_build"
        assert isinstance(decoded[3], ExecutionError)

    def test_priority_prefers_cancel_over_timeout(self):
        errors = [_encode_error(DeadlineExceededError(1.0, 1.0, None)),
                  _encode_error(StatementCancelledError("stop", None)),
                  _encode_error(KeyError("x"))]
        assert _pick_error(errors)[0] == "cancel"


class TestCrossProcessCancel:
    def test_shared_flag_visible_through_property(self):
        token = CancelToken()
        token.enable_cross_process()
        assert not token.cancelled
        # Simulate a child (or sibling) setting only the shared cell.
        token._shared.value = 1
        assert token.cancelled

    def test_cancel_sets_shared_cell(self):
        token = CancelToken()
        token.enable_cross_process()
        token.cancel("bye")
        assert token._shared.value == 1

    def test_enable_after_cancel_carries_state(self):
        token = CancelToken()
        token.cancel()
        token.enable_cross_process()
        assert token._shared.value == 1


@pytest.mark.usefixtures("force_fanout")
class TestLowMemoryRetryStaysSerial:
    def test_hash_agg_breach_retries_serial(self):
        db = build_mini_db(seed=37, orders=150, config=parallel_config())
        # Orca plans this as a hash aggregate (the MySQL path prefers
        # sort+stream here), which is the one shape with a degradation
        # path: breach -> forced-stream retry, which must run serial.
        sql = ("SELECT l_orderkey, COUNT(*), SUM(l_quantity) "
               "FROM lineitem GROUP BY l_orderkey")
        assert "(hash)" in db.explain(sql, optimizer="orca")
        plain = db.run(sql, optimizer="orca", executor_mode="batch",
                       use_plan_cache=False)
        baseline = db.run(sql, optimizer="orca", executor_mode="batch",
                          use_plan_cache=False,
                          memory_limit_bytes=10 ** 9)
        limit = max(1000,
                    baseline.governor_stats["peak_tracked_bytes"] // 3)
        result = db.run(sql, optimizer="orca", executor_mode="batch",
                        use_plan_cache=False, executor_workers=4,
                        memory_limit_bytes=limit)
        assert result.low_memory_retry
        assert sorted(result.rows) == sorted(plain.rows)
