"""Execution governance: deadlines, cancellation, memory accounting.

The execution governor is the execute-stage counterpart of PR 1's
optimize-stage containment: every statement can carry a wall-clock
deadline, a cooperative cancel token, and a tracked-memory cap, all
enforced at cooperative checkpoints in both executor engines and at
every compile-stage boundary.  These tests prove the bounds fire at
each pipeline stage, that an aborted statement leaves the Database
exactly as if it never ran (plan cache, ledger streaks, storage), and
that the one graceful-degradation path — a hash-aggregate memory
breach retrying as a streaming aggregate — returns identical rows.
"""

import threading
import time

import pytest

from repro import (
    CancelToken,
    Database,
    DatabaseConfig,
    FallbackReason,
    FaultInjector,
    governor,
)
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    GovernorError,
    ReproError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.governor import ExecutionGovernor, MemoryAccountant, approx_row_bytes
from repro.resilience import CompileBudget, classify_execution_exception

from tests.conftest import build_mini_db

JOIN_SQL = """
SELECT COUNT(*) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
"""

AGG_SQL = ("SELECT l_orderkey, COUNT(*), SUM(l_quantity) "
           "FROM lineitem GROUP BY l_orderkey")


@pytest.fixture()
def db():
    return build_mini_db(seed=71, orders=80)


def assert_db_clean_and_reusable(db, expected, sql=JOIN_SQL):
    """The contract after any abort: same Database, same answers."""
    result = db.run(sql)
    assert result.rows == expected


# -- governor unit behaviour ----------------------------------------------------------


class TestGovernorUnits:
    def test_deadline_raises_typed_error(self):
        clock = iter([0.0, 10.0]).__next__
        gov = ExecutionGovernor(timeout_seconds=5.0, clock=clock)
        with pytest.raises(DeadlineExceededError) as info:
            gov.checkpoint(stage="execute")
        assert info.value.elapsed == pytest.approx(10.0)
        assert info.value.budget == pytest.approx(5.0)
        assert "execute" in str(info.value)

    def test_cancellation_wins_over_deadline(self):
        clock = iter([0.0, 10.0]).__next__
        gov = ExecutionGovernor(timeout_seconds=5.0, clock=clock)
        gov.cancel("killed by test")
        with pytest.raises(StatementCancelledError) as info:
            gov.checkpoint()
        assert "killed by test" in str(info.value)

    def test_cancel_after_checks_is_deterministic(self):
        gov = ExecutionGovernor(
            cancel_token=CancelToken(cancel_after_checks=3))
        gov.checkpoint()
        gov.checkpoint()
        with pytest.raises(StatementCancelledError):
            gov.checkpoint()

    def test_cancel_after_checks_validates(self):
        with pytest.raises(ValueError):
            CancelToken(cancel_after_checks=0)

    def test_tick_amortises_to_interval(self):
        gov = ExecutionGovernor(check_interval=10,
                                cancel_token=CancelToken(
                                    cancel_after_checks=1))
        for __ in range(9):
            gov.tick()
        with pytest.raises(StatementCancelledError):
            gov.tick()

    def test_wrap_rows_checkpoints_mid_stream(self):
        gov = ExecutionGovernor(check_interval=4,
                                cancel_token=CancelToken(
                                    cancel_after_checks=1))
        out = []
        with pytest.raises(StatementCancelledError):
            for row in gov.wrap_rows(range(100)):
                out.append(row)
        assert out == [0, 1, 2]

    def test_memory_accountant_charges_and_releases(self):
        acct = MemoryAccountant(limit_bytes=1000)
        acct.charge(600, "sort")
        acct.charge(300, "sort")
        assert acct.tracked_bytes == 900
        assert acct.peak_bytes == 900
        with pytest.raises(ResourceExhaustedError) as info:
            acct.charge(200, "hash_join_build")
        assert info.value.operator == "hash_join_build"
        assert acct.breach_operator == "hash_join_build"
        acct.release(1100)
        assert acct.tracked_bytes == 0
        assert acct.peak_bytes == 1100

    def test_spillable_charge_never_raises(self):
        acct = MemoryAccountant(limit_bytes=100)
        acct.charge(500, "sort", spillable=True)
        assert acct.spill_events == 1
        assert acct.spilled_bytes == 500

    def test_cap_compile_budget_takes_tighter_bound(self):
        clock = iter([0.0, 1.0, 1.0]).__next__
        gov = ExecutionGovernor(timeout_seconds=3.0, clock=clock)
        budget = CompileBudget(seconds=60.0)
        assert gov.cap_compile_budget(budget).seconds == pytest.approx(2.0)
        loose = ExecutionGovernor(timeout_seconds=100.0)
        kept = CompileBudget(seconds=0.5)
        assert loose.cap_compile_budget(kept).seconds == pytest.approx(0.5)

    def test_approx_row_bytes_handles_odd_values(self):
        assert approx_row_bytes(None) > 0
        assert approx_row_bytes((1, "abc", None)) > 0
        assert approx_row_bytes((1, 2)) < approx_row_bytes(
            tuple("x" * 100 for __ in range(10)))

    def test_classification_covers_every_abort_type(self):
        assert classify_execution_exception(
            DeadlineExceededError(1.0, 0.5)) is \
            FallbackReason.DEADLINE_EXCEEDED
        assert classify_execution_exception(
            StatementCancelledError()) is \
            FallbackReason.STATEMENT_CANCELLED
        assert classify_execution_exception(
            ResourceExhaustedError("sort", 10, 5)) is \
            FallbackReason.RESOURCE_EXHAUSTED
        assert classify_execution_exception(
            ExecutionError("boom")) is FallbackReason.EXEC_RUNTIME_ERROR


# -- stage-boundary aborts ------------------------------------------------------------


class TestAbortAtEveryStage:
    """A pre-cancelled token (or zero deadline) aborts at the named
    stage; the same Database then runs the statement normally."""

    def test_cancelled_during_parse(self, db):
        expected = db.execute(JOIN_SQL)
        token = CancelToken()
        token.cancel("before parse")
        with pytest.raises(StatementCancelledError) as info:
            db.run(JOIN_SQL, use_plan_cache=False, cancel_token=token)
        assert info.value.stage == "parse"
        assert_db_clean_and_reusable(db, expected)

    def test_zero_deadline_aborts_immediately(self, db):
        expected = db.execute(JOIN_SQL)
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, use_plan_cache=False, timeout_seconds=0.0)
        assert_db_clean_and_reusable(db, expected)

    def test_cancelled_during_compile(self, db):
        expected = db.execute(JOIN_SQL)
        # Checkpoint 1 is parse; the second lands at a compile-stage
        # boundary (prepare / optimize / refine).
        token = CancelToken(cancel_after_checks=2)
        with pytest.raises(StatementCancelledError) as info:
            db.run(JOIN_SQL, use_plan_cache=False, cancel_token=token)
        assert info.value.stage in ("prepare", "orca_detour",
                                    "optimize", "refine")
        assert_db_clean_and_reusable(db, expected)

    def test_cancelled_between_batches(self, db):
        expected = db.execute(JOIN_SQL)
        # Far past every compile boundary: the batch engine's per-batch
        # checkpoint (ExecutionRuntime.note_batch) must notice.
        token = CancelToken(cancel_after_checks=7)
        with pytest.raises(StatementCancelledError):
            db.run(JOIN_SQL, use_plan_cache=False, cancel_token=token,
                   executor_mode="batch")
        assert_db_clean_and_reusable(db, expected)

    def test_cancelled_inside_row_mode_join_chain(self, db, monkeypatch):
        expected = db.execute(JOIN_SQL)
        # A tight check interval so the row engine's wrap_rows / tick
        # checkpoints fire on this small dataset; cancel lands well
        # past the four compile-stage checkpoints.
        monkeypatch.setattr(governor, "DEFAULT_CHECK_INTERVAL", 8)
        token = CancelToken(cancel_after_checks=7)
        with pytest.raises(StatementCancelledError):
            db.run(JOIN_SQL, use_plan_cache=False, cancel_token=token,
                   executor_mode="row")
        monkeypatch.undo()
        assert_db_clean_and_reusable(db, expected)

    def test_deadline_caps_compile_budget_in_detour(self, db):
        # A sleep injected into the memo search overruns the deadline;
        # because the governor caps the CompileBudget to the remaining
        # deadline the detour aborts as BUDGET_EXCEEDED (falling back
        # to MySQL), and the statement then dies at the next stage
        # checkpoint with the deadline error — never a hang.
        expected = db.execute(JOIN_SQL)
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "sleep", sleep_seconds=0.2)
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, optimizer="orca", use_plan_cache=False,
                   timeout_seconds=0.05)
        assert db.fallback_log.count(FallbackReason.BUDGET_EXCEEDED) == 1
        db.config.fault_injector = None
        assert_db_clean_and_reusable(db, expected)

    def test_cancelled_before_dml_leaves_storage_untouched(self, db):
        before = db.execute("SELECT COUNT(*) FROM orders")
        token = CancelToken(cancel_after_checks=2)
        with pytest.raises(StatementCancelledError) as info:
            db.run("INSERT INTO orders VALUES (9001, 1, 'O', 10.0, "
                   "DATE '1995-01-01', '1-PRIO', NULL)",
                   cancel_token=token)
        assert info.value.stage == "dml"
        assert db.execute("SELECT COUNT(*) FROM orders") == before


# -- cross-thread cancellation --------------------------------------------------------


class TestCancelApi:
    def test_cancel_unknown_statement_returns_false(self, db):
        assert db.cancel(999) is False

    def test_cancel_from_another_thread(self, db):
        # A cross join big enough (~80^2 * lines) that cancellation
        # always lands before completion at default checkpoints.
        sql = ("SELECT COUNT(*) FROM lineitem l1, lineitem l2, "
               "lineitem l3 WHERE l1.l_quantity + l2.l_quantity "
               "+ l3.l_quantity > -1")
        caught = {}
        started = threading.Event()

        def worker():
            started.set()
            try:
                db.run(sql, use_plan_cache=False)
            except GovernorError as exc:
                caught["error"] = exc

        thread = threading.Thread(target=worker)
        thread.start()
        started.wait(5.0)
        # Poll the registry until the statement shows up, then cancel.
        deadline = time.perf_counter() + 10.0
        cancelled = False
        while time.perf_counter() < deadline:
            active = db.active_statements()
            if active:
                sid = next(iter(active))
                assert "lineitem" in active[sid]
                cancelled = db.cancel(sid, "killed from main thread")
                if cancelled:
                    break
            time.sleep(0.005)
        thread.join(30.0)
        assert not thread.is_alive()
        assert cancelled
        assert isinstance(caught.get("error"), StatementCancelledError)
        assert "killed from main thread" in str(caught["error"])
        assert db.active_statements() == {}

    def test_statement_id_is_monotonic_and_reported(self, db):
        first = db.run("SELECT COUNT(*) FROM orders")
        second = db.run("SELECT COUNT(*) FROM orders")
        assert second.statement_id == first.statement_id + 1

    def test_governor_disabled_runs_ungoverned(self):
        db = Database(DatabaseConfig(governor_enabled=False))
        db2 = build_mini_db(seed=71, orders=20)
        db.catalog, db.storage = db2.catalog, db2.storage
        result = db.run("SELECT COUNT(*) FROM orders")
        assert result.governor_stats is None
        # Explicit bounds still create a governor on demand.
        bounded = db.run("SELECT COUNT(*) FROM orders",
                         timeout_seconds=30.0)
        assert bounded.governor_stats is not None


# -- memory governance ----------------------------------------------------------------


class TestMemoryGovernance:
    def test_join_build_breach_raises_typed_error(self, db):
        expected = db.execute(JOIN_SQL)
        with pytest.raises(ResourceExhaustedError) as info:
            db.run(JOIN_SQL, use_plan_cache=False,
                   memory_limit_bytes=2000)
        assert info.value.operator in ("hash_join_build", "sort",
                                       "hash_agg", "materialize")
        assert info.value.limit_bytes == 2000
        assert_db_clean_and_reusable(db, expected)

    def test_hash_agg_breach_degrades_to_streaming_retry(self, db):
        plain = db.run(AGG_SQL, optimizer="orca", use_plan_cache=False)
        assert "(hash)" in db.explain(AGG_SQL, optimizer="orca")
        assert plain.low_memory_retry is False
        peak = plain.governor_stats["peak_tracked_bytes"]
        assert peak > 0
        governed = db.run(AGG_SQL, optimizer="orca", use_plan_cache=False,
                          memory_limit_bytes=max(1000, peak // 3))
        assert governed.low_memory_retry is True
        assert governed.rows == plain.rows
        assert governed.governor_stats["low_memory"] is True
        assert db.metrics.count("governor.stream_agg_retries") == 1
        assert db.metrics.count("governor.mem_breaches") == 1
        assert db.fallback_log.count(
            FallbackReason.RESOURCE_EXHAUSTED) == 1

    WINDOW_SQL = ("SELECT o_orderkey, RANK() OVER (ORDER BY o_totalprice) "
                  "FROM orders")

    def test_window_buffer_is_charged_alike_in_both_modes(self, db):
        peaks = {mode: db.run(self.WINDOW_SQL, executor_mode=mode)
                 .governor_stats["peak_tracked_bytes"]
                 for mode in ("row", "batch")}
        assert peaks["row"] == peaks["batch"] > 0

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_window_buffer_breach_leaves_the_database_untouched(self, db,
                                                                mode):
        orders = list(db.storage.store("orders").scan())
        with pytest.raises(ResourceExhaustedError) as info:
            db.run(self.WINDOW_SQL, executor_mode=mode,
                   memory_limit_bytes=256)
        assert info.value.operator == "materialize"
        assert db.fallback_log.count(FallbackReason.RESOURCE_EXHAUSTED) == 1
        assert db.plan_cache.stats()["size"] == 0
        assert list(db.storage.store("orders").scan()) == orders
        assert len(db.run(self.WINDOW_SQL, executor_mode=mode).rows) \
            == len(orders)

    def test_memory_tracking_is_released_after_success(self, db):
        result = db.run(JOIN_SQL, use_plan_cache=False)
        stats = result.governor_stats
        assert stats["peak_tracked_bytes"] > 0
        assert stats["tracked_bytes"] == 0

    def test_alloc_spike_breaches_on_demand(self, db):
        expected = db.execute(JOIN_SQL)
        db.config.fault_injector = FaultInjector().arm(
            "alloc_spike", "spike", spike_bytes=1 << 30, times=1)
        with pytest.raises(ResourceExhaustedError):
            db.run(JOIN_SQL, use_plan_cache=False,
                   memory_limit_bytes=64 << 20)
        db.config.fault_injector = None
        assert_db_clean_and_reusable(db, expected)


# -- execution fault injection --------------------------------------------------------


class TestExecutionFaults:
    @pytest.mark.parametrize("mode", ["batch", "row"])
    def test_scan_io_fault_aborts_classified(self, db, mode):
        expected = db.execute(JOIN_SQL)
        db.config.fault_injector = FaultInjector().arm(
            "scan_io", "typed", times=1)
        with pytest.raises(ExecutionError):
            db.run(JOIN_SQL, use_plan_cache=False, executor_mode=mode)
        event = db.fallback_log.last_event
        assert event.reason is FallbackReason.EXEC_RUNTIME_ERROR
        db.config.fault_injector = None
        assert_db_clean_and_reusable(db, expected)

    def test_mid_batch_crash_is_wrapped_and_classified(self, db):
        expected = db.execute(JOIN_SQL)
        db.config.fault_injector = FaultInjector().arm(
            "mid_batch", "crash", times=1)
        with pytest.raises(ExecutionError) as info:
            db.run(JOIN_SQL, use_plan_cache=False, executor_mode="batch")
        assert "KeyError" in str(info.value)
        assert db.metrics.count("governor.exec_errors") == 1
        db.config.fault_injector = None
        assert_db_clean_and_reusable(db, expected)


# -- abort hygiene --------------------------------------------------------------------


class TestAbortHygiene:
    """An aborted statement leaves the Database as if it never ran."""

    def test_aborted_statement_never_enters_plan_cache(self, db):
        token = CancelToken(cancel_after_checks=7)
        with pytest.raises(StatementCancelledError):
            db.run(JOIN_SQL, cancel_token=token)
        assert db.plan_cache.stats()["size"] == 0
        # The next (successful) run compiles fresh — a miss, not a hit.
        result = db.run(JOIN_SQL)
        assert result.plan_cache_hit is False
        again = db.run(JOIN_SQL)
        assert again.plan_cache_hit is True

    def test_aborted_statement_does_not_advance_ledger(self, db):
        db.run(JOIN_SQL)  # populate cache + fingerprint entry
        log = db.statements
        ledger_before = log.quality_stats()
        executions_before = [
            e.executions for e in log.worst_fingerprints()]
        token = CancelToken(cancel_after_checks=7)
        with pytest.raises(StatementCancelledError):
            db.run(JOIN_SQL, cancel_token=token)
        after = log.quality_stats()
        assert after["breaches"] == ledger_before["breaches"]
        assert after["aborted"] == ledger_before["aborted"] + 1
        assert [e.executions for e in log.worst_fingerprints()] \
            == executions_before

    def test_abort_metrics_and_result_fields(self, db):
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, use_plan_cache=False, timeout_seconds=0.0)
        assert db.metrics.count("governor.deadline_exceeded") == 1
        assert db.metrics.count("statements.aborted") == 1
        token = CancelToken()
        token.cancel()
        with pytest.raises(StatementCancelledError):
            db.run(JOIN_SQL, use_plan_cache=False, cancel_token=token)
        assert db.metrics.count("governor.cancelled") == 1
        assert db.metrics.count("statements.aborted") == 2

    def test_latency_histograms_skip_aborted_runs(self, db):
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, use_plan_cache=False, timeout_seconds=0.0)
        hist = db.metrics.histogram("statement.compile_seconds")
        assert hist is None or hist.count == 0


# -- reporting surfaces ---------------------------------------------------------------


class TestReportingSurfaces:
    def test_governor_stats_on_result(self, db):
        result = db.run(JOIN_SQL, timeout_seconds=30.0)
        stats = result.governor_stats
        assert stats["checkpoints"] > 0
        assert 0.0 <= stats["deadline_used_fraction"] < 1.0
        assert stats["cancelled"] is False

    def test_explain_analyze_footer_has_governor_line(self, db):
        text = db.explain(JOIN_SQL, analyze=True)
        assert "governor: peak tracked memory" in text
        assert "checkpoints" in text

    def test_empty_histogram_exports_without_quantiles(self):
        db = Database()
        text = db.metrics_export()
        assert "repro_governor_peak_bytes_count 0" in text
        assert 'repro_governor_peak_bytes{quantile' not in text
        assert "(empty)" in db.metrics.report()
        # resilience_report tolerates a completely idle Database too.
        assert "open circuits" in db.resilience_report()

    def test_peak_bytes_histogram_fills_after_statements(self, db):
        db.run(JOIN_SQL)
        text = db.metrics_export()
        assert 'repro_governor_peak_bytes{quantile="0.5"}' in text

    def test_config_validation(self):
        with pytest.raises(ReproError):
            DatabaseConfig(statement_timeout_seconds=-1.0)
        with pytest.raises(ReproError):
            DatabaseConfig(statement_memory_limit_bytes=0)
