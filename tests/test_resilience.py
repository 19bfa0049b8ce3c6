"""Fault containment: guarded fallback, budgets, breaker, injection.

The paper's operational promise (Section 4.2.1) is that any abort of the
Orca detour "resorts to the usual MySQL query optimization".  These
tests prove the promise holds for *every* failure mode — typed aborts,
unexpected exceptions, and budget overruns, injected deterministically
at each of the four bridge injection points — and that the telemetry
(the registry's ``detour.*`` / ``fallback.*`` counters and the
statement records, each fact recorded once by the facade) and the
quarantine (CircuitBreaker) around it behave.
"""

import pytest

from repro import Database, DatabaseConfig, FallbackReason, FaultInjector
from repro.bridge.router import OrcaRouter
from repro.errors import (
    BudgetExceededError,
    ReproError,
    StatementCancelledError,
)
from repro.governor import CancelToken, ExecutionGovernor
from repro.mysql_optimizer.optimizer import MySQLOptimizer
from repro.observability import MetricsRegistry
from repro.resilience import (
    BRIDGE_INJECTION_SITES,
    CircuitBreaker,
    CompileBudget,
    statement_fingerprint,
)
from repro.statement_log import StatementLog, StatementRecord

from benchmarks.paper import run_suite, summarize
from tests.conftest import build_mini_db

SQL = """
SELECT COUNT(*) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
"""


@pytest.fixture()
def db():
    return build_mini_db(seed=71, orders=80)


# -- fault injection at every bridge point --------------------------------------------


class TestInjectedFaultsAreContained:
    """Acceptance: faults at each injection point never raise; the query
    returns MySQL-optimized rows identical to ``optimizer="mysql"`` and
    the registry counts the correct reason."""

    @pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
    def test_typed_abort_falls_back(self, db, site):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.fault_injector = FaultInjector().arm(site, "typed")
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.TYPED_ABORT
        assert result.rows == expected
        assert db.metrics.count("fallback.typed_abort") == 1
        assert db.metrics.count("detour.fallbacks") == 1
        assert db.statements.last.fallback_reason == "typed_abort"

    @pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
    def test_keyerror_crash_is_contained(self, db, site):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.fault_injector = FaultInjector().arm(site, "crash")
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is \
            FallbackReason.UNEXPECTED_EXCEPTION
        assert result.rows == expected
        record = db.statements.last
        assert record.fallback_reason == "unexpected_exception"
        assert record.error.startswith("KeyError: ")
        assert site in record.error

    @pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
    def test_sleep_past_budget_aborts_compile(self, db, site):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.orca_compile_budget_seconds = 0.01
        db.config.fault_injector = FaultInjector().arm(
            site, "sleep", sleep_seconds=0.05)
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.BUDGET_EXCEEDED
        assert result.rows == expected

    def test_fault_fires_only_armed_times(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed", times=1)
        first = db.run(SQL, optimizer="orca")
        second = db.run(SQL, optimizer="orca")
        assert first.optimizer_used == "mysql"
        assert second.optimizer_used == "orca"
        assert db.config.fault_injector.fired["optimizer"] == 1

    def test_disarmed_injector_is_inert(self, db):
        injector = FaultInjector().arm("optimizer", "crash")
        injector.disarm("optimizer")
        db.config.fault_injector = injector
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "orca"
        assert injector.reached["optimizer"] >= 1
        assert injector.fired["optimizer"] == 0

    def test_probability_mode_is_seed_deterministic(self):
        def fired_pattern(seed):
            injector = FaultInjector(seed=seed).arm(
                "optimizer", "typed", probability=0.5)
            pattern = []
            for __ in range(20):
                try:
                    injector.fire("optimizer")
                    pattern.append(False)
                except Exception:
                    pattern.append(True)
            return pattern

        assert fired_pattern(7) == fired_pattern(7)
        assert True in fired_pattern(7) and False in fired_pattern(7)

    def test_unknown_site_and_action_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector().arm("executor", "typed")
        with pytest.raises(ReproError):
            FaultInjector().arm("optimizer", "explode")


# -- compile budgets ---------------------------------------------------------------------


class TestCompileBudget:
    def test_memo_group_cap_aborts_search(self, db):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.orca_memo_group_budget = 1
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.BUDGET_EXCEEDED
        assert result.rows == expected

    def test_generous_budget_leaves_detour_alone(self, db):
        db.config.orca_compile_budget_seconds = 60.0
        db.config.orca_memo_group_budget = 100_000
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "orca"
        assert result.fallback_reason is None

    def test_budget_object_checks_both_caps(self):
        ticks = [0.0]
        budget = CompileBudget(seconds=1.0, max_memo_groups=10,
                               clock=lambda: ticks[0])
        budget.check(5)  # within both caps
        ticks[0] = 2.0
        with pytest.raises(BudgetExceededError):
            budget.check(5)
        budget = CompileBudget(max_memo_groups=10)
        with pytest.raises(BudgetExceededError):
            budget.check(11)

    def test_unlimited_budget_never_raises(self):
        budget = CompileBudget()
        assert budget.unlimited
        budget.check(10 ** 9)


# -- circuit breaker ---------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_n_crashes_and_skips_detour(self, db):
        """Acceptance: after N injected crashes the fingerprint routes
        straight to MySQL without re-entering the detour (asserted via
        the detour-entry counter)."""
        expected = db.execute(SQL, optimizer="mysql")
        threshold = db.circuit_breaker.threshold
        db.config.fault_injector = FaultInjector().arm(
            "plan_converter", "crash")
        for __ in range(threshold):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is \
                FallbackReason.UNEXPECTED_EXCEPTION
        entries_when_open = db.metrics.count("detour.entered")
        for __ in range(3):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is FallbackReason.CIRCUIT_OPEN
            assert result.optimizer_used == "mysql"
            assert result.rows == expected
        assert db.metrics.count("detour.entered") == entries_when_open
        assert db.metrics.count("fallback.circuit_open") == 3

    def test_typed_aborts_do_not_trip_the_breaker(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        for __ in range(db.circuit_breaker.threshold + 2):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is FallbackReason.TYPED_ABORT
        fingerprint = statement_fingerprint(SQL)
        assert not db.circuit_breaker.is_open(fingerprint)

    def test_quarantine_is_per_fingerprint(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash")
        for __ in range(db.circuit_breaker.threshold):
            db.run(SQL, optimizer="orca")
        db.config.fault_injector = None
        other = """
            SELECT COUNT(*) FROM part, orders, lineitem
            WHERE p_partkey = l_partkey AND o_orderkey = l_orderkey"""
        assert db.run(SQL, optimizer="orca").fallback_reason is \
            FallbackReason.CIRCUIT_OPEN
        assert db.run(other, optimizer="orca").optimizer_used == "orca"

    def test_literals_share_a_quarantine_fingerprint(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash")
        template = SQL + " AND o_totalprice > {}"
        for bound in range(db.circuit_breaker.threshold):
            db.run(template.format(bound), optimizer="orca")
        result = db.run(template.format(999), optimizer="orca")
        assert result.fallback_reason is FallbackReason.CIRCUIT_OPEN

    def test_breaker_decays_and_closes_on_success(self, db):
        clock = [0.0]
        db.circuit_breaker = CircuitBreaker(
            threshold=2, reset_seconds=10.0, clock=lambda: clock[0])
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash", times=2)
        db.run(SQL, optimizer="orca")
        db.run(SQL, optimizer="orca")
        fingerprint = statement_fingerprint(SQL)
        assert db.circuit_breaker.is_open(fingerprint)
        assert db.run(SQL, optimizer="orca").fallback_reason is \
            FallbackReason.CIRCUIT_OPEN
        # After the reset window one trial detour is allowed (half-open);
        # the injector is exhausted, so it succeeds and closes the breaker.
        clock[0] = 11.0
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "orca"
        assert not db.circuit_breaker.is_open(fingerprint)
        assert db.circuit_breaker.failures(fingerprint) == 0

    def test_breaker_unit_behaviour(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=2, reset_seconds=5.0,
                                 clock=lambda: clock[0])
        assert breaker.allow("fp")
        breaker.record_failure("fp")
        assert breaker.allow("fp")
        breaker.record_failure("fp")
        assert not breaker.allow("fp")
        assert breaker.open_fingerprints == ["fp"]
        clock[0] = 6.0
        assert breaker.allow("fp")  # half-open trial
        breaker.record_failure("fp")
        assert not breaker.allow("fp")  # re-opened immediately

    def test_threshold_must_be_positive(self):
        with pytest.raises(ReproError):
            CircuitBreaker(threshold=0)


# -- telemetry ---------------------------------------------------------------------------


class TestFallbackTelemetry:
    def test_log_counts_and_history(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash", times=1)
        db.run(SQL, optimizer="orca")
        db.run(SQL, optimizer="orca")  # injector exhausted: succeeds
        assert db.metrics.count("detour.entered") == 2
        assert db.metrics.count("detour.succeeded") == 1
        assert db.metrics.count("detour.fallbacks") == 1
        assert db.metrics.counters_with_prefix("fallback.") == {
            "fallback.unexpected_exception": 1}
        fingerprint = statement_fingerprint(SQL)
        history = [record for record in db.statements.records()
                   if record.fingerprint == fingerprint
                   and record.fallback_reason is not None]
        assert len(history) == 1
        assert history[0].fallback_reason == "unexpected_exception"
        assert history[0].error.startswith("KeyError: ")
        assert db.statements.entry(fingerprint).fallbacks == 1

    def test_metrics_report_text(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "parse_tree_converter", "crash")
        for __ in range(db.circuit_breaker.threshold + 1):
            db.run(SQL, optimizer="orca")
        report = db.metrics_report()
        assert "detour rate" in report
        assert "  unexpected_exception: 3" in report
        assert "  circuit_open: 1" in report
        assert "open circuits:     1" in report
        fingerprint = statement_fingerprint(SQL)
        assert f"  {fingerprint}: 3 consecutive failures" in report
        # The last statement was routed around the open circuit; the
        # crashes before it carry their error on their own records.
        assert (f"last fallback:     circuit_open [fingerprint "
                f"{fingerprint}]") in report
        assert db.statements.records()[1].error.startswith("KeyError: ")

    def test_metrics_report_names_the_error(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed", times=1)
        db.run(SQL, optimizer="orca")
        assert ("last fallback:     OrcaError: injected typed abort at "
                "optimizer (typed_abort)") in db.metrics_report()

    def test_idle_database_reports_no_fallback(self):
        report = Database().metrics_report()
        assert "fallbacks by reason: (none)" in report
        assert "open circuits:     0" in report
        assert "last fallback" not in report

    def test_successful_detour_leaves_no_fallback(self, db):
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "orca"
        assert result.fallback_reason is None
        assert db.metrics.count("detour.fallbacks") == 0
        assert db.metrics.counters_with_prefix("fallback.") == {}
        assert db.statements.last.error is None

    def test_execution_abort_is_not_a_detour_fallback(self, db):
        """``detour.fallbacks`` counts detours that fell back; an abort
        on the MySQL path never entered one.  It keeps its own
        ``fallback.<reason>`` and governor counts and its record."""
        with pytest.raises(StatementCancelledError):
            db.run(SQL, optimizer="mysql",
                   cancel_token=CancelToken(cancel_after_checks=1))
        assert db.metrics.count("detour.entered") == 0
        assert db.metrics.count("detour.fallbacks") == 0
        assert db.metrics.count("fallback.statement_cancelled") == 1
        assert db.metrics.count("governor.cancelled") == 1
        record = db.statements.last
        assert record.aborted
        assert record.abort_reason == "statement_cancelled"
        assert record.error.startswith("StatementCancelledError: ")

    def test_log_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.statement_log.RING_CAPACITY", 4)
        db = build_mini_db(seed=71, orders=80)
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        for bound in range(10):
            db.run(SQL + f" AND o_totalprice > {bound}", optimizer="orca")
        assert len(db.statements.records()) == 4
        assert all(record.fallback_reason == "typed_abort"
                   for record in db.statements.records())
        # Counters are not bounded.
        assert db.metrics.count("fallback.typed_abort") == 10
        assert db.metrics.count("detour.fallbacks") == 10

    def test_history_stays_bounded_under_fingerprint_churn(self):
        metrics = MetricsRegistry()
        log = StatementLog(metrics=metrics)
        for index in range(10_000):
            log.append(StatementRecord(
                fingerprint=f"fp{index % 1000}", sql="SELECT 1",
                optimizer="mysql", executor_mode="batch", plan_hash="h",
                root_q=1.0, max_q=1.0, fallback_reason="typed_abort",
                error="OrcaError: x"))
            assert len(log.records()) <= log.ring_capacity
            assert log.fingerprints <= log.capacity
        capacity = log.ring_capacity
        assert len(log.records()) == capacity
        assert log.fingerprints == log.capacity
        assert metrics.count("flight.records") == 10_000
        # The ring holds the last ``capacity`` records, latest first:
        # record 9999 carries fp999, and record 10000 - capacity the
        # oldest fingerprint still held.
        def history(fingerprint):
            return [record for record in log.records()
                    if record.fingerprint == fingerprint]
        oldest = (10_000 - capacity) % 1000
        assert history("fp999") == [log.records()[0]]
        assert history(f"fp{oldest}") == [log.records()[-1]]
        assert history(f"fp{oldest - 1}") == []

    def test_bench_harness_reports_fallbacks(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        queries = {1: SQL}
        result = run_suite(db, queries, "resilience", timeout_seconds=60)
        timing = result.timings[0]
        assert timing.orca_fallback_reason == "typed_abort"
        assert timing.results_match
        assert result.fallback_counts == {"typed_abort": 1}
        assert summarize(result)["orca_fallbacks"] == {"typed_abort": 1}


# -- fingerprinting ----------------------------------------------------------------------


class TestStatementFingerprint:
    def test_literals_normalised(self):
        a = statement_fingerprint(
            "SELECT * FROM orders WHERE o_totalprice > 100")
        b = statement_fingerprint(
            "SELECT * FROM orders WHERE o_totalprice > 2.5")
        assert a == b

    def test_string_literals_and_whitespace_normalised(self):
        a = statement_fingerprint(
            "SELECT *  FROM customer\nWHERE c_segment = 'GOLD'")
        b = statement_fingerprint(
            "select * from customer where c_segment = 'SILVER'")
        assert a == b

    def test_different_shapes_differ(self):
        a = statement_fingerprint("SELECT * FROM orders")
        b = statement_fingerprint("SELECT * FROM lineitem")
        assert a != b

    def test_identifiers_with_digits_survive(self):
        a = statement_fingerprint("SELECT l1.l_quantity FROM lineitem l1")
        b = statement_fingerprint("SELECT l2.l_quantity FROM lineitem l2")
        assert a != b


# -- config validation (satellites) -------------------------------------------------------


class TestConfigValidation:
    def test_invalid_routing_rejected_at_construction(self):
        with pytest.raises(ReproError, match="cost-based"):
            DatabaseConfig(routing="cost-based")

    def test_invalid_routing_rejected_after_mutation(self, db):
        db.config.routing = "cost-based"
        with pytest.raises(ReproError, match="valid choices"):
            db.run(SQL)

    def test_invalid_orca_search_rejected_at_construction(self):
        with pytest.raises(ReproError, match="EXHAUSTIVE2"):
            DatabaseConfig(orca_search="FANCY")

    def test_invalid_orca_search_rejected_by_router(self, db):
        db.config.orca_search = "FANCY"
        with pytest.raises(ReproError, match="valid choices"):
            db.run(SQL, optimizer="orca")


# -- run(..., explain=True) (satellite) ---------------------------------------------------


class TestRunExplain:
    def test_run_populates_explain_on_request(self, db):
        result = db.run(SQL, optimizer="orca", explain=True)
        assert result.explain is not None
        assert result.explain.startswith("EXPLAIN (ORCA)")
        assert result.rows  # the query still executed

    def test_run_skips_explain_by_default(self, db):
        assert db.run(SQL).explain is None


# -- cost-based routing's fallback leg (satellite) ----------------------------------------


class TestCostBasedFallbackLeg:
    def test_greedy_skeleton_reused_on_orca_abort(self, db, monkeypatch):
        """When cost-based routing detours and Orca aborts, the greedy
        skeleton already computed must be reused — not recomputed."""
        db.config.routing = "cost_based"
        db.config.mysql_cost_threshold = 0.0  # always detour
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        expected = db.execute(SQL, optimizer="mysql")

        calls = []
        original = MySQLOptimizer.optimize

        def counting(self, block, context):
            calls.append(1)
            return original(self, block, context)

        monkeypatch.setattr(MySQLOptimizer, "optimize", counting)
        result = db.run(SQL)
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.TYPED_ABORT
        assert result.rows == expected
        assert len(calls) == 1  # greedy ran once; no recompute on abort

    def test_cost_based_detour_still_wins_when_orca_healthy(self, db):
        db.config.routing = "cost_based"
        db.config.mysql_cost_threshold = 0.0
        result = db.run(SQL)
        assert result.optimizer_used == "orca"
        assert result.fallback_reason is None


# -- the guard itself ---------------------------------------------------------------------


class TestOptimizeGuarded:
    """The router's one entry contains what the detour throws."""

    @staticmethod
    def router(db, detour):
        router = OrcaRouter(db.catalog, db.config,
                            governor=ExecutionGovernor())
        router._optimize = lambda block, context: detour()
        return router

    def test_guard_classifies_and_contains(self, db):
        def crash():
            raise RecursionError("deep")

        outcome = self.router(db, crash).optimize_guarded(None, None, None)
        assert outcome.skeleton is None
        assert outcome.reason is FallbackReason.UNEXPECTED_EXCEPTION
        assert outcome.error_type == "RecursionError"
        assert outcome.error == "RecursionError: deep"

    def test_guard_passes_results_through(self, db):
        outcome = self.router(db, lambda: "skeleton") \
            .optimize_guarded(None, None, None)
        assert outcome.ok
        assert outcome.skeleton == "skeleton"
        assert outcome.reason is None
        assert outcome.error is None

    def test_guard_lets_statement_bounds_through(self, db):
        def cancelled():
            raise StatementCancelledError("cancelled by client")

        with pytest.raises(StatementCancelledError):
            self.router(db, cancelled).optimize_guarded(None, None, None)
