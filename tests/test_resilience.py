"""Fault containment: guarded fallback, budgets, breaker, injection.

The paper's operational promise (Section 4.2.1) is that any abort of the
Orca detour "resorts to the usual MySQL query optimization".  These
tests prove the promise holds for *every* failure mode — typed aborts,
unexpected exceptions, and budget overruns, injected deterministically
at each of the four bridge injection points — and that the telemetry
(FallbackLog) and quarantine (CircuitBreaker) around it behave.
"""

import pytest

from repro import Database, DatabaseConfig, FallbackReason, FaultInjector
from repro.bench.harness import run_suite
from repro.bench.report import summarize
from repro.errors import BudgetExceededError, ReproError
from repro.mysql_optimizer.optimizer import MySQLOptimizer
from repro.resilience import (
    BRIDGE_INJECTION_SITES,
    CircuitBreaker,
    CompileBudget,
    DetourGuard,
    FallbackEvent,
    FallbackLog,
    statement_fingerprint,
)

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
    the FallbackLog records the correct reason."""

    @pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
    def test_typed_abort_falls_back(self, db, site):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.fault_injector = FaultInjector().arm(site, "typed")
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.TYPED_ABORT
        assert result.rows == expected
        assert db.fallback_log.count(FallbackReason.TYPED_ABORT) == 1

    @pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
    def test_keyerror_crash_is_contained(self, db, site):
        expected = db.execute(SQL, optimizer="mysql")
        db.config.fault_injector = FaultInjector().arm(site, "crash")
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is \
            FallbackReason.UNEXPECTED_EXCEPTION
        assert result.rows == expected
        event = db.fallback_log.last_event
        assert event.error_type == "KeyError"
        assert site in event.error_message

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


class TestStrictMode:
    def test_containment_can_be_disabled_for_debugging(self, db):
        db.config.contain_unexpected_errors = False
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash")
        with pytest.raises(KeyError):
            db.run(SQL, optimizer="orca")

    def test_typed_aborts_still_fall_back_in_strict_mode(self, db):
        db.config.contain_unexpected_errors = False
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is FallbackReason.TYPED_ABORT


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
        threshold = db.config.circuit_breaker_threshold
        db.config.fault_injector = FaultInjector().arm(
            "plan_converter", "crash")
        for __ in range(threshold):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is \
                FallbackReason.UNEXPECTED_EXCEPTION
        entries_when_open = db.fallback_log.detours_entered
        for __ in range(3):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is FallbackReason.CIRCUIT_OPEN
            assert result.optimizer_used == "mysql"
            assert result.rows == expected
        assert db.fallback_log.detours_entered == entries_when_open
        assert db.fallback_log.count(FallbackReason.CIRCUIT_OPEN) == 3

    def test_typed_aborts_do_not_trip_the_breaker(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed")
        for __ in range(db.config.circuit_breaker_threshold + 2):
            result = db.run(SQL, optimizer="orca")
            assert result.fallback_reason is FallbackReason.TYPED_ABORT
        fingerprint = statement_fingerprint(SQL)
        assert not db.circuit_breaker.is_open(fingerprint)

    def test_quarantine_is_per_fingerprint(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "crash")
        for __ in range(db.config.circuit_breaker_threshold):
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
        for bound in range(db.config.circuit_breaker_threshold):
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
        log = db.fallback_log
        assert log.detours_entered == 2
        assert log.detours_succeeded == 1
        assert log.total_fallbacks == 1
        history = log.history(statement_fingerprint(SQL))
        assert len(history) == 1
        assert history[0].reason is FallbackReason.UNEXPECTED_EXCEPTION
        # The history is a view of the bounded event ring.
        assert history == [event for event in log.events
                           if event.fingerprint == statement_fingerprint(SQL)]
        assert not hasattr(log, "per_statement")

    def test_resilience_report_text(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "parse_tree_converter", "crash")
        for __ in range(db.config.circuit_breaker_threshold + 1):
            db.run(SQL, optimizer="orca")
        report = db.resilience_report()
        assert "detours entered" in report
        assert "unexpected_exception" in report
        assert "circuit_open" in report
        assert "open circuits:     1" in report
        assert "KeyError" in report or "circuit_open" in report

    def test_successful_detour_leaves_no_fallback(self, db):
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "orca"
        assert result.fallback_reason is None
        assert db.fallback_log.total_fallbacks == 0

    def test_log_is_bounded(self):
        log = FallbackLog(max_events=4)
        for index in range(10):
            log.record_fallback(FallbackEvent(
                fingerprint=f"fp{index}",
                reason=FallbackReason.TYPED_ABORT))
        assert len(log.events) == 4
        assert log.total_fallbacks == 10  # counters are not bounded

    def test_history_stays_bounded_under_fingerprint_churn(self):
        log = FallbackLog(max_events=256)
        for index in range(10_000):
            log.record_fallback(FallbackEvent(
                fingerprint=f"fp{index % 1000}",
                reason=FallbackReason.TYPED_ABORT))
            assert len(log) <= 256
        assert len(log) == 256
        assert log.total_fallbacks == 10_000
        # The last 256 events cover fingerprints fp744..fp999 once each
        # (event 9744 + k carries fp744 + k); older ones aged out.
        assert log.history("fp999") == [log.events[-1]]
        assert log.history("fp744") == [log.events[0]]
        assert log.history("fp743") == []

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


class TestDetourGuard:
    def test_guard_classifies_and_contains(self):
        guard = DetourGuard()
        outcome = guard.run(lambda: (_ for _ in ()).throw(
            RecursionError("deep")))
        assert outcome.skeleton is None
        assert outcome.reason is FallbackReason.UNEXPECTED_EXCEPTION
        assert outcome.error_type == "RecursionError"

    def test_guard_passes_results_through(self):
        outcome = DetourGuard().run(lambda: "skeleton")
        assert outcome.ok
        assert outcome.skeleton == "skeleton"
        assert outcome.reason is None
