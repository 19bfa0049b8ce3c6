"""The chaos harness: sustained randomized abuse, zero crashes.

One seeded PRNG drives 300+ mixed TPC-H statements against a single
Database under randomly drawn *regimes*: injected faults at bridge and
execution sites, tight deadlines, statement memory caps, deterministic
cancellations, and combinations.  The acceptance contract:

* the process never crashes — only `ReproError` subclasses may escape
  `db.run()`, everything else is a harness failure;
* every failed statement is *classified*: the fallback log's last event
  carries a `FallbackReason` matching the exception type;
* the Database stays correct: after every chaos event the in-flight
  registry is empty and tracked memory is released, and a baseline
  query battery answers bit-identically to its pre-chaos snapshot at
  regular intervals and at the end.

The seed is fixed, so a failure reproduces exactly.
"""

import random

import pytest

from repro import Database, DatabaseConfig, FaultInjector, governor
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    GovernorError,
    ReproError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.governor import CancelToken
from repro.resilience import (
    BRIDGE_INJECTION_SITES,
    EXECUTION_INJECTION_SITES,
    FallbackReason,
    classify_execution_exception,
)
from repro.workloads.tpch import load_tpch, tpch_query

SEED = 20260808
STATEMENTS = 320
SCALE = 0.02

#: Queries the chaos loop draws from — the full TPC-H suite.
QUERY_POOL = tuple(range(1, 23))

#: Baseline battery re-checked against its snapshot during the run.
BASELINE_QUERIES = (1, 3, 4, 6, 10, 14)

#: Abort types the governor may raise, mapped to their reasons.
_GOVERNOR_ABORTS = {
    DeadlineExceededError: FallbackReason.DEADLINE_EXCEEDED,
    StatementCancelledError: FallbackReason.STATEMENT_CANCELLED,
    ResourceExhaustedError: FallbackReason.RESOURCE_EXHAUSTED,
}


#: Row-mode checkpoint interval for the sweep: small data means small
#: row counts, and chaos wants checkpoints to actually fire.
CHECK_INTERVAL = 32


@pytest.fixture(autouse=True)
def tight_check_interval(monkeypatch):
    monkeypatch.setattr(governor, "DEFAULT_CHECK_INTERVAL", CHECK_INTERVAL)


def _build_db() -> Database:
    db = Database(DatabaseConfig(orca_compile_budget_seconds=5.0))
    load_tpch(db, scale=SCALE)
    return db


def _draw_regime(rng: random.Random) -> dict:
    """One chaos regime: run kwargs + injector + expectation flags."""
    regime = {"kwargs": {}, "injector": None, "may_fail": False}
    roll = rng.random()
    if roll < 0.30:
        # Clean run — chaos includes leaving the system alone.
        return regime
    if roll < 0.45:
        site = rng.choice(BRIDGE_INJECTION_SITES)
        action = rng.choice(("typed", "crash", "sleep"))
        # Bridge faults are *contained* (fallback to MySQL) — the
        # statement must still succeed.
        regime["injector"] = FaultInjector(seed=rng.randrange(1 << 30)) \
            .arm(site, action, times=1)
        return regime
    regime["may_fail"] = True
    if roll < 0.60:
        site = rng.choice(EXECUTION_INJECTION_SITES[:2])  # scan_io, mid_batch
        action = rng.choice(("typed", "crash"))
        regime["injector"] = FaultInjector(seed=rng.randrange(1 << 30)) \
            .arm(site, action, times=1)
    elif roll < 0.72:
        # Deadline: zero always fires; a generous one usually does not.
        regime["kwargs"]["timeout_seconds"] = \
            rng.choice((0.0, 0.0, 0.005, 30.0))
    elif roll < 0.84:
        regime["kwargs"]["memory_limit_bytes"] = \
            rng.choice((1_000, 20_000, 200_000, 64 << 20))
    elif roll < 0.94:
        regime["kwargs"]["cancel_token"] = CancelToken(
            cancel_after_checks=rng.randrange(1, 30))
    else:
        # Combined assault: alloc spike under a memory cap + deadline.
        regime["injector"] = FaultInjector(seed=rng.randrange(1 << 30)) \
            .arm("alloc_spike", "spike", spike_bytes=1 << 30, times=1)
        regime["kwargs"]["memory_limit_bytes"] = 64 << 20
        regime["kwargs"]["timeout_seconds"] = 30.0
    return regime


class TestChaos:
    def test_chaos_sweep_no_crashes_all_classified(self):
        rng = random.Random(SEED)
        db = _build_db()
        baseline = {q: db.execute(tpch_query(q))
                    for q in BASELINE_QUERIES}

        executed = 0
        aborted = 0
        fallbacks = 0
        unclassified = []
        for step in range(STATEMENTS):
            number = rng.choice(QUERY_POOL)
            sql = tpch_query(number)
            regime = _draw_regime(rng)
            db.config.fault_injector = regime["injector"]
            kwargs = dict(regime["kwargs"])
            kwargs["executor_mode"] = rng.choice(("batch", "row"))
            kwargs["use_plan_cache"] = rng.random() < 0.5
            events_before = sum(db.fallback_log.counters.values())
            try:
                result = db.run(sql, **kwargs)
                executed += 1
                if result.fallback_reason is not None:
                    fallbacks += 1
            except ReproError as exc:
                aborted += 1
                if not isinstance(exc, (GovernorError, ExecutionError)):
                    unclassified.append((step, number, repr(exc)))
                    continue
                # Classification contract: the abort landed in the
                # fallback log with the reason its type maps to.
                event = db.fallback_log.last_event
                assert sum(db.fallback_log.counters.values()) \
                    > events_before, f"step {step}: abort not recorded"
                expected_reason = _GOVERNOR_ABORTS.get(
                    type(exc), FallbackReason.EXEC_RUNTIME_ERROR)
                assert classify_execution_exception(exc) \
                    is expected_reason
                assert event.reason in (
                    expected_reason,
                    # A memory breach that retried records
                    # RESOURCE_EXHAUSTED first and may then abort for
                    # another reason; accept any governor reason here.
                    FallbackReason.RESOURCE_EXHAUSTED,
                )
            except BaseException as exc:  # noqa: BLE001 — the point
                pytest.fail(f"step {step} (Q{number}): non-ReproError "
                            f"escaped: {type(exc).__name__}: {exc}")
            finally:
                db.config.fault_injector = None
            # Clean-state invariants after every single statement.
            assert db.active_statements() == {}
            if step % 40 == 39:
                for q in BASELINE_QUERIES:
                    assert db.execute(tpch_query(q)) == baseline[q], \
                        f"baseline Q{q} diverged after step {step}"

        assert executed + aborted == STATEMENTS
        # The regimes guarantee a healthy mix actually happened.
        assert executed >= 100, f"only {executed} statements succeeded"
        assert aborted >= 30, f"only {aborted} statements aborted"
        assert not unclassified, unclassified
        # Every abort surfaced in the governor counters.
        counted = sum(db.metrics.count(name) for name in (
            "governor.deadline_exceeded", "governor.cancelled",
            "governor.mem_breaches", "governor.exec_errors"))
        assert counted >= aborted
        assert db.metrics.count("statements.aborted") == aborted

        # Final full-battery correctness check on the same Database.
        for q in BASELINE_QUERIES:
            assert db.execute(tpch_query(q)) == baseline[q]

    def test_chaos_is_reproducible(self):
        """Two PRNGs with the chaos seed draw identical regimes."""
        a, b = random.Random(SEED), random.Random(SEED)
        for __ in range(200):
            ra, rb = _draw_regime(a), _draw_regime(b)
            assert ra["kwargs"].keys() == rb["kwargs"].keys()
            assert (ra["injector"] is None) == (rb["injector"] is None)
