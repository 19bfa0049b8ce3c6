"""Workload intelligence over the statement log: per-fingerprint
history, column-usage tracking, the regression detector, and the
advisor.

Covers the log's LRU eviction under fingerprint churn (with the
monotonic column-usage aggregates surviving it), the one p95 regression
rule (a plan flip and a same-plan slowdown alike), advisor determinism
(the same history must produce byte-identical recommendations), the
what-if index probe, the export surfaces
(``workload_report``, hit-ratio gauges, ``plan_hash`` in the slow-query
log), and the ``run_suite`` seed threading.
"""

import dataclasses
import json

import pytest

import repro.database
from repro import Database, DatabaseConfig
from repro import statement_log
from repro.resilience import FaultInjector, statement_fingerprint
from repro.statement_log import StatementLog, StatementRecord
from repro.workload import Advisor
from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=41, orders=200)


def _history(log: StatementLog, fingerprint: str, sql: str,
             plan_hash: str, touches=(), latency: float = 0.002,
             runs: int = 1, breached: bool = False) -> None:
    """Append ``runs`` identical completed executions to ``log``."""
    for __ in range(runs):
        log.append(StatementRecord(
            fingerprint=fingerprint, sql=sql, plan_hash=plan_hash,
            touches=tuple(touches), execute_seconds=latency, rows=10,
            optimizer="mysql", executor_mode="row", root_q=1.0,
            max_q=20.0 if breached else 1.0, breached=breached))


# ---------------------------------------------------------------------------
# Repository: LRU eviction under fingerprint churn
# ---------------------------------------------------------------------------

@pytest.fixture
def small_log(monkeypatch):
    """A statement log holding at most ``capacity`` fingerprints."""
    def make(capacity: int) -> StatementLog:
        monkeypatch.setattr(statement_log, "FINGERPRINT_CAPACITY",
                            capacity)
        return StatementLog()
    return make


class TestRepositoryEviction:
    def test_capacity_bounds_entries_under_churn(self, small_log):
        repo = small_log(4)
        for i in range(25):
            _history(repo, f"fp{i:02d}", f"SELECT {i}", "aaaa",
                     touches=(("orders", "o_custkey", "join"),))
        assert repo.fingerprints == 4
        assert repo.evictions == 21
        # Strict LRU: only the four most recent fingerprints survive.
        assert [e.fingerprint for e in repo.entries()] == \
            ["fp21", "fp22", "fp23", "fp24"]

    def test_reexecution_refreshes_lru_position(self, small_log):
        repo = small_log(2)
        _history(repo, "old", "SELECT 1", "aaaa")
        _history(repo, "mid", "SELECT 2", "bbbb")
        _history(repo, "old", "SELECT 1", "aaaa")  # touch -> MRU
        _history(repo, "new", "SELECT 3", "cccc")  # evicts "mid"
        assert repo.entry("old") is not None
        assert repo.entry("mid") is None
        assert repo.entry("new") is not None

    def test_column_usage_survives_eviction(self, small_log):
        repo = small_log(1)
        for i in range(10):
            _history(repo, f"fp{i}", f"SELECT {i}", "aaaa",
                     touches=(("orders", "o_totalprice", "predicate"),),
                     breached=(i % 2 == 0))
        assert repo.fingerprints == 1
        usage = repo.usage_for("orders", "o_totalprice")
        assert usage == {"predicate": 10}
        # Breach attribution is workload-level too: 5 of 10 breached.
        assert repo.table_breach_rate("orders") == 0.5

    def test_stats_and_snapshot_shapes(self, small_log):
        repo = small_log(8)
        _history(repo, "fp", "SELECT 1", "aaaa", runs=3,
                 touches=(("orders", "o_custkey", "join"),))
        stats = repo.workload_stats()
        assert stats["size"] == 1 and stats["recorded"] == 3
        assert stats["capacity"] == 8
        snap = repo.snapshot()
        assert snap["statements"][0]["executions"] == 3
        assert "phases" not in snap["statements"][0]
        assert snap["column_usage"][0]["executions"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StatementLog(q_threshold=0.5)
        # Capacities and detector thresholds are module constants.
        for kwargs in ({"capacity": 8}, {"regression_factor": 1.5},
                       {"regression_min_samples": 3}):
            with pytest.raises(TypeError):
                StatementLog(**kwargs)


# ---------------------------------------------------------------------------
# The regression detector (window 4, factor 8: the module defaults)
# ---------------------------------------------------------------------------

class TestPlanRegression:
    def test_plan_change_without_slowdown_is_not_a_regression(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "bbbb", latency=0.011, runs=4)
        assert repo.entry("fp").plan_changes == 1
        assert repo.unresolved_regressions() == []

    def test_p95_jump_past_factor_flags_once(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "bbbb", latency=0.100, runs=6)
        pending = repo.unresolved_regressions()
        assert len(pending) == 1
        regression = pending[0]
        # A plan flip: the hash at the end of each window differs.
        assert regression.from_hash == "aaaa"
        assert regression.to_hash == "bbbb"
        assert regression.factor == pytest.approx(10.0)

    def test_same_plan_slowdown_is_the_same_rule(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "aaaa", latency=0.100, runs=4)
        [regression] = repo.unresolved_regressions()
        assert regression.from_hash == regression.to_hash == "aaaa"
        assert regression.factor == pytest.approx(10.0)

    def test_slowdown_below_factor_is_not_flagged(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "bbbb", latency=0.070, runs=8)
        assert repo.unresolved_regressions() == []

    def test_needs_min_samples_on_both_sides(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "bbbb", latency=0.090, runs=3)
        # Seven executions: the trailing window is not full yet.
        assert repo.unresolved_regressions() == []
        other = StatementLog()
        _history(other, "fp", "Q", "aaaa", latency=0.010, runs=2)
        _history(other, "fp", "Q", "bbbb", latency=0.090, runs=10)
        # The slow plan fills the prior window before any verdict:
        # there is no fast window to regress from.
        assert other.unresolved_regressions() == []

    def test_resolve_marks_handled(self):
        repo = StatementLog()
        _history(repo, "fp", "Q", "aaaa", latency=0.010, runs=4)
        _history(repo, "fp", "Q", "bbbb", latency=0.100, runs=4)
        assert len(repo.unresolved_regressions()) == 1
        assert repo.resolve_regressions("fp") == 1
        assert repo.unresolved_regressions() == []
        # Resolution restarts the window: the same slow latencies are
        # no evidence against the recompiled plan ...
        _history(repo, "fp", "Q", "bbbb", latency=0.100, runs=7)
        assert repo.unresolved_regressions() == []
        # ... a fresh slowdown after a full window is.
        _history(repo, "fp", "Q", "bbbb", latency=0.100, runs=1)
        _history(repo, "fp", "Q", "bbbb", latency=1.000, runs=4)
        assert len(repo.unresolved_regressions()) == 1
        assert repo.workload_stats()["plan_regressions"] == 2


# ---------------------------------------------------------------------------
# Touch extraction and plan hashing against real plans
# ---------------------------------------------------------------------------

class TestPlanFacts:
    def test_touch_kinds_from_join_group_sort(self, db):
        sql = ("SELECT o_status, COUNT(*) FROM orders, lineitem "
               "WHERE o_orderkey = l_orderkey AND o_totalprice > 500 "
               "GROUP BY o_status ORDER BY o_status")
        db.run(sql)
        entry = db.statements.entry(statement_fingerprint(sql))
        touches = set(entry.touches)
        assert ("orders", "o_totalprice", "predicate") in touches
        assert ("orders", "o_status", "group") in touches
        assert ("orders", "o_status", "sort") in touches
        # Join columns keep the join kind on at least one side.
        assert any(kind == "join" for (_, __, kind) in touches)

    def test_plan_hash_is_literal_free(self, db):
        a = db.run("SELECT * FROM orders WHERE o_totalprice > 100")
        b = db.run("SELECT * FROM orders WHERE o_totalprice > 9999")
        assert a.plan_hash == b.plan_hash
        c = db.run("SELECT * FROM orders WHERE o_orderkey = 5")
        assert c.plan_hash != a.plan_hash  # index lookup, new shape

    def test_hash_and_touches_cached_on_executor(self, db):
        sql = "SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10"
        db.run(sql)
        result = db.run(sql)
        assert result.plan_cache_hit
        entry = db.statements.entry(statement_fingerprint(sql))
        assert entry.plan_hash == result.plan_hash
        assert entry.touches == (("lineitem", "l_quantity", "predicate"),)


# ---------------------------------------------------------------------------
# Advisor
# ---------------------------------------------------------------------------

def _stale_db() -> Database:
    """A database whose orders/lineitem statistics are badly stale."""
    db = build_mini_db(seed=13, orders=30)
    db.analyze()
    fresh = build_mini_db(seed=13, orders=600)
    for name in ("orders", "lineitem"):
        db.load(name, fresh.execute(f"SELECT * FROM {name}"))
    return db


class TestAdvisor:
    def test_reanalyze_recommended_for_stale_breaching_tables(self):
        db = _stale_db()
        for __ in range(4):
            db.run("SELECT COUNT(*) FROM orders WHERE o_totalprice > 0",
                   use_plan_cache=False)
        recs = db.advisor.recommendations()
        reanalyze = [r for r in recs if r.kind == "reanalyze"]
        assert any(r.target == "orders" for r in reanalyze)
        # Breach pressure scales the score beyond bare staleness.
        orders = next(r for r in reanalyze if r.target == "orders")
        assert orders.details["breach_rate"] > 0

    def test_index_recommendation_from_hot_unindexed_column(self, db):
        for i in range(12):
            db.run(f"SELECT * FROM orders WHERE o_totalprice > {i * 50}")
        recs = db.advisor.recommendations()
        index = [r for r in recs if r.kind == "index"]
        assert any(r.target == "orders.o_totalprice" for r in index)
        probe = next(r for r in index
                     if r.target == "orders.o_totalprice").details
        assert probe["index_lookup_cost"] < probe["table_scan_cost"]

    def test_indexed_columns_never_recommended(self, db):
        for i in range(12):
            db.run(f"SELECT * FROM orders WHERE o_orderkey = {i + 1}")
        recs = db.advisor.recommendations()
        assert not any(r.kind == "index" and r.target == "orders.o_orderkey"
                       for r in recs)

    def test_determinism_same_history_same_bytes(self):
        """Two advisors over identical histories emit identical advice."""
        payloads = []
        for __ in range(2):
            db = build_mini_db(seed=13, orders=120)
            repo = StatementLog()
            for i in range(10):
                _history(repo, "fp-scan", "SELECT ...", "aaaa",
                         touches=(("orders", "o_totalprice", "predicate"),
                                  ("lineitem", "l_quantity", "predicate")),
                         latency=0.004, breached=(i % 3 == 0))
            _history(repo, "fp-reg", "SELECT ...", "hhh1",
                     latency=0.010, runs=4)
            _history(repo, "fp-reg", "SELECT ...", "hhh2",
                     latency=0.100, runs=4)
            advisor = Advisor(statements=repo, catalog=db.catalog,
                              storage=db.storage,
                              plan_cache=db.plan_cache)
            payloads.append(json.dumps(
                [r.to_dict() for r in advisor.recommendations()],
                sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_apply_reanalyze_refreshes_stats_and_advances_epoch(self):
        db = _stale_db()
        for __ in range(4):
            db.run("SELECT COUNT(*) FROM orders WHERE o_totalprice > 0",
                   use_plan_cache=False)
        epochs = {table: db.catalog.epoch(table)
                  for table in db.catalog.table_names}
        actions = db.advisor.apply(kinds=("reanalyze",))
        assert any(a["target"] == "orders" for a in actions)
        # Exactly the re-analyzed tables moved; plans over the rest stay.
        analyzed = {a["target"] for a in actions}
        for table, epoch in epochs.items():
            assert (db.catalog.epoch(table) > epoch) == (table in analyzed)
        stats = db.catalog.statistics("orders")
        assert stats.row_count == db.storage.store("orders").row_count
        # Advice is consumed: a fresh pass no longer flags orders.
        assert not any(r.kind == "reanalyze" and r.target == "orders"
                       for r in db.advisor.recommendations())

    def test_apply_plan_regression_purges_cached_plans(self):
        db = build_mini_db(seed=19, orders=100)
        sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 1"
        db.run(sql)  # populate the plan cache
        fingerprint = statement_fingerprint(sql)
        _history(db.statements, fingerprint, sql, "hhh1",
                 latency=0.010, runs=4)
        _history(db.statements, fingerprint, sql, "hhh2",
                 latency=0.100, runs=4)
        assert len(db.statements.unresolved_regressions()) == 1
        actions = db.advisor.apply(kinds=("plan_regression",))
        assert actions and "invalidated 1 cached plans" in \
            actions[0]["action"]
        assert db.statements.unresolved_regressions() == []
        assert not db.run(sql).plan_cache_hit  # recompiled

    def test_index_advice_is_never_auto_applied(self, db):
        before = {i.name for i in db.catalog.table("orders").indexes}
        db.advisor.apply()  # default kinds exclude "index"
        assert {i.name for i in db.catalog.table("orders").indexes} == before


# ---------------------------------------------------------------------------
# Database integration: report and export surfaces
# ---------------------------------------------------------------------------

class TestDatabaseIntegration:
    def test_workload_report_round_trip(self, db):
        report = db.workload_report()
        assert report["repository"]["stats"]["recorded"] > 0
        assert isinstance(report["recommendations"], list)
        text = db.workload_report_text()
        assert "Workload intelligence" in text
        assert "fingerprints tracked" in text

    def test_hit_ratio_gauges_computed_at_export(self, db):
        sql = "SELECT COUNT(*) FROM customer"
        db.run(sql)
        db.run(sql)
        export = db.metrics.to_dict()
        assert 0.0 < export["gauges"]["plan_cache.hit_ratio"] <= 1.0
        assert "mdcache.hit_ratio" in export["gauges"]
        assert export["gauges"]["workload.fingerprints"] == \
            db.statements.fingerprints
        prom = db.metrics_export()
        assert "repro_plan_cache_hit_ratio" in prom
        assert "repro_mdcache_hit_ratio" in prom
        assert "repro_workload_recorded_total" in prom

    def test_slow_query_log_carries_plan_hash(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(repro.database,
                            "SLOW_QUERY_LOG_THRESHOLD_SECONDS", 0.0)
        log = tmp_path / "slow.jsonl"
        db = build_mini_db(seed=29, orders=50)
        db.config.slow_query_log_path = str(log)
        db.run("SELECT COUNT(*) FROM orders")
        record = json.loads(log.read_text().splitlines()[-1])
        assert record["plan_hash"]
        assert record["fingerprint"]

    def test_config_validation(self):
        # Workload tracking and the advisor have no options left: their
        # sizes and thresholds are statement_log / workload module
        # constants, and advice is applied only by advisor.apply().
        assert not [f.name for f in dataclasses.fields(DatabaseConfig)
                    if f.name.startswith(("workload_", "advisor_"))]
