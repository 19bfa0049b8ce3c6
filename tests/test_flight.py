"""The statement ring: bounded history, registry snapshots, the p95
regression detector, and its wiring into the workload advisor.

The ring is the "what was the engine doing right before things went
bad" surface: one :class:`StatementRecord` per finished statement plus
periodic registry snapshots.  The detector compares each fingerprint's
trailing-window p95 against the window before it; a flagged regression
surfaces as an Advisor ``plan_regression`` recommendation, whose apply
purges the fingerprint's cached plans.
"""

import json

import pytest

from repro import Database, DatabaseConfig
from repro import statement_log
from repro.errors import DeadlineExceededError
from repro.observability import MetricsRegistry
from repro.statement_log import (StatementLog, StatementRecord, exact_p95,
                                 format_flight_report)
from tests.conftest import build_mini_db

SCAN_SQL = "SELECT o_orderkey FROM orders WHERE o_totalprice > 100"
JOIN_SQL = ("SELECT c_name, COUNT(*) FROM customer, orders "
            "WHERE c_custkey = o_custkey GROUP BY c_name")


def make_record(fingerprint="fp-a", execute_seconds=0.01,
                aborted=False, plan_hash="aaaa", **overrides):
    """A synthetic completed SELECT (or, with ``aborted``, an abort)."""
    options = dict(statement_id=1, fingerprint=fingerprint,
                   sql=f"SELECT /* {fingerprint} */ 1",
                   execute_seconds=execute_seconds,
                   compile_seconds=0.001, aborted=aborted)
    if not aborted:
        options.update(plan_hash=plan_hash, optimizer="mysql",
                       executor_mode="batch", root_q=1.0, max_q=1.0)
    options.update(overrides)
    return StatementRecord(**options)


class TestRingBuffer:

    def test_capacity_bounds_and_latest_first(self, monkeypatch):
        monkeypatch.setattr(statement_log, "RING_CAPACITY", 4)
        log = StatementLog()
        for __ in range(10):
            log.append(make_record())
        assert len(log.records()) == 4
        assert log.total == 10
        assert [r.seq for r in log.records()] == [10, 9, 8, 7]
        assert [r.seq for r in log.records(limit=2)] == [10, 9]

    def test_record_assigns_seq_and_timestamp(self):
        log = StatementLog()
        record = log.append(make_record())
        assert record.seq == 1
        assert record.ts  # ISO stamp filled in
        assert record.total_seconds == pytest.approx(0.011)

    def test_snapshots_every_interval(self, monkeypatch):
        monkeypatch.setattr(statement_log, "SNAPSHOT_INTERVAL", 2)
        metrics = MetricsRegistry()
        log = StatementLog(metrics=metrics)
        for __ in range(5):
            log.append(make_record())
        snapshots = log.snapshots()
        assert [s["seq"] for s in snapshots] == [2, 4]
        assert all("registry" in s for s in snapshots)
        assert metrics.count("flight.records") == 5
        assert metrics.count("flight.snapshots") == 2

    @pytest.mark.parametrize("kwargs", [
        dict(RING_CAPACITY=0),
        dict(SNAPSHOT_INTERVAL=0),
        dict(REGRESSION_WINDOW=0),
        dict(REGRESSION_FACTOR=1.0),
        dict(FINGERPRINT_CAPACITY=0),
    ])
    def test_config_validation(self, kwargs, monkeypatch):
        # The ring's configuration is its module constants; a log
        # refuses to start on a nonsensical patch.
        for name, value in kwargs.items():
            monkeypatch.setattr(statement_log, name, value)
        with pytest.raises(ValueError):
            StatementLog()


class TestWatchdog:
    """The one regression rule, on synthetic records (window 4,
    factor 8 — the module defaults)."""

    def test_exact_p95_interpolates(self):
        assert exact_p95([]) == 0.0
        assert exact_p95([5.0]) == 5.0
        values = [float(v) for v in range(1, 101)]
        assert exact_p95(values) == pytest.approx(95.05)

    def test_flags_injected_regression_once(self):
        log = StatementLog(metrics=MetricsRegistry())
        for __ in range(4):
            log.append(make_record(execute_seconds=0.01))
        for __ in range(4):
            log.append(make_record(execute_seconds=0.10))
        findings = log.unresolved_regressions()
        assert len(findings) == 1
        finding = findings[0]
        assert finding.fingerprint == "fp-a"
        assert finding.factor == pytest.approx(10.0, rel=0.01)
        # Same plan before and after: a slowdown, not a plan flip.
        assert finding.from_hash == finding.to_hash == "aaaa"
        assert log.metrics.count("workload.plan_regressions") == 1
        # More slow traffic while it is unresolved: not re-flagged.
        for __ in range(8):
            log.append(make_record(execute_seconds=0.10))
        assert log.unresolved_regressions() == [finding]
        assert log.metrics.count("workload.plan_regressions") == 1

    def test_steady_latency_not_flagged(self):
        log = StatementLog()
        for __ in range(16):
            log.append(make_record(execute_seconds=0.01))
        assert log.unresolved_regressions() == []

    def test_needs_evidence_on_both_sides(self):
        log = StatementLog()
        # Seven executions: one window short of a verdict, however
        # slow the latest ones are.
        for __ in range(4):
            log.append(make_record("fp-b", execute_seconds=0.01))
        for __ in range(3):
            log.append(make_record("fp-b", execute_seconds=0.5))
        # Other fingerprints and DML fill no window of fp-b.
        log.append(make_record("fp-c", execute_seconds=0.5))
        log.append(make_record("fp-b", plan_hash=None,
                               execute_seconds=0.5))
        assert log.unresolved_regressions() == []
        assert len(log.entry("fp-b").window) == 7
        log.append(make_record("fp-b", execute_seconds=0.5))
        assert len(log.unresolved_regressions()) == 1

    def test_aborted_records_excluded(self):
        log = StatementLog()
        for __ in range(4):
            log.append(make_record(execute_seconds=0.01))
        for __ in range(4):
            log.append(make_record(execute_seconds=5.0, aborted=True,
                                   abort_reason="deadline_exceeded"))
        # The slow records are aborts — their latency is the bound that
        # tripped, not the statement; no regression may be flagged.
        assert log.unresolved_regressions() == []
        entry = log.entry("fp-a")
        assert entry.aborts == 4 and len(entry.window) == 4


class TestExportAndReport:

    def test_export_jsonl_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(statement_log, "SNAPSHOT_INTERVAL", 2)
        log = StatementLog(metrics=MetricsRegistry())
        for index in range(5):
            log.append(make_record(execute_seconds=0.01 * (index + 1)))
        path = tmp_path / "flight.jsonl"
        lines = log.export_jsonl(str(path))
        assert lines == 5 + 2
        parsed = [json.loads(line)
                  for line in path.read_text().splitlines()]
        statements = [p for p in parsed if p["kind"] == "statement"]
        snapshots = [p for p in parsed if p["kind"] == "snapshot"]
        assert [p["seq"] for p in statements] == [1, 2, 3, 4, 5]
        assert len(snapshots) == 2
        assert all("registry" in p for p in snapshots)

    def test_report_payload_and_text(self, monkeypatch):
        monkeypatch.setattr(statement_log, "RING_CAPACITY", 8)
        log = StatementLog()
        log.append(make_record())
        log.append(make_record(aborted=True,
                               abort_reason="deadline_exceeded"))
        payload = log.report()
        assert payload["stats"]["size"] == 2
        assert payload["stats"]["capacity"] == 8
        assert payload["records"][0]["aborted"] is True
        text = format_flight_report(payload)
        assert "Flight recorder" in text
        assert "ABORTED (deadline_exceeded)" in text

    def test_empty_report_text(self):
        text = format_flight_report(StatementLog().report())
        assert "(no statements recorded)" in text


class TestDatabaseIntegration:

    def test_statements_recorded_with_fields(self):
        db = build_mini_db(orders=40)
        result = db.run(SCAN_SQL, use_plan_cache=False)
        db.run(JOIN_SQL, use_plan_cache=False)
        records = db.statements.records()
        assert len(records) == 2
        latest, first = records
        assert first.statement_id == result.statement_id
        assert first.rows == len(result.rows)
        assert first.optimizer == result.optimizer_used
        assert first.executor_mode == result.executor_mode
        assert first.plan_hash == result.plan_hash
        assert first.execute_seconds == result.execute_seconds
        assert first.max_q == result.plan_quality.max_q
        assert first.worst_operator == result.plan_quality.worst_operator
        assert first.touches == (("orders", "o_totalprice", "predicate"),)
        assert not first.aborted
        assert latest.seq == first.seq + 1
        text = db.flight_report_text()
        assert "Flight recorder" in text

    def test_aborted_statement_recorded(self):
        db = build_mini_db(orders=40)
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, use_plan_cache=False, timeout_seconds=0.0)
        record = db.statements.records()[0]
        assert record.aborted
        assert record.abort_reason == "deadline_exceeded"
        assert record.fingerprint
        assert record.plan_hash is None

    def test_flight_export_from_db(self, tmp_path):
        db = build_mini_db(orders=20)
        db.run(SCAN_SQL)
        path = tmp_path / "db_flight.jsonl"
        assert db.flight_export(str(path)) >= 1
        assert path.exists()

    def test_watchdog_feeds_advisor_end_to_end(self):
        """Acceptance: an injected p95 regression is flagged by the
        detector and surfaces as an advisor ``plan_regression``
        recommendation, whose apply purges the cached plans and
        resolves the finding."""
        db = build_mini_db(orders=40)
        # Establish the fingerprint in the plan cache and the log.
        result = db.run(SCAN_SQL)
        fingerprint = db.statements.last.fingerprint
        # Inject the regression: three more runs (slower than any real
        # one, so they set the prior p95) complete the prior window,
        # then a trailing window 10x slower.
        for __ in range(3):
            db.statements.append(make_record(
                fingerprint, 0.5, sql=SCAN_SQL,
                plan_hash=result.plan_hash))
        for __ in range(3):
            db.statements.append(make_record(
                fingerprint, 5.0, sql=SCAN_SQL,
                plan_hash=result.plan_hash))
        assert db.statements.unresolved_regressions() == []
        db.statements.append(make_record(fingerprint, 5.0, sql=SCAN_SQL,
                                         plan_hash=result.plan_hash))
        regressions = db.statements.unresolved_regressions()
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression.fingerprint == fingerprint
        # Same-plan slowdown: the detector saw latency, not a plan flip.
        assert regression.from_hash == regression.to_hash
        assert regression.factor == pytest.approx(10.0, rel=0.05)
        recs = [r for r in db.advisor.recommendations()
                if r.kind == "plan_regression"]
        assert len(recs) == 1 and recs[0].target == fingerprint
        assert "unchanged" in recs[0].reason
        actions = db.advisor.apply(kinds=("plan_regression",))
        assert len(actions) == 1
        assert "invalidated 1 cached plans" in actions[0]["action"]
        assert db.statements.unresolved_regressions() == []
        # The verdict restarts on executions of the recompiled plan.
        assert len(db.statements.entry(fingerprint).window) == 0
        rerun = db.run(SCAN_SQL)
        assert rerun.plan_cache_hit is False

    def test_watchdog_findings_deduped_in_repository(self):
        db = build_mini_db(orders=20)
        for __ in range(4):
            db.statements.append(make_record("fp-x", 0.01))
        for __ in range(4):
            db.statements.append(make_record("fp-x", 0.2))
        # More slow traffic, new window end: nothing new while the
        # first finding is unresolved.
        for __ in range(4):
            db.statements.append(make_record("fp-x", 0.2))
        assert len(db.statements.unresolved_regressions()) == 1
        assert db.metrics.count("workload.plan_regressions") == 1


class TestTopReport:

    def test_top_sections_render(self, force_fanout):
        db = build_mini_db(seed=7, orders=150,
                           config=DatabaseConfig(
                               complex_query_threshold=3,
                               batch_size=32))
        agg_sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100"
        db.run(agg_sql, use_plan_cache=False)
        db.run(agg_sql, executor_workers=4, use_plan_cache=False)
        payload = db.top_data()
        assert payload["statements_total"] == 2
        assert payload["active_count"] == 0
        assert payload["hottest"], "the statement log should rank the query"
        assert payload["workers"], "parallel utilization missing"
        assert payload["worker_skew"] is not None
        text = db.top(limit=5)
        assert "engine top" in text
        assert "active statements: (none)" in text
        assert "hottest fingerprints" in text
        assert "parallel workers" in text
        assert "skew: min" in text

    def test_top_before_any_statement(self):
        db = Database(DatabaseConfig())
        text = db.top()
        assert "statements: 0 total" in text
        assert "hottest fingerprints: (none recorded)" in text
        assert "parallel workers: (no parallel statement yet)" in text
