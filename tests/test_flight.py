"""Flight recorder: bounded history, registry snapshots, the p95
regression watchdog, and its wiring into the workload advisor.

The recorder is the "what was the engine doing right before things
went bad" surface: a ring of one :class:`FlightRecord` per finished
statement plus periodic registry snapshots.  The watchdog compares
trailing-window p95 per fingerprint against the window before it; a
confirmed regression flows — through the Database — into the workload
repository, where the existing Advisor surfaces and remediates it.
"""

import json

import pytest

from repro import Database, DatabaseConfig
from repro.errors import DeadlineExceededError, ReproError
from repro.flight import (FlightRecord, FlightRecorder, WatchdogFinding,
                          _exact_p95, format_flight_report,
                          format_top_report)
from repro.observability import MetricsRegistry
from tests.conftest import build_mini_db

SCAN_SQL = "SELECT o_orderkey FROM orders WHERE o_totalprice > 100"
JOIN_SQL = ("SELECT c_name, COUNT(*) FROM customer, orders "
            "WHERE c_custkey = o_custkey GROUP BY c_name")


def make_record(fingerprint="fp-a", execute_seconds=0.01,
                aborted=False, **overrides):
    options = dict(seq=0, statement_id=1, fingerprint=fingerprint,
                   sql=f"SELECT /* {fingerprint} */ 1",
                   execute_seconds=execute_seconds,
                   compile_seconds=0.001, aborted=aborted)
    options.update(overrides)
    return FlightRecord(**options)


class TestRingBuffer:

    def test_capacity_bounds_and_latest_first(self):
        recorder = FlightRecorder(capacity=4)
        for __ in range(10):
            recorder.record(make_record())
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [r.seq for r in recorder.records()] == [10, 9, 8, 7]
        assert [r.seq for r in recorder.records(limit=2)] == [10, 9]

    def test_record_assigns_seq_and_timestamp(self):
        recorder = FlightRecorder()
        record = recorder.record(make_record())
        assert record.seq == 1
        assert record.ts  # ISO stamp filled in
        assert record.total_seconds == pytest.approx(0.011)

    def test_snapshots_every_interval(self):
        metrics = MetricsRegistry()
        recorder = FlightRecorder(snapshot_interval=2, metrics=metrics)
        for __ in range(5):
            recorder.record(make_record())
        snapshots = recorder.snapshots()
        assert [s["seq"] for s in snapshots] == [2, 4]
        assert all("registry" in s for s in snapshots)
        assert metrics.count("flight.records") == 5
        assert metrics.count("flight.snapshots") == 2

    @pytest.mark.parametrize("kwargs", [
        dict(capacity=0),
        dict(snapshot_interval=0),
        dict(watchdog_window=0),
        dict(watchdog_factor=1.0),
        dict(watchdog_min_samples=0),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlightRecorder(**kwargs)


class TestWatchdog:

    def _recorder(self, **overrides):
        options = dict(watchdog_window=4, watchdog_min_samples=2,
                       watchdog_factor=2.0,
                       metrics=MetricsRegistry())
        options.update(overrides)
        return FlightRecorder(**options)

    def test_exact_p95_interpolates(self):
        assert _exact_p95([]) == 0.0
        assert _exact_p95([5.0]) == 5.0
        values = [float(v) for v in range(1, 101)]
        assert _exact_p95(values) == pytest.approx(95.05)

    def test_flags_injected_regression_once(self):
        recorder = self._recorder()
        for __ in range(4):
            recorder.record(make_record(execute_seconds=0.01))
        for __ in range(4):
            recorder.record(make_record(execute_seconds=0.10))
        findings = recorder.watchdog_check()
        assert len(findings) == 1
        finding = findings[0]
        assert isinstance(finding, WatchdogFinding)
        assert finding.fingerprint == "fp-a"
        assert finding.factor == pytest.approx(10.0, rel=0.01)
        assert finding.samples_before == 4
        assert finding.samples_after == 4
        assert recorder.metrics.count("flight.watchdog_findings") == 1
        # Same windows, second check: deduped, not re-flagged.
        assert recorder.watchdog_check() == []

    def test_steady_latency_not_flagged(self):
        recorder = self._recorder()
        for __ in range(8):
            recorder.record(make_record(execute_seconds=0.01))
        assert recorder.watchdog_check() == []

    def test_needs_evidence_on_both_sides(self):
        recorder = self._recorder()
        # Only one prior sample of fp-b: below min_samples, no verdict.
        recorder.record(make_record(execute_seconds=0.01))
        for __ in range(3):
            recorder.record(make_record("fp-b", execute_seconds=0.01))
        for __ in range(4):
            recorder.record(make_record("fp-b", execute_seconds=0.5))
        # fp-b has 4 trailing + 0 prior in the comparison windows once
        # the trailing window is all-slow; nothing may be flagged
        # without min_samples on the *before* side too.
        findings = recorder.watchdog_check()
        assert all(f.samples_before >= 2 for f in findings)

    def test_aborted_records_excluded(self):
        recorder = self._recorder()
        for __ in range(4):
            recorder.record(make_record(execute_seconds=0.01))
        for __ in range(4):
            recorder.record(make_record(execute_seconds=5.0,
                                        aborted=True,
                                        abort_reason="deadline"))
        # The slow records are aborts — their latency is the bound that
        # tripped, not the statement; no regression may be flagged.
        assert recorder.watchdog_check() == []


class TestExportAndReport:

    def test_export_jsonl_round_trips(self, tmp_path):
        recorder = FlightRecorder(snapshot_interval=2,
                                  metrics=MetricsRegistry())
        for index in range(5):
            recorder.record(make_record(execute_seconds=0.01 * (index + 1)))
        path = tmp_path / "flight.jsonl"
        lines = recorder.export_jsonl(str(path))
        assert lines == 5 + 2
        parsed = [json.loads(line)
                  for line in path.read_text().splitlines()]
        statements = [p for p in parsed if p["kind"] == "statement"]
        snapshots = [p for p in parsed if p["kind"] == "snapshot"]
        assert [p["seq"] for p in statements] == [1, 2, 3, 4, 5]
        assert len(snapshots) == 2
        assert all("registry" in p for p in snapshots)

    def test_report_payload_and_text(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(make_record())
        recorder.record(make_record(aborted=True,
                                    abort_reason="deadline"))
        payload = recorder.report()
        assert payload["stats"]["size"] == 2
        assert payload["records"][0]["aborted"] is True
        text = format_flight_report(payload)
        assert "Flight recorder" in text
        assert "ABORTED (deadline)" in text

    def test_empty_report_text(self):
        text = format_flight_report(FlightRecorder().report())
        assert "(no statements recorded)" in text


class TestDatabaseIntegration:

    def test_statements_recorded_with_fields(self):
        db = build_mini_db(orders=40)
        result = db.run(SCAN_SQL, use_plan_cache=False)
        db.run(JOIN_SQL, use_plan_cache=False)
        records = db.flight.records()
        assert len(records) == 2
        latest, first = records
        assert first.statement_id == result.statement_id
        assert first.rows == len(result.rows)
        assert first.optimizer == result.optimizer_used
        assert first.executor_mode == result.executor_mode
        assert first.plan_hash == result.plan_hash
        assert first.execute_seconds == result.execute_seconds
        assert not first.aborted
        assert latest.seq == first.seq + 1
        text = db.flight_report_text()
        assert "Flight recorder" in text

    def test_aborted_statement_recorded(self):
        db = build_mini_db(orders=40)
        with pytest.raises(DeadlineExceededError):
            db.run(JOIN_SQL, use_plan_cache=False, timeout_seconds=0.0)
        record = db.flight.records()[0]
        assert record.aborted
        assert record.abort_reason == "deadline_exceeded"
        assert record.fingerprint

    def test_disabled_recorder(self):
        db = build_mini_db(
            orders=20,
            config=DatabaseConfig(flight_recorder_enabled=False))
        db.run(SCAN_SQL)
        assert db.flight is None
        with pytest.raises(ReproError):
            db.flight_report()
        with pytest.raises(ReproError):
            db.flight_export("/tmp/unused.jsonl")

    def test_flight_export_from_db(self, tmp_path):
        db = build_mini_db(orders=20)
        db.run(SCAN_SQL)
        path = tmp_path / "db_flight.jsonl"
        assert db.flight_export(str(path)) >= 1
        assert path.exists()

    def test_watchdog_feeds_advisor_end_to_end(self):
        """Acceptance: an injected p95 regression is flagged by the
        watchdog and surfaces as an advisor ``plan_regression``
        recommendation, whose apply purges the cached plans."""
        db = build_mini_db(
            orders=40,
            config=DatabaseConfig(flight_watchdog_window=4,
                                  flight_watchdog_min_samples=2))
        # Establish the fingerprint in the plan cache + workload repo.
        result = db.run(SCAN_SQL)
        fingerprint = db.flight.records()[0].fingerprint
        # Inject the regression: a prior window of fast runs, then a
        # trailing window 10x slower, as the recorder would see them.
        for __ in range(4):
            db.flight.record(make_record(fingerprint, 0.01,
                                         sql=SCAN_SQL,
                                         plan_hash=result.plan_hash))
        for __ in range(3):
            db.flight.record(make_record(fingerprint, 0.10,
                                         sql=SCAN_SQL,
                                         plan_hash=result.plan_hash))
        assert db.workload.unresolved_regressions() == []
        db.flight.record(make_record(fingerprint, 0.10, sql=SCAN_SQL,
                                     plan_hash=result.plan_hash))
        db._run_watchdog()
        regressions = db.workload.unresolved_regressions()
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression.fingerprint == fingerprint
        # Same-plan slowdown: the watchdog saw latency, not a plan flip.
        assert regression.from_hash == regression.to_hash
        assert regression.factor == pytest.approx(10.0, rel=0.05)
        recs = [r for r in db.advisor.recommendations()
                if r.kind == "plan_regression"]
        assert len(recs) == 1 and recs[0].target == fingerprint
        actions = db.advisor.apply(kinds=("plan_regression",))
        assert len(actions) == 1
        assert "invalidated" in actions[0]["action"]
        assert db.workload.unresolved_regressions() == []
        # Dropping the cached plan forces a recompile next run.
        rerun = db.run(SCAN_SQL)
        assert rerun.plan_cache_hit is False

    def test_watchdog_findings_deduped_in_repository(self):
        db = build_mini_db(
            orders=20,
            config=DatabaseConfig(flight_watchdog_window=4,
                                  flight_watchdog_min_samples=2))
        for __ in range(4):
            db.flight.record(make_record("fp-x", 0.01))
        for __ in range(4):
            db.flight.record(make_record("fp-x", 0.2))
        db._run_watchdog()
        # More slow traffic, new window end: the recorder re-flags, but
        # the repository drops it while the first is unresolved.
        for __ in range(4):
            db.flight.record(make_record("fp-x", 0.2))
        db._run_watchdog()
        assert len(db.workload.unresolved_regressions()) == 1


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
        assert payload["hottest"], "workload repo should rank the query"
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
