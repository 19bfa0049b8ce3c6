"""Plan-quality feedback: Q-error, the statement log's per-fingerprint
breach record, and the estimate-to-actual loop the Database facade
closes around them.

Covers the Q-error math (including the zero-row smoothing and the
per-loop normalisation for nested-loop inners), per-statement quality
snapshots from both engines, the breach record (which keeps cached
plans), the stale-statistics scenario (load after ANALYZE) and
the report -> advisor -> re-ANALYZE path that heals it, and the export
surfaces: Prometheus text format and the JSONL slow-query log.
"""

import json
import re

import pytest

import repro.database
from repro import Database, DatabaseConfig
from repro import statement_log
from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.observability import find_spans
from repro.plan_cache import statement_cache_key
from repro.plan_quality import (
    format_plan_quality_report,
    per_loop_q,
    q_error,
)
from repro.resilience import statement_fingerprint
from repro.statement_log import StatementLog, StatementRecord
from tests.conftest import build_mini_db
from tests.test_executor_equivalence import CORPUS


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=37, orders=150)


# ---------------------------------------------------------------------------
# Q-error math
# ---------------------------------------------------------------------------

class TestQError:
    def test_perfect_estimate_is_one(self):
        assert q_error(42, 42) == 1.0

    def test_symmetric(self):
        assert q_error(10, 40) == q_error(40, 10) == 4.0

    def test_always_at_least_one(self):
        for est, act in [(1, 1), (3, 7), (0, 0), (0, 5), (5, 0)]:
            assert q_error(est, act) >= 1.0

    def test_zero_actual_smooths_both_sides(self):
        # est=9 act=0 -> (9+1)/(0+1) = 10, finite and symmetric.
        assert q_error(9, 0) == 10.0
        assert q_error(0, 9) == 10.0

    def test_zero_vs_zero_is_perfect(self):
        assert q_error(0, 0) == 1.0

    def test_fractional_estimates(self):
        assert q_error(0.5, 1) == 2.0

    def test_negative_inputs_clamp_to_zero(self):
        assert q_error(-3, 0) == 1.0
        assert q_error(-1, 4) == 5.0

    def test_per_loop_normalisation(self):
        # An inner lookup estimated at 1 row/probe, probed 100 times,
        # returning 100 rows total, is a perfect estimate.
        assert per_loop_q(1, 100, 100) == 1.0
        assert per_loop_q(1, 300, 100) == 3.0

    def test_per_loop_zero_loops_is_neutral(self):
        # A node that never started left its estimate untested.
        assert per_loop_q(50, 0, 0) == 1.0

    def test_per_loop_single_loop_matches_q_error(self):
        assert per_loop_q(10, 25, 1) == q_error(10, 25)


# ---------------------------------------------------------------------------
# Per-statement quality snapshots
# ---------------------------------------------------------------------------

class TestStatementQuality:
    def test_every_node_reports_estimate_and_actual(self, db):
        result = db.run("SELECT o_orderkey FROM orders "
                        "WHERE o_totalprice > 5000")
        quality = result.plan_quality
        assert quality is not None
        assert quality.nodes, "plan with a node tree must report nodes"
        for node in quality.nodes:
            assert node.estimated >= 0.0
            assert node.actual >= 0
            assert node.loops >= 1
            assert node.q >= 1.0
        assert quality.max_q == max(n.q for n in quality.nodes)
        assert quality.worst in quality.nodes
        assert quality.worst_operator == quality.worst.operator

    def test_root_q_tracks_output_cardinality(self, db):
        result = db.run("SELECT COUNT(*) FROM orders")
        quality = result.plan_quality
        # The root aggregate produces exactly one row and is estimated
        # at one row: a perfect root estimate.
        assert quality.root_q == 1.0

    def test_both_optimizers_report_quality(self, db):
        for optimizer in ("mysql", "orca"):
            result = db.run(
                "SELECT c_name, COUNT(*) FROM customer, orders "
                "WHERE c_custkey = o_custkey GROUP BY c_name",
                optimizer=optimizer)
            assert result.plan_quality is not None
            assert result.plan_quality.nodes

    def test_nested_loop_inner_counts_loops(self, db):
        result = db.run(
            "SELECT c_name, o_totalprice FROM customer JOIN orders "
            "ON c_custkey = o_custkey")
        lookups = [n for n in result.plan_quality.nodes
                   if n.operator == "IndexLookup"]
        assert lookups, "expected an index-lookup inner side"
        assert any(n.loops > 1 for n in lookups)
        # Per-probe the lookup estimate is excellent; without loop
        # normalisation this node would score q == actual rows.
        for node in lookups:
            assert node.q < 4.0

    def test_empty_table_zero_actuals_stay_finite(self):
        empty = Database()
        empty.create_table(TableSchema("t", [
            Column.of("a", MySQLType.LONGLONG, nullable=False),
        ], [Index("PRIMARY", ("a",), primary=True)]))
        empty.analyze()
        quality = empty.run("SELECT a FROM t WHERE a > 5").plan_quality
        assert quality.nodes
        for node in quality.nodes:
            assert node.actual == 0
            assert node.q >= 1.0

    def test_null_only_group_keys(self, db):
        quality = db.run(
            "SELECT o_comment, COUNT(*) FROM orders "
            "WHERE o_comment IS NULL GROUP BY o_comment").plan_quality
        aggregates = [n for n in quality.nodes
                      if n.operator == "Aggregate"]
        assert aggregates
        # One NULL group comes out; the estimate survives the NULL key.
        assert aggregates[0].actual == 1
        assert aggregates[0].q >= 1.0

    def test_select_without_from_is_neutral(self, db):
        quality = db.run("SELECT 1 + 1").plan_quality
        assert quality.root_q == 1.0
        assert quality.max_q == 1.0

    def test_snapshot_survives_plan_reuse(self, db):
        sql = "SELECT o_orderkey FROM orders WHERE o_totalprice > 9000"
        first = db.run(sql).plan_quality
        saved = [n.actual for n in first.nodes]
        db.run(sql)  # cached-plan re-execution resets live counters
        assert [n.actual for n in first.nodes] == saved


# ---------------------------------------------------------------------------
# Row vs batch actuals on the equivalence corpus
# ---------------------------------------------------------------------------

class TestRowBatchActualParity:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_actuals_agree(self, db, sql):
        row = db.run(sql, executor_mode="row").plan_quality
        batch = db.run(sql, executor_mode="batch").plan_quality
        assert len(row.nodes) == len(batch.nodes)
        limited = "LIMIT" in sql.upper()
        for r, b in zip(row.nodes, batch.nodes):
            assert r.operator == b.operator
            assert r.label == b.label
            if limited:
                # The row engine truncates mid-stream; the batch engine
                # counts whole emitted batches, so it may read ahead.
                assert b.actual >= r.actual
            else:
                assert b.actual == r.actual, (
                    f"{r.operator} actuals diverge on {sql!r}")


# ---------------------------------------------------------------------------
# The statement log's estimate-accuracy record
# ---------------------------------------------------------------------------

def _record(log: StatementLog, fingerprint: str, max_q: float,
            operator: str = "TableScan", optimizer: str = "mysql"
            ) -> StatementRecord:
    """Append one completed SELECT whose only node has Q ``max_q``."""
    return log.append(StatementRecord(
        fingerprint=fingerprint, sql=f"select {fingerprint}",
        plan_hash="aaaa", optimizer=optimizer, executor_mode="batch",
        root_q=max_q, max_q=max_q, worst_operator=operator,
        breached=max_q > log.q_threshold,
        operators=(operator,), node_q=(max_q,)))


class TestMisestimationLedger:
    def test_breaches_are_recorded_never_acted_on(self):
        log = StatementLog(q_threshold=4.0)
        for __ in range(5):
            _record(log, "f1", 10.0)
        # append() only records: no verdict on any cached plan.
        entry = log.entry("f1")
        assert entry.executions == 5
        assert entry.breaches == 5
        assert log.quality_stats()["breaches"] == 5
        assert "invalidations" not in log.quality_stats()
        assert "plan_invalidations" not in entry.quality_dict()

    def test_good_execution_keeps_the_breach_history(self):
        log = StatementLog(q_threshold=4.0)
        _record(log, "f1", 10.0)
        _record(log, "f1", 1.0)
        _record(log, "f1", 10.0)
        entry = log.entry("f1")
        assert entry.breaches == 2
        assert entry.executions == 3
        assert entry.max_q == 10.0
        assert entry.last_q == 10.0

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(statement_log, "FINGERPRINT_CAPACITY", 2)
        log = StatementLog()
        for fingerprint in ("a", "b", "c"):
            _record(log, fingerprint, 1.0)
        assert log.entry("a") is None
        assert log.entry("b") is not None
        assert log.evictions == 1

    def test_worst_rankings(self):
        log = StatementLog()
        _record(log, "fs", 2.0, "Sort")
        _record(log, "fb", 50.0, "HashJoin", optimizer="orca")
        worst = log.worst_fingerprints()
        assert worst[0].fingerprint == "fb"
        assert worst[0].worst_operator == "HashJoin"
        operators = log.worst_operators()
        assert operators[0]["operator"] == "HashJoin"
        assert operators[0]["max_q"] == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StatementLog(q_threshold=0.5)
        for kwargs in ({"capacity": 2}, {"consecutive_threshold": 3}):
            with pytest.raises(TypeError):
                StatementLog(**kwargs)


# ---------------------------------------------------------------------------
# Stale statistics drive the feedback loop end to end
# ---------------------------------------------------------------------------

def _feedback_db(q_threshold=None) -> Database:
    db = Database()
    if q_threshold is not None:
        db.statements.q_threshold = q_threshold
    db.create_table(TableSchema("t", [
        Column.of("a", MySQLType.LONGLONG, nullable=False),
        Column.of("b", MySQLType.LONGLONG, nullable=False),
    ], [Index("PRIMARY", ("a",), primary=True)]))
    return db


class TestStaleStatisticsFeedback:
    def test_breaches_keep_the_cached_plan(self):
        db = _feedback_db(q_threshold=4.0)
        db.load("t", [(k, k % 7) for k in range(1, 11)])
        db.analyze()
        # Fault injection: grow the table 100x *after* ANALYZE, so the
        # optimizer keeps costing against 10-row statistics.
        db.load("t", [(k, k % 7) for k in range(11, 1001)])

        sql = "SELECT a FROM t WHERE b >= 0"
        cache_key = statement_cache_key(sql, "auto")
        # Run 1 compiles; every later run is served the same plan,
        # breach or not: statistics have not moved, so a recompile
        # could only return that plan again.
        for number in range(6):
            result = db.run(sql)
            assert result.plan_cache_hit == (number > 0)
            assert len(result.rows) == 1000
            assert result.plan_quality.max_q > 4.0

        entry = db.statements.entry(statement_fingerprint(sql))
        assert entry.breaches == 6
        assert cache_key in db.plan_cache
        assert db.plan_cache.misses == 1
        assert db.plan_cache.invalidations == 0
        assert db.metrics.count("planq.breaches") == 6
        assert db.plan_quality_report()["ledger"]["breaches"] == 6

    def test_reanalyze_heals_a_breaching_plan(self):
        """The path the breach streak stood in for: stale statistics
        are reported, the advisor re-ANALYZEs, and *that* is what makes
        the next run recompile — against the new row count."""
        db = _feedback_db(q_threshold=4.0)
        db.load("t", [(k, k % 7) for k in range(1, 11)])
        db.analyze()
        sql = "SELECT a FROM t WHERE b >= 0"
        assert db.run(sql).plan_quality.max_q <= 4.0
        db.load("t", [(k, k % 7) for k in range(11, 1001)])

        stale = db.run(sql, trace=True)
        assert stale.plan_cache_hit
        assert sorted(stale.rows) == [(k,) for k in range(1, 1001)]
        assert stale.plan_quality.max_q > 4.0
        assert db.plan_quality_report()["reanalyze_recommendations"] \
            == ["t"]

        actions = db.advisor.apply()
        assert [(a["kind"], a["target"]) for a in actions] \
            == [("reanalyze", "t")]

        healed = db.run(sql, trace=True)
        assert not healed.plan_cache_hit
        route = find_spans(healed.trace, "route")[0]
        assert route.attributes["plan_cache"] == "stale"
        assert db.plan_cache.invalidations == 1
        assert sorted(healed.rows) == sorted(stale.rows)
        assert healed.plan_quality.nodes[-1].estimated \
            > 10 * stale.plan_quality.nodes[-1].estimated
        assert healed.plan_quality.max_q <= 4.0
        assert db.plan_quality_report()["reanalyze_recommendations"] \
            == []
        again = db.run(sql)
        assert again.plan_cache_hit
        assert again.plan_quality.max_q <= 4.0

    def test_report_recommends_reanalyze(self):
        db = _feedback_db(q_threshold=4.0)
        db.load("t", [(k, k % 7) for k in range(1, 11)])
        db.analyze()
        db.load("t", [(k, k % 7) for k in range(11, 1001)])
        db.run("SELECT a FROM t WHERE b >= 0")

        report = db.plan_quality_report()
        assert "t" in report["reanalyze_recommendations"]
        staleness = {row["table"]: row for row in
                     report["stats_staleness"]}
        assert staleness["t"]["analyzed"] is True
        assert staleness["t"]["stats_rows"] == 10
        assert staleness["t"]["live_rows"] == 1000
        assert staleness["t"]["staleness"] == pytest.approx(99.0)
        assert report["worst_fingerprints"], "ledger must surface the " \
            "misestimated statement"
        assert report["ledger"]["breaches"] >= 1

        # Re-ANALYZE clears both the staleness flag and the breaches.
        db.analyze()
        db.run("SELECT a FROM t WHERE b >= 0")
        report = db.plan_quality_report()
        assert "t" not in report["reanalyze_recommendations"]

    def test_never_analyzed_table_is_flagged(self):
        db = _feedback_db()
        db.load("t", [(1, 1), (2, 2)])
        report = db.plan_quality_report()
        staleness = {row["table"]: row for row in
                     report["stats_staleness"]}
        assert staleness["t"]["analyzed"] is False
        assert staleness["t"]["staleness"] == 1.0
        assert "t" in report["reanalyze_recommendations"]

    def test_report_text_renders(self):
        db = _feedback_db(q_threshold=2.0)
        db.load("t", [(k, k) for k in range(1, 6)])
        db.analyze()
        db.load("t", [(k, k) for k in range(6, 101)])
        db.run("SELECT a FROM t WHERE b >= 0")
        text = db.plan_quality_report_text()
        assert "Plan quality" in text
        assert "REANALYZE" in text
        assert "worst statements" in text
        # The formatter is a pure function of the payload too.
        assert text == format_plan_quality_report(
            db.plan_quality_report())

    def test_config_validation(self):
        with pytest.raises(TypeError):
            DatabaseConfig(planq_consecutive_breaches=3)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE annotations
# ---------------------------------------------------------------------------

class TestExplainAnalyzeAnnotation:
    def test_annotation_per_node(self, db):
        text = db.explain_analyze(
            "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status")
        for line in text.splitlines():
            if "-> " in line and "(cost=" in line:
                assert re.search(
                    r"\(estimated rows=[\d.]+ actual rows=\d+ "
                    r"q=[\d.]+(?: loops=\d+)?\)", line), line

    def test_loops_shown_for_nested_loop_inner(self, db):
        text = db.explain_analyze(
            "SELECT c_name, o_totalprice FROM customer JOIN orders "
            "ON c_custkey = o_custkey")
        assert re.search(r"loops=\d{2,}", text)

    def test_estimates_render_unclamped(self):
        from repro.executor.explain import _fmt_estimate
        assert _fmt_estimate(0) == "0"
        assert _fmt_estimate(0.25) == "0.25"
        assert _fmt_estimate(3.0) == "3"


# ---------------------------------------------------------------------------
# Prometheus export
# ---------------------------------------------------------------------------

_PROM_TYPE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary)$")
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[a-zA-Z_]+=\"[^\"]*\"\})? "
    r"(-?\d+(\.\d+)?([eE][-+]?\d+)?)$")


def _parse_prometheus(text: str) -> dict:
    """Validate Prometheus text exposition format; returns samples.

    Every line must be a ``# TYPE`` declaration or a sample whose
    metric family was declared first — the subset the exporter emits.
    """
    declared = {}
    samples = {}
    for line in text.splitlines():
        type_match = _PROM_TYPE.match(line)
        if type_match:
            declared[type_match.group(1)] = type_match.group(2)
            continue
        sample = _PROM_SAMPLE.match(line)
        assert sample, f"invalid Prometheus line: {line!r}"
        name = sample.group(1)
        family = name
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                family = name[:-len(suffix)]
        assert family in declared, f"undeclared metric {name!r}"
        samples[name + (sample.group(2) or "")] = float(sample.group(3))
    return samples


class TestMetricsExport:
    def test_export_parses_as_prometheus_text(self, db):
        db.run("SELECT COUNT(*) FROM orders")
        text = db.metrics_export()
        samples = _parse_prometheus(text)
        assert samples
        assert text.endswith("\n")

    def test_planq_metrics_present(self, db):
        db.run("SELECT COUNT(*) FROM orders")
        samples = _parse_prometheus(db.metrics_export())
        assert samples["repro_planq_statements_total"] >= 1
        assert samples['repro_planq_max_q{quantile="0.5"}'] >= 1.0
        assert samples["repro_planq_root_q_count"] >= 1

    def test_counter_names_are_sanitised(self, db):
        db.run("SELECT COUNT(*) FROM orders")
        text = db.metrics_export()
        assert "repro_statements_total_total" in text
        assert "." not in text.split("\n")[0].split(" ")[2]

    def test_empty_registry_exports_empty(self):
        from repro.observability import MetricsRegistry
        assert MetricsRegistry().to_prometheus() == ""


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------

class TestSlowQueryLog:
    def test_jsonl_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.database,
                            "SLOW_QUERY_LOG_THRESHOLD_SECONDS", 0.0)
        path = tmp_path / "slow.jsonl"
        db = Database(DatabaseConfig(slow_query_log_path=str(path)))
        db.create_table(TableSchema("t", [
            Column.of("a", MySQLType.LONGLONG, nullable=False),
        ], [Index("PRIMARY", ("a",), primary=True)]))
        db.load("t", [(k,) for k in range(1, 21)])
        db.analyze()
        db.run("SELECT a FROM t WHERE a > 5")
        db.run("SELECT COUNT(*) FROM t")

        records = [json.loads(line) for line
                   in path.read_text().splitlines()]
        selects = [r for r in records
                   if r["sql"].upper().startswith("SELECT")]
        assert len(selects) == 2
        for record in selects:
            assert record["fingerprint"]
            assert record["optimizer"] in ("mysql", "orca")
            assert record["total_seconds"] >= 0.0
            assert record["root_q"] >= 1.0
            assert record["max_q"] >= 1.0
            assert "ts" in record
        assert db.metrics.count("slow_query_log.records") == len(records)

    def test_fast_statements_skip_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.database,
                            "SLOW_QUERY_LOG_THRESHOLD_SECONDS", 10.0)
        path = tmp_path / "slow.jsonl"
        db = Database(DatabaseConfig(slow_query_log_path=str(path)))
        db.run("SELECT 1")
        assert not path.exists()

    def test_disabled_by_default(self, db):
        assert db.config.slow_query_log_path is None
