"""Reports are views of one record.

One seeded mix (:mod:`tests.statement_mix`: plan-cache hits, misses
and stale lookups, literal variants, DML, a governor abort, a
batch-unsupported degradation and a circuit-open detour fallback) runs
against a Database whose statement ring is larger than the mix.  Then:

* the log holds exactly one record per ``statement_id``, and
  ``flight.records`` equals ``statements.total``;
* every number in ``workload_report()``, ``plan_quality_report()``,
  ``top_data()`` and the slow-query log lines is recomputed here from
  the ring alone, with no access to the log's folds;
* the four report texts match the committed goldens, and differ from
  the texts of the commit before the statement log (kept beside them
  under ``parent/``) only where the semantics changed on purpose: the
  plan-quality statements are keyed by fingerprint rather than by
  plan-cache key.
"""

import difflib
import json
import time
from collections import Counter, OrderedDict

import pytest

import repro.database
from repro import DatabaseConfig
from repro.observability import interpolated_quantile as _quantile
from tests.statement_mix import GOLDEN_DIR, mask, mixed_database, \
    report_texts

PARENT_DIR = GOLDEN_DIR / "parent"


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """(db, slow-log lines) after the mix, every statement slow-logged."""
    path = tmp_path_factory.mktemp("slow") / "slow.jsonl"
    try:
        db = mixed_database(DatabaseConfig(
            complex_query_threshold=3,
            slow_query_log_path=str(path),
            slow_query_log_threshold_seconds=0.0))
    finally:
        repro.database.time = time
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return db, lines


@pytest.fixture(scope="module")
def db(mixed):
    return mixed[0]


@pytest.fixture(scope="module")
def ring(db):
    """The ring, oldest first; the mix must fit in it."""
    records = list(reversed(db.statements.records()))
    assert len(records) == db.statements.total < db.statements.ring_capacity
    return records


def _completions(ring):
    return [r for r in ring if not r.aborted and r.plan_hash is not None]


def _entries(ring):
    """Replay the ring into per-fingerprint entries in LRU order."""
    entries = OrderedDict()
    for record in ring:
        folds = record.aborted or record.plan_hash is not None
        if not folds:
            continue  # DML feeds only the ring
        entry = entries.get(record.fingerprint)
        if entry is None:
            entry = entries[record.fingerprint] = {
                "sql": record.sql, "completions": [], "aborts": 0}
        entries.move_to_end(record.fingerprint)
        if record.aborted:
            entry["aborts"] += 1
        else:
            entry["completions"].append(record)
    return entries


class TestOneRecordPerStatement:
    def test_mix_covers_every_record_kind(self, db, ring):
        fallbacks = {e.reason.value for e in db.fallback_log.events}
        assert {"circuit_open", "unexpected_exception",
                "deadline_exceeded"} <= fallbacks
        stats = db.plan_cache.stats()
        assert stats["hits"] and stats["misses"] and stats["invalidations"]
        assert any(r.aborted for r in ring)
        assert any(r.plan_hash is None and not r.aborted for r in ring)
        # Every SELECT, the subquery one included, ran on the batch engine.
        assert all(r.executor_mode == "batch" for r in ring if r.plan_hash)

    def test_exactly_one_record_per_statement_id(self, db, ring):
        ids = [record.statement_id for record in ring]
        assert ids == list(range(1, len(ring) + 1))
        assert [record.seq for record in ring] == ids
        assert db.metrics.count("flight.records") == db.statements.total \
            == db.metrics.count("statements.total") == len(ring)
        assert db.metrics.count("workload.recorded") \
            == db.statements.recorded == len(_completions(ring))


class TestReportsAreViews:
    def test_workload_report(self, db, ring):
        report = db.workload_report()["repository"]
        entries = _entries(ring)
        touches = Counter(t for r in _completions(ring) for t in r.touches)
        assert report["stats"] == {
            "size": len(entries),
            "capacity": db.statements.capacity,
            "recorded": len(_completions(ring)),
            "evictions": 0,
            "breaches": sum(r.breached for r in _completions(ring)),
            "plan_regressions": 0,
            "tracked_columns": len(touches),
        }
        ranked = sorted(entries.items(),
                        key=lambda item: (-len(item[1]["completions"]),
                                          item[0]))
        expected = []
        for fingerprint, entry in ranked:
            done = entry["completions"]
            latencies = sorted(r.total_seconds for r in done)
            hashes = [r.plan_hash for r in done]
            hits = sum(r.plan_cache_hit for r in done)
            total = 0.0
            for record in done:
                total += record.total_seconds
            expected.append({
                "fingerprint": fingerprint,
                "sql": entry["sql"],
                "executions": len(done),
                "rows": sum(r.rows for r in done),
                "aborts": entry["aborts"],
                "fallbacks": sum(r.fallback_reason is not None
                                 for r in done),
                "breaches": sum(r.breached for r in done),
                "plan_cache_hits": hits,
                "plan_cache_hit_ratio": hits / len(done) if done else 0.0,
                "latency": {
                    "count": len(done),
                    "sum": total,
                    "mean": total / len(done) if done else 0.0,
                    "min": latencies[0] if done else 0.0,
                    "max": latencies[-1] if done else 0.0,
                    "p50": _quantile(latencies, 0.50),
                    "p95": _quantile(latencies, 0.95),
                    "p99": _quantile(latencies, 0.99),
                },
                "optimizers": dict(sorted(Counter(
                    r.optimizer for r in done).items())),
                "executor_modes": dict(sorted(Counter(
                    r.executor_mode for r in done).items())),
                "plan_hash": hashes[-1] if hashes else None,
                "plan_changes": sum(a != b for a, b in
                                    zip(hashes, hashes[1:])),
                "regressions": [],
                "columns": [list(t) for t in done[-1].touches]
                if done else [],
            })
        assert report["statements"] == expected[:20]
        assert report["column_usage"] == [
            {"table": t, "column": c, "kind": k, "executions": n}
            for (t, c, k), n in sorted(touches.items(),
                                       key=lambda item: (-item[1],
                                                         item[0]))][:20]

    def test_plan_quality_report(self, db, ring):
        report = db.plan_quality_report()
        entries = _entries(ring)
        done_all = _completions(ring)
        assert report["ledger"] == {
            "size": sum(1 for e in entries.values() if e["completions"]),
            "capacity": db.statements.capacity,
            "q_threshold": db.statements.q_threshold,
            "evictions": 0,
            "breaches": sum(r.breached for r in done_all),
            "aborted": sum(r.aborted for r in ring),
        }
        expected = []
        for fingerprint, entry in entries.items():
            done = entry["completions"]
            if not done:
                continue
            max_q, worst = 1.0, ""
            for record in done:
                if record.max_q > max_q:
                    max_q, worst = record.max_q, record.worst_operator
            expected.append({
                "fingerprint": fingerprint,
                "sql": entry["sql"],
                "executions": len(done),
                "breaches": sum(r.breached for r in done),
                "max_q": max_q,
                "last_q": done[-1].max_q,
                "last_root_q": done[-1].root_q,
                "worst_operator": worst,
                "last_optimizer": done[-1].optimizer,
            })
        expected.sort(key=lambda e: e["max_q"], reverse=True)
        assert report["worst_fingerprints"] == expected[:10]
        operators = {}
        for record in done_all:
            assert record.breached == \
                (record.max_q > db.statements.q_threshold)
            for name, q in zip(record.operators, record.node_q):
                stats = operators.setdefault(
                    name, {"observations": 0, "breaches": 0, "max_q": 1.0})
                stats["observations"] += 1
                stats["breaches"] += q > db.statements.q_threshold
                stats["max_q"] = max(stats["max_q"], q)
        ranked = sorted(operators.items(), key=lambda item: item[1]["max_q"],
                        reverse=True)
        assert report["worst_operators"] == [
            {"operator": name, **stats} for name, stats in ranked][:10]

    def test_top_data(self, db, ring):
        payload = db.top_data()
        entries = _entries(ring)
        ranked = sorted(entries.items(),
                        key=lambda item: (-len(item[1]["completions"]),
                                          item[0]))
        assert payload["statements_total"] == len(ring)
        assert payload["statements_aborted"] == \
            sum(r.aborted for r in ring)
        assert payload["hottest"] == [{
            "fingerprint": fingerprint,
            "sql": entry["sql"],
            "executions": len(entry["completions"]),
            "p95_seconds": _quantile(sorted(
                r.total_seconds for r in entry["completions"]), 0.95),
        } for fingerprint, entry in ranked][:10]

    def test_slow_log_lines(self, mixed, ring):
        __, lines = mixed
        logged = [r for r in ring if not r.aborted]
        assert len(lines) == len(logged)
        for line, record in zip(lines, logged):
            assert line == {
                "ts": record.ts,
                "sql": record.sql,
                "fingerprint": record.fingerprint,
                "plan_hash": record.plan_hash,
                "optimizer": record.optimizer,
                "executor_mode": record.executor_mode,
                "plan_cache_hit": record.plan_cache_hit,
                "total_seconds": record.total_seconds,
                "compile_seconds": record.compile_seconds,
                "execute_seconds": record.execute_seconds,
                "rows": record.rows,
                "root_q": record.root_q,
                "max_q": record.max_q,
                "worst_operator": record.worst_operator,
                "fallback_reason": record.fallback_reason,
                "stages": record.stage_seconds or {},
                "trace": [],
            }


class TestGoldens:
    def test_report_texts_match_goldens(self):
        try:
            texts = report_texts(mixed_database())
        finally:
            repro.database.time = time
        for name, text in texts.items():
            assert mask(text) == (GOLDEN_DIR / name).read_text(), name

    @pytest.mark.parametrize("name", ["workload_report.txt",
                                      "flight_report.txt", "top.txt"])
    def test_unchanged_reports_are_byte_identical(self, name):
        parent = (PARENT_DIR / name).read_text()
        if name == "flight_report.txt":
            # The subquery statement degraded to the row engine in the
            # parent goldens; every SELECT runs on the batch engine now.
            parent = parent.replace("row     1  SELECT", "batch   1  SELECT")
        assert (GOLDEN_DIR / name).read_text() == parent

    def test_plan_quality_diff_is_the_fingerprint_keying(self):
        parent = (PARENT_DIR / "plan_quality_report.txt").read_text()
        current = (GOLDEN_DIR / "plan_quality_report.txt").read_text()
        changed = [line for line in difflib.unified_diff(
            parent.splitlines(), current.splitlines(), lineterm="", n=0)
            if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        assert changed
        # Only the statement count and the ranked statements moved:
        # literal variants of one fingerprint are one row now.
        for line in changed:
            assert line[1:].startswith(("statements recorded:", "  q=")), \
                line
        assert "statements recorded: 7 " in current
        assert "statements recorded: 17 " in parent
