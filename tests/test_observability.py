"""Observability: span tracing, metrics registry, and their wiring.

Covers the tracer core (LIFO closing, exception resilience, zero-cost
disabled path), the streaming histograms, and the end-to-end pipeline:
``run(sql, trace=True)`` must return a span tree covering every stage of
the Orca detour, fallbacks must leave both the aborted Orca spans and
the MySQL re-optimization span in the trace, and ``metrics_report()``
must surface detour rate, fallback reasons, and the mdcache hit ratio.
"""

import json

import pytest

from repro.observability import (MetricsRegistry, NOOP_TRACER, Span,
                                 StreamingHistogram, Tracer, find_spans,
                                 stage_durations)
from repro.resilience import FaultInjector

from benchmarks.paper import run_suite
from tests.conftest import build_mini_db

JOIN_SQL = ("SELECT c_name, COUNT(*) FROM customer, orders, lineitem "
            "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
            "GROUP BY c_name")


@pytest.fixture(scope="module")
def loaded_db():
    return build_mini_db(orders=60)


class TestTracerCore:

    def test_nested_spans_close_lifo(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    assert tracer.current is inner
                assert inner.closed and not middle.closed
                assert tracer.current is middle
            assert middle.closed and not outer.closed
        assert outer.closed
        assert tracer.current is None
        # Tree shape: outer -> middle -> inner.
        assert tracer.roots == [outer]
        assert outer.children == [middle]
        assert middle.children == [inner]
        # Children close before parents, so durations nest.
        assert 0 <= inner.duration <= middle.duration <= outer.duration

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("doomed"):
                    raise ValueError("boom")
        outer = tracer.last_root
        assert outer.closed
        doomed = outer.children[0]
        assert doomed.closed
        assert doomed.attributes["error"] == "ValueError"
        assert doomed.attributes["error_message"] == "boom"
        # The exception unwound through the parent too, so it carries
        # the same marker — every span on the failure path is tagged.
        assert outer.attributes["error"] == "ValueError"

    def test_leaked_descendants_closed_with_parent(self):
        # A generator abandoned mid-span never runs the inner __exit__;
        # closing the parent must still end the leaked child.
        tracer = Tracer()
        parent = tracer.span("parent")
        parent.__enter__()
        child = tracer.span("leaked")
        child.__enter__()
        parent.__exit__(None, None, None)
        assert child.closed and parent.closed
        assert tracer.current is None

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("route", route="orca", tables=3) as span:
            span.set(policy="auto")
        assert span.attributes == {"route": "orca", "tables": 3,
                                   "policy": "auto"}

    def test_name_attribute_does_not_collide(self):
        # Spans carry attributes named "name" (metadata lookups do);
        # the positional-only span name must not clash with them.
        tracer = Tracer()
        with tracer.span("metadata_lookup", name="orders") as span:
            pass
        assert span.name == "metadata_lookup"
        assert span.attributes["name"] == "orders"
        with NOOP_TRACER.span("metadata_lookup", name="orders"):
            pass

    def test_flat_export_reconstructs_tree(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        dicts = tracer.last_root.to_dicts()
        assert [d["name"] for d in dicts] == ["a", "b", "c"]
        assert [d["depth"] for d in dicts] == [0, 1, 1]
        assert [d["parent"] for d in dicts] == [None, 0, 0]
        json.dumps(dicts)  # JSON-ready

    def test_find_spans_and_stage_durations(self):
        tracer = Tracer()
        with tracer.span("statement"):
            with tracer.span("memo_search"):
                pass
            with tracer.span("memo_search"):
                pass
        root = tracer.last_root
        assert len(find_spans(root, "memo_search")) == 2
        stages = stage_durations(root)
        both = find_spans(root, "memo_search")
        assert stages["memo_search"] == pytest.approx(
            both[0].duration + both[1].duration)


class TestNullTracer:

    def test_disabled_tracer_records_nothing(self):
        span = NOOP_TRACER.span("anything", key="value")
        with span:
            pass
        assert NOOP_TRACER.roots == []
        assert NOOP_TRACER.export() == []
        assert NOOP_TRACER.current is None
        assert NOOP_TRACER.last_root is None
        assert not NOOP_TRACER.enabled

    def test_null_span_is_shared_and_inert(self):
        a = NOOP_TRACER.span("a")
        b = NOOP_TRACER.span("b", attr=1)
        assert a is b
        assert a.set(x=1) is a
        assert a.duration == 0.0

    def test_untraced_run_has_no_trace(self, loaded_db):
        result = loaded_db.run(JOIN_SQL)
        assert result.trace is None
        assert result.trace_export() == []
        assert result.stage_seconds() == {}
        assert loaded_db.tracer is NOOP_TRACER


class TestStreamingHistogram:

    def test_exact_quantiles_small_sample(self):
        histogram = StreamingHistogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.min == 1.0 and histogram.max == 100.0
        assert histogram.quantile(0.50) == pytest.approx(50.5)
        assert histogram.quantile(0.95) == pytest.approx(95.05)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0

    def test_reservoir_keeps_exact_aggregates(self):
        histogram = StreamingHistogram()
        n = StreamingHistogram.RESERVOIR_SIZE * 4
        for value in range(n):
            histogram.observe(float(value))
        assert histogram.count == n
        assert histogram.total == pytest.approx(n * (n - 1) / 2)
        assert len(histogram._samples) == StreamingHistogram.RESERVOIR_SIZE
        # Sampled quantiles stay in range and roughly central.
        p50 = histogram.quantile(0.5)
        assert 0 <= p50 <= n
        summary = histogram.summary()
        assert set(summary) == {"count", "sum", "mean", "min", "max",
                                "p50", "p95", "p99"}

    def test_seeded_reservoir_is_reproducible(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        for value in range(5000):
            a.observe(value * 0.1)
            b.observe(value * 0.1)
        assert a.summary() == b.summary()


class TestMetricsRegistry:

    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("detour.entered")
        metrics.inc("detour.entered")
        metrics.inc("fallback.exceeds_resources", 3)
        metrics.set_gauge("memo.groups", 17)
        metrics.observe("orca.memo_groups", 6)
        assert metrics.count("detour.entered") == 2
        assert metrics.count("never.touched") == 0
        assert metrics.gauge("memo.groups") == 17
        assert metrics.gauge("never.touched") == 0.0
        assert metrics.histogram("orca.memo_groups").count == 1
        assert metrics.histogram("never.touched") is None
        assert metrics.ratio("fallback.exceeds_resources",
                             "detour.entered") == 1.5
        assert metrics.ratio("detour.entered", "never.touched") == 0.0
        assert metrics.counters_with_prefix("fallback.") == {
            "fallback.exceeds_resources": 3}
        exported = metrics.to_dict()
        assert exported["counters"]["detour.entered"] == 2
        assert "orca.memo_groups" in exported["histograms"]
        text = metrics.report()
        assert "detour.entered" in text and "memo.groups" in text
        metrics.reset()
        assert metrics.count("detour.entered") == 0
        assert metrics.report() == "(no metrics recorded)"


class TestPipelineTracing:

    def test_traced_join_covers_every_stage(self, loaded_db):
        # Bypass the plan cache: this test wants the full pipeline's spans,
        # not the shortened hit path.
        result = loaded_db.run(JOIN_SQL, trace=True, use_plan_cache=False)
        assert result.optimizer_used == "orca"
        root = result.trace
        assert root is not None and root.name == "statement"
        names = {span.name for span in root.walk()}
        for required in ("parse", "prepare", "route", "orca_detour",
                         "preprocess", "metadata_lookup",
                         "parse_tree_convert", "memo_search",
                         "plan_convert", "refine", "execute"):
            assert required in names, f"missing span {required}"
        for span in root.walk():
            assert span.closed
            assert span.duration >= 0.0
            assert span.end >= span.start
        # Children nest within their parents' window.
        for span in root.walk():
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end
        # The detour recorded its memo statistics on the search span.
        search = find_spans(root, "memo_search")[0]
        assert search.attributes["memo_groups"] > 0
        assert search.attributes["cost_evaluations"] > 0

    def test_trace_is_per_statement_and_restores_tracer(self, loaded_db):
        previous = loaded_db.tracer
        result = loaded_db.run(JOIN_SQL, trace=True)
        assert loaded_db.tracer is previous  # restored afterwards
        assert result.trace is not None
        untraced = loaded_db.run(JOIN_SQL)
        assert untraced.trace is None

    def test_trace_export_is_json(self, loaded_db):
        result = loaded_db.run(JOIN_SQL, trace=True, use_plan_cache=False)
        flat = result.trace_export()
        payload = json.dumps(flat)
        parsed = json.loads(payload)
        assert parsed[0]["name"] == "statement"
        assert all(entry["duration"] >= 0 for entry in parsed)
        stages = result.stage_seconds()
        assert stages["memo_search"] > 0

    def test_fallback_trace_keeps_orca_and_mysql_spans(self):
        db = build_mini_db(orders=40)
        db.config.fault_injector = FaultInjector().arm("optimizer",
                                                       "typed")
        result = db.run(JOIN_SQL, trace=True)
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is not None
        root = result.trace
        detour = find_spans(root, "orca_detour")[0]
        assert detour.attributes["outcome"] == "fallback"
        assert detour.attributes["fallback_reason"] == \
            result.fallback_reason.value
        # The aborted Orca span is still in the tree, closed, and marked
        # with the error that unwound through it ...
        search = find_spans(root, "memo_search")[0]
        assert search.closed
        assert "error" in search.attributes
        # ... and the MySQL re-optimization ran inside the same trace.
        assert find_spans(root, "mysql_optimize")
        assert find_spans(root, "execute")

    def test_metrics_report_headlines(self):
        db = build_mini_db(orders=40)
        db.run(JOIN_SQL, use_plan_cache=False)
        db.config.fault_injector = FaultInjector().arm("optimizer",
                                                       "typed", times=1)
        db.run(JOIN_SQL, use_plan_cache=False)
        report = db.metrics_report()
        assert "detour rate:" in report
        assert "(2/2 SELECTs entered the Orca detour)" in report
        assert "fallbacks by reason:" in report
        assert "typed_abort" in report
        assert "mdcache hit ratio:" in report
        assert db.metrics.count("detour.entered") == 2
        assert db.metrics.count("detour.succeeded") == 1
        assert db.metrics.count("detour.fallbacks") == 1

    def test_mdcache_stats(self, loaded_db):
        loaded_db.run(JOIN_SQL, optimizer="orca", use_plan_cache=False)
        router = loaded_db.last_router
        stats = router.last_accessor.stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["hit_ratio"] == pytest.approx(
            stats["hits"] / (stats["hits"] + stats["misses"]))
        assert sum(stats["misses_by_kind"].values()) == stats["misses"]

    def test_explain_analyze_stage_footer(self, loaded_db):
        text = loaded_db.explain(JOIN_SQL, analyze=True)
        assert "Stage breakdown" in text
        assert "optimizer: orca" in text
        assert "optimize share" in text
        assert "memo_search:" in text
        assert "memo:" in text and "alternatives costed" in text

    def test_batch_lowering_has_its_own_span(self):
        db = build_mini_db(orders=40)
        sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 250"
        fresh = db.run(sql, trace=True, executor_mode="batch")
        assert not fresh.plan_cache_hit
        [lower] = find_spans(fresh.trace, "lower")
        # Lowering runs inside execute, on the fresh plan only.
        assert lower in find_spans(fresh.trace, "execute")[0].children
        assert list(lower.attributes) == ["compiled_exprs"]
        assert lower.attributes["compiled_exprs"] > 0
        hit = db.run(sql, trace=True, executor_mode="batch")
        assert hit.plan_cache_hit
        assert find_spans(hit.trace, "lower") == []


class TestBenchStageBreakdown:
    """The paper's harness splits each timed run into its optimize and
    execute stages; the two never add up to more than the run."""

    def test_suite_collects_stage_splits(self, loaded_db):
        queries = {1: JOIN_SQL}
        result = run_suite(loaded_db, queries, "obs", timeout_seconds=60)
        timing = result.timings[0]
        assert timing.orca_optimize_seconds > 0
        assert timing.orca_execute_seconds > 0
        assert timing.mysql_optimize_seconds > 0
        assert timing.orca_optimize_seconds + timing.orca_execute_seconds \
            <= timing.orca_seconds


class TestUnclosedSpanExport:
    """Satellite: exporting a tree mid-flight must mark open spans
    ``closed: false`` with a null duration — a fabricated 0.0 would
    read as "instant" for exactly the span that was open longest."""

    def test_unclosed_spans_export_null_duration(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        inner = tracer.span("inner").__enter__()
        try:
            nested = outer.to_dict()
            assert nested["closed"] is False
            assert nested["duration"] is None
            child = nested["children"][0]
            assert child["name"] == "inner"
            assert child["closed"] is False and child["duration"] is None
            flat = outer.to_dicts()
            assert all(d["closed"] is False and d["duration"] is None
                       for d in flat)
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        # Once closed, the same exports carry real durations again.
        closed = outer.to_dict()
        assert closed["closed"] is True
        assert closed["duration"] == pytest.approx(outer.duration)

    def test_mixed_tree_only_open_spans_marked(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        with tracer.span("done"):
            pass
        flat = {d["name"]: d for d in outer.to_dicts()}
        assert flat["done"]["closed"] is True
        assert flat["done"]["duration"] is not None
        assert flat["outer"]["closed"] is False
        outer.__exit__(None, None, None)

    def test_find_spans_on_exported_dict_and_list(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        root = tracer.last_root
        # Live tree: Span objects out.
        live = find_spans(root, "inner")
        assert len(live) == 2
        assert all(isinstance(span, Span) for span in live)
        # Nested dict export: dicts out, same hits.
        nested = find_spans(root.to_dict(), "inner")
        assert [d["name"] for d in nested] == ["inner", "inner"]
        assert all(isinstance(d, dict) for d in nested)
        # Flat list export (Tracer.export shape): same answer again.
        flat = find_spans(root.to_dicts(), "inner")
        assert len(flat) == 2
        assert find_spans(root.to_dicts(), "outer")[0]["depth"] == 0
        assert find_spans(root.to_dict(), "missing") == []


class TestMetricsReportEmptySafety:
    """Satellite: every ratio line must render (as 0.0%) when its
    denominator is zero — fresh registry or right after reset()."""

    def test_report_on_fresh_database(self):
        db = build_mini_db(orders=10)
        report = db.metrics_report()
        assert "detour rate:       0.0%" in report
        assert "(0/0 SELECTs entered the Orca detour)" in report
        assert "mdcache hit ratio: 0.0%" in report

    def test_report_after_reset(self):
        db = build_mini_db(orders=40)
        db.run(JOIN_SQL, use_plan_cache=False)
        db.metrics.reset()
        report = db.metrics_report()
        assert "detour rate:       0.0%" in report
        assert "mdcache hit ratio: 0.0%" in report
        assert "fallbacks by reason: (none)" in report
