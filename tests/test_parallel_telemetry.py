"""Cross-process worker telemetry: spans, metric deltas, parity.

The tentpole promise is that telemetry sees *through* the fork
boundary: a parallel statement's trace carries one ``parallel_worker``
child span per morsel worker, the workers' counter/histogram deltas
merge into the parent registry, forked governor checkpoints fold into
the parent governor.  (Serial/parallel counter parity is gated in
``tests/test_perf_smoke.py``.)  Every test here forces the fan-out gate
open — the mini db is far too small to pay for a fork.
"""

import pickle
from types import SimpleNamespace

import pytest

from repro.executor.parallel import ParallelContext, WorkerTelemetry
from repro.governor import ExecutionGovernor
from repro.observability import MetricsRegistry, find_spans
from tests.conftest import build_mini_db
from tests.test_parallel import parallel_config

AGG_SQL = ("SELECT COUNT(*), SUM(o_totalprice) FROM orders "
           "WHERE o_totalprice > 50")

pytestmark = pytest.mark.usefixtures("force_fanout")


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=11, orders=150, config=parallel_config())


class TestWorkerSpans:
    """EXPLAIN ANALYZE / trace_export must see per-worker child spans."""

    def test_trace_contains_worker_spans(self, db):
        result = db.run(AGG_SQL, trace=True, executor_workers=4,
                        use_plan_cache=False)
        spans = find_spans(result.trace, "parallel_worker")
        assert spans, "no parallel_worker spans grafted into the trace"
        for span in spans:
            assert span.closed
            attrs = span.attributes
            assert attrs["op"] == "agg_build"
            assert attrs["morsels"] >= 0
            assert attrs["seconds"] >= 0.0
        # The grafted spans carry the whole story: every morsel and
        # every scanned-and-kept row is attributed to some worker.
        parallel = db._last_parallel
        assert sum(s.attributes["morsels"] for s in spans) \
            == sum(u["morsels"] for u in parallel.utilization())
        kept = db.run("SELECT COUNT(*) FROM orders "
                      "WHERE o_totalprice > 50").rows[0][0]
        assert sum(s.attributes["rows"] for s in spans) == kept

    def test_execute_span_carries_skew_attributes(self, db):
        result = db.run(AGG_SQL, trace=True, executor_workers=4,
                        use_plan_cache=False)
        exec_span = find_spans(result.trace, "execute")[0]
        attrs = exec_span.attributes
        assert attrs["parallel_decision"] == "fanout"
        assert attrs["parallel_workers"] == 4
        assert attrs["worker_min_morsels"] <= attrs["worker_max_morsels"]
        assert attrs["worker_stddev_morsels"] >= 0.0
        # Worker spans live under the execute span, inside the tree.
        assert find_spans(exec_span, "parallel_worker")

    def test_exported_trace_keeps_worker_spans(self, db):
        # find_spans works identically on the JSON export (satellite 1's
        # other half lives in test_observability.py).
        result = db.run(AGG_SQL, trace=True, executor_workers=2,
                        use_plan_cache=False)
        exported = result.trace.to_dict()
        spans = find_spans(exported, "parallel_worker")
        assert spans
        assert all(s["closed"] for s in spans)

    def test_explain_analyze_footer_shows_workers(self, db):
        text = db.explain_analyze(AGG_SQL, executor_workers=4)
        assert "parallel: fanout (estimated serial" in text
        assert "4 workers" in text
        assert "worker 0:" in text and "morsels" in text
        assert "skew: min" in text and "stddev" in text


class TestWorkerMetrics:
    """Worker-side deltas must merge into the parent registry."""

    def test_counters_and_histograms_merge(self, db):
        m = db.metrics
        before_morsels = m.count("executor.worker_morsels")
        before_rows = m.count("executor.worker_rows")
        before_seconds = m.histogram("executor.worker_seconds")
        before_seconds = before_seconds.count if before_seconds else 0
        result = db.run(AGG_SQL, executor_workers=2,
                        use_plan_cache=False)
        parallel = db._last_parallel
        utilization = parallel.utilization()
        assert m.count("executor.worker_morsels") - before_morsels \
            == sum(u["morsels"] for u in utilization)
        assert m.count("executor.worker_rows") - before_rows \
            == sum(u["rows"] for u in utilization)
        assert sum(u["rows"] for u in utilization) >= len(result.rows)
        # One executor.worker_seconds observation per worker per op.
        seconds = m.histogram("executor.worker_seconds")
        assert seconds is not None
        assert seconds.count > before_seconds
        assert m.histogram("executor.morsel_seconds") is not None

    def test_worker_telemetry_pickles_with_delta(self):
        wt = WorkerTelemetry(3)
        wt.note_morsel(7, 10, 0.25, 1000)
        wt.note_morsel(9, 4, 0.05, 4000)
        wt.checkpoints = 2
        clone = pickle.loads(pickle.dumps(wt, pickle.HIGHEST_PROTOCOL))
        assert clone.worker_id == 3
        assert clone.morsels == 2 and clone.rows == 14
        assert clone.checkpoints == 2 and clone.peak_bytes == 4000
        assert clone.records == [(7, 10, 0.25), (9, 4, 0.05)]
        registry = MetricsRegistry()
        clone.delta.merge_into(registry)
        assert registry.count("executor.worker_morsels") == 2
        assert registry.count("executor.worker_rows") == 14
        assert registry.histogram("executor.morsel_seconds").count == 2


class TestSkewAndUtilization:

    def test_skew_counts_idle_workers_as_zero(self):
        context = ParallelContext(4)
        context.ops = 1
        context.workers_spawned = 4
        context.worker_stats = {0: [6, 60, 0.1], 1: [2, 20, 0.05]}
        skew = context.skew()
        # counts = [6, 2, 0, 0]: idle workers ARE the skew story.
        assert skew["workers"] == 4
        assert skew["min_morsels"] == 0
        assert skew["max_morsels"] == 6
        assert skew["mean_morsels"] == pytest.approx(2.0)
        assert skew["stddev_morsels"] == pytest.approx(6 ** 0.5)

    def test_no_parallel_op_means_no_skew(self):
        context = ParallelContext(4)
        assert context.skew() is None
        assert context.utilization() == []

    def test_db_level_skew_and_utilization(self, db):
        db.run(AGG_SQL, executor_workers=4, use_plan_cache=False)
        parallel = db._last_parallel
        assert parallel.ops >= 1
        skew = parallel.skew()
        assert skew["min_morsels"] <= skew["mean_morsels"] \
            <= skew["max_morsels"]
        utilization = parallel.utilization()
        assert utilization == sorted(utilization,
                                     key=lambda u: u["worker"])
        # Only workers that did work appear in utilization; skew sees
        # every spawned worker.
        assert len(utilization) <= skew["workers"]
        assert parallel.morsel_records
        total = sum(u["morsels"] for u in utilization)
        assert len(parallel.morsel_records) == total


class TestGovernorCheckpointFolding:
    """Forked workers' checkpoint counts fold into the parent governor."""

    def test_fork_checkpoints_fold_into_parent(self):
        governor = ExecutionGovernor(timeout_seconds=30.0)
        runtime = SimpleNamespace(governor=governor)
        context = ParallelContext(2)
        results = context._run_morsels(runtime, list(range(6)),
                                       lambda i: (1, [i]), 2)
        assert results == [(1, [i]) for i in range(6)]
        # One checkpoint per morsel ran in the children; all 6 folded.
        assert governor.checkpoints == 6
