"""Run one workload in this process: set-up, warm-up with full output
checks, the timed window, and the metrics.

Closed loop, one client: the next statement is issued when the previous
one has returned.  The end-to-end run drives only the public facade;
the traced run additionally imports :mod:`benchmarks.e2e.layers`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import Database, DatabaseConfig

from benchmarks.e2e.checks import rows_match
from benchmarks.e2e.workloads import (
    REFERENCE, STABLE, Op, Tables, Workload)

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The untimed reference every STABLE/REFERENCE statement is compared
#: with on the warm-up stream: the other optimizer, the other executor,
#: no parallelism, no cached plan.
REFERENCE_KWARGS = {"optimizer": "mysql", "executor_mode": "row",
                    "executor_workers": 1, "use_plan_cache": False}

#: Traces are written here (inside the checkout, git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Registry counts that must repeat exactly for one seed (checked by
#: ``--check-determinism``).  Fork scheduling makes morsel-to-worker
#: assignment vary, but not these totals.
EXACT_COUNTS = (
    "statements.total", "statements.select", "statements.dml",
    "statements.orca", "statements.mysql",
    "detour.entered", "detour.succeeded", "detour.fallbacks",
    "metadata.requests", "mdcache.hits", "mdcache.misses",
    "orca.blocks_optimized", "orca.pruned_candidates",
    "orca.memo_groups.sum", "orca.cost_evaluations.sum",
    "plan_cache.hits", "plan_cache.misses", "plan_cache.evictions",
    "plan_cache.invalidations",
    "executor.batches", "executor.batch_rows", "executor.morsels",
    "storage.chunks_skipped", "flight.records", "workload.recorded",
)


@dataclass
class Sample:
    op: Op
    seconds: float
    #: Result rows ("run"), EXPLAIN text ("compile"), None ("analyze").
    outcome: object
    error: Optional[str] = None
    #: The engine's own stage seconds when it traced the statement.
    stages: Optional[Dict[str, float]] = None


@dataclass
class Report:
    """Everything one run measured; ``lines`` is the printed form."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: name -> (value, unit, note with the sample count)
    metrics: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def say(self, text: str = "") -> None:
        self.lines.append(text)

    def metric(self, name: str, value: float, unit: str, note: str) -> None:
        self.metrics[name] = (value, unit, note)
        self.say(f"{name:<28} = {value:>12.4f} {unit:<5} ({note})")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def result_line(self) -> str:
        """The one-line JSON object the benchmark contract asks for."""
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, __) in self.metrics.items()},
        })


# -- building blocks -----------------------------------------------------------

def fingerprint(specs: List[Tables]) -> Tuple[int, str]:
    """Total row count and a checksum over every generated row."""
    rows_total, crc = 0, 0
    for tables in specs:
        for schema, rows in tables:
            rows_total += len(rows)
            crc = zlib.crc32(repr((schema.name, rows)).encode(), crc)
    return rows_total, f"{crc:08x}"


def build(workload: Workload, specs: List[Tables]) -> List[Database]:
    """Create tables, load and ANALYZE — what ``setup_s`` times."""
    dbs = []
    for tables in specs:
        db = Database(DatabaseConfig(**workload.config))
        for schema, __ in tables:
            db.create_table(schema)
        for schema, rows in tables:
            db.load(schema.name, rows)
        db.analyze()
        dbs.append(db)
    return dbs


def perform(dbs: List[Database], op: Op, run_kwargs: Dict[str, object]):
    db = dbs[op.db]
    if op.kind == "run":
        return db.run(op.sql, **run_kwargs)
    if op.kind == "compile":
        return db.compile_only(op.sql)
    db.analyze()
    return None


def run_stream(dbs: List[Database], stream: List[Op],
               run_kwargs: Dict[str, object], tallies: Counter
               ) -> Tuple[List[Sample], float]:
    """Execute one stream; returns its samples and wall seconds."""
    clock = time.perf_counter
    samples = []
    begin = clock()
    for op in stream:
        start = clock()
        try:
            result = perform(dbs, op, run_kwargs)
        except Exception as exc:  # a failing statement is a counted failure
            samples.append(Sample(op, clock() - start, None, repr(exc)))
            continue
        seconds = clock() - start
        if result is None:
            samples.append(Sample(op, seconds, None))
            continue
        outcome = result.rows if op.kind == "run" else result.explain
        samples.append(Sample(
            op, seconds, outcome,
            stages=result.stage_seconds() if result.trace else None))
        tallies["optimizer_used=" + result.optimizer_used] += 1
        if op.kind == "run":
            tallies["executor_mode=" + result.executor_mode] += 1
            tallies["plan_cache_hit=" + str(result.plan_cache_hit)] += 1
        if result.fallback_reason is not None:
            tallies["fallback=" + result.fallback_reason.value] += 1
    return samples, clock() - begin


def check(sample: Sample,
          verified: Optional[Dict[str, list]]) -> Optional[str]:
    """Why ``sample`` is wrong, or None.  ``verified`` holds the
    warm-up answers of STABLE statements (None on the warm-up itself,
    where the caller compares with the reference instead)."""
    op = sample.op
    if sample.error is not None:
        return f"{op.key}: raised {sample.error}"
    if op.kind == "compile":
        return None if sample.outcome else f"{op.key}: no plan returned"
    if op.kind != "run" or op.expect is None or op.expect == REFERENCE:
        return None
    if op.expect == STABLE:
        if verified is None:
            return None
        if op.key not in verified:
            return f"{op.key}: no verified warm-up answer to compare with"
        want = verified[op.key]
    else:
        want = op.expect
    if rows_match(sample.outcome, want):
        return None
    return (f"{op.key}: got {str(sample.outcome)[:120]} "
            f"want {str(want)[:120]}")


def registry_totals(dbs: List[Database]) -> Dict[str, float]:
    """Counters plus histogram sums/counts of every database, summed."""
    totals: Dict[str, float] = Counter()
    for db in dbs:
        exported = db.metrics.to_dict()
        totals.update(exported["counters"])
        for name, summary in exported["histograms"].items():
            totals[name + ".sum"] += summary["sum"]
            totals[name + ".count"] += summary["count"]
    return totals


# -- the run -------------------------------------------------------------------

@dataclass
class Window:
    """What the timed window produced."""

    seconds: float = 0.0
    #: Every statement executed in the window (all are output-checked).
    samples: List[Sample] = field(default_factory=list)
    #: The statements the metrics are computed from: all of them in an
    #: end-to-end run, those of the traced streams in a traced run.
    measured: List[Sample] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    #: Traced run only: wall seconds of the wrapper-free twin streams.
    plain_walls: List[float] = field(default_factory=list)
    #: Traced run only: registry totals accumulated over traced streams.
    counts: Counter = field(default_factory=Counter)
    first_stream: List[Op] = field(default_factory=list)


def run_workload(workload: Workload, seed: int, seconds: float,
                 streams: Optional[int] = None, quick: bool = False,
                 trace: bool = False) -> Report:
    """Measure ``workload``.

    The timed window runs whole streams until ``seconds`` have passed,
    or exactly ``streams`` of them when given (``--quick`` and
    ``--check-determinism``, where counts must not depend on speed).
    """
    report = Report(workload.name, seed)
    scale = workload.quick_scale if quick else workload.scale
    report.say(f"== {workload.name}  seed={seed}  scale={scale:g}  "
               f"{'traced' if trace else 'end-to-end'} ==")
    report.say(f"why: {workload.why}")
    report.say(f"load: closed loop, 1 client, 1 process; {workload.size}"
               + (" [--quick: scaled down, one stream]" if quick else ""))

    specs = workload.generate(scale)          # before any clock starts
    rows_total, crc = fingerprint(specs)

    tracer = None
    if trace:
        from benchmarks.e2e import layers
        tracer = layers.LayerTrace()
        tracer.install()

    setup_seconds = []
    dbs: List[Database] = []
    for __ in range(1 if quick or trace else SETUP_REPEATS):
        dbs.clear()
        gc.collect()
        start = time.perf_counter()
        dbs = build(workload, specs)
        setup_seconds.append(time.perf_counter() - start)

    source = workload.streams(seed, specs)
    warmup = source.next_stream()
    verified, engine_stages = _warm_up(report, workload, specs, dbs,
                                       warmup, tracer)
    tallies: Counter = Counter()
    window = _timed_window(workload, dbs, source, seconds, streams, tracer,
                           tallies)

    # Every timed statement is checked, after the clock has stopped.
    final, __ = run_stream(dbs, source.final_ops(), {}, Counter())
    for phase, samples in (("timed", window.samples), ("final", final)):
        for sample in samples:
            report.attempted += 1
            problem = check(sample, verified)
            if problem is not None:
                report.fail(f"{phase} {problem}")

    digest = hashlib.sha1("\n".join(
        op.sql for op in warmup + window.first_stream).encode()).hexdigest()
    report.say(f"input fingerprint: rows={rows_total} data_crc32={crc} "
               f"statements_sha1={digest[:12]}")
    if tracer is None:
        _end_to_end(report, setup_seconds, window)
    else:
        _per_layer(report, tracer, window, engine_stages)
        _write_trace(report, tracer, window.counts, rows_total, crc, digest)
    report.say(f"{'failed_share':<28} = {report.failed}/{report.attempted} "
               f"statements (warm-up {len(warmup)} + timed "
               f"{len(window.samples)} + other "
               f"{report.attempted - len(warmup) - len(window.samples)})")
    for failure in report.failures:
        report.say("  FAILED " + failure)
    report.say("tallies over the window: " + ", ".join(
        f"{key}:{count}" for key, count in sorted(tallies.items())))
    for index, db in enumerate(dbs):
        report.say(f"plan cache db{index}: {db.plan_cache.stats()}")
    return report


def _warm_up(report: Report, workload: Workload, specs: List[Tables],
             dbs: List[Database], warmup: List[Op], tracer
             ) -> Tuple[Dict[str, list], Counter]:
    """The untimed first stream: every answer is compared with the
    reference configuration at the same database state.

    Returns the verified answers of STABLE statements and, in a traced
    run, the engine's own stage seconds summed over the stream."""
    verified: Dict[str, list] = {}
    engine_stages: Counter = Counter()
    kwargs = dict(workload.run_kwargs)
    if tracer is not None:
        tracer.phase = "warmup"
        kwargs["trace"] = True      # the engine's own stage trace
    for op in warmup:
        (sample,), __ = run_stream(dbs, [op], kwargs, Counter())
        report.attempted += 1
        problem = check(sample, None)
        if problem is None and op.expect in (STABLE, REFERENCE):
            if tracer is not None:
                tracer.phase = "reference"
            want = dbs[op.db].run(op.sql, **REFERENCE_KWARGS).rows
            if tracer is not None:
                tracer.phase = "warmup"
            if not rows_match(sample.outcome, want):
                problem = (f"{op.key}: differs from the mysql/row "
                           f"reference: got {str(sample.outcome)[:100]} "
                           f"want {str(want)[:100]}")
            elif op.expect == STABLE:
                verified[op.key] = sample.outcome
        if problem is not None:
            report.fail("warm-up " + problem)
        if sample.stages is not None:
            engine_stages.update(sample.stages)
    if workload.independent is not None:
        for key, want in workload.independent(specs).items():
            report.attempted += 1
            if key not in verified or not rows_match(verified[key], want):
                report.fail(f"warm-up {key}: differs from the pure-Python "
                            f"aggregate {str(want)[:160]}")
    return verified, engine_stages


def _timed_window(workload: Workload, dbs: List[Database], source,
                  seconds: float, streams: Optional[int], tracer,
                  tallies: Counter) -> Window:
    window = Window()
    run_kwargs = workload.run_kwargs
    if tracer is not None:
        tracer.phase = "timed"
        tracer.uninstall()
    gc.collect()
    start = time.perf_counter()
    while (len(window.walls) < streams if streams is not None
           else time.perf_counter() - start < seconds):
        if tracer is not None:
            # Alternate: one stream without wrappers, then one with.
            # The pair gives trace_overhead_pct; only the traced stream
            # feeds the layer rows and the counts.
            samples, wall = run_stream(dbs, source.next_stream(),
                                       run_kwargs, tallies)
            window.samples.extend(samples)
            window.plain_walls.append(wall)
            before = registry_totals(dbs)
            tracer.install()
        stream = source.next_stream()
        if not window.first_stream:
            window.first_stream = stream
        samples, wall = run_stream(dbs, stream, run_kwargs, tallies)
        window.samples.extend(samples)
        window.measured.extend(samples)
        window.walls.append(wall)
        if tracer is not None:
            tracer.uninstall()
            for name, value in registry_totals(dbs).items():
                window.counts[name] += value - before.get(name, 0)
    window.seconds = time.perf_counter() - start
    return window


def _end_to_end(report: Report, setup_seconds: List[float],
                window: Window) -> None:
    report.metric("setup_s", statistics.median(setup_seconds), "s",
                  f"median of n={len(setup_seconds)} set-ups: create "
                  "tables + load + analyze")
    count = len(window.measured)
    per_stream = count / len(window.walls)
    # Median over streams, not total / total: a transient stall of the
    # sandbox then moves one stream, not the metric.
    report.metric("stmts_per_s",
                  per_stream / statistics.median(window.walls), "1/s",
                  f"statements per stream / median stream time; n="
                  f"{len(window.walls)} streams, {count} statements in "
                  f"{window.seconds:.2f} s")
    by_key: Dict[str, List[float]] = {}
    for sample in window.measured:
        by_key.setdefault(sample.op.key, []).append(sample.seconds)
    medians = {key: statistics.median(values)
               for key, values in by_key.items()}
    geomean = math.exp(statistics.fmean(
        math.log(value) for value in medians.values()))
    sizes = [len(values) for values in by_key.values()]
    report.metric("geomean_ms", geomean * 1e3, "ms",
                  f"over n={len(medians)} statements/classes of each "
                  f"one's median; {min(sizes)}-{max(sizes)} samples each")
    latencies = [sample.seconds for sample in window.measured]
    # Linear interpolation between the two nearest samples.
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[-1]
    report.metric("p95_ms", p95 * 1e3, "ms",
                  f"n={count} samples, "
                  f"{sum(1 for value in latencies if value > p95)} beyond")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.metric("peak_rss_mb",
                  rss / (1 << 20 if sys.platform == "darwin" else 1 << 10),
                  "MB", "ru_maxrss of this process, n=1")
    if len(medians) <= 12:
        report.say("median ms by statement/class: " + ", ".join(
            f"{key}={value * 1e3:.2f} (n={len(by_key[key])})"
            for key, value in sorted(medians.items())))


def _per_layer(report: Report, tracer, window: Window,
               engine_stages: Counter) -> None:
    from benchmarks.e2e import layers

    count = len(window.measured)
    stream_seconds = sum(window.walls)
    counts = window.counts
    times = tracer.layer_times("timed")
    setup = tracer.layer_times("setup")
    note = f"traced streams: n={count} statements in {len(window.walls)}"

    def per_statement(name: str) -> float:
        return counts.get(name, 0) / count

    def ratio_pct(hits: str, misses: str) -> float:
        total = counts.get(hits, 0) + counts.get(misses, 0)
        return 100.0 * counts.get(hits, 0) / total if total else 0.0

    for layer in layers.LAYERS:
        report.metric(f"{layer}_self_ms",
                      times[layer]["self"] / count * 1e3, "ms",
                      f"self time per statement; {note}")
    report.metric("setup_storage_s", setup["storage"]["self"], "s",
                  "StorageEngine.load_rows self time over one set-up, n=1")
    report.metric("setup_catalog_s", setup["catalog"]["self"], "s",
                  "StorageEngine.analyze_all self time over one set-up, n=1")
    report.metric("plan_cache_hit_pct",
                  ratio_pct("plan_cache.hits", "plan_cache.misses"), "%",
                  f"hits / lookups; {note}")
    report.metric("mdcache_hit_pct",
                  ratio_pct("mdcache.hits", "mdcache.misses"), "%",
                  f"hits / metadata requests; {note}")
    report.metric("detour_fallbacks", per_statement("detour.fallbacks"),
                  "count", f"per statement; {note}")
    report.metric("orca_memo_groups", per_statement("orca.memo_groups.sum"),
                  "count", f"per statement; {note}")
    report.metric("orca_cost_evaluations",
                  per_statement("orca.cost_evaluations.sum"), "count",
                  f"per statement; {note}")
    report.metric("executor_batches", per_statement("executor.batches"),
                  "count", f"per statement; {note}")
    executor_busy = times["executor"]["busy"]
    report.metric("executor_rows_per_s",
                  counts.get("executor.batch_rows", 0) / executor_busy
                  if executor_busy else 0.0, "1/s",
                  f"batch rows / Executor.execute busy time; {note}")
    report.metric("storage_chunks_skipped",
                  per_statement("storage.chunks_skipped"), "count",
                  f"zone-map skips per statement; {note}")
    report.metric("executor_fanout_wait_ms",
                  tracer.fanout_wait_seconds("timed") / count * 1e3, "ms",
                  "per statement: parallel Executor.execute time minus the "
                  f"busiest worker's; {note}")
    covered = tracer.root_seconds("timed")
    report.metric("trace_coverage_pct", 100.0 * covered / stream_seconds,
                  "%", "sum of layer self times / traced stream wall time; "
                  + note)
    report.metric("trace_overhead_pct",
                  100.0 * (stream_seconds / sum(window.plain_walls) - 1.0),
                  "%", f"traced vs untraced stream time, n="
                  f"{len(window.walls)} stream pairs")

    report.say()
    report.say(f"{'layer':<16}{'busy s':>9}{'self s':>9}{'share %':>9}"
               f"{'calls':>9}  counts over the traced streams")
    details = _layer_counts(counts)
    for layer in layers.LAYERS:
        row = times[layer]
        report.say(f"{layer:<16}{row['busy']:>9.3f}{row['self']:>9.3f}"
                   f"{100.0 * row['self'] / stream_seconds:>9.1f}"
                   f"{int(row['calls']):>9}  {details[layer]}")
    report.say(f"{'(sum of self)':<16}{'':>9}{covered:>9.3f}"
               f"{100.0 * covered / stream_seconds:>9.1f}{'':>9}  "
               f"stream wall {stream_seconds:.3f} s")
    report.say("set-up (one, traced): " + ", ".join(
        f"{layer} self {setup[layer]['self']:.3f} s"
        for layer in ("storage", "catalog", "database")))
    for layer, error in sorted(tracer.unavailable.items()):
        report.say(f"layer unavailable: {layer}: {error}")
    if engine_stages:
        warnings = layers.stage_mismatches(
            tracer.span_seconds("warmup"), engine_stages,
            tracer.root_seconds("warmup"))
        for warning in warnings:
            report.say("WARNING " + warning)
        if not warnings:
            report.say("stage cross-check: outside spans agree with the "
                       "engine's stage_seconds() within 10 % on the "
                       "warm-up stream")
    else:
        report.say("stage cross-check: n/a (compile_only has no engine "
                   "stage trace)")


def _layer_counts(counts: Dict[str, float]) -> Dict[str, str]:
    def show(*names: str) -> str:
        return " ".join(f"{name}={counts.get(name, 0):g}" for name in names)

    def prefixed(prefix: str) -> str:
        return " ".join(f"{name}={value:g}"
                        for name, value in sorted(counts.items())
                        if name.startswith(prefix) and value)

    return {
        "sql": show("statements.total", "statements.select",
                    "statements.dml"),
        "mysql_optimizer": show("statements.mysql"),
        "bridge": show("detour.entered", "detour.succeeded",
                       "detour.fallbacks", "metadata.requests",
                       "mdcache.hits", "mdcache.misses")
        + " " + prefixed("fallback."),
        "orca": show("orca.blocks_optimized", "orca.memo_groups.sum",
                     "orca.cost_evaluations.sum", "orca.pruned_candidates")
        + " " + prefixed("orca.join_strategy."),
        "plan_cache": show("plan_cache.hits", "plan_cache.misses",
                           "plan_cache.evictions",
                           "plan_cache.invalidations"),
        "executor": show("executor.batches", "executor.batch_rows",
                         "executor.morsels", "executor.worker_seconds.sum"),
        "storage": show("storage.chunks_skipped"),
        "catalog": "(ANALYZE inside the window shows as busy time here)",
        "database": show("flight.records", "workload.recorded"),
    }


def _write_trace(report: Report, tracer, counts: Dict[str, float],
                 rows_total: int, crc: str, digest: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{report.workload}.json"
    path.write_text(json.dumps({
        "workload": report.workload, "seed": report.seed,
        "fingerprint": {"rows": rows_total, "data_crc32": crc,
                        "statements_sha1": digest},
        "counts": dict(counts),
        "unavailable": tracer.unavailable,
        "spans": tracer.export(),
    }))
    report.say(f"trace written: {path.relative_to(Path.cwd())}"
               if path.is_relative_to(Path.cwd())
               else f"trace written: {path}")
