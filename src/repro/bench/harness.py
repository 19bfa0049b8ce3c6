"""Suite runner: executes a workload under both optimizers and times it.

Mirrors the paper's experimental procedure (Section 6): each query runs
with the plan chosen by the MySQL optimizer and with the plan chosen by
Orca; reported run times include optimization time, as in Fig. 11.  A
per-query timeout plays the role of the paper's cancelled MySQL run of
TPC-DS Q1 ("cancelled after 600 sec"): timed-out queries are recorded at
the cap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional

from repro.bridge import router
from repro.bridge.router import OrcaRouter
from repro.database import Database
from repro.errors import DeadlineExceededError, ExecutionError, ReproError
from repro.governor import ExecutionGovernor
from repro.orca.largejoin import STRATEGY_POLICIES
from repro.orca.optimizer import OrcaConfig
from repro.observability import Tracer, find_spans
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver


@dataclass
class QueryTiming:
    """Both optimizers' timings for one query."""

    number: int
    mysql_seconds: float
    orca_seconds: float
    mysql_rows: int = 0
    orca_rows: int = 0
    results_match: bool = True
    mysql_timed_out: bool = False
    orca_timed_out: bool = False
    #: Why the Orca run fell back to the MySQL optimizer (a
    #: ``FallbackReason.value`` string), or None when Orca compiled.
    orca_fallback_reason: Optional[str] = None
    #: Optimize-vs-execute split of each aggregate number above (the
    #: aggregate still matches Fig. 11's "run times include optimization
    #: time").  Zero when the run timed out before compiling.
    mysql_optimize_seconds: float = 0.0
    mysql_execute_seconds: float = 0.0
    orca_optimize_seconds: float = 0.0
    orca_execute_seconds: float = 0.0
    #: Per-pipeline-stage seconds of the Orca run (span name -> seconds),
    #: populated only when the suite ran with ``collect_stages=True``.
    orca_stages: Dict[str, float] = field(default_factory=dict)
    #: Cardinality-estimate accuracy of each optimizer's plan (root and
    #: worst per-node Q-error; see :mod:`repro.plan_quality`), populated
    #: only when the suite ran with ``collect_plan_quality=True``.
    #: Zero means "not collected" — a real Q-error is always >= 1.
    mysql_root_q: float = 0.0
    mysql_max_q: float = 0.0
    mysql_worst_operator: str = ""
    orca_root_q: float = 0.0
    orca_max_q: float = 0.0
    orca_worst_operator: str = ""

    @property
    def ratio(self) -> float:
        """Orca time / MySQL time (Fig. 12's Y axis)."""
        if self.mysql_seconds <= 0:
            return 1.0
        return self.orca_seconds / self.mysql_seconds

    @property
    def speedup(self) -> float:
        """MySQL time / Orca time (how much faster Orca is)."""
        if self.orca_seconds <= 0:
            return 1.0
        return self.mysql_seconds / self.orca_seconds


@dataclass
class BenchmarkResult:
    """Timings for a whole suite."""

    name: str
    timings: List[QueryTiming] = field(default_factory=list)
    #: The explicit reproducibility seed the suite ran with (threaded
    #: to the fault injector by ``run_suite``), or None.
    seed: Optional[int] = None

    @property
    def total_mysql(self) -> float:
        return sum(t.mysql_seconds for t in self.timings)

    @property
    def total_orca(self) -> float:
        return sum(t.orca_seconds for t in self.timings)

    @property
    def total_reduction_percent(self) -> float:
        """Total run-time reduction with Orca plans (62% for TPC-DS in
        the paper, 16% for TPC-H)."""
        if self.total_mysql <= 0:
            return 0.0
        return 100.0 * (1.0 - self.total_orca / self.total_mysql)

    def wins(self, factor: float = 1.0) -> List[QueryTiming]:
        """Queries where Orca is at least ``factor`` times faster."""
        return [t for t in self.timings if t.speedup >= factor]

    def losses(self, factor: float = 1.0) -> List[QueryTiming]:
        return [t for t in self.timings if t.ratio > factor]

    @property
    def fallback_counts(self) -> Dict[str, int]:
        """How many Orca runs fell back, keyed by reason."""
        counts: Dict[str, int] = {}
        for timing in self.timings:
            if timing.orca_fallback_reason is not None:
                counts[timing.orca_fallback_reason] = counts.get(
                    timing.orca_fallback_reason, 0) + 1
        return counts


def results_match(rows_a: List[tuple], rows_b: List[tuple]) -> bool:
    """Order-insensitive result comparison with float tolerance.

    Different plans accumulate floating-point sums in different orders, so
    aggregates can differ in the last few bits; values are compared with a
    relative tolerance instead of exactly.
    """
    import math

    if len(rows_a) != len(rows_b):
        return False

    def sort_key(row):
        return repr(tuple(round(v, 2) if isinstance(v, float) else v
                          for v in row))

    for row_a, row_b in zip(sorted(rows_a, key=sort_key),
                            sorted(rows_b, key=sort_key)):
        if len(row_a) != len(row_b):
            return False
        for value_a, value_b in zip(row_a, row_b):
            if isinstance(value_a, float) and isinstance(value_b, float):
                if not math.isclose(value_a, value_b,
                                    rel_tol=1e-6, abs_tol=1e-6):
                    return False
            elif value_a != value_b:
                return False
    return True


def run_suite(db: Database, queries: Dict[int, str], name: str,
              timeout_seconds: float = 60.0,
              verify_results: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              collect_stages: bool = False,
              collect_plan_quality: bool = False,
              emit_json: Optional[str] = None,
              seed: Optional[int] = None) -> BenchmarkResult:
    """Run every query under both optimizers; returns all timings.

    Timings include optimization time (compile + execute), matching the
    paper's Fig. 11 methodology.  A query that exceeds the timeout on one
    optimizer is recorded at the cap with ``*_timed_out`` set.

    The comparative runs bypass the statement plan cache — they measure
    the optimizers, and a warm cache would silently zero the optimize
    stage.  Cache behaviour is measured separately by the ``emit_json``
    pass, which writes a JSON artifact with per-query cold/warm
    optimize-and-execute medians, the plan-cache hit ratio, and the
    search-pruning counters (see :func:`plan_cache_report`).

    With ``collect_stages=True`` the Orca run is traced and each
    timing's ``orca_stages`` records per-pipeline-stage seconds (for
    :func:`repro.bench.report.format_stage_breakdown`); tracing adds a
    little overhead, so leave it off for headline timings.

    With ``collect_plan_quality=True`` each timing also records both
    optimizers' root and worst per-node Q-error (estimate accuracy,
    from the executor's always-on counters) — the comparison behind
    ``BENCH_planquality``.

    ``seed`` makes the suite reproducible run-to-run: the configured
    fault injector (if any) is re-seeded before the first query, so
    probabilistic faults land on the same statements regardless of what
    executed earlier in the process, and the seed is recorded on the
    result for the report artifact.
    """
    result = BenchmarkResult(name, seed=seed)
    if seed is not None and db.config.fault_injector is not None:
        db.config.fault_injector.reseed(seed)
    for number in sorted(queries):
        sql = queries[number]
        mysql = _timed_run(db, sql, "mysql", timeout_seconds)
        orca = _timed_run(db, sql, "orca", timeout_seconds,
                          trace=collect_stages)
        match = True
        if verify_results and not mysql.timed_out and not orca.timed_out:
            match = results_match(mysql.rows, orca.rows)
        timing = QueryTiming(
            number=number,
            mysql_seconds=mysql.elapsed,
            orca_seconds=orca.elapsed,
            mysql_rows=len(mysql.rows),
            orca_rows=len(orca.rows),
            results_match=match,
            mysql_timed_out=mysql.timed_out,
            orca_timed_out=orca.timed_out,
            orca_fallback_reason=orca.fallback_reason,
            mysql_optimize_seconds=mysql.optimize_seconds,
            mysql_execute_seconds=mysql.execute_seconds,
            orca_optimize_seconds=orca.optimize_seconds,
            orca_execute_seconds=orca.execute_seconds,
            orca_stages=orca.stages,
        )
        if collect_plan_quality:
            timing.mysql_root_q = mysql.root_q
            timing.mysql_max_q = mysql.max_q
            timing.mysql_worst_operator = mysql.worst_operator
            timing.orca_root_q = orca.root_q
            timing.orca_max_q = orca.max_q
            timing.orca_worst_operator = orca.worst_operator
        result.timings.append(timing)
        if progress is not None:
            note = f" (orca fell back: {orca.fallback_reason})" \
                if orca.fallback_reason else ""
            progress(f"{name} Q{number}: mysql {mysql.elapsed:.2f}s "
                     f"orca {orca.elapsed:.2f}s{note}")
    if emit_json is not None:
        report = plan_cache_report(db, queries, name, progress=progress)
        _write_json(emit_json, report)
    return result


@dataclass
class _RunOutcome:
    """What one timed run produced (internal to the harness)."""

    elapsed: float
    rows: List[tuple]
    timed_out: bool
    fallback_reason: Optional[str]
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    #: Estimate accuracy of the executed plan (0.0 when the run timed
    #: out before producing a quality snapshot).
    root_q: float = 0.0
    max_q: float = 0.0
    worst_operator: str = ""


def _timed_run(db: Database, sql: str, optimizer: str,
               timeout_seconds: float, trace: bool = False) -> _RunOutcome:
    """Run one query with a per-query timeout.

    The timeout is the execution governor's statement deadline
    (``db.run(sql, timeout_seconds=...)``), which aborts cooperatively
    at the next checkpoint; a SIGALRM backstop at several times the
    deadline (where the platform has one) still fires if a statement
    hard-hangs between checkpoints.

    All wall-clock numbers come from ``time.perf_counter()`` — the
    monotonic clock — never the wall-clock ``time.time`` API, which can
    jump under NTP adjustments mid-benchmark.
    """
    import signal

    timed_out = False
    rows: List[tuple] = []
    fallback_reason: Optional[str] = None
    optimize_seconds = 0.0
    execute_seconds = 0.0
    stages: Dict[str, float] = {}
    root_q = max_q = 0.0
    worst_operator = ""
    start = time.perf_counter()

    def _raise_timeout(signum, frame):
        raise _SoftTimeout()

    use_alarm = hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL,
                         max(timeout_seconds * 5, timeout_seconds + 1.0))
    try:
        result = db.run(sql, optimizer=optimizer, trace=trace,
                        use_plan_cache=False,
                        timeout_seconds=timeout_seconds)
        rows = result.rows
        optimize_seconds = result.compile_seconds
        execute_seconds = result.execute_seconds
        if trace:
            stages = result.stage_seconds()
        if result.plan_quality is not None:
            root_q = result.plan_quality.root_q
            max_q = result.plan_quality.max_q
            worst_operator = result.plan_quality.worst_operator
        if result.fallback_reason is not None:
            fallback_reason = result.fallback_reason.value
    except (DeadlineExceededError, _SoftTimeout):
        timed_out = True
    except ExecutionError as exc:
        # The SIGALRM backstop can fire inside the executor, where the
        # Database wraps foreign exceptions; unwrap it back to a timeout.
        if not isinstance(exc.__cause__, _SoftTimeout):
            raise
        timed_out = True
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if timed_out:
        elapsed = timeout_seconds
    return _RunOutcome(elapsed=elapsed, rows=rows, timed_out=timed_out,
                       fallback_reason=fallback_reason,
                       optimize_seconds=optimize_seconds,
                       execute_seconds=execute_seconds, stages=stages,
                       root_q=root_q, max_q=max_q,
                       worst_operator=worst_operator)


class _SoftTimeout(Exception):
    pass


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0
    mid = count // 2
    if count % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def orca_search(db: Database, sql: str, pruning: bool = True) -> tuple:
    """Compile ``sql`` through the Orca detour, traced, with cost-bound
    pruning on or off; returns ``(skeleton, memo_search spans)``.

    The unpruned search is an ``OrcaConfig`` setting only, so this
    drives the Orca router directly under :func:`forced_orca_config`.
    The skeleton is None when the detour fell back.
    """
    stmt = parse_statement(sql)
    block, context = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    tracer = Tracer()
    with forced_orca_config(enable_cost_bound_pruning=pruning), \
            tracer.span("compile") as root:
        skeleton = OrcaRouter(db.catalog, db.config,
                              governor=ExecutionGovernor(), tracer=tracer,
                              mdcache=db.mdcache
                              ).optimize(stmt, block, context)
    return skeleton, find_spans(root, "memo_search")


@contextmanager
def forced_orca_config(**changes) -> Iterator[None]:
    """Plan every Orca detour inside the block with these ``OrcaConfig``
    fields changed, e.g. ``join_strategy="dp"`` or
    ``enable_cost_bound_pruning=False``.

    Forcing a join strategy or switching pruning off is a measurement
    setting, not a database option: it changes the search configuration
    the router derives from ``DatabaseConfig``, and ``db.run`` inside
    the block plans, executes and returns rows as usual.
    """
    replace(OrcaConfig(), **changes)  # an unknown field raises here
    policy = changes.get("join_strategy", "adaptive")
    if policy not in STRATEGY_POLICIES:
        raise ReproError(f"unknown join_strategy {policy!r}; valid "
                         f"choices: {', '.join(STRATEGY_POLICIES)}")
    derive = router.orca_config_for
    router.orca_config_for = lambda config: replace(derive(config),
                                                    **changes)
    try:
        yield
    finally:
        router.orca_config_for = derive


def _memo_counters(spans) -> tuple:
    """(cost evaluations, pruned candidates) summed over ``spans``."""
    evaluations = pruned = 0
    for span in spans:
        evaluations += span.attributes.get("cost_evaluations", 0)
        pruned += span.attributes.get("pruned_candidates", 0)
    return evaluations, pruned


def plan_cache_report(db: Database, queries: Dict[int, str], name: str,
                      samples: int = 3,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> dict:
    """Measure what the plan cache and search pruning actually save.

    For each query: ``samples`` cold runs (plan cache bypassed) give the
    before-medians, a priming run populates the cache, and ``samples``
    warm runs give the after-medians (each asserted against
    ``plan_cache_hit``).  For Orca-routed queries, one traced compile
    with cost-bound pruning on and one with it off give the cost-model
    evaluation counts the pruning comparison needs.  Returns a
    JSON-serialisable dict.
    """
    per_query = {}
    for number in sorted(queries):
        sql = queries[number]
        cold_optimize: List[float] = []
        cold_execute: List[float] = []
        optimizer_used = "mysql"
        for __ in range(samples):
            run = db.run(sql, use_plan_cache=False)
            optimizer_used = run.optimizer_used
            cold_optimize.append(run.compile_seconds)
            cold_execute.append(run.execute_seconds)

        pruned_evaluations = pruned_candidates = unpruned_evaluations = 0
        if optimizer_used == "orca":
            pruned_evaluations, pruned_candidates = _memo_counters(
                orca_search(db, sql, pruning=True)[1])
            unpruned_evaluations, __ = _memo_counters(
                orca_search(db, sql, pruning=False)[1])

        db.run(sql)  # prime the cache (a miss that stores)
        warm_optimize: List[float] = []
        warm_execute: List[float] = []
        warm_hits = 0
        for __ in range(samples):
            run = db.run(sql)
            warm_hits += int(run.plan_cache_hit)
            warm_optimize.append(run.compile_seconds)
            warm_execute.append(run.execute_seconds)

        reduction = 0.0
        if unpruned_evaluations > 0:
            reduction = 100.0 * (1.0 - pruned_evaluations
                                 / unpruned_evaluations)
        per_query[str(number)] = {
            "optimizer_used": optimizer_used,
            "cold_optimize_median_seconds": _median(cold_optimize),
            "cold_execute_median_seconds": _median(cold_execute),
            "warm_optimize_median_seconds": _median(warm_optimize),
            "warm_execute_median_seconds": _median(warm_execute),
            "warm_hits": warm_hits,
            "warm_runs": samples,
            "cost_evaluations_pruned": pruned_evaluations,
            "cost_evaluations_unpruned": unpruned_evaluations,
            "pruned_candidates": pruned_candidates,
            "evaluation_reduction_percent": reduction,
        }
        if progress is not None:
            progress(f"{name} Q{number}: cold optimize "
                     f"{per_query[str(number)]['cold_optimize_median_seconds'] * 1000:.2f} ms, "
                     f"warm {per_query[str(number)]['warm_optimize_median_seconds'] * 1000:.2f} ms, "
                     f"evaluations {unpruned_evaluations} -> "
                     f"{pruned_evaluations}")
    return {
        "suite": name,
        "samples_per_query": samples,
        "plan_cache": db.plan_cache.stats(),
        "pruned_candidates_total": int(
            db.metrics.count("orca.pruned_candidates")),
        "queries": per_query,
    }


def run_executor_comparison(db: Database, queries: Dict[int, str],
                            name: str,
                            categories: Optional[Dict[str, List[int]]]
                            = None,
                            samples: int = 5,
                            optimizer: str = "auto",
                            progress: Optional[Callable[[str], None]]
                            = None,
                            emit_json: Optional[str] = None) -> dict:
    """Row-vs-batch executor comparison over one workload.

    Each query runs ``samples`` times per executor mode against the
    same compiled plan (the statement plan cache is primed first, so
    the comparison isolates the execute stage); recorded per query are
    the execute-stage medians, the speedup, a result-equivalence check,
    which engine actually ran (batch requests can degrade), and the
    batch engine's work counters (batches, batch rows, compiled
    expressions) for the final batch run.

    ``categories`` maps a label (e.g. ``"scan_heavy"``) to query
    numbers; the report carries each category's median speedup — the
    number the acceptance gate asserts on.  Returns a
    JSON-serialisable dict, also written to ``emit_json`` when given.
    """
    metrics = db.metrics
    per_query = {}
    for number in sorted(queries):
        sql = queries[number]
        db.run(sql, optimizer=optimizer)  # prime the plan cache
        medians: Dict[str, float] = {}
        rows: Dict[str, List[tuple]] = {}
        ran_as = "row"
        counters = {"batches": 0, "batch_rows": 0, "compiled_exprs": 0}
        counter_names = {"batches": "executor.batches",
                         "batch_rows": "executor.batch_rows",
                         "compiled_exprs": "exec.compiled_exprs"}
        for mode in ("row", "batch"):
            times: List[float] = []
            for __ in range(samples):
                before = {key: metrics.count(metric)
                          for key, metric in counter_names.items()}
                run = db.run(sql, optimizer=optimizer,
                             executor_mode=mode)
                times.append(run.execute_seconds)
            rows[mode] = run.rows
            medians[mode] = _median(times)
            if mode == "batch":
                ran_as = run.executor_mode
                # Work counters of the final batch run alone.
                counters = {
                    key: int(metrics.count(metric) - before[key])
                    for key, metric in counter_names.items()}
        speedup = (medians["row"] / medians["batch"]
                   if medians["batch"] > 0 else 1.0)
        per_query[str(number)] = {
            "row_execute_median_seconds": medians["row"],
            "batch_execute_median_seconds": medians["batch"],
            "speedup": speedup,
            "results_match": results_match(rows["row"], rows["batch"]),
            "ran_as": ran_as,
            "batches": counters["batches"],
            "batch_rows": counters["batch_rows"],
            "compiled_exprs": counters["compiled_exprs"],
        }
        if progress is not None:
            progress(f"{name} Q{number}: row "
                     f"{medians['row'] * 1000:.2f} ms, batch "
                     f"{medians['batch'] * 1000:.2f} ms "
                     f"({speedup:.2f}x, ran as {ran_as})")
    category_rows = {}
    for label, numbers in (categories or {}).items():
        speedups = [per_query[str(n)]["speedup"] for n in numbers
                    if str(n) in per_query]
        category_rows[label] = {
            "queries": list(numbers),
            "median_speedup": _median(speedups) if speedups else 1.0,
        }
    payload = {
        "suite": name,
        "samples_per_query": samples,
        "optimizer": optimizer,
        "batch_size": _batch_size(),
        "queries": per_query,
        "categories": category_rows,
    }
    if emit_json is not None:
        _write_json(emit_json, payload)
    return payload


def _batch_size() -> int:
    from repro.executor.batch import BATCH_SIZE
    return BATCH_SIZE


def _write_json(path: str, payload: dict) -> None:
    import json
    import os

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_compile_suite(db: Database, queries: Dict[int, str],
                      configurations: Dict[str, Callable[[], None]],
                      ) -> Dict[str, float]:
    """Total EXPLAIN (compile-only) time per configuration — Table 1.

    ``configurations`` maps a label to a setup callable that mutates the
    database config before the pass (e.g. switching the Orca search mode);
    the MySQL-only pass uses ``optimizer="mysql"``.
    """
    totals: Dict[str, float] = {}
    for label, setup in configurations.items():
        setup()
        optimizer = "mysql" if label == "MySQL" else "orca"
        start = time.perf_counter()
        for number in sorted(queries):
            db.compile_only(queries[number], optimizer=optimizer)
        totals[label] = time.perf_counter() - start
    return totals
