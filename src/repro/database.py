"""The public facade: a small embedded SQL engine with two optimizers.

Usage::

    db = Database()
    db.create_table(schema)
    db.load("t", rows)
    db.analyze()
    rows = db.execute("SELECT ...")                    # routed per config
    rows = db.execute("SELECT ...", optimizer="mysql") # force a path
    text = db.explain("SELECT ...", optimizer="orca")

Routing follows the paper: only SELECT statements whose table-reference
count reaches ``complex_query_threshold`` take the Orca detour
(Section 4.1); everything else — and any query on which the bridge aborts —
uses the MySQL optimizer.

The detour is *fault contained*: every abort (typed or not) is recorded
in a :class:`repro.resilience.FallbackLog` with a
:class:`repro.resilience.FallbackReason`, compile budgets cap how long
one detour may run, and a per-fingerprint circuit breaker routes
statements that keep crashing the optimizer straight to MySQL.

Every statement — a completed SELECT, a DML statement or an abort —
leaves exactly one :class:`repro.statement_log.StatementRecord` in
``db.statements``, built once by ``_record_statement``.  The flight,
workload and plan-quality reports, ``top()``, the slow-query log and
the advisor are views of that log.  A completed SELECT's record carries
the literal-free plan hash (``StatementResult.plan_hash``); only DML has
none.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bridge.router import OrcaRouter
from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.errors import (
    ExecutionError,
    GovernorError,
    ReproError,
    ResourceExhaustedError,
)
from repro.executor.executor import Executor
from repro.governor import CancelToken, ExecutionGovernor
from repro.executor.explain import explain_plan
from repro.mysql_optimizer.optimizer import MySQLOptimizer
from repro.mysql_optimizer.refinement import PlanBuilder
from repro.mysql_optimizer.skeleton import SkeletonPlan
from repro.observability import (
    NOOP_TRACER,
    MetricsRegistry,
    Span,
    Tracer,
    find_spans,
    stage_durations,
)
from repro.orca.joinorder import JoinSearchMode
from repro.orca.mdcache import MDCache
from repro.plan_cache import (
    PlanCache,
    PlanCacheEntry,
    statement_cache_key,
)
from repro.plan_quality import (
    StatementQuality,
    format_plan_quality_report,
    statement_quality,
    stats_staleness,
)
from repro.resilience import (
    CircuitBreaker,
    FallbackEvent,
    FallbackLog,
    FallbackReason,
    FaultInjector,
    classify_execution_exception,
    statement_fingerprint,
)
from repro.sql import ast as sql_ast
from repro.statement_log import (
    StatementLog,
    StatementRecord,
    format_flight_report,
    format_top_report,
)
from repro.workload import (
    Advisor,
    compute_plan_hash,
    extract_column_touches,
    format_workload_report,
)
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.storage.engine import StorageEngine

#: Valid values for ``DatabaseConfig.routing``.
ROUTING_POLICIES = ("threshold", "cost_based")
EXECUTOR_MODES = ("batch", "row")

#: Metric counter bumped per abort reason (satellite: the governor's
#: metric names are part of the documented contract).
_ABORT_COUNTERS = {
    FallbackReason.DEADLINE_EXCEEDED: "governor.deadline_exceeded",
    FallbackReason.STATEMENT_CANCELLED: "governor.cancelled",
    FallbackReason.RESOURCE_EXHAUSTED: "governor.mem_breaches",
    FallbackReason.EXEC_RUNTIME_ERROR: "governor.exec_errors",
}


@dataclass
class DatabaseConfig:
    """Engine configuration.

    Every option has a caller outside the tests that sets it to
    something other than its default, named in its comment;
    ``tests/test_config_audit.py`` pins the list.  Settings nobody
    turns are constants of the module that owns them, and per-statement
    choices are ``run()`` arguments (``optimizer=``,
    ``use_plan_cache=``, ``executor_mode=``, ``timeout_seconds=``, ...).
    """

    #: Minimum table references for the Orca detour (Section 4.1
    #: default).  Set by the threshold ablation, Table 1 and the examples.
    complex_query_threshold: int = 3
    #: Orca's join-order search: "GREEDY", "EXHAUSTIVE", or
    #: "EXHAUSTIVE2".  Set by Table 1's search-mode sweep.
    orca_search: str = "EXHAUSTIVE2"
    #: Routing policy for ``optimizer="auto"``:
    #: * "threshold" — the paper's shipped heuristic: route when the
    #:   table-reference count reaches ``complex_query_threshold``;
    #: * "cost_based" — the paper's first future-work alternative
    #:   (Section 9): always run MySQL's fast greedy optimization, and
    #:   take the Orca detour only when the MySQL plan's estimated cost
    #:   exceeds ``mysql_cost_threshold`` ("almost certainly ... better
    #:   than our three-table heuristic").
    #: Set by the routing ablation.
    routing: str = "threshold"
    #: Estimated-cost trigger for cost-based routing.  Set by the
    #: routing ablation and ``examples/dml_and_analyze.py``.
    mysql_cost_threshold: float = 500.0
    #: Wall-clock budget for one Orca compilation; ``None`` = unlimited.
    #: A detour that overruns aborts with ``BUDGET_EXCEEDED`` and MySQL's
    #: fast greedy optimizer takes over.  Set by the chaos suite
    #: (``tests/test_chaos.py``) and the large-join budget tests.
    orca_compile_budget_seconds: Optional[float] = None
    #: Memo group-count cap for the Cascades search; ``None`` =
    #: unlimited.  A safety bound for deployments; set by the wide-join
    #: degradation smoke (``tests/test_perf_smoke.py``).
    orca_memo_group_budget: Optional[int] = None
    #: Optional :class:`repro.resilience.FaultInjector` — the only way
    #: faults are ever injected; ``None`` costs nothing.  Set by the
    #: chaos suite (``tests/test_chaos.py``).
    fault_injector: Optional[FaultInjector] = None
    #: Structured JSONL slow-query log: one record (trace, stage
    #: breakdown, root Q-error) per statement slower than the threshold.
    #: ``None`` disables the log entirely.  A deployment path.
    slow_query_log_path: Optional[str] = None
    #: Total statement latency (compile + execute seconds) above which
    #: a statement is logged.  Set by the drift scenario
    #: (``tests/drift.py``).
    slow_query_log_threshold_seconds: float = 0.25
    #: Default per-statement wall-clock deadline in seconds; ``None`` =
    #: unbounded.  Overridable per statement via
    #: ``run(sql, timeout_seconds=...)``; breaches abort with
    #: :class:`repro.errors.DeadlineExceededError`.  A safety bound for
    #: deployments.
    statement_timeout_seconds: Optional[float] = None
    #: Default per-statement cap on tracked operator memory (bytes
    #: charged by hash join builds, hash aggregates, sorts, and
    #: materialisations); ``None`` = unbounded.  Overridable via
    #: ``run(sql, memory_limit_bytes=...)``.  A safety bound for
    #: deployments.
    statement_memory_limit_bytes: Optional[int] = None
    #: Opt-in apply hook: every ``advisor_interval_statements``
    #: statements, pending re-ANALYZE recommendations are applied
    #: automatically (ANALYZE advances the table's catalog epoch, so
    #: cached plans over it recompile against the fresh statistics).
    #: Set by the drift scenario.
    advisor_auto_analyze: bool = False
    #: Statements between auto-apply sweeps.  Set by the drift scenario.
    advisor_interval_statements: int = 32
    #: Rows per batch-engine RowBatch *and* per table chunk (one chunk
    #: is one morsel, so this is also the morsel size).  A memory bound
    #: for deployments.
    batch_size: int = 1024
    #: Worker ceiling for morsel-driven parallel pre-aggregation; 1 =
    #: serial.  With more, each eligible operator fans out to forked
    #: workers only when the cost gate in :mod:`repro.executor.parallel`
    #: says it pays, so a value > 1 is safe to leave on.  Per-statement
    #: override: ``run(sql, executor_workers=N)``.  Set by the
    #: ``parallel_tpch`` benchmark workload.
    executor_workers: int = 1

    def __post_init__(self) -> None:
        if self.routing not in ROUTING_POLICIES:
            raise ReproError(
                f"unknown routing {self.routing!r}; valid choices: "
                f"{', '.join(ROUTING_POLICIES)}")
        if self.orca_search not in JoinSearchMode.__members__:
            valid = ", ".join(JoinSearchMode.__members__)
            raise ReproError(
                f"unknown orca_search {self.orca_search!r}; "
                f"valid choices: {valid}")
        if self.slow_query_log_threshold_seconds < 0.0:
            raise ReproError(
                "slow_query_log_threshold_seconds must be >= 0")
        if self.statement_timeout_seconds is not None \
                and self.statement_timeout_seconds < 0.0:
            raise ReproError("statement_timeout_seconds must be >= 0")
        if self.statement_memory_limit_bytes is not None \
                and self.statement_memory_limit_bytes < 1:
            raise ReproError("statement_memory_limit_bytes must be >= 1")
        if self.advisor_interval_statements < 1:
            raise ReproError("advisor_interval_statements must be >= 1")
        if self.batch_size < 1:
            raise ReproError("batch_size must be >= 1")
        if self.executor_workers < 1:
            raise ReproError("executor_workers must be >= 1")


@dataclass
class StatementResult:
    """Rows plus compile/execute timings for benchmark harnesses."""

    rows: List[tuple]
    optimizer_used: str
    compile_seconds: float
    execute_seconds: float
    explain: Optional[str] = None
    #: Why the Orca detour was abandoned (or skipped) for this
    #: statement; ``None`` when Orca succeeded or was never attempted.
    fallback_reason: Optional[FallbackReason] = None
    #: Root of the statement's span tree when the statement ran with
    #: tracing (``run(sql, trace=True)`` or an enabled ``db.tracer``);
    #: ``None`` otherwise.
    trace: Optional[Span] = None
    #: True when the executable plan came from the statement plan cache
    #: (optimization was skipped entirely).
    plan_cache_hit: bool = False
    #: Executor mode the statement ran in: the requested one ("batch"
    #: unless ``run(sql, executor_mode="row")`` asked for the reference
    #: interpreter).
    executor_mode: str = "row"
    #: Per-node estimated/actual/Q-error snapshot of this execution;
    #: ``None`` only for DML (no plan tree to compare against).
    plan_quality: Optional[StatementQuality] = None
    #: Monotonic id of this statement within the Database instance —
    #: the handle ``db.cancel(statement_id)`` takes.
    statement_id: int = 0
    #: Snapshot of the execution governor (peak tracked bytes, deadline
    #: budget used, checkpoints); ``None`` only for DML.
    governor_stats: Optional[dict] = None
    #: True when a hash-agg memory breach degraded this statement to
    #: the reduced-memory streaming retry (results are still exact).
    low_memory_retry: bool = False
    #: Literal-free digest of the executable plan's shape (see
    #: :func:`repro.workload.compute_plan_hash`); ``None`` only for DML.
    plan_hash: Optional[str] = None

    def trace_export(self) -> List[dict]:
        """Flat JSON trace: one dict per span (name, start, duration,
        depth, parent, attributes).  Empty when the statement was not
        traced."""
        return [] if self.trace is None else self.trace.to_dicts()

    def stage_seconds(self) -> dict:
        """Total seconds per pipeline stage, aggregated over the trace."""
        return {} if self.trace is None else stage_durations(self.trace)


class Database:
    """An embedded single-schema database with MySQL and Orca optimizers."""

    def __init__(self, config: Optional[DatabaseConfig] = None) -> None:
        self.config = config or DatabaseConfig()
        self.catalog = Catalog()
        self.storage = StorageEngine(
            self.catalog, batch_size=self.config.batch_size)
        #: Process-wide counters / gauges / histograms; always on (a
        #: counter bump per statement costs nothing measurable).
        self.metrics = MetricsRegistry()
        #: Statement tracer.  The no-op default makes every span hook
        #: free; ``run(sql, trace=True)`` installs a real tracer for one
        #: statement, or assign ``db.tracer = Tracer()`` to trace all.
        self.tracer = NOOP_TRACER
        #: Fallback telemetry: counters by reason, per-statement history.
        #: Events are mirrored into :attr:`metrics` so one report covers
        #: routing, resilience, and cache behaviour together.
        self.fallback_log = FallbackLog(metrics=self.metrics)
        #: Quarantine for statements that keep crashing the detour.
        self.circuit_breaker = CircuitBreaker()
        #: Statement plan cache, keyed by literal-preserving statement
        #: digest and validated against the catalog epochs of the tables
        #: the statement references (their DDL and ANALYZE invalidate;
        #: DML does not).
        self.plan_cache = PlanCache(metrics=self.metrics)
        #: One record per statement and the history every report reads:
        #: recent records, per-fingerprint entries, per-operator Q and
        #: column usage, and the regression detector (see the
        #: statement_log module).
        self.statements = StatementLog(metrics=self.metrics)
        #: Ranked recommendations over the statement log; ``apply()`` is
        #: the opt-in mutation path (auto-driven only when
        #: ``config.advisor_auto_analyze`` is set).
        self.advisor = Advisor(
            statements=self.statements, catalog=self.catalog,
            storage=self.storage, plan_cache=self.plan_cache,
            metrics=self.metrics)
        #: Orca's metadata cache, shared by every detour: the parsed DXL
        #: relation and statistics of each table, valid for the table's
        #: catalog epoch (see orca/mdcache.py).
        self.mdcache = MDCache(self.catalog)
        #: ParallelContext of the most recent statement that actually
        #: ran a parallel operator — ``db.top()``'s worker section.
        self._last_parallel = None
        #: The router of the most recent Orca detour, kept so callers can
        #: inspect its bridge components (e.g. ``last_accessor.stats()``
        #: for the metadata-cache hit ratio of one statement).
        self.last_router = None
        #: In-flight statements: statement_id -> (sql, governor).  The
        #: registry exists so ``cancel(statement_id)`` can reach a
        #: statement's cancel token from another thread; entries are
        #: removed in ``run()``'s finally regardless of outcome.
        self._active_statements: Dict[int, Tuple[str, ExecutionGovernor]] \
            = {}
        self._next_statement_id = 1
        # Declared up front so metrics_export() shows the governor
        # histogram from statement one — and so the empty-histogram
        # hardening has a permanent in-tree exercise.
        self.metrics.declare_histogram("governor.peak_bytes")
        # Export-time gauges: ratios derived from live objects are
        # computed only when a scrape/report actually reads them.
        self.metrics.register_gauge(
            "plan_cache.hit_ratio", lambda: self.plan_cache.hit_ratio)
        self.metrics.register_gauge(
            "mdcache.hit_ratio", self._mdcache_hit_ratio)
        self.metrics.register_gauge(
            "workload.fingerprints", lambda: self.statements.fingerprints)

    def _mdcache_hit_ratio(self) -> float:
        hits = self.metrics.count("mdcache.hits")
        requests = hits + self.metrics.count("mdcache.misses")
        return hits / requests if requests else 0.0

    # -- DDL / DML ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.storage.create_table(schema)

    def load(self, table_name: str, rows: Iterable[Sequence]) -> None:
        self.storage.load_rows(table_name, list(rows))

    def analyze(self, with_histograms: bool = True) -> None:
        """ANALYZE every table whose rows changed since its last ANALYZE
        (row counts, NDVs, histograms); the rest keep their statistics,
        their catalog epoch and so the cached plans over them."""
        with self.tracer.span("analyze") as span:
            analyzed = len(self.storage.analyze_all(with_histograms))
            skipped = len(self.catalog.table_names) - analyzed
            span.set(tables_analyzed=analyzed, tables_skipped=skipped)
        self.metrics.inc("analyze.tables_analyzed", analyzed)
        self.metrics.inc("analyze.tables_skipped", skipped)

    # -- compilation -------------------------------------------------------------

    def _parse(self, sql: str, governor: ExecutionGovernor):
        """Parse under the statement's governor (the one parse site)."""
        with self.tracer.span("parse"):
            stmt = parse_statement(sql)
        governor.checkpoint(stage="parse")
        return stmt

    def _compile(self, sql: str, optimizer: str
                 ) -> Tuple[Executor, str, Optional[FallbackReason],
                            SkeletonPlan]:
        """Compile a SELECT without running it (EXPLAIN, ``compile_only``)
        under a governor carrying the config's statement bounds.

        Returns ``(executor, optimizer_used, fallback_reason, skeleton)``.
        """
        governor = self._make_governor()
        stmt = self._parse(sql, governor)
        if not isinstance(stmt, sql_ast.SelectStmt):
            raise ReproError("only SELECT statements can be compiled; "
                             "DML executes directly")
        return self._compile_select(stmt, optimizer, sql, governor)

    def _compile_select(self, stmt, optimizer: str, sql: str,
                        governor: ExecutionGovernor,
                        cache_status: Optional[str] = None
                        ) -> Tuple[Executor, str, Optional[FallbackReason],
                                   SkeletonPlan]:
        """The one compile entry: prepare, route, optimize and refine.

        The governor checkpoints at every stage boundary, so a
        cancelled or expired statement aborts before the next stage's
        work starts; within the Orca detour it also caps the
        CompileBudget to the remaining deadline (see OrcaRouter)."""
        tracer = self.tracer
        with tracer.span("prepare"):
            block, context = Resolver(self.catalog).resolve(stmt)
            table_epochs = {table: self.catalog.epoch(table)
                            for table in context.base_table_names()}
            prepare(block)
        governor.checkpoint(stage="prepare")

        with tracer.span("route") as route_span:
            refs = stmt.table_reference_count()
            route = self._route(optimizer, refs)
            route_span.set(route=route, policy=self.config.routing,
                           table_references=refs)
            if cache_status is not None:
                route_span.set(plan_cache=cache_status)
        used = "mysql"
        fallback_reason: Optional[FallbackReason] = None
        skeleton: Optional[SkeletonPlan] = None
        if route == "cost":
            # Future-work routing (Section 9): greedy-optimize first, and
            # only detour to Orca when the MySQL plan looks expensive.
            with tracer.span("mysql_optimize"):
                skeleton = MySQLOptimizer(self.catalog).optimize(
                    block, context)
            top_cost = skeleton.skeleton_for(block).total_cost
            if top_cost >= self.config.mysql_cost_threshold:
                orca_skeleton, fallback_reason = self._guarded_detour(
                    stmt, block, context, sql, governor)
                if orca_skeleton is not None:
                    # On fallback the greedy skeleton computed above is
                    # reused as-is — no recompute.
                    skeleton = orca_skeleton
                    used = "orca"
        elif route == "orca":
            skeleton, fallback_reason = self._guarded_detour(
                stmt, block, context, sql, governor)
            used = "orca" if skeleton is not None else "mysql"
        if skeleton is None:
            with tracer.span("mysql_optimize"):
                skeleton = MySQLOptimizer(self.catalog).optimize(
                    block, context)
        governor.checkpoint(stage="optimize")
        with tracer.span("refine"):
            executor = PlanBuilder(skeleton, self.catalog,
                                   self.storage).build()
        governor.checkpoint(stage="refine")
        executor.table_epochs = table_epochs
        return executor, used, fallback_reason, skeleton

    def _guarded_detour(self, stmt, block, context, sql: str,
                        governor: ExecutionGovernor
                        ) -> Tuple[Optional[SkeletonPlan],
                                   Optional[FallbackReason]]:
        """Enter the Orca detour under containment.

        Checks the circuit breaker first, records the outcome in the
        fallback log, and feeds unexpected-exception fallbacks back into
        the breaker.  Never raises.
        """
        fingerprint = statement_fingerprint(sql)
        with self.tracer.span("orca_detour",
                              fingerprint=fingerprint) as span:
            if not self.circuit_breaker.allow(fingerprint):
                self.fallback_log.record_fallback(FallbackEvent(
                    fingerprint=fingerprint,
                    reason=FallbackReason.CIRCUIT_OPEN,
                    sql=sql))
                span.set(outcome="fallback",
                         fallback_reason=FallbackReason.CIRCUIT_OPEN.value)
                return None, FallbackReason.CIRCUIT_OPEN
            router = OrcaRouter(self.catalog, self.config,
                                tracer=self.tracer, metrics=self.metrics,
                                governor=governor, mdcache=self.mdcache)
            self.last_router = router
            self.fallback_log.record_detour_entry()
            outcome = router.optimize_guarded(stmt, block, context)
            if outcome.ok:
                self.fallback_log.record_detour_success()
                self.circuit_breaker.record_success(fingerprint)
                span.set(outcome="ok")
                return outcome.skeleton, None
            self.fallback_log.record_fallback(FallbackEvent(
                fingerprint=fingerprint,
                reason=outcome.reason,
                error_type=outcome.error_type,
                error_message=outcome.error_message,
                sql=sql))
            span.set(outcome="fallback",
                     fallback_reason=outcome.reason.value,
                     error_type=outcome.error_type)
            if outcome.reason is FallbackReason.UNEXPECTED_EXCEPTION:
                self.circuit_breaker.record_failure(fingerprint)
            return None, outcome.reason

    def _route(self, optimizer: str, refs: int) -> str:
        """The route of a SELECT with ``refs`` table references."""
        if optimizer == "mysql":
            return "mysql"
        if optimizer == "orca":
            return "orca"
        if optimizer != "auto":
            raise ReproError(f"unknown optimizer {optimizer!r}")
        if self.config.routing not in ROUTING_POLICIES:
            # The config object is mutable, so a typo like "cost-based"
            # can arrive after construction; refuse to guess.
            raise ReproError(
                f"unknown routing {self.config.routing!r}; valid "
                f"choices: {', '.join(ROUTING_POLICIES)}")
        if self.config.routing == "cost_based":
            return "cost"
        if refs >= self.config.complex_query_threshold:
            return "orca"
        return "mysql"

    # -- DML ---------------------------------------------------------------------

    def _execute_dml(self, stmt, start: float,
                     governor: ExecutionGovernor) -> StatementResult:
        """Run INSERT/DELETE/UPDATE directly (never routed — Section 4.1)."""
        from repro import dml

        compiled = time.perf_counter()
        # DML mutates storage in one shot, so the only safe abort point
        # is *before* the write — a cancellation landing here leaves
        # storage untouched; after this checkpoint the statement runs to
        # completion.
        governor.checkpoint(stage="dml")
        counters = self.storage.counters
        before = counters.snapshot()
        with self.tracer.span("execute") as span:
            if isinstance(stmt, sql_ast.InsertStmt):
                affected = dml.execute_insert(self.storage, stmt)
            elif isinstance(stmt, sql_ast.DeleteStmt):
                affected = dml.execute_delete(self.storage, stmt)
            else:
                affected = dml.execute_update(self.storage, stmt)
            work = {name: count - before[name]
                    for name, count in counters.snapshot().items()}
            span.set(rows=affected)
            # How the statement found its rows: a table scan for the
            # victims, else index lookups (victims, unique-key probes);
            # absent when it read nothing (an append with no unique key).
            if work["rows_scanned"]:
                span.set(access="scan")
            elif work["index_lookups"]:
                span.set(access="index")
        done = time.perf_counter()
        self.metrics.inc("statements.dml")
        self.metrics.inc("storage.dml_rows_changed", work["rows_changed"])
        self.metrics.inc("storage.index_entries_maintained",
                         work["index_entries_maintained"])
        self.metrics.inc("storage.chunks_patched", work["chunks_patched"])
        return StatementResult(
            rows=[(affected,)],
            optimizer_used="mysql",
            compile_seconds=compiled - start,
            execute_seconds=done - compiled,
        )

    # -- public query API -----------------------------------------------------------

    def execute(self, sql: str, optimizer: str = "auto") -> List[tuple]:
        return self.run(sql, optimizer).rows

    # -- governance --------------------------------------------------------------

    def _make_governor(self, timeout_seconds: Optional[float] = None,
                       memory_limit_bytes: Optional[int] = None,
                       cancel_token: Optional[CancelToken] = None
                       ) -> ExecutionGovernor:
        """The per-statement governor: explicit bounds beat config
        defaults.  Every statement has one; without a bound it costs one
        attribute read plus two compares per checkpoint."""
        config = self.config
        return ExecutionGovernor(
            timeout_seconds=timeout_seconds if timeout_seconds is not None
            else config.statement_timeout_seconds,
            memory_limit_bytes=memory_limit_bytes
            if memory_limit_bytes is not None
            else config.statement_memory_limit_bytes,
            cancel_token=cancel_token,
            fault_injector=config.fault_injector)

    def cancel(self, statement_id: int,
               reason: str = "cancelled by client") -> bool:
        """Request cooperative cancellation of an in-flight statement.

        Returns True when the statement is still running — it will
        abort with :class:`repro.errors.StatementCancelledError` at its
        next governor checkpoint — and False when the id is unknown or
        the statement already finished.  Safe to call from another
        thread (it only sets a flag).
        """
        entry = self._active_statements.get(statement_id)
        if entry is None:
            return False
        entry[1].cancel(reason)
        return True

    def active_statements(self) -> Dict[int, str]:
        """statement_id -> SQL text of every in-flight statement."""
        return {sid: sql
                for sid, (sql, __) in self._active_statements.items()}

    def run(self, sql: str, optimizer: str = "auto",
            explain: bool = False, trace: bool = False,
            use_plan_cache: bool = True,
            executor_mode: str = "batch",
            timeout_seconds: Optional[float] = None,
            memory_limit_bytes: Optional[int] = None,
            cancel_token: Optional[CancelToken] = None,
            executor_workers: Optional[int] = None) -> StatementResult:
        """Execute with timing breakdown (used by the benchmark harness).

        DML statements return a single row holding the affected-row
        count; they never take the Orca detour (Section 4.1).  With
        ``explain=True`` the result also carries the plan's EXPLAIN
        text (rendered before execution, so estimates are unperturbed).
        With ``trace=True`` the statement runs under a fresh
        :class:`repro.observability.Tracer` and the result carries the
        span tree (``result.trace``); without it, tracing costs nothing.
        ``use_plan_cache=False`` bypasses the statement plan cache for
        this statement only (no lookup, no store).
        Every statement runs on the batch engine; ``executor_mode="row"``
        runs it on the row interpreter instead, the reference the tests
        and the benchmark compare the batch engine against.

        ``timeout_seconds`` / ``memory_limit_bytes`` override the
        config-default statement bounds for this statement;
        ``cancel_token`` installs a caller-owned
        :class:`repro.governor.CancelToken`.  A breached bound aborts
        the statement with the matching typed
        :class:`repro.errors.GovernorError` subclass and leaves
        storage, the plan cache, and the fingerprint's executions and
        Q-errors exactly as if the statement never ran (the statement
        log records the abort itself) — one exception:
        a hash-aggregate memory breach first retries once in streaming
        mode.

        ``executor_workers`` overrides ``config.executor_workers`` for
        this statement (morsel-driven parallelism; batch mode only).
        """
        return self._run(sql, optimizer, explain, trace, use_plan_cache,
                         executor_mode, timeout_seconds, memory_limit_bytes,
                         cancel_token, executor_workers)[0]

    def _run(self, sql: str, optimizer: str = "auto",
             explain: bool = False, trace: bool = False,
             use_plan_cache: bool = True,
             executor_mode: str = "batch",
             timeout_seconds: Optional[float] = None,
             memory_limit_bytes: Optional[int] = None,
             cancel_token: Optional[CancelToken] = None,
             executor_workers: Optional[int] = None,
             select_only: bool = False
             ) -> Tuple[StatementResult, Optional[Executor]]:
        """The one run entry, behind ``run()`` and ``explain_analyze()``.

        Returns the result and the executor that produced its rows (the
        retry executor after a low-memory retry; None for DML).
        ``select_only`` refuses DML before it writes anything."""
        if executor_mode not in EXECUTOR_MODES:
            raise ReproError(
                f"unknown executor_mode {executor_mode!r}; valid "
                f"choices: {', '.join(EXECUTOR_MODES)}")
        if executor_workers is not None and executor_workers < 1:
            raise ReproError("executor_workers must be >= 1")
        governor = self._make_governor(timeout_seconds, memory_limit_bytes,
                                       cancel_token)
        statement_id = self._next_statement_id
        self._next_statement_id += 1
        self._active_statements[statement_id] = (sql, governor)
        previous = self.tracer
        if trace and not previous.enabled:
            self.tracer = Tracer()
        try:
            self.metrics.inc("statements.total")
            start = time.perf_counter()
            with self.tracer.span("statement", sql=sql,
                                  optimizer=optimizer) as stmt_span:
                try:
                    result, executor = self._run_governed(
                        sql, optimizer, explain, use_plan_cache,
                        executor_mode, governor, statement_id, start,
                        stmt_span, executor_workers, select_only)
                except (GovernorError, ExecutionError) as exc:
                    # An aborted statement: classify, count, and unwind.
                    # Deliberately skipped: the plan-cache store, the
                    # fingerprint's executions and Q-errors, planq
                    # metrics, and the compile/execute latency
                    # observations — the statement must leave the
                    # Database as if it never ran.
                    self._record_abort(sql, exc, governor, stmt_span,
                                       statement_id)
                    raise
            if self.tracer.enabled:
                result.trace = stmt_span
            if self.config.slow_query_log_path is not None:
                self._log_slow_query(self.statements.last, result)
            return result, executor
        finally:
            self._active_statements.pop(statement_id, None)
            self.tracer = previous

    def _run_governed(self, sql: str, optimizer: str, explain: bool,
                      use_plan_cache: bool, mode: str,
                      governor: ExecutionGovernor,
                      statement_id: int, start: float, stmt_span,
                      executor_workers: Optional[int],
                      select_only: bool
                      ) -> Tuple[StatementResult, Optional[Executor]]:
        tracer = self.tracer
        stmt = self._parse(sql, governor)
        if not isinstance(stmt, sql_ast.SelectStmt):
            if select_only:
                raise ReproError("EXPLAIN ANALYZE runs SELECT statements "
                                 "only; DML executes directly")
            result = self._execute_dml(stmt, start, governor)
            stmt_span.set(optimizer_used=result.optimizer_used)
            result.statement_id = statement_id
            self._record_statement(sql, statement_id, stmt_span, result)
            return result, None
        self.metrics.inc("statements.select")
        cache_key = statement_cache_key(sql, optimizer)
        # A key the cache holds but cannot serve is stale (an epoch
        # moved); one it never saw, or evicted, is a plain miss.
        status = "bypass"
        cached = None
        if use_plan_cache:
            status = "stale" if cache_key in self.plan_cache else "miss"
            cached = self.plan_cache.lookup(cache_key, self.catalog)
        fallback_reason: Optional[FallbackReason] = None
        if cached is not None:
            # Hit: the refined executable plan is reused as-is; the
            # whole optimize pipeline (prepare, route, detour or
            # MySQL optimization, refine) is skipped.
            executor = cached.executor
            used = cached.optimizer_used
            skeleton = cached.skeleton
            with tracer.span("route") as route_span:
                route_span.set(plan_cache="hit", route=used,
                               policy=self.config.routing)
        else:
            executor, used, fallback_reason, skeleton = \
                self._compile_select(stmt, optimizer, sql, governor,
                                     cache_status=status)
        explain_text = explain_plan(executor.top_plan) \
            if explain else None
        workers = executor_workers or self.config.executor_workers
        compiled = time.perf_counter()
        with tracer.span("execute") as exec_span:
            rows, executor, governor, low_memory_retry = \
                self._execute_governed(executor, skeleton, mode,
                                       governor, sql, workers)
            exec_span.set(executor_mode=mode)
            if mode == "batch":
                runtime = executor.last_runtime
                exec_span.set(batches=runtime.batches,
                              batch_rows=runtime.batch_rows)
            parallel = executor.last_parallel
            if parallel is not None:
                exec_span.set(parallel_decision=parallel.decision)
                if parallel.costed:
                    exec_span.set(
                        parallel_est_serial_ms=parallel.est_serial_ms,
                        parallel_est_fanout_ms=parallel.est_fanout_ms)
            if parallel is not None and parallel.ops:
                # Worker skew rides on the execute span (the grafted
                # parallel_worker children carry the per-worker detail).
                self._last_parallel = parallel
                skew = parallel.skew()
                exec_span.set(
                    parallel_workers=skew["workers"],
                    worker_min_morsels=skew["min_morsels"],
                    worker_max_morsels=skew["max_morsels"],
                    worker_stddev_morsels=skew["stddev_morsels"])
        done = time.perf_counter()
        quality = statement_quality(executor)
        exec_span.set(root_q=quality.root_q, max_q=quality.max_q,
                      worst_operator=quality.worst_operator,
                      planq_breach=quality.max_q
                      > self.statements.q_threshold)
        if executor.plan_hash is None:
            # Facts of the compiled plan, not of this execution: the
            # plan cache shares the executor, so hits reuse them.
            executor.plan_hash = compute_plan_hash(executor)
            executor.column_touches = extract_column_touches(executor)
            executor.operator_kinds = tuple(
                node.operator for node in quality.nodes)
        if cached is None and use_plan_cache and fallback_reason is None \
                and not low_memory_retry:
            # Deferred store — only a statement that *executed to
            # completion* enters the cache.  Never cache a fallen-back
            # detour (circuit open, budget overrun, crash: each run
            # must re-attempt routing and keep feeding the breaker),
            # an aborted statement (the except path above never gets
            # here), or a reduced-memory retry plan (the forced-stream
            # shape is a degradation, not the optimizer's choice).
            self.plan_cache.store(cache_key, PlanCacheEntry(
                executor=executor,
                skeleton=skeleton,
                optimizer_used=used,
                table_epochs=executor.table_epochs,
                fingerprint=statement_fingerprint(sql)))
        self.metrics.inc(f"statements.{used}")
        self.metrics.observe("statement.compile_seconds",
                             compiled - start)
        self.metrics.observe("statement.execute_seconds",
                             done - compiled)
        self.metrics.observe("governor.peak_bytes",
                             governor.memory.peak_bytes)
        stmt_span.set(optimizer_used=used, rows=len(rows),
                      plan_cache_hit=cached is not None,
                      executor_mode=mode)
        result = StatementResult(
            rows=rows,
            optimizer_used=used,
            compile_seconds=compiled - start,
            execute_seconds=done - compiled,
            explain=explain_text,
            fallback_reason=fallback_reason,
            plan_cache_hit=cached is not None,
            executor_mode=mode,
            plan_quality=quality,
            statement_id=statement_id,
            governor_stats=governor.stats(),
            low_memory_retry=low_memory_retry,
            plan_hash=executor.plan_hash,
        )
        self._record_statement(sql, statement_id, stmt_span, result,
                               executor=executor, cache_key=cache_key,
                               workers=workers)
        return result, executor

    def _record_statement(self, sql: str, statement_id: int, stmt_span,
                          result: Optional[StatementResult] = None,
                          executor: Optional[Executor] = None,
                          cache_key: Optional[str] = None,
                          workers: int = 1,
                          abort_reason: Optional[FallbackReason] = None,
                          governor: Optional[ExecutionGovernor] = None
                          ) -> StatementRecord:
        """Build the statement's one record and append it to the log.

        Called exactly once per statement: for a completed SELECT (with
        its ``executor``), a DML ``result``, or an abort
        (``abort_reason``).  Everything the reports show about the
        statement comes from this record.
        """
        record = StatementRecord(
            statement_id=statement_id,
            fingerprint=statement_fingerprint(sql),
            sql=sql)
        if isinstance(stmt_span, Span):
            # The statement span is still open here; its closed
            # children (parse, route, execute, ...) are the stages.
            record.stage_seconds = stage_durations(stmt_span)
            record.stage_seconds.pop("statement", None)
        if abort_reason is not None:
            # Latency is elapsed-until-abort (the bound, not the
            # statement), so the regression detector skips aborts.
            record.aborted = True
            record.abort_reason = abort_reason.value
            record.execute_seconds = governor.elapsed_seconds()
            record.governor_checkpoints = governor.checkpoints
            record.governor_peak_bytes = governor.memory.peak_bytes
        else:
            record.optimizer = result.optimizer_used
            record.executor_mode = result.executor_mode
            record.workers = workers
            record.plan_hash = result.plan_hash
            record.plan_cache_hit = result.plan_cache_hit
            record.rows = len(result.rows)
            record.compile_seconds = result.compile_seconds
            record.execute_seconds = result.execute_seconds
            record.low_memory_retry = result.low_memory_retry
            if result.fallback_reason is not None:
                record.fallback_reason = result.fallback_reason.value
            stats = result.governor_stats
            if stats is not None:
                record.governor_checkpoints = stats["checkpoints"]
                record.governor_peak_bytes = stats["peak_tracked_bytes"]
            quality = result.plan_quality
            if quality is not None:
                record.root_q = quality.root_q
                record.max_q = quality.max_q
                record.worst_operator = quality.worst_operator
                record.breached = \
                    quality.max_q > self.statements.q_threshold
                record.node_q = tuple(node.q for node in quality.nodes)
        if executor is not None:
            record.cache_key = cache_key
            record.touches = executor.column_touches
            record.operators = executor.operator_kinds
        self.statements.append(record)
        if executor is not None and self.config.advisor_auto_analyze \
                and self.statements.recorded \
                % self.config.advisor_interval_statements == 0:
            with self.tracer.span("advisor_auto_apply"):
                self.advisor.apply(kinds=("reanalyze",))
        return record

    def _execute_governed(self, executor: Executor,
                          skeleton: SkeletonPlan, mode: str,
                          governor: ExecutionGovernor,
                          sql: str, workers: int = 1):
        """Run the plan under the governor, with one degradation path.

        A hash-aggregate memory breach — and only that breach — retries
        the statement once with aggregation forced to sort+stream under
        a fresh governor carrying the remaining deadline and the same
        cancel token.  The inserted sorts charge as *spillable* so the
        retry cannot be killed by the operator the degradation added.
        Returns ``(rows, executor, governor, low_memory_retry)``; the
        retry executor replaces the original for quality reporting.
        """
        injector = self.config.fault_injector
        try:
            rows = self._execute_wrapped(executor, mode, governor,
                                         injector, workers)
            return rows, executor, governor, False
        except ResourceExhaustedError as exc:
            if exc.operator != "hash_agg":
                raise
            self.metrics.inc("governor.stream_agg_retries")
            self.metrics.inc("governor.mem_breaches")
            self.fallback_log.record_fallback(FallbackEvent(
                fingerprint=statement_fingerprint(sql),
                reason=FallbackReason.RESOURCE_EXHAUSTED,
                error_type=type(exc).__name__,
                error_message=(f"{exc} — degraded to streaming "
                               f"aggregation and retried"),
                sql=sql))
            retry_governor = ExecutionGovernor(
                timeout_seconds=governor.remaining_seconds(),
                memory_limit_bytes=governor.memory.limit_bytes,
                cancel_token=governor.cancel_token,
                check_interval=governor.check_interval,
                spill_sorts=True, low_memory=True)
            with self.tracer.span("low_memory_retry"):
                retry_executor = PlanBuilder(
                    skeleton, self.catalog, self.storage,
                    force_stream_agg=True).build()
                # The retry runs without fault injection: an armed
                # alloc-spike would re-breach the degraded plan too and
                # turn every chaos spike into a hard failure.  It also
                # runs serial — the degraded shape exists to shrink the
                # memory footprint, not to go fast.
                rows = self._execute_wrapped(retry_executor, mode,
                                             retry_governor, None,
                                             workers=1)
            return rows, retry_executor, retry_governor, True

    def _execute_wrapped(self, executor: Executor, mode: str,
                         governor: ExecutionGovernor,
                         injector, workers: int = 1) -> List[tuple]:
        """Execute, wrapping non-typed escapes as ExecutionError.

        Anything that is not already a ReproError (an injected crash, a
        storage bug) is chained into a typed ExecutionError so every
        abort maps onto the FallbackReason taxonomy."""
        try:
            return executor.execute(
                mode=mode, metrics=self.metrics,
                governor=governor, injector=injector, workers=workers,
                tracer=self.tracer)
        except ReproError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"execution failed: {type(exc).__name__}: {exc}") from exc

    def _record_abort(self, sql: str, exc: ReproError,
                      governor: ExecutionGovernor,
                      stmt_span, statement_id: int) -> None:
        """Bookkeeping for an aborted statement.

        Records a FallbackEvent with the execution-stage reason, bumps
        the governor counters and leaves an aborted statement record;
        deliberately does NOT touch the plan cache or the fingerprint's
        executions and Q-errors (the abort must not poison either — the
        log only counts it).
        """
        reason = classify_execution_exception(exc)
        self.fallback_log.record_fallback(FallbackEvent(
            fingerprint=statement_fingerprint(sql),
            reason=reason,
            error_type=type(exc).__name__,
            error_message=str(exc),
            sql=sql))
        self.metrics.inc(_ABORT_COUNTERS[reason])
        self.metrics.inc("statements.aborted")
        self.metrics.observe("governor.peak_bytes",
                             governor.memory.peak_bytes)
        stmt_span.set(aborted=True, abort_reason=reason.value,
                      error_type=type(exc).__name__)
        # An abort still leaves a record — the crash history right
        # before a bad stretch is what the ring is for.
        self._record_statement(sql, statement_id, stmt_span,
                               abort_reason=reason, governor=governor)

    def explain(self, sql: str, optimizer: str = "auto",
                analyze: bool = False) -> str:
        """EXPLAIN text; with ``analyze=True``, EXPLAIN ANALYZE plus the
        per-stage breakdown footer (optimize-vs-execute split and Orca
        memo statistics)."""
        if analyze:
            return self.explain_analyze(sql, optimizer)
        executor, __, __, __ = self._compile(sql, optimizer)
        return explain_plan(executor.top_plan)

    def explain_analyze(self, sql: str, optimizer: str = "auto",
                        executor_mode: str = "batch",
                        executor_workers: Optional[int] = None) -> str:
        """EXPLAIN ANALYZE: execute with per-operator actual row counts.

        A view of one ``run(sql, trace=True, use_plan_cache=False)``:
        the statement runs once through the same governed path (typed
        errors, the low-memory retry, fault sites, one statement record)
        and the executor that produced its rows — the retry executor
        after a low-memory retry — is rendered with ``(estimated rows=E
        actual rows=N q=Q)`` per node from the executor's always-on
        counters, making estimation errors (the histogram story of
        Section 5.5) visible per operator; batch-engine runs
        additionally show per-node ``(batches=N)`` counts and
        materialisations their ``(rebinds=N)`` (Section 7).  A "stage
        breakdown" footer shows where the statement spent its time
        (mirroring the paper's EXPLAIN cost copy-over, Section 6),
        which executor engine ran, the governor's snapshot, and, for
        Orca plans, the memo statistics.  With ``executor_workers > 1``
        the footer shows the fan-out decision (``fanout`` /
        ``serial:cost`` / ``serial:shape``) and nodes that ran
        morsel-parallel show ``workers=N``.
        """
        from repro.executor.explain import format_stage_footer

        result, executor = self._run(
            sql, optimizer, trace=True, use_plan_cache=False,
            executor_mode=executor_mode, executor_workers=executor_workers,
            select_only=True)
        root = result.trace
        memo_groups = memo_alternatives = memo_pruned = 0
        join_strategy = None
        join_units = 0
        join_degradations = 0
        for span in find_spans(root, "memo_search"):
            memo_groups += span.attributes.get("memo_groups", 0)
            memo_alternatives += span.attributes.get(
                "memo_alternatives", 0)
            memo_pruned += span.attributes.get("pruned_candidates", 0)
            # Report the strategy of the statement's widest joined
            # component (sub-blocks optimize separately, each with its
            # own memo_search span).
            units = span.attributes.get("join_units", 0)
            if span.attributes.get("join_strategy") is not None \
                    and units >= join_units:
                join_strategy = span.attributes["join_strategy"]
                join_units = units
            join_degradations += span.attributes.get(
                "join_budget_degradations", 0)
        worker_spans = [span.to_dict()
                        for span in find_spans(root, "parallel_worker")]
        parallel = executor.last_parallel
        worker_skew = parallel.skew() \
            if parallel is not None and parallel.ops else None
        footer = format_stage_footer(
            optimizer_used=result.optimizer_used,
            optimize_seconds=result.compile_seconds,
            execute_seconds=result.execute_seconds,
            stages=result.stage_seconds(),
            memo_groups=memo_groups,
            memo_alternatives=memo_alternatives,
            memo_pruned=memo_pruned,
            executor_mode=executor_mode,
            batches=executor.last_runtime.batches,
            batch_rows=executor.last_runtime.batch_rows,
            compiled_exprs=executor.compiled_expr_count,
            governor_stats=result.governor_stats,
            join_strategy=join_strategy,
            join_units=join_units,
            join_budget_degradations=join_degradations,
            worker_spans=worker_spans or None,
            worker_skew=worker_skew,
            parallel=parallel,
        )
        return explain_plan(executor.top_plan, analyze=True,
                            footer=footer)

    def compile_only(self, sql: str, optimizer: str = "auto"
                     ) -> StatementResult:
        """Compile (EXPLAIN) without executing — for Table 1 experiments."""
        start = time.perf_counter()
        executor, used, fallback_reason, __ = self._compile(sql, optimizer)
        compiled = time.perf_counter()
        return StatementResult(
            rows=[],
            optimizer_used=used,
            compile_seconds=compiled - start,
            execute_seconds=0.0,
            explain=explain_plan(executor.top_plan),
            fallback_reason=fallback_reason,
        )

    # -- observability -----------------------------------------------------------------

    def _log_slow_query(self, record: StatementRecord,
                        result: StatementResult) -> None:
        """Append the statement's record (plus its trace) as one JSONL
        line when it ran longer than the threshold."""
        total = record.total_seconds
        if total < self.config.slow_query_log_threshold_seconds:
            return
        line = {
            "ts": record.ts,
            "sql": record.sql,
            "fingerprint": record.fingerprint,
            "plan_hash": record.plan_hash,
            "optimizer": record.optimizer,
            "executor_mode": record.executor_mode,
            "plan_cache_hit": record.plan_cache_hit,
            "total_seconds": total,
            "compile_seconds": record.compile_seconds,
            "execute_seconds": record.execute_seconds,
            "rows": record.rows,
            "root_q": record.root_q,
            "max_q": record.max_q,
            "worst_operator": record.worst_operator,
            "fallback_reason": record.fallback_reason,
            "stages": record.stage_seconds or {},
            "trace": result.trace_export(),
        }
        with open(self.config.slow_query_log_path, "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(line, default=str) + "\n")
        self.metrics.inc("slow_query_log.records")

    def metrics_export(self) -> str:
        """The whole metrics registry (counters, gauges, histogram
        quantiles) in Prometheus text exposition format."""
        return self.metrics.to_prometheus()

    def plan_quality_report(self) -> dict:
        """The estimate-vs-actual feedback surface, as one payload:

        * ``worst_fingerprints`` — executed statement fingerprints
          ranked by worst-ever Q-error (the statements the optimizer
          misestimates hardest);
        * ``worst_operators`` — operator kinds ranked the same way;
        * ``stats_staleness`` — per-table live-vs-ANALYZE cardinality
          drift, worst first;
        * ``reanalyze_recommendations`` — tables whose drift exceeds
          :data:`repro.plan_quality.STALENESS_THRESHOLD` (or that were
          never analyzed at all);
        * ``ledger`` — breach and abort totals and the Q threshold.

        Render with
        :func:`repro.plan_quality.format_plan_quality_report`.
        """
        staleness = stats_staleness(self.catalog, self.storage)
        log = self.statements
        return {
            "ledger": log.quality_stats(),
            "worst_fingerprints": [
                entry.quality_dict() for entry in log.worst_fingerprints()],
            "worst_operators": log.worst_operators(),
            "stats_staleness": [table.to_dict() for table in staleness],
            "reanalyze_recommendations": [
                table.table for table in staleness
                if table.recommend_analyze],
        }

    def plan_quality_report_text(self) -> str:
        """``plan_quality_report()`` rendered as plain text."""
        return format_plan_quality_report(self.plan_quality_report())

    def workload_report(self, limit: int = 20) -> dict:
        """The workload-intelligence surface, as one payload:

        * ``repository`` — per-fingerprint statement history (execution
          counts, latency p50/p95/p99, plan-cache hit ratio, plan hash,
          flagged regressions) plus per-column usage;
        * ``recommendations`` — the advisor's ranked advice
          (``reanalyze`` / ``index`` / ``plan_regression``), each with
          a score, a human reason, and machine-readable details;
        * ``advisor`` — apply totals.

        Render with :func:`repro.workload.format_workload_report`.
        """
        return {
            "repository": self.statements.snapshot(limit=limit),
            "recommendations": [
                rec.to_dict() for rec in self.advisor.recommendations()],
            "advisor": {"applied_total": self.advisor.applied_total},
        }

    def workload_report_text(self, limit: int = 20) -> str:
        """``workload_report()`` rendered as plain text."""
        return format_workload_report(self.workload_report(limit=limit))

    def flight_report(self, limit: int = 20) -> dict:
        """The statement ring's JSON-ready payload (ring stats plus the
        most recent records, latest first)."""
        return self.statements.report(limit=limit)

    def flight_report_text(self, limit: int = 20) -> str:
        """``flight_report()`` rendered as plain text."""
        return format_flight_report(self.flight_report(limit=limit))

    def flight_export(self, path: str) -> int:
        """Dump the whole statement ring (records + registry snapshots)
        as JSONL; returns the line count."""
        return self.statements.export_jsonl(path)

    def top_data(self, limit: int = 10) -> dict:
        """The live engine state behind :meth:`top`, JSON-ready:
        in-flight statements (elapsed, last governor stage), hottest
        fingerprints, and per-worker utilization of the most recent
        parallel statement."""
        active = []
        for sid, (sql, governor) in sorted(
                self._active_statements.items()):
            active.append({
                "statement_id": sid,
                "sql": sql,
                "elapsed_seconds": governor.elapsed_seconds(),
                "last_stage": governor.last_stage,
            })
        hottest = [{
            "fingerprint": entry.fingerprint,
            "sql": entry.sample_sql,
            "executions": entry.executions,
            "p95_seconds": entry.latency.quantile(0.95),
        } for entry in self.statements.entries()[:limit]]
        parallel = self._last_parallel
        return {
            "statements_total":
                int(self.metrics.count("statements.total")),
            "statements_aborted":
                int(self.metrics.count("statements.aborted")),
            "active_count": len(active),
            "active": active,
            "hottest": hottest,
            "workers": parallel.utilization()
            if parallel is not None else [],
            "worker_skew": parallel.skew()
            if parallel is not None else None,
        }

    def top(self, limit: int = 10) -> str:
        """Live ``top``-style text report of the engine right now."""
        return format_top_report(self.top_data(limit=limit))

    def metrics_report(self) -> str:
        """One text report answering "what happened and why": routing
        (detour rate), resilience (fallbacks by reason), metadata-cache
        effectiveness, and the raw counter/gauge/histogram dump.

        Every ratio line is empty-safe: after ``metrics.reset()`` (or
        before any statement ran) denominators are zero and each rate
        renders as 0.0% rather than dividing."""

        def pct(numerator: float, denominator: float) -> float:
            return 100.0 * numerator / denominator if denominator \
                else 0.0

        m = self.metrics
        selects = m.count("statements.select")
        entered = m.count("detour.entered")
        lines = ["Optimizer metrics", "=" * 17,
                 f"statements:        "
                 f"{int(m.count('statements.total'))} total, "
                 f"{int(selects)} SELECT",
                 f"detour rate:       {pct(entered, selects):.1f}% "
                 f"({int(entered)}/{int(selects)} SELECTs entered the "
                 f"Orca detour)",
                 f"detours succeeded: {int(m.count('detour.succeeded'))}"]
        fallbacks = m.counters_with_prefix("fallback.")
        lines.append("fallbacks by reason:"
                     if fallbacks else "fallbacks by reason: (none)")
        for name, value in fallbacks.items():
            lines.append(f"  {name[len('fallback.'):]}: {int(value)}")
        hits = m.count("mdcache.hits")
        misses = m.count("mdcache.misses")
        lines.append(f"mdcache hit ratio: "
                     f"{pct(hits, hits + misses):.1f}% "
                     f"({int(hits)} hits / {int(misses)} misses)")
        pc = self.plan_cache.stats()
        lines.append(
            f"plan cache:        "
            f"{pct(pc['hits'], pc['hits'] + pc['misses']):.1f}% hits "
            f"({pc['hits']} hits / {pc['misses']} misses, "
            f"{pc['evictions']} evictions, "
            f"{pc['invalidations']} invalidations, "
            f"{pc['size']} entries)")
        pruned = m.count("orca.pruned_candidates")
        lines.append(f"search pruning:    "
                     f"{int(pruned)} join candidates pruned")
        lines.append("")
        lines.append(m.report())
        return "\n".join(lines)

    # -- resilience observability ------------------------------------------------------

    def resilience_report(self) -> str:
        """Text summary: detour entries, fallbacks by reason, open circuits."""
        lines = [self.fallback_log.report()]
        open_fps = self.circuit_breaker.open_fingerprints
        lines.append(f"open circuits:     {len(open_fps)}")
        for fingerprint in open_fps:
            lines.append(
                f"  {fingerprint}: "
                f"{self.circuit_breaker.failures(fingerprint)} "
                f"consecutive failures")
        return "\n".join(lines)
