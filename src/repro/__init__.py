"""repro — a reproduction of "Integrating the Orca Optimizer into MySQL".

The package implements a complete embedded SQL engine with *two* query
optimizers and the bridge the paper describes between them:

* :class:`repro.Database` — the public facade: create tables, load rows,
  ANALYZE, and run SQL through either optimizer (or let the router decide
  by query complexity, as the paper's integration does);
* :mod:`repro.mysql_optimizer` — the MySQL-style optimizer (greedy
  left-deep join ordering, non-cost-based hash joins, skeleton plans,
  plan refinement);
* :mod:`repro.orca` — the Orca-style Cascades optimizer (memo,
  GREEDY / EXHAUSTIVE / EXHAUSTIVE2 join search, histogram cardinality,
  costed hash joins, preprocessing rewrites);
* :mod:`repro.bridge` — the paper's three integration components: parse
  tree converter, metadata provider (OID layout + DXL), and plan
  converter (best-position arrays);
* :mod:`repro.resilience` — fault containment for the detour: fallback
  reason taxonomy, compile budgets, per-statement circuit breaker,
  fallback telemetry, and seedable fault injection;
* :mod:`repro.governor` — execution-stage resource governance: per-
  statement wall-clock deadlines (``run(sql, timeout_seconds=...)``),
  cooperative cancellation (``db.cancel(statement_id)`` /
  :class:`repro.CancelToken`), and tracked operator-memory limits with
  a graceful streaming-aggregation degradation;
* :mod:`repro.observability` — per-statement span tracing
  (``db.run(sql, trace=True)``), the process-wide metrics registry
  (``db.metrics_report()``), and EXPLAIN ANALYZE stage breakdowns;
* :mod:`repro.statement_log` — one record per statement in one bounded
  log (``db.statements``) that every report and the advisor read, with
  one p95 regression detector;
* :mod:`repro.workloads` — TPC-H (22 queries) and TPC-DS-style (99
  queries) schemas, data generators, and query suites.

The harness regenerating the paper's Figs. 10-12 and Table 1 lives
outside the package, in ``benchmarks/paper.py``.

Quickstart::

    from repro import Database, DatabaseConfig
    from repro.workloads.tpch import load_tpch, tpch_query

    db = Database(DatabaseConfig(complex_query_threshold=3))
    load_tpch(db, scale=0.5)
    rows = db.execute(tpch_query(4))          # routed automatically
    print(db.explain(tpch_query(4), optimizer="orca"))
"""

from repro.database import Database, DatabaseConfig, StatementResult
from repro.errors import (
    DeadlineExceededError,
    GovernorError,
    ReproError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.governor import CancelToken, ExecutionGovernor
from repro.observability import MetricsRegistry, Span, Tracer
from repro.resilience import (
    CircuitBreaker,
    CompileBudget,
    FallbackLog,
    FallbackReason,
    FaultInjector,
    statement_fingerprint,
)

__version__ = "1.0.0"

__all__ = [
    "CancelToken",
    "CircuitBreaker",
    "CompileBudget",
    "Database",
    "DatabaseConfig",
    "DeadlineExceededError",
    "ExecutionGovernor",
    "FallbackLog",
    "FallbackReason",
    "FaultInjector",
    "GovernorError",
    "MetricsRegistry",
    "ReproError",
    "ResourceExhaustedError",
    "Span",
    "StatementCancelledError",
    "StatementResult",
    "Tracer",
    "statement_fingerprint",
    "__version__",
]
