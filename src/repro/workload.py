"""Workload intelligence: statement history, column usage, an advisor.

The paper's integration ships against live customer workloads, where
tuning decisions come from *workload-level* evidence — which statement
shapes dominate, which columns they filter and join on, which tables'
statistics have drifted — not from any single statement trace.  "Query
Optimization in the Wild" names this feedback layer as the dominant
industrial trend on top of classical optimizers.  This module is that
layer for the repro engine, built on the observability stack the
earlier PRs seeded (spans, :class:`repro.observability.MetricsRegistry`,
the misestimation ledger):

* :func:`compute_plan_hash` — a literal-free digest of a statement's
  executable plan *shape* (operators, join order, access paths,
  aggregation strategy).  Statements sharing a resilience fingerprint
  but differing only in literals share a hash; a genuine shape change
  (scan → index lookup, join reorder, hash → nested loop) changes it.
* :func:`extract_column_touches` — per-statement ``(table, column,
  kind)`` usage facts pulled from the executable plan, with kinds
  ``predicate`` / ``join`` / ``group`` / ``sort``.  Both optimizers
  refine into the same plan-node vocabulary, so the extraction is
  routing-agnostic.
* :class:`WorkloadRepository` — a bounded LRU keyed by the
  literal-normalised statement fingerprint, aggregating executions,
  latency quantiles (seeded reservoir histograms, so reports are
  reproducible), rows, optimizer/executor-mode mix, plan-cache hits,
  Q-error breaches, fallbacks and aborts, and a per-fingerprint plan
  hash.  A plan-hash change followed by a sustained p95 latency
  increase is flagged as a **plan regression**.
* :class:`Advisor` — turns the repository plus the existing staleness
  and cost-model machinery into ranked, machine-readable
  :class:`Recommendation` objects: re-ANALYZE scheduling, index
  candidates (benefit-estimated with a what-if probe of the MySQL cost
  model), and plan-cache hygiene for confirmed regressions.  The
  ranking is deterministic: the same history always produces
  byte-identical recommendations.

The Database facade owns one repository and one advisor, records every
completed statement (see ``workload_tracking_enabled``), surfaces the
whole thing through ``db.workload_report()``, and — when
``advisor_auto_analyze`` is on — applies pending re-ANALYZE
recommendations every ``advisor_interval_statements`` statements.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mysql_optimizer.cost import MySQLCostModel
from repro.observability import StreamingHistogram
from repro.plan_quality import stats_staleness
from repro.sql import ast
from repro.sql.blocks import EntryKind

__all__ = [
    "Advisor",
    "PlanRegression",
    "Recommendation",
    "StatementStats",
    "WorkloadRepository",
    "compute_plan_hash",
    "extract_column_touches",
    "format_workload_report",
]

#: How many closed plan phases one statement keeps for regression
#: context; older phases age out silently.
MAX_PHASES = 4


# ---------------------------------------------------------------------------
# Plan shape hashing
# ---------------------------------------------------------------------------

def compute_plan_hash(executor) -> str:
    """A 12-hex digest of the executable plan's *shape*.

    Tokens are emitted in the deterministic pre-order
    :meth:`repro.executor.executor.Executor.iter_plan_nodes` traversal
    and deliberately exclude anything literal- or estimate-derived:
    node class, table alias, index name, aggregation strategy, and
    child count.  Two literal variants of one statement shape therefore
    hash identically, while a join reorder, an access-path switch, or a
    hash-to-nested-loop change produces a new hash — exactly the
    changes the plan-regression detector should react to.
    """
    tokens: List[str] = []
    for node in executor.iter_plan_nodes():
        alias = getattr(node, "alias", "") or ""
        index_name = getattr(node, "index_name", "") or ""
        strategy = getattr(node, "strategy", "")
        strategy = getattr(strategy, "value", strategy) or ""
        tokens.append(f"{type(node).__name__}/{alias}/{index_name}/"
                      f"{strategy}/{len(node.children())}")
    digest = hashlib.sha1("|".join(tokens).encode("utf-8"))
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Column-touch extraction
# ---------------------------------------------------------------------------

def _resolve_ref(context, ref: ast.ColumnRef
                 ) -> Optional[Tuple[str, str]]:
    """``(table, column)`` for a resolved base-table column ref.

    Only :data:`~repro.sql.blocks.EntryKind.BASE` entries count —
    derived tables, CTEs, and plan pseudo entries have no catalog
    identity for the advisor to act on.
    """
    if ref.entry_id is None:
        return None
    try:
        entry = context.entry(ref.entry_id)
    except Exception:
        return None
    if entry.kind is not EntryKind.BASE or entry.table_schema is None:
        return None
    position = ref.position
    if position is not None and 0 <= position < len(entry.columns):
        column = entry.columns[position].name
    else:
        column = ref.column
    return entry.table_schema.name, column


def extract_column_touches(executor) -> Tuple[Tuple[str, str, str], ...]:
    """Deduplicated, sorted ``(table, column, kind)`` touches of a plan.

    Walks every plan node's :meth:`touch_exprs` hook and resolves each
    :class:`~repro.sql.ast.ColumnRef` through the statement context.  A
    ``join``-kind conjunct is downgraded to ``predicate`` when its
    columns all come from one table entry *and* the expression carries a
    literal — that is a pushed single-table filter riding in a join's
    conjunct list, not a join key (bare key expressions, which reference
    one side by construction, carry no literal and stay ``join``).  An
    index lookup additionally touches the probed index's own key
    columns on the inner table.

    The result is computed once per compiled plan (the Database caches
    it on the executor, which the plan cache shares across executions),
    so the per-execution cost of usage tracking is a set union.
    """
    touches = set()
    context = executor.context
    for node in executor.iter_plan_nodes():
        for kind, expr in node.touch_exprs():
            refs = [sub for sub in expr.walk()
                    if isinstance(sub, ast.ColumnRef)]
            resolved = [_resolve_ref(context, ref) for ref in refs]
            resolved = [pair for pair in resolved if pair is not None]
            if not resolved:
                continue
            if kind == "join":
                tables = {table for table, __ in resolved}
                has_literal = any(isinstance(sub, ast.Literal)
                                  for sub in expr.walk())
                if len(tables) < 2 and has_literal:
                    kind = "predicate"
            for table, column in resolved:
                touches.add((table, column, kind))
        index_name = getattr(node, "index_name", None)
        entry_id = getattr(node, "entry_id", None)
        if index_name is None or entry_id is None:
            continue
        try:
            entry = context.entry(entry_id)
        except Exception:
            continue
        if entry.kind is not EntryKind.BASE or entry.table_schema is None:
            continue
        for index in entry.table_schema.indexes:
            if index.name != index_name:
                continue
            node_kind = type(node).__name__
            key_kind = "join" if node_kind == "IndexLookupNode" \
                else "predicate"
            for column in index.column_names:
                touches.add((entry.table_schema.name, column, key_kind))
    return tuple(sorted(touches))


# ---------------------------------------------------------------------------
# The workload repository
# ---------------------------------------------------------------------------

@dataclass
class PlanPhase:
    """One contiguous run of executions under a single plan shape."""

    plan_hash: str
    executions: int = 0
    latency: StreamingHistogram = field(
        default_factory=StreamingHistogram)
    #: Set once the regression check for this phase has run (pass or
    #: fail), so one hash change yields at most one regression flag.
    checked: bool = False

    def to_dict(self) -> dict:
        return {
            "plan_hash": self.plan_hash,
            "executions": self.executions,
            "p50_seconds": self.latency.quantile(0.50),
            "p95_seconds": self.latency.quantile(0.95),
        }


@dataclass
class PlanRegression:
    """A confirmed *plan change + p95 latency regression* for one shape."""

    fingerprint: str
    from_hash: str
    to_hash: str
    before_p95: float
    after_p95: float
    factor: float
    resolved: bool = False

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "from_hash": self.from_hash,
            "to_hash": self.to_hash,
            "before_p95_seconds": self.before_p95,
            "after_p95_seconds": self.after_p95,
            "factor": self.factor,
            "resolved": self.resolved,
        }


class StatementStats:
    """Aggregate history of one statement fingerprint."""

    def __init__(self, fingerprint: str, sql: str) -> None:
        self.fingerprint = fingerprint
        #: One representative SQL text (the first literal variant seen).
        self.sample_sql = sql
        self.executions = 0
        self.total_rows = 0
        self.aborts = 0
        self.fallbacks = 0
        self.breaches = 0
        self.plan_cache_hits = 0
        self.latency = StreamingHistogram()
        self.optimizers: Dict[str, int] = {}
        self.modes: Dict[str, int] = {}
        self.touches: Tuple[Tuple[str, str, str], ...] = ()
        #: The live phase (current plan shape) plus bounded history.
        self.phase: Optional[PlanPhase] = None
        self.past_phases: List[PlanPhase] = []
        self.plan_changes = 0
        self.regressions: List[PlanRegression] = []

    @property
    def plan_hash(self) -> Optional[str]:
        return self.phase.plan_hash if self.phase is not None else None

    @property
    def hit_ratio(self) -> float:
        if not self.executions:
            return 0.0
        return self.plan_cache_hits / self.executions

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sample_sql,
            "executions": self.executions,
            "rows": self.total_rows,
            "aborts": self.aborts,
            "fallbacks": self.fallbacks,
            "breaches": self.breaches,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_hit_ratio": self.hit_ratio,
            "latency": self.latency.summary(),
            "optimizers": dict(sorted(self.optimizers.items())),
            "executor_modes": dict(sorted(self.modes.items())),
            "plan_hash": self.plan_hash,
            "plan_changes": self.plan_changes,
            "phases": [phase.to_dict() for phase in
                       (self.past_phases + ([self.phase]
                                            if self.phase else []))],
            "regressions": [r.to_dict() for r in self.regressions],
            "columns": [list(touch) for touch in self.touches],
        }


class WorkloadRepository:
    """Bounded LRU of per-fingerprint statement history + column usage.

    Keyed by the literal-normalised resilience fingerprint (unlike the
    plan cache's literal-preserving key): the repository answers
    workload-shape questions, so ``WHERE o_totalprice > 100`` and
    ``> 250`` are one statement.  Column-usage and per-table breach
    aggregates are workload-level and monotonic — they survive entry
    eviction, so a heavily-touched column keeps its evidence even under
    fingerprint churn.

    Plan-regression rule: when an execution arrives under a new plan
    hash the current phase closes and a new one opens; once both the
    closed phase and the new phase hold at least ``regression_min_samples``
    latency samples, the new phase's p95 is checked once against the old
    — exceeding ``regression_factor`` × the old p95 flags a
    :class:`PlanRegression` (which the advisor turns into a plan-cache
    invalidation).
    """

    def __init__(self, capacity: int = 512,
                 regression_factor: float = 1.5,
                 regression_min_samples: int = 3,
                 metrics=None) -> None:
        if capacity < 1:
            raise ValueError("workload repository capacity must be >= 1")
        if regression_factor <= 1.0:
            raise ValueError("regression_factor must be > 1.0")
        if regression_min_samples < 1:
            raise ValueError("regression_min_samples must be >= 1")
        self.capacity = capacity
        self.regression_factor = regression_factor
        self.regression_min_samples = regression_min_samples
        self.metrics = metrics
        self._entries: "OrderedDict[str, StatementStats]" = OrderedDict()
        #: (table, column, kind) -> executions that touched it.
        self._column_usage: Dict[Tuple[str, str, str], int] = {}
        #: table -> [executions touching it, breaching executions].
        self._table_activity: Dict[str, List[int]] = {}
        self.recorded = 0
        self.evictions = 0
        self.total_breaches = 0
        self.total_regressions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, fingerprint: str) -> Optional[StatementStats]:
        return self._entries.get(fingerprint)

    def entries(self) -> List[StatementStats]:
        """Current entries, most-executed first (fingerprint tiebreak)."""
        return sorted(self._entries.values(),
                      key=lambda e: (-e.executions, e.fingerprint))

    def _get_or_create(self, fingerprint: str, sql: str) -> StatementStats:
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = StatementStats(fingerprint, sql)
            self._entries[fingerprint] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if self.metrics is not None:
                    self.metrics.inc("workload.evictions")
        else:
            self._entries.move_to_end(fingerprint)
        return entry

    def record(self, fingerprint: str, sql: str, plan_hash: str,
               touches: Tuple[Tuple[str, str, str], ...],
               latency_seconds: float, rows: int, optimizer_used: str,
               executor_mode: str, plan_cache_hit: bool,
               breached: bool, fallback: bool
               ) -> Tuple[StatementStats, Optional[PlanRegression]]:
        """Fold one completed execution in.

        Returns ``(entry, regression)`` where ``regression`` is the
        freshly-confirmed :class:`PlanRegression` (at most one per plan
        change) or None.
        """
        entry = self._get_or_create(fingerprint, sql)
        entry.executions += 1
        entry.total_rows += rows
        entry.latency.observe(latency_seconds)
        entry.optimizers[optimizer_used] = \
            entry.optimizers.get(optimizer_used, 0) + 1
        entry.modes[executor_mode] = entry.modes.get(executor_mode, 0) + 1
        if plan_cache_hit:
            entry.plan_cache_hits += 1
        if breached:
            entry.breaches += 1
            self.total_breaches += 1
        if fallback:
            entry.fallbacks += 1
        entry.touches = touches
        self.recorded += 1
        if self.metrics is not None:
            self.metrics.inc("workload.recorded")
        # Column usage and per-table breach attribution (workload-level,
        # survives entry eviction).
        tables = set()
        for table, column, kind in touches:
            key = (table, column, kind)
            self._column_usage[key] = self._column_usage.get(key, 0) + 1
            tables.add(table)
        for table in sorted(tables):
            activity = self._table_activity.setdefault(table, [0, 0])
            activity[0] += 1
            if breached:
                activity[1] += 1
        regression = self._fold_phase(entry, plan_hash, latency_seconds)
        return entry, regression

    def _fold_phase(self, entry: StatementStats, plan_hash: str,
                    latency_seconds: float) -> Optional[PlanRegression]:
        if entry.phase is None:
            entry.phase = PlanPhase(plan_hash)
        elif entry.phase.plan_hash != plan_hash:
            entry.past_phases.append(entry.phase)
            del entry.past_phases[:-MAX_PHASES]
            entry.phase = PlanPhase(plan_hash)
            entry.plan_changes += 1
            if self.metrics is not None:
                self.metrics.inc("workload.plan_changes")
        phase = entry.phase
        phase.executions += 1
        phase.latency.observe(latency_seconds)
        if phase.checked or not entry.past_phases:
            return None
        previous = entry.past_phases[-1]
        if previous.executions < self.regression_min_samples \
                or phase.executions < self.regression_min_samples:
            return None
        phase.checked = True
        before = previous.latency.quantile(0.95)
        after = phase.latency.quantile(0.95)
        if before <= 0.0 or after <= self.regression_factor * before:
            return None
        regression = PlanRegression(
            fingerprint=entry.fingerprint,
            from_hash=previous.plan_hash,
            to_hash=phase.plan_hash,
            before_p95=before,
            after_p95=after,
            factor=after / before,
        )
        entry.regressions.append(regression)
        self.total_regressions += 1
        if self.metrics is not None:
            self.metrics.inc("workload.plan_regressions")
        return regression

    def record_abort(self, fingerprint: str, sql: str) -> None:
        """Count an aborted execution (no latency, rows, or phase data —
        an abort produces none worth trusting)."""
        entry = self._get_or_create(fingerprint, sql)
        entry.aborts += 1

    def note_external_regression(self, fingerprint: str, sql: str,
                                 before_p95: float, after_p95: float,
                                 plan_hash: Optional[str] = None
                                 ) -> Optional[PlanRegression]:
        """Record a regression confirmed by an *external* detector.

        The flight recorder's watchdog compares trailing execution
        windows rather than plan phases, so it catches same-plan
        slowdowns (data growth, stats drift) the phase-based rule never
        sees.  Its finding enters here as a :class:`PlanRegression`
        with ``from_hash == to_hash`` — the advisor then surfaces and
        remediates it through the exact same ``plan_regression`` path.
        Deduped: while an unresolved regression with the same target
        hash exists for the fingerprint, repeated findings are dropped
        (returns None).
        """
        entry = self._get_or_create(fingerprint, sql)
        hash_text = plan_hash or (entry.plan_hash or "")
        for existing in entry.regressions:
            if not existing.resolved and existing.to_hash == hash_text:
                return None
        regression = PlanRegression(
            fingerprint=fingerprint,
            from_hash=hash_text,
            to_hash=hash_text,
            before_p95=before_p95,
            after_p95=after_p95,
            factor=after_p95 / before_p95 if before_p95 > 0.0 else 0.0,
        )
        entry.regressions.append(regression)
        self.total_regressions += 1
        if self.metrics is not None:
            self.metrics.inc("workload.plan_regressions")
        return regression

    # -- aggregates --------------------------------------------------------------

    def column_usage(self) -> List[dict]:
        """Per-column usage, heaviest first (then table/column/kind)."""
        ranked = sorted(self._column_usage.items(),
                        key=lambda item: (-item[1], item[0]))
        return [{"table": table, "column": column, "kind": kind,
                 "executions": count}
                for (table, column, kind), count in ranked]

    def usage_for(self, table: str, column: str) -> Dict[str, int]:
        """kind -> execution count for one column (empty when unseen)."""
        out: Dict[str, int] = {}
        for (tab, col, kind), count in self._column_usage.items():
            if tab == table and col == column:
                out[kind] = count
        return out

    def table_breach_rate(self, table: str) -> float:
        """Fraction of executions touching ``table`` that breached."""
        activity = self._table_activity.get(table)
        if not activity or not activity[0]:
            return 0.0
        return activity[1] / activity[0]

    def unresolved_regressions(self) -> List[PlanRegression]:
        """Confirmed, not-yet-acted-on regressions (deterministic order)."""
        out = [r for entry in self._entries.values()
               for r in entry.regressions if not r.resolved]
        out.sort(key=lambda r: (-r.factor, r.fingerprint))
        return out

    def resolve_regressions(self, fingerprint: str) -> int:
        """Mark every regression of one fingerprint handled."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return 0
        pending = [r for r in entry.regressions if not r.resolved]
        for regression in pending:
            regression.resolved = True
        return len(pending)

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "evictions": self.evictions,
            "breaches": self.total_breaches,
            "plan_regressions": self.total_regressions,
            "tracked_columns": len(self._column_usage),
        }

    def snapshot(self, limit: int = 20) -> dict:
        """JSON-ready repository dump: top statements + column usage."""
        return {
            "stats": self.stats(),
            "statements": [entry.to_dict()
                           for entry in self.entries()[:limit]],
            "column_usage": self.column_usage()[:limit],
        }


# ---------------------------------------------------------------------------
# The advisor
# ---------------------------------------------------------------------------

@dataclass
class Recommendation:
    """One ranked, machine-readable piece of advice.

    ``kind`` is one of ``reanalyze`` (run ANALYZE on ``target`` table),
    ``index`` (create an index on ``target`` = ``table.column``), or
    ``plan_regression`` (invalidate the cached plans of ``target``
    fingerprint).  Higher ``score`` ranks earlier; the score scales are
    kind-local (staleness-weighted breach pressure, estimated cost
    saving, p95 regression factor) — the ordering within a kind is the
    actionable part.
    """

    kind: str
    target: str
    score: float
    reason: str
    details: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "score": self.score,
            "reason": self.reason,
            "details": dict(self.details),
        }


class Advisor:
    """Turns workload history into ranked recommendations.

    Reads are pure: :meth:`recommendations` never mutates anything, and
    the same repository/catalog/storage state always yields the same
    (byte-identical) list.  :meth:`apply` is the opt-in mutation path —
    it runs ANALYZE for ``reanalyze`` advice and purges cached plans
    for ``plan_regression`` advice; ``index`` advice stays advisory
    (the engine has no online index build).
    """

    def __init__(self, repository: WorkloadRepository, catalog, storage,
                 plan_cache, config, metrics=None) -> None:
        self.repository = repository
        self.catalog = catalog
        self.storage = storage
        self.plan_cache = plan_cache
        #: The DatabaseConfig (read live, so knob changes apply).
        self.config = config
        self.metrics = metrics
        self.cost_model = MySQLCostModel()
        self.applied_total = 0

    # -- recommendation producers ----------------------------------------------

    def _reanalyze(self) -> List[Recommendation]:
        threshold = self.config.planq_stats_staleness_threshold
        out: List[Recommendation] = []
        for table in stats_staleness(self.catalog, self.storage,
                                     threshold=threshold):
            if not table.recommend_analyze:
                continue
            breach_rate = self.repository.table_breach_rate(table.table)
            score = table.staleness * (1.0 + breach_rate)
            out.append(Recommendation(
                kind="reanalyze",
                target=table.table,
                score=score,
                reason=(f"statistics drift {100.0 * table.staleness:.0f}% "
                        f"({table.stats_rows} analyzed vs "
                        f"{table.live_rows} live rows), "
                        f"{100.0 * breach_rate:.0f}% of touching "
                        f"executions breached"),
                details={
                    "staleness": table.staleness,
                    "stats_rows": table.stats_rows,
                    "live_rows": table.live_rows,
                    "analyzed": table.analyzed,
                    "breach_rate": breach_rate,
                },
            ))
        return out

    def _what_if_index(self, table: str, column: str,
                       usage: int) -> Optional[dict]:
        """Estimated saving of an index on ``(table, column)``.

        The probe reuses the existing MySQL cost model: today every
        execution filtering on the column pays a full table scan; with
        the index it would pay one B-tree lookup returning ``rows /
        NDV`` matches.  Live table cardinality (not possibly-stale
        statistics) sizes the scan, so fast-growing tables rank
        realistically.
        """
        rows = float(self.storage.store(table).row_count)
        if rows <= 0:
            return None
        ndv = self.catalog.statistics(table).ndv(column)
        matched = rows / max(1.0, ndv)
        scan_cost = self.cost_model.table_scan_cost(rows)
        lookup_cost = self.cost_model.index_lookup_cost(matched)
        saving = scan_cost - lookup_cost
        if saving <= 0.0:
            return None
        return {
            "rows": int(rows),
            "ndv": ndv,
            "matched_rows": matched,
            "table_scan_cost": scan_cost,
            "index_lookup_cost": lookup_cost,
            "saving_per_statement": saving,
            "executions": usage,
        }

    def _indexes(self) -> List[Recommendation]:
        min_usage = self.config.workload_index_min_usage
        # Aggregate predicate+join pressure per (table, column).
        pressure: Dict[Tuple[str, str], int] = {}
        for item in self.repository.column_usage():
            if item["kind"] not in ("predicate", "join"):
                continue
            key = (item["table"], item["column"])
            pressure[key] = pressure.get(key, 0) + item["executions"]
        out: List[Recommendation] = []
        for (table, column), usage in sorted(pressure.items()):
            if usage < min_usage:
                continue
            try:
                schema = self.catalog.table(table)
            except Exception:
                continue  # dropped since the touches were recorded
            if not schema.has_column(column):
                continue
            if schema.indexes_on_prefix(column):
                continue  # already indexed with this leading column
            probe = self._what_if_index(table, column, usage)
            if probe is None:
                continue
            kinds = self.repository.usage_for(table, column)
            out.append(Recommendation(
                kind="index",
                target=f"{table}.{column}",
                score=probe["saving_per_statement"] * usage,
                reason=(f"{usage} executions filter or join on an "
                        f"unindexed column; estimated cost "
                        f"{probe['table_scan_cost']:.0f} -> "
                        f"{probe['index_lookup_cost']:.0f} per access"),
                details={**probe, "usage_by_kind": kinds},
            ))
        return out

    def _plan_regressions(self) -> List[Recommendation]:
        out: List[Recommendation] = []
        for regression in self.repository.unresolved_regressions():
            out.append(Recommendation(
                kind="plan_regression",
                target=regression.fingerprint,
                score=regression.factor,
                reason=(f"plan changed "
                        f"{regression.from_hash} -> {regression.to_hash} "
                        f"and p95 latency rose "
                        f"{regression.factor:.1f}x "
                        f"({regression.before_p95:.6f}s -> "
                        f"{regression.after_p95:.6f}s)"),
                details=regression.to_dict(),
            ))
        return out

    def recommendations(self) -> List[Recommendation]:
        """All current advice, best-first (score desc, kind, target)."""
        out = self._reanalyze() + self._indexes() + \
            self._plan_regressions()
        out.sort(key=lambda r: (-r.score, r.kind, r.target))
        if self.metrics is not None:
            self.metrics.set_gauge("advisor.recommendations", len(out))
        return out

    # -- the apply hook ----------------------------------------------------------

    def apply(self, recommendations: Optional[List[Recommendation]] = None,
              kinds: Tuple[str, ...] = ("reanalyze", "plan_regression"),
              ) -> List[dict]:
        """Apply actionable advice; returns one action record each.

        ``reanalyze`` runs ANALYZE (with histograms) on the table —
        which advances its catalog epoch, so the cached plans that
        reference it recompile against the fresh statistics.  ``plan_regression``
        purges the fingerprint's cached plans and marks the regression
        handled.  ``index`` advice is never auto-applied.
        """
        if recommendations is None:
            recommendations = self.recommendations()
        actions: List[dict] = []
        for rec in recommendations:
            if rec.kind not in kinds:
                continue
            if rec.kind == "reanalyze":
                self.storage.analyze_table(rec.target)
                action = "analyzed"
            elif rec.kind == "plan_regression":
                dropped = self.plan_cache.invalidate_fingerprint(
                    rec.target)
                self.repository.resolve_regressions(rec.target)
                action = f"invalidated {dropped} cached plans"
            else:
                continue
            self.applied_total += 1
            if self.metrics is not None:
                self.metrics.inc(f"advisor.applied.{rec.kind}")
            actions.append({"kind": rec.kind, "target": rec.target,
                            "action": action, "score": rec.score})
        return actions


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def format_workload_report(payload: dict) -> str:
    """Render a :meth:`repro.database.Database.workload_report` payload
    as plain text (same style as the other reports)."""
    stats = payload["repository"]["stats"]
    lines = ["Workload intelligence", "=" * 21,
             f"fingerprints tracked: {stats['size']}/{stats['capacity']} "
             f"({stats['recorded']} executions recorded, "
             f"{stats['evictions']} evicted)",
             f"breaches: {stats['breaches']}   "
             f"plan regressions: {stats['plan_regressions']}   "
             f"columns tracked: {stats['tracked_columns']}"]
    statements = payload["repository"]["statements"]
    lines.append("top statements (by executions):"
                 if statements else "top statements: (none recorded)")
    for entry in statements[:10]:
        sql = " ".join(entry["sql"].split())
        if len(sql) > 46:
            sql = sql[:43] + "..."
        latency = entry["latency"]
        flags = ""
        if entry["regressions"]:
            flags += "  REGRESSED"
        lines.append(
            f"  x{entry['executions']:<5} "
            f"p95 {latency['p95']:.6f}s  "
            f"hit {100.0 * entry['plan_cache_hit_ratio']:>3.0f}%  "
            f"plan {entry['plan_hash'] or '-':<12} {sql}{flags}")
    usage = payload["repository"]["column_usage"]
    if usage:
        lines.append("hottest columns (table.column kind x executions):")
        for item in usage[:10]:
            name = f"{item['table']}.{item['column']}"
            lines.append(f"  {name:<28} "
                         f"{item['kind']:<10} x{item['executions']}")
    recommendations = payload["recommendations"]
    lines.append(f"recommendations ({len(recommendations)}):"
                 if recommendations else "recommendations: (none)")
    for rec in recommendations:
        lines.append(f"  [{rec['kind']}] {rec['target']} "
                     f"(score {rec['score']:.2f}) — {rec['reason']}")
    return "\n".join(lines)
