"""Workload intelligence: plan facts and an advisor.

The paper's integration ships against live customer workloads, where
tuning decisions come from *workload-level* evidence — which statement
shapes dominate, which columns they filter and join on, which tables'
statistics have drifted — not from any single statement trace.  "Query
Optimization in the Wild" names this feedback layer as the dominant
industrial trend on top of classical optimizers.  This module is that
layer for the repro engine; the history it reads is the
:class:`repro.statement_log.StatementLog`:

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
* :class:`Advisor` — turns the statement log plus the existing
  staleness and cost-model machinery into ranked, machine-readable
  :class:`Recommendation` objects: re-ANALYZE scheduling, index
  candidates (benefit-estimated with a what-if probe of the MySQL cost
  model), and plan-cache hygiene for flagged p95 regressions.  The
  ranking is deterministic: the same history always produces
  byte-identical recommendations.

The Database facade owns one advisor and surfaces it through
``db.workload_report()``; nothing applies its advice but an explicit
``db.advisor.apply()`` (the drift scenario, ``tests/drift.py``, calls
it for re-ANALYZE and plan-regression advice).  Every threshold here is
a module constant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.mysql_optimizer.cost import MySQLCostModel
from repro.plan_quality import stats_staleness
from repro.sql import ast
from repro.sql.blocks import EntryKind

__all__ = [
    "Advisor",
    "Recommendation",
    "compute_plan_hash",
    "extract_column_touches",
    "format_workload_report",
]

#: Minimum predicate/join executions on an unindexed column before the
#: advisor emits an index recommendation.
INDEX_MIN_USAGE = 8


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
    the same log/catalog/storage state always yields the same
    (byte-identical) list.  :meth:`apply` is the opt-in mutation path —
    it runs ANALYZE for ``reanalyze`` advice and purges cached plans
    for ``plan_regression`` advice; ``index`` advice stays advisory
    (the engine has no online index build).
    """

    def __init__(self, statements, catalog, storage, plan_cache,
                 metrics=None) -> None:
        #: The :class:`repro.statement_log.StatementLog` advice reads.
        self.statements = statements
        self.catalog = catalog
        self.storage = storage
        self.plan_cache = plan_cache
        self.metrics = metrics
        self.cost_model = MySQLCostModel()
        self.applied_total = 0

    # -- recommendation producers ----------------------------------------------

    def _reanalyze(self) -> List[Recommendation]:
        out: List[Recommendation] = []
        for table in stats_staleness(self.catalog, self.storage):
            if not table.recommend_analyze:
                continue
            breach_rate = self.statements.table_breach_rate(table.table)
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
        # Aggregate predicate+join pressure per (table, column).
        pressure: Dict[Tuple[str, str], int] = {}
        for item in self.statements.column_usage():
            if item["kind"] not in ("predicate", "join"):
                continue
            key = (item["table"], item["column"])
            pressure[key] = pressure.get(key, 0) + item["executions"]
        out: List[Recommendation] = []
        for (table, column), usage in sorted(pressure.items()):
            if usage < INDEX_MIN_USAGE:
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
            kinds = self.statements.usage_for(table, column)
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
        for regression in self.statements.unresolved_regressions():
            if regression.from_hash != regression.to_hash:
                plan = (f"plan changed {regression.from_hash} -> "
                        f"{regression.to_hash}")
            else:
                plan = f"plan {regression.to_hash} unchanged"
            out.append(Recommendation(
                kind="plan_regression",
                target=regression.fingerprint,
                score=regression.factor,
                reason=(f"{plan} and p95 latency rose "
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
        reference it recompile against the fresh statistics.
        ``plan_regression`` purges the fingerprint's cached plans and
        resolves the regression, restarting its detector window.  ``index`` advice is never auto-applied.
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
                self.statements.resolve_regressions(rec.target)
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
