"""Plan-quality feedback: close the loop from estimates to actuals.

The paper copies Orca's cost and cardinality estimates into MySQL's
EXPLAIN (Section 6) and ships the histograms those estimates come from
(Section 5.5) — but never checks them against reality.  This module is
that check.  Every executed statement yields per-node ``(estimated,
actual)`` pairs from the always-on counters the executor maintains
(:attr:`repro.executor.plan.PlanNode.actual_rows`); here they become:

* **Q-error** per node — ``max(est/act, act/est)``, the standard
  multiplicative cardinality-accuracy measure (>= 1, 1 is perfect),
  with +1 smoothing applied to both sides when either is zero so
  empty results stay finite and symmetric;
* a per-statement :class:`StatementQuality` aggregate (root and max
  Q-error, the worst node and its operator kind);
* a per-table staleness estimate comparing live table cardinality with
  ANALYZE-time statistics, feeding a re-ANALYZE recommendation list.

These are pure functions.  The Database copies each execution's
snapshot into its statement record; the
:class:`repro.statement_log.StatementLog` keeps the per-fingerprint and
per-operator history (breaches, worst Q) that ``plan_quality_report()``
reads, and the ``execute`` span carries the per-statement figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "NodeQuality",
    "StatementQuality",
    "STALENESS_THRESHOLD",
    "TableStaleness",
    "format_plan_quality_report",
    "per_loop_q",
    "q_error",
    "stats_staleness",
    "statement_quality",
]


def q_error(estimated: float, actual: float) -> float:
    """The Q-error of one cardinality estimate.

    ``max(est/act, act/est)`` — always >= 1.0, with 1.0 meaning a
    perfect estimate.  When either side is zero the standard +1
    smoothing is applied to *both* (keeping the measure symmetric), so
    an estimate of 0 against an actual of 0 scores a perfect 1.0 and an
    estimate of 0 against an actual of 99 scores 100.  Negative inputs
    (never produced by the engine) clamp to zero.
    """
    est = float(estimated)
    act = float(actual)
    if est < 0.0:
        est = 0.0
    if act < 0.0:
        act = 0.0
    if est == 0.0 or act == 0.0:
        est += 1.0
        act += 1.0
    return est / act if est >= act else act / est


def per_loop_q(estimated: float, actual: float, loops: int) -> float:
    """Q-error of a per-loop estimate against accumulated actuals.

    The optimizer's ``rows`` is an estimate for *one* invocation of the
    node, but the always-on counters accumulate across every restart —
    the inner side of a nested-loop join rebinds once per outer row.
    Dividing the actual total by the loop count restores MySQL's
    ``(rows=N loops=M)`` semantics, so a perfectly-estimated lookup
    probed 1000 times still scores q = 1.  A node that never started
    (``loops == 0``) left its estimate untested and scores a neutral
    1.0.
    """
    if loops <= 0:
        return 1.0
    return q_error(estimated, actual / loops)


def operator_kind(node) -> str:
    """Stable operator-kind label for aggregation ("TableScan",
    "HashJoin", ...): the node class name without the Node suffix."""
    name = type(node).__name__
    return name[:-4] if name.endswith("Node") else name


@dataclass
class NodeQuality:
    """One plan node's estimated-vs-actual comparison."""

    operator: str
    label: str
    estimated: float
    actual: int
    #: How many times the node (re)started this execution; the Q-error
    #: compares ``estimated`` against ``actual / loops``.
    loops: int
    q: float


@dataclass
class StatementQuality:
    """Per-statement aggregate of every node's Q-error."""

    nodes: List[NodeQuality] = field(default_factory=list)
    #: Q-error of the top plan's root node (the statement's output
    #: cardinality estimate); 1.0 for plans without a node tree.
    root_q: float = 1.0
    #: Worst Q-error across all nodes (1.0 when there are none).
    max_q: float = 1.0
    #: The node behind ``max_q``; None for node-less plans.
    worst: Optional[NodeQuality] = None

    @property
    def worst_operator(self) -> str:
        return self.worst.operator if self.worst is not None else ""

    def to_dict(self) -> dict:
        return {
            "root_q": self.root_q,
            "max_q": self.max_q,
            "worst_operator": self.worst_operator,
            "nodes": [{
                "operator": n.operator,
                "label": n.label,
                "estimated": n.estimated,
                "actual": n.actual,
                "loops": n.loops,
                "q": n.q,
            } for n in self.nodes],
        }


def statement_quality(executor) -> StatementQuality:
    """Snapshot one executed statement's per-node quality.

    Reads the executor's always-on counters (valid until the next
    execution resets them) against each node's optimizer estimate.
    Values are copied out, so the snapshot survives plan-cache reuse of
    the executor.
    """
    quality = StatementQuality()
    top_root = executor.top_plan.root if executor.top_plan else None
    for node in executor.iter_plan_nodes():
        record = NodeQuality(
            operator=operator_kind(node),
            label=node.label(),
            estimated=float(node.rows),
            actual=node.actual_rows,
            loops=node.actual_loops,
            q=per_loop_q(node.rows, node.actual_rows, node.actual_loops),
        )
        quality.nodes.append(record)
        if record.q > quality.max_q or quality.worst is None:
            quality.max_q = record.q
            quality.worst = record
        if node is top_root:
            quality.root_q = record.q
    return quality


# ---------------------------------------------------------------------------
# Statistics staleness
# ---------------------------------------------------------------------------

#: Fractional live-vs-ANALYZE cardinality drift above which a table is
#: recommended for re-ANALYZE.
STALENESS_THRESHOLD = 0.2


@dataclass
class TableStaleness:
    """Live-vs-ANALYZE-time cardinality drift for one table."""

    table: str
    analyzed: bool
    stats_rows: int
    live_rows: int
    #: ``|live - stats| / max(1, stats)`` — 0.0 means statistics match
    #: the table exactly.
    staleness: float
    recommend_analyze: bool

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "analyzed": self.analyzed,
            "stats_rows": self.stats_rows,
            "live_rows": self.live_rows,
            "staleness": self.staleness,
            "recommend_analyze": self.recommend_analyze,
        }


def stats_staleness(catalog, storage,
                    threshold: Optional[float] = None
                    ) -> List[TableStaleness]:
    """Per-table staleness, worst first.

    A table earns a re-ANALYZE recommendation when it holds rows but was
    never analyzed, or when its live cardinality has drifted from
    the ANALYZE-time row count by more than ``threshold`` (fractional;
    :data:`STALENESS_THRESHOLD` by default).
    """
    if threshold is None:
        threshold = STALENESS_THRESHOLD
    report: List[TableStaleness] = []
    for schema in catalog.tables():
        statistics = catalog.statistics(schema.name)
        live = storage.store(schema.name).row_count
        known = statistics.row_count
        analyzed = statistics.analyzed
        if analyzed:
            staleness = abs(live - known) / max(1, known)
        else:
            # Unanalyzed statistics are all-default: fully stale as soon
            # as the table holds anything.
            staleness = 1.0 if live else 0.0
        report.append(TableStaleness(
            table=schema.name,
            analyzed=analyzed,
            stats_rows=known,
            live_rows=live,
            staleness=staleness,
            recommend_analyze=staleness > threshold,
        ))
    report.sort(key=lambda t: t.staleness, reverse=True)
    return report


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def format_plan_quality_report(payload: dict) -> str:
    """Render a :meth:`repro.database.Database.plan_quality_report`
    payload as plain text (same style as the other reports)."""
    ledger = payload["ledger"]
    lines = ["Plan quality", "=" * 12,
             f"statements recorded: {ledger['size']} "
             f"(threshold q > {ledger['q_threshold']:g})",
             f"breaches: {ledger['breaches']}"]
    worst = payload["worst_fingerprints"]
    lines.append("worst statements (by max q):"
                 if worst else "worst statements: (none recorded)")
    for entry in worst:
        sql = entry["sql"]
        if len(sql) > 60:
            sql = sql[:57] + "..."
        lines.append(
            f"  q={entry['max_q']:>8.2f} x{entry['executions']:<4} "
            f"{entry['worst_operator'] or '-':<12} {sql}")
    operators = payload["worst_operators"]
    if operators:
        lines.append("worst operators (by max q):")
        for op in operators:
            lines.append(
                f"  {op['operator']:<18} max q {op['max_q']:>8.2f}  "
                f"({op['breaches']}/{op['observations']} breaches)")
    lines.append("statistics staleness:")
    for table in payload["stats_staleness"]:
        flag = "  REANALYZE" if table["recommend_analyze"] else ""
        analyzed = "analyzed" if table["analyzed"] else "never analyzed"
        lines.append(
            f"  {table['table']:<16} stats {table['stats_rows']:>8} "
            f"live {table['live_rows']:>8}  "
            f"drift {100.0 * table['staleness']:>6.1f}%  "
            f"({analyzed}){flag}")
    recommended = payload["reanalyze_recommendations"]
    lines.append(f"re-ANALYZE recommended: "
                 f"{', '.join(recommended) if recommended else '(none)'}")
    return "\n".join(lines)
