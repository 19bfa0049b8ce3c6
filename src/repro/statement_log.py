"""One statement record, one bounded history, one regression detector.

Every statement the facade runs — a completed SELECT, a DML statement,
or an abort — becomes exactly one :class:`StatementRecord`, built once
by the Database and appended to its :class:`StatementLog`
(``db.statements``).  The log is the only owner of statement history;
every report is a view of it:

* the **ring** of recent records — ``db.flight_report()`` /
  ``flight_export()`` (the JSONL post-mortem), the slow-query log line;
* one **entry per fingerprint** (the literal-normalised
  :func:`repro.resilience.statement_fingerprint`, so ``WHERE x > 100``
  and ``> 250`` are one statement) — executions, latency quantiles,
  optimizer/executor-mode mix, plan-cache hits, fallbacks, aborts,
  Q-error breaches, the worst Q and its operator, the plan's column
  touches — read by ``workload_report()``, ``plan_quality_report()``,
  ``top_data()`` and the :class:`repro.workload.Advisor`;
* per-operator Q-error aggregates and per-column usage, workload-level
  and monotonic: they survive fingerprint eviction;
* whole-registry snapshots every :data:`SNAPSHOT_INTERVAL` records, so
  an export carries the counter trajectory, not only its endpoint.

SELECT completions and aborts fold into the fingerprint entries; DML
feeds only the ring.

**The detector.**  Each entry keeps its last ``2 × REGRESSION_WINDOW``
non-aborted execute latencies with their plan hashes.  Once both halves
are full, a trailing-window exact p95 above ``REGRESSION_FACTOR`` × the
prior window's records a :class:`PlanRegression` with the plan hash at
the end of each window — a plan flip (``from_hash != to_hash``) and a
same-plan slowdown (``from_hash == to_hash``) are one rule.  A
fingerprint is flagged once while its regression is unresolved;
resolving it (``advisor.apply``) clears the window, so the next verdict
rests on executions of the recompiled plan.

Sizes and thresholds are module constants, read when the log (or an
entry) is created; tests that need other values patch them.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import sys
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability import StreamingHistogram, interpolated_quantile

__all__ = [
    "PlanRegression",
    "StatementLog",
    "StatementRecord",
    "StatementStats",
    "exact_p95",
    "format_flight_report",
    "format_top_report",
]

#: Records the ring holds.
RING_CAPACITY = 512
#: Fingerprint entries kept (LRU beyond this).
FINGERPRINT_CAPACITY = 512
#: A whole-registry snapshot is taken every this many records ...
SNAPSHOT_INTERVAL = 64
#: ... into a ring of this many (each is a full counter dump).
SNAPSHOT_RING = 16
#: Executions per detector window; an entry keeps two windows.
REGRESSION_WINDOW = 4
#: Trailing-window p95 over prior-window p95 that flags a regression.
REGRESSION_FACTOR = 8.0


#: Records live in a 512-deep ring: without a per-instance ``__dict__``
#: each costs one object less (``slots`` needs Python 3.10).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class StatementRecord:
    """One statement's account, as recorded at completion or abort.

    ``plan_hash`` is set exactly for a completed SELECT; a DML record
    has none, an aborted one carries ``aborted`` and ``abort_reason``.
    """

    seq: int = 0
    statement_id: int = 0
    fingerprint: str = ""
    sql: str = ""
    #: The literal-preserving plan-cache key (SELECT completions).
    cache_key: Optional[str] = None
    optimizer: Optional[str] = None
    executor_mode: Optional[str] = None
    workers: int = 1
    plan_hash: Optional[str] = None
    plan_cache_hit: bool = False
    rows: int = 0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: Per-stage trace seconds; None when the statement ran untraced.
    stage_seconds: Optional[Dict[str, float]] = None
    root_q: Optional[float] = None
    max_q: Optional[float] = None
    worst_operator: Optional[str] = None
    #: ``max_q`` above the log's Q-error threshold.
    breached: bool = False
    #: Operator kind per plan node — a fact of the compiled plan, so
    #: every execution of one plan shares the tuple — and each node's
    #: Q-error in the same order.
    operators: Tuple[str, ...] = ()
    node_q: Tuple[float, ...] = ()
    #: The plan's deduplicated ``(table, column, kind)`` touches.
    touches: Tuple[Tuple[str, str, str], ...] = ()
    fallback_reason: Optional[str] = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    #: ``"Type: message"`` of the error a fallen-back detour contained
    #: or the statement aborted with.
    error: Optional[str] = None
    governor_checkpoints: Optional[int] = None
    governor_peak_bytes: Optional[int] = None
    low_memory_retry: bool = False
    #: Wall-clock timestamp (ISO 8601); informational only — every
    #: comparison in this module uses record order, never the clock.
    ts: str = ""

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.execute_seconds

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["total_seconds"] = self.total_seconds
        return out


@dataclass
class PlanRegression:
    """A fingerprint whose trailing-window p95 regressed."""

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


def exact_p95(values: List[float]) -> float:
    """Exact interpolated p95 over a small window."""
    return interpolated_quantile(sorted(values), 0.95)


class StatementStats:
    """Everything the log keeps about one statement fingerprint."""

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
        #: The latest execution's cache key, plan facts and per-node
        #: Q-errors.
        self.cache_key: Optional[str] = None
        self.touches: Tuple[Tuple[str, str, str], ...] = ()
        self.operators: Tuple[str, ...] = ()
        self.node_q: Tuple[float, ...] = ()
        self.plan_hash: Optional[str] = None
        self.plan_changes = 0
        self.regressions: List[PlanRegression] = []
        #: Estimate accuracy: worst-ever max Q (and the operator behind
        #: it), plus the latest execution's.
        self.max_q = 1.0
        self.worst_operator = ""
        self.last_q = 1.0
        self.last_root_q = 1.0
        self.last_optimizer = ""
        #: The detector's two windows: (execute seconds, plan hash).
        self.window: Deque[Tuple[float, str]] = deque(
            maxlen=2 * REGRESSION_WINDOW)

    @property
    def hit_ratio(self) -> float:
        if not self.executions:
            return 0.0
        return self.plan_cache_hits / self.executions

    @property
    def unresolved(self) -> bool:
        return any(not r.resolved for r in self.regressions)

    def to_dict(self) -> dict:
        """The workload view of the entry."""
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
            "regressions": [r.to_dict() for r in self.regressions],
            "columns": [list(touch) for touch in self.touches],
        }

    def quality_dict(self) -> dict:
        """The estimate-accuracy view of the entry."""
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sample_sql,
            "executions": self.executions,
            "breaches": self.breaches,
            "max_q": self.max_q,
            "last_q": self.last_q,
            "last_root_q": self.last_root_q,
            "worst_operator": self.worst_operator,
            "last_optimizer": self.last_optimizer,
        }


class StatementLog:
    """The ring of records plus the folds every report reads."""

    def __init__(self, q_threshold: float = 16.0, metrics=None) -> None:
        if q_threshold < 1.0:
            raise ValueError("q_threshold must be >= 1.0 (perfect)")
        if min(RING_CAPACITY, FINGERPRINT_CAPACITY, SNAPSHOT_INTERVAL,
               SNAPSHOT_RING, REGRESSION_WINDOW) < 1:
            raise ValueError("statement log sizes must be >= 1")
        if REGRESSION_FACTOR <= 1.0:
            raise ValueError("REGRESSION_FACTOR must be > 1.0")
        #: A completed SELECT whose worst per-node Q-error exceeds this
        #: is a *breach*.
        self.q_threshold = q_threshold
        self.metrics = metrics
        self.ring_capacity = RING_CAPACITY
        self.capacity = FINGERPRINT_CAPACITY
        self._records: Deque[StatementRecord] = deque(maxlen=RING_CAPACITY)
        self._snapshots: Deque[dict] = deque(maxlen=SNAPSHOT_RING)
        self._entries: "OrderedDict[str, StatementStats]" = OrderedDict()
        #: (table, column, kind) -> executions that touched it.
        self._column_usage: Dict[Tuple[str, str, str], int] = {}
        #: table -> [executions touching it, breaching executions].
        self._table_activity: Dict[str, List[int]] = {}
        #: operator kind -> observations / breaches / max_q.
        self._operators: Dict[str, Dict[str, float]] = {}
        #: Records ever appended (>= the ring size once it wraps).
        self.total = 0
        #: SELECT completions folded into the fingerprint entries.
        self.recorded = 0
        self.evictions = 0
        self.total_breaches = 0
        self.total_aborted = 0
        self.total_regressions = 0

    # -- recording ---------------------------------------------------------------

    def append(self, record: StatementRecord) -> StatementRecord:
        """Append one record, fold it, maybe snapshot the registry."""
        self.total += 1
        record.seq = self.total
        if not record.ts:
            record.ts = datetime.datetime.now().isoformat()
        self._records.append(record)
        if record.aborted:
            self._entry(record.fingerprint, record.sql).aborts += 1
            self.total_aborted += 1
        elif record.plan_hash is not None:
            self._fold(record)
        metrics = self.metrics
        if metrics is not None:
            metrics.inc("flight.records")
            if self.total % SNAPSHOT_INTERVAL == 0:
                self._snapshots.append({
                    "seq": self.total,
                    "ts": record.ts,
                    "registry": metrics.to_dict(),
                })
                metrics.inc("flight.snapshots")
        return record

    def _entry(self, fingerprint: str, sql: str) -> StatementStats:
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

    def _fold(self, record: StatementRecord) -> None:
        """Fold one completed SELECT into its entry and the aggregates."""
        entry = self._entry(record.fingerprint, record.sql)
        metrics = self.metrics
        entry.executions += 1
        entry.total_rows += record.rows
        entry.latency.observe(record.total_seconds)
        entry.optimizers[record.optimizer] = \
            entry.optimizers.get(record.optimizer, 0) + 1
        entry.modes[record.executor_mode] = \
            entry.modes.get(record.executor_mode, 0) + 1
        if record.plan_cache_hit:
            entry.plan_cache_hits += 1
        if record.fallback_reason is not None:
            entry.fallbacks += 1
        # Repeated executions bring equal but distinct values (a plan
        # recompiled per literal variant, the same key and Q-errors run
        # after run): the ring keeps the fingerprint's copy, not one per
        # record.
        for name in ("cache_key", "touches", "operators", "node_q"):
            if getattr(record, name) == getattr(entry, name):
                setattr(record, name, getattr(entry, name))
            else:
                setattr(entry, name, getattr(record, name))
        if entry.plan_hash is not None and entry.plan_hash != record.plan_hash:
            entry.plan_changes += 1
            if metrics is not None:
                metrics.inc("workload.plan_changes")
        entry.plan_hash = record.plan_hash
        entry.last_q = record.max_q
        entry.last_root_q = record.root_q
        entry.last_optimizer = record.optimizer
        if record.max_q > entry.max_q:
            entry.max_q = record.max_q
            entry.worst_operator = record.worst_operator
        for operator, q in zip(record.operators, record.node_q):
            stats = self._operators.get(operator)
            if stats is None:
                stats = {"observations": 0, "breaches": 0, "max_q": 1.0}
                self._operators[operator] = stats
            stats["observations"] += 1
            if q > stats["max_q"]:
                stats["max_q"] = q
            if q > self.q_threshold:
                stats["breaches"] += 1
        if record.breached:
            entry.breaches += 1
            self.total_breaches += 1
        # Column usage and per-table breach attribution: workload-level,
        # they survive entry eviction.
        tables = set()
        for touch in record.touches:
            self._column_usage[touch] = self._column_usage.get(touch, 0) + 1
            tables.add(touch[0])
        for table in tables:
            activity = self._table_activity.setdefault(table, [0, 0])
            activity[0] += 1
            if record.breached:
                activity[1] += 1
        self.recorded += 1
        if metrics is not None:
            metrics.inc("workload.recorded")
            metrics.inc("planq.statements")
            metrics.observe("planq.root_q", record.root_q)
            metrics.observe("planq.max_q", record.max_q)
            if record.breached:
                metrics.inc("planq.breaches")
        self._detect(entry, record)

    def _detect(self, entry: StatementStats,
                record: StatementRecord) -> None:
        """The regression rule (see the module docstring)."""
        window = entry.window
        window.append((record.execute_seconds, record.plan_hash))
        size = window.maxlen // 2
        if len(window) < 2 * size or entry.unresolved:
            return
        samples = list(window)
        before = exact_p95([seconds for seconds, __ in samples[:size]])
        after = exact_p95([seconds for seconds, __ in samples[size:]])
        if before <= 0.0 or after <= REGRESSION_FACTOR * before:
            return
        regression = PlanRegression(
            fingerprint=entry.fingerprint,
            from_hash=samples[size - 1][1],
            to_hash=samples[-1][1],
            before_p95=before,
            after_p95=after,
            factor=after / before,
        )
        entry.regressions.append(regression)
        self.total_regressions += 1
        if self.metrics is not None:
            self.metrics.inc("workload.plan_regressions")

    # -- the ring ----------------------------------------------------------------

    def records(self, limit: Optional[int] = None) -> List[StatementRecord]:
        """Most recent records, latest first."""
        out = list(self._records)
        out.reverse()
        return out if limit is None else out[:limit]

    @property
    def last(self) -> Optional[StatementRecord]:
        return self._records[-1] if self._records else None

    def snapshots(self) -> List[dict]:
        return list(self._snapshots)

    def report(self, limit: int = 20) -> dict:
        """JSON-ready flight report: ring stats + recent records."""
        return {
            "stats": {
                "capacity": self.ring_capacity,
                "size": len(self._records),
                "recorded": self.total,
                "snapshots": len(self._snapshots),
                "regression_window": REGRESSION_WINDOW,
                "regression_factor": REGRESSION_FACTOR,
            },
            "records": [r.to_dict() for r in self.records(limit)],
        }

    def export_jsonl(self, path: str) -> int:
        """Write the whole ring (oldest first) plus snapshots as JSONL;
        returns the number of lines written."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(json.dumps(
                    {"kind": "statement", **record.to_dict()},
                    default=str) + "\n")
                lines += 1
            for snapshot in self._snapshots:
                handle.write(json.dumps(
                    {"kind": "snapshot", **snapshot},
                    default=str) + "\n")
                lines += 1
        return lines

    # -- fingerprint entries -----------------------------------------------------

    @property
    def fingerprints(self) -> int:
        return len(self._entries)

    def entry(self, fingerprint: str) -> Optional[StatementStats]:
        return self._entries.get(fingerprint)

    def entries(self) -> List[StatementStats]:
        """Current entries, most-executed first (fingerprint tiebreak)."""
        return sorted(self._entries.values(),
                      key=lambda e: (-e.executions, e.fingerprint))

    def column_usage(self) -> List[dict]:
        """Per-column usage, heaviest first (then table/column/kind)."""
        ranked = sorted(self._column_usage.items(),
                        key=lambda item: (-item[1], item[0]))
        return [{"table": table, "column": column, "kind": kind,
                 "executions": count}
                for (table, column, kind), count in ranked]

    def usage_for(self, table: str, column: str) -> Dict[str, int]:
        """kind -> execution count for one column (empty when unseen)."""
        return {kind: count
                for (tab, col, kind), count in self._column_usage.items()
                if tab == table and col == column}

    def table_breach_rate(self, table: str) -> float:
        """Fraction of executions touching ``table`` that breached."""
        activity = self._table_activity.get(table)
        if not activity or not activity[0]:
            return 0.0
        return activity[1] / activity[0]

    def unresolved_regressions(self) -> List[PlanRegression]:
        """Flagged, not-yet-acted-on regressions (deterministic order)."""
        out = [r for entry in self._entries.values()
               for r in entry.regressions if not r.resolved]
        out.sort(key=lambda r: (-r.factor, r.fingerprint))
        return out

    def resolve_regressions(self, fingerprint: str) -> int:
        """Mark every regression of one fingerprint handled and restart
        its detector window."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            return 0
        pending = [r for r in entry.regressions if not r.resolved]
        for regression in pending:
            regression.resolved = True
        entry.window.clear()
        return len(pending)

    def worst_fingerprints(self, limit: int = 10) -> List[StatementStats]:
        """Executed entries ranked by worst-ever Q-error, descending."""
        ranked = sorted((e for e in self._entries.values() if e.executions),
                        key=lambda e: e.max_q, reverse=True)
        return ranked[:limit]

    def worst_operators(self, limit: int = 10) -> List[dict]:
        """Operator kinds ranked by worst observed Q-error."""
        ranked = sorted(self._operators.items(),
                        key=lambda item: item[1]["max_q"], reverse=True)
        return [{"operator": name, **stats}
                for name, stats in ranked[:limit]]

    # -- stats -------------------------------------------------------------------

    def workload_stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "evictions": self.evictions,
            "breaches": self.total_breaches,
            "plan_regressions": self.total_regressions,
            "tracked_columns": len(self._column_usage),
        }

    def quality_stats(self) -> dict:
        return {
            "size": sum(1 for e in self._entries.values() if e.executions),
            "capacity": self.capacity,
            "q_threshold": self.q_threshold,
            "evictions": self.evictions,
            "breaches": self.total_breaches,
            "aborted": self.total_aborted,
        }

    def snapshot(self, limit: int = 20) -> dict:
        """JSON-ready workload view: top statements + column usage."""
        return {
            "stats": self.workload_stats(),
            "statements": [entry.to_dict()
                           for entry in self.entries()[:limit]],
            "column_usage": self.column_usage()[:limit],
        }


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def _short_sql(sql: str, width: int = 48) -> str:
    flat = " ".join(sql.split())
    return flat if len(flat) <= width else flat[:width - 3] + "..."


def format_flight_report(payload: dict) -> str:
    """Render ``StatementLog.report()`` as plain text, latest first."""
    stats = payload["stats"]
    lines = ["Flight recorder", "=" * 15,
             f"records: {stats['size']}/{stats['capacity']} buffered "
             f"({stats['recorded']} recorded, "
             f"{stats['snapshots']} registry snapshots)"]
    records = payload["records"]
    if not records:
        lines.append("(no statements recorded)")
        return "\n".join(lines)
    lines.append(f"{'seq':>5}  {'total ms':>9}  {'exec ms':>8}  "
                 f"{'opt':<5} {'mode':<5} {'wrk':>3}  statement")
    for record in records:
        if record["aborted"]:
            status = f"ABORTED ({record['abort_reason']})"
        elif record["fallback_reason"]:
            status = f"fallback ({record['fallback_reason']})"
        else:
            status = ""
        suffix = f"  [{status}]" if status else ""
        lines.append(
            f"{record['seq']:>5}  "
            f"{record['total_seconds'] * 1000.0:>9.3f}  "
            f"{record['execute_seconds'] * 1000.0:>8.3f}  "
            f"{(record['optimizer'] or '-'):<5} "
            f"{(record['executor_mode'] or '-'):<5} "
            f"{record['workers']:>3}  "
            f"{_short_sql(record['sql'])}{suffix}")
    return "\n".join(lines)


def format_top_report(payload: dict) -> str:
    """Render ``db.top_data()`` as the live one-pager.

    Three sections mirroring an OS ``top``: in-flight statements (with
    elapsed seconds and last governor stage), the hottest statement
    fingerprints by recorded executions, and per-worker parallel
    utilization from the most recent parallel statement.
    """
    lines = ["engine top", "=" * 10,
             f"statements: {payload['statements_total']} total, "
             f"{payload['statements_aborted']} aborted, "
             f"{payload['active_count']} in flight"]
    active = payload["active"]
    lines.append("active statements:" if active
                 else "active statements: (none)")
    for item in active:
        stage = item.get("last_stage") or "-"
        lines.append(
            f"  #{item['statement_id']:<5} "
            f"{item['elapsed_seconds'] * 1000.0:>9.3f} ms  "
            f"stage {stage:<10} {_short_sql(item['sql'])}")
    hottest = payload["hottest"]
    lines.append("hottest fingerprints (by executions):" if hottest
                 else "hottest fingerprints: (none recorded)")
    for item in hottest:
        lines.append(
            f"  x{item['executions']:<6} "
            f"p95 {item['p95_seconds'] * 1000.0:>9.3f} ms  "
            f"{_short_sql(item['sql'])}")
    workers = payload["workers"]
    lines.append("parallel workers (last parallel statement):" if workers
                 else "parallel workers: (no parallel statement yet)")
    for item in workers:
        lines.append(
            f"  worker {item['worker']:<3} {item['morsels']:>5} morsels  "
            f"{item['rows']:>8} rows  "
            f"{item['seconds'] * 1000.0:>9.3f} ms busy")
    skew = payload.get("worker_skew")
    if skew:
        lines.append(
            f"  skew: min {skew['min_morsels']} / "
            f"max {skew['max_morsels']} / "
            f"stddev {skew['stddev_morsels']:.2f} morsels per worker")
    return "\n".join(lines)
