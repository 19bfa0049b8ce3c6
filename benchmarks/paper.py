"""The paper's harness: runs a suite under both optimizers, times the
compile-only passes of Table 1, and formats Figs. 10-12 and Table 1.

Mirrors the paper's experimental procedure (Section 6): each query runs
with the plan chosen by the MySQL optimizer and with the plan chosen by
Orca; reported run times include optimization time, as in Fig. 11.  A
per-query timeout plays the role of the paper's cancelled MySQL run of
TPC-DS Q1 ("cancelled after 600 sec"): timed-out queries are recorded at
the cap.  All output is plain text so the benches can tee it into logs.
"""

from __future__ import annotations

import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.database import Database
from repro.errors import DeadlineExceededError, ExecutionError


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
    """Order-insensitive, exact result comparison: the same multiset of
    rows.  Aggregate sums are exact and independent of fold order, so
    two plans of one statement agree bit for bit."""
    return Counter(rows_a) == Counter(rows_b)


def run_suite(db: Database, queries: Dict[int, str], name: str,
              timeout_seconds: float = 60.0) -> BenchmarkResult:
    """Run every query under both optimizers; returns all timings.

    Timings include optimization time (compile + execute), matching the
    paper's Fig. 11 methodology.  A query that exceeds the timeout on one
    optimizer is recorded at the cap with ``*_timed_out`` set; the rows of
    every query that finished on both are compared.  The runs
    bypass the statement plan cache: they measure the optimizers, and a
    warm cache would silently zero the optimize stage.
    """
    result = BenchmarkResult(name)
    for number in sorted(queries):
        sql = queries[number]
        mysql = _timed_run(db, sql, "mysql", timeout_seconds)
        orca = _timed_run(db, sql, "orca", timeout_seconds)
        match = True
        if not mysql.timed_out and not orca.timed_out:
            match = results_match(mysql.rows, orca.rows)
        result.timings.append(QueryTiming(
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
        ))
    return result


@dataclass
class _RunOutcome:
    """What one timed run produced."""

    elapsed: float
    rows: List[tuple]
    timed_out: bool
    fallback_reason: Optional[str]
    optimize_seconds: float = 0.0
    execute_seconds: float = 0.0


class _SoftTimeout(Exception):
    pass


def _timed_run(db: Database, sql: str, optimizer: str,
               timeout_seconds: float) -> _RunOutcome:
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
    outcome = _RunOutcome(elapsed=0.0, rows=[], timed_out=False,
                          fallback_reason=None)
    start = time.perf_counter()

    def _raise_timeout(signum, frame):
        raise _SoftTimeout()

    use_alarm = hasattr(signal, "SIGALRM")
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL,
                         max(timeout_seconds * 5, timeout_seconds + 1.0))
    try:
        result = db.run(sql, optimizer=optimizer, use_plan_cache=False,
                        timeout_seconds=timeout_seconds)
        outcome.rows = result.rows
        outcome.optimize_seconds = result.compile_seconds
        outcome.execute_seconds = result.execute_seconds
        if result.fallback_reason is not None:
            outcome.fallback_reason = result.fallback_reason.value
    except (DeadlineExceededError, _SoftTimeout):
        outcome.timed_out = True
    except ExecutionError as exc:
        # The SIGALRM backstop can fire inside the executor, where the
        # Database wraps foreign exceptions; unwrap it back to a timeout.
        if not isinstance(exc.__cause__, _SoftTimeout):
            raise
        outcome.timed_out = True
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    outcome.elapsed = timeout_seconds if outcome.timed_out \
        else time.perf_counter() - start
    return outcome


#: Table 1's row for the untimed Orca pass that precedes the timed ones.
COLD_PASS = "Orca cold first pass"


def run_compile_suite(db: Database, queries: Dict[int, str],
                      configurations: Dict[str, Callable[[], None]],
                      ) -> Dict[str, float]:
    """Total EXPLAIN (compile-only) time per configuration — Table 1.

    ``configurations`` maps a label to a setup callable that mutates the
    database config before the pass (e.g. switching the Orca search mode);
    the MySQL-only pass uses ``optimizer="mysql"``.  One Orca pass runs
    first, under the config as given, so the first timed configuration
    does not carry the process's first-pass cost; its time is returned
    under :data:`COLD_PASS`, first.
    """
    def compile_all(optimizer: str) -> float:
        start = time.perf_counter()
        for number in sorted(queries):
            db.compile_only(queries[number], optimizer=optimizer)
        return time.perf_counter() - start

    totals = {COLD_PASS: compile_all("orca")}
    for label, setup in configurations.items():
        setup()
        totals[label] = compile_all("mysql" if label == "MySQL" else "orca")
    return totals


def _bar(seconds: float, scale: float, width: int = 30) -> str:
    if scale <= 0:
        return ""
    filled = int(round(width * min(1.0, seconds / scale)))
    return "#" * max(0, filled)


def _per_query_chart(result: BenchmarkResult, title: str) -> str:
    scale = max((t.mysql_seconds for t in result.timings), default=1.0)
    scale = max(scale, max((t.orca_seconds for t in result.timings),
                           default=1.0))
    lines = [title, "=" * len(title),
             f"{'query':>6} | {'MySQL(s)':>9} | {'Orca(s)':>9} | "
             f"{'speedup':>8} |"]
    for timing in result.timings:
        mark = ""
        if timing.mysql_timed_out:
            mark = " (mysql cancelled)"
        if timing.orca_timed_out:
            mark += " (orca cancelled)"
        if timing.orca_fallback_reason is not None:
            mark += f" (orca fell back: {timing.orca_fallback_reason})"
        lines.append(
            f"Q{timing.number:>5} | {timing.mysql_seconds:>9.3f} | "
            f"{timing.orca_seconds:>9.3f} | {timing.speedup:>7.1f}X |"
            f" {_bar(timing.mysql_seconds, scale)}{mark}")
    lines.append("")
    lines.append(f"total MySQL: {result.total_mysql:.2f}s   "
                 f"total Orca: {result.total_orca:.2f}s   "
                 f"reduction: {result.total_reduction_percent:.0f}%")
    ten_x = sorted(t.number for t in result.wins(10.0))
    hundred_x = sorted(t.number for t in result.wins(100.0))
    lines.append(f">=10X faster with Orca: {ten_x}")
    lines.append(f">=100X faster with Orca: {hundred_x}")
    fallbacks = result.fallback_counts
    if fallbacks:
        detail = ", ".join(f"{reason}: {count}"
                           for reason, count in sorted(fallbacks.items()))
        lines.append(f"orca fallbacks: {sum(fallbacks.values())} "
                     f"({detail})")
    return "\n".join(lines)


def format_figure10(result: BenchmarkResult) -> str:
    """Fig. 10: execution time for the TPC-H queries."""
    return _per_query_chart(
        result, "Figure 10 - Execution time for the TPC-H queries")


def format_figure11(result: BenchmarkResult) -> str:
    """Fig. 11: execution time for the TPC-DS queries."""
    return _per_query_chart(
        result, "Figure 11 - Execution time for the TPC-DS queries")


def format_figure12(result: BenchmarkResult) -> str:
    """Fig. 12: Orca/MySQL ratio vs MySQL run time (log-style buckets).

    "Orca is slower only on short queries": the points with ratio > 1
    should cluster at the left (small MySQL run times).
    """
    lines = ["Figure 12 - Orca is slower only on short queries",
             "=" * 48,
             f"{'query':>6} | {'MySQL(s)':>9} | {'Orca/MySQL':>10} |"]
    for timing in sorted(result.timings,
                         key=lambda t: t.mysql_seconds):
        marker = "  <-- Orca slower" if timing.ratio > 1.0 else ""
        lines.append(f"Q{timing.number:>5} | "
                     f"{timing.mysql_seconds:>9.3f} | "
                     f"{timing.ratio:>10.2f} |{marker}")
    slower = [t for t in result.timings if t.ratio > 1.0]
    if slower:
        median_slow = sorted(t.mysql_seconds for t in slower)[
            len(slower) // 2]
        lines.append("")
        lines.append(f"queries where Orca is slower: {len(slower)}; "
                     f"median MySQL time among them: {median_slow:.3f}s")
    return "\n".join(lines)


def format_table1(totals_tpch: Dict[str, float],
                  totals_tpcds: Dict[str, float]) -> str:
    """Table 1: total EXPLAIN times per compiler configuration."""
    lines = ["Table 1 - Orca query compilation overhead (seconds)",
             "=" * 52,
             f"{'Compiler':<28} | {'TPC-H':>8} | {'TPC-DS':>8}"]
    for label in totals_tpch:
        tpch = totals_tpch[label]
        tpcds = totals_tpcds.get(label, float('nan'))
        lines.append(f"{label:<28} | {tpch:>8.2f} | {tpcds:>8.2f}")
    return "\n".join(lines)


def summarize(result: BenchmarkResult) -> Dict[str, object]:
    """Headline numbers used by assertions in the benches and tests."""
    return {
        "total_mysql": result.total_mysql,
        "total_orca": result.total_orca,
        "reduction_percent": result.total_reduction_percent,
        "orca_wins": sum(1 for t in result.timings if t.speedup > 1.0),
        "ten_x_wins": sorted(t.number for t in result.wins(10.0)),
        "hundred_x_wins": sorted(t.number for t in result.wins(100.0)),
        "mismatches": sorted(t.number for t in result.timings
                             if not t.results_match),
        "orca_fallbacks": result.fallback_counts,
    }
