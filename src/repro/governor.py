"""Per-statement execution governance: deadlines, cancellation, memory.

PR 1 bounded the *optimize* stage (DetourGuard, CompileBudget, circuit
breaker) but left execution unbounded: a runaway hash join could buffer
rows until the process died, and nothing could stop a statement once it
started.  This module is the execution-stage counterpart — one
:class:`ExecutionGovernor` per statement, threaded through both the row
Volcano interpreter and the batch engine, enforcing three bounds at
cooperative checkpoints:

* a **wall-clock deadline** (``timeout_seconds``) checked at every
  checkpoint, raising :class:`repro.errors.DeadlineExceededError`;
* a **cooperative cancel token** (:class:`CancelToken`) another thread
  (or ``db.cancel(statement_id)``) can set at any time, surfaced as
  :class:`repro.errors.StatementCancelledError` at the next checkpoint;
* a **memory accountant** (:class:`MemoryAccountant`) that
  pipeline-breaking operators charge as they buffer rows, raising
  :class:`repro.errors.ResourceExhaustedError` on breach.

Checkpoint cadence
------------------

Checkpoints are cheap (two compares) but not free, so they are
amortised:

* the batch engine checkpoints once per emitted batch (≤1024 rows),
  inside ``ExecutionRuntime.note_batch``;
* row-mode leaf scans wrap their row iterators with :meth:`wrap_rows`,
  which checkpoints every ``check_interval`` rows (default 256);
* nested-loop joins call :meth:`tick` per outer row, which folds into a
  full checkpoint every ``check_interval`` ticks;
* the compile pipeline checkpoints at stage boundaries (parse, prepare,
  optimize, refine) and caps the Orca :class:`CompileBudget` to the
  remaining deadline via :meth:`cap_compile_budget`.

Memory-charging contract
------------------------

Operators that buffer an unbounded number of rows (hash join build
side, hash aggregate, sort, materialize/CTE) charge an *estimate* of
what they hold: the per-row byte width is sampled once per operator
with :func:`approx_row_bytes` (``sys.getsizeof`` one level deep) and
multiplied by the buffered row count, charged in chunks so the charge
itself stays off the per-row hot path.  Charges are released when the
operator's buffer dies (try/finally), so ``tracked_bytes`` returns to
zero after the statement and ``peak_bytes`` records the high-water
mark.  This is deliberately an estimate, not an allocator hook: it is
deterministic, cheap, and close enough to bound the buffering
operators that actually run away.

A charge may be marked *spillable*: instead of raising on breach it is
counted as a spill event.  The reduced-memory retry path uses this for
the sort a forced streaming aggregate inserts — the retry must not be
killed by the very operator the degradation introduced.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.errors import (
    DeadlineExceededError,
    ResourceExhaustedError,
    StatementCancelledError,
)

#: Rows between cooperative checkpoints on row-mode paths (the batch
#: engine checkpoints per batch).  256 keeps the per-row overhead to one
#: integer compare while still bounding the reaction latency to a few
#: microseconds of work.  Read when a governor is created, so a test
#: that needs checkpoints to fire on a few rows patches this constant.
DEFAULT_CHECK_INTERVAL = 256

#: Fallback per-row estimate when a sample row cannot be sized.
_DEFAULT_ROW_BYTES = 64

#: Estimated bookkeeping bytes per hash-table bucket / dict entry.
BUCKET_OVERHEAD_BYTES = 64

#: Estimated bytes per aggregate accumulator (object + running state).
ACCUMULATOR_BYTES = 120


def approx_row_bytes(row: object) -> int:
    """A cheap size estimate for one buffered row.

    ``sys.getsizeof`` on the container plus its direct elements — one
    level deep, no recursion.  Sampled once per operator and multiplied
    by row count, so precision matters less than determinism and cost.
    """
    if row is None:
        return _DEFAULT_ROW_BYTES
    try:
        total = sys.getsizeof(row)
        if isinstance(row, (tuple, list)):
            for value in row:
                if value is not None:
                    total += sys.getsizeof(value)
    except TypeError:  # pragma: no cover — exotic objects without sizeof
        return _DEFAULT_ROW_BYTES
    return total


class CancelToken:
    """Cooperative cancellation flag shared with the running statement.

    ``cancel()`` only sets a flag; the statement notices at its next
    governor checkpoint and unwinds with
    :class:`~repro.errors.StatementCancelledError`.  For deterministic
    tests, ``cancel_after_checks=N`` self-cancels the token on the Nth
    checkpoint — no threads or timing needed.
    """

    __slots__ = ("_cancelled", "_cancel_after_checks", "reason", "_shared")

    def __init__(self, cancel_after_checks: Optional[int] = None,
                 reason: str = "cancelled") -> None:
        if cancel_after_checks is not None and cancel_after_checks < 1:
            raise ValueError("cancel_after_checks must be >= 1")
        self._cancelled = False
        self._cancel_after_checks = cancel_after_checks
        self.reason = reason
        #: Fork-inheritable shared flag, created lazily by
        #: :meth:`enable_cross_process` when parallel execution forks
        #: workers: a plain attribute set in the parent after the fork
        #: would be invisible to the children.
        self._shared = None

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        shared = self._shared
        if shared is not None and shared.value:
            self._cancelled = True
            return True
        return False

    def cancel(self, reason: Optional[str] = None) -> None:
        if reason is not None:
            self.reason = reason
        self._cancelled = True
        if self._shared is not None:
            self._shared.value = 1

    def enable_cross_process(self) -> None:
        """Back the flag with shared memory before forking workers."""
        if self._shared is None:
            import multiprocessing

            self._shared = multiprocessing.get_context("fork").RawValue(
                "b", 1 if self._cancelled else 0)

    def _note_check(self) -> None:
        """Called by the governor once per checkpoint (test support)."""
        remaining = self._cancel_after_checks
        if remaining is not None:
            remaining -= 1
            self._cancel_after_checks = remaining
            if remaining <= 0:
                self._cancelled = True


class MemoryAccountant:
    """Tracks estimated bytes buffered by pipeline-breaking operators."""

    __slots__ = ("limit_bytes", "tracked_bytes", "peak_bytes", "charges",
                 "releases", "spill_events", "spilled_bytes",
                 "breach_operator")

    def __init__(self, limit_bytes: Optional[int] = None) -> None:
        if limit_bytes is not None and limit_bytes < 1:
            raise ValueError("memory limit must be >= 1 byte")
        self.limit_bytes = limit_bytes
        self.tracked_bytes = 0
        self.peak_bytes = 0
        self.charges = 0
        self.releases = 0
        self.spill_events = 0
        self.spilled_bytes = 0
        self.breach_operator: Optional[str] = None

    def charge(self, nbytes: int, operator: str,
               spillable: bool = False) -> None:
        """Add ``nbytes`` to the tracked total; raise on breach.

        A *spillable* charge over the limit is counted as a spill event
        instead of raising — the operator is declaring it could shed
        the buffer (the low-memory retry's sort does).
        """
        if nbytes <= 0:
            return
        self.charges += 1
        self.tracked_bytes += nbytes
        if self.tracked_bytes > self.peak_bytes:
            self.peak_bytes = self.tracked_bytes
        if self.limit_bytes is not None \
                and self.tracked_bytes > self.limit_bytes:
            if spillable:
                self.spill_events += 1
                self.spilled_bytes += nbytes
                return
            self.breach_operator = operator
            raise ResourceExhaustedError(operator, self.tracked_bytes,
                                         self.limit_bytes)

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` previously charged (buffer freed)."""
        if nbytes <= 0:
            return
        self.releases += 1
        self.tracked_bytes = max(0, self.tracked_bytes - nbytes)


class ExecutionGovernor:
    """All three per-statement bounds behind one checkpoint API.

    Created by the Database facade for every governed statement and
    handed to the executor runtime; operators never construct one.  A
    governor with no deadline, no memory cap, and an unset token costs
    one attribute read plus two compares per checkpoint.
    """

    def __init__(self, timeout_seconds: Optional[float] = None,
                 memory_limit_bytes: Optional[int] = None,
                 cancel_token: Optional[CancelToken] = None,
                 fault_injector=None,
                 check_interval: Optional[int] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 spill_sorts: bool = False,
                 low_memory: bool = False) -> None:
        if timeout_seconds is not None and timeout_seconds < 0:
            raise ValueError("timeout_seconds must be >= 0")
        if check_interval is None:
            check_interval = DEFAULT_CHECK_INTERVAL
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self._clock = clock
        self.started_at = clock()
        self.timeout_seconds = timeout_seconds
        self.deadline_at = (self.started_at + timeout_seconds
                            if timeout_seconds is not None else None)
        self.cancel_token = cancel_token or CancelToken()
        self.memory = MemoryAccountant(memory_limit_bytes)
        self.fault_injector = fault_injector
        self.check_interval = check_interval
        #: The retry path sets this so the sort a forced streaming agg
        #: inserts charges as spillable instead of re-breaching.
        self.spill_sorts = spill_sorts
        #: True on the reduced-memory retry governor (reported in stats).
        self.low_memory = low_memory
        self.checkpoints = 0
        #: Stage label of the most recent named checkpoint — what the
        #: statement was last seen doing (``db.top()``'s "stage" column).
        self.last_stage: Optional[str] = None
        self._ticks = 0

    # -- control ----------------------------------------------------------------

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cooperative cancellation (honoured at next checkpoint)."""
        self.cancel_token.cancel(reason)

    def elapsed_seconds(self) -> float:
        return self._clock() - self.started_at

    def remaining_seconds(self) -> Optional[float]:
        """Deadline budget left, or None when no deadline is set."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self._clock())

    def cap_compile_budget(self, budget) -> object:
        """Shrink a :class:`CompileBudget` to the remaining deadline.

        The optimize stage must not consume wall-clock the deadline no
        longer has; whichever bound is tighter wins.
        """
        remaining = self.remaining_seconds()
        if remaining is not None and (budget.seconds is None
                                      or remaining < budget.seconds):
            budget.seconds = remaining
        return budget

    # -- checkpoints ------------------------------------------------------------

    def checkpoint(self, stage: Optional[str] = None) -> None:
        """The cooperative bound check; raises a typed GovernorError.

        Cancellation wins over the deadline when both have tripped, so
        an explicit ``db.cancel()`` is never misreported as a timeout.
        """
        self.checkpoints += 1
        if stage is not None:
            self.last_stage = stage
        token = self.cancel_token
        if token._cancel_after_checks is not None:
            token._note_check()
        if not token._cancelled and token._shared is not None \
                and token._shared.value:
            token._cancelled = True
        if token._cancelled:
            raise StatementCancelledError(token.reason, stage)
        if self.deadline_at is not None:
            now = self._clock()
            if now > self.deadline_at:
                raise DeadlineExceededError(now - self.started_at,
                                            self.timeout_seconds, stage)

    def note_worker_checkpoints(self, n: int) -> None:
        """Fold checkpoints run by *forked* morsel workers into this
        governor's count.  Forked children inherit a copy-on-write
        governor, so their checkpoint counts never reach the parent by
        themselves; the parallel coordinator ships them back with the
        worker telemetry.  Thread workers share this object and need no
        folding."""
        self.checkpoints += int(n)

    def tick(self) -> None:
        """Amortised checkpoint: full check every ``check_interval`` calls."""
        self._ticks += 1
        if self._ticks >= self.check_interval:
            self._ticks = 0
            self.checkpoint()

    def wrap_rows(self, rows: Iterable) -> Iterator:
        """Yield from ``rows``, checkpointing every ``check_interval`` rows.

        Row-mode leaf scans wrap their storage iterators with this so a
        deadline or cancel is noticed even in a plan with no batches.
        """
        interval = self.check_interval
        since_check = 0
        for row in rows:
            since_check += 1
            if since_check >= interval:
                since_check = 0
                self.checkpoint()
            yield row

    # -- memory -----------------------------------------------------------------

    def charge(self, nbytes: int, operator: str,
               spillable: bool = False) -> None:
        """Charge buffered bytes; an armed alloc-spike inflates them."""
        injector = self.fault_injector
        if injector is not None:
            nbytes += injector.fire_spike("alloc_spike")
        self.memory.charge(int(nbytes), operator, spillable)

    def release(self, nbytes: int) -> None:
        self.memory.release(int(nbytes))

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Snapshot for StatementResult / the EXPLAIN ANALYZE footer."""
        elapsed = self.elapsed_seconds()
        used_fraction = None
        if self.timeout_seconds:
            used_fraction = min(1.0, elapsed / self.timeout_seconds)
        return {
            "timeout_seconds": self.timeout_seconds,
            "elapsed_seconds": elapsed,
            "deadline_used_fraction": used_fraction,
            "checkpoints": self.checkpoints,
            "last_stage": self.last_stage,
            "cancelled": self.cancel_token.cancelled,
            "memory_limit_bytes": self.memory.limit_bytes,
            "peak_tracked_bytes": self.memory.peak_bytes,
            "tracked_bytes": self.memory.tracked_bytes,
            "mem_charges": self.memory.charges,
            "spill_events": self.memory.spill_events,
            "low_memory": self.low_memory,
        }
