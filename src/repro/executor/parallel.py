"""Morsel-driven parallel pre-aggregation that pays or stays serial.

One :class:`ParallelContext` exists per batch-mode execution that
requested more than one worker.  Exactly one operator shape can fan
out: **hash (or scalar) pre-aggregation over a bare table scan**.  The
scan is split into *morsels* — one table chunk each — that forked
workers pull from a shared dispenser; each worker folds its chunk into
per-key accumulators, and the parent merges their states in chunk
order (``_Accumulator.merge``).  Aggregate sums are exact, so a merged
result is bit-identical to a serial run by construction; group order
is the serial first-seen order.  Everything nondeterministic (which
worker got which morsel, completion order) is erased at the merge.

Whether an eligible operator fans out is a *costed, deterministic*
decision (:func:`fanout_decision`): the work two processes could share
must exceed what forking, copy-on-write faults and shipping partials
back cost.  The four constants below were measured once on the
benchmark host (``benchmarks/calibrate_fanout.py``; numbers in
EXPERIMENTS.md); no clock is read at run time, so the same statement
over the same data always takes the same side of the gate.  Staying
serial is a decision, not a fallback — nothing is logged for it beyond
the ``parallel_decision`` attribute on the ``execute`` span.

Why only this shape: it is the one whose shipped volume does not grow
with the rows read (a few partial states per chunk).  Filtered scans
and hash-join builds would pickle every surviving row back through a
pipe — ~4 us/row to offload ~0.2 us/row of work — which no table size
rescues, so those shapes do not exist.  Workers are forked per operator
because compiled batch expressions are closures (a forked child
inherits them for free) and a fork is a consistent copy-on-write
snapshot of the tables; a platform without ``os.fork`` runs every
statement serial.

Governance
----------

Workers run a governor checkpoint per morsel, so deadlines and
cancellations abort mid-operator; the deadline clock
(``time.perf_counter``) is system-wide and a :class:`CancelToken` is
backed by fork-inheritable shared memory once parallel execution is
requested.  A governor abort inside a forked worker is shipped back as
a typed tuple and re-raised in the parent as the *same* exception type,
so abort classification (deadline / cancelled / memory) is identical to
serial execution.  Memory charging stays in the parent's merge loop —
charging from two processes would double-count.

Telemetry
---------

Each worker runs a :class:`WorkerTelemetry`: a lightweight child tracer
(per-morsel records: chunk index, rows produced, wall seconds) plus a
:class:`repro.observability.MetricsDelta`, pickled back over the result
pipe alongside the partials.  The coordinator then

* grafts one ``parallel_worker`` child span per worker under the open
  ``execute`` span (morsel/row counts, busy seconds, governor
  checkpoints, peak result bytes), so ``EXPLAIN ANALYZE`` and
  ``trace_export()`` see through the fork boundary;
* merges the counter/histogram deltas into the parent
  :class:`~repro.observability.MetricsRegistry`
  (``executor.worker_morsels`` / ``executor.worker_rows`` counters,
  per-morsel ``executor.morsel_seconds`` and per-worker
  ``executor.worker_seconds`` histograms);
* folds the workers' governor-checkpoint counts back into the parent
  governor;
* accumulates per-worker utilization (:meth:`ParallelContext.skew`,
  :meth:`ParallelContext.utilization`) for the execute-span skew
  attributes and ``db.top()``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.executor.batch import RowBatch
from repro.governor import approx_row_bytes
from repro.observability import MetricsDelta, graft_span

# -- the fan-out cost model -----------------------------------------------------
#
# Measured by ``benchmarks/calibrate_fanout.py`` on the benchmark host
# (2 vCPU, CPython 3.11, TPC-H scale 4 resident); the table is in
# EXPERIMENTS.md.  Tests reach the fork path on small tables by
# monkeypatching these (``force_fanout`` in tests/conftest.py).

#: One worker's fixed cost: fork (page-table copy of a ~125 MB heap),
#: pipe, telemetry pickle, reap, and the parent re-faulting the pages
#: the fork write-protected.
FORK_SECONDS = 4.5e-3
#: Extra seconds per row *read in a forked child*: touching a row
#: bumps refcounts, which copy-on-write-faults the pages it lives on.
COW_SECONDS_PER_ROW = 0.38e-6
#: Seconds per partial-state value pickled out, piped, unpickled and
#: folded.
SHIP_SECONDS_PER_VALUE = 0.5e-6
#: Seconds one compiled expression (filter, group key or aggregate
#: fold) spends per row — the cheapest shape measured, so predicted
#: savings are a lower bound.
EXPR_SECONDS_PER_ROW = 0.09e-6

#: CPUs this process may run on (empty where the platform cannot say).
#: Worker i pins itself to the i-th: left to the scheduler, short-lived
#: children of a process that was just idle or single-threaded share
#: the parent's CPU for the first second of fan-outs (measured: the
#: same two workers take 2x the wall clock) — placement must not be
#: luck.
_CPUS = sorted(os.sched_getaffinity(0)) \
    if hasattr(os, "sched_getaffinity") else []
#: Workers beyond the usable CPUs only add forks.
USABLE_CPUS = len(_CPUS) or os.cpu_count() or 1

#: Bytes read from a worker pipe per ``os.read`` call.
_PIPE_READ_SIZE = 1 << 20


class FanoutDecision(NamedTuple):
    fanout: bool
    #: Estimated milliseconds for the operator run serial / fanned out.
    serial_ms: float
    fanout_ms: float


def fanout_decision(rows: int, groups: float, exprs: int, workers: int,
                    morsels: int) -> FanoutDecision:
    """Does pre-aggregating ``rows`` rows on ``workers`` workers pay?

    A pure function of its arguments and the module constants.
    ``rows`` is the exact row count of the table's ``morsels`` chunks,
    ``groups`` the optimizer's estimated group
    count, ``exprs`` the compiled expressions each row passes through.
    Fanning out divides the per-row work (and the copy-on-write
    penalty, paid inside the workers) by ``workers`` but adds a fork
    per worker and one shipped partial state per group per morsel.
    """
    work = rows * exprs * EXPR_SECONDS_PER_ROW
    if workers < 2:
        return FanoutDecision(False, work * 1e3, work * 1e3)
    shipped = min(groups * morsels, rows) * exprs
    fanned = (workers * FORK_SECONDS
              + (work + rows * COW_SECONDS_PER_ROW) / workers
              + shipped * SHIP_SECONDS_PER_VALUE)
    return FanoutDecision(fanned < work, work * 1e3, fanned * 1e3)


def _approx_result_bytes(value: object) -> int:
    """Size estimate of one morsel's result (one level deep, sampled).

    Same estimation philosophy as the governor's
    :func:`~repro.governor.approx_row_bytes`: a cheap deterministic
    approximation, not an allocator hook."""
    try:
        total = sys.getsizeof(value)
    except TypeError:  # pragma: no cover — exotic objects
        return 0
    if isinstance(value, (list, tuple)) and value:
        total += len(value) * approx_row_bytes(value[0])
    return total


class WorkerTelemetry:
    """One worker's child tracer + metrics delta for one operator.

    Lives inside the forked worker, records one entry per morsel, and
    travels back to the coordinator over the result pipe as plain
    picklable state.
    """

    __slots__ = ("worker_id", "morsels", "rows", "seconds",
                 "checkpoints", "peak_bytes", "records", "delta")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.morsels = 0
        self.rows = 0
        self.seconds = 0.0
        #: Governor checkpoints this worker ran (shipped so forked
        #: workers' counts fold back into the parent governor).
        self.checkpoints = 0
        #: Largest single-morsel result, estimated bytes.
        self.peak_bytes = 0
        #: Per-morsel ``(chunk_index, rows, seconds)`` records.
        self.records: List[Tuple[int, int, float]] = []
        self.delta = MetricsDelta()

    def note_morsel(self, chunk_index: int, rows: int, seconds: float,
                    result_bytes: int) -> None:
        self.morsels += 1
        self.rows += rows
        self.seconds += seconds
        if result_bytes > self.peak_bytes:
            self.peak_bytes = result_bytes
        self.records.append((chunk_index, rows, seconds))
        self.delta.inc("executor.worker_morsels")
        self.delta.inc("executor.worker_rows", rows)
        self.delta.observe("executor.morsel_seconds", seconds)


class ParallelContext:
    """Per-execution parallel state: the fan-out gate plus morsel
    counters."""

    def __init__(self, workers: int, tracer=None, metrics=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: Worker ceiling per operator.
        self.workers = min(workers, USABLE_CPUS)
        #: Without ``os.fork`` nothing ever fans out.
        self.can_fork = hasattr(os, "fork")
        #: Tracer worker spans are grafted into (None / disabled = skip).
        self.tracer = tracer
        #: Parent :class:`MetricsRegistry` worker deltas merge into.
        self.metrics = metrics
        #: Chunks dispatched to workers this execution.
        self.morsels = 0
        #: Operators that fanned out.
        self.ops = 0
        #: Eligible operators the cost gate kept serial.
        self.gated = 0
        #: Estimated serial / fanned-out milliseconds, summed over every
        #: operator the gate costed (either way).
        self.est_serial_ms = 0.0
        self.est_fanout_ms = 0.0
        #: Largest worker count any single operator used.
        self.workers_spawned = 0
        #: Cumulative per-worker utilization across this execution's
        #: operators: worker id -> [morsels, rows, busy seconds].
        self.worker_stats: Dict[int, List[float]] = {}
        #: Every per-morsel record of this execution:
        #: ``(worker_id, chunk_index, rows, seconds)``.
        self.morsel_records: List[Tuple[int, int, int, float]] = []

    @property
    def costed(self) -> int:
        """Operators the gate costed, whichever way it decided."""
        return self.ops + self.gated

    @property
    def decision(self) -> str:
        """What this execution did about its parallelism request."""
        if not self.can_fork:
            return "serial:nofork"
        if self.ops:
            return "fanout"
        return "serial:cost" if self.gated else "serial:shape"

    # -- pre-aggregation --------------------------------------------------------

    def agg_merge(self, agg, scan, runtime,
                  charge: bool = True) -> Optional[tuple]:
        """Parallel pre-aggregation over a leaf scan, when it pays.

        Workers return ``(kept_rows, [(key, [per-fold states])])`` per
        chunk with keys in first-seen order; the parent merges them in
        chunk order — same group creation order, same results, same
        per-batch governor charges as the serial hash-aggregate loop.
        Returns ``(groups, order, charged)``, or None when the gate keeps
        the operator serial — in which case nothing has been counted or
        charged and the caller's serial path runs as if this method had
        not been called.
        """
        if not self.can_fork:
            return None
        storage = runtime.storage
        store = storage.store(scan.table_name)
        chunks = store.chunks
        mask_fn = scan.bx_filter
        specs = agg.specs
        group_exprs = agg.group_exprs
        n_workers = min(self.workers, len(chunks))
        decision = fanout_decision(
            rows=store.row_count,
            groups=max(1.0, agg.rows) if group_exprs else 1.0,
            exprs=(mask_fn is not None) + len(group_exprs) + len(specs),
            workers=n_workers, morsels=len(chunks))
        self.est_serial_ms += decision.serial_ms
        self.est_fanout_ms += decision.fanout_ms
        if not decision.fanout:
            self.gated += 1
            return None
        # Charge the storage counters for every chunk, exactly as the
        # serial scan would have.
        storage.counters.rows_scanned += store.row_count
        scan.actual_loops += 1
        if runtime.injector is not None:
            runtime.injector.fire("scan_io")
        self.morsels += len(chunks)
        self.ops += 1
        self.workers_spawned = max(self.workers_spawned, n_workers)
        agg.px_workers = scan.px_workers = n_workers
        entry_id = scan.entry_id

        def task(index: int) -> tuple:
            rows = chunks[index].rows
            batch = RowBatch({entry_id: rows}, len(rows))
            if mask_fn is not None:
                batch = batch.filter_true(mask_fn(batch))
            if not batch.length:
                return 0, []
            groups: dict = {}
            order: List[tuple] = []
            agg.fold_batch(batch, groups, order)
            return batch.length, [
                (key, [accumulator.state() for accumulator in groups[key]])
                for key in order]

        results = self._run_morsels(runtime, list(range(len(chunks))),
                                    task, n_workers)

        def merge(result: tuple, groups: dict, order: List[tuple]) -> int:
            length, states = result
            if length:
                scan.actual_batches += 1
                scan.actual_rows += length
                runtime.note_counts(length)
            return agg.merge_states(states, groups, order)

        return agg.fold_hash(runtime, results, merge, charge)

    # -- telemetry --------------------------------------------------------------

    def _merge_telemetry(self, telemetries: List[WorkerTelemetry],
                         runtime, op_start: float) -> None:
        """Fold worker telemetry into the parent-side surfaces."""
        governor = runtime.governor
        tracer = self.tracer
        parent = tracer.current if tracer is not None \
            and tracer.enabled else None
        metrics = self.metrics
        for wt in telemetries:
            stats = self.worker_stats.setdefault(
                wt.worker_id, [0, 0, 0.0])
            stats[0] += wt.morsels
            stats[1] += wt.rows
            stats[2] += wt.seconds
            for chunk_index, rows, seconds in wt.records:
                self.morsel_records.append(
                    (wt.worker_id, chunk_index, rows, seconds))
            # The parent governor never saw the children's
            # checkpoints.
            governor.note_worker_checkpoints(wt.checkpoints)
            if metrics is not None:
                wt.delta.merge_into(metrics)
                metrics.observe("executor.worker_seconds", wt.seconds)
            if parent is not None:
                graft_span(
                    parent, "parallel_worker",
                    start=op_start, end=op_start + wt.seconds,
                    worker=wt.worker_id, op="agg_build",
                    morsels=wt.morsels, rows=wt.rows,
                    seconds=wt.seconds, checkpoints=wt.checkpoints,
                    peak_bytes=wt.peak_bytes)

    def skew(self) -> Optional[dict]:
        """Morsel-distribution skew across workers, or None when no
        parallel operator ran.  Idle spawned workers count as zero —
        a worker that never got a morsel *is* the skew story."""
        if not self.ops:
            return None
        counts = [self.worker_stats.get(worker, [0, 0, 0.0])[0]
                  for worker in range(max(1, self.workers_spawned))]
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return {
            "workers": len(counts),
            "min_morsels": min(counts),
            "max_morsels": max(counts),
            "mean_morsels": mean,
            "stddev_morsels": variance ** 0.5,
        }

    def utilization(self) -> List[dict]:
        """Per-worker utilization rows (worker id ascending)."""
        return [{"worker": worker, "morsels": int(stats[0]),
                 "rows": int(stats[1]), "seconds": stats[2]}
                for worker, stats in sorted(self.worker_stats.items())]

    # -- dispatch ---------------------------------------------------------------

    def _run_morsels(self, runtime, indices: List[int],
                     task: Callable[[int], tuple],
                     n_workers: int) -> List[tuple]:
        """Run ``task`` over every chunk index on ``n_workers`` forked
        workers; results in index order.

        Dispatch is dynamic (a shared next-morsel dispenser) but the
        returned list is ordered like ``indices``, so the downstream
        merge is deterministic regardless of scheduling.  A task returns
        ``(rows, partials)``; the row count feeds worker telemetry."""
        op_start = time.perf_counter()
        governor = runtime.governor
        # Back the cancel flag with fork-inheritable shared memory
        # *before* forking, so a parent-side cancel() lands in the
        # children's next checkpoint.
        governor.cancel_token.enable_cross_process()
        mp = multiprocessing.get_context("fork")
        dispenser = mp.RawValue("l", 0)
        lock = mp.Lock()
        pipes: List[int] = []
        pids: List[int] = []
        payloads: List[bytes] = []
        try:
            for worker_id in range(n_workers):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    # Child: compute, write one pickled payload, and
                    # _exit without ever returning into the caller's
                    # generator stack.
                    status = 0
                    try:
                        os.close(read_fd)
                        if _CPUS:
                            os.sched_setaffinity(
                                0, {_CPUS[worker_id % len(_CPUS)]})
                        payload = pickle.dumps(
                            _worker_payload(worker_id, indices,
                                            dispenser, lock, task,
                                            governor),
                            pickle.HIGHEST_PROTOCOL)
                        _write_all(write_fd, payload)
                        os.close(write_fd)
                    except BaseException:  # noqa: BLE001 — exit status
                        status = 1
                    finally:
                        os._exit(status)
                os.close(write_fd)
                pids.append(pid)
                pipes.append(read_fd)
            # Read every pipe to EOF before reaping: a child blocked on
            # a full pipe finishes as soon as its turn to be read comes.
            for read_fd in pipes:
                payloads.append(_read_all(read_fd))
        finally:
            for read_fd in pipes:
                try:
                    os.close(read_fd)
                except OSError:
                    pass
            for pid in pids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
        results: List[tuple] = [None] * len(indices)
        errors: List[tuple] = []
        telemetries: List[WorkerTelemetry] = []
        for payload in payloads:
            if not payload:
                errors.append(("generic", "WorkerExit",
                               "morsel worker exited before reporting"))
                continue
            worker_results, error, telemetry = pickle.loads(payload)
            for slot, value in worker_results:
                results[slot] = value
            if telemetry is not None:
                telemetries.append(telemetry)
            if error is not None:
                errors.append(error)
        if errors:
            raise _decode_error(_pick_error(errors))
        self._merge_telemetry(telemetries, runtime, op_start)
        return results


def _worker_payload(worker_id: int, indices: List[int], dispenser, lock,
                    task: Callable[[int], tuple], governor) -> tuple:
    """One forked worker's whole run: pull morsels until the dispenser
    is empty or a bound trips; returns
    ``([(slot, result), ...], error, telemetry)`` with the error already
    encoded for transport and the telemetry picklable as-is."""
    results: List[Tuple[int, tuple]] = []
    error: Optional[tuple] = None
    telemetry = WorkerTelemetry(worker_id)
    total = len(indices)
    while error is None:
        with lock:
            slot = dispenser.value
            if slot >= total:
                break
            dispenser.value = slot + 1
        try:
            governor.checkpoint(stage="parallel")
            telemetry.checkpoints += 1
            started = time.perf_counter()
            value = task(indices[slot])
            telemetry.note_morsel(
                indices[slot], value[0], time.perf_counter() - started,
                _approx_result_bytes(value[1]))
            results.append((slot, value))
        except BaseException as exc:  # noqa: BLE001 — shipped typed
            error = _encode_error(exc)
    return results, error, telemetry


def _encode_error(exc: BaseException) -> tuple:
    """Flatten a worker exception into a picklable typed tuple.

    Governor errors have multi-argument constructors, so a naive pickle
    of the exception would not survive the trip; their state is carried
    explicitly and rebuilt with the proper constructor in the parent."""
    if isinstance(exc, StatementCancelledError):
        return ("cancel", exc.reason, exc.stage)
    if isinstance(exc, DeadlineExceededError):
        return ("deadline", exc.elapsed, exc.budget, exc.stage)
    if isinstance(exc, ResourceExhaustedError):
        return ("mem", exc.operator, exc.tracked_bytes, exc.limit_bytes)
    return ("generic", type(exc).__name__, str(exc))


def _decode_error(encoded: tuple) -> BaseException:
    kind = encoded[0]
    if kind == "cancel":
        return StatementCancelledError(encoded[1], encoded[2])
    if kind == "deadline":
        return DeadlineExceededError(encoded[1], encoded[2], encoded[3])
    if kind == "mem":
        return ResourceExhaustedError(encoded[1], encoded[2], encoded[3])
    return ExecutionError(
        f"parallel worker failed: {encoded[1]}: {encoded[2]}")


#: Abort precedence when several workers failed: an explicit cancel is
#: never misreported as a timeout (same rule as the governor itself),
#: and typed governor aborts beat generic worker errors.
_ERROR_PRIORITY = {"cancel": 0, "deadline": 1, "mem": 2, "generic": 3}


def _pick_error(errors: List[tuple]) -> tuple:
    return min(errors, key=lambda error: _ERROR_PRIORITY[error[0]])


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_all(fd: int) -> bytes:
    parts: List[bytes] = []
    while True:
        part = os.read(fd, _PIPE_READ_SIZE)
        if not part:
            return b"".join(parts)
        parts.append(part)
