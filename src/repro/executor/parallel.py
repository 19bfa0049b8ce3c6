"""Morsel-driven parallel execution over the column store.

One :class:`ParallelContext` exists per batch-mode execution that
requested more than one worker.  Leaf table scans are split into
*morsels* — one column-store chunk each, so a morsel is exactly one
RowBatch — and dispatched dynamically to a small worker pool: each
worker pulls the next unclaimed chunk index from a shared dispenser
(classic morsel-driven work stealing, so a slow morsel never stalls the
others behind a static partition).  Three operator shapes run this way:

* **scan** — workers apply the scan's compiled filter mask to their
  chunks; the parent re-emits surviving batches *in chunk order*;
* **pre-aggregation** — workers compute per-chunk, per-key partial
  aggregate states; the parent folds them in chunk order through
  ``_Accumulator.fold_partial``, replaying the serial float fold order
  exactly, so results are bit-identical to a serial run;
* **hash-join build** — workers build per-chunk key→rows fragments;
  the parent concatenates buckets in chunk order, preserving the serial
  build table's bucket row order.

Everything nondeterministic (which worker got which morsel, completion
order) is erased at the merge: results are keyed by chunk index and
folded in ascending index order.

Backends
--------

``fork`` (default) uses ``os.fork`` + a pipe per worker: compiled batch
expressions are closures and cannot be pickled, but a forked child
inherits them for free; only plain result tuples travel back through
the pipe.  ``thread`` uses ordinary threads — portable (and what
``fork``-less platforms degrade to) but GIL-bound, so it demonstrates
the machinery rather than a speedup.

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

Each worker — forked or threaded — runs a :class:`WorkerTelemetry`: a
lightweight child tracer (per-morsel records: chunk index, rows
produced, wall seconds) plus a
:class:`repro.observability.MetricsDelta`.  Forked workers pickle the
telemetry back over the existing result pipes alongside the results;
the coordinator then

* grafts one ``parallel_worker`` child span per worker under the open
  ``execute`` span (morsel/row counts, busy seconds, governor
  checkpoints, peak result bytes), so ``EXPLAIN ANALYZE`` and
  ``trace_export()`` see through the fork boundary;
* merges the counter/histogram deltas into the parent
  :class:`~repro.observability.MetricsRegistry`
  (``executor.worker_morsels`` / ``executor.worker_rows`` counters,
  per-morsel ``executor.morsel_seconds`` and per-worker
  ``executor.worker_seconds`` histograms);
* folds forked workers' governor-checkpoint counts back into the
  parent governor (thread/inline workers already share it);
* accumulates per-worker utilization (:meth:`ParallelContext.skew`,
  :meth:`ParallelContext.utilization`) for the execute-span skew
  attributes and ``db.top()``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    ResourceExhaustedError,
    StatementCancelledError,
)
from repro.executor.batch import RowBatch
from repro.governor import BUCKET_OVERHEAD_BYTES, approx_row_bytes
from repro.observability import MetricsDelta, graft_span

#: Backends a :class:`ParallelContext` accepts.
PARALLEL_BACKENDS = ("fork", "thread")

#: Tables smaller than this stay serial: the pool setup costs more than
#: the scan.  Mirrors ``DatabaseConfig.parallel_min_table_rows``.
DEFAULT_MIN_TABLE_ROWS = 2048

#: Bytes read from a worker pipe per ``os.read`` call.
_PIPE_READ_SIZE = 1 << 20


def _count_rows(rows_of: Callable[[object], int], value: object) -> int:
    """Row count of one morsel result, for telemetry only.

    Defensive: a result shape the extractor cannot count (direct
    ``_run_morsels`` callers with scalar tasks) records 0 rows instead
    of failing the morsel — telemetry must never change execution."""
    try:
        return int(rows_of(value))
    except (TypeError, IndexError, KeyError):
        return 0


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

    Lives inside the worker (forked process or thread), records one
    entry per morsel, and travels back to the coordinator — over the
    result pipe for forked workers — as plain picklable state.
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

    def __getstate__(self) -> tuple:
        return (self.worker_id, self.morsels, self.rows, self.seconds,
                self.checkpoints, self.peak_bytes, self.records,
                self.delta)

    def __setstate__(self, state: tuple) -> None:
        (self.worker_id, self.morsels, self.rows, self.seconds,
         self.checkpoints, self.peak_bytes, self.records,
         self.delta) = state


class ParallelContext:
    """Per-execution parallel state: pool policy plus morsel counters."""

    def __init__(self, workers: int, backend: str = "fork",
                 min_table_rows: int = DEFAULT_MIN_TABLE_ROWS,
                 tracer=None, metrics=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in PARALLEL_BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; valid choices: "
                f"{', '.join(PARALLEL_BACKENDS)}")
        self.workers = workers
        #: ``fork`` degrades to ``thread`` where fork is unavailable.
        self.backend = backend if hasattr(os, "fork") else "thread"
        self.min_table_rows = min_table_rows
        #: Tracer worker spans are grafted into (None / disabled = skip).
        self.tracer = tracer
        #: Parent :class:`MetricsRegistry` worker deltas merge into.
        self.metrics = metrics
        #: Chunks dispatched to workers this execution.
        self.morsels = 0
        #: Parallel operators that actually ran (0 after a batch
        #: execution means the plan had no parallel-safe shape — the
        #: facade records ``FallbackReason.EXEC_NOT_PARALLEL_SAFE``).
        self.ops = 0
        #: Largest worker count any single operator used.
        self.workers_spawned = 0
        #: Cumulative per-worker utilization across this execution's
        #: operators: worker id -> [morsels, rows, busy seconds].
        self.worker_stats: Dict[int, List[float]] = {}
        #: Every per-morsel record of this execution:
        #: ``(worker_id, chunk_index, rows, seconds)``.
        self.morsel_records: List[Tuple[int, int, int, float]] = []

    # -- scan eligibility -------------------------------------------------------

    def _plan_scan(self, scan, runtime,
                   predicates: Sequence[tuple]) -> Optional[tuple]:
        """Zone-skip and morsel-plan one leaf scan.

        Returns ``(store, surviving_chunk_indexes)`` or None when the
        table is too small to be worth a pool.  Charges the storage
        counters for *every* chunk here — including skipped ones —
        exactly as the serial scan does.
        """
        storage = runtime.storage
        store = storage.store(scan.table_name)
        if store.row_count < self.min_table_rows \
                or len(store.chunks) < 2:
            return None
        counters = storage.counters
        survivors: List[int] = []
        for index, chunk in enumerate(store.chunks):
            counters.rows_scanned += len(chunk.rows)
            if predicates and chunk.can_skip(predicates):
                counters.chunks_skipped += 1
            else:
                survivors.append(index)
        return store, survivors

    def _note_op(self, n_morsels: int, *nodes) -> int:
        """Account one parallel operator; returns its worker count."""
        n_workers = min(self.workers, max(1, n_morsels))
        self.morsels += n_morsels
        self.ops += 1
        if n_workers > self.workers_spawned:
            self.workers_spawned = n_workers
        for node in nodes:
            node.px_workers = max(node.px_workers, n_workers)
        return n_workers

    # -- operator shapes --------------------------------------------------------

    def scan_batches(self, scan, runtime,
                     predicates: Sequence[tuple]
                     ) -> Optional[Iterator[RowBatch]]:
        """Parallel filtered leaf scan; None when not eligible."""
        planned = self._plan_scan(scan, runtime, predicates)
        if planned is None:
            return None
        store, survivors = planned
        return self._scan_iter(scan, runtime, store, survivors)

    def _scan_iter(self, scan, runtime, store,
                   survivors: List[int]) -> Iterator[RowBatch]:
        scan.actual_loops += 1
        if runtime.injector is not None:
            runtime.injector.fire("scan_io")
        n_workers = self._note_op(len(survivors), scan)
        chunks = store.chunks
        entry_id = scan.entry_id
        mask_fn = scan.bx_filter

        def task(index: int) -> list:
            rows = chunks[index].rows
            batch = RowBatch({entry_id: rows}, len(rows))
            batch = batch.filter_true(mask_fn(batch))
            return batch.columns[entry_id] if batch.length else []

        for rows in self._run_morsels(runtime, survivors, task, n_workers,
                                      op="scan", rows_of=len):
            if rows:
                yield scan._note(runtime,
                                 RowBatch({entry_id: rows}, len(rows)))

    def agg_merge(self, agg, scan, runtime, accumulator_cls,
                  charge: bool = True) -> Optional[tuple]:
        """Parallel pre-aggregation over a leaf scan.

        Workers return ``(kept_rows, [(key, [per-spec partials])])`` per
        chunk with keys in first-seen order; the parent replays the
        serial hash-aggregate loop from those partials in chunk order —
        same group creation order, same float fold order, same per-batch
        governor charges.  Returns ``(groups, order, charged)`` or None
        when the scan is not eligible.
        """
        planned = self._plan_scan(scan, runtime, scan.zone_predicates())
        if planned is None:
            return None
        store, survivors = planned
        scan.actual_loops += 1
        if runtime.injector is not None:
            runtime.injector.fire("scan_io")
        n_workers = self._note_op(len(survivors), agg, scan)
        chunks = store.chunks
        entry_id = scan.entry_id
        mask_fn = scan.bx_filter
        specs = agg.specs
        bx_group = agg.bx_group
        bx_args = agg.bx_args
        partial_of = accumulator_cls.partial_of

        def task(index: int) -> tuple:
            rows = chunks[index].rows
            batch = RowBatch({entry_id: rows}, len(rows))
            if mask_fn is not None:
                batch = batch.filter_true(mask_fn(batch))
            length = batch.length
            if not length:
                return 0, []
            group_cols = [fn(batch) for fn in bx_group]
            arg_cols = [fn(batch) if fn is not None else None
                        for fn in bx_args]
            if group_cols:
                keys = list(zip(*group_cols))
            else:
                keys = [()] * length
            index_map: dict = {}
            batch_order: List[tuple] = []
            for i, key in enumerate(keys):
                idxs = index_map.get(key)
                if idxs is None:
                    index_map[key] = [i]
                    batch_order.append(key)
                else:
                    idxs.append(i)
            merged = []
            for key in batch_order:
                idxs = index_map[key]
                whole = len(idxs) == length
                partials = []
                for spec, column in zip(specs, arg_cols):
                    if column is None:  # COUNT(*)
                        partials.append(len(idxs))
                    elif whole:
                        partials.append(partial_of(spec, column))
                    else:
                        partials.append(partial_of(
                            spec, [column[i] for i in idxs]))
                merged.append((key, partials))
            return length, merged

        results = self._run_morsels(runtime, survivors, task, n_workers,
                                    op="agg_build",
                                    rows_of=lambda r: r[0])
        groups: dict = {}
        order: List[tuple] = []
        gov = runtime.governor
        group_bytes = 0
        charged = 0
        try:
            for length, merged in results:
                if length:
                    scan.actual_batches += 1
                    scan.actual_rows += length
                    runtime.note_counts(length)
                created = 0
                for key, partials in merged:
                    accumulators = groups.get(key)
                    if accumulators is None:
                        accumulators = [accumulator_cls(spec)
                                        for spec in specs]
                        groups[key] = accumulators
                        order.append(key)
                        created += 1
                    for accumulator, partial in zip(accumulators,
                                                    partials):
                        accumulator.fold_partial(partial)
                if charge and gov is not None and created:
                    if group_bytes == 0:
                        group_bytes = agg._group_bytes(order[0])
                    delta = created * group_bytes
                    gov.charge(delta, "hash_agg")
                    charged += delta
        except BaseException:
            if gov is not None and charged:
                gov.release(charged)
            raise
        return groups, order, charged

    def join_build(self, join, scan, runtime) -> Optional[tuple]:
        """Parallel (partitioned) hash-join build over a leaf scan.

        Workers return per-chunk ``{key: [saved rows]}`` fragments; the
        parent extends buckets in chunk order, so every bucket holds its
        rows in exactly the order a serial build inserted them.
        Returns ``(table, charged_bytes)`` or None when not eligible.
        """
        planned = self._plan_scan(scan, runtime, scan.zone_predicates())
        if planned is None:
            return None
        store, survivors = planned
        scan.actual_loops += 1
        if runtime.injector is not None:
            runtime.injector.fire("scan_io")
        n_workers = self._note_op(len(survivors), join, scan)
        chunks = store.chunks
        entry_id = scan.entry_id
        mask_fn = scan.bx_filter
        build_entries = join._build_entries
        bx_build_keys = join.bx_build_keys
        single_key = len(bx_build_keys) == 1

        def task(index: int) -> tuple:
            rows = chunks[index].rows
            batch = RowBatch({entry_id: rows}, len(rows))
            if mask_fn is not None:
                batch = batch.filter_true(mask_fn(batch))
            length = batch.length
            if not length:
                return 0, None, []
            key_cols = [fn(batch) for fn in bx_build_keys]
            saved_cols = [batch.columns[e] for e in build_entries]
            sample = tuple(col[0] for col in saved_cols) \
                if saved_cols else ()
            saved_rows = zip(*saved_cols) if saved_cols \
                else iter([()] * length)
            fragment: dict = {}
            setdefault = fragment.setdefault
            if single_key:
                for key, saved in zip(key_cols[0], saved_rows):
                    if key is not None:
                        setdefault(key, []).append(saved)
            else:
                build_keys = zip(*key_cols) if key_cols \
                    else iter([()] * length)
                for key, saved in zip(build_keys, saved_rows):
                    if None not in key:
                        setdefault(key, []).append(saved)
            return length, sample, list(fragment.items())

        results = self._run_morsels(runtime, survivors, task, n_workers,
                                    op="join_build",
                                    rows_of=lambda r: r[0])
        table: dict = {}
        gov = runtime.governor
        charged = 0
        row_bytes = 0
        try:
            for length, sample, items in results:
                if not length:
                    continue
                scan.actual_batches += 1
                scan.actual_rows += length
                runtime.note_counts(length)
                for key, saved_list in items:
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = saved_list
                    else:
                        bucket.extend(saved_list)
                if gov is not None:
                    # Same sampling as the serial build: the first
                    # non-empty batch's first saved row, in chunk order.
                    if row_bytes == 0:
                        row_bytes = approx_row_bytes(sample) \
                            + BUCKET_OVERHEAD_BYTES
                    delta = length * row_bytes
                    gov.charge(delta, "hash_join_build")
                    charged += delta
        except BaseException:
            if gov is not None and charged:
                gov.release(charged)
            raise
        return table, charged

    # -- telemetry --------------------------------------------------------------

    def _merge_telemetry(self, op: str, telemetries: List[WorkerTelemetry],
                         runtime, op_start: float,
                         external_checkpoints: bool) -> None:
        """Fold worker telemetry into the parent-side surfaces.

        ``external_checkpoints`` is True when the workers ran in forked
        processes whose governor-checkpoint counts the parent never saw
        (thread/inline workers share the parent governor, so merging
        theirs would double-count).
        """
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
            if external_checkpoints and governor is not None:
                governor.note_worker_checkpoints(wt.checkpoints)
            if metrics is not None:
                wt.delta.merge_into(metrics)
                metrics.observe("executor.worker_seconds", wt.seconds)
            if parent is not None:
                graft_span(
                    parent, "parallel_worker",
                    start=op_start, end=op_start + wt.seconds,
                    worker=wt.worker_id, op=op, backend=self.backend,
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
                     task: Callable[[int], object],
                     n_workers: int, op: str = "scan",
                     rows_of: Callable[[object], int] = len
                     ) -> List[object]:
        """Run ``task`` over every chunk index; results in index order.

        Dispatch is dynamic (a shared next-morsel dispenser) but the
        returned list is ordered like ``indices``, so every downstream
        merge is deterministic regardless of scheduling.  ``rows_of``
        extracts the row count from one morsel's result for telemetry
        (each operator shape returns a different result tuple)."""
        op_start = time.perf_counter()
        if n_workers <= 1 or len(indices) <= 1:
            # Degenerate pool: run inline (still a parallel operator for
            # accounting — eligibility, zone skips, merges, *and worker
            # telemetry* behave identically, there was just nothing to
            # overlap).
            governor = runtime.governor
            telemetry = WorkerTelemetry(0)
            results = []
            for index in indices:
                if governor is not None:
                    governor.checkpoint(stage="parallel")
                    telemetry.checkpoints += 1
                started = time.perf_counter()
                value = task(index)
                telemetry.note_morsel(
                    index, _count_rows(rows_of, value),
                    time.perf_counter() - started,
                    _approx_result_bytes(value))
                results.append(value)
            self._merge_telemetry(op, [telemetry], runtime, op_start,
                                  external_checkpoints=False)
            return results
        if self.backend == "fork":
            results, telemetries = self._fork_map(
                runtime, indices, task, n_workers, rows_of)
            self._merge_telemetry(op, telemetries, runtime, op_start,
                                  external_checkpoints=True)
        else:
            results, telemetries = self._thread_map(
                runtime, indices, task, n_workers, rows_of)
            self._merge_telemetry(op, telemetries, runtime, op_start,
                                  external_checkpoints=False)
        return results

    def _thread_map(self, runtime, indices: List[int],
                    task: Callable[[int], object],
                    n_workers: int,
                    rows_of: Callable[[object], int]
                    ) -> Tuple[List[object], List[WorkerTelemetry]]:
        governor = runtime.governor
        next_slot = [0]
        lock = threading.Lock()
        results: List[object] = [None] * len(indices)
        failures: List[BaseException] = []
        telemetries = [WorkerTelemetry(worker)
                       for worker in range(n_workers)]

        def worker_loop(worker_id: int) -> None:
            telemetry = telemetries[worker_id]
            while True:
                with lock:
                    if failures:
                        return
                    slot = next_slot[0]
                    if slot >= len(indices):
                        return
                    next_slot[0] = slot + 1
                try:
                    if governor is not None:
                        governor.checkpoint(stage="parallel")
                        telemetry.checkpoints += 1
                    started = time.perf_counter()
                    value = task(indices[slot])
                    telemetry.note_morsel(
                        indices[slot], _count_rows(rows_of, value),
                        time.perf_counter() - started,
                        _approx_result_bytes(value))
                    results[slot] = value
                except BaseException as exc:  # noqa: BLE001 — shipped
                    with lock:
                        failures.append(exc)
                    return

        threads = [threading.Thread(target=worker_loop, args=(worker,))
                   for worker in range(n_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return results, telemetries

    def _fork_map(self, runtime, indices: List[int],
                  task: Callable[[int], object],
                  n_workers: int,
                  rows_of: Callable[[object], int]
                  ) -> Tuple[List[object], List[WorkerTelemetry]]:
        governor = runtime.governor
        if governor is not None:
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
                        payload = pickle.dumps(
                            _worker_payload(worker_id, indices,
                                            dispenser, lock, task,
                                            governor, rows_of),
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
        results: List[object] = [None] * len(indices)
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
        return results, telemetries


def _worker_payload(worker_id: int, indices: List[int], dispenser, lock,
                    task: Callable[[int], object], governor,
                    rows_of: Callable[[object], int]) -> tuple:
    """One forked worker's whole run: pull morsels until the dispenser
    is empty or a bound trips; returns
    ``([(slot, result), ...], error, telemetry)`` with the error already
    encoded for transport and the telemetry picklable as-is."""
    results: List[Tuple[int, object]] = []
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
            if governor is not None:
                governor.checkpoint(stage="parallel")
                telemetry.checkpoints += 1
            started = time.perf_counter()
            value = task(indices[slot])
            telemetry.note_morsel(
                indices[slot], _count_rows(rows_of, value),
                time.perf_counter() - started,
                _approx_result_bytes(value))
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
