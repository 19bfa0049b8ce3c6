"""Physical plan nodes and their Volcano-style execution.

A plan node tree is produced by MySQL plan refinement (for both the MySQL
and the Orca paths — Section 4.3) and executed against the storage engine.
Execution is context-based: the runtime context is a list indexed by
table-entry id; each access-path node writes the entry's current row into
its slot and *yields control* for every produced combination.  Expressions
read slots directly, which makes correlated evaluation (the paper's
"invalidate on row from part" rebinds) natural: a correlated sub-plan
simply reads the outer entry's current slot.

Every node carries `cost` and `rows` estimates copied from whichever
optimizer produced it, so EXPLAIN shows Orca's estimates on Orca plans
(Section 4.2.2).

Each node's ``run_batches`` is its batch twin.  The joins there have one
output form: a batch of outer (probe) rows becomes two position lists,
outer rows and inner (build) rows, and every output column is gathered
once per output batch (:func:`_gather`).  A hash join keeps its build
side as one column per entry plus a key -> build-positions dict, and a
residual runs as a compiled mask over the candidate pairs, as the
batched index nested loop's join condition does.
"""

from __future__ import annotations

import bisect
import enum
import fractions
import itertools
import math
import operator
import sys
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.executor.batch import (
    BATCH_SIZE,
    RowBatch,
    share_key,
)
from repro.governor import (
    ACCUMULATOR_BYTES,
    BUCKET_OVERHEAD_BYTES,
    ExecutionGovernor,
    approx_row_bytes,
)
from repro.sql import ast
from repro.sql.blocks import QueryBlock
from repro.sql.facts import contains_subquery


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "antijoin"


class AccessMethod(enum.Enum):
    TABLE_SCAN = "table_scan"
    INDEX_RANGE = "index_range"
    INDEX_LOOKUP = "index_lookup"
    INDEX_SCAN = "index_scan"
    MATERIALIZE = "materialize"
    CTE_SCAN = "cte_scan"


class ExecutionRuntime:
    """Per-execution state shared across the whole plan tree."""

    def __init__(self, storage, context_size: int, governor=None,
                 injector=None, parallel=None, batch: bool = False) -> None:
        self.storage = storage
        #: Whether this execution runs batch plans (subquery bodies run
        #: the same engine as the statement that calls them).
        self.batch = batch
        #: Rows per batch for this execution: the storage engine's chunk
        #: size (``DatabaseConfig.batch_size`` through the facade), so
        #: one table chunk is one batch.
        self.batch_size = getattr(storage, "batch_size", BATCH_SIZE)
        #: Morsel-parallel execution context
        #: (:class:`repro.executor.parallel.ParallelContext`) or None for
        #: serial execution — the default and the only mode the row
        #: engine ever uses.
        self.parallel = parallel
        #: Per-statement :class:`repro.governor.ExecutionGovernor`:
        #: deadline/cancel checkpoints and memory charging.  The one
        #: place a default is made — a direct ``Executor.execute`` caller
        #: that passes none runs under an unbounded governor.
        self.governor = governor or ExecutionGovernor()
        #: Execution-stage :class:`repro.resilience.FaultInjector` (or
        #: None): scan_io / mid_batch / alloc_spike chaos sites.
        self.injector = injector
        self.ctx: List = [None] * context_size
        #: cte_id -> materialised rows (single execution per statement,
        #: like MySQL's one-producer-executes model).
        self.cte_rows: Dict[int, List[tuple]] = {}
        #: Per-execution materialisation caches for derived tables, keyed
        #: by plan-node identity -> {correlation snapshot -> rows}.  A
        #: changed snapshot invalidates (re-materialises), matching the
        #: paper's "invalidate on row from ..." semantics; previously seen
        #: snapshots are reused like MySQL's subquery result cache.
        self.materializations: Dict[int, Dict[object, List[tuple]]] = {}
        #: Per-execution subquery-result cache, keyed by
        #: (block id, correlation values).
        self.subquery_cache: Dict[tuple, List[tuple]] = {}
        #: Batch-mode accounting: batches/rows exchanged between
        #: operators (feeds executor.batches / executor.batch_rows).
        self.batches = 0
        self.batch_rows = 0

    def note_batch(self, batch: "RowBatch") -> "RowBatch":
        self.batches += 1
        self.batch_rows += batch.length
        # The batch engine's governor checkpoint: every operator-emitted
        # batch (≤1024 rows) passes through here, which bounds how long
        # a deadline or cancel can go unnoticed in batch mode.
        if self.injector is not None:
            self.injector.fire("mid_batch")
        self.governor.checkpoint()
        return batch

    def note_counts(self, length: int) -> None:
        """Replay one leaf batch's accounting without the batch.

        The parallel merge paths consumed the leaf's batches inside
        workers; this keeps ``batches`` / ``batch_rows`` / checkpoint
        cadence identical to a serial run of the same plan."""
        self.batches += 1
        self.batch_rows += length
        if self.injector is not None:
            self.injector.fire("mid_batch")
        self.governor.checkpoint()


class PlanNode:
    """Base class for physical plan nodes."""

    def __init__(self) -> None:
        self.cost: float = 0.0
        self.rows: float = 0.0
        #: Filter attached during predicate placement (for EXPLAIN).
        self.filter_conjuncts: List[ast.Expr] = []
        #: Compiled filter; identity-true when no conjuncts.
        self.filter_fn: Callable = _always_true
        #: Batch-compiled filter mask (set by batch lowering; None when
        #: no conjuncts or when this node kind never applies one).
        self.bx_filter = None
        #: Always-on actual-row/batch counters, reset per execution by
        #: the Executor; the plan-quality loop reads them against the
        #: optimizer's ``rows`` estimate after every statement.
        self.actual_rows: int = 0
        self.actual_batches: int = 0
        #: How many times this node was (re)started — 1 for a plain
        #: pipeline, N for the inner side of a nested-loop join that
        #: rebinds per outer row.  Q-error compares the per-loop
        #: estimate against ``actual_rows / actual_loops``, mirroring
        #: MySQL's ``(rows=N loops=M)`` EXPLAIN ANALYZE semantics.
        self.actual_loops: int = 0
        #: Worker count of the morsel-parallel operator that ran (part
        #: of) this node in the most recent execution; 0 = serial.
        #: Rendered by EXPLAIN ANALYZE as ``workers=N``.
        self.px_workers: int = 0

    def _note(self, runtime: "ExecutionRuntime",
              batch: "RowBatch") -> "RowBatch":
        """Account one emitted batch on this node and the runtime."""
        self.actual_batches += 1
        self.actual_rows += batch.length
        return runtime.note_batch(batch)

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def produced_entries(self) -> List[int]:
        """Entry ids whose context slots this subtree writes."""
        produced: List[int] = []
        for child in self.children():
            produced.extend(child.produced_entries())
        return produced

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        """Yield once per produced row, its entries left in
        ``runtime.ctx``; every node's ``run_batches`` is the batch twin."""
        raise NotImplementedError

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        """``(kind, expr)`` pairs of the columns this node touches.

        Kinds: ``predicate`` (filters and range/lookup conditions),
        ``join`` (join keys and join conditions — the workload layer
        downgrades a "join" conjunct to ``predicate`` when all of its
        columns come from one table), ``group``, and ``sort``.  Both
        optimizers' plans expose the same hooks, so column-usage
        tracking sees one vocabulary regardless of routing.
        """
        return [("predicate", expr) for expr in self.filter_conjuncts]

    def label(self) -> str:
        raise NotImplementedError


def _always_true(ctx) -> bool:
    return True


def _iter_chunks(rows: List[tuple],
                 batch_size: int = BATCH_SIZE) -> Iterator[List[tuple]]:
    for start in range(0, len(rows), batch_size):
        yield rows[start:start + batch_size]


def _leaf_rows(node: "_LeafNode", runtime: ExecutionRuntime,
               rows) -> Iterator[tuple]:
    """Row-mode leaf instrumentation shared by every access path.

    Fires the ``scan_io`` injection site once per scan start and wraps
    the storage iterator in the governor so a checkpoint runs every
    ``check_interval`` rows — the row engine's only periodic bound in
    plans with no batches."""
    if runtime.injector is not None:
        runtime.injector.fire("scan_io")
    return runtime.governor.wrap_rows(rows)


def _charge_materialized(runtime: ExecutionRuntime,
                         rows: List[tuple]) -> None:
    """Charge a freshly materialised row buffer (derived table / CTE /
    window input).

    Charged for the lifetime of the statement — materialisations are
    cached on the runtime and die with it, so there is no release."""
    if rows:
        runtime.governor.charge(
            len(rows) * (approx_row_bytes(rows[0]) + 16), "materialize")


def _leaf_batches(node: "_LeafNode", runtime: ExecutionRuntime,
                  chunks: Iterator[List[tuple]]) -> Iterator[RowBatch]:
    """Wrap storage chunks for one table entry, applying the leaf's
    attached filter as a vectorized mask (row twin: ``check(ctx)``)."""
    node.actual_loops += 1
    if runtime.injector is not None:
        runtime.injector.fire("scan_io")
    slot = node.entry_id
    mask_fn = node.bx_filter
    for chunk in chunks:
        batch = RowBatch({slot: chunk}, len(chunk))
        if mask_fn is not None:
            batch = batch.filter_true(mask_fn(batch))
        if batch.length:
            yield node._note(runtime, batch)


def _emit(node: PlanNode, batch: RowBatch,
          runtime: ExecutionRuntime) -> Iterator[RowBatch]:
    """Emit a batch through a node's attached filter mask."""
    mask_fn = node.bx_filter
    if mask_fn is not None:
        batch = batch.filter_true(mask_fn(batch))
    if batch.length:
        yield node._note(runtime, batch)


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

class _LeafNode(PlanNode):
    def __init__(self, entry_id: int, alias: str) -> None:
        super().__init__()
        self.entry_id = entry_id
        self.alias = alias

    def produced_entries(self) -> List[int]:
        return [self.entry_id]


class TableScanNode(_LeafNode):
    """Sequential heap scan (benefits from prefetch in the cost models)."""

    method = AccessMethod.TABLE_SCAN

    def __init__(self, entry_id: int, table_name: str, alias: str) -> None:
        super().__init__(entry_id, alias)
        self.table_name = table_name

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        rows = _leaf_rows(self, runtime,
                          runtime.storage.table_scan(self.table_name))
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        chunks = runtime.storage.table_scan_batches(self.table_name)
        yield from _leaf_batches(self, runtime, chunks)

    def label(self) -> str:
        return f"Table scan on {self.alias}"


class IndexRangeScanNode(_LeafNode):
    """Range scan over an index using constant bounds."""

    method = AccessMethod.INDEX_RANGE

    def __init__(self, entry_id: int, table_name: str, alias: str,
                 index_name: str, low: Optional[tuple], high: Optional[tuple],
                 low_inclusive: bool = True, high_inclusive: bool = True
                 ) -> None:
        super().__init__(entry_id, alias)
        self.table_name = table_name
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        rows = _leaf_rows(self, runtime, runtime.storage.index_range_rows(
            self.table_name, self.index_name, self.low, self.high,
            self.low_inclusive, self.high_inclusive))
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        chunks = runtime.storage.index_range_batches(
            self.table_name, self.index_name, self.low, self.high,
            self.low_inclusive, self.high_inclusive, runtime.batch_size)
        yield from _leaf_batches(self, runtime, chunks)

    def label(self) -> str:
        return (f"Index range scan on {self.alias} "
                f"using {self.index_name}")


class IndexLookupNode(_LeafNode):
    """Point lookup with keys computed from the current context (ref).

    This is MySQL's ``ref`` / ``eq_ref`` access: the inner side of an
    index nested-loop join.
    """

    method = AccessMethod.INDEX_LOOKUP

    def __init__(self, entry_id: int, table_name: str, alias: str,
                 index_name: str, key_exprs: List[ast.Expr],
                 key_fns: List[Callable]) -> None:
        super().__init__(entry_id, alias)
        self.table_name = table_name
        self.index_name = index_name
        self.key_exprs = key_exprs
        self.key_fns = key_fns

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        key = tuple(fn(ctx) for fn in self.key_fns)
        if any(part is None for part in key):
            return
        rows = runtime.storage.index_lookup_rows(
            self.table_name, self.index_name, key)
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        # A chain driver or a re-run nested-loop inner: the lookup keys
        # read only bound entries (lowering enforces it), so one row
        # evaluates them.  A batched probe never calls this.
        probe = RowBatch({}, 1)
        key = tuple(column[0] for column in self.bx_keys(probe))
        if any(part is None for part in key):
            return
        rows = runtime.storage.index_lookup_rows(
            self.table_name, self.index_name, key)
        yield from _leaf_batches(self, runtime,
                                 _iter_chunks(rows, runtime.batch_size))

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("join", expr) for expr in self.key_exprs]

    def label(self) -> str:
        keys = ", ".join(_expr_text(expr) for expr in self.key_exprs)
        return (f"Index lookup on {self.alias} using {self.index_name} "
                f"({keys})")


class IndexOrderedScanNode(_LeafNode):
    """Full index scan that supplies rows in key order (Section 7/4)."""

    method = AccessMethod.INDEX_SCAN

    def __init__(self, entry_id: int, table_name: str, alias: str,
                 index_name: str, descending: bool = False) -> None:
        super().__init__(entry_id, alias)
        self.table_name = table_name
        self.index_name = index_name
        self.descending = descending

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        rows = _leaf_rows(self, runtime, runtime.storage.index_ordered_rows(
            self.table_name, self.index_name, self.descending))
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        chunks = runtime.storage.index_ordered_batches(
            self.table_name, self.index_name, self.descending,
            runtime.batch_size)
        yield from _leaf_batches(self, runtime, chunks)

    def label(self) -> str:
        direction = " (reverse)" if self.descending else ""
        return f"Index scan on {self.alias} using {self.index_name}{direction}"


class DerivedMaterializeNode(_LeafNode):
    """Materialise a sub-plan into a temporary table and scan it.

    When ``correlation_sources`` is non-empty the materialisation is
    invalidated whenever any source slot changes — the paper's
    "Materialize (invalidate on row from part)" behaviour in Listing 7.
    """

    method = AccessMethod.MATERIALIZE

    def __init__(self, entry_id: int, alias: str, subplan: "QueryPlan",
                 correlation_sources: List[int]) -> None:
        super().__init__(entry_id, alias)
        self.subplan = subplan
        self.correlation_sources = correlation_sources
        #: Always-on rebind counter, reset per execution like
        #: ``actual_rows``: one per distinct outer-row snapshot that
        #: forces a re-materialisation — "the rebind count is simply the
        #: number of rows coming from the outer side" (Section 7, Orca
        #: change 3), deduplicated by the materialisation cache.
        self.actual_rebinds: int = 0

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        if self.correlation_sources:
            key = tuple(ctx[source] for source in self.correlation_sources)
        else:
            key = None
        by_key = runtime.materializations.setdefault(id(self), {})
        rows = by_key.get(key)
        if rows is None:
            rows = list(self.subplan.run(runtime))
            by_key[key] = rows
            _charge_materialized(runtime, rows)
            self.actual_rebinds += 1
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        # A correlated derived table reads its sources bound in the
        # context: by the nested loop it is the inner of, or by the
        # subquery call whose body it drives.
        if self.correlation_sources:
            ctx = runtime.ctx
            key = tuple(ctx[source] for source in self.correlation_sources)
        else:
            key = None
        by_key = runtime.materializations.setdefault(id(self), {})
        rows = by_key.get(key)
        if rows is None:
            rows = []
            for chunk in self.subplan.run_batches(runtime):
                rows.extend(chunk)
            by_key[key] = rows
            _charge_materialized(runtime, rows)
            self.actual_rebinds += 1
        yield from _leaf_batches(self, runtime,
                                 _iter_chunks(rows, runtime.batch_size))

    def label(self) -> str:
        return f"Table scan on {self.alias}"

    def invalidation_label(self) -> Optional[str]:
        if not self.correlation_sources:
            return None
        return "invalidate on row from outer reference"


class _Never:
    pass


_NEVER = _Never()


class CteScanNode(_LeafNode):
    """Scan of a shared CTE materialisation.

    MySQL compiles one producer per consumer but executes only one
    (Section 4.2.3); the runtime keys materialisations by cte id so the
    first consumer executes the producer and the rest reuse its rows.
    """

    method = AccessMethod.CTE_SCAN

    def __init__(self, entry_id: int, alias: str, cte_id: int,
                 cte_name: str, subplan: "QueryPlan") -> None:
        super().__init__(entry_id, alias)
        self.cte_id = cte_id
        self.cte_name = cte_name
        self.subplan = subplan

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        rows = runtime.cte_rows.get(self.cte_id)
        if rows is None:
            rows = list(self.subplan.run(runtime))
            runtime.cte_rows[self.cte_id] = rows
            _charge_materialized(runtime, rows)
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        rows = runtime.cte_rows.get(self.cte_id)
        if rows is None:
            rows = []
            for chunk in self.subplan.run_batches(runtime):
                rows.extend(chunk)
            runtime.cte_rows[self.cte_id] = rows
            _charge_materialized(runtime, rows)
        yield from _leaf_batches(self, runtime,
                                 _iter_chunks(rows, runtime.batch_size))

    def label(self) -> str:
        return f"Table scan on {self.alias} (cte {self.cte_name})"


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class NestedLoopJoinNode(PlanNode):
    """Nested-loop join; the inner side restarts per outer combination."""

    def __init__(self, outer: PlanNode, inner: PlanNode, kind: JoinKind,
                 conjuncts: List[ast.Expr], condition_fn: Callable) -> None:
        super().__init__()
        self.outer = outer
        self.inner = inner
        self.kind = kind
        self.conjuncts = conjuncts
        self.condition_fn = condition_fn
        self._inner_entries = inner.produced_entries()
        #: Set by batch lowering when the inner side is an index lookup
        #: keyed on outer entries only: run_batches then probes a whole
        #: outer batch at a time (:meth:`_probe_batches`).
        self.bx_probe = False
        self.bx_condition = None

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("join", expr) for expr in self.conjuncts]

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        return self._join(runtime, self.outer.run(runtime))

    def _join(self, runtime: ExecutionRuntime,
              outer_states: Iterator[None]) -> Iterator[None]:
        """The row join loop: per outer row left in the context by
        ``outer_states``, re-run the inner side through the row
        interpreter (it may read outer context slots — index lookups,
        pushed-down correlated predicates)."""
        self.actual_loops += 1
        ctx = runtime.ctx
        condition = self.condition_fn
        check = self.filter_fn
        kind = self.kind
        inner = self.inner
        inner_entries = self._inner_entries
        gov = runtime.governor
        for __ in outer_states:
            # One tick per outer row: NL chains can spin for a long time
            # without emitting anything (anti/semi joins especially), so
            # progress is bounded here rather than only at emission.
            gov.tick()
            matched = False
            for __ in inner.run(runtime):
                if condition(ctx) is not True:
                    continue
                matched = True
                if kind is JoinKind.SEMI or kind is JoinKind.ANTI:
                    break
                if check(ctx) is True:
                    self.actual_rows += 1
                    yield
            if kind is JoinKind.SEMI:
                if matched and check(ctx) is True:
                    self.actual_rows += 1
                    yield
            elif kind is JoinKind.ANTI:
                if not matched:
                    for entry_id in inner_entries:
                        ctx[entry_id] = None
                    if check(ctx) is True:
                        self.actual_rows += 1
                        yield
            elif kind is JoinKind.LEFT and not matched:
                for entry_id in inner_entries:
                    ctx[entry_id] = None
                if check(ctx) is True:
                    self.actual_rows += 1
                    yield

    def _outer_batches(self, runtime: ExecutionRuntime
                       ) -> Iterator[RowBatch]:
        """The outer side as batches.  A nested-loop outer hands over its
        joined batches un-noted: a left-deep NL chain is accounted as
        batches only at its top."""
        outer = self.outer
        if isinstance(outer, NestedLoopJoinNode):
            return outer._joined_batches(runtime)
        return outer.run_batches(runtime)

    def _joined_batches(self, runtime: ExecutionRuntime
                        ) -> Iterator[RowBatch]:
        """Output batches with ``actual_rows`` charged but not yet
        noted as emitted batches."""
        joined = self._probe_batches(runtime) if self.bx_probe \
            else self._rebind_batches(runtime)
        return _rebatch(joined, runtime.batch_size)

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        for batch in self._joined_batches(runtime):
            self.actual_batches += 1
            yield runtime.note_batch(batch)

    def _probe_batches(self, runtime: ExecutionRuntime
                       ) -> Iterator[RowBatch]:
        """Batched index nested loop (MySQL's Batched Key Access shape).

        Eligible when the inner side is an :class:`IndexLookupNode`
        whose keys read only outer (or bound) entries (batch lowering
        sets ``bx_probe``).  Per outer batch the lookup keys are evaluated
        compiled, the index is probed once per outer row with a
        non-NULL key — exactly the row path's lookups, so storage
        counters match — and the inner filter, join condition and join
        filter run as compiled masks over the candidate rows.  Output
        keeps the row path's order (outer row, then index order), one
        batch per outer batch; per-node actual rows and loops are
        charged as the row path charges them.
        """
        self.actual_loops += 1
        inner = self.inner
        kind = self.kind
        slot = inner.entry_id
        lookup = runtime.storage.index_lookup_rows
        table_name = inner.table_name
        index_name = inner.index_name
        inner_mask = inner.bx_filter
        condition = self.bx_condition
        join_mask = self.bx_filter
        gov = runtime.governor
        for batch in self._outer_batches(runtime):
            inner.actual_loops += batch.length
            # Probe: candidate (outer position, inner row) pairs.
            owners: List[int] = []
            found: List[tuple] = []
            key_cols = inner.bx_keys(batch)
            keys = zip(*key_cols) if len(key_cols) > 1 \
                else ((key,) for key in key_cols[0])
            for position, key in enumerate(keys):
                gov.tick()
                if None in key:
                    continue
                rows = lookup(table_name, index_name, key)
                if rows:
                    owners.extend([position] * len(rows))
                    found.extend(rows)
            candidates = _candidates(batch, owners, slot, found)
            if inner_mask is not None:
                mask = inner_mask(candidates)
                owners = list(itertools.compress(owners, mask))
                candidates = candidates.filter_true(mask)
            if kind is JoinKind.INNER or kind is JoinKind.LEFT:
                inner.actual_rows += candidates.length
                if condition is not None:
                    mask = condition(candidates)
                    owners = list(itertools.compress(owners, mask))
                    candidates = candidates.filter_true(mask)
                if kind is JoinKind.INNER:
                    joined = candidates
                else:
                    positions, rows = _null_extend(
                        owners, candidates.columns[slot],
                        range(batch.length), None)
                    joined = candidates if positions is owners \
                        else _candidates(batch, positions, slot, rows)
            else:
                joined = self._first_matches(batch, owners, candidates)
            if join_mask is not None:
                joined = joined.filter_true(join_mask(joined))
            if joined.length:
                self.actual_rows += joined.length
                yield joined

    def _rebind_batches(self, runtime: ExecutionRuntime
                        ) -> Iterator[RowBatch]:
        """Nested loop over an inner side that is not a batched probe.

        Per outer row: bind the outer entries into the context, run the
        inner side's batch plan (lowered with them bound), and evaluate
        the join condition and filter over its batches, with the outer
        entries bound too.  A LEFT or ANTI row without a match goes on
        beside NULL inner rows.  A SEMI or ANTI row stops reading its
        inner side at the first match, and only the inner rows up to it
        count toward the inner node's actual rows, as in the row path.
        Output keeps the row path's order, one batch per outer batch.
        """
        self.actual_loops += 1
        ctx = runtime.ctx
        inner = self.inner
        kind = self.kind
        first_only = kind is JoinKind.SEMI or kind is JoinKind.ANTI
        condition = self.bx_condition
        join_mask = self.bx_filter
        inner_entries = self._inner_entries
        nulls = RowBatch({entry: [None] for entry in inner_entries}, 1)
        gov = runtime.governor
        for batch in self._outer_batches(runtime):
            outer_cols = list(batch.columns.items())
            positions: List[int] = []
            inner_cols: Dict[int, list] = {entry: []
                                           for entry in inner_entries}
            for position in range(batch.length):
                gov.tick()
                for entry, column in outer_cols:
                    ctx[entry] = column[position]
                out: List[RowBatch] = []
                matched = False
                parts = inner.run_batches(runtime)
                for part in parts:
                    mask = condition(part) if condition is not None \
                        else [True] * part.length
                    if first_only:
                        hit = next((at for at, passed in enumerate(mask)
                                    if passed is True), None)
                        if hit is None:
                            continue
                        inner.actual_rows -= part.length - hit - 1
                        matched = True
                        if kind is JoinKind.SEMI:
                            out.append(part.slice(hit, hit + 1))
                        break
                    part = part.filter_true(mask)
                    if part.length:
                        matched = True
                        out.append(part)
                parts.close()
                if not matched and kind is not JoinKind.INNER \
                        and kind is not JoinKind.SEMI:
                    out.append(nulls)
                for part in out:
                    if join_mask is not None:
                        part = part.filter_true(join_mask(part))
                    positions.extend([position] * part.length)
                    for entry in inner_entries:
                        inner_cols[entry].extend(part.columns[entry])
            if positions:
                joined = _gather(outer_cols, positions)
                joined.update(inner_cols)
                self.actual_rows += len(positions)
                yield RowBatch(joined, len(positions))

    def _first_matches(self, batch: RowBatch, owners: List[int],
                       candidates: RowBatch) -> RowBatch:
        """SEMI / ANTI output of one outer batch.  The row path stops
        reading an outer row's inner rows at its first match, so only
        the inner rows up to it count toward the inner node's actual
        rows."""
        slot = self.inner.entry_id
        condition = self.bx_condition
        mask = condition(candidates) if condition is not None \
            else [True] * candidates.length
        picked, read = _first_matches(owners, mask)
        self.inner.actual_rows += read
        if self.kind is JoinKind.SEMI:
            found = candidates.columns[slot]
            return _candidates(batch, [owners[at] for at in picked], slot,
                               [found[at] for at in picked])
        kept = _unmatched(range(batch.length),
                          [owners[at] for at in picked])
        return _candidates(batch, kept, slot, [None] * len(kept))

    def label(self) -> str:
        if self.kind is JoinKind.INNER:
            return "Nested loop inner join"
        if self.kind is JoinKind.LEFT:
            return "Nested loop left join"
        if self.kind is JoinKind.SEMI:
            return "Nested loop semijoin"
        return "Nested loop antijoin"


def _rebatch(batches: Iterator[RowBatch], size: int) -> Iterator[RowBatch]:
    """Re-cut a stream of batches into batches of exactly ``size`` rows
    (the last one shorter) — the cut a row-at-a-time emitter makes."""
    pending: Dict[int, list] = {}
    length = 0
    for batch in batches:
        if not pending:
            pending = {entry: [] for entry in batch.columns}
        for entry, column in batch.columns.items():
            pending[entry].extend(column)
        length += batch.length
        if length < size:
            continue
        start = 0
        while length - start >= size:
            yield RowBatch({entry: column[start:start + size]
                            for entry, column in pending.items()}, size)
            start += size
        pending = {entry: column[start:]
                   for entry, column in pending.items()}
        length -= start
    if length:
        yield RowBatch(pending, length)


def _gather(columns, positions: List[int]) -> Dict[int, list]:
    """Each ``(entry, column)`` of ``columns`` at ``positions``: the one
    way a join builds output columns, once per entry per output batch."""
    return {entry: list(map(column.__getitem__, positions))
            for entry, column in columns}


def _candidates(batch: RowBatch, positions: List[int], slot: int,
                inner_rows: list) -> RowBatch:
    """A batch of the outer ``batch`` at ``positions`` beside the
    matching ``inner_rows`` in ``slot``."""
    gathered = _gather(batch.columns.items(), positions)
    gathered[slot] = inner_rows
    return RowBatch(gathered, len(positions))


def _first_matches(owners: List[int], mask: list) -> Tuple[List[int], int]:
    """The index of each owner's first passing candidate, and how many
    candidates were read up to it.

    ``owners`` holds each candidate's outer position, in order; a
    candidate after its owner's first match is never read.  The nested
    loop charges the read count to its inner side; a hash join's build
    side has its actuals already."""
    read = 0
    done = -1
    picked: List[int] = []
    for at, (owner, passed) in enumerate(zip(owners, mask)):
        if owner == done:
            continue
        read += 1
        if passed is True:
            done = owner
            picked.append(at)
    return picked, read


def _unmatched(rows: range, matched: List[int]) -> List[int]:
    """The positions of ``rows`` that ``matched`` does not hold."""
    found = set(matched)
    return [position for position in rows if position not in found]


def _null_extend(owners: List[int], values: list, rows: range,
                 null) -> Tuple[List[int], list]:
    """LEFT join output of the outer ``rows`` as (outer positions, inner
    values): each row's matches in order (``owners`` / ``values``), or
    the row once beside ``null`` when it has none.  Returns ``owners``
    itself when every row has a match."""
    if len(set(owners)) == len(rows):
        return owners, values
    positions: List[int] = []
    out: list = []
    at = 0
    count = len(owners)
    for position in rows:
        if at < count and owners[at] == position:
            while at < count and owners[at] == position:
                positions.append(position)
                out.append(values[at])
                at += 1
        else:
            positions.append(position)
            out.append(null)
    return positions, out


class HashJoinNode(PlanNode):
    """Hash join: materialises the build side, probes with the other.

    The *probe* child is the row-preserving side for LEFT / SEMI / ANTI
    kinds.  Note the paper's lesson 2 (Section 7): MySQL's *inner* hash
    join reverses the usual build/probe convention; the plan converter
    performs that flip before constructing this node, so here build is
    always build.
    """

    def __init__(self, probe: PlanNode, build: PlanNode, kind: JoinKind,
                 probe_key_exprs: List[ast.Expr], probe_key_fns: List[Callable],
                 build_key_exprs: List[ast.Expr], build_key_fns: List[Callable],
                 residual_conjuncts: List[ast.Expr],
                 residual_fn: Callable) -> None:
        super().__init__()
        self.probe = probe
        self.build = build
        self.kind = kind
        self.probe_key_exprs = probe_key_exprs
        self.probe_key_fns = probe_key_fns
        self.build_key_exprs = build_key_exprs
        self.build_key_fns = build_key_fns
        self.residual_conjuncts = residual_conjuncts
        self.residual_fn = residual_fn
        self._build_entries = build.produced_entries()
        self._probe_entries = probe.produced_entries()
        #: Residual mask over candidate pairs (set by batch lowering;
        #: None without residual conjuncts).
        self.bx_condition = None

    def children(self) -> Sequence[PlanNode]:
        return (self.probe, self.build)

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("join", expr) for expr in self.probe_key_exprs] \
            + [("join", expr) for expr in self.build_key_exprs] \
            + [("join", expr) for expr in self.residual_conjuncts]

    def _build_table_rows(self, runtime: ExecutionRuntime
                          ) -> Tuple[Dict[tuple, List[tuple]], int]:
        """Materialise the build side, charging the governor as it grows.

        The per-row byte width is sampled from the first saved tuple;
        charges go out in 128-row chunks to stay off the hot path.
        Returns the table plus the total charged bytes (released by the
        caller when the probe finishes or the generator is closed)."""
        ctx = runtime.ctx
        build_entries = self._build_entries
        table: Dict[tuple, List[tuple]] = {}
        build_fns = self.build_key_fns
        gov = runtime.governor
        charged = 0
        row_bytes = 0
        pending = 0
        for __ in self.build.run(runtime):
            key = tuple(fn(ctx) for fn in build_fns)
            if any(part is None for part in key):
                continue
            saved = tuple(ctx[entry_id] for entry_id in build_entries)
            table.setdefault(key, []).append(saved)
            if row_bytes == 0:
                row_bytes = approx_row_bytes(saved) \
                    + BUCKET_OVERHEAD_BYTES
            pending += 1
            if pending >= 128:
                delta = pending * row_bytes
                gov.charge(delta, "hash_join_build")
                charged += delta
                pending = 0
        if pending:
            delta = pending * row_bytes
            gov.charge(delta, "hash_join_build")
            charged += delta
        return table, charged

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        build_entries = self._build_entries
        table, charged = self._build_table_rows(runtime)
        gov = runtime.governor
        try:
            yield from self._probe_rows(runtime, table)
        finally:
            if charged:
                gov.release(charged)

    def _probe_rows(self, runtime: ExecutionRuntime,
                    table: Dict[tuple, List[tuple]]) -> Iterator[None]:
        ctx = runtime.ctx
        build_entries = self._build_entries
        probe_fns = self.probe_key_fns
        residual = self.residual_fn
        check = self.filter_fn
        kind = self.kind
        empty: List[tuple] = []
        for __ in self.probe.run(runtime):
            key = tuple(fn(ctx) for fn in probe_fns)
            bucket = empty if any(part is None for part in key) \
                else table.get(key, empty)
            matched = False
            for saved in bucket:
                for entry_id, row in zip(build_entries, saved):
                    ctx[entry_id] = row
                if residual(ctx) is not True:
                    continue
                matched = True
                if kind is JoinKind.SEMI or kind is JoinKind.ANTI:
                    break
                if check(ctx) is True:
                    self.actual_rows += 1
                    yield
            if kind is JoinKind.SEMI:
                if matched and check(ctx) is True:
                    self.actual_rows += 1
                    yield
            elif kind is JoinKind.ANTI:
                if not matched:
                    for entry_id in build_entries:
                        ctx[entry_id] = None
                    if check(ctx) is True:
                        self.actual_rows += 1
                        yield
            elif kind is JoinKind.LEFT and not matched:
                for entry_id in build_entries:
                    ctx[entry_id] = None
                if check(ctx) is True:
                    self.actual_rows += 1
                    yield

    def _build_table_batches(self, runtime: ExecutionRuntime
                             ) -> Tuple[Dict[object, List[int]],
                                        List[list], int, int]:
        """Materialise the build side as one column per build entry,
        concatenated across build batches, and a table from each
        non-NULL key to the build positions holding it, in build order.

        Single-key joins (the common case) key the table by the bare
        scalar; the dict equality matches 1-tuple keys exactly, without
        a tuple per row.  Every column ends with one ``None``, at the
        returned sentinel position: a probe row that a LEFT or ANTI join
        null-extends reads its build entries there.  Charges the
        governor per build batch, ``row_bytes`` sampled from the first
        build row; returns the charged bytes too, released by the caller
        when the probe finishes or the generator is closed."""
        build_entries = self._build_entries
        single_key = len(self.build_key_exprs) == 1
        table: Dict[object, List[int]] = {}
        setdefault = table.setdefault
        columns: List[list] = [[] for __ in build_entries]
        size = 0
        gov = runtime.governor
        charged = 0
        row_bytes = 0
        for build_batch in self.build.run_batches(runtime):
            length = build_batch.length
            if not length:
                continue
            key_cols = self.bx_build_keys(build_batch)
            batch_cols = [build_batch.columns[e] for e in build_entries]
            for column, part in zip(columns, batch_cols):
                column.extend(part)
            positions = range(size, size + length)
            if single_key:
                for key, position in zip(key_cols[0], positions):
                    if key is not None:
                        setdefault(key, []).append(position)
            elif key_cols:
                for key, position in zip(zip(*key_cols), positions):
                    if None not in key:
                        setdefault(key, []).append(position)
            else:  # cross join: every row keys to the () bucket
                setdefault((), []).extend(positions)
            size += length
            if row_bytes == 0:
                sample = tuple(column[0] for column in batch_cols)
                row_bytes = approx_row_bytes(sample) + BUCKET_OVERHEAD_BYTES
            delta = length * row_bytes
            gov.charge(delta, "hash_join_build")
            charged += delta
        for column in columns:
            column.append(None)
        return table, columns, size, charged

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Build, then probe a batch at a time: each probe batch becomes
        two position lists (probe rows, build rows), and each output
        batch gathers every entry's column once."""
        self.actual_loops += 1
        table, columns, sentinel, charged = \
            self._build_table_batches(runtime)
        gov = runtime.governor
        try:
            yield from self._probe_batches(runtime, table, columns,
                                           sentinel)
        finally:
            if charged:
                gov.release(charged)

    def _pieces(self, runtime: ExecutionRuntime,
                table: Dict[object, List[int]],
                build: List[Tuple[int, list]], sentinel: int
                ) -> Iterator[Tuple[List[Tuple[int, list]], List[int],
                                    List[int]]]:
        """The output as (probe columns, probe positions, build
        positions) pieces, in probe order and, per probe row, build
        order.

        NULL keys are never in the table, so the lookup doubles as the
        NULL check.  A piece covers whole probe rows of one probe batch
        with at most ``batch_size`` candidate pairs between them (or one
        probe row), so a join that fans out holds about a batch of
        positions at a time, as a row-at-a-time emitter held about a
        batch of rows."""
        limit = runtime.batch_size
        for batch in self.probe.run_batches(runtime):
            probe = [(e, batch.columns[e]) for e in self._probe_entries]
            key_cols = self.bx_probe_keys(batch)
            length = batch.length
            if len(self.build_key_exprs) == 1:
                keys: Iterator = iter(key_cols[0])
            elif key_cols:
                keys = zip(*key_cols)
            else:  # cross join: every row keys to the () bucket
                keys = itertools.repeat((), length)
            buckets = list(map(table.get, keys, itertools.repeat(())))
            if sum(map(len, buckets)) <= limit:
                cuts = [0, length]
            else:
                ends = list(itertools.accumulate(map(len, buckets)))
                cuts = [0]
                while cuts[-1] < length:
                    start = cuts[-1]
                    taken = ends[start - 1] if start else 0
                    cuts.append(max(start + 1, bisect.bisect_right(
                        ends, taken + limit, start)))
            for start, stop in zip(cuts, cuts[1:]):
                probes, builds = self._matches(
                    buckets[start:stop] if stop - start < length
                    else buckets, range(start, stop), probe, build,
                    sentinel)
                yield probe, probes, builds

    def _matches(self, buckets: list, rows: range,
                 probe: List[Tuple[int, list]],
                 build: List[Tuple[int, list]], sentinel: int
                 ) -> Tuple[List[int], List[int]]:
        """The output positions of the probe ``rows``, whose build
        positions are ``buckets``.

        A residual runs as one compiled mask over the candidate pairs; a
        SEMI or ANTI row then takes its first passing candidate, and a
        LEFT row without one is null-extended, as in the batched index
        nested loop.  Null extension pairs a probe row with the
        ``sentinel`` build position."""
        kind = self.kind
        condition = self.bx_condition
        if condition is None:
            if kind is JoinKind.ANTI:
                kept = list(itertools.compress(
                    rows, map(operator.not_, buckets)))
                return kept, [sentinel] * len(kept)
            if kind is JoinKind.SEMI:
                return (list(itertools.compress(rows, buckets)),
                        [bucket[0] for bucket in filter(None, buckets)])
            if kind is JoinKind.LEFT:
                unmatched = [sentinel]
                buckets = [bucket or unmatched for bucket in buckets]
        probes = list(itertools.compress(rows, buckets))
        found = list(filter(None, buckets))
        builds = list(itertools.chain.from_iterable(found))
        if len(builds) != len(probes):
            probes = list(itertools.chain.from_iterable(
                map(itertools.repeat, probes, map(len, found))))
        if condition is None:
            return probes, builds
        candidates = _gather(probe, probes)
        candidates.update(_gather(build, builds))
        mask = condition(RowBatch(candidates, len(probes)))
        if kind is JoinKind.SEMI or kind is JoinKind.ANTI:
            picked, __ = _first_matches(probes, mask)
            if kind is JoinKind.SEMI:
                return ([probes[at] for at in picked],
                        [builds[at] for at in picked])
            kept = _unmatched(rows, [probes[at] for at in picked])
            return kept, [sentinel] * len(kept)
        probes = list(itertools.compress(probes, mask))
        builds = list(itertools.compress(builds, mask))
        if kind is JoinKind.LEFT:
            return _null_extend(probes, builds, rows, sentinel)
        return probes, builds

    def _probe_batches(self, runtime: ExecutionRuntime,
                       table: Dict[object, List[int]], columns: List[list],
                       sentinel: int) -> Iterator[RowBatch]:
        """Output batches cut where a row-at-a-time emitter cuts them:
        an inner join without a residual after the probe row whose
        matches bring the pending rows to ``batch_size`` or more (a
        probe row's matches stay in one batch), every other join at
        exactly ``batch_size``.  Rows left over at the end of a piece
        wait, gathered, for the next one."""
        size = runtime.batch_size
        whole_rows = self.kind is JoinKind.INNER \
            and self.bx_condition is None
        build = list(zip(self._build_entries, columns))
        pending: Dict[int, list] = {}
        waiting = 0
        for probe, probes, builds in self._pieces(runtime, table, build,
                                                  sentinel):
            total = len(probes)
            start = 0
            while start < total:
                end = start + size - waiting
                if end > total:
                    end = total
                elif whole_rows:
                    end = bisect.bisect_right(probes, probes[end - 1], end)
                whole = end - start == total
                out = _gather(probe, probes if whole else probes[start:end])
                out.update(_gather(build,
                                   builds if whole else builds[start:end]))
                if waiting:
                    for entry, column in out.items():
                        pending[entry].extend(column)
                else:
                    pending = out
                waiting += end - start
                start = end
                if waiting >= size:
                    yield from _emit(self, RowBatch(pending, waiting),
                                     runtime)
                    waiting = 0
        if waiting:
            yield from _emit(self, RowBatch(pending, waiting), runtime)

    def label(self) -> str:
        keys = ", ".join(
            f"{_expr_text(p)} = {_expr_text(b)}"
            for p, b in zip(self.probe_key_exprs, self.build_key_exprs))
        if self.kind is JoinKind.INNER:
            name = "Inner hash join"
        elif self.kind is JoinKind.LEFT:
            name = "Left hash join"
        elif self.kind is JoinKind.SEMI:
            name = "Hash semijoin"
        else:
            name = "Hash antijoin"
        return f"{name} ({keys})" if keys else f"{name} (cross)"


# ---------------------------------------------------------------------------
# Block-level operators
# ---------------------------------------------------------------------------

class FilterNode(PlanNode):
    """Stand-alone filter (used for HAVING and leftover predicates)."""

    def __init__(self, child: PlanNode, conjuncts: List[ast.Expr],
                 condition_fn: Callable) -> None:
        super().__init__()
        self.child = child
        self.conjuncts = conjuncts
        self.condition_fn = condition_fn

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        condition = self.condition_fn
        ctx = runtime.ctx
        for __ in self.child.run(runtime):
            if condition(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        self.actual_loops += 1
        condition = self.bx_condition
        for batch in self.child.run_batches(runtime):
            if condition is not None:
                batch = batch.filter_true(condition(batch))
            if batch.length:
                yield self._note(runtime, batch)

    def label(self) -> str:
        text = " and ".join(_expr_text(c) for c in self.conjuncts)
        return f"Filter: ({text})"


class SortNode(PlanNode):
    """Materialising sort over the live context slots."""

    def __init__(self, child: PlanNode, order_items: List[ast.OrderItem],
                 key_fns: List[Callable], live_entries: List[int]) -> None:
        super().__init__()
        self.child = child
        self.order_items = order_items
        self.key_fns = key_fns
        self.live_entries = live_entries

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("sort", item.expr) for item in self.order_items]

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        live = self.live_entries
        captured: List[Tuple[tuple, tuple]] = []
        gov = runtime.governor
        # Under the reduced-memory retry the sort a forced streaming
        # aggregate inserted must not re-breach the cap it is there to
        # relieve: its charges spill (counted) instead of raising.
        spillable = gov.spill_sorts
        row_bytes = 0
        pending = 0
        charged = 0
        try:
            for __ in self.child.run(runtime):
                keys = tuple(fn(ctx) for fn in self.key_fns)
                captured.append((keys, tuple(ctx[e] for e in live)))
                if row_bytes == 0:
                    first = captured[0]
                    row_bytes = approx_row_bytes(first[0]) \
                        + approx_row_bytes(first[1])
                pending += 1
                if pending >= 256:
                    delta = pending * row_bytes
                    gov.charge(delta, "sort", spillable)
                    charged += delta
                    pending = 0
            if pending:
                delta = pending * row_bytes
                gov.charge(delta, "sort", spillable)
                charged += delta
            sort_rows(captured, self.order_items)
            for __, saved in captured:
                for entry_id, row in zip(live, saved):
                    ctx[entry_id] = row
                self.actual_rows += 1
                yield
        finally:
            if charged:
                gov.release(charged)

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Column-wise sort: key and live columns are gathered per batch,
        a permutation of row positions is sorted over the key columns
        (:func:`sort_permutation`), and each live column leaves through
        the permutation — no per-row tuples on either side."""
        self.actual_loops += 1
        entries: Optional[List[int]] = None
        key_cols: List[list] = []
        live_cols: List[list] = []
        length = 0
        gov = runtime.governor
        spillable = gov.spill_sorts
        row_bytes = 0
        charged = 0
        try:
            for batch in self.child.run_batches(runtime):
                if entries is None:
                    # Live entries the child actually produces in batch
                    # form (a post-aggregate sort's live list can include
                    # pre-agg entries the row engine merely leaves stale
                    # in ctx).
                    entries = [e for e in self.live_entries
                               if e in batch.columns]
                    key_cols = [[] for __ in self.order_items]
                    live_cols = [[] for __ in entries]
                for column, values in zip(key_cols, self.bx_keys(batch)):
                    column.extend(values)
                for column, entry in zip(live_cols, entries):
                    column.extend(batch.columns[entry])
                length += batch.length
                if batch.length:
                    if row_bytes == 0:
                        # The row engine's estimate: its first captured
                        # (key tuple, live tuple) pair.
                        row_bytes = approx_row_bytes(
                            tuple(column[0] for column in key_cols)) \
                            + approx_row_bytes(
                                tuple(column[0] for column in live_cols))
                    delta = batch.length * row_bytes
                    gov.charge(delta, "sort", spillable)
                    charged += delta
            if entries is None:
                return
            order = sort_permutation(
                key_cols, [item.descending for item in self.order_items],
                length)
            size = runtime.batch_size
            for start in range(0, length, size):
                part = order[start:start + size]
                columns = {entry: list(map(column.__getitem__, part))
                           for entry, column in zip(entries, live_cols)}
                yield self._note(runtime, RowBatch(columns, len(part)))
        finally:
            if charged:
                gov.release(charged)

    def label(self) -> str:
        parts = []
        for item in self.order_items:
            text = _expr_text(item.expr)
            parts.append(f"{text} DESC" if item.descending else text)
        return "Sort: " + ", ".join(parts)


def sort_permutation(key_cols: Sequence[list], descending: Sequence[bool],
                     length: int) -> List[int]:
    """Row positions ``0 .. length-1`` in ORDER BY order.

    Stable, with MySQL's NULL placement: NULLs first ascending, last
    descending.  One stable pass per key runs from least to most
    significant over the positions, keyed by the column itself
    (``column.__getitem__``, a C-level key: no per-row key object).
    NULL placement is decided once per column: only a column that holds
    a NULL pays for it — its non-NULL positions are sorted and its NULL
    positions, in their current order, go in front (ascending) or
    behind (descending).  A pass per key is the order one sort over
    ``(flag, value)`` key tuples would give, and measured faster than a
    single pass over zipped key tuples even when no key holds a NULL.
    """
    order = list(range(length))
    if length < 2:
        return order
    for column, desc in reversed(list(zip(key_cols, descending))):
        if None not in column:
            order.sort(key=column.__getitem__, reverse=desc)
            continue
        nulls = [pos for pos in order if column[pos] is None]
        order = [pos for pos in order if column[pos] is not None]
        order.sort(key=column.__getitem__, reverse=desc)
        order = order + nulls if desc else nulls + order
    return order


def sort_rows(captured: List[Tuple[tuple, tuple]],
              order_items: List[ast.OrderItem]) -> None:
    """Sort ``(key tuple, payload)`` pairs in place in ORDER BY order —
    the row engine's entry to :func:`sort_permutation`, so both engines
    order ties identically."""
    if len(captured) < 2 or not order_items:
        return
    key_cols = [list(column) for column
                in zip(*(keys for keys, __ in captured))]
    order = sort_permutation(
        key_cols, [item.descending for item in order_items], len(captured))
    captured[:] = [captured[pos] for pos in order]


class AggSpec:
    """One aggregate computation within an AggregateNode."""

    def __init__(self, func: ast.AggFunc, arg_fn: Optional[Callable],
                 distinct: bool, star: bool,
                 arg_expr: Optional[ast.Expr] = None) -> None:
        self.func = func
        self.arg_fn = arg_fn
        self.distinct = distinct
        self.star = star
        #: Source expression of the argument (batch lowering re-compiles
        #: it vectorized; None for COUNT(*)).
        self.arg_expr = arg_expr


class AggregateStrategy(enum.Enum):
    HASH = "hash"
    STREAM = "stream"


class AggregateNode(PlanNode):
    """Grouping and aggregation; output goes to the block's agg entry.

    STREAM requires input grouped on the group keys (the builder inserts a
    sort when needed — MySQL's classic sort-then-stream aggregation, which
    the paper's Q72 plans both use).
    """

    def __init__(self, child: Optional[PlanNode], group_fns: List[Callable],
                 group_exprs: List[ast.Expr], specs: List[AggSpec],
                 strategy: AggregateStrategy, output_entry_id: int) -> None:
        super().__init__()
        self.child = child
        self.group_fns = group_fns
        self.group_exprs = group_exprs
        self.specs = specs
        self.strategy = strategy
        self.output_entry_id = output_entry_id
        #: One accumulator per *fold*: SUM(x) and AVG(x) over the same
        #: argument read one running sum.  ``readers`` maps each spec,
        #: in order, to its fold's index and the aggregate it reads.
        self.folds: List[AggSpec] = []
        self.readers: List[Tuple[int, ast.AggFunc]] = []
        shared: Dict[tuple, int] = {}
        for spec in specs:
            index = len(self.folds)
            if spec.func in (ast.AggFunc.SUM, ast.AggFunc.AVG) \
                    and spec.arg_expr is not None:
                key = share_key(spec.arg_expr, {})
                if key is not None:
                    index = shared.setdefault((key, spec.distinct), index)
            if index == len(self.folds):
                self.folds.append(spec)
            self.readers.append((index, spec.func))

    def children(self) -> Sequence[PlanNode]:
        return (self.child,) if self.child is not None else ()

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("group", expr) for expr in self.group_exprs]

    def _new_group(self) -> List["_Accumulator"]:
        return [_Accumulator(spec) for spec in self.folds]

    def _group(self, key: tuple, groups: Dict[tuple, List["_Accumulator"]],
               order: List[tuple]) -> List["_Accumulator"]:
        """``key``'s accumulators, created (and ``key`` appended to
        ``order``) on first sight."""
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = groups[key] = self._new_group()
            order.append(key)
        return accumulators

    def _results(self, accumulators: List["_Accumulator"]) -> tuple:
        """One group's aggregate values, in spec order."""
        return tuple(accumulators[index].result(func)
                     for index, func in self.readers)

    def produced_entries(self) -> List[int]:
        return [self.output_entry_id]

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        if self.strategy is AggregateStrategy.STREAM:
            yield from self._run_stream(runtime)
        else:
            yield from self._run_hash(runtime)

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        self.actual_loops += 1
        if self.strategy is AggregateStrategy.STREAM:
            yield from self._run_stream_batches(runtime)
        else:
            yield from self._run_hash_batches(runtime)

    def _child_states(self, runtime: ExecutionRuntime) -> Iterator[None]:
        if self.child is None:
            yield  # SELECT without FROM: one empty input state
        else:
            yield from self.child.run(runtime)

    def _child_batches(self, runtime: ExecutionRuntime
                       ) -> Iterator[RowBatch]:
        if self.child is None:
            yield RowBatch({}, 1)  # one empty input state
        else:
            yield from self.child.run_batches(runtime)

    def _input_columns(self, batch: RowBatch
                       ) -> Tuple[List[list], List[Optional[list]]]:
        """Group key columns and, per fold, its argument column (None
        for COUNT(*)) for one batch: one evaluator call
        (``bx_inputs``, set by batch lowering with ``input_slots``) —
        the serial paths and the parallel workers alike."""
        columns = self.bx_inputs(batch)
        return (columns[:len(self.group_exprs)],
                [columns[slot] if slot is not None else None
                 for slot in self.input_slots])

    def _parallel_merge(self, runtime: ExecutionRuntime, charge: bool):
        """Attempt the morsel-parallel pre-aggregation merge.

        Eligible when the input is a bare table scan, no aggregate is
        DISTINCT (de-duplication needs every value, not per-chunk
        states) and no filter, group key or argument holds a subquery (a
        worker would run its body, unpriced and uncounted by the
        parent).  Returns ``(groups, order, charged)`` or None; the
        workers fold each chunk with :meth:`fold_batch` and the parent
        merges their per-key accumulator states in chunk order."""
        parallel = runtime.parallel
        if parallel is None or not isinstance(self.child, TableScanNode) \
                or any(spec.distinct for spec in self.folds):
            return None
        exprs = self.child.filter_conjuncts + self.group_exprs + [
            spec.arg_expr for spec in self.specs if spec.arg_expr is not None]
        if any(contains_subquery(expr) for expr in exprs):
            return None
        return parallel.agg_merge(self, self.child, runtime, charge=charge)

    def fold_batch(self, batch: RowBatch,
                   groups: Dict[tuple, List["_Accumulator"]],
                   order: List[tuple]) -> int:
        """Fold one batch into ``groups`` (new keys appended to
        ``order``); the number of groups it created.

        Gathers each key's row indexes, then folds the gathered argument
        slices in bulk.  The sums are exact, so neither the gather order
        nor how rows are cut into batches changes a result."""
        group_cols, arg_cols = self._input_columns(batch)
        length = batch.length
        if group_cols:
            keys = list(zip(*group_cols))
        else:
            keys = [()] * length
        index_map: Dict[tuple, List[int]] = {}
        batch_order: List[tuple] = []
        for i, key in enumerate(keys):
            idxs = index_map.get(key)
            if idxs is None:
                index_map[key] = [i]
                batch_order.append(key)
            else:
                idxs.append(i)
        before = len(order)
        for key in batch_order:
            idxs = index_map[key]
            whole = len(idxs) == length
            for accumulator, column, proven in zip(
                    self._group(key, groups, order), arg_cols,
                    self.proven_args):
                if column is None:  # COUNT(*)
                    accumulator.count += len(idxs)
                elif whole:
                    accumulator.add_many(column, proven)
                else:
                    accumulator.add_many([column[i] for i in idxs], proven)
        return len(order) - before

    def merge_states(self, states: List[tuple],
                     groups: Dict[tuple, List["_Accumulator"]],
                     order: List[tuple]) -> int:
        """Merge one chunk's ``[(key, [per-fold state])]`` (a fork
        worker's :meth:`fold_batch`) into ``groups``; the number of
        groups it created."""
        before = len(order)
        for key, key_states in states:
            for accumulator, state in zip(self._group(key, groups, order),
                                          key_states):
                accumulator.merge(state)
        return len(order) - before

    def fold_hash(self, runtime: ExecutionRuntime, pieces, fold,
                  charge: bool = True) -> tuple:
        """Fold each of ``pieces`` into the groups with ``fold(piece,
        groups, order)``, which returns the groups it created, and charge
        the governor per piece for them: ``(groups, order, charged)``.
        A scalar aggregate over no input has one empty group."""
        groups: Dict[tuple, List[_Accumulator]] = {}
        order: List[tuple] = []
        gov = runtime.governor
        group_bytes = 0
        charged = 0
        try:
            for piece in pieces:
                created = fold(piece, groups, order)
                if charge and created:
                    if group_bytes == 0:
                        group_bytes = self._group_bytes(order[0])
                    delta = created * group_bytes
                    gov.charge(delta, "hash_agg")
                    charged += delta
        except BaseException:
            if charged:
                gov.release(charged)
            raise
        if not groups and not self.group_fns:
            # Scalar aggregation over empty input yields one row.
            self._group((), groups, order)
        return groups, order, charged

    def _emit_groups(self, runtime: ExecutionRuntime,
                     groups: Dict[tuple, List["_Accumulator"]],
                     order: List[tuple], charged: int
                     ) -> Iterator[RowBatch]:
        """One output row per group in first-seen order, then release
        the ``charged`` bytes."""
        try:
            size = runtime.batch_size
            for start in range(0, len(order), size):
                column = [key + self._results(groups[key])
                          for key in order[start:start + size]]
                yield self._note(runtime, RowBatch(
                    {self.output_entry_id: column}, len(column)))
        finally:
            if charged:
                runtime.governor.release(charged)

    def _run_hash_batches(self, runtime: ExecutionRuntime
                          ) -> Iterator[RowBatch]:
        merged = self._parallel_merge(runtime, charge=True)
        if merged is None:
            merged = self.fold_hash(runtime, self._child_batches(runtime),
                                    self.fold_batch)
        yield from self._emit_groups(runtime, *merged)

    def _run_stream_batches(self, runtime: ExecutionRuntime
                            ) -> Iterator[RowBatch]:
        if not self.group_fns:
            # Scalar streaming aggregation folds exactly like scalar
            # hash aggregation (one bulk fold per input batch into the
            # single () group), so the parallel merge covers both.
            # Grouped streams stay serial: their output order depends on
            # the input's run structure, not a hash table.  No governor
            # charge — the serial stream path never charges either.
            merged = self._parallel_merge(runtime, charge=False)
            if merged is not None:
                yield from self._emit_groups(runtime, *merged)
                return
        size = runtime.batch_size
        out: List[tuple] = []
        current_key: object = _NEVER
        accumulators: List[_Accumulator] = []
        proven_args = self.proven_args
        for batch in self._child_batches(runtime):
            length = batch.length
            if not length:
                continue
            group_cols, arg_cols = self._input_columns(batch)
            # Grouped input arrives in contiguous key runs; fold each
            # run's argument slices in one bulk call per fold.
            if group_cols:
                runs = [(key, len(list(run))) for key, run
                        in itertools.groupby(zip(*group_cols))]
            else:
                runs = [((), length)]
            pos = 0
            for key, count in runs:
                start = pos
                pos += count
                if key != current_key:
                    if current_key is not _NEVER:
                        out.append(
                            current_key + self._results(accumulators))
                        if len(out) >= size:
                            yield self._note(runtime, RowBatch(
                                {self.output_entry_id: out}, size))
                            out = []
                    current_key = key
                    accumulators = self._new_group()
                for accumulator, column, proven in zip(
                        accumulators, arg_cols, proven_args):
                    if column is None:  # COUNT(*)
                        accumulator.count += count
                    else:
                        accumulator.add_many(
                            column if count == length
                            else column[start:pos], proven)
        if current_key is not _NEVER:
            out.append(current_key + self._results(accumulators))
        elif not self.group_fns:
            out.append(self._results(self._new_group()))
        if out:
            yield self._note(runtime, RowBatch(
                {self.output_entry_id: out}, len(out)))

    def _group_bytes(self, key: tuple) -> int:
        """Per-group charge estimate: key + one accumulator per spec."""
        return (approx_row_bytes(key)
                + ACCUMULATOR_BYTES * len(self.specs)
                + BUCKET_OVERHEAD_BYTES)

    def _run_hash(self, runtime: ExecutionRuntime) -> Iterator[None]:
        ctx = runtime.ctx

        def fold(__, groups, order) -> int:
            # Charged per *group*, not per row: the hash table grows
            # with distinct keys, which is exactly what a memory cap must
            # bound.  A breach here is the one governed abort with a
            # degradation path (the facade retries once with a forced
            # streaming aggregate).
            before = len(order)
            key = tuple(fn(ctx) for fn in self.group_fns)
            for accumulator in self._group(key, groups, order):
                accumulator.add(ctx)
            return len(order) - before

        groups, order, charged = self.fold_hash(
            runtime, self._child_states(runtime), fold)
        try:
            slot = self.output_entry_id
            for key in order:
                ctx[slot] = key + self._results(groups[key])
                self.actual_rows += 1
                yield
        finally:
            if charged:
                runtime.governor.release(charged)

    def _run_stream(self, runtime: ExecutionRuntime) -> Iterator[None]:
        ctx = runtime.ctx
        slot = self.output_entry_id
        current_key: object = _NEVER
        accumulators: List[_Accumulator] = []
        for __ in self._child_states(runtime):
            key = tuple(fn(ctx) for fn in self.group_fns)
            if key != current_key:
                if current_key is not _NEVER:
                    ctx[slot] = current_key + self._results(accumulators)
                    self.actual_rows += 1
                    yield
                current_key = key
                accumulators = self._new_group()
            for accumulator in accumulators:
                accumulator.add(ctx)
        if current_key is not _NEVER:
            ctx[slot] = current_key + self._results(accumulators)
            self.actual_rows += 1
            yield
        elif not self.group_fns:
            ctx[slot] = self._results(self._new_group())
            self.actual_rows += 1
            yield

    def label(self) -> str:
        parts = [f"{spec.func.value.lower()}(...)" for spec in self.specs]
        name = ("Aggregate" if not self.group_fns
                else "Group aggregate")
        mode = "streaming" if self.strategy is AggregateStrategy.STREAM \
            else "hash"
        return f"{name} ({mode}): " + ", ".join(parts)


#: Float terms one accumulator holds before :func:`_compact` folds them
#: into a few; it bounds a group's memory, not the result.
_CAP = 64


def _compact(terms: list) -> list:
    """A few floats with exactly the same sum as ``terms`` (consumed).

    The first is the plain running sum, each later one the correctly
    rounded remainder (``fsum`` of ``terms`` less the ones so far) until
    that remainder is exactly zero: usually two in all.  An inf or NaN,
    or partial sums past the double range, take the exact slow path."""
    out: List[float] = []
    try:
        term = sum(terms)
        if math.isfinite(term):
            while term:
                out.append(term)
                terms.append(-term)
                term = math.fsum(terms)
            return out
    except OverflowError:  # a partial sum past the double range
        pass
    terms += out
    special = [term for term in terms if not math.isfinite(term)]
    if special:
        return [sum(special)]  # inf + -inf is NaN
    exact = sum(map(fractions.Fraction, terms))
    out = []
    while exact:
        try:
            term = float(exact)
        except OverflowError:
            term = sys.float_info.max if exact > 0 else -sys.float_info.max
        out.append(term)
        exact -= fractions.Fraction(term)
    return out


def _rounded(terms: list) -> float:
    """The exact sum of ``terms`` correctly rounded to a float; an exact
    zero is +0.0 and a sum past the double range is +-inf."""
    try:
        return math.fsum(terms) + 0.0
    except (OverflowError, ValueError):  # past the double range; inf - inf
        terms = _compact(list(terms))
    try:
        return math.fsum(terms) + 0.0
    except OverflowError:  # so is the exact sum
        return math.copysign(math.inf, terms[0])


def _grow(terms: Optional[list], values: Sequence) -> list:
    """``terms`` (None: none yet) extended by ``values``, compacted
    past the cap."""
    if terms is None:
        terms = []
    terms += values
    return _compact(terms) if len(terms) > _CAP else terms


class _Accumulator:
    """One aggregate's running state: the one implementation of
    aggregate arithmetic, for the row engine, the batch engine, fork
    workers and window frames alike.

    SUM / AVG / STDDEV keep the int arguments' sum as an exact ``int``
    (``total``) and the float arguments as a list of float ``terms``
    whose exact sum is theirs: :func:`_compact` folds the list into a
    couple of floats once it passes ``_CAP``, and :meth:`result` rounds
    the exact sum once with ``fsum``.  So a result depends only on the
    multiset of values folded — not on their order, the batch size or
    the worker count — and a float SUM is the correctly rounded exact
    sum.  STDDEV's sum of squares is kept the same way, each square
    rounded on its own.  A batch is summed as ints when ``sum()`` of it
    is not a float, else as doubles; ints that meet floats count as
    doubles (exact below 2**53).  Two states merge by adding ``total``
    and concatenating ``terms`` (:meth:`state` / :meth:`merge`)."""

    __slots__ = ("spec", "count", "total", "terms", "squares", "minimum",
                 "maximum", "distinct_values")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total = 0
        self.terms: Optional[list] = None
        self.squares: Optional[list] = None
        self.minimum = None
        self.maximum = None
        self.distinct_values = set() if spec.distinct else None

    def add(self, ctx) -> None:
        """Fold one row (row engine)."""
        spec = self.spec
        self.add_many((None if spec.star else spec.arg_fn(ctx),))

    def add_many(self, values: Sequence, proven: bool = False) -> None:
        """Fold a run of already-evaluated argument values.  A run
        ``proven`` never NULL (batch lowering's nullability facts) is
        folded as it is, without the NULL-dropping copy."""
        spec = self.spec
        if spec.star:
            self.count += len(values)
            return
        if not proven:
            values = [value for value in values if value is not None]
        seen = self.distinct_values
        if seen is not None:
            fresh = []
            for value in values:
                if value not in seen:
                    seen.add(value)
                    fresh.append(value)
            values = fresh
        if not values:
            return
        self.count += len(values)
        func = spec.func
        if func is ast.AggFunc.MIN:
            smallest = min(values)
            if self.minimum is None or smallest < self.minimum:
                self.minimum = smallest
        elif func is ast.AggFunc.MAX:
            largest = max(values)
            if self.maximum is None or largest > self.maximum:
                self.maximum = largest
        elif func is not ast.AggFunc.COUNT:
            total = None if type(values[0]) is float else sum(values)
            if total is None or type(total) is float:
                self.terms = _grow(self.terms, values)
            else:
                self.total += total
            if func is ast.AggFunc.STDDEV:
                self.squares = _grow(self.squares, [
                    value * value for value in map(float, values)])

    def state(self) -> tuple:
        """This accumulator's state, detached from its spec (what a
        fork worker ships back for :meth:`merge`)."""
        if self.terms is not None:
            self.terms = _compact(self.terms)
        if self.squares is not None:
            self.squares = _compact(self.squares)
        return (self.count, self.total, self.terms, self.squares,
                self.minimum, self.maximum)

    def merge(self, state: tuple) -> None:
        """Fold in another accumulator's :meth:`state` of the same spec."""
        count, total, terms, squares, minimum, maximum = state
        self.count += count
        self.total += total
        if terms is not None:
            self.terms = _grow(self.terms, terms)
        if squares is not None:
            self.squares = _grow(self.squares, squares)
        if minimum is not None and (self.minimum is None
                                    or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None
                                    or maximum > self.maximum):
            self.maximum = maximum

    def _sum(self):
        """The exact sum: an int when every value was, else the
        correctly rounded float."""
        if self.terms is None:
            return self.total
        return _rounded(self.terms + [self.total])

    def result(self, func: ast.AggFunc):
        """The value of ``func`` over what was folded (SUM and AVG read
        the same state)."""
        if func is ast.AggFunc.COUNT:
            return self.count
        if func is ast.AggFunc.MIN:
            return self.minimum
        if func is ast.AggFunc.MAX:
            return self.maximum
        if self.count == 0:
            return None
        if func is ast.AggFunc.SUM:
            return self._sum()
        if func is ast.AggFunc.AVG:
            return self._sum() / self.count
        if func is ast.AggFunc.STDDEV:
            mean = self._sum() / self.count
            variance = max(0.0, _rounded(self.squares) / self.count
                           - mean * mean)
            return variance ** 0.5
        raise ExecutionError(f"unknown aggregate {func}")


class WindowNode(PlanNode):
    """Window-function evaluation over materialised child rows."""

    def __init__(self, child: PlanNode, specs: List["CompiledWindow"],
                 output_entry_id: int, live_entries: List[int]) -> None:
        super().__init__()
        self.child = child
        self.specs = specs
        self.output_entry_id = output_entry_id
        #: The live entries the child writes — what both engines buffer.
        #: Other live slots (pre-aggregate entries above an aggregate)
        #: hold stale row-engine context nothing reads.
        produced = set(child.produced_entries())
        self.buffered_entries = [entry for entry in live_entries
                                 if entry in produced]

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def produced_entries(self) -> List[int]:
        produced = list(self.child.produced_entries())
        produced.append(self.output_entry_id)
        return produced

    def _outputs(self, runtime: ExecutionRuntime,
                 rows: List[tuple]) -> List[tuple]:
        """Charge the buffered ``rows`` and return each one's tuple of
        window values — the one window kernel both engines run."""
        _charge_materialized(runtime, rows)
        outputs = [[None] * len(self.specs) for __ in rows]
        for spec_index, spec in enumerate(self.specs):
            spec.compute(rows, self.buffered_entries, runtime.ctx, outputs,
                         spec_index)
        return [tuple(out) for out in outputs]

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        live = self.buffered_entries
        rows: List[tuple] = []
        for __ in self.child.run(runtime):
            rows.append(tuple(ctx[e] for e in live))
        outputs = self._outputs(runtime, rows)
        slot = self.output_entry_id
        for row, out in zip(rows, outputs):
            for entry_id, value in zip(live, row):
                ctx[entry_id] = value
            ctx[slot] = out
            self.actual_rows += 1
            yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Buffer the child's batches column-wise, run the window kernel
        over their rows, and re-cut the output at the batch size with
        the window values as one more column."""
        self.actual_loops += 1
        live = self.buffered_entries
        columns: List[list] = [[] for __ in live]
        for batch in self.child.run_batches(runtime):
            for column, entry in zip(columns, live):
                column.extend(batch.columns[entry])
        outputs = self._outputs(runtime, list(zip(*columns)))
        size = runtime.batch_size
        for start in range(0, len(outputs), size):
            values = outputs[start:start + size]
            part = {entry: column[start:start + size]
                    for entry, column in zip(live, columns)}
            part[self.output_entry_id] = values
            yield self._note(runtime, RowBatch(part, len(values)))

    def label(self) -> str:
        names = ", ".join(spec.func for spec in self.specs)
        return f"Window: {names}"


class CompiledWindow:
    """One compiled window specification."""

    def __init__(self, func: str, arg_fns: List[Callable],
                 partition_fns: List[Callable],
                 order_fns: List[Callable],
                 order_items: List[ast.OrderItem]) -> None:
        self.func = func
        self.arg_fns = arg_fns
        self.partition_fns = partition_fns
        self.order_fns = order_fns
        self.order_items = order_items

    def compute(self, rows: List[tuple], live: List[int], ctx,
                outputs: List[list], spec_index: int) -> None:
        # Evaluate partition/order/arg values per row under a temporary
        # context restore.
        evaluated = []
        for row_index, row in enumerate(rows):
            for entry_id, value in zip(live, row):
                ctx[entry_id] = value
            partition = tuple(fn(ctx) for fn in self.partition_fns)
            order = tuple(fn(ctx) for fn in self.order_fns)
            arg = self.arg_fns[0](ctx) if self.arg_fns else None
            evaluated.append((partition, order, arg, row_index))
        # Group by partition, sort by order keys within each partition.
        partitions: Dict[tuple, List[tuple]] = {}
        for record in evaluated:
            partitions.setdefault(record[0], []).append(record)
        for members in partitions.values():
            keyed = [((record[1]), record) for record in members]
            sort_rows(keyed, self.order_items or
                      [ast.OrderItem(ast.Literal(0))] * 0)
            ordered = [record for __, record in keyed]
            self._fill(ordered, outputs, spec_index)

    def _fill(self, ordered: List[tuple], outputs: List[list],
              spec_index: int) -> None:
        func = self.func
        if func == "ROW_NUMBER":
            for seq, record in enumerate(ordered, start=1):
                outputs[record[3]][spec_index] = seq
            return
        if func in ("RANK", "DENSE_RANK"):
            rank = 0
            dense = 0
            previous = _NEVER
            for seq, record in enumerate(ordered, start=1):
                if record[1] != previous:
                    rank = seq
                    dense += 1
                    previous = record[1]
                value = rank if func == "RANK" else dense
                outputs[record[3]][spec_index] = value
            return
        # Aggregates over the window.  With an ORDER BY the frame is the
        # default RANGE UNBOUNDED PRECEDING .. CURRENT ROW (peers
        # included), folded one peer group at a time into one running
        # accumulator; without one it is the whole partition.
        agg = ast.AggFunc.__members__.get(func)
        if agg is None:
            raise ExecutionError(f"unsupported window function {func}")
        accumulator = _Accumulator(
            AggSpec(agg, None, False, star=not self.arg_fns))
        if not self.order_items:
            accumulator.add_many([record[2] for record in ordered])
            total = accumulator.result(agg)
            for record in ordered:
                outputs[record[3]][spec_index] = total
            return
        index = 0
        length = len(ordered)
        while index < length:
            peer_end = index
            while peer_end + 1 < length and \
                    ordered[peer_end + 1][1] == ordered[index][1]:
                peer_end += 1
            accumulator.add_many(
                [record[2] for record in ordered[index:peer_end + 1]])
            value = accumulator.result(agg)
            for position in range(index, peer_end + 1):
                outputs[ordered[position][3]][spec_index] = value
            index = peer_end + 1


class LimitNode(PlanNode):
    """Row-limit enforcement inside a block plan."""

    def __init__(self, child: PlanNode, count: int, offset: int = 0) -> None:
        super().__init__()
        self.child = child
        self.count = count
        self.offset = offset

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        produced = 0
        skipped = 0
        for __ in self.child.run(runtime):
            if skipped < self.offset:
                skipped += 1
                continue
            if produced >= self.count:
                return
            produced += 1
            self.actual_rows += 1
            yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        self.actual_loops += 1
        to_skip = self.offset
        remaining = self.count
        for batch in self.child.run_batches(runtime):
            if to_skip:
                if batch.length <= to_skip:
                    to_skip -= batch.length
                    continue
                batch = batch.slice(to_skip, batch.length)
                to_skip = 0
            if batch.length > remaining:
                batch = batch.slice(0, remaining)
            remaining -= batch.length
            if batch.length:
                yield self._note(runtime, batch)
            if remaining <= 0:
                return

    def label(self) -> str:
        return f"Limit: {self.count} row(s)"


# ---------------------------------------------------------------------------
# Query plan (block output)
# ---------------------------------------------------------------------------

class QueryPlan:
    """A complete plan for one query block (plus UNION parts).

    ``run`` yields projected output tuples; DISTINCT, set operations, and
    LIMIT/OFFSET are applied here, after the plan tree has produced its
    context states.
    """

    def __init__(self, block: QueryBlock, root: Optional[PlanNode],
                 select_exprs: List[ast.Expr],
                 select_fns: List[Callable]) -> None:
        self.block = block
        self.root = root
        self.select_exprs = select_exprs
        self.select_fns = select_fns
        self.distinct = False
        self.limit: Optional[int] = None
        self.offset: Optional[int] = None
        self.union_parts: List[Tuple[ast.SetOp, "QueryPlan"]] = []
        #: Output positions to sort a set-operation result by.
        self.union_order: List[Tuple[int, bool]] = []
        #: EXPLAIN header tag: "" or "(ORCA)" (Listing 7's first line).
        self.origin: str = "mysql"
        self.total_cost: float = 0.0
        self.total_rows: float = 0.0
        #: Batch evaluator of the select expressions (set by batch
        #: lowering).
        self.bx_select: Optional[Callable] = None

    def _own_rows(self, runtime: ExecutionRuntime) -> Iterator[tuple]:
        ctx = runtime.ctx
        fns = self.select_fns
        if self.root is None:
            yield tuple(fn(ctx) for fn in fns)
            return
        for __ in self.root.run(runtime):
            yield tuple(fn(ctx) for fn in fns)

    def run(self, runtime: ExecutionRuntime) -> Iterator[tuple]:
        rows = self._own_rows(runtime)
        if self.union_parts:
            rows = self._union_rows(rows, runtime)
        elif self.distinct:
            rows = _dedup(rows)
        if self.offset or self.limit is not None:
            rows = _limited(rows, self.limit, self.offset or 0)
        return rows

    def _own_batch_rows(self, runtime: ExecutionRuntime
                        ) -> Iterator[List[tuple]]:
        """Project plan-tree batches into chunks of output tuples."""
        select = self.bx_select
        if self.root is None:
            batch = RowBatch({}, 1)
            runtime.note_batch(batch)
            columns = select(batch)
            yield list(zip(*columns)) if columns else [()]
            return
        for batch in self.root.run_batches(runtime):
            columns = select(batch)
            if columns:
                yield list(zip(*columns))
            else:
                yield [()] * batch.length

    def run_batches(self, runtime: ExecutionRuntime
                    ) -> Iterator[List[tuple]]:
        """Batch-mode twin of :meth:`run`: yields chunks of output
        tuples with DISTINCT / set operations / LIMIT applied."""
        chunks = self._own_batch_rows(runtime)
        if self.union_parts:
            chunks = iter([self._union_batch_rows(chunks, runtime)])
        elif self.distinct:
            chunks = _dedup_chunks(chunks)
        if self.offset or self.limit is not None:
            chunks = _limited_chunks(chunks, self.limit, self.offset or 0)
        return chunks

    def _union_batch_rows(self, own: Iterator[List[tuple]],
                          runtime: ExecutionRuntime) -> List[tuple]:
        collected: List[tuple] = []
        for chunk in own:
            collected.extend(chunk)
        dedup_needed = self.distinct
        for op, part in self.union_parts:
            for chunk in part.run_batches(runtime):
                collected.extend(chunk)
            if op is ast.SetOp.UNION:
                dedup_needed = True
        if dedup_needed:
            collected = list(_dedup(iter(collected)))
        if self.union_order:
            for position, descending in reversed(self.union_order):
                def key_fn(row, p=position):
                    value = row[p]
                    return (0, 0) if value is None else (1, value)
                collected.sort(key=key_fn, reverse=descending)
        return collected

    def _union_rows(self, own: Iterator[tuple],
                    runtime: ExecutionRuntime) -> Iterator[tuple]:
        collected = list(own)
        dedup_needed = self.distinct
        for op, part in self.union_parts:
            collected.extend(part.run(runtime))
            if op is ast.SetOp.UNION:
                dedup_needed = True
        if dedup_needed:
            collected = list(_dedup(iter(collected)))
        if self.union_order:
            for position, descending in reversed(self.union_order):
                def key_fn(row, p=position):
                    value = row[p]
                    return (0, 0) if value is None else (1, value)
                collected.sort(key=key_fn, reverse=descending)
        return iter(collected)


def _dedup(rows: Iterator[tuple]) -> Iterator[tuple]:
    seen = set()
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        yield row


def _dedup_chunks(chunks: Iterator[List[tuple]]
                  ) -> Iterator[List[tuple]]:
    seen = set()
    for chunk in chunks:
        fresh = []
        for row in chunk:
            if row in seen:
                continue
            seen.add(row)
            fresh.append(row)
        if fresh:
            yield fresh


def _limited_chunks(chunks: Iterator[List[tuple]], limit: Optional[int],
                    offset: int) -> Iterator[List[tuple]]:
    remaining = limit
    for chunk in chunks:
        if offset:
            if len(chunk) <= offset:
                offset -= len(chunk)
                continue
            chunk = chunk[offset:]
            offset = 0
        if remaining is not None:
            if len(chunk) > remaining:
                chunk = chunk[:remaining]
            remaining -= len(chunk)
        if chunk:
            yield chunk
        if remaining is not None and remaining <= 0:
            return


def _limited(rows: Iterator[tuple], limit: Optional[int],
             offset: int) -> Iterator[tuple]:
    produced = 0
    skipped = 0
    for row in rows:
        if skipped < offset:
            skipped += 1
            continue
        if limit is not None and produced >= limit:
            return
        produced += 1
        yield row


# ---------------------------------------------------------------------------
# Plan-tree traversal
# ---------------------------------------------------------------------------

def walk_plan_nodes(query_plan: "QueryPlan") -> Iterator[PlanNode]:
    """Every node reachable from a query plan, each exactly once.

    Covers union parts and the sub-plans of derived tables and CTEs —
    the full set of nodes whose ``actual_rows`` counters one execution
    can touch.
    """
    seen: set = set()

    def visit_plan(plan: "QueryPlan") -> Iterator[PlanNode]:
        if id(plan) in seen:
            return
        seen.add(id(plan))
        if plan.root is not None:
            yield from visit_node(plan.root)
        for __, part in plan.union_parts:
            yield from visit_plan(part)

    def visit_node(node: PlanNode) -> Iterator[PlanNode]:
        if id(node) in seen:
            return
        seen.add(id(node))
        yield node
        for child in node.children():
            yield from visit_node(child)
        subplan = getattr(node, "subplan", None)
        if subplan is not None:
            yield from visit_plan(subplan)

    yield from visit_plan(query_plan)


# ---------------------------------------------------------------------------
# Expression rendering for EXPLAIN labels
# ---------------------------------------------------------------------------

def _expr_text(expr: ast.Expr) -> str:
    from repro.executor.explain import expr_text

    return expr_text(expr)
