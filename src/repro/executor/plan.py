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
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.executor.batch import (
    BATCH_SIZE,
    BatchAccumulator,
    BatchUnsupported,
    RowBatch,
)
from repro.governor import (
    ACCUMULATOR_BYTES,
    BUCKET_OVERHEAD_BYTES,
    approx_row_bytes,
)
from repro.sql import ast
from repro.sql.blocks import QueryBlock


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
                 injector=None, parallel=None) -> None:
        self.storage = storage
        #: Rows per batch for this execution: the storage engine's chunk
        #: size (``DatabaseConfig.batch_size`` through the facade), so
        #: one table chunk is one batch.
        self.batch_size = getattr(storage, "batch_size", BATCH_SIZE)
        #: Morsel-parallel execution context
        #: (:class:`repro.executor.parallel.ParallelContext`) or None for
        #: serial execution — the default and the only mode the row
        #: engine ever uses.
        self.parallel = parallel
        #: Per-statement :class:`repro.governor.ExecutionGovernor` (or
        #: None): deadline/cancel checkpoints and memory charging.
        self.governor = governor
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
        #: Materialisation (rebind) counts per derived node — "the rebind
        #: count is simply the number of rows coming from the outer side"
        #: (Section 7), deduplicated here by the subquery cache.
        self.rebind_counts: Dict[int, int] = {}
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
        if self.governor is not None:
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
        if self.governor is not None:
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
        raise NotImplementedError

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Batch-at-a-time twin of :meth:`run`.

        Yields :class:`RowBatch` chunks whose columns cover this
        subtree's produced entries.  Lowering rejects unsupported nodes
        before execution; this default is a defensive backstop.
        """
        raise BatchUnsupported(f"plan node {type(self).__name__}")

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


def derive_zone_predicates(conjuncts: Sequence[ast.Expr],
                           entry_id: int) -> List[tuple]:
    """Extract zone-map predicates from a leaf scan's filter conjuncts.

    Only shapes a chunk's min/max/null statistics can refute are kept —
    column-vs-literal comparisons (either orientation), BETWEEN and
    IN over literals (both polarities: a chunk wholly inside a NOT
    BETWEEN window, or constant on a NOT IN value, is provably dead),
    and IS [NOT] NULL; everything else is simply not a zone predicate.
    The tuples match
    :meth:`repro.storage.columnstore.ColumnChunk.can_skip`.
    """
    predicates: List[tuple] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.BinaryExpr) \
                and conjunct.op in ast.COMPARISON_OPS:
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ast.ColumnRef) \
                    and left.entry_id == entry_id \
                    and isinstance(right, ast.Literal) \
                    and right.value is not None:
                predicates.append(("cmp", left.position,
                                   conjunct.op.value, right.value))
            elif isinstance(right, ast.ColumnRef) \
                    and right.entry_id == entry_id \
                    and isinstance(left, ast.Literal) \
                    and left.value is not None:
                predicates.append(
                    ("cmp", right.position,
                     ast.COMMUTED_COMPARISON[conjunct.op].value,
                     left.value))
        elif isinstance(conjunct, ast.BetweenExpr):
            operand = conjunct.operand
            if isinstance(operand, ast.ColumnRef) \
                    and operand.entry_id == entry_id \
                    and isinstance(conjunct.low, ast.Literal) \
                    and conjunct.low.value is not None \
                    and isinstance(conjunct.high, ast.Literal) \
                    and conjunct.high.value is not None:
                if conjunct.negated:
                    predicates.append(("notbetween", operand.position,
                                       conjunct.low.value,
                                       conjunct.high.value))
                else:
                    predicates.append(("cmp", operand.position, ">=",
                                       conjunct.low.value))
                    predicates.append(("cmp", operand.position, "<=",
                                       conjunct.high.value))
        elif isinstance(conjunct, ast.IsNullExpr):
            operand = conjunct.operand
            if isinstance(operand, ast.ColumnRef) \
                    and operand.entry_id == entry_id:
                predicates.append(("null", operand.position,
                                   conjunct.negated))
        elif isinstance(conjunct, ast.InListExpr):
            operand = conjunct.operand
            if isinstance(operand, ast.ColumnRef) \
                    and operand.entry_id == entry_id \
                    and all(isinstance(item, ast.Literal)
                            for item in conjunct.items):
                values = [item.value for item in conjunct.items
                          if item.value is not None]
                if conjunct.negated:
                    # NOT IN with a NULL item never passes, but that is
                    # a planner simplification, not a zone fact — only
                    # derive from an all-literal, NULL-free list.
                    if values and len(values) == len(conjunct.items):
                        predicates.append(("notin", operand.position,
                                           values))
                elif values:
                    predicates.append(("in", operand.position, values))
    return predicates


def _iter_chunks(rows: List[tuple],
                 batch_size: int = BATCH_SIZE) -> Iterator[List[tuple]]:
    for start in range(0, len(rows), batch_size):
        yield rows[start:start + batch_size]


def _leaf_rows(node: "_LeafNode", runtime: ExecutionRuntime,
               rows) -> Iterator[tuple]:
    """Row-mode leaf instrumentation shared by every access path.

    Fires the ``scan_io`` injection site once per scan start and, under
    a governor, wraps the storage iterator so a checkpoint runs every
    ``check_interval`` rows — the row engine's only periodic bound in
    plans with no batches."""
    if runtime.injector is not None:
        runtime.injector.fire("scan_io")
    if runtime.governor is not None:
        return runtime.governor.wrap_rows(rows)
    return rows


def _charge_materialized(runtime: ExecutionRuntime,
                         rows: List[tuple]) -> None:
    """Charge a freshly materialised row buffer (derived table / CTE).

    Charged for the lifetime of the statement — materialisations are
    cached on the runtime and die with it, so there is no release."""
    gov = runtime.governor
    if gov is not None and rows:
        gov.charge(len(rows) * (approx_row_bytes(rows[0]) + 16),
                   "materialize")


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


def _emit(node: PlanNode, acc: BatchAccumulator, mask_fn,
          runtime: ExecutionRuntime) -> Iterator[RowBatch]:
    """Flush an accumulator through a node's attached filter mask."""
    batch = acc.flush()
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
        #: Cached zone predicates (None = not derived yet; filter
        #: conjuncts are attached after construction and never change
        #: once the plan is built, so one derivation serves every
        #: execution of a cached plan).
        self._zone_preds: Optional[List[tuple]] = None

    def zone_predicates(self) -> List[tuple]:
        predicates = self._zone_preds
        if predicates is None:
            predicates = derive_zone_predicates(self.filter_conjuncts,
                                                self.entry_id)
            self._zone_preds = predicates
        return predicates

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        slot = self.entry_id
        check = self.filter_fn
        # Zone predicates come from this node's own filter conjuncts,
        # which ``check`` applies below — skipping a provably dead chunk
        # is semantics-preserving, and both engines consult the same
        # store with the same predicates (counter parity).
        rows = _leaf_rows(self, runtime, runtime.storage.table_scan(
            self.table_name, self.zone_predicates()))
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        chunks = runtime.storage.table_scan_batches(
            self.table_name, self.zone_predicates())
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
        # Only reached as a chain driver, where the lookup keys are
        # row-invariant (lowering enforces it); as a nested-loop inner
        # this node runs through the row path instead.
        probe = RowBatch({}, 1)
        key = tuple(fn(probe)[0] for fn in self.bx_keys)
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
            # Rebind accounting (the paper's Section 7, Orca change 3,
            # concerns exactly these counts): one rebind per distinct
            # outer-row snapshot that forces a re-materialisation.
            runtime.rebind_counts[id(self)] = \
                runtime.rebind_counts.get(id(self), 0) + 1
        for row in rows:
            ctx[slot] = row
            if check(ctx) is True:
                self.actual_rows += 1
                yield

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        # Lowering rejects correlated materialisations on the batch path
        # (they run row-at-a-time as nested-loop inners), so the
        # materialisation key is always the uncorrelated None snapshot.
        by_key = runtime.materializations.setdefault(id(self), {})
        rows = by_key.get(None)
        if rows is None:
            rows = []
            for chunk in self.subplan.run_batches(runtime):
                rows.extend(chunk)
            by_key[None] = rows
            _charge_materialized(runtime, rows)
            runtime.rebind_counts[id(self)] = \
                runtime.rebind_counts.get(id(self), 0) + 1
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

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("join", expr) for expr in self.conjuncts]

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        condition = self.condition_fn
        check = self.filter_fn
        kind = self.kind
        inner_entries = self._inner_entries
        gov = runtime.governor
        for __ in self.outer.run(runtime):
            # One tick per outer row: NL chains can spin for a long time
            # without emitting anything (anti/semi joins especially), so
            # progress is bounded here rather than only at emission.
            if gov is not None:
                gov.tick()
            matched = False
            for __ in self.inner.run(runtime):
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

    def _outer_states(self, runtime: ExecutionRuntime) -> Iterator[None]:
        """Drive the outer side, leaving each outer row in the context.

        A nested-loop outer child streams through :meth:`run_ctx` (no
        intermediate batch materialization — a left-deep NL chain
        materializes only at its top); any other child runs batched and
        is unpacked into context slots row by row."""
        outer = self.outer
        if isinstance(outer, NestedLoopJoinNode):
            yield from outer.run_ctx(runtime)
            return
        ctx = runtime.ctx
        for batch in outer.run_batches(runtime):
            cols = list(batch.columns.items())
            for i in range(batch.length):
                for entry_id, column in cols:
                    ctx[entry_id] = column[i]
                yield

    def run_ctx(self, runtime: ExecutionRuntime) -> Iterator[None]:
        """Row-path join loop over a batched outer side.

        Identical to :meth:`run` except the outer side comes from
        :meth:`_outer_states` (batched leaf scans keep their vectorized
        filters); the inner side re-runs per outer row through the row
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
        for __ in self._outer_states(runtime):
            if gov is not None:
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

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Materialize :meth:`run_ctx` output into batches.

        The join's own filter already ran row-wise inside run_ctx, so no
        flush-time mask is needed."""
        ctx = runtime.ctx
        acc = BatchAccumulator(self.produced_entries(), runtime.batch_size)
        add_ctx = acc.add_ctx
        # actual_rows is charged inside run_ctx (where fused NL chains
        # stream); only the batch count is accounted here.
        for __ in self.run_ctx(runtime):
            add_ctx(ctx)
            if acc.full:
                self.actual_batches += 1
                yield runtime.note_batch(acc.flush())
        if acc.length:
            self.actual_batches += 1
            yield runtime.note_batch(acc.flush())

    def label(self) -> str:
        if self.kind is JoinKind.INNER:
            return "Nested loop inner join"
        if self.kind is JoinKind.LEFT:
            return "Nested loop left join"
        if self.kind is JoinKind.SEMI:
            return "Nested loop semijoin"
        return "Nested loop antijoin"


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
            if gov is not None:
                if row_bytes == 0:
                    row_bytes = approx_row_bytes(saved) \
                        + BUCKET_OVERHEAD_BYTES
                pending += 1
                if pending >= 128:
                    delta = pending * row_bytes
                    gov.charge(delta, "hash_join_build")
                    charged += delta
                    pending = 0
        if gov is not None and pending:
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
            if gov is not None and charged:
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
                             ) -> Tuple[Dict[object, List[tuple]], int]:
        """Batch twin of :meth:`_build_table_rows` (charge per batch)."""
        build_entries = self._build_entries
        single_key = len(self.bx_build_keys) == 1
        table: Dict[object, List[tuple]] = {}
        setdefault = table.setdefault
        gov = runtime.governor
        charged = 0
        row_bytes = 0
        for build_batch in self.build.run_batches(runtime):
            key_cols = [fn(build_batch) for fn in self.bx_build_keys]
            saved_cols = [build_batch.columns[e] for e in build_entries]
            saved_rows = zip(*saved_cols) if saved_cols \
                else iter([()] * build_batch.length)
            if single_key:
                for key, saved in zip(key_cols[0], saved_rows):
                    if key is not None:
                        setdefault(key, []).append(saved)
            else:
                build_keys = zip(*key_cols) if key_cols \
                    else iter([()] * build_batch.length)
                for key, saved in zip(build_keys, saved_rows):
                    if None not in key:
                        setdefault(key, []).append(saved)
            if gov is not None and build_batch.length:
                if row_bytes == 0:
                    sample = tuple(col[0] for col in saved_cols) \
                        if saved_cols else ()
                    row_bytes = approx_row_bytes(sample) \
                        + BUCKET_OVERHEAD_BYTES
                delta = build_batch.length * row_bytes
                gov.charge(delta, "hash_join_build")
                charged += delta
        return table, charged

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        """Build and probe per batch with vectorized key evaluation.

        Residual (non-equi) conjuncts — rare — are evaluated per
        candidate pair through the row-compiled ``residual_fn`` under
        temporary context writes, exactly like the row engine."""
        self.actual_loops += 1
        # Single-key joins (the common case) hash the bare scalar; the
        # dict equality matches 1-tuple keys exactly, without the
        # per-row tuple build.
        table, charged = self._build_table_batches(runtime)
        gov = runtime.governor
        try:
            yield from self._probe_batches(runtime, table)
        finally:
            if gov is not None and charged:
                gov.release(charged)

    def _probe_batches(self, runtime: ExecutionRuntime,
                       table: Dict[object, List[tuple]]
                       ) -> Iterator[RowBatch]:
        ctx = runtime.ctx
        build_entries = self._build_entries
        single_key = len(self.bx_build_keys) == 1
        residual = self.residual_fn
        has_residual = bool(self.residual_conjuncts)
        kind = self.kind
        probe_entries = self.probe.produced_entries()
        acc = BatchAccumulator(probe_entries + list(build_entries),
                               runtime.batch_size)
        mask_fn = self.bx_filter
        nulls = (None,) * len(build_entries)
        empty: List[tuple] = []
        get_bucket = table.get
        inner_fast = kind is JoinKind.INNER and not has_residual
        for probe_batch in self.probe.run_batches(runtime):
            key_cols = [fn(probe_batch) for fn in self.bx_probe_keys]
            probe_cols = [probe_batch.columns[e] for e in probe_entries]
            probe_rows = zip(*probe_cols) if probe_cols \
                else iter([()] * probe_batch.length)
            if single_key:
                keys: Iterator = iter(key_cols[0])
            elif key_cols:
                keys = zip(*key_cols)
            else:  # cross join: every row keys to the () bucket
                keys = iter([()] * probe_batch.length)
            if inner_fast:
                # Inner join without residual: null keys are never in
                # the table, so bucket lookup doubles as the null check;
                # rows append straight into the accumulator's buffer.
                out_rows = acc.rows
                append = out_rows.append
                for key, probe_values in zip(keys, probe_rows):
                    bucket = get_bucket(key)
                    if bucket:
                        for saved in bucket:
                            append(probe_values + saved)
                        if len(out_rows) >= acc.batch_size:
                            yield from _emit(self, acc, mask_fn, runtime)
                            out_rows = acc.rows
                            append = out_rows.append
                continue
            for key, probe_values in zip(keys, probe_rows):
                if single_key:
                    bucket = empty if key is None \
                        else get_bucket(key, empty)
                else:
                    bucket = empty if None in key \
                        else get_bucket(key, empty)
                if has_residual and bucket:
                    for entry_id, value in zip(probe_entries, probe_values):
                        ctx[entry_id] = value
                matched = False
                last_saved = nulls
                for saved in bucket:
                    if has_residual:
                        for entry_id, row in zip(build_entries, saved):
                            ctx[entry_id] = row
                        if residual(ctx) is not True:
                            continue
                    matched = True
                    last_saved = saved
                    if kind is JoinKind.SEMI or kind is JoinKind.ANTI:
                        break
                    acc.add_values(probe_values + saved)
                    if acc.full:
                        yield from _emit(self, acc, mask_fn, runtime)
                if kind is JoinKind.SEMI:
                    if matched:
                        acc.add_values(probe_values + last_saved)
                elif kind is JoinKind.ANTI:
                    if not matched:
                        acc.add_values(probe_values + nulls)
                elif kind is JoinKind.LEFT and not matched:
                    acc.add_values(probe_values + nulls)
                if acc.full:
                    yield from _emit(self, acc, mask_fn, runtime)
        if acc.length:
            yield from _emit(self, acc, mask_fn, runtime)

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
        spillable = gov.spill_sorts if gov is not None else False
        row_bytes = 0
        pending = 0
        charged = 0
        try:
            for __ in self.child.run(runtime):
                keys = tuple(fn(ctx) for fn in self.key_fns)
                captured.append((keys, tuple(ctx[e] for e in live)))
                if gov is not None:
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
            if gov is not None and pending:
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
            if gov is not None and charged:
                gov.release(charged)

    def run_batches(self, runtime: ExecutionRuntime) -> Iterator[RowBatch]:
        self.actual_loops += 1
        captured: List[Tuple[tuple, tuple]] = []
        entries: Optional[List[int]] = None
        gov = runtime.governor
        spillable = gov.spill_sorts if gov is not None else False
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
                key_cols = [fn(batch) for fn in self.bx_keys]
                live_cols = [batch.columns[e] for e in entries]
                # Row-wise (key tuple, live tuple) pairs built by zip at
                # C speed; empty-column edge cases fall back to repeat().
                keys = zip(*key_cols) if key_cols else \
                    iter([()] * batch.length)
                saved = zip(*live_cols) if live_cols else \
                    iter([()] * batch.length)
                captured.extend(zip(keys, saved))
                if gov is not None and batch.length:
                    if row_bytes == 0:
                        first = captured[0]
                        row_bytes = approx_row_bytes(first[0]) \
                            + approx_row_bytes(first[1])
                    delta = batch.length * row_bytes
                    gov.charge(delta, "sort", spillable)
                    charged += delta
            if entries is None:
                return
            sort_rows(captured, self.order_items)
            size = runtime.batch_size
            for start in range(0, len(captured), size):
                chunk = captured[start:start + size]
                transposed = list(zip(*(saved for __, saved in chunk)))
                columns = {entry: list(column) for entry, column
                           in zip(entries, transposed)}
                yield self._note(runtime, RowBatch(columns, len(chunk)))
        finally:
            if gov is not None and charged:
                gov.release(charged)

    def label(self) -> str:
        parts = []
        for item in self.order_items:
            text = _expr_text(item.expr)
            parts.append(f"{text} DESC" if item.descending else text)
        return "Sort: " + ", ".join(parts)


def sort_rows(captured: List[Tuple[tuple, tuple]],
              order_items: List[ast.OrderItem]) -> None:
    """Stable multi-key sort with MySQL NULL ordering.

    NULLs sort first ascending and last descending; implemented as one
    stable pass per key from least- to most-significant.
    """
    for index in range(len(order_items) - 1, -1, -1):
        descending = order_items[index].descending

        def key_fn(entry, i=index):
            value = entry[0][i]
            if value is None:
                return (0, 0)
            return (1, value)

        captured.sort(key=key_fn, reverse=descending)


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

    def children(self) -> Sequence[PlanNode]:
        return (self.child,) if self.child is not None else ()

    def touch_exprs(self) -> List[Tuple[str, ast.Expr]]:
        return super().touch_exprs() \
            + [("group", expr) for expr in self.group_exprs]

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
        """Vectorize group keys and aggregate arguments for one batch."""
        group_cols = [fn(batch) for fn in self.bx_group]
        arg_cols = [fn(batch) if fn is not None else None
                    for fn in self.bx_args]
        return group_cols, arg_cols

    def _parallel_merge(self, runtime: ExecutionRuntime, charge: bool):
        """Attempt the morsel-parallel pre-aggregation merge.

        Eligible when the input is a bare table scan and no aggregate is
        DISTINCT (first-occurrence fold order cannot be replayed from
        per-chunk partials).  Returns ``(groups, order, charged)`` or
        None; the workers compute per-chunk per-key partials and the
        parent folds them in chunk order, replaying the serial float
        fold exactly (see ``_Accumulator.partial_of``)."""
        parallel = runtime.parallel
        if parallel is None or not isinstance(self.child, TableScanNode) \
                or any(spec.distinct for spec in self.specs):
            return None
        return parallel.agg_merge(self, self.child, runtime, _Accumulator,
                                  charge=charge)

    def _emit_merged(self, runtime: ExecutionRuntime,
                     groups: Dict[tuple, List["_Accumulator"]],
                     order: List[tuple], charged: int
                     ) -> Iterator[RowBatch]:
        """Emit parallel-merged groups exactly like the serial paths."""
        gov = runtime.governor
        try:
            if not groups and not self.group_fns:
                # Scalar aggregation over empty input yields one row.
                groups[()] = [_Accumulator(spec) for spec in self.specs]
                order.append(())
            acc = BatchAccumulator([self.output_entry_id],
                                   runtime.batch_size)
            for key in order:
                acc.add_values(
                    (key + tuple(a.result() for a in groups[key]),))
                if acc.full:
                    yield self._note(runtime, acc.flush())
            if acc.length:
                yield self._note(runtime, acc.flush())
        finally:
            if gov is not None and charged:
                gov.release(charged)

    def _run_hash_batches(self, runtime: ExecutionRuntime
                          ) -> Iterator[RowBatch]:
        merged = self._parallel_merge(runtime, charge=True)
        if merged is not None:
            yield from self._emit_merged(runtime, *merged)
            return
        groups: Dict[tuple, List[_Accumulator]] = {}
        order: List[tuple] = []
        specs = self.specs
        gov = runtime.governor
        group_bytes = 0
        charged = 0
        try:
            for batch in self._child_batches(runtime):
                group_cols, arg_cols = self._input_columns(batch)
                length = batch.length
                if group_cols:
                    keys = list(zip(*group_cols))
                else:
                    keys = [()] * length
                # Gather each key's row indexes, then fold the gathered
                # argument slices in bulk; within a key the row order (and
                # so the float fold order) matches the row engine's.
                index_map: Dict[tuple, List[int]] = {}
                batch_order: List[tuple] = []
                for i, key in enumerate(keys):
                    idxs = index_map.get(key)
                    if idxs is None:
                        index_map[key] = [i]
                        batch_order.append(key)
                    else:
                        idxs.append(i)
                created = 0
                for key in batch_order:
                    idxs = index_map[key]
                    accumulators = groups.get(key)
                    if accumulators is None:
                        accumulators = [_Accumulator(spec)
                                        for spec in specs]
                        groups[key] = accumulators
                        order.append(key)
                        created += 1
                    whole = len(idxs) == length
                    for accumulator, column in zip(accumulators, arg_cols):
                        if column is None:  # COUNT(*)
                            accumulator.count += len(idxs)
                        elif whole:
                            accumulator.add_many(column)
                        else:
                            accumulator.add_many([column[i] for i in idxs])
                # Charge per batch for the groups it created (same
                # per-group estimate as the row engine's hash path).
                if gov is not None and created:
                    if group_bytes == 0:
                        group_bytes = self._group_bytes(order[0])
                    delta = created * group_bytes
                    gov.charge(delta, "hash_agg")
                    charged += delta
            if not groups and not self.group_fns:
                # Scalar aggregation over empty input yields one row.
                groups[()] = [_Accumulator(spec) for spec in self.specs]
                order.append(())
            acc = BatchAccumulator([self.output_entry_id],
                                   runtime.batch_size)
            for key in order:
                acc.add_values(
                    (key + tuple(a.result() for a in groups[key]),))
                if acc.full:
                    yield self._note(runtime, acc.flush())
            if acc.length:
                yield self._note(runtime, acc.flush())
        finally:
            if gov is not None and charged:
                gov.release(charged)

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
                yield from self._emit_merged(runtime, *merged)
                return
        acc = BatchAccumulator([self.output_entry_id],
                               runtime.batch_size)
        current_key: object = _NEVER
        accumulators: List[_Accumulator] = []
        saw_input = False
        specs = self.specs
        for batch in self._child_batches(runtime):
            length = batch.length
            if not length:
                continue
            saw_input = True
            group_cols, arg_cols = self._input_columns(batch)
            if group_cols:
                keys = list(zip(*group_cols))
            else:
                keys = [()] * length
            # Grouped input arrives in contiguous key runs; fold each
            # run's argument slices in one bulk call per aggregate.
            pos = 0
            for key, run in itertools.groupby(keys):
                start = pos
                pos += sum(1 for __ in run)
                if key != current_key:
                    if not isinstance(current_key, _Never):
                        acc.add_values((current_key + tuple(
                            a.result() for a in accumulators),))
                        if acc.full:
                            yield self._note(runtime, acc.flush())
                    current_key = key
                    accumulators = [_Accumulator(spec) for spec in specs]
                seg_len = pos - start
                for accumulator, column in zip(accumulators, arg_cols):
                    if column is None:  # COUNT(*)
                        accumulator.count += seg_len
                    else:
                        accumulator.add_many(column[start:pos])
        if saw_input:
            acc.add_values((current_key + tuple(
                a.result() for a in accumulators),))
        elif not self.group_fns:
            accumulators = [_Accumulator(spec) for spec in self.specs]
            acc.add_values(
                (tuple(a.result() for a in accumulators),))
        if acc.length:
            yield self._note(runtime, acc.flush())

    def _group_bytes(self, key: tuple) -> int:
        """Per-group charge estimate: key + one accumulator per spec."""
        return (approx_row_bytes(key)
                + ACCUMULATOR_BYTES * len(self.specs)
                + BUCKET_OVERHEAD_BYTES)

    def _run_hash(self, runtime: ExecutionRuntime) -> Iterator[None]:
        ctx = runtime.ctx
        groups: Dict[tuple, List[_Accumulator]] = {}
        order: List[tuple] = []
        gov = runtime.governor
        group_bytes = 0
        charged = 0
        try:
            for __ in self._child_states(runtime):
                key = tuple(fn(ctx) for fn in self.group_fns)
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = [_Accumulator(spec)
                                    for spec in self.specs]
                    groups[key] = accumulators
                    order.append(key)
                    # Charged per *group*, not per row: the hash table
                    # grows with distinct keys, which is exactly what a
                    # memory cap must bound.  A breach here is the one
                    # governed abort with a degradation path (the facade
                    # retries once with a forced streaming aggregate).
                    if gov is not None:
                        if group_bytes == 0:
                            group_bytes = self._group_bytes(key)
                        gov.charge(group_bytes, "hash_agg")
                        charged += group_bytes
                for accumulator in accumulators:
                    accumulator.add(ctx)
            if not groups and not self.group_fns:
                # Scalar aggregation over empty input yields one row.
                groups[()] = [_Accumulator(spec) for spec in self.specs]
                order.append(())
            slot = self.output_entry_id
            for key in order:
                ctx[slot] = key + tuple(a.result() for a in groups[key])
                self.actual_rows += 1
                yield
        finally:
            if gov is not None and charged:
                gov.release(charged)

    def _run_stream(self, runtime: ExecutionRuntime) -> Iterator[None]:
        ctx = runtime.ctx
        slot = self.output_entry_id
        current_key: object = _NEVER
        accumulators: List[_Accumulator] = []
        saw_input = False
        for __ in self._child_states(runtime):
            saw_input = True
            key = tuple(fn(ctx) for fn in self.group_fns)
            if isinstance(current_key, _Never):
                current_key = key
                accumulators = [_Accumulator(spec) for spec in self.specs]
            elif key != current_key:
                ctx[slot] = current_key + tuple(
                    a.result() for a in accumulators)
                self.actual_rows += 1
                yield
                current_key = key
                accumulators = [_Accumulator(spec) for spec in self.specs]
            for accumulator in accumulators:
                accumulator.add(ctx)
        if saw_input:
            ctx[slot] = current_key + tuple(a.result() for a in accumulators)
            self.actual_rows += 1
            yield
        elif not self.group_fns:
            accumulators = [_Accumulator(spec) for spec in self.specs]
            ctx[slot] = tuple(a.result() for a in accumulators)
            self.actual_rows += 1
            yield

    def label(self) -> str:
        parts = [f"{spec.func.value.lower()}(...)" for spec in self.specs]
        name = ("Aggregate" if not self.group_fns
                else "Group aggregate")
        mode = "streaming" if self.strategy is AggregateStrategy.STREAM \
            else "hash"
        return f"{name} ({mode}): " + ", ".join(parts)


class _Accumulator:
    """Incremental computation of one aggregate."""

    __slots__ = ("spec", "count", "total", "total_sq", "minimum", "maximum",
                 "distinct_values")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total = None
        self.total_sq = 0.0
        self.minimum = None
        self.maximum = None
        self.distinct_values = set() if spec.distinct else None

    def add(self, ctx) -> None:
        spec = self.spec
        if spec.star:
            self.count += 1
            return
        self.add_value(spec.arg_fn(ctx))

    def add_many(self, values: List) -> None:
        """Fold a run of already-evaluated argument values (batch path).

        Bulk twin of repeated :meth:`add_value` — same fold order, so
        float results are bit-identical to the row engine's."""
        spec = self.spec
        if spec.star:
            self.count += len(values)
            return
        if spec.distinct:
            # Per-value path preserves first-occurrence fold order.
            for value in values:
                self.add_value(value)
            return
        non_null = [value for value in values if value is not None]
        if not non_null:
            return
        self.count += len(non_null)
        func = spec.func
        if func in (ast.AggFunc.SUM, ast.AggFunc.AVG, ast.AggFunc.STDDEV):
            # sum(rest, first) folds left-to-right like the row engine.
            partial = sum(non_null[1:], non_null[0])
            self.total = partial if self.total is None \
                else self.total + partial
            if func is ast.AggFunc.STDDEV:
                self.total_sq += sum(
                    float(value) * float(value) for value in non_null)
        elif func is ast.AggFunc.MIN:
            smallest = min(non_null)
            if self.minimum is None or smallest < self.minimum:
                self.minimum = smallest
        elif func is ast.AggFunc.MAX:
            largest = max(non_null)
            if self.maximum is None or largest > self.maximum:
                self.maximum = largest

    @staticmethod
    def partial_of(spec: "AggSpec", values: List) -> object:
        """One chunk's detached partial state for the parallel merge.

        Folds ``values`` exactly like :meth:`add_many` would — including
        the left-to-right ``sum(rest, first)`` float order — but into a
        plain ``(count, sum, sum_sq, min, max)`` tuple a morsel worker
        can ship back; :meth:`fold_partial` replays it in the parent.
        COUNT(*) partials are a bare int.  DISTINCT specs have no
        partial form (first-occurrence order is global) and are excluded
        from parallel eligibility before this is called."""
        if spec.star:
            return len(values)
        non_null = [value for value in values if value is not None]
        if not non_null:
            return (0, None, 0.0, None, None)
        func = spec.func
        psum = None
        psq = 0.0
        if func in (ast.AggFunc.SUM, ast.AggFunc.AVG, ast.AggFunc.STDDEV):
            psum = sum(non_null[1:], non_null[0])
            if func is ast.AggFunc.STDDEV:
                psq = sum(float(value) * float(value)
                          for value in non_null)
        return (len(non_null), psum, psq,
                min(non_null) if func is ast.AggFunc.MIN else None,
                max(non_null) if func is ast.AggFunc.MAX else None)

    def fold_partial(self, partial) -> None:
        """Replay one chunk's :meth:`partial_of` state (parallel merge).

        Partials are folded in chunk order, so the accumulator goes
        through the same sequence of float additions as a serial run
        that called :meth:`add_many` once per chunk — results stay
        bit-identical."""
        spec = self.spec
        if spec.star:
            self.count += partial
            return
        count, psum, psq, pmin, pmax = partial
        if not count:
            return
        self.count += count
        func = spec.func
        if func in (ast.AggFunc.SUM, ast.AggFunc.AVG, ast.AggFunc.STDDEV):
            self.total = psum if self.total is None \
                else self.total + psum
            if func is ast.AggFunc.STDDEV:
                self.total_sq += psq
        elif func is ast.AggFunc.MIN:
            if self.minimum is None or pmin < self.minimum:
                self.minimum = pmin
        elif func is ast.AggFunc.MAX:
            if self.maximum is None or pmax > self.maximum:
                self.maximum = pmax

    def add_value(self, value) -> None:
        """Fold one already-evaluated argument value (batch path)."""
        spec = self.spec
        if value is None:
            return
        if self.distinct_values is not None:
            if value in self.distinct_values:
                return
            self.distinct_values.add(value)
        self.count += 1
        func = spec.func
        if func in (ast.AggFunc.SUM, ast.AggFunc.AVG, ast.AggFunc.STDDEV):
            self.total = value if self.total is None else self.total + value
            if func is ast.AggFunc.STDDEV:
                self.total_sq += float(value) * float(value)
        elif func is ast.AggFunc.MIN:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif func is ast.AggFunc.MAX:
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self):
        func = self.spec.func
        if func is ast.AggFunc.COUNT:
            return self.count
        if func is ast.AggFunc.SUM:
            return self.total
        if func is ast.AggFunc.AVG:
            if self.count == 0:
                return None
            return self.total / self.count
        if func is ast.AggFunc.MIN:
            return self.minimum
        if func is ast.AggFunc.MAX:
            return self.maximum
        if func is ast.AggFunc.STDDEV:
            if self.count == 0:
                return None
            mean = self.total / self.count
            variance = max(0.0, self.total_sq / self.count - mean * mean)
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
        self.live_entries = live_entries

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def produced_entries(self) -> List[int]:
        produced = list(self.child.produced_entries())
        produced.append(self.output_entry_id)
        return produced

    def run(self, runtime: ExecutionRuntime) -> Iterator[None]:
        self.actual_loops += 1
        ctx = runtime.ctx
        live = self.live_entries
        rows: List[tuple] = []
        for __ in self.child.run(runtime):
            rows.append(tuple(ctx[e] for e in live))
        outputs = [[None] * len(self.specs) for __ in rows]
        for spec_index, spec in enumerate(self.specs):
            spec.compute(rows, live, ctx, outputs, spec_index)
        slot = self.output_entry_id
        for row, out in zip(rows, outputs):
            for entry_id, value in zip(live, row):
                ctx[entry_id] = value
            ctx[slot] = tuple(out)
            self.actual_rows += 1
            yield

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
        # included); without one it is the whole partition.
        if not self.order_items:
            total = self._aggregate([record[2] for record in ordered])
            for record in ordered:
                outputs[record[3]][spec_index] = total
            return
        index = 0
        length = len(ordered)
        running: List[object] = []
        while index < length:
            peer_end = index
            while peer_end + 1 < length and \
                    ordered[peer_end + 1][1] == ordered[index][1]:
                peer_end += 1
            running.extend(record[2] for record in ordered[index:peer_end + 1])
            value = self._aggregate(running)
            for position in range(index, peer_end + 1):
                outputs[ordered[position][3]][spec_index] = value
            index = peer_end + 1

    def _aggregate(self, values: List[object]):
        non_null = [value for value in values if value is not None]
        func = self.func
        if func == "COUNT":
            return len(non_null) if self.arg_fns else len(values)
        if not non_null:
            return None
        if func == "SUM":
            total = non_null[0]
            for value in non_null[1:]:
                total = total + value
            return total
        if func == "AVG":
            total = non_null[0]
            for value in non_null[1:]:
                total = total + value
            return total / len(non_null)
        if func == "MIN":
            return min(non_null)
        if func == "MAX":
            return max(non_null)
        raise ExecutionError(f"unsupported window function {func}")


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
        #: Batch-compiled select expressions (set by batch lowering).
        self.bx_select: Optional[List[Callable]] = None

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
        fns = self.bx_select
        if self.root is None:
            batch = RowBatch({}, 1)
            runtime.note_batch(batch)
            columns = [fn(batch) for fn in fns]
            yield list(zip(*columns)) if columns else [()]
            return
        for batch in self.root.run_batches(runtime):
            columns = [fn(batch) for fn in fns]
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
