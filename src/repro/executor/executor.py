"""The statement executor: runs a bundle of per-block query plans.

One :class:`Executor` is built per optimized statement.  It owns the plan
for every query block (the top-level block plus derived tables, CTEs, and
subquery blocks), creates a fresh :class:`~repro.executor.plan.ExecutionRuntime`
per execution, and serves as the subplan host for compiled subquery
expressions.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ExecutionError
from repro.executor.batch import lower_executor
from repro.executor.parallel import ParallelContext
from repro.executor.plan import (
    DerivedMaterializeNode,
    ExecutionRuntime,
    QueryPlan,
    walk_plan_nodes,
)
from repro.observability import NOOP_TRACER
from repro.sql.blocks import QueryBlock


class Executor:
    """Executes an optimized statement against a storage engine."""

    def __init__(self, storage, context) -> None:
        self.storage = storage
        #: The statement context; its entry count (read at execution time,
        #: after plan building may have added pseudo entries) sizes the
        #: runtime context array.
        self.context = context
        self._plans: Dict[int, QueryPlan] = {}
        self.top_plan: Optional[QueryPlan] = None
        #: The runtime of the in-flight execution; compiled subquery
        #: closures read this to find per-execution caches.
        self.current_runtime: Optional[ExecutionRuntime] = None
        #: Whether the plans carry their batch lowering, done once per
        #: Executor (plans are shared across executions through the
        #: statement plan cache).
        self._batch_lowered = False
        #: Expressions compiled by the lowering.
        self.compiled_expr_count = 0
        #: ParallelContext of the most recent execute(), or None when
        #: one worker was requested.  ``last_parallel.ops == 0`` means
        #: the statement ran serial; ``last_parallel.decision`` says why.
        self.last_parallel = None
        #: Facts of the compiled plan, computed once and cached here
        #: because the plan cache shares one Executor across executions:
        #: the literal-free shape hash, the (table, column, kind) column
        #: touches and the operator kind of every plan node.  None / ()
        #: until the Database first records a statement run by this
        #: executor.
        self.plan_hash: Optional[str] = None
        self.column_touches: tuple = ()
        self.operator_kinds: tuple = ()
        #: Catalog epoch of every base table the statement binds, read
        #: when it was resolved — what the plan cache validates a stored
        #: plan against (set by the Database facade's compile step).
        self.table_epochs: Dict[str, int] = {}

    # -- plan registry -----------------------------------------------------------

    def register_plan(self, block: QueryBlock, plan: QueryPlan,
                      top: bool = False) -> None:
        self._plans[block.block_id] = plan
        if top:
            self.top_plan = plan

    def plan_for(self, block: QueryBlock) -> QueryPlan:
        try:
            return self._plans[block.block_id]
        except KeyError:
            raise ExecutionError(
                f"no plan registered for block #{block.block_id}") from None

    def has_plan(self, block: QueryBlock) -> bool:
        return block.block_id in self._plans

    def block_plans(self) -> List[QueryPlan]:
        """Every registered block plan, the top plan included."""
        return list(self._plans.values())

    # -- execution ---------------------------------------------------------------

    def run_block(self, block: QueryBlock,
                  runtime: ExecutionRuntime) -> Iterator[tuple]:
        """Run one block's plan under an existing runtime (subqueries).

        In a batch execution the body runs its batch plan to completion,
        with the runtime's parallel context set aside: a body never
        fans out, and never records a fan-out decision over the
        statement's."""
        plan = self.plan_for(block)
        if not runtime.batch:
            return plan.run(runtime)
        parallel = runtime.parallel
        runtime.parallel = None
        try:
            rows: List[tuple] = []
            for chunk in plan.run_batches(runtime):
                rows.extend(chunk)
        finally:
            runtime.parallel = parallel
        return iter(rows)

    def iter_plan_nodes(self):
        """Every plan node across all registered block plans, once.

        Registered block plans can share nodes (a derived table's
        sub-plan is both a registered block and reachable through its
        materialize node), so the union is deduplicated by identity.
        """
        seen = set()
        for plan in self._plans.values():
            for node in walk_plan_nodes(plan):
                if id(node) not in seen:
                    seen.add(id(node))
                    yield node

    def reset_actuals(self) -> None:
        """Zero every node's actual-row/batch counters.

        Called at the start of each execution: plan-cached statements
        share one Executor across runs, and the plan-quality loop reads
        per-execution (not cumulative) actuals."""
        for node in self.iter_plan_nodes():
            node.actual_rows = 0
            node.actual_batches = 0
            node.actual_loops = 0
            node.px_workers = 0
            if isinstance(node, DerivedMaterializeNode):
                node.actual_rebinds = 0

    def ensure_batch_lowered(self, tracer=None) -> None:
        """Lower the statement's plans for batch execution (cached).

        The first call runs under a ``lower`` span (``compiled_exprs``);
        later calls, plan-cache hits included, cost nothing.
        """
        if not self._batch_lowered:
            with (tracer or NOOP_TRACER).span("lower") as span:
                self.compiled_expr_count = lower_executor(self)
                self._batch_lowered = True
                span.set(compiled_exprs=self.compiled_expr_count)

    def execute(self, mode: str = "row",
                metrics=None, governor=None, injector=None,
                workers: int = 1, tracer=None) -> List[tuple]:
        """Run the statement in ``mode`` ("batch" or "row", the
        reference interpreter) and return all output rows.

        ``governor`` is the per-statement
        :class:`repro.governor.ExecutionGovernor` (the runtime makes an
        unbounded one when a direct caller passes none) and ``injector``
        an optional execution-stage fault injector; both ride on the
        runtime.  ``workers > 1`` lets eligible pre-aggregations on the
        batch path fan out to forked workers when the cost gate says it
        pays (row mode always runs serial)."""
        if self.top_plan is None:
            raise ExecutionError("no top-level plan registered")
        self.reset_actuals()
        chunks_skipped_before = self.storage.counters.chunks_skipped
        parallel = None
        if mode == "batch":
            self.ensure_batch_lowered(tracer)
            if workers > 1:
                parallel = ParallelContext(workers, tracer=tracer,
                                           metrics=metrics)
        runtime = ExecutionRuntime(self.storage, self.context.entry_count,
                                   governor=governor, injector=injector,
                                   parallel=parallel, batch=mode == "batch")
        self.last_parallel = parallel
        previous = self.current_runtime
        self.current_runtime = runtime
        #: Kept for post-execution inspection (batch counts, the
        #: subquery cache).
        self.last_runtime = runtime
        try:
            if mode == "batch":
                rows: List[tuple] = []
                for chunk in self.top_plan.run_batches(runtime):
                    rows.extend(chunk)
                if metrics is not None:
                    metrics.inc("executor.batches", runtime.batches)
                    metrics.inc("executor.batch_rows", runtime.batch_rows)
                    metrics.inc("exec.compiled_exprs",
                                self.compiled_expr_count)
                    if parallel is not None:
                        metrics.inc("executor.parallel_fanout",
                                    parallel.ops)
                        metrics.inc("executor.parallel_gated",
                                    parallel.gated)
                        metrics.inc("executor.morsels", parallel.morsels)
                        metrics.inc("executor.parallel_workers",
                                    parallel.workers_spawned)
                return rows
            return list(self.top_plan.run(runtime))
        finally:
            self.current_runtime = previous
            if metrics is not None:
                skipped = (self.storage.counters.chunks_skipped
                           - chunks_skipped_before)
                if skipped:
                    metrics.inc("storage.chunks_skipped", skipped)
