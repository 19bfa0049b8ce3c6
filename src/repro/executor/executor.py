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
from repro.executor.batch import BatchUnsupported, lower_executor
from repro.executor.parallel import ParallelContext
from repro.executor.plan import (
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
        #: Batch-lowering state, cached per Executor (plans are shared
        #: across executions through the statement plan cache).  None =
        #: not attempted; True = lowered; False = unsupported.
        self._batch_lowered: Optional[bool] = None
        #: Expressions compiled by a successful lowering.
        self.compiled_expr_count = 0
        #: Why batch lowering refused this statement (str or None).
        self.batch_unsupported_reason: Optional[str] = None
        #: Mode the most recent execute() actually ran in.
        self.last_mode = "row"
        #: Governor of the most recent execute(), for post-execution
        #: reporting (EXPLAIN ANALYZE footer, StatementResult stats).
        self.last_governor = None
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

    # -- execution ---------------------------------------------------------------

    def run_block(self, block: QueryBlock,
                  runtime: ExecutionRuntime) -> Iterator[tuple]:
        """Run one block's plan under an existing runtime (subqueries)."""
        return self.plan_for(block).run(runtime)

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

    def ensure_batch_lowered(self, tracer=None) -> bool:
        """Lower the statement's plans for batch execution (cached).

        Returns True when the batch path is available; on the first
        refusal records ``batch_unsupported_reason`` and permanently
        routes this statement to the row engine.  The first call runs
        under a ``lower`` span (``compiled_exprs``, ``outcome`` =
        ``batch`` | ``row``); later calls, plan-cache hits included,
        cost nothing.
        """
        if self._batch_lowered is None:
            with (tracer or NOOP_TRACER).span("lower") as span:
                try:
                    self.compiled_expr_count = lower_executor(self)
                    self._batch_lowered = True
                except BatchUnsupported as exc:
                    self._batch_lowered = False
                    self.batch_unsupported_reason = str(exc)
                span.set(compiled_exprs=self.compiled_expr_count,
                         outcome="batch" if self._batch_lowered else "row")
        return self._batch_lowered

    def execute(self, mode: str = "row",
                metrics=None, governor=None, injector=None,
                workers: int = 1, tracer=None) -> List[tuple]:
        """Run the statement and return all output rows.

        ``mode`` is the *requested* executor mode; ``last_mode`` reports
        what actually ran (batch requests degrade per-statement to the
        row engine when lowering refuses the plan).  ``governor`` is the
        per-statement :class:`repro.governor.ExecutionGovernor` (or
        None for unbounded execution) and ``injector`` an optional
        execution-stage fault injector; both ride on the runtime.
        ``workers > 1`` lets eligible pre-aggregations on the batch path
        fan out to forked workers when the cost gate says it pays (row
        mode always runs serial)."""
        if self.top_plan is None:
            raise ExecutionError("no top-level plan registered")
        self.reset_actuals()
        chunks_skipped_before = self.storage.counters.chunks_skipped
        parallel = None
        if workers > 1 and mode == "batch" \
                and self.ensure_batch_lowered(tracer):
            parallel = ParallelContext(workers, tracer=tracer,
                                       metrics=metrics)
        runtime = ExecutionRuntime(self.storage, self.context.entry_count,
                                   governor=governor, injector=injector,
                                   parallel=parallel)
        self.last_governor = governor
        self.last_parallel = parallel
        previous = self.current_runtime
        self.current_runtime = runtime
        #: Kept for post-execution inspection (EXPLAIN ANALYZE rebinds).
        self.last_runtime = runtime
        try:
            if mode == "batch" and self.ensure_batch_lowered(tracer):
                self.last_mode = "batch"
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
            self.last_mode = "row"
            return list(self.top_plan.run(runtime))
        finally:
            self.current_runtime = previous
            if metrics is not None:
                skipped = (self.storage.counters.chunks_skipped
                           - chunks_skipped_before)
                if skipped:
                    metrics.inc("storage.chunks_skipped", skipped)
