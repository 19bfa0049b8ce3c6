"""The MySQL-style cost-based optimizer driver.

Optimizes one SELECT block at a time (Section 2.2) in bottom-up order:
derived-table, CTE, and subquery blocks first so the parent block's join
ordering can use their output estimates.  The result is a
:class:`SkeletonPlan` — join order, join methods, and access methods
finalized; everything else left to plan refinement.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.catalog.catalog import Catalog
from repro.mysql_optimizer.cost import MySQLCostModel
from repro.mysql_optimizer.join_order import (
    JoinOrderSearch,
    SubBlockEstimate,
)
from repro.mysql_optimizer.skeleton import (
    AggStrategy,
    BlockSkeleton,
    SkeletonPlan,
)
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind, QueryBlock, StatementContext


class MySQLOptimizer:
    """Produces skeleton plans the MySQL way: greedy, left-deep, NLJ-first."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        # MySQL's classic estimation: NDV-based, no histogram ranges.
        self.estimator = SelectivityEstimator(catalog, use_histograms=False)
        self.cost_model = MySQLCostModel()

    def optimize(self, top_block: QueryBlock,
                 context: StatementContext) -> SkeletonPlan:
        plan = SkeletonPlan(context, top_block, origin="mysql")
        self._optimize_block(top_block, plan, set())
        return plan

    # -- recursion ------------------------------------------------------------------

    def _optimize_block(self, block: QueryBlock, plan: SkeletonPlan,
                        in_progress: Set[int]) -> BlockSkeleton:
        existing = plan.blocks.get(block.block_id)
        if existing is not None:
            return existing
        if block.block_id in in_progress:
            raise RuntimeError("cyclic block structure")
        in_progress.add(block.block_id)

        sub_estimates: Dict[int, SubBlockEstimate] = {}
        for sub in self._sub_blocks(block):
            skeleton = self._optimize_block(sub, plan, in_progress)
            sub_estimates[sub.block_id] = SubBlockEstimate(
                rows=skeleton.total_rows, cost=skeleton.total_cost)

        skeleton = self._optimize_one(block, sub_estimates)
        plan.add(skeleton)
        in_progress.discard(block.block_id)
        return skeleton

    def _sub_blocks(self, block: QueryBlock) -> List[QueryBlock]:
        subs: List[QueryBlock] = []
        for binding in block.cte_bindings:
            subs.append(binding.block)
        for entry in block.entries:
            if entry.kind in (EntryKind.DERIVED, EntryKind.CTE) and \
                    entry.sub_block is not None:
                subs.append(entry.sub_block)
        subs.extend(block.facts.sub_blocks)
        for __, side in block.set_ops:
            subs.append(side)
        return subs

    # -- per-block optimization ---------------------------------------------------------

    def _optimize_one(self, block: QueryBlock,
                      sub_estimates: Dict[int, SubBlockEstimate]
                      ) -> BlockSkeleton:
        if block.entries:
            search = JoinOrderSearch(block, self.estimator, self.cost_model,
                                     sub_estimates)
            positions, cost, rows = search.search()
        else:
            positions, cost, rows = [], 0.0, 1.0

        if block.aggregated:
            group_rows = self._group_estimate(block, rows)
            cost += self.cost_model.sort_cost(rows)
            cost += self.cost_model.aggregate_cost(rows)
            rows = group_rows
        if block.having_conjuncts:
            rows = max(1.0, rows * 0.5)
        if block.windows:
            cost += self.cost_model.sort_cost(rows) * len(block.windows)
        if block.order_by:
            cost += self.cost_model.sort_cost(rows)
        if block.distinct:
            rows = max(1.0, rows * 0.5)
        if block.limit is not None:
            rows = min(rows, float(block.limit))

        return BlockSkeleton(
            block=block,
            positions=positions,
            total_cost=cost,
            total_rows=max(1.0, rows),
            # MySQL's classic plan: sort the join output, then stream
            # aggregate (both paper Q72 plans end this way).
            agg_strategy=AggStrategy.STREAM,
            order_satisfied=False,
        )

    def _group_estimate(self, block: QueryBlock, input_rows: float) -> float:
        if not block.group_by:
            return 1.0
        groups = 1.0
        for expr in block.group_by:
            if isinstance(expr, ast.ColumnRef):
                groups *= self.estimator.column_ndv(block, expr)
            else:
                groups *= 10.0
        return max(1.0, min(groups, input_rows * 0.7 + 1.0))
