"""The Orca optimizer driver: logical block tree to costed physical plan.

Runs the Cascades-style search over one converted query block: the n-ary
inner-join core goes through the configured join-order search; LEFT OUTER
joins, semi/anti nests, correlated derived tables, residual selections,
aggregation, ordering, and limits layer on top with per-alternative
costing.  The conservative integration never moves operators across block
boundaries (Section 9: "being careful to not change the query block
structure").

The rules the paper disabled for the MySQL target are represented as
config flags that default to off:

* ``enable_groupby_below_join`` (Section 7, Orca change 5) — MySQL's
  executor cannot run group-by-below-join plans;
* ``enable_multi_table_semi_build`` (change 6) — semi hash joins whose
  build side contains more than one table are never generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OrcaError
from repro.executor.plan import AccessMethod
from repro.mysql_optimizer.access_path import (
    ordered_index_access,
    ref_access,
)
from repro.mysql_optimizer.skeleton import AccessPlan
from repro.orca.cost_model import OrcaCostModel
from repro.orca.joinorder import (
    JoinSearchMode,
    OrcaJoinSearch,
    SubEstimates,
    plan_unit,
)
from repro.orca.memo import Memo
from repro.orca.operators import (
    JoinVariant,
    LogicalGet,
    OrcaLogicalBlock,
    PhysicalGbAgg,
    PhysicalGet,
    PhysicalHashJoin,
    PhysicalLimit,
    PhysicalNLJoin,
    PhysicalOp,
    PhysicalSort,
)
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    NestKind,
    QueryBlock,
)
from repro.sql.facts import ids_mask


@dataclass
class OrcaConfig:
    """Search and rule configuration for the Orca optimizer."""

    search: JoinSearchMode = JoinSearchMode.EXHAUSTIVE2
    enable_or_factorization: bool = True
    enable_derived_subqueries: bool = True
    enable_cte_pushdown: bool = True
    #: Orca rules disabled for the MySQL target (Section 7, items 5-6).
    enable_groupby_below_join: bool = False
    enable_multi_table_semi_build: bool = False
    #: Restrict the search to left-deep trees (ablation A2 only; real Orca
    #: always considers bushy trees).
    left_deep_only: bool = False
    #: Branch-and-bound pruning in the DP join search: candidates whose
    #: input-cost lower bound already reaches the group's best complete
    #: plan are skipped without costing.  Sound (the chosen plan's cost
    #: matches the unpruned search); off only for A/B measurement.
    enable_cost_bound_pruning: bool = True
    #: Per-component strategy selection for the join search
    #: (:mod:`repro.orca.largejoin`): ``adaptive`` picks full DP / GOO
    #: / greedy by component size and remaining compile budget; any
    #: :class:`~repro.orca.largejoin.JoinStrategy` value forces that
    #: strategy (benchmarks and tests, through
    #: :func:`repro.bench.harness.forced_orca_config`).
    join_strategy: str = "adaptive"


@dataclass
class OrcaBlockPlan:
    """The optimized physical plan for one query block."""

    block: QueryBlock
    root: Optional[PhysicalOp]
    cost: float
    rows: float
    memo: Memo
    agg_streaming: bool = True
    order_satisfied: bool = False


class OrcaOptimizer:
    """Optimizes converted logical blocks bottom-up."""

    def __init__(self, estimator: SelectivityEstimator,
                 config: Optional[OrcaConfig] = None,
                 budget=None, fault_injector=None,
                 tracer=None, metrics=None) -> None:
        self.estimator = estimator
        self.config = config or OrcaConfig()
        self.cost_model = OrcaCostModel()
        #: Optional :class:`repro.resilience.CompileBudget` checked inside
        #: the join search so pathological queries abort, not hang.
        self.budget = budget
        self.fault_injector = fault_injector
        if tracer is None:
            from repro.observability import NOOP_TRACER
            tracer = NOOP_TRACER
        self.tracer = tracer
        self.metrics = metrics

    # -- public API ------------------------------------------------------------------

    def optimize_block(self, logical: OrcaLogicalBlock,
                       sub_estimates: SubEstimates) -> OrcaBlockPlan:
        with self.tracer.span("memo_search",
                              block_id=logical.block.block_id) as span:
            evaluations_before = self.cost_model.evaluations
            block_plan, search = self._optimize_block(logical,
                                                      sub_estimates)
            evaluations = (self.cost_model.evaluations
                           - evaluations_before)
            memo = block_plan.memo
            # The block's dominant (largest) joined component names the
            # strategy reported for the whole block; single-unit blocks
            # never enter the selector.
            strategies = search.strategies if search else []
            join_strategy, join_units = (
                max(strategies, key=lambda item: item[1])
                if strategies else (None, 0))
            degradations = search.budget_degradations if search else 0
            span.set(memo_groups=memo.group_count,
                     memo_alternatives=memo.total_alternatives,
                     memo_offered=memo.total_offered,
                     cost_evaluations=evaluations,
                     dp_expansions=search.expansions if search else 0,
                     chains_costed=search.chains_costed if search else 0,
                     pruned_candidates=(search.pruned_candidates
                                        if search else 0),
                     access_memo_hits=(search.access_memo_hits
                                       if search else 0),
                     join_strategy=join_strategy,
                     join_units=join_units,
                     join_budget_degradations=degradations,
                     best_cost=block_plan.cost)
            if self.metrics is not None:
                self.metrics.inc("orca.blocks_optimized")
                self.metrics.observe("orca.memo_groups", memo.group_count)
                self.metrics.observe("orca.memo_alternatives",
                                     memo.total_alternatives)
                self.metrics.observe("orca.cost_evaluations", evaluations)
                self.metrics.inc("orca.pruned_candidates",
                                 search.pruned_candidates
                                 if search else 0)
                for name, __ in strategies:
                    self.metrics.inc(f"orca.join_strategy.{name}")
                if degradations:
                    self.metrics.inc("orca.join_budget_degradations",
                                     degradations)
            return block_plan

    def _optimize_block(self, logical: OrcaLogicalBlock,
                        sub_estimates: SubEstimates
                        ) -> Tuple[OrcaBlockPlan,
                                   Optional["OrcaJoinSearch"]]:
        if self.fault_injector is not None:
            self.fault_injector.fire("optimizer")
        if self.budget is not None:
            self.budget.check()
        block = logical.block
        memo = Memo()
        corr = block.facts.corr_mask

        plan: Optional[PhysicalOp] = None
        cost = 0.0
        rows = 1.0
        placed_entries = 0
        search: Optional[OrcaJoinSearch] = None
        if logical.core.units:
            mode = self.config.search
            if self.config.left_deep_only:
                mode = JoinSearchMode.GREEDY
            search = OrcaJoinSearch(
                logical.core.units, logical.core.conjuncts, block,
                self.estimator, self.cost_model, sub_estimates, corr,
                mode, memo, budget=self.budget,
                enable_pruning=self.config.enable_cost_bound_pruning,
                strategy_policy=self.config.join_strategy)
            plan, cost, rows = search.search()
            placed_entries = ids_mask(unit.descriptor.entry.entry_id
                                      for unit in logical.core.units)

        for spec in logical.outer_joins:
            plan, cost, rows, placed_entries = self._attach_outer_join(
                block, plan, cost, rows, placed_entries, spec, corr,
                sub_estimates)
        for spec in logical.semi_joins:
            plan, cost, rows, placed_entries = self._attach_semi_join(
                block, plan, cost, rows, placed_entries, spec, corr,
                sub_estimates)
        for unit, conjuncts in self._dependent_pairs(logical):
            plan, cost, rows, placed_entries = self._attach_dependent(
                block, plan, cost, rows, placed_entries, unit, conjuncts,
                corr, sub_estimates)

        for conjunct in logical.residual.conjuncts:
            rows = max(1e-3, rows * self.estimator.conjunct_selectivity(
                block, conjunct))

        agg_streaming = True
        if logical.agg is not None:
            plan, cost, rows, agg_streaming = self._attach_agg(
                block, logical, plan, cost, rows)

        order_satisfied = False
        if logical.limit.order_items:
            plan, cost, order_satisfied = self._attach_order(
                block, logical, plan, cost, rows, agg_streaming)
        if logical.limit.limit is not None:
            plan = self._wrap(PhysicalLimit(plan, logical.limit.limit,
                                            logical.limit.offset),
                              cost, min(rows, float(logical.limit.limit)))
            rows = min(rows, float(logical.limit.limit))

        if block.distinct:
            rows = max(1.0, rows * 0.5)

        return OrcaBlockPlan(block=block, root=plan, cost=cost,
                             rows=max(1.0, rows), memo=memo,
                             agg_streaming=agg_streaming,
                             order_satisfied=order_satisfied), search

    # -- helpers -----------------------------------------------------------------------

    def _wrap(self, op: PhysicalOp, cost: float, rows: float) -> PhysicalOp:
        op.cost = cost
        op.rows = rows
        return op

    def _dependent_pairs(self, logical: OrcaLogicalBlock
                         ) -> List[Tuple[LogicalGet, List[ast.Expr]]]:
        mask = logical.block.facts.mask
        pairs = []
        for unit in logical.dependent_units:
            own = unit.descriptor.entry.entry_id
            mine = [c for c in logical.dependent_conjuncts
                    if mask(c) >> own & 1]
            pairs.append((unit, mine))
        return pairs

    def _join_fanout(self, block: QueryBlock, conjuncts: List[ast.Expr],
                     inner_rows: float) -> float:
        return max(1e-6, inner_rows
                   * self.estimator.join_selectivity(block, conjuncts))

    def _attach_outer_join(self, block: QueryBlock, plan: PhysicalOp,
                           cost: float, rows: float,
                           placed: int, spec, corr: int,
                           sub_estimates: SubEstimates):
        if plan is None:
            raise OrcaError("LEFT JOIN without a driving side")
        unit = spec.inner
        entry = unit.descriptor.entry
        access, unit_cost, unit_rows, get = plan_unit(
            unit, block, self.estimator, self.cost_model, sub_estimates)
        fanout = self._join_fanout(block, spec.on_conjuncts, unit_rows)
        out_rows = max(rows, rows * fanout)

        # Hash left join: probe = preserved side, build = inner.
        best_cost = (cost + unit_cost + self.cost_model.hash_join_cost(
            unit_rows, rows, out_rows))
        best = PhysicalHashJoin(plan, get, JoinVariant.LEFT,
                                list(spec.on_conjuncts))
        # Index NL left join.
        if entry.kind is EntryKind.BASE:
            ref = ref_access(block, entry, list(spec.on_conjuncts),
                             placed | corr, self.estimator, self.cost_model)
            if ref is not None:
                nl_cost = cost + self.cost_model.index_nljoin_cost(
                    rows, ref.est_cost)
                if nl_cost < best_cost:
                    inner = PhysicalGet(unit.descriptor, ref,
                                        list(unit.conjuncts))
                    inner.cost, inner.rows = ref.est_cost, ref.est_rows
                    best = PhysicalNLJoin(plan, inner, JoinVariant.LEFT,
                                          list(spec.on_conjuncts),
                                          index_inner=True)
                    best_cost = nl_cost
        # NLJ rescan.
        rescan_cost = cost + self.cost_model.nljoin_rescan_cost(
            rows, unit_cost)
        if rescan_cost < best_cost:
            best = PhysicalNLJoin(plan, get, JoinVariant.LEFT,
                                  list(spec.on_conjuncts))
            best_cost = rescan_cost
        self._wrap(best, best_cost, out_rows)
        return best, best_cost, out_rows, placed | 1 << entry.entry_id

    def _attach_semi_join(self, block: QueryBlock, plan: PhysicalOp,
                          cost: float, rows: float, placed: int,
                          spec, corr: int,
                          sub_estimates: SubEstimates):
        if plan is None:
            raise OrcaError("semi-join without a driving side")
        variant = JoinVariant.SEMI if spec.kind is NestKind.SEMI \
            else JoinVariant.ANTI
        inner_entries = ids_mask(unit.descriptor.entry.entry_id
                                 for unit in spec.inners)

        # Per-probe inner fanout for the match probability.
        inner_rows = 1.0
        for unit in spec.inners:
            __, __, unit_rows, __ = plan_unit(
                unit, block, self.estimator, self.cost_model, sub_estimates)
            inner_rows *= unit_rows
        fanout = self._join_fanout(block, spec.conjuncts, inner_rows)
        match_prob = min(1.0, fanout)
        if variant is JoinVariant.SEMI:
            out_rows = max(0.5, rows * max(match_prob, 1e-3))
        else:
            out_rows = max(0.5, rows * max(0.02, 1.0 - match_prob))

        candidates: List[Tuple[float, PhysicalOp]] = []
        # Index NL semi/anti: single inner with a usable index.
        if len(spec.inners) == 1:
            unit = spec.inners[0]
            entry = unit.descriptor.entry
            if entry.kind is EntryKind.BASE:
                ref = ref_access(block, entry,
                                 unit.conjuncts + spec.conjuncts,
                                 placed | corr, self.estimator,
                                 self.cost_model)
                if ref is not None:
                    nl_cost = cost + self.cost_model.index_nljoin_cost(
                        rows, ref.est_cost)
                    inner = PhysicalGet(unit.descriptor, ref,
                                        list(unit.conjuncts))
                    inner.cost, inner.rows = ref.est_cost, ref.est_rows
                    join = PhysicalNLJoin(plan, inner, variant,
                                          list(spec.conjuncts),
                                          index_inner=True)
                    candidates.append((nl_cost, join))
        # The inner side planned once, without outer bindings: the hash
        # build side and the rescan inner are the same plan.  Neither
        # candidate writes into it, and only the cheaper one survives.
        inner_plan, inner_cost, inner_plan_rows = self._standalone_inner(
            block, spec, corr, sub_estimates)
        # Hash semi/anti: build side must be a single table unless the
        # multi-table rule is enabled (it is disabled for MySQL, lesson 6).
        allow_hash = (len(spec.inners) == 1
                      or self.config.enable_multi_table_semi_build)
        if allow_hash and self._equi_bridge(block, spec.conjuncts,
                                            placed | corr, inner_entries):
            hash_cost = (cost + inner_cost
                         + self.cost_model.hash_join_cost(
                             inner_plan_rows, rows, out_rows))
            join = PhysicalHashJoin(plan, inner_plan, variant,
                                    list(spec.conjuncts))
            candidates.append((hash_cost, join))
        # NLJ rescan fallback.
        rescan_cost = cost + self.cost_model.nljoin_rescan_cost(
            rows, inner_cost)
        candidates.append((rescan_cost,
                           PhysicalNLJoin(plan, inner_plan, variant,
                                          list(spec.conjuncts))))
        best_cost, best = min(candidates, key=lambda item: item[0])
        self._wrap(best, best_cost, out_rows)
        return best, best_cost, out_rows, placed | inner_entries

    def _standalone_inner(self, block: QueryBlock, spec, corr: int,
                          sub_estimates: SubEstimates
                          ) -> Tuple[PhysicalOp, float, float]:
        """Plan the nest's inner side without outer bindings."""
        allowed = corr | ids_mask(unit.descriptor.entry.entry_id
                                  for unit in spec.inners)
        mask = block.facts.mask
        internal = [c for c in spec.conjuncts if not mask(c) & ~allowed]
        memo = Memo()
        search = OrcaJoinSearch(spec.inners, internal, block,
                                self.estimator, self.cost_model,
                                sub_estimates, corr,
                                JoinSearchMode.GREEDY, memo,
                                budget=self.budget,
                                enable_pruning=self.config
                                .enable_cost_bound_pruning)
        return search.search()

    def _equi_bridge(self, block: QueryBlock, conjuncts: List[ast.Expr],
                     outer: int, inner: int) -> bool:
        """Whether some conjunct is an equality between an expression of
        the ``outer`` entries and one of the ``inner`` entries."""
        mask = block.facts.mask
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.BinaryExpr) and \
                    conjunct.op is ast.BinOp.EQ:
                left = mask(conjunct.left)
                right = mask(conjunct.right)
                if not left or not right:
                    continue
                if (not left & ~outer and not right & ~inner) or \
                        (not left & ~inner and not right & ~outer):
                    return True
        return False

    def _attach_dependent(self, block: QueryBlock, plan: PhysicalOp,
                          cost: float, rows: float, placed: int,
                          unit: LogicalGet, conjuncts: List[ast.Expr],
                          corr: int, sub_estimates: SubEstimates):
        if plan is None:
            raise OrcaError("correlated derived table without outer side")
        entry = unit.descriptor.entry
        sub_rows, sub_cost = sub_estimates.get(
            entry.sub_block.block_id if entry.sub_block else -1)
        access = AccessPlan(method=AccessMethod.MATERIALIZE,
                            est_rows=sub_rows, est_cost=sub_cost)
        get = PhysicalGet(unit.descriptor, access, list(unit.conjuncts))
        get.cost, get.rows = sub_cost, sub_rows
        # Rebind per outer row: correlation usually narrows the subquery to
        # an indexed probe, so charge a fraction of the standalone cost.
        per_probe = max(1.0, sub_cost * 0.05)
        join_cost = cost + rows * per_probe
        fanout = self._join_fanout(block, conjuncts, sub_rows)
        out_rows = max(0.5, rows * min(1.0, fanout))
        join = PhysicalNLJoin(plan, get, JoinVariant.INNER, conjuncts)
        self._wrap(join, join_cost, out_rows)
        return join, join_cost, out_rows, placed | 1 << entry.entry_id

    # -- aggregation and ordering ------------------------------------------------------

    def _attach_agg(self, block: QueryBlock, logical: OrcaLogicalBlock,
                    plan: Optional[PhysicalOp], cost: float, rows: float):
        groups = self._group_estimate(block, logical.agg.group_exprs, rows)
        stream_cost = cost + self.cost_model.sort_cost(rows) \
            + self.cost_model.stream_agg_cost(rows)
        hash_cost = cost + self.cost_model.hash_agg_cost(rows, groups)
        streaming = stream_cost <= hash_cost or not logical.agg.group_exprs
        agg = PhysicalGbAgg(plan, logical.agg.group_exprs,
                            logical.agg.agg_calls, streaming)
        total = min(stream_cost, hash_cost) if logical.agg.group_exprs \
            else cost + self.cost_model.stream_agg_cost(rows)
        self._wrap(agg, total, groups)
        return agg, total, groups, streaming

    def _group_estimate(self, block: QueryBlock,
                        group_exprs: List[ast.Expr],
                        input_rows: float) -> float:
        if not group_exprs:
            return 1.0
        groups = 1.0
        for expr in group_exprs:
            if isinstance(expr, ast.ColumnRef):
                groups *= self.estimator.column_ndv(block, expr)
            else:
                groups *= 10.0
        return max(1.0, min(groups, input_rows * 0.7 + 1.0))

    def _attach_order(self, block: QueryBlock, logical: OrcaLogicalBlock,
                      plan: Optional[PhysicalOp], cost: float, rows: float,
                      agg_streaming: bool):
        order_items = logical.limit.order_items
        # An order-supplying index scan (Section 7, Orca change 4): only
        # when the whole block is a single ordered get.
        if isinstance(plan, PhysicalGet) and \
                plan.access.method is AccessMethod.TABLE_SCAN:
            supplied = ordered_index_access(plan.descriptor.entry,
                                            order_items)
            if supplied is not None:
                index_name, descending = supplied
                plan.access = AccessPlan(
                    method=AccessMethod.INDEX_SCAN, index_name=index_name,
                    descending=descending, est_rows=plan.access.est_rows,
                    est_cost=plan.access.est_cost * 1.3)
                return plan, cost + plan.access.est_cost * 0.3, True
        sort = PhysicalSort(plan, order_items)
        total = cost + self.cost_model.sort_cost(rows)
        self._wrap(sort, total, rows)
        return sort, total, False
