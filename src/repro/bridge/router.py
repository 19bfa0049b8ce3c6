"""Query routing: which optimizer compiles a statement (Sections 3, 4.1).

The router implements the paper's conservative policy:

* only SELECT statements are ever routed to Orca (the parser already
  restricts this reproduction to SELECT);
* only "complex" queries qualify — complexity is the total number of table
  references, and the threshold defaults to 3 (checked by the Database
  facade for ``optimizer="auto"``);
* recursive CTEs and multi-column GROUPING are rejected before Orca
  (the SQL frontend already refuses them, mirroring Section 4.1);
* the whole detour runs under a :class:`repro.resilience.DetourGuard`:
  typed aborts (:class:`OrcaFallbackError`), compile-budget overruns,
  and *any* unexpected exception make the router fall back, and the
  caller "resorts to the usual MySQL query optimization" — the outcome
  (reason + error details) is reported so the facade can log it and
  feed the circuit breaker.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.catalog.catalog import Catalog
from repro.errors import OrcaFallbackError, ReproError
from repro.bridge.metadata_provider import MySQLMetadataProvider
from repro.bridge.parse_tree_converter import ParseTreeConverter
from repro.bridge.plan_converter import OrcaPlanConverter
from repro.mysql_optimizer.skeleton import SkeletonPlan
from repro.orca.joinorder import JoinSearchMode, SubEstimates
from repro.orca.mdcache import MDAccessor, MDCache
from repro.orca.optimizer import OrcaBlockPlan, OrcaConfig, OrcaOptimizer
from repro.orca.preprocess import preprocess_block, push_cte_predicates
from repro.resilience import CompileBudget, DetourGuard, DetourOutcome
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind, QueryBlock, StatementContext


def _search_mode(config) -> JoinSearchMode:
    """Validate ``config.orca_search`` instead of dying on a raw KeyError."""
    name = config.orca_search
    try:
        return JoinSearchMode[name]
    except KeyError:
        valid = ", ".join(mode.name for mode in JoinSearchMode)
        raise ReproError(
            f"unknown orca_search {name!r}; valid choices: {valid}"
        ) from None


def orca_config_for(config) -> OrcaConfig:
    """The Orca search configuration a ``DatabaseConfig`` selects."""
    return OrcaConfig(search=_search_mode(config))


class OrcaRouter:
    """Drives the full Orca detour for one statement."""

    def __init__(self, catalog: Catalog, config,
                 orca_config: Optional[OrcaConfig] = None,
                 tracer=None, metrics=None, governor=None,
                 mdcache: Optional[MDCache] = None) -> None:
        self.catalog = catalog
        self.config = config
        #: The database's shared metadata cache (None: every detour
        #: starts cold).  The detour's accessor reads it on a local miss
        #: and publishes what it fetched only when the detour succeeds.
        self.mdcache = mdcache
        #: Per-statement :class:`repro.governor.ExecutionGovernor` (or
        #: None).  The detour honours it two ways: the compile budget is
        #: capped to the statement's remaining deadline, and cooperative
        #: cancellation fires at the budget's own check sites.
        self.governor = governor
        self.orca_config = (orca_config if orca_config is not None
                            else orca_config_for(config))
        if tracer is None:
            from repro.observability import NOOP_TRACER
            tracer = NOOP_TRACER
        #: Tracer and metrics sink shared by every bridge component the
        #: detour constructs (spans: preprocess, parse_tree_convert,
        #: memo_search, plan_convert, metadata_lookup).
        self.tracer = tracer
        self.metrics = metrics
        #: Populated on every successful optimization, for observability.
        self.last_provider: Optional[MySQLMetadataProvider] = None
        self.last_accessor: Optional[MDAccessor] = None
        self.last_converter: Optional[ParseTreeConverter] = None
        #: The guarded result of the most recent :meth:`optimize` call.
        self.last_outcome: Optional[DetourOutcome] = None

    def optimize(self, stmt: ast.SelectStmt, block: QueryBlock,
                 context: StatementContext) -> Optional[SkeletonPlan]:
        """Optimize with Orca; None means fall back to MySQL."""
        return self.optimize_guarded(stmt, block, context).skeleton

    def optimize_guarded(self, stmt: ast.SelectStmt, block: QueryBlock,
                         context: StatementContext) -> DetourOutcome:
        """Run the detour under full containment.

        Every exception the detour raises — not just the typed Orca
        aborts — becomes a :class:`DetourOutcome` carrying the fallback
        reason and error details.
        """
        outcome = DetourGuard().run(lambda: self._optimize(block, context))
        self.last_outcome = outcome
        return outcome

    # -- the detour -----------------------------------------------------------------

    def _optimize(self, block: QueryBlock,
                  context: StatementContext) -> SkeletonPlan:
        budget = CompileBudget.from_config(self.config)
        if self.governor is not None:
            # The optimize stage must not spend wall-clock the
            # statement deadline no longer has: whichever bound is
            # tighter becomes the compile budget, so an overrun aborts
            # the detour (BUDGET_EXCEEDED -> MySQL fallback) before the
            # statement's own deadline fires mid-search.
            budget = self.governor.cap_compile_budget(budget)
            self.governor.checkpoint(stage="orca_detour")
        injector = self.config.fault_injector
        provider = MySQLMetadataProvider(self.catalog,
                                         fault_injector=injector,
                                         metrics=self.metrics)
        accessor = MDAccessor(provider, tracer=self.tracer,
                              metrics=self.metrics, shared=self.mdcache)
        converter = ParseTreeConverter(accessor, fault_injector=injector,
                                       tracer=self.tracer)
        estimator = SelectivityEstimator(accessor, use_histograms=True)
        optimizer = OrcaOptimizer(estimator, self.orca_config,
                                  budget=budget, fault_injector=injector,
                                  tracer=self.tracer, metrics=self.metrics)
        self.last_provider = provider
        self.last_accessor = accessor
        self.last_converter = converter

        # Preprocessing rewrites (OR factorization, scalar-subquery ->
        # derived table, CTE predicate pushdown) mutate the blocks; the
        # plan refinement that later consumes the skeleton sees the
        # rewritten predicates, as the real integration's broadened MySQL
        # did (Section 7, lessons 3-4).
        with self.tracer.span("preprocess"):
            preprocess_block(
                block,
                enable_or_factorization=self.orca_config
                .enable_or_factorization,
                enable_derived_subqueries=self.orca_config
                .enable_derived_subqueries)
            if self.orca_config.enable_cte_pushdown:
                push_cte_predicates(block)

        block_plans: Dict[int, OrcaBlockPlan] = {}
        estimates = SubEstimates()
        self._optimize_block(block, converter, optimizer, block_plans,
                             estimates, set())
        budget.check()
        skeleton = OrcaPlanConverter(context, fault_injector=injector,
                                     tracer=self.tracer) \
            .convert(block_plans, block)
        # A final check so compile work done during conversion (or a
        # sleep injected there) still honours the budget.
        budget.check()
        accessor.publish()
        return skeleton

    def _optimize_block(self, block: QueryBlock,
                        converter: ParseTreeConverter,
                        optimizer: OrcaOptimizer,
                        block_plans: Dict[int, OrcaBlockPlan],
                        estimates: SubEstimates,
                        in_progress: Set[int]) -> OrcaBlockPlan:
        existing = block_plans.get(block.block_id)
        if existing is not None:
            return existing
        if block.block_id in in_progress:
            raise OrcaFallbackError("cyclic block structure")
        in_progress.add(block.block_id)
        for sub in self._sub_blocks(block):
            sub_plan = self._optimize_block(sub, converter, optimizer,
                                            block_plans, estimates,
                                            in_progress)
            estimates.add(sub.block_id, sub_plan.rows, sub_plan.cost)
        logical = converter.convert_block(block)
        block_plan = optimizer.optimize_block(logical, estimates)
        block_plans[block.block_id] = block_plan
        in_progress.discard(block.block_id)
        return block_plan

    def _sub_blocks(self, block: QueryBlock):
        subs = []
        for binding in block.cte_bindings:
            subs.append(binding.block)
        for entry in block.entries:
            if entry.kind in (EntryKind.DERIVED, EntryKind.CTE) and \
                    entry.sub_block is not None:
                subs.append(entry.sub_block)
        subs.extend(block.all_subquery_blocks())
        for __, side in block.set_ops:
            subs.append(side)
        return subs
