"""Orca's join-order search: GREEDY, EXHAUSTIVE, and EXHAUSTIVE2.

The paper runs Orca with the two dynamic-programming-based strategies
(Section 6.3): EXHAUSTIVE and EXHAUSTIVE2 — "its most thorough setting".
The model implemented here:

* ``GREEDY`` — cost-based left-deep greedy with hash/index-NL candidates;
* ``EXHAUSTIVE`` — memo DP over connected subsets where one join side is a
  single unit (zig-zag trees: bushy *build* sides of one table);
* ``EXHAUSTIVE2`` — memo DP over *all* connected partitions (full bushy
  trees).

All three share the memo, the histogram-backed cardinality estimates, and
the Orca cost model — so EXHAUSTIVE2 explores strictly more alternatives,
reproducing Table 1's compile-time behaviour (near-identical on TPC-H,
noticeably slower on the widest TPC-DS joins).

Beyond the DP-feasible width, per-component strategy selection moves to
the :mod:`repro.orca.largejoin` lattice (full DP → linearized DP → GOO →
greedy), chosen by component relation count and the remaining
:class:`repro.resilience.CompileBudget` deadline; a mid-search budget
exhaustion degrades to the best incumbent plan already in the memo
instead of raising into the MySQL fallback (see
:meth:`OrcaJoinSearch._search_component`).

Unlike the MySQL search (left-deep, NLJ-costed), every candidate here is
properly costed, including hash joins — the core reason Orca's plans win
on analytical queries.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import BudgetExceededError, OrcaError
from repro.mysql_optimizer.access_path import (
    best_local_access,
    indexed_positions,
    lookup_key_candidate,
    ref_access,
)
from repro.mysql_optimizer.skeleton import AccessPlan
from repro.executor.plan import AccessMethod
from repro.orca import largejoin
from repro.orca.cost_model import OrcaCostModel
from repro.orca.largejoin import JoinStrategy
from repro.orca.memo import Group, Memo, lowest_unit, units_of
from repro.orca.operators import (
    JoinVariant,
    LogicalGet,
    PhysicalGet,
    PhysicalHashJoin,
    PhysicalNLJoin,
    PhysicalOp,
)
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind, QueryBlock, referenced_entries


class JoinSearchMode(enum.Enum):
    GREEDY = "GREEDY"
    EXHAUSTIVE = "EXHAUSTIVE"
    EXHAUSTIVE2 = "EXHAUSTIVE2"


#: How often the full-DP subset enumeration probes the compile budget
#: (every ``2**k`` candidate subsets): connectivity filtering rejects the
#: overwhelming majority of subsets on sparse graphs, so waiting for the
#: next *connected* subset's check could stall past the deadline.
_BUDGET_PROBE_MASK = 0xFF


class SubEstimates:
    """Output rows/cost for derived and CTE sub-blocks."""

    def __init__(self, mapping: Optional[Dict[int, Tuple[float, float]]]
                 = None) -> None:
        self._mapping = mapping or {}

    def add(self, block_id: int, rows: float, cost: float) -> None:
        self._mapping[block_id] = (rows, cost)

    def get(self, block_id: int) -> Tuple[float, float]:
        return self._mapping.get(block_id, (1000.0, 1000.0))


def plan_unit(unit: LogicalGet, block: QueryBlock,
              estimator: SelectivityEstimator, cost_model: OrcaCostModel,
              sub_estimates: "SubEstimates",
              corr: FrozenSet[int] = frozenset()
              ) -> Tuple[AccessPlan, float, float, "PhysicalGet"]:
    """Plan one join unit standalone: (access, cost, rows, physical get).

    ``corr`` lists outer-query entries bound during execution; equalities
    against them can drive an index lookup (the Q17 subquery pattern).
    """
    entry = unit.descriptor.entry
    if entry.kind is EntryKind.BASE:
        access = best_local_access(block, entry, unit.conjuncts,
                                   estimator, cost_model)
        if corr:
            ref = ref_access(block, entry, unit.conjuncts, corr,
                             estimator, cost_model)
            if ref is not None and ref.est_cost < access.est_cost:
                access = ref
        consumed = {id(c) for c in access.consumed_conjuncts}
        residual = 1.0
        for conjunct in unit.conjuncts:
            if id(conjunct) not in consumed:
                residual *= estimator.conjunct_selectivity(block, conjunct)
        rows = max(0.5, access.est_rows * residual)
    else:
        sub_rows, sub_cost = sub_estimates.get(
            entry.sub_block.block_id if entry.sub_block else -1)
        method = AccessMethod.CTE_SCAN if entry.kind is EntryKind.CTE \
            else AccessMethod.MATERIALIZE
        access = AccessPlan(method=method, est_rows=sub_rows,
                            est_cost=sub_cost + sub_rows * 0.05)
        residual = 1.0
        for conjunct in unit.conjuncts:
            residual *= estimator.conjunct_selectivity(block, conjunct)
        rows = max(0.5, sub_rows * residual)
    get = PhysicalGet(unit.descriptor, access, list(unit.conjuncts))
    get.cost = access.est_cost
    get.rows = rows
    return access, access.est_cost, rows, get


class _EntryRefs(dict):
    """Per-search memo of :func:`referenced_entries`, keyed by the
    expression itself (AST nodes hash by identity).  The join search
    hands the same conjuncts to ``ref_access`` thousands of times per
    block; each tree is walked once."""

    def __missing__(self, expr: ast.Expr) -> FrozenSet[int]:
        refs = self[expr] = referenced_entries(expr)
        return refs


def _splits(subset: int, full_bushy: bool) -> Iterator[Tuple[int, int]]:
    """The ``(side_a, side_b)`` splits of ``subset`` the DP tries.

    Full bushy: every split into two non-empty sides with the lowest
    unit on side A (both orientations are offered by the caller, so
    this halves the enumeration).  Side A's other units run through the
    proper submasks of the rest in ascending order — ``(sub - rest) &
    rest`` steps to the next one.  Zig-zag: one unit on side B, in
    ascending unit order.
    """
    if full_bushy:
        low = subset & -subset
        rest = subset ^ low
        sub = 0
        while sub != rest:
            yield low | sub, rest ^ sub
            sub = (sub - rest) & rest
    else:
        remaining = subset
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            yield subset ^ bit, bit


class OrcaJoinSearch:
    """Join ordering for one block's inner-join core.

    A set of join units is an integer mask throughout (bit ``i`` = unit
    ``i``): memo keys, DP subsets and their splits, GOO's forest, LINDP's
    intervals.  What subset tests need is computed once per search —
    each join conjunct's unit mask and equality sides, each unit's
    neighbour mask — so the DP's inner loop is integer arithmetic.
    """

    def __init__(self, units: List[LogicalGet], conjuncts: List[ast.Expr],
                 block: QueryBlock, estimator: SelectivityEstimator,
                 cost_model: OrcaCostModel, sub_estimates: SubEstimates,
                 corr: FrozenSet[int], mode: JoinSearchMode,
                 memo: Memo, budget=None,
                 enable_pruning: bool = True,
                 strategy_policy: str = "adaptive") -> None:
        self.units = units
        self.conjuncts = conjuncts
        self.block = block
        self.estimator = estimator
        self.cost_model = cost_model
        self.sub_estimates = sub_estimates
        self.corr = corr
        self.mode = mode
        self.memo = memo
        #: Optional :class:`repro.resilience.CompileBudget`; checked as
        #: the search expands, so runaway compilations abort the detour
        #: (``BudgetExceededError``) instead of hanging.
        self.budget = budget
        #: Branch-and-bound pruning: skip costing a candidate join pair
        #: when an admissible lower bound (the inputs' best costs plus
        #: the cheapest join step the pair could possibly take — see
        #: :meth:`_offer_pair`) already reaches the target group's best
        #: complete plan.  The DP seeds bounds from a cheap left-deep
        #: first pass, so pruning bites from the first expansion.
        #: Sound: a pruned candidate can never beat the incumbent, so
        #: the chosen plan's cost equals the unpruned search's choice.
        self.enable_pruning = enable_pruning
        #: Strategy-selector policy (``OrcaConfig.join_strategy``).
        self.strategy_policy = strategy_policy
        #: Search-effort counters surfaced as ``memo_search`` span
        #: attributes: DP subsets expanded, left-deep chains costed, and
        #: candidates skipped by cost-bound pruning.
        self.expansions = 0
        self.chains_costed = 0
        self.pruned_candidates = 0
        #: One ``(strategy_name, component_size)`` entry per multi-unit
        #: component searched, and how often budget exhaustion degraded a
        #: component to its best incumbent plan.
        self.strategies: List[Tuple[str, int]] = []
        self.budget_degradations = 0
        self._entry_ids = [unit.descriptor.entry.entry_id for unit in units]
        self._local: List[Tuple[AccessPlan, float, float, PhysicalGet]] = []
        for index, unit in enumerate(units):
            self._local.append(self._plan_unit(index))
        self._refs = _EntryRefs()
        # Per conjunct, once: the mask of the units it touches and
        # whether every entry it references (correlation sources aside)
        # is a unit's.  Each entry id belongs to exactly one unit, so
        # "refs within the entries of S" is "mapped and mask within S".
        # A conjunct touching two or more units is a join-graph edge
        # whether mapped or not; only a mapped one can be applied.
        unit_of = {entry: index
                   for index, entry in enumerate(self._entry_ids)}
        reach = [0] * len(units)
        #: ``(conjunct index, unit mask, equality sides)`` of every
        #: mapped conjunct spanning two or more units, in conjunct order.
        #: Equality sides are the ``(left, right)`` unit masks of an
        #: ``=`` whose sides both reference units, else None.
        self._joins: List[Tuple[int, int, Optional[Tuple[int, int]]]] = []
        for conjunct_index, conjunct in enumerate(conjuncts):
            mask, mapped = self._unit_mask(self._refs[conjunct], unit_of)
            if not mask & (mask - 1):
                continue
            for index in units_of(mask):
                reach[index] |= mask
            if mapped:
                self._joins.append((conjunct_index, mask,
                                    self._equality_sides(conjunct, unit_of)))
        #: Neighbour mask of each unit in the join graph.
        self._neighbors = [mask & ~(1 << index)
                           for index, mask in enumerate(reach)]
        #: Per unit, the lookup keys :func:`ref_access` could use on its
        #: index columns, in its candidate order (the unit's local
        #: conjuncts, then join conjuncts by index): ``(list bit, column
        #: bit, mask of the units the other side reads)``.  With the
        #: outer side's mask these give the conjunct ``ref_access``
        #: would pick per column, without re-walking a conjunct tree.
        self._lookup_keys = [self._unit_lookup_keys(index, unit_of)
                             for index in range(len(units))]
        #: The join-step access memo: ``(unit, picked keys)`` ->
        #: :func:`ref_access` result, for this search only — statistics
        #: may change between searches (ANALYZE).
        self._join_access_memo: Dict[Tuple[int, int],
                                     Optional[AccessPlan]] = {}
        self.access_memo_hits = 0
        #: ``(unit mask, combined selectivity)`` per distinct mask of the
        #: join conjuncts, in first-conjunct order: conjuncts touching the
        #: same units apply together, so they combine once, through
        #: :meth:`SelectivityEstimator.join_selectivity`.
        by_mask: Dict[int, List[ast.Expr]] = {}
        for conjunct_index, mask, __ in self._joins:
            by_mask.setdefault(mask, []).append(conjuncts[conjunct_index])
        self._join_sels = [(mask, estimator.join_selectivity(block, group))
                           for mask, group in by_mask.items()]
        self._rows_cache: Dict[int, float] = {}
        self._conn_cache: Dict[int, bool] = {}
        self._bound_cache: Dict[int, FrozenSet[int]] = {}
        self._pair_sel_cache: Dict[int, Dict[Tuple[int, int], float]] = {}

    def _check_budget(self) -> None:
        if self.budget is not None:
            self.budget.check(self.memo.group_count)

    # -- unit-level planning ----------------------------------------------------

    def _plan_unit(self, index: int
                   ) -> Tuple[AccessPlan, float, float, PhysicalGet]:
        return plan_unit(self.units[index], self.block, self.estimator,
                         self.cost_model, self.sub_estimates, self.corr)

    def _unit_mask(self, refs: FrozenSet[int], unit_of: Dict[int, int]
                   ) -> Tuple[int, bool]:
        """(mask of the units ``refs`` touch, whether all of ``refs``
        other than correlation sources are units' entries)."""
        refs = refs - self.corr
        mask = 0
        mapped = bool(refs)
        for entry in refs:
            index = unit_of.get(entry)
            if index is None:
                mapped = False
            else:
                mask |= 1 << index
        return mask, mapped

    def _equality_sides(self, conjunct: ast.Expr, unit_of: Dict[int, int]
                        ) -> Optional[Tuple[int, int]]:
        if not (isinstance(conjunct, ast.BinaryExpr)
                and conjunct.op is ast.BinOp.EQ):
            return None
        left, left_mapped = self._unit_mask(self._refs[conjunct.left],
                                            unit_of)
        right, right_mapped = self._unit_mask(self._refs[conjunct.right],
                                              unit_of)
        if not left_mapped or not right_mapped:
            return None
        return left, right

    def _unit_lookup_keys(self, index: int, unit_of: Dict[int, int]
                          ) -> List[Tuple[int, int, int]]:
        unit = self.units[index]
        entry = unit.descriptor.entry
        positions = indexed_positions(entry)
        if not positions:
            return []
        candidates = list(unit.conjuncts)
        candidates += [self.conjuncts[conjunct_index]
                       for conjunct_index, mask, __ in self._joins
                       if mask >> index & 1]
        keys = []
        for conjunct in candidates:
            found = lookup_key_candidate(entry, conjunct,
                                         self._refs.__getitem__)
            if found is None or found[0] not in positions:
                continue
            position, __, other_refs = found
            need, mapped = self._unit_mask(other_refs, unit_of)
            if mapped or not other_refs - self.corr:
                keys.append((1 << len(keys), 1 << position, need))
        return keys

    def _closure(self, seed: int, within: int) -> int:
        """The units of ``within`` reachable from ``seed`` over join
        edges that stay inside ``within``."""
        neighbors = self._neighbors
        seen = frontier = seed
        while frontier:
            reach = 0
            for index in units_of(frontier):
                reach |= neighbors[index]
            frontier = reach & within & ~seen
            seen |= frontier
        return seen

    def _connected(self, subset: int) -> bool:
        cached = self._conn_cache.get(subset)
        if cached is None:
            cached = self._closure(subset & -subset, subset) == subset
            self._conn_cache[subset] = cached
        return cached

    def _bound_entries(self, side: int) -> FrozenSet[int]:
        """Entry ids bound while ``side`` drives an index lookup: its
        units' entries plus the correlation sources."""
        cached = self._bound_cache.get(side)
        if cached is None:
            cached = self.corr | frozenset(
                self._entry_ids[index] for index in units_of(side))
            self._bound_cache[side] = cached
        return cached

    # -- cardinality -----------------------------------------------------------------

    def subset_rows(self, subset: int) -> float:
        cached = self._rows_cache.get(subset)
        if cached is not None:
            return cached
        rows = 1.0
        for index in units_of(subset):
            rows *= self._local[index][2]
        for mask, selectivity in self._join_sels:
            if not mask & ~subset:
                rows *= selectivity
        rows = max(1e-3, rows)
        self._rows_cache[subset] = rows
        return rows

    def _cross(self, side_a: int, side_b: int
               ) -> Tuple[List[ast.Expr], bool]:
        """The conjuncts a join of A and B applies — every unit they
        touch is in A or B, at least one on each side — in conjunct
        order, and whether one of them is an equality with one side in
        A and the other in B (a hash key).  Symmetric in A and B."""
        outside = ~(side_a | side_b)
        not_a = ~side_a
        not_b = ~side_b
        cross: List[ast.Expr] = []
        equi = False
        for conjunct_index, mask, sides in self._joins:
            if mask & outside or not mask & side_a or not mask & side_b:
                continue
            cross.append(self.conjuncts[conjunct_index])
            if not equi and sides is not None:
                left, right = sides
                equi = (not left & not_a and not right & not_b) or \
                    (not left & not_b and not right & not_a)
        return cross, equi

    def pair_selectivities(self, component: int
                           ) -> Dict[Tuple[int, int], float]:
        """Combined selectivity of the two-unit conjuncts per unit pair,
        keyed ``(low, high)`` — the IKKBZ/GOO steering matrix.  Conjuncts
        spanning three or more units are left to :meth:`subset_rows`,
        which settles cardinalities exactly when a subset materializes.
        """
        cached = self._pair_sel_cache.get(component)
        if cached is not None:
            return cached
        result: Dict[Tuple[int, int], float] = {}
        for mask, selectivity in self._join_sels:
            high = mask & (mask - 1)
            if high & (high - 1) or mask & ~component:
                continue
            result[(lowest_unit(mask), high.bit_length() - 1)] = selectivity
        self._pair_sel_cache[component] = result
        return result

    def unit_neighbors(self) -> List[int]:
        """Neighbour mask of each unit in the join graph."""
        return self._neighbors

    # -- search entry point --------------------------------------------------------------

    def search(self) -> Tuple[PhysicalOp, float, float]:
        if not self.units:
            raise OrcaError("join search requires at least one unit")
        if len(self.units) == 1:
            __, cost, rows, get = self._local[0]
            group = self.memo.group(1)
            group.rows = rows
            group.offer(get, cost, costed=False)
            return get, cost, rows
        components = self._components()
        plans = [self._search_component(component)
                 for component in components]
        plans.sort(key=lambda item: item[2])  # combine smallest first
        plan, cost, rows = plans[0]
        for other_plan, other_cost, other_rows in plans[1:]:
            out_rows = rows * other_rows
            join = PhysicalHashJoin(plan, other_plan, JoinVariant.INNER, [])
            cost = cost + other_cost + self.cost_model.hash_join_cost(
                other_rows, rows, out_rows)
            join.cost, join.rows = cost, out_rows
            plan, rows = join, out_rows
        return plan, cost, rows

    def _components(self) -> List[int]:
        """Connected components of the join graph, by lowest unit."""
        remaining = (1 << len(self.units)) - 1
        components: List[int] = []
        while remaining:
            component = self._closure(remaining & -remaining, remaining)
            components.append(component)
            remaining ^= component
        return components

    def _remaining_seconds(self) -> Optional[float]:
        if self.budget is None:
            return None
        return self.budget.remaining_seconds()

    def _search_component(self, component: int
                          ) -> Tuple[PhysicalOp, float, float]:
        if not component & (component - 1):
            __, cost, rows, get = self._local[component.bit_length() - 1]
            group = self.memo.group(component)
            group.rows = rows
            group.offer(get, cost, costed=False)
            return get, cost, rows
        size = bin(component).count("1")
        strategy = largejoin.select_strategy(
            size, self.mode is JoinSearchMode.GREEDY,
            self.strategy_policy, self._remaining_seconds())
        self.strategies.append((strategy.value, size))
        try:
            return self._run_strategy(strategy, component)
        except BudgetExceededError:
            # Budget ran out mid-search.  Every non-greedy strategy
            # seeds a complete incumbent into the final group before its
            # main loop, so degrade to it: the statement gets a valid
            # (merely less-polished) Orca plan instead of a MySQL
            # fallback.  With no incumbent (e.g. a memo-group cap so
            # tight even seeding was cut short) the error propagates and
            # containment maps it to FallbackReason.BUDGET_EXCEEDED as
            # before.
            if self.budget is not None and self.memo.has_group(component):
                group = self.memo.group(component)
                if group.best_plan is not None:
                    self.budget.degrade()
                    self.budget_degradations += 1
                    return group.best_plan, group.best_cost, group.rows
            raise

    def _run_strategy(self, strategy: JoinStrategy, component: int
                      ) -> Tuple[PhysicalOp, float, float]:
        if strategy is JoinStrategy.GREEDY:
            return self._greedy(component)
        if strategy is JoinStrategy.LINDP:
            return largejoin.lindp_search(self, component)
        if strategy is JoinStrategy.GOO:
            return largejoin.goo_search(self, component)
        return self._dp(component)

    # -- group plumbing shared with the largejoin strategies ---------------------

    def ensure_singleton(self, index: int) -> Group:
        """Memo group for one unit, seeded with its standalone plan."""
        group = self.memo.group(1 << index)
        if group.best_plan is None:
            __, cost, rows, get = self._local[index]
            group.rows = rows
            group.offer(get, cost, costed=False)
        return group

    def join_groups(self, union: int, side_a: int, side_b: int) -> Group:
        """Offer both orientations of A join B into ``union``'s group.

        Guaranteed to leave a plan in the group: when neither
        orientation yields a candidate (multi-unit x multi-unit with no
        equi conjunct — hash needs an equi key, NL rescan a singleton
        inner), B is absorbed into A one unit at a time instead.  Each
        absorption step has a singleton inner, so an NL-rescan candidate
        always exists, and the spanning conjuncts — including the
        non-equi ones a cross join would silently drop — are applied at
        the step where their units complete.
        """
        group = self.memo.group(union)
        group.rows = self.subset_rows(union)
        group_a = self.memo.group(side_a)
        group_b = self.memo.group(side_b)
        self._offer_pair(group, group_a, group_b)
        if group.best_plan is None:
            current = side_a
            for index in units_of(side_b):
                unit = 1 << index
                current = self.join_groups(current | unit, current,
                                           unit).key
        return group

    # -- dynamic programming ----------------------------------------------------------------

    def _dp(self, component: int) -> Tuple[PhysicalOp, float, float]:
        members = units_of(component)
        for index in members:
            self.ensure_singleton(index)
        # A cheap first pass populates the chain-prefix groups (and the
        # final group) with complete plans: budget degradation has an
        # incumbent from the very start, and — with pruning on — the
        # branch-and-bound upper bounds have something to bite on from
        # the first DP expansion.  Seeding runs in the unpruned search
        # too so the pruning A/B comparison sees the identical candidate
        # space (seeds can beat the connectivity-restricted DP outright,
        # e.g. an IKKBZ chain whose prefix is disconnected under the DP's
        # hyperedge connectivity).
        self._seed_bounds(component)
        full_bushy = self.mode is JoinSearchMode.EXHAUSTIVE2
        bits = [1 << index for index in members]
        self._conn_cache.update(dict.fromkeys(bits, True))
        probe = 0
        for size in range(2, len(bits) + 1):
            for combo in itertools.combinations(bits, size):
                # Probe the budget on candidate subsets, not only on the
                # connected ones _expand_subset sees: on sparse graphs
                # connectivity rejects almost every subset, and a forced
                # full DP past the selector cutoff would otherwise churn
                # through millions of connectivity checks between
                # deadline checks.
                probe += 1
                if not probe & _BUDGET_PROBE_MASK:
                    self._check_budget()
                subset = sum(combo)
                if self._connected(subset):
                    self._expand_subset(subset, full_bushy)
        final = self.memo.group(component)
        if final.best_plan is None:
            return self._greedy(component)
        return final.best_plan, final.best_cost, final.rows

    def _cheapest(self, candidates: int) -> int:
        """The candidate unit with the fewest standalone rows, then the
        lowest standalone cost, then the lowest index."""
        return min(units_of(candidates),
                   key=lambda index: (self._local[index][2],
                                      self._local[index][1]))

    def _seed_bounds(self, component: int,
                     with_incumbents: bool = True) -> None:
        """Seed complete plans for branch-and-bound and degradation.

        Costs one connectivity-respecting left-deep chain, cheapest
        local unit first (n-1 join steps versus the DP's exponential
        candidate count — negligible).  With ``with_incumbents``, the
        IKKBZ-linearized chain and a GOO pass are layered on top: the
        bushy GOO incumbent is usually far tighter than any left-deep
        chain, so the ≤``DEFAULT_LINDP_THRESHOLD`` DP prunes harder from its
        first expansion.  (GOO's own seeding passes ``False`` — it
        *is* the incumbent builder.)
        """
        first = self._cheapest(component)
        order = [first]
        remaining = component & ~(1 << first)
        frontier = self._neighbors[first] & remaining
        while remaining:
            next_index = self._cheapest(frontier or remaining)
            order.append(next_index)
            remaining &= ~(1 << next_index)
            frontier = (frontier | self._neighbors[next_index]) & remaining
        self._cost_chain(order)
        if with_incumbents and len(order) >= 4:
            self._cost_chain(largejoin.ikkbz_order(self, component))
            largejoin.goo_search(self, component)

    def _expand_subset(self, subset: int, full_bushy: bool) -> None:
        self._check_budget()
        self.expansions += 1
        # Every proper subset was classified before this expansion
        # (:meth:`_dp` runs sizes upwards and classifies the singletons
        # first), so connectivity is a cache read, and every connected
        # one already has its memo group.
        connected = self._conn_cache
        groups = self.memo.groups
        group = self.memo.group(subset)
        group.rows = self.subset_rows(subset)
        prune = self.enable_pruning
        for side_a, side_b in _splits(subset, full_bushy):
            if not connected[side_a] or not connected[side_b]:
                continue
            group_a = groups[side_a]
            group_b = groups[side_b]
            if group_a.best_plan is None or group_b.best_plan is None:
                continue
            # With no single-unit inner either way, each orientation's
            # bound in :meth:`_offer_pair` is the inputs' cost plus a
            # non-negative hash floor: when the inputs alone reach the
            # incumbent, both orientations are pruned.
            if prune and group.best_plan is not None \
                    and side_a & (side_a - 1) and side_b & (side_b - 1) \
                    and group_a.best_cost + group_b.best_cost \
                    >= group.best_cost:
                self.pruned_candidates += 2
                group.note_pruned(2)
                continue
            self._offer_pair(group, group_a, group_b)

    def _offer_pair(self, group: Group, group_a: Group,
                    group_b: Group) -> None:
        """Offer A join B, then B join A, into ``group``, each unless
        branch and bound rules that orientation out.

        The bound underestimates every candidate :meth:`_offer_joins`
        could build for one orientation: a hash join costs its inputs
        plus the (deterministic, rows-only) hash formula; a singleton
        inner side additionally allows an index NL join — which omits
        the inner group's cost but pays at least one B-tree descent per
        outer row — and an NL rescan of the inner unit's known access
        cost.  Once it reaches the group's best complete plan nothing
        from that orientation can win, so nothing is built or costed:
        the floor formulas don't count as cost-model evaluations.
        """
        cross = None
        for outer, inner in ((group_a, group_b), (group_b, group_a)):
            if self.enable_pruning and group.best_plan is not None:
                rows_outer = outer.rows
                inputs = outer.best_cost + inner.best_cost
                bound = inputs + self.cost_model.hash_join_floor(
                    inner.rows, rows_outer, group.rows)
                key = inner.key
                if not key & (key - 1):
                    unit_cost = self._local[key.bit_length() - 1][1]
                    bound = min(
                        bound,
                        inputs + rows_outer * unit_cost,
                        outer.best_cost
                        + self.cost_model.index_nljoin_floor(rows_outer))
                if bound >= group.best_cost:
                    self.pruned_candidates += 1
                    group.note_pruned()
                    continue
            if cross is None:
                cross = self._cross(group_a.key, group_b.key)
            self._offer_joins(group, outer, inner, cross)

    def _prune_candidate(self, group, floor: float) -> bool:
        """Candidate-level branch and bound: skip one candidate whose
        cost floor already reaches the group's incumbent.  Re-read the
        incumbent per candidate — offers earlier in the same pair may
        have lowered it."""
        if not self.enable_pruning or floor < group.best_cost:
            return False
        self.pruned_candidates += 1
        group.note_pruned()
        return True

    def _offer_joins(self, group: Group, group_a: Group, group_b: Group,
                     cross: Tuple[List[ast.Expr], bool]) -> None:
        """Offer join alternatives with A as the row-driving (outer) side.

        ``cross`` is :meth:`_cross` of the two sides.
        """
        conjuncts, equi = cross
        out_rows = group.rows
        rows_a = group_a.rows
        rows_b = group_b.rows
        inputs = group_a.best_cost + group_b.best_cost
        plan_a = group_a.best_plan
        plan_b = group_b.best_plan

        # Hash join: probe with A, build with B.  Each candidate's
        # operator is built only when its cost wins the group.
        if equi and not self._prune_candidate(
                group, inputs + self.cost_model.hash_join_floor(
                    rows_b, rows_a, out_rows)):
            cost = (inputs
                    + self.cost_model.hash_join_cost(rows_b, rows_a,
                                                     out_rows))
            if group.admit(cost):
                join = PhysicalHashJoin(plan_a, plan_b, JoinVariant.INNER,
                                        conjuncts)
                join.cost, join.rows = cost, out_rows
                group.take(join, cost)

        # Index NL join: only when the inner side is a single base unit.
        side_b = group_b.key
        if not side_b & (side_b - 1):
            index = side_b.bit_length() - 1
            unit = self.units[index]
            if unit.descriptor.entry.kind is EntryKind.BASE \
                    and not self._prune_candidate(
                        group, group_a.best_cost
                        + self.cost_model.index_nljoin_floor(rows_a)):
                ref = self._join_access(index, group_a.key, conjuncts)
                if ref is not None:
                    cost = (group_a.best_cost
                            + self.cost_model.index_nljoin_cost(
                                rows_a, ref.est_cost))
                    if group.admit(cost):
                        inner_get = PhysicalGet(unit.descriptor, ref,
                                                list(unit.conjuncts))
                        inner_get.cost = ref.est_cost
                        inner_get.rows = ref.est_rows
                        join = PhysicalNLJoin(plan_a, inner_get,
                                              JoinVariant.INNER, conjuncts,
                                              index_inner=True)
                        join.cost, join.rows = cost, out_rows
                        group.take(join, cost)
            # Plain NL rescan (cartesian or non-equi) fallback.
            unit_cost = self._local[index][1]
            if not self._prune_candidate(group,
                                         inputs + rows_a * unit_cost):
                cost = (inputs
                        + self.cost_model.nljoin_rescan_cost(rows_a,
                                                             unit_cost))
                if group.admit(cost):
                    join = PhysicalNLJoin(plan_a, plan_b, JoinVariant.INNER,
                                          conjuncts)
                    join.cost, join.rows = cost, out_rows
                    group.take(join, cost)

    def _join_access(self, index: int, outer: int,
                     conjuncts: List[ast.Expr]) -> Optional[AccessPlan]:
        """:func:`ref_access` for unit ``index`` as the index-NL inner of
        the units in ``outer``, where ``conjuncts`` are the pair's cross
        conjuncts.

        ``ref_access`` depends only on the conjunct it picks per index
        column, which :attr:`_lookup_keys` and ``outer`` determine, so
        its result is memoised under those picks for this search.  The
        returned :class:`AccessPlan` is shared by every candidate that
        hits; nothing downstream mutates one.
        """
        key = taken = 0
        for bit, column, need in self._lookup_keys[index]:
            if not need & ~outer and not taken & column:
                taken |= column
                key |= bit
        memo_key = (index, key)
        memo = self._join_access_memo
        if memo_key in memo:
            self.access_memo_hits += 1
            return memo[memo_key]
        unit = self.units[index]
        access = memo[memo_key] = ref_access(
            self.block, unit.descriptor.entry, unit.conjuncts + conjuncts,
            self._bound_entries(outer), self.estimator, self.cost_model,
            refs=self._refs.__getitem__)
        return access

    # -- greedy and polish -------------------------------------------------------------------

    def _greedy(self, component: int) -> Tuple[PhysicalOp, float, float]:
        order = self._greedy_order(component)
        return self._cost_chain(order)

    def _greedy_order(self, component: int) -> List[int]:
        # Drive from the cheapest standalone unit among well-connected ones.
        first = self._cheapest(component)
        order = [first]
        placed = 1 << first
        remaining = component & ~placed
        while remaining:
            candidates = [index for index in units_of(remaining)
                          if self._connected(placed | 1 << index)]
            if not candidates:
                candidates = units_of(remaining)
            best_index = None
            best_cost = None
            for index in candidates:
                __, cost, rows = self._cost_chain(order + [index])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_index = index
            order.append(best_index)
            placed |= 1 << best_index
            remaining &= ~(1 << best_index)
        return order

    def _cost_chain(self, order: List[int]
                    ) -> Tuple[PhysicalOp, float, float]:
        """Cost a left-deep chain, choosing the best method per step."""
        self._check_budget()
        self.chains_costed += 1
        first = order[0]
        placed = 1 << first
        group = self.memo.group(placed)
        access, cost, rows, get = self._local[first]
        group.rows = rows
        group.offer(get, cost, costed=False)
        plan: PhysicalOp = group.best_plan
        total_cost = group.best_cost
        for index in order[1:]:
            unit = 1 << index
            new_key = placed | unit
            new_group = self.memo.group(new_key)
            new_group.rows = self.subset_rows(new_key)
            pseudo_a = self.memo.group(placed)
            pseudo_a.rows = self.subset_rows(placed)
            if pseudo_a.best_plan is None or \
                    pseudo_a.best_cost > total_cost:
                pseudo_a.best_plan = plan
                pseudo_a.best_cost = total_cost
            group_b = self.memo.group(unit)
            if group_b.best_plan is None:
                access_b, cost_b, rows_b, get_b = self._local[index]
                group_b.rows = rows_b
                group_b.offer(get_b, cost_b, costed=False)
            cross = self._cross(placed, unit)
            self._offer_joins(new_group, pseudo_a, group_b, cross)
            self._offer_joins(new_group, group_b, pseudo_a, cross)
            if new_group.best_plan is None:
                raise OrcaError("could not join unit into chain")
            plan = new_group.best_plan
            total_cost = new_group.best_cost
            placed = new_key
        return plan, total_cost, self.subset_rows(placed)
