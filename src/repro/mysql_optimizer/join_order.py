"""MySQL-style join-order selection.

Reproduces the decisive properties of MySQL's search (Sections 1 and 2.2):

* **left-deep only** — no bushy trees;
* **NLJ-biased costing** — index (``ref``) access is costed properly, but
  any non-index join step is charged a full inner rescan per outer row,
  because "hash join selection is not cost-based" (Section 3.1).  Hash
  execution is still *used* for index-less equi joins (MySQL 8.0 replaces
  BNL with hash join), but the order search never credits it;
* **greedy fallback** — small blocks are ordered by left-deep dynamic
  programming with a cartesian-product-avoidance restriction (MySQL's
  pruned best-first search behaves this way for small joins); blocks wider
  than ``GREEDY_THRESHOLD`` units use the pure greedy algorithm the paper
  calls out, which "does not guarantee optimality".

Semi-join nests are ordered as atomic units; MySQL's FirstMatch and
Materialization strategies are both costed, which is how the Q16 behaviour
arises (materialise + probe beats per-row lookups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MySQLOptimizerError
from repro.executor.plan import AccessMethod, JoinKind
from repro.mysql_optimizer.access_path import (
    best_local_access,
    lookup_keys,
    picked_keys,
    ref_access,
)
from repro.mysql_optimizer.cost import ROW_EVAL, MySQLCostModel
from repro.mysql_optimizer.skeleton import AccessPlan, JoinMethod, \
    PositionEntry
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    NestKind,
    QueryBlock,
    TableEntry,
)
from repro.sql.facts import BlockFacts, mask_ids

#: Blocks with more than this many join units fall back to pure greedy.
GREEDY_THRESHOLD = 12


@dataclass
class SubBlockEstimate:
    """Output estimate for a derived/CTE sub-block (from its skeleton)."""

    rows: float
    cost: float


@dataclass
class _Unit:
    index: int
    entries: List[TableEntry]
    nest_kind: Optional[NestKind] = None
    nest_id: Optional[int] = None
    #: Mask of the units that must be placed before this one.
    deps: int = 0
    #: Entry mask of the unit's entries.
    mask: int = 0
    #: Entry mask of every conjunct touching the unit (WHERE pool and
    #: its entries' ON conditions): the unit is linked to a prefix by a
    #: conjunct exactly when this meets the prefix's entries.
    reach: int = 0

    @property
    def is_nest(self) -> bool:
        return self.nest_kind is not None


@dataclass
class _State:
    cost: float
    rows: float
    positions: List[PositionEntry]


class JoinOrderSearch:
    """Join ordering for one query block.

    Sets of entries (the placed prefix, a unit's entries, the
    correlation sources) are entry masks and sets of units are unit
    masks, read against each conjunct's entry mask from the block's
    facts table.  What does not depend on the prefix is computed once
    per search: each entry's local conjuncts and standalone plan, each
    unit's dependencies and reach, and ``ref_access`` per entry and
    picked lookup keys.
    """

    def __init__(self, block: QueryBlock, estimator: SelectivityEstimator,
                 cost_model: MySQLCostModel,
                 sub_estimates: Dict[int, SubBlockEstimate]) -> None:
        self.block = block
        self.estimator = estimator
        self.cost_model = cost_model
        self.sub_estimates = sub_estimates
        self.facts: BlockFacts = block.facts
        self.corr = self.facts.corr_mask
        self.pool = list(block.where_conjuncts)
        self._pool_masks = [self.facts.mask(c) for c in self.pool]
        self.units = self._build_units()
        self._locals: Dict[int, List[ast.Expr]] = {}
        self._entry_plans: Dict[int, Tuple[AccessPlan, float, float]] = {}
        self._keys: Dict[Tuple[int, bool], List[Tuple[int, int, int]]] = {}
        self._refs: Dict[Tuple[int, bool, int], Optional[AccessPlan]] = {}
        self._materializable: Dict[int, bool] = {}

    # -- unit construction ---------------------------------------------------------

    def _build_units(self) -> List[_Unit]:
        units: List[_Unit] = []
        nest_units: Dict[int, _Unit] = {}
        for entry in self.block.entries:
            if entry.semijoin_nest is not None:
                unit = nest_units.get(entry.semijoin_nest)
                if unit is None:
                    nest = self.block.nest(entry.semijoin_nest)
                    unit = _Unit(len(units), [],
                                 nest_kind=nest.kind,
                                 nest_id=nest.nest_id)
                    nest_units[entry.semijoin_nest] = unit
                    units.append(unit)
                unit.entries.append(entry)
            else:
                units.append(_Unit(len(units), [entry]))
        for unit in units:
            for entry in unit.entries:
                unit.mask |= 1 << entry.entry_id
        self._compute_deps(units)
        return units

    def _compute_deps(self, units: List[_Unit]) -> None:
        facts = self.facts
        entry_to_unit: Dict[int, int] = {}
        for unit in units:
            for entry in unit.entries:
                entry_to_unit[entry.entry_id] = unit.index

        def unit_mask(entry_ids, own: int) -> int:
            mask = 0
            for ref in entry_ids:
                other = entry_to_unit.get(ref)
                if other is not None and other != own:
                    mask |= 1 << other
            return mask

        for unit in units:
            deps = 0
            own = unit.mask
            pool_reach = 0
            for mask in self._pool_masks:
                if mask & own:
                    pool_reach |= mask
            reach = pool_reach
            for entry in unit.entries:
                # LEFT-joined entries follow everything their ON refers to.
                if entry.outer_join_conjuncts:
                    for conjunct in entry.outer_join_conjuncts:
                        mask = facts.mask(conjunct)
                        reach |= mask
                        deps |= unit_mask(mask_ids(mask), unit.index)
                # Correlated derived tables follow their sources.
                if entry.kind in (EntryKind.DERIVED, EntryKind.CTE) and \
                        entry.sub_block is not None:
                    deps |= unit_mask(entry.sub_block.facts.corr,
                                      unit.index)
            if unit.is_nest:
                # Outer entries co-referenced with the nest must precede it
                # so the semi-join condition is fully bound at nest close.
                deps |= unit_mask(mask_ids(pool_reach & ~own), unit.index)
            unit.deps = deps
            unit.reach = reach

    # -- conjunct bookkeeping --------------------------------------------------------

    def _local_conjuncts(self, entry: TableEntry) -> List[ast.Expr]:
        local = self._locals.get(entry.entry_id)
        if local is not None:
            return local
        target = 1 << entry.entry_id
        if entry.outer_join_conjuncts is not None:
            allowed = target | self.corr
            local = []
            for conjunct in entry.outer_join_conjuncts:
                mask = self.facts.mask(conjunct)
                if mask and not mask & ~allowed:
                    local.append(conjunct)
        else:
            local = [conjunct for conjunct, mask
                     in zip(self.pool, self._pool_masks) if mask == target]
        self._locals[entry.entry_id] = local
        return local

    def _cross_conjuncts(self, placed: int, new_ids: int) -> List[ast.Expr]:
        """Pool conjuncts that become evaluable when new_ids join placed."""
        result = []
        visible = placed | new_ids | self.corr
        fresh = ~(new_ids | self.corr)
        for conjunct, mask in zip(self.pool, self._pool_masks):
            if mask & new_ids and not mask & ~visible \
                    and (mask & placed or mask & fresh):
                result.append(conjunct)
        return result

    def _cross_selectivity(self, conjuncts: List[ast.Expr]) -> float:
        return max(1e-9, self.estimator.join_selectivity(self.block,
                                                          conjuncts))

    def _has_equi_conjunct(self, conjuncts: List[ast.Expr], placed: int,
                           new_ids: int) -> bool:
        for conjunct in conjuncts:
            if _is_equi_between(self.facts, conjunct, placed | self.corr,
                                new_ids):
                return True
        return False

    def _ref(self, entry: TableEntry, on_source: bool,
             available: int) -> Optional[AccessPlan]:
        """:func:`ref_access` for ``entry`` over the WHERE pool (or, with
        ``on_source``, its ON conditions) with ``available`` bound,
        memoised per search under the lookup keys it picks: its result
        depends on nothing else."""
        keys_key = (entry.entry_id, on_source)
        keys = self._keys.get(keys_key)
        source = entry.outer_join_conjuncts if on_source else self.pool
        if keys is None:
            keys = self._keys[keys_key] = lookup_keys(entry, source,
                                                      self.facts)
        memo_key = (entry.entry_id, on_source, picked_keys(keys, available))
        if memo_key in self._refs:
            return self._refs[memo_key]
        access = self._refs[memo_key] = ref_access(
            self.block, entry, list(source), available, self.estimator,
            self.cost_model)
        return access

    def _residual(self, entry: TableEntry, consumed: List[ast.Expr]
                  ) -> float:
        """Selectivity of ``entry``'s local conjuncts an access path
        did not consume."""
        consumed_ids = {id(c) for c in consumed}
        residual = 1.0
        for conjunct in self._local_conjuncts(entry):
            if id(conjunct) not in consumed_ids:
                residual *= self.estimator.conjunct_selectivity(
                    self.block, conjunct)
        return residual

    # -- local (standalone) unit plans --------------------------------------------------

    def _entry_local(self, entry: TableEntry
                     ) -> Tuple[AccessPlan, float, float]:
        """(access, rows after local filters, standalone cost), once per
        entry and search."""
        found = self._entry_plans.get(entry.entry_id)
        if found is None:
            found = self._entry_plans[entry.entry_id] = \
                self._plan_entry(entry)
        return found

    def _plan_entry(self, entry: TableEntry
                    ) -> Tuple[AccessPlan, float, float]:
        local = self._local_conjuncts(entry)
        if entry.kind is EntryKind.BASE:
            access = best_local_access(self.block, entry, local,
                                       self.estimator, self.cost_model)
            rows = max(0.5, access.est_rows
                       * self._residual(entry, access.consumed_conjuncts))
            return access, rows, access.est_cost
        estimate = self._sub_estimate(entry)
        residual = 1.0
        for conjunct in local:
            residual *= self.estimator.conjunct_selectivity(
                self.block, conjunct)
        rows = max(0.5, estimate.rows * residual)
        method = AccessMethod.CTE_SCAN if entry.kind is EntryKind.CTE \
            else AccessMethod.MATERIALIZE
        access = AccessPlan(method=method, est_rows=estimate.rows,
                            est_cost=estimate.cost
                            + estimate.rows * ROW_EVAL * 0.5)
        return access, rows, access.est_cost

    def _sub_estimate(self, entry: TableEntry) -> SubBlockEstimate:
        sub = entry.sub_block
        if sub is not None and sub.block_id in self.sub_estimates:
            return self.sub_estimates[sub.block_id]
        return SubBlockEstimate(rows=1000.0, cost=1000.0)

    # -- transitions ---------------------------------------------------------------

    def _first_position(self, unit: _Unit) -> Optional[_State]:
        if unit.is_nest:
            return None
        entry = unit.entries[0]
        if entry.outer_join_conjuncts is not None:
            return None  # a LEFT inner can never drive the join
        access, rows, cost = self._entry_local(entry)
        # Inside a correlated subquery, equalities against the outer query
        # can drive an index lookup even for the first table (the paper's
        # Q17 subquery probes lineitem_fk2 with part.p_partkey).
        if self.corr:
            ref = self._ref(entry, False, self.corr)
            if ref is not None and ref.est_cost < cost:
                access = ref
                cost = ref.est_cost
                rows = max(0.5, ref.est_rows
                           * self._residual(entry, ref.consumed_conjuncts))
        position = PositionEntry(entry_id=entry.entry_id, access=access,
                                 join_method=JoinMethod.NLJ,
                                 join_kind=JoinKind.INNER,
                                 fanout=rows, cost=cost)
        return _State(cost=cost, rows=rows, positions=[position])

    def _extend(self, state: _State, placed: int,
                unit: _Unit) -> Optional[_State]:
        if unit.is_nest:
            return self._extend_with_nest(state, placed, unit)
        entry = unit.entries[0]
        new_ids = unit.mask
        cross = self._cross_conjuncts(placed, new_ids)
        join_kind = JoinKind.LEFT if entry.outer_join_conjuncts is not None \
            else JoinKind.INNER

        # Candidate A: ref (index lookup) access driven by the prefix.
        ref = self._ref(entry, join_kind is JoinKind.LEFT,
                        placed | self.corr)

        # Candidate B: rescan costing (executed as hash join when an equi
        # conjunct exists, but costed as a repeated inner access).
        access, local_rows, local_cost = self._entry_local(entry)
        cross_sel = self._cross_selectivity(cross)
        scan_cost = state.cost + state.rows * self.cost_model.rescan_cost(
            local_cost)
        scan_rows = state.rows * local_rows * cross_sel

        best_access = access
        best_cost = scan_cost
        best_rows = scan_rows
        method = JoinMethod.HASH if self._has_equi_conjunct(
            cross, placed, new_ids) else JoinMethod.NLJ
        if ref is not None:
            consumed_ids = {id(c) for c in ref.consumed_conjuncts}
            residual = self._residual(entry, ref.consumed_conjuncts)
            residual *= self.estimator.join_selectivity(
                self.block, [conjunct for conjunct in cross
                             if id(conjunct) not in consumed_ids])
            ref_cost = state.cost + state.rows * ref.est_cost
            ref_rows = state.rows * ref.est_rows * residual
            if ref_cost < best_cost:
                best_access = ref
                best_cost = ref_cost
                best_rows = ref_rows
                method = JoinMethod.NLJ
        if join_kind is JoinKind.LEFT:
            best_rows = max(best_rows, state.rows)
        best_rows = max(0.5, best_rows)
        position = PositionEntry(entry_id=entry.entry_id, access=best_access,
                                 join_method=method, join_kind=join_kind,
                                 fanout=best_rows, cost=best_cost)
        return _State(cost=best_cost, rows=best_rows,
                      positions=state.positions + [position])

    def _extend_with_nest(self, state: _State, placed: int,
                          unit: _Unit) -> Optional[_State]:
        """Cost FirstMatch (NLJ) vs Materialization (hash) for the nest.

        The two strategies plan the nest's inner chain under different
        visibility: FirstMatch sees the outer prefix (index lookups keyed
        on outer columns are legal), while Materialization computes the
        inner side standalone, so it is planned with an empty prefix.
        """
        fm_positions, fm_probe_rows, fm_probe_cost = \
            self._order_nest(placed, unit)
        match_prob = min(1.0, fm_probe_rows)
        if unit.nest_kind is NestKind.SEMI:
            out_rows = max(0.5, state.rows * max(match_prob, 1e-3))
        else:
            out_rows = max(0.5, state.rows * max(0.02, 1.0 - match_prob))

        firstmatch_cost = state.cost + state.rows * fm_probe_cost
        kind = JoinKind.SEMI if unit.nest_kind is NestKind.SEMI \
            else JoinKind.ANTI
        best_cost = firstmatch_cost
        best_positions = fm_positions
        method = JoinMethod.NLJ
        if self._materialization_possible(unit):
            sa_positions, sa_rows, sa_cost = self._order_nest(0, unit)
            materialize_cost = (state.cost + sa_cost
                                + sa_rows * ROW_EVAL
                                + state.rows * ROW_EVAL * 1.5)
            if materialize_cost < firstmatch_cost:
                best_cost = materialize_cost
                best_positions = sa_positions
                method = JoinMethod.HASH
        for position in best_positions:
            position.nest_id = unit.nest_id
            position.join_kind = kind
            position.join_method = method
        best_positions[0].fanout = out_rows
        best_positions[0].cost = best_cost
        return _State(cost=best_cost, rows=out_rows,
                      positions=state.positions + best_positions)

    def _materialization_possible(self, unit: _Unit) -> bool:
        """Hash materialisation needs every outer bridge to be an equality."""
        found = self._materializable.get(unit.index)
        if found is None:
            found = self._materializable[unit.index] = \
                self._equi_bridged(unit)
        return found

    def _equi_bridged(self, unit: _Unit) -> bool:
        own = unit.mask
        for conjunct, mask in zip(self.pool, self._pool_masks):
            if mask & own and mask & ~own & ~self.corr:
                if not _is_equi_between(self.facts, conjunct, mask & ~own,
                                        own):
                    return False
        return True

    def _order_nest(self, placed: int, unit: _Unit):
        """Greedy order of the nest's entries relative to a prefix.

        With a non-empty ``placed`` this plans the FirstMatch strategy
        (per-probe cost, outer columns available for lookups); with an
        empty prefix it plans the standalone inner computation used by the
        Materialization strategy.  Returns (positions, fanout, cost).
        """
        remaining = list(unit.entries)
        ordered: List[PositionEntry] = []
        probe_rows = 1.0
        probe_cost = 0.0
        inner_placed = 0
        while remaining:
            best = None
            for entry in remaining:
                candidate = self._nest_step(placed, inner_placed, entry,
                                            probe_rows)
                if best is None or candidate[0] < best[0]:
                    best = candidate + (entry,)
            step_cost, step_rows, position, entry = best
            probe_cost += step_cost
            probe_rows = step_rows
            ordered.append(position)
            inner_placed |= 1 << entry.entry_id
            remaining.remove(entry)
        return ordered, probe_rows, probe_cost

    def _nest_step(self, placed: int, inner_placed: int,
                   entry: TableEntry, probe_rows: float):
        available = placed | inner_placed | self.corr
        ref = self._ref(entry, False, available)
        access, local_rows, local_cost = self._entry_local(entry)
        cross = self._cross_conjuncts(placed | inner_placed,
                                      1 << entry.entry_id)
        cross_sel = self._cross_selectivity(cross)
        scan_cost = probe_rows * local_cost
        scan_rows = probe_rows * local_rows * cross_sel
        if ref is not None:
            ref_cost = probe_rows * ref.est_cost
            if ref_cost < scan_cost:
                position = PositionEntry(entry_id=entry.entry_id, access=ref,
                                         fanout=scan_rows, cost=ref_cost)
                return ref_cost, max(1e-6, probe_rows * ref.est_rows
                                     * cross_sel), position
        position = PositionEntry(entry_id=entry.entry_id, access=access,
                                 fanout=scan_rows, cost=scan_cost)
        return scan_cost, max(1e-6, scan_rows), position

    # -- search drivers ------------------------------------------------------------

    def search(self) -> Tuple[List[PositionEntry], float, float]:
        if not self.units:
            return [], 0.0, 1.0
        if len(self.units) <= GREEDY_THRESHOLD:
            return self._search_dp()
        return self._search_greedy()

    def _eligible(self, placed_units: int) -> List[_Unit]:
        return [unit for unit in self.units
                if not (placed_units >> unit.index & 1
                        or unit.deps & ~placed_units)]

    def _connected_first(self, candidates: List[_Unit],
                         placed: int) -> List[_Unit]:
        """Prefer units linked to the prefix by a conjunct (avoid cartesian)."""
        if not placed:
            return candidates
        connected = [unit for unit in candidates if unit.reach & placed]
        return connected or candidates

    def _search_dp(self) -> Tuple[List[PositionEntry], float, float]:
        """Left-deep DP over unit subsets with cartesian avoidance.

        Keys are unit masks; ``layers[k]`` lists the keys of ``k`` units
        in the order they were first reached, which is the order the
        frozenset-keyed search visited them in."""
        states: Dict[int, _State] = {}
        entry_sets: Dict[int, int] = {}
        total_units = len(self.units)
        layers: List[List[int]] = [[] for __ in range(total_units + 1)]
        for unit in self._eligible(0):
            first = self._first_position(unit)
            if first is None:
                continue
            key = 1 << unit.index
            existing = states.get(key)
            if existing is None or first.cost < existing.cost:
                if existing is None:
                    layers[1].append(key)
                states[key] = first
                entry_sets[key] = unit.mask
        if not states:
            raise MySQLOptimizerError("no valid driving table for block")
        for size in range(1, total_units):
            grown = layers[size + 1]
            for key in layers[size]:
                state = states[key]
                placed_entries = entry_sets[key]
                candidates = self._connected_first(
                    self._eligible(key), placed_entries)
                for unit in candidates:
                    extended = self._extend(state, placed_entries, unit)
                    if extended is None:
                        continue
                    new_key = key | 1 << unit.index
                    existing = states.get(new_key)
                    if existing is None or extended.cost < existing.cost:
                        if existing is None:
                            grown.append(new_key)
                        states[new_key] = extended
                        entry_sets[new_key] = placed_entries | unit.mask
        final = states.get((1 << total_units) - 1)
        if final is None:
            # Dependencies may have made some interleavings unreachable via
            # the connected-first pruning; fall back to greedy.
            return self._search_greedy()
        return final.positions, final.cost, final.rows

    def _search_greedy(self) -> Tuple[List[PositionEntry], float, float]:
        placed_units = 0
        placed_entries = 0
        state: Optional[_State] = None
        full = (1 << len(self.units)) - 1
        while placed_units != full:
            candidates = self._eligible(placed_units)
            if state is not None:
                candidates = self._connected_first(candidates,
                                                   placed_entries)
            best: Optional[Tuple[float, _State, _Unit]] = None
            for unit in candidates:
                if state is None:
                    trial = self._first_position(unit)
                else:
                    trial = self._extend(state, placed_entries, unit)
                if trial is None:
                    continue
                if best is None or trial.cost < best[0]:
                    best = (trial.cost, trial, unit)
            if best is None:
                raise MySQLOptimizerError(
                    "greedy join ordering could not place all tables")
            __, state, unit = best
            placed_units |= 1 << unit.index
            placed_entries |= unit.mask
        assert state is not None
        return state.positions, state.cost, state.rows


def _is_equi_between(facts: BlockFacts, conjunct: ast.Expr, side_a: int,
                     side_b: int) -> bool:
    """Whether the conjunct is ``expr(side_a) = expr(side_b)`` (sides are
    entry masks)."""
    if not (isinstance(conjunct, ast.BinaryExpr)
            and conjunct.op is ast.BinOp.EQ):
        return False
    left = facts.mask(conjunct.left)
    right = facts.mask(conjunct.right)
    if not left or not right:
        return False
    if not left & ~side_a and not right & ~side_b:
        return True
    return not left & ~side_b and not right & ~side_a
