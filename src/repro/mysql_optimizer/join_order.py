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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import MySQLOptimizerError
from repro.executor.plan import AccessMethod, JoinKind
from repro.mysql_optimizer.access_path import best_local_access, ref_access
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
    correlation_sources,
    referenced_entries,
)

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
    deps: FrozenSet[int] = frozenset()

    @property
    def entry_ids(self) -> FrozenSet[int]:
        return frozenset(entry.entry_id for entry in self.entries)

    @property
    def is_nest(self) -> bool:
        return self.nest_kind is not None


@dataclass
class _State:
    cost: float
    rows: float
    positions: List[PositionEntry]


class JoinOrderSearch:
    """Join ordering for one query block."""

    def __init__(self, block: QueryBlock, estimator: SelectivityEstimator,
                 cost_model: MySQLCostModel,
                 sub_estimates: Dict[int, SubBlockEstimate]) -> None:
        self.block = block
        self.estimator = estimator
        self.cost_model = cost_model
        self.sub_estimates = sub_estimates
        self.corr = frozenset(correlation_sources(block))
        self.pool = list(block.where_conjuncts)
        self.units = self._build_units()

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
        self._compute_deps(units)
        return units

    def _compute_deps(self, units: List[_Unit]) -> None:
        entry_to_unit: Dict[int, int] = {}
        for unit in units:
            for entry in unit.entries:
                entry_to_unit[entry.entry_id] = unit.index
        for unit in units:
            deps = set()
            own = unit.entry_ids
            for entry in unit.entries:
                # LEFT-joined entries follow everything their ON refers to.
                if entry.outer_join_conjuncts:
                    for conjunct in entry.outer_join_conjuncts:
                        for ref in referenced_entries(conjunct):
                            other = entry_to_unit.get(ref)
                            if other is not None and other != unit.index:
                                deps.add(other)
                # Correlated derived tables follow their sources.
                if entry.kind in (EntryKind.DERIVED, EntryKind.CTE) and \
                        entry.sub_block is not None:
                    for ref in correlation_sources(entry.sub_block):
                        other = entry_to_unit.get(ref)
                        if other is not None and other != unit.index:
                            deps.add(other)
            if unit.is_nest:
                # Outer entries co-referenced with the nest must precede it
                # so the semi-join condition is fully bound at nest close.
                for conjunct in self.pool:
                    refs = referenced_entries(conjunct)
                    if refs & own:
                        for ref in refs - own:
                            other = entry_to_unit.get(ref)
                            if other is not None:
                                deps.add(other)
            unit.deps = frozenset(deps)

    # -- conjunct bookkeeping --------------------------------------------------------

    def _local_conjuncts(self, entry: TableEntry) -> List[ast.Expr]:
        target = frozenset({entry.entry_id})
        if entry.outer_join_conjuncts is not None:
            return [c for c in entry.outer_join_conjuncts
                    if referenced_entries(c) and
                    referenced_entries(c).issubset(target | self.corr)]
        return [c for c in self.pool
                if referenced_entries(c) == target]

    def _cross_conjuncts(self, placed: FrozenSet[int],
                         new_ids: FrozenSet[int]) -> List[ast.Expr]:
        """Pool conjuncts that become evaluable when new_ids join placed."""
        result = []
        visible = placed | new_ids | self.corr
        for conjunct in self.pool:
            refs = referenced_entries(conjunct)
            if not refs & new_ids:
                continue
            if refs.issubset(visible) and (refs & placed or
                                           not refs.issubset(new_ids
                                                             | self.corr)):
                result.append(conjunct)
        return result

    def _cross_selectivity(self, conjuncts: List[ast.Expr]) -> float:
        return max(1e-9, self.estimator.join_selectivity(self.block,
                                                          conjuncts))

    def _has_equi_conjunct(self, conjuncts: List[ast.Expr],
                           placed: FrozenSet[int],
                           new_ids: FrozenSet[int]) -> bool:
        for conjunct in conjuncts:
            if _is_equi_between(conjunct, placed | self.corr, new_ids):
                return True
        return False

    # -- local (standalone) unit plans --------------------------------------------------

    def _entry_local(self, entry: TableEntry
                     ) -> Tuple[AccessPlan, float, float]:
        """(access, rows after local filters, standalone cost)."""
        local = self._local_conjuncts(entry)
        if entry.kind is EntryKind.BASE:
            access = best_local_access(self.block, entry, local,
                                       self.estimator, self.cost_model)
            residual = 1.0
            consumed_ids = {id(c) for c in access.consumed_conjuncts}
            for conjunct in local:
                if id(conjunct) not in consumed_ids:
                    residual *= self.estimator.conjunct_selectivity(
                        self.block, conjunct)
            rows = max(0.5, access.est_rows * residual)
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
            ref = ref_access(self.block, entry, self.pool, self.corr,
                             self.estimator, self.cost_model)
            if ref is not None and ref.est_cost < cost:
                residual = 1.0
                consumed = {id(c) for c in ref.consumed_conjuncts}
                for conjunct in self._local_conjuncts(entry):
                    if id(conjunct) not in consumed:
                        residual *= self.estimator.conjunct_selectivity(
                            self.block, conjunct)
                access = ref
                cost = ref.est_cost
                rows = max(0.5, ref.est_rows * residual)
        position = PositionEntry(entry_id=entry.entry_id, access=access,
                                 join_method=JoinMethod.NLJ,
                                 join_kind=JoinKind.INNER,
                                 fanout=rows, cost=cost)
        return _State(cost=cost, rows=rows, positions=[position])

    def _extend(self, state: _State, placed: FrozenSet[int],
                unit: _Unit) -> Optional[_State]:
        if unit.is_nest:
            return self._extend_with_nest(state, placed, unit)
        entry = unit.entries[0]
        new_ids = unit.entry_ids
        cross = self._cross_conjuncts(placed, new_ids)
        join_kind = JoinKind.LEFT if entry.outer_join_conjuncts is not None \
            else JoinKind.INNER

        # Candidate A: ref (index lookup) access driven by the prefix.
        source = entry.outer_join_conjuncts if join_kind is JoinKind.LEFT \
            else self.pool
        ref = ref_access(self.block, entry, list(source),
                         placed | self.corr, self.estimator, self.cost_model)

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
            residual = 1.0
            for conjunct in self._local_conjuncts(entry):
                if id(conjunct) not in consumed_ids:
                    residual *= self.estimator.conjunct_selectivity(
                        self.block, conjunct)
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

    def _extend_with_nest(self, state: _State, placed: FrozenSet[int],
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
            sa_positions, sa_rows, sa_cost = self._order_nest(
                frozenset(), unit)
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
        own = unit.entry_ids
        for conjunct in self.pool:
            refs = referenced_entries(conjunct)
            if refs & own and refs - own - self.corr:
                if not _is_equi_between(conjunct, refs - own, own):
                    return False
        return True

    def _order_nest(self, placed: FrozenSet[int], unit: _Unit):
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
        inner_placed: FrozenSet[int] = frozenset()
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
            inner_placed = inner_placed | {entry.entry_id}
            remaining.remove(entry)
        return ordered, probe_rows, probe_cost

    def _nest_step(self, placed: FrozenSet[int], inner_placed: FrozenSet[int],
                   entry: TableEntry, probe_rows: float):
        available = placed | inner_placed | self.corr
        ref = ref_access(self.block, entry, self.pool, available,
                         self.estimator, self.cost_model)
        access, local_rows, local_cost = self._entry_local(entry)
        cross = self._cross_conjuncts(placed | inner_placed,
                                      frozenset({entry.entry_id}))
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

    def _eligible(self, placed_units: FrozenSet[int]) -> List[_Unit]:
        out = []
        for unit in self.units:
            if unit.index in placed_units:
                continue
            if unit.deps.issubset(placed_units):
                out.append(unit)
        return out

    def _connected_first(self, candidates: List[_Unit],
                         placed: FrozenSet[int]) -> List[_Unit]:
        """Prefer units linked to the prefix by a conjunct (avoid cartesian)."""
        if not placed:
            return candidates
        connected = []
        for unit in candidates:
            own = unit.entry_ids
            for conjunct in self.pool:
                refs = referenced_entries(conjunct)
                if refs & own and refs & placed:
                    connected.append(unit)
                    break
            else:
                for entry in unit.entries:
                    if entry.outer_join_conjuncts:
                        for conjunct in entry.outer_join_conjuncts:
                            if referenced_entries(conjunct) & placed:
                                connected.append(unit)
                                break
                        else:
                            continue
                        break
        return connected or candidates

    def _search_dp(self) -> Tuple[List[PositionEntry], float, float]:
        """Left-deep DP over unit subsets with cartesian avoidance."""
        states: Dict[FrozenSet[int], _State] = {}
        entry_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        for unit in self._eligible(frozenset()):
            first = self._first_position(unit)
            if first is None:
                continue
            key = frozenset({unit.index})
            if key not in states or first.cost < states[key].cost:
                states[key] = first
                entry_sets[key] = unit.entry_ids
        if not states:
            raise MySQLOptimizerError("no valid driving table for block")
        total_units = len(self.units)
        for size in range(1, total_units):
            layer = [key for key in states if len(key) == size]
            for key in layer:
                state = states[key]
                placed_entries = entry_sets[key]
                candidates = self._connected_first(
                    self._eligible(key), placed_entries)
                for unit in candidates:
                    extended = self._extend(state, placed_entries, unit)
                    if extended is None:
                        continue
                    new_key = key | {unit.index}
                    existing = states.get(new_key)
                    if existing is None or extended.cost < existing.cost:
                        states[new_key] = extended
                        entry_sets[new_key] = placed_entries | unit.entry_ids
        full = frozenset(range(total_units))
        final = states.get(full)
        if final is None:
            # Dependencies may have made some interleavings unreachable via
            # the connected-first pruning; fall back to greedy.
            return self._search_greedy()
        return final.positions, final.cost, final.rows

    def _search_greedy(self) -> Tuple[List[PositionEntry], float, float]:
        placed_units: FrozenSet[int] = frozenset()
        placed_entries: FrozenSet[int] = frozenset()
        state: Optional[_State] = None
        while len(placed_units) < len(self.units):
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
            placed_units = placed_units | {unit.index}
            placed_entries = placed_entries | unit.entry_ids
        assert state is not None
        return state.positions, state.cost, state.rows


def _is_equi_between(conjunct: ast.Expr, side_a: FrozenSet[int],
                     side_b: FrozenSet[int]) -> bool:
    """Whether the conjunct is ``expr(side_a) = expr(side_b)``."""
    if not (isinstance(conjunct, ast.BinaryExpr)
            and conjunct.op is ast.BinOp.EQ):
        return False
    left_refs = referenced_entries(conjunct.left)
    right_refs = referenced_entries(conjunct.right)
    if not left_refs or not right_refs:
        return False
    if left_refs.issubset(side_a) and right_refs.issubset(side_b):
        return True
    return left_refs.issubset(side_b) and right_refs.issubset(side_a)
