"""Tests for the MySQL-style optimizer: plan shapes and skeletons.

The decisive reproduction properties (Section 1's weakness list) are
asserted structurally: left-deep plans only, ref-access preference over
hash joins whenever an index exists, and skeleton plans whose
best-position arrays drive refinement.
"""

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest

from repro import Database
from repro.catalog import Column, Index, TableSchema
from repro.errors import MySQLOptimizerError
from repro.executor.plan import (
    AccessMethod,
    HashJoinNode,
    IndexLookupNode,
    IndexRangeScanNode,
    JoinKind,
    NestedLoopJoinNode,
    PlanNode,
    TableScanNode,
)
from repro.mysql_optimizer import optimizer as mysql_optimizer
from repro.mysql_optimizer.access_path import best_local_access, ref_access
from repro.mysql_optimizer.cost import ROW_EVAL, MySQLCostModel
from repro.mysql_optimizer.join_order import (
    GREEDY_THRESHOLD,
    JoinOrderSearch,
    SubBlockEstimate,
)
from repro.mysql_optimizer.optimizer import MySQLOptimizer
from repro.mysql_optimizer.refinement import PlanBuilder
from repro.mysql_optimizer.skeleton import AccessPlan, JoinMethod, \
    PositionEntry
from repro.mysql_types import MySQLType
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    NestKind,
    QueryBlock,
    TableEntry,
)
from repro.sql.facts import ids_mask
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.workloads.joins import load_topology, make_topology
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

from tests.conftest import build_mini_db
from tests.test_block_facts import (
    reference_correlation_sources as correlation_sources,
    reference_referenced_entries as referenced_entries,
)


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=3)


def skeleton_for(db, sql):
    stmt = parse_statement(sql)
    block, context = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    plan = MySQLOptimizer(db.catalog).optimize(block, context)
    return plan, block, context


def plan_for(db, sql):
    skeleton, block, context = skeleton_for(db, sql)
    executor = PlanBuilder(skeleton, db.catalog, db.storage).build()
    return executor.top_plan


def nodes_of(plan_node, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            visit(child)

    if plan_node is not None:
        visit(plan_node)
    return found


class TestAccessPaths:
    def test_index_range_for_pk_predicate(self, db):
        plan = plan_for(db, """
            SELECT o_totalprice FROM orders
            WHERE o_orderkey BETWEEN 10 AND 20""")
        ranges = nodes_of(plan.root, IndexRangeScanNode)
        assert ranges and ranges[0].index_name == "PRIMARY"

    def test_table_scan_without_usable_index(self, db):
        plan = plan_for(db, """
            SELECT o_orderkey FROM orders WHERE o_totalprice > 100""")
        assert nodes_of(plan.root, TableScanNode)

    def test_point_lookup_via_unique_index(self, db):
        plan = plan_for(db,
                        "SELECT o_totalprice FROM orders "
                        "WHERE o_orderkey = 5")
        ranges = nodes_of(plan.root, IndexRangeScanNode)
        assert ranges and ranges[0].low == ranges[0].high == (5,)


class TestJoinPlanning:
    def test_ref_access_preferred_with_index(self, db):
        # MySQL favors index nested-loop joins (Section 3.1).
        plan = plan_for(db, """
            SELECT c_name, o_totalprice FROM customer, orders
            WHERE c_custkey = o_custkey AND c_segment = 'GOLD'""")
        lookups = nodes_of(plan.root, IndexLookupNode)
        assert lookups, "expected an index nested-loop join"
        assert not nodes_of(plan.root, HashJoinNode)

    def test_hash_join_only_without_index(self, db):
        # Join on non-indexed columns: executed as hash join (MySQL 8.0
        # behaviour) even though the search never costed it.
        plan = plan_for(db, """
            SELECT COUNT(*) FROM customer c1, customer c2
            WHERE c1.c_name = c2.c_name""")
        assert nodes_of(plan.root, HashJoinNode)

    def test_plans_are_left_deep(self, db):
        plan = plan_for(db, """
            SELECT COUNT(*) FROM customer, orders, lineitem, part
            WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
              AND l_partkey = p_partkey""")
        for join in nodes_of(plan.root, (NestedLoopJoinNode, HashJoinNode)):
            inner = join.inner if isinstance(join, NestedLoopJoinNode) \
                else join.build
            # Left-deep: the inner/build side is always a single leaf.
            assert not nodes_of(inner, (NestedLoopJoinNode, HashJoinNode))

    def test_driving_table_is_most_selective(self, db):
        skeleton, block, __ = skeleton_for(db, """
            SELECT COUNT(*) FROM customer, orders
            WHERE c_custkey = o_custkey AND c_custkey = 7""")
        first = skeleton.skeleton_for(block).positions[0]
        entry = block.context.entry(first.entry_id)
        assert entry.alias == "customer"

    def test_semijoin_positions_are_contiguous(self, db):
        skeleton, block, __ = skeleton_for(db, """
            SELECT o_orderkey FROM orders
            WHERE EXISTS (SELECT * FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_quantity > 10)""")
        positions = skeleton.skeleton_for(block).positions
        nest_flags = [p.nest_id is not None for p in positions]
        # once the nest starts it runs to a contiguous end
        if True in nest_flags:
            start = nest_flags.index(True)
            assert all(nest_flags[start:]) or \
                not any(nest_flags[start + nest_flags[start:].index(False):])

    def test_left_join_never_drives(self, db):
        skeleton, block, __ = skeleton_for(db, """
            SELECT c_custkey FROM customer
            LEFT JOIN orders ON c_custkey = o_custkey
            WHERE c_acctbal IS NOT NULL""")
        first = skeleton.skeleton_for(block).positions[0]
        entry = block.context.entry(first.entry_id)
        assert entry.alias == "customer"

    def test_estimates_recorded_in_skeleton(self, db):
        skeleton, block, __ = skeleton_for(db, """
            SELECT COUNT(*) FROM customer, orders
            WHERE c_custkey = o_custkey""")
        for position in skeleton.skeleton_for(block).positions:
            assert position.cost > 0
            assert position.fanout > 0


class TestSkeletonStructure:
    def test_every_block_gets_a_skeleton(self, db):
        skeleton, block, __ = skeleton_for(db, """
            SELECT o_orderkey FROM orders
            WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)""")
        assert len(skeleton.blocks) == 2

    def test_origin_is_mysql(self, db):
        skeleton, __, __ = skeleton_for(db, "SELECT COUNT(*) FROM orders")
        assert skeleton.origin == "mysql"

    def test_no_bushy_branches_from_mysql(self, db):
        # Weakness (1): "It generates only left-deep join plans".
        skeleton, block, __ = skeleton_for(db, """
            SELECT COUNT(*) FROM customer, orders, lineitem, part
            WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
              AND l_partkey = p_partkey""")
        for position in skeleton.skeleton_for(block).positions:
            assert not position.is_branch


# -- the frozenset search, kept as the reference -------------------------------------
#
# ``ReferenceJoinOrderSearch`` is ``JoinOrderSearch`` as it was before
# the search moved onto entry and unit masks read from the block's facts
# table: frozenset keys, ``referenced_entries`` and
# ``correlation_sources`` walks per question (the walk-based copies in
# ``tests/test_block_facts.py``), nothing memoised.  Only its three
# ``ref_access`` calls changed, to pass an entry mask.


@dataclass
class _RefState:
    cost: float
    rows: float
    positions: List[PositionEntry]


@dataclass
class _ReferenceUnit:
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


class ReferenceJoinOrderSearch:
    """The frozenset-keyed search, verbatim but for ``ref_access``,
    which takes an entry mask."""

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

    def _build_units(self) -> List[_ReferenceUnit]:
        units: List[_ReferenceUnit] = []
        nest_units: Dict[int, _ReferenceUnit] = {}
        for entry in self.block.entries:
            if entry.semijoin_nest is not None:
                unit = nest_units.get(entry.semijoin_nest)
                if unit is None:
                    nest = self.block.nest(entry.semijoin_nest)
                    unit = _ReferenceUnit(len(units), [],
                                 nest_kind=nest.kind,
                                 nest_id=nest.nest_id)
                    nest_units[entry.semijoin_nest] = unit
                    units.append(unit)
                unit.entries.append(entry)
            else:
                units.append(_ReferenceUnit(len(units), [entry]))
        self._compute_deps(units)
        return units

    def _compute_deps(self, units: List[_ReferenceUnit]) -> None:
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
            if _reference_is_equi_between(conjunct, placed | self.corr, new_ids):
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

    def _first_position(self, unit: _ReferenceUnit) -> Optional[_RefState]:
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
            ref = ref_access(self.block, entry, self.pool,
                             ids_mask(self.corr), self.estimator,
                             self.cost_model)
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
        return _RefState(cost=cost, rows=rows, positions=[position])

    def _extend(self, state: _RefState, placed: FrozenSet[int],
                unit: _ReferenceUnit) -> Optional[_RefState]:
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
                         ids_mask(placed | self.corr), self.estimator,
                         self.cost_model)

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
        return _RefState(cost=best_cost, rows=best_rows,
                      positions=state.positions + [position])

    def _extend_with_nest(self, state: _RefState, placed: FrozenSet[int],
                          unit: _ReferenceUnit) -> Optional[_RefState]:
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
        return _RefState(cost=best_cost, rows=out_rows,
                      positions=state.positions + best_positions)

    def _materialization_possible(self, unit: _ReferenceUnit) -> bool:
        """Hash materialisation needs every outer bridge to be an equality."""
        own = unit.entry_ids
        for conjunct in self.pool:
            refs = referenced_entries(conjunct)
            if refs & own and refs - own - self.corr:
                if not _reference_is_equi_between(conjunct, refs - own, own):
                    return False
        return True

    def _order_nest(self, placed: FrozenSet[int], unit: _ReferenceUnit):
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
        ref = ref_access(self.block, entry, self.pool, ids_mask(available),
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

    def _eligible(self, placed_units: FrozenSet[int]) -> List[_ReferenceUnit]:
        out = []
        for unit in self.units:
            if unit.index in placed_units:
                continue
            if unit.deps.issubset(placed_units):
                out.append(unit)
        return out

    def _connected_first(self, candidates: List[_ReferenceUnit],
                         placed: FrozenSet[int]) -> List[_ReferenceUnit]:
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
        states: Dict[FrozenSet[int], _RefState] = {}
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
        state: Optional[_RefState] = None
        while len(placed_units) < len(self.units):
            candidates = self._eligible(placed_units)
            if state is not None:
                candidates = self._connected_first(candidates,
                                                   placed_entries)
            best: Optional[Tuple[float, _RefState, _ReferenceUnit]] = None
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


def _reference_is_equi_between(conjunct: ast.Expr, side_a: FrozenSet[int],
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


# -- the mask search against the reference --------------------------------------------


def _access_signature(access):
    if access is None:
        return None
    return (access.method, access.index_name, access.low, access.high,
            access.low_inclusive, access.high_inclusive,
            [id(expr) for expr in access.key_exprs],
            [id(conjunct) for conjunct in access.consumed_conjuncts],
            access.descending, access.est_rows, access.est_cost)


def _positions_signature(positions):
    return [(position.entry_id,
             None if position.branch is None
             else _positions_signature(position.branch),
             _access_signature(position.access), position.join_method,
             position.join_kind, position.nest_id, position.fanout,
             position.cost)
            for position in positions]


def _search_signature(search):
    try:
        positions, cost, rows = search.search()
    except MySQLOptimizerError as error:
        return ("error", str(error))
    return _positions_signature(positions), cost, rows


@pytest.fixture
def compared(monkeypatch):
    """Every ``JoinOrderSearch`` the MySQL optimizer runs is also run
    as the reference on the same block; yields the list of
    ``(block, same, greedy)`` outcomes."""
    outcomes = []

    class Checked(JoinOrderSearch):
        def search(self):
            reference = ReferenceJoinOrderSearch(
                self.block, self.estimator, self.cost_model,
                self.sub_estimates)
            want = _search_signature(reference)
            got = _search_signature(JoinOrderSearch(
                self.block, self.estimator, self.cost_model,
                self.sub_estimates))
            outcomes.append((self.block, got == want,
                             len(self.units) > GREEDY_THRESHOLD))
            return super().search()

    monkeypatch.setattr(mysql_optimizer, "JoinOrderSearch", Checked)
    return outcomes


def _mysql_corpus():
    tpch = Database()
    load_tpch(tpch, scale=0.01)
    tpcds = Database()
    load_tpcds(tpcds, scale=0.02)
    joins = Database()
    statements = [(tpch, sql) for __, sql in sorted(TPCH_QUERIES.items())]
    statements += [(tpcds, sql)
                   for __, sql in sorted(TPCDS_QUERIES.items())]
    for kind, relations in (("chain", 10), ("chain", 20), ("chain", 30),
                            ("star", 10), ("star", 20), ("snowflake", 16),
                            ("clique", 10)):
        topology = make_topology(kind, relations, seed=1234, scale=0.05)
        load_topology(joins, topology)
        statements.append((joins, topology.query))
    return statements


def test_mask_search_matches_the_frozenset_search_on_the_corpus(compared):
    """Positions, accesses, costs and rows, bit for bit, on every block
    of the TPC-H / TPC-DS / topology corpus."""
    for db, sql in _mysql_corpus():
        db.compile_only(sql, optimizer="mysql")
    differ = [block for block, same, __ in compared if not same]
    assert len(compared) > 200
    assert any(greedy for __, __, greedy in compared)
    assert not differ, f"{len(differ)} blocks differ: {differ[:5]}"


GRAPH_TABLES = 6


def _graph_schema(name):
    return TableSchema(name, [
        Column.of("pk", MySQLType.LONG, nullable=False),
        Column.of("a", MySQLType.LONG, nullable=False),
        Column.of("b", MySQLType.LONG, nullable=False),
        Column.of("v", MySQLType.LONG, nullable=False),
    ], [Index("PRIMARY", ("pk",), primary=True),
        Index(f"{name}_a", ("a",)), Index(f"{name}_ab", ("a", "b"))])


@pytest.fixture(scope="module")
def graph_db():
    rng = random.Random("mysql-search-graphs")
    database = Database()
    for number in range(GRAPH_TABLES):
        name = f"r{number}"
        database.create_table(_graph_schema(name))
        rows = 20 + 40 * number
        database.load(name, [(pk, rng.randrange(rows), rng.randrange(12),
                              rng.randrange(100)) for pk in range(rows)])
    database.analyze()
    return database


def _graph_sql(seed):
    """A seeded join graph of 2-14 tables: equality, non-equi and
    three-table conjuncts, LEFT JOINs, EXISTS / NOT EXISTS / IN nests
    of one or two tables, and correlated scalar subqueries whose blocks
    are searched with correlation sources."""
    rng = random.Random(f"mysql-search/{seed}")
    n = rng.randint(2, 14)

    def table():
        return f"r{rng.randrange(GRAPH_TABLES)}"

    items = []
    conjuncts = []
    left_inners = set()
    for i in range(n):
        if i and i - 1 not in left_inners and rng.random() < 0.2:
            on = f"t{i}.{rng.choice('ab')} = t{i - 1}.pk"
            if rng.random() < 0.4:
                on += f" AND t{i}.v < {rng.randrange(20, 90)}"
            items[-1] += f" LEFT JOIN {table()} t{i} ON {on}"
            left_inners.add(i)
            continue
        items.append(f"{table()} t{i}")
        if i:
            j = rng.randrange(i)
            shape = rng.random()
            if shape < 0.7:
                conjuncts.append(f"t{i}.{rng.choice('ab')} = t{j}.pk")
            elif shape < 0.85:
                conjuncts.append(f"t{i}.b = t{j}.b")
            else:
                conjuncts.append(f"t{i}.v < t{j}.v")
    for i in range(n):
        if i not in left_inners and rng.random() < 0.4:
            conjuncts.append(f"t{i}.v < {rng.randrange(20, 95)}")
    if n >= 3 and rng.random() < 0.3:
        conjuncts.append("t0.a + t1.b = t2.pk")
    outer = [i for i in range(n) if i not in left_inners]
    for __ in range(rng.randint(0, 3)):
        k = rng.choice(outer)
        kind = rng.random()
        if kind < 0.3:
            conjuncts.append(
                f"EXISTS (SELECT 1 FROM {table()} x WHERE x.a = t{k}.pk "
                f"AND x.v < {rng.randrange(30, 90)})")
        elif kind < 0.5:
            conjuncts.append(
                f"NOT EXISTS (SELECT 1 FROM {table()} x, {table()} y "
                f"WHERE x.a = t{k}.b AND y.pk = x.b)")
        elif kind < 0.7:
            conjuncts.append(
                f"t{k}.a IN (SELECT x.b FROM {table()} x, {table()} y "
                f"WHERE y.a = x.pk AND y.v < {rng.randrange(30, 90)})")
        else:
            conjuncts.append(
                f"t{k}.v >= (SELECT COUNT(*) FROM {table()} x, "
                f"{table()} y WHERE x.a = t{k}.pk AND y.pk = x.b)")
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT COUNT(*) FROM {', '.join(items)}{where}"


def test_mask_search_matches_the_frozenset_search_on_seeded_graphs(
        graph_db, compared):
    """LEFT joins, semi-join and anti-join nests, correlated inner
    blocks and greedy-width graphs, bit for bit."""
    statements = [_graph_sql(seed) for seed in range(60)]
    for sql in statements:
        result = graph_db.compile_only(sql, optimizer="mysql")
        assert result.optimizer_used == "mysql"
    blocks = [block for block, __, __ in compared]
    kinds = {entry.kind for block in blocks for entry in block.entries}
    assert kinds == {EntryKind.BASE}
    assert any(entry.outer_join_conjuncts is not None
               for block in blocks for entry in block.entries)
    nests = {nest.kind for block in blocks for nest in block.semijoin_nests}
    assert nests == {NestKind.SEMI, NestKind.ANTI}
    assert any(block.facts.corr for block in blocks)
    assert any(greedy for __, __, greedy in compared)
    differ = [block for block, same, __ in compared if not same]
    assert not differ, f"{len(differ)} blocks differ: {differ[:5]}"
