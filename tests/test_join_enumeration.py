"""The unit-mask join search makes exactly the choices the frozenset
search it replaced made.

``ReferenceJoinSearch`` keeps the frozenset search verbatim: its
``_dp``, ``_expand_subset``, ``_all_partitions``, ``_connected``,
``_cross_conjuncts``, ``_has_equi``, per-orientation pair bound and join
costing, changed only to read and write memo groups by unit mask and to
memoise ``ref_access`` per search under the conjuncts
``_join_equalities`` picks for the index columns (the unit-mask search
computes the same picks from per-unit key lists).  What the two share —
unit planning, ``subset_rows``, the seeding chains, GOO's loop and the
strategy selector — is not under test here.  On
seeded chain, star, cycle, clique and snowflake graphs of 2–11 units
(with a three-unit conjunct, a non-equi cross conjunct, two components,
a correlated outer reference and a derived-table unit among them), under
EXHAUSTIVE and EXHAUSTIVE2 with pruning on and off, every block must
come out the same: plan text with memo group ids and exact costs,
``memo.stats()``, cost-model evaluations, expansions, pruned candidates
and join-step access memo hits.  A memo-group cap and a fake-clock
deadline must trip at the same check and degrade to the same incumbent
— which pins the DP's every-256-subsets budget probe.

The join-step access memo is checked on its own too: every hit returns
what a fresh ``ref_access`` call returns, and a new search (after
ANALYZE) starts with an empty memo.
"""

import itertools
import random
from unittest import mock

import pytest

from repro import Database
from repro.bridge.metadata_provider import MySQLMetadataProvider
from repro.bridge.parse_tree_converter import ParseTreeConverter
from repro.catalog import Column, Index, TableSchema
from repro.errors import BudgetExceededError
from repro.mysql_optimizer.access_path import (
    indexed_positions,
    ref_access,
)
from repro.mysql_types import MySQLType
from repro.orca import optimizer as orca_optimizer
from repro.orca.joinorder import JoinSearchMode, OrcaJoinSearch, SubEstimates
from repro.orca.mdcache import MDAccessor
from repro.orca.memo import units_of
from repro.orca.operators import (
    JoinVariant,
    PhysicalGet,
    PhysicalHashJoin,
    PhysicalNLJoin,
)
from repro.orca.optimizer import OrcaConfig, OrcaOptimizer
from repro.orca.preprocess import preprocess_block
from repro.resilience import CompileBudget
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind
from repro.sql.facts import ids_mask, mask_ids, subquery_blocks
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver

from tests.test_block_facts import \
    reference_referenced_entries as referenced_entries


def _units(mask):
    return frozenset(units_of(mask))


def mask_of(units):
    return sum(1 << unit for unit in units)


def _reference_equalities(entry, conjuncts, available):
    """Column position -> (conjunct, other side) of the first equality
    per column whose other side reads only ``available`` entry ids: the
    picks ``ref_access`` makes, over entry-id sets."""
    result = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryExpr)
                and conjunct.op is ast.BinOp.EQ):
            continue
        for own, other in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(own, ast.ColumnRef) \
                    and own.entry_id == entry.entry_id:
                refs = referenced_entries(other)
                if entry.entry_id in refs:
                    continue
                if own.position not in result \
                        and refs.issubset(available):
                    result[own.position] = (conjunct, other)
                break
    return result


class ReferenceJoinSearch(OrcaJoinSearch):
    """The frozenset-keyed DP and pair offers, verbatim but for memo keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The search keeps its correlation sources as an entry mask;
        # the reference speaks entry-id sets.
        self._corr_ids = frozenset(mask_ids(self.corr))
        self._entry_sets = [frozenset({unit.descriptor.entry.entry_id})
                            for unit in self.units]
        self._conjunct_units = []
        all_entries = set()
        for entries in self._entry_sets:
            all_entries |= entries
        for conjunct in self.conjuncts:
            refs = referenced_entries(conjunct) - self._corr_ids
            touched = frozenset(
                index for index, entries in enumerate(self._entry_sets)
                if entries & refs)
            mapped = bool(refs) and refs.issubset(all_entries)
            self._conjunct_units.append((touched, mapped))
        self._edges = [units for units, __ in self._conjunct_units
                       if len(units) >= 2]
        self._reference_memo = {}

    def _connected(self, subset):
        if isinstance(subset, int):  # a shared caller passing a mask
            subset = _units(subset)
        if len(subset) <= 1:
            return True
        cached = self._conn_cache.get(subset)
        if cached is not None:
            return cached
        result = self._connected_uncached(subset)
        self._conn_cache[subset] = result
        return result

    def _connected_uncached(self, subset):
        seen = {next(iter(subset))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for edge in self._edges:
                if current in edge:
                    for other in edge:
                        if other in subset and other not in seen:
                            seen.add(other)
                            frontier.append(other)
        return len(seen) == len(subset)

    def _entries_of(self, subset):
        entries = set()
        for index in subset:
            entries |= self._entry_sets[index]
        return frozenset(entries)

    def _cross_conjuncts(self, side_a, side_b):
        visible = side_a | side_b
        result = []
        for conjunct_index, (units, mapped) in \
                enumerate(self._conjunct_units):
            if mapped and units and units <= visible \
                    and units & side_a and units & side_b:
                result.append(self.conjuncts[conjunct_index])
        return result

    def _has_equi(self, conjuncts, entries_a, entries_b):
        for conjunct in conjuncts:
            if isinstance(conjunct, ast.BinaryExpr) and \
                    conjunct.op is ast.BinOp.EQ:
                left = referenced_entries(conjunct.left) - self._corr_ids
                right = referenced_entries(conjunct.right) - self._corr_ids
                if not left or not right:
                    continue
                if (left.issubset(entries_a) and right.issubset(entries_b)) \
                        or (left.issubset(entries_b)
                            and right.issubset(entries_a)):
                    return True
        return False

    def _dp(self, component):
        component = _units(component)
        members = sorted(component)
        for index in members:
            self.ensure_singleton(index)
        self._seed_bounds(mask_of(component))
        full_bushy = self.mode is JoinSearchMode.EXHAUSTIVE2
        probe = 0
        for size in range(2, len(members) + 1):
            for combo in itertools.combinations(members, size):
                probe += 1
                if not probe & 0xFF:
                    self._check_budget()
                subset = frozenset(combo)
                if not self._connected(subset):
                    continue
                self._expand_subset(subset, full_bushy)
        final = self.memo.group(mask_of(component))
        if final.best_plan is None:
            return self._greedy(mask_of(component))
        return final.best_plan, final.best_cost, final.rows

    def _expand_subset(self, subset, full_bushy):
        self._check_budget()
        self.expansions += 1
        group = self.memo.group(mask_of(subset))
        group.rows = self.subset_rows(mask_of(subset))
        members = sorted(subset)
        if full_bushy:
            partitions = self._all_partitions(members)
        else:
            partitions = [(frozenset(subset - {index}), frozenset({index}))
                          for index in members]
        for side_a, side_b in partitions:
            if not self._connected(side_a) or not self._connected(side_b):
                continue
            group_a = self.memo.group(mask_of(side_a))
            group_b = self.memo.group(mask_of(side_b))
            if group_a.best_plan is None or group_b.best_plan is None:
                continue
            self._offer_joins_bounded(group, group_a, group_b)
            self._offer_joins_bounded(group, group_b, group_a)

    def _all_partitions(self, members):
        rest = members[1:]
        first = members[0]
        partitions = []
        for mask in range(0, 1 << len(rest)):
            side_a = {first}
            side_b = set()
            for bit, member in enumerate(rest):
                if mask & (1 << bit):
                    side_a.add(member)
                else:
                    side_b.add(member)
            if side_b:
                partitions.append((frozenset(side_a), frozenset(side_b)))
        return partitions

    def _offer_pair(self, group, group_a, group_b):
        self._offer_joins_bounded(group, group_a, group_b)
        self._offer_joins_bounded(group, group_b, group_a)

    def _offer_joins_bounded(self, group, group_a, group_b):
        if self.enable_pruning and group.best_plan is not None and \
                self._pair_lower_bound(group, group_a, group_b) \
                >= group.best_cost:
            self.pruned_candidates += 1
            group.note_pruned()
            return
        self._offer_joins(group, group_a, group_b)

    def _pair_lower_bound(self, group, group_a, group_b):
        rows_a = group_a.rows
        rows_b = group_b.rows
        inputs = group_a.best_cost + group_b.best_cost
        bound = inputs + self.cost_model.hash_join_floor(
            rows_b, rows_a, group.rows)
        if len(_units(group_b.key)) == 1:
            unit_cost = self._local[next(iter(_units(group_b.key)))][1]
            bound = min(
                bound,
                inputs + rows_a * unit_cost,
                group_a.best_cost
                + self.cost_model.index_nljoin_floor(rows_a))
        return bound

    def _reference_access(self, index, entries_a, cross):
        """``ref_access``, memoised per search under the conjunct its
        ``_join_equalities`` picks for each index column."""
        unit = self.units[index]
        entry = unit.descriptor.entry
        conjuncts = unit.conjuncts + cross
        available = entries_a | self._corr_ids
        picks = _reference_equalities(entry, conjuncts, available)
        positions = indexed_positions(entry)
        key = (index, frozenset((position, id(conjunct))
                                for position, (conjunct, __) in picks.items()
                                if position in positions))
        memo = self._reference_memo
        if key in memo:
            self.access_memo_hits += 1
            return memo[key]
        memo[key] = ref_access(self.block, entry, conjuncts,
                               ids_mask(available),
                               self.estimator, self.cost_model)
        return memo[key]

    def _offer_joins(self, group, group_a, group_b, cross=None):
        key_a, key_b = _units(group_a.key), _units(group_b.key)
        out_rows = group.rows
        rows_a = group_a.rows
        rows_b = group_b.rows
        inputs = group_a.best_cost + group_b.best_cost
        plan_a = group_a.best_plan
        plan_b = group_b.best_plan
        cross = self._cross_conjuncts(key_a, key_b)
        entries_a = self._entries_of(key_a)
        entries_b = self._entries_of(key_b)

        if self._has_equi(cross, entries_a, entries_b) and \
                not self._prune_candidate(
                    group, inputs + self.cost_model.hash_join_floor(
                        rows_b, rows_a, out_rows)):
            cost = (inputs
                    + self.cost_model.hash_join_cost(rows_b, rows_a,
                                                     out_rows))
            join = PhysicalHashJoin(plan_a, plan_b, JoinVariant.INNER, cross)
            join.cost, join.rows = cost, out_rows
            group.offer(join, cost)

        if len(key_b) == 1:
            index = next(iter(key_b))
            unit = self.units[index]
            entry = unit.descriptor.entry
            if entry.kind is EntryKind.BASE and not self._prune_candidate(
                    group, group_a.best_cost
                    + self.cost_model.index_nljoin_floor(rows_a)):
                ref = self._reference_access(index, entries_a, cross)
                if ref is not None:
                    cost = (group_a.best_cost
                            + self.cost_model.index_nljoin_cost(
                                rows_a, ref.est_cost))
                    inner_get = PhysicalGet(unit.descriptor, ref,
                                            list(unit.conjuncts))
                    inner_get.cost = ref.est_cost
                    inner_get.rows = ref.est_rows
                    join = PhysicalNLJoin(plan_a, inner_get,
                                          JoinVariant.INNER, cross,
                                          index_inner=True)
                    join.cost, join.rows = cost, out_rows
                    group.offer(join, cost)
            __, unit_cost, __, __ = self._local[index]
            if not self._prune_candidate(group,
                                         inputs + rows_a * unit_cost):
                cost = (inputs
                        + self.cost_model.nljoin_rescan_cost(rows_a,
                                                             unit_cost))
                join = PhysicalNLJoin(plan_a, plan_b, JoinVariant.INNER,
                                      cross)
                join.cost, join.rows = cost, out_rows
                group.offer(join, cost)


# -- seeded join graphs ------------------------------------------------------------


#: (graph kind, units, features).  Features: ``hyperedge`` adds a
#: three-unit equality, ``non_equi`` a cross-unit ``<``, ``split`` drops
#: a tree edge (two components), ``correlated`` nests the join in a
#: scalar subquery with a conjunct reading the outer row, ``derived``
#: makes the last unit a DISTINCT derived table.
CASES = [
    ("chain", 2, ()),
    ("chain", 6, ("hyperedge",)),
    ("chain", 11, ("split",)),
    ("star", 3, ("non_equi",)),
    ("star", 9, ("derived",)),
    ("star", 11, ()),
    ("cycle", 4, ("correlated",)),
    ("cycle", 9, ("hyperedge", "non_equi")),
    ("cycle", 11, ()),
    ("clique", 3, ("derived",)),
    ("clique", 6, ("non_equi", "correlated")),
    ("clique", 9, ()),
    ("snowflake", 7, ("split", "hyperedge")),
    ("snowflake", 10, ("correlated", "derived")),
]


def _edges(kind, n):
    if kind == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    if kind == "clique":
        return list(itertools.combinations(range(n), 2))
    dims = max(1, (n + 1) // 3)
    return [(0, d) for d in range(1, dims + 1)] + \
        [(1 + k % dims, i) for k, i in enumerate(range(dims + 1, n))]


def _schema(name):
    return TableSchema(name, [
        Column.of("pk", MySQLType.LONG, nullable=False),
        Column.of("a", MySQLType.LONG, nullable=False),
        Column.of("b", MySQLType.LONG, nullable=False),
        Column.of("v", MySQLType.LONG, nullable=False),
    ], [Index("PRIMARY", ("pk",), primary=True),
        Index(f"{name}_a", ("a",))])


def _case_sql(number):
    kind, n, features = CASES[number]
    rng = random.Random(f"join-enumeration/{number}")
    names = [f"g{number}_{i}" for i in range(n)]
    sources = [f"{name} t{i}" for i, name in enumerate(names)]
    if "derived" in features:
        sources[-1] = (f"(SELECT DISTINCT x.pk, x.a, x.b, x.v "
                       f"FROM {names[-1]} x WHERE x.v < 90) t{n - 1}")
    edges = _edges(kind, n)
    if "split" in features:
        del edges[len(edges) // 2]
    conjuncts = [f"t{i}.a = t{j}.pk" for i, j in edges]
    conjuncts += [f"t{i}.v < {rng.randrange(30, 95)}" for i in range(n)
                  if rng.random() < 0.5]
    if "hyperedge" in features:
        conjuncts.append("t0.a + t1.b = t2.pk")
    if "non_equi" in features:
        conjuncts.append(f"t0.v < t{n - 1}.v")
    if "correlated" in features:
        conjuncts.append("t0.b + o.b = t1.a")
    sql = (f"SELECT COUNT(*) FROM {', '.join(sources)} "
           f"WHERE {' AND '.join(conjuncts)}")
    if "correlated" in features:
        sql = (f"SELECT COUNT(*) FROM g{number}_o o "
               f"WHERE o.v >= ({sql})")
    return sql


def _build_db():
    database = Database()
    for number, (__, n, features) in enumerate(CASES):
        rng = random.Random(f"join-enumeration-data/{number}")
        names = [f"g{number}_{i}" for i in range(n)]
        if "correlated" in features:
            names.append(f"g{number}_o")
        for name in names:
            database.create_table(_schema(name))
            size = rng.randrange(6, 60)
            database.load(name, [(pk, rng.randrange(40), rng.randrange(10),
                                  rng.randrange(100))
                                 for pk in range(size)])
    database.analyze()
    return database


@pytest.fixture(scope="module")
def db():
    return _build_db()


# -- the driver --------------------------------------------------------------------


def _blocks_bottom_up(block):
    for entry in block.entries:
        if entry.kind in (EntryKind.DERIVED, EntryKind.CTE) and \
                entry.sub_block is not None:
            yield from _blocks_bottom_up(entry.sub_block)
    for sub in subquery_blocks(block):
        yield from _blocks_bottom_up(sub)
    yield block


def _render(op, depth=0):
    if op is None:
        return ["-"]
    access = getattr(op, "access", None)
    detail = "" if access is None else \
        f" {access.method.value}:{access.index_name}:{access.est_cost!r}"
    conjuncts = getattr(op, "conjuncts", None) or []
    lines = ["  " * depth + f"{op.describe()} cost={op.cost!r} "
             f"rows={op.rows!r}{detail} {[repr(c) for c in conjuncts]}"]
    for child in op.children():
        lines.extend(_render(child, depth + 1))
    return lines


def _optimize(db, sql, search_class, mode, pruning=True,
              strategy="adaptive", budget=None):
    """Optimize every block of ``sql`` with ``search_class`` as the join
    search; returns what each block and each join search produced, and
    the searches themselves."""
    stmt = parse_statement(sql)
    block, __ = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    preprocess_block(block)
    accessor = MDAccessor(MySQLMetadataProvider(db.catalog))
    converter = ParseTreeConverter(accessor)
    estimator = SelectivityEstimator(accessor, use_histograms=True)
    config = OrcaConfig(search=mode, enable_cost_bound_pruning=pruning,
                        join_strategy=strategy)
    optimizer = OrcaOptimizer(estimator, config, budget=budget)
    searches = []

    def make_search(*args, **kwargs):
        searches.append(search_class(*args, **kwargs))
        return searches[-1]

    outcome = []
    estimates = SubEstimates()
    with mock.patch.object(orca_optimizer, "OrcaJoinSearch", make_search):
        try:
            for current in _blocks_bottom_up(block):
                before = optimizer.cost_model.evaluations
                plan = optimizer.optimize_block(
                    converter.convert_block(current), estimates)
                estimates.add(current.block_id, plan.rows, plan.cost)
                outcome.append((repr(plan.cost), plan.memo.stats(),
                                optimizer.cost_model.evaluations - before,
                                _render(plan.root)))
        except BudgetExceededError as exc:
            outcome.append(("raised", str(exc)))
    for search in searches:
        outcome.append((search.expansions, search.chains_costed,
                        search.pruned_candidates, search.access_memo_hits,
                        search.strategies, search.budget_degradations,
                        search.memo.stats()))
    return outcome, searches


def _both(db, number, mode, **kwargs):
    sql = _case_sql(number)
    new, __ = _optimize(db, sql, OrcaJoinSearch, mode, **kwargs)
    reference, __ = _optimize(db, sql, ReferenceJoinSearch, mode, **kwargs)
    return new, reference


# -- the differential tests --------------------------------------------------------


@pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "unpruned"])
@pytest.mark.parametrize("mode", [JoinSearchMode.EXHAUSTIVE,
                                  JoinSearchMode.EXHAUSTIVE2],
                         ids=lambda mode: mode.value)
@pytest.mark.parametrize("number", range(len(CASES)),
                         ids=[f"{k}{n}" for k, n, __ in CASES])
def test_dp_matches_the_frozenset_search(db, number, mode, pruning):
    new, reference = _both(db, number, mode, pruning=pruning)
    assert new == reference


@pytest.mark.parametrize("strategy", ["goo", "greedy"])
@pytest.mark.parametrize("number", [2, 5, 7, 11, 13],
                         ids=lambda number: "".join(
                             map(str, CASES[number][:2])))
def test_forced_strategies_match_the_frozenset_pair_offers(db, number,
                                                           strategy):
    new, reference = _both(db, number, JoinSearchMode.EXHAUSTIVE2,
                           strategy=strategy)
    assert new == reference


class _Ticks:
    """A clock that advances one second per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("number,mode,strategy,deadline", [
    # cycle11: only 100 of the DP's 2 036 candidate subsets are
    # connected, so the budget probe every 256 subsets is a fair share
    # of the checks before the deadline.
    (8, JoinSearchMode.EXHAUSTIVE2, "adaptive", 70.0),
    (8, JoinSearchMode.EXHAUSTIVE, "adaptive", 95.0),
    (5, JoinSearchMode.EXHAUSTIVE2, "adaptive", 600.0),
    (11, JoinSearchMode.EXHAUSTIVE2, "adaptive", 250.0),
    (6, JoinSearchMode.EXHAUSTIVE, "adaptive", 12.0),
    # snowflake10 under forced GOO reads the clock 15 times unbounded.
    (13, JoinSearchMode.EXHAUSTIVE2, "goo", 10.0),
])
def test_deadline_trips_at_the_same_check(db, number, mode, strategy,
                                          deadline):
    results = []
    for search_class in (OrcaJoinSearch, ReferenceJoinSearch):
        ticks = _Ticks()
        budget = CompileBudget(seconds=deadline, clock=ticks)
        outcome, searches = _optimize(db, _case_sql(number), search_class,
                                      mode, strategy=strategy,
                                      budget=budget)
        results.append((outcome, ticks.now, budget.degraded))
    assert results[0] == results[1]
    assert results[0][2], "the deadline never tripped"


@pytest.mark.parametrize("number,groups,degrades", [
    (5, 500, True), (11, 200, True), (8, 60, True), (13, 30, True),
    (11, 5, False),  # trips while seeding: no incumbent, so it raises
])
def test_memo_group_cap_trips_at_the_same_check(db, number, groups,
                                                degrades):
    results = []
    for search_class in (OrcaJoinSearch, ReferenceJoinSearch):
        budget = CompileBudget(max_memo_groups=groups)
        outcome, __ = _optimize(db, _case_sql(number), search_class,
                                JoinSearchMode.EXHAUSTIVE2, budget=budget)
        results.append((outcome, budget.degraded))
    assert results[0] == results[1]
    assert results[0][1] is degrades


def test_cases_cover_every_graph_feature(db):
    """The seeded graphs reach the join search with what they claim:
    a three-unit conjunct, a non-equi cross conjunct, two components, a
    correlated outer reference and a derived-table unit."""
    seen = set()
    for number in range(len(CASES)):
        __, searches = _optimize(db, _case_sql(number), OrcaJoinSearch,
                                 JoinSearchMode.EXHAUSTIVE2)
        for search in searches:
            masks = [mask for __, mask, __ in search._joins]
            if any(len(units_of(mask)) >= 3 for mask in masks):
                seen.add("hyperedge")
            if any(sides is None for __, __, sides in search._joins):
                seen.add("non_equi")
            if len(search._components()) >= 2:
                seen.add("split")
            corr = frozenset(mask_ids(search.corr))
            if corr and any(
                    referenced_entries(search.conjuncts[index]) & corr
                    for index, __, __ in search._joins):
                seen.add("correlated")
            if any(unit.descriptor.entry.kind is EntryKind.DERIVED
                   for unit in search.units):
                seen.add("derived")
    assert seen == {"hyperedge", "non_equi", "split", "correlated",
                    "derived"}


# -- the join-step access memo ----------------------------------------------------


def _signature(access):
    if access is None:
        return None
    return (access.method, access.index_name,
            [id(expr) for expr in access.key_exprs],
            [id(conjunct) for conjunct in access.consumed_conjuncts],
            access.est_rows, access.est_cost)


@pytest.mark.parametrize("mode", [JoinSearchMode.EXHAUSTIVE,
                                  JoinSearchMode.EXHAUSTIVE2],
                         ids=lambda mode: mode.value)
def test_every_memo_hit_is_a_fresh_ref_access(db, mode, monkeypatch):
    memoised = OrcaJoinSearch._join_access
    calls = []

    def checked(search, index, outer, conjuncts):
        hits = search.access_memo_hits
        access = memoised(search, index, outer, conjuncts)
        unit = search.units[index]
        fresh = ref_access(search.block, unit.descriptor.entry,
                           unit.conjuncts + conjuncts,
                           search._bound_entries(outer), search.estimator,
                           search.cost_model)
        calls.append((search.access_memo_hits > hits,
                      _signature(access) == _signature(fresh)))
        return access

    monkeypatch.setattr(OrcaJoinSearch, "_join_access", checked)
    for number in range(len(CASES)):
        for pruning in (True, False):
            _optimize(db, _case_sql(number), OrcaJoinSearch, mode,
                      pruning=pruning)
    assert all(same for __, same in calls)
    hits = sum(hit for hit, __ in calls)
    assert 0 < hits < len(calls)


def test_the_memo_does_not_outlive_its_search():
    """ANALYZE between two compiles changes the inner's lookup estimate:
    the second search asks ``ref_access`` afresh instead of reusing the
    first search's answer."""
    database = Database()
    for name in ("m_outer", "m_inner"):
        database.create_table(_schema(name))
    database.load("m_outer", [(pk, pk % 40, pk % 10, pk)
                              for pk in range(200)])
    database.load("m_inner", [(pk, pk % 40, pk % 10, pk)
                              for pk in range(400)])
    database.analyze()
    sql = ("SELECT COUNT(*) FROM m_outer o, m_inner i "
           "WHERE o.b = i.a AND o.v < 5")

    def lookups():
        __, searches = _optimize(database, sql, OrcaJoinSearch,
                                 JoinSearchMode.EXHAUSTIVE2)
        (search,) = searches
        return {key: access.est_rows
                for key, access in search._join_access_memo.items()
                if access is not None and access.index_name == "m_inner_a"}

    before = lookups()
    assert before
    database.load("m_inner", [(pk, 7, 0, 0) for pk in range(400, 4000)])
    database.storage.analyze_table("m_inner")
    after = lookups()
    assert after.keys() == before.keys()
    assert all(after[key] > before[key] for key in before)
