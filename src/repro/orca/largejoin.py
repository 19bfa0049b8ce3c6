"""Large-join search strategies: IKKBZ, GOO, and linearized DP.

The DP searches in :mod:`repro.orca.joinorder` are exact but
exponential: beyond ``DP_LIMIT`` relations the old code silently fell
back to a left-deep greedy chain plus insertion polish — precisely the
regime (15-, 30-, 50-way joins) where plan quality matters most.  This
module adds the three classic polynomial strategies from the
large-join-ordering literature, all running over the *same* join graph,
memo, and Orca cost model as the DP:

* **IKKBZ** (:func:`ikkbz_order`) — precedence-graph linearization.
  A minimum-selectivity spanning tree of the join graph is rooted and
  linearized with the ASI rank function (``rank = (T - 1) / C``),
  merging child chains by rank and normalizing rank inversions by
  contracting parent/child modules.  O(n² log n); produces a *linear
  order*, not a plan.
* **GOO** (:func:`goo_search`) — greedy operator ordering.  A forest of
  singleton relations is repeatedly contracted by merging the connected
  pair with the smallest estimated join cardinality; every merge offers
  real join alternatives (hash / index-NL / NL-rescan) into the memo, so
  the result is a costed, possibly *bushy* tree.  O(n³) in pair
  scans, O(n) in costed joins.
* **Linearized DP** (:func:`lindp_search`) — dynamic programming
  restricted to intervals of the IKKBZ order (the lindp idea from
  "Adaptive Optimization of Very Large Join Queries").  Only the
  O(n²) contiguous subsequences are considered, each split at O(n)
  points — O(n³) join offers total instead of the exponential subset
  lattice, while still producing bushy trees *within* the linear order.

The :func:`select_strategy` lattice picks one per joined component —
``dp → lindp → goo → greedy`` — by component relation count and by the
*remaining* :class:`repro.resilience.CompileBudget` wall-clock (already
capped to the statement deadline via ``governor.cap_compile_budget``),
downgrading whenever the budget left cannot plausibly pay for the
stronger strategy.

Every strategy seeds a complete incumbent plan into the final memo
group *before* its main loop, so a mid-search budget exhaustion can
degrade to the best incumbent instead of raising into the MySQL
fallback (see ``OrcaJoinSearch._search_component``).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.errors import OrcaError
from repro.orca.memo import lowest_unit, units_of
from repro.orca.operators import PhysicalOp


class JoinStrategy(enum.Enum):
    """One component's join-order search strategy (the selector lattice,
    strongest first)."""

    DP = "dp"
    LINDP = "lindp"
    GOO = "goo"
    GREEDY = "greedy"


#: Valid values for ``OrcaConfig.join_strategy``.
STRATEGY_POLICIES = ("adaptive",) + tuple(s.value for s in JoinStrategy)

#: Component size above which linearized DP replaces GOO-seeded full DP
#: (the old hard ``DP_LIMIT`` cliff).  The selector reads both
#: thresholds at call time, so a test or an experiment patches the
#: module constant to move a rung.
DEFAULT_LINDP_THRESHOLD = 12
#: Component size above which GOO replaces linearized DP.
DEFAULT_GOO_THRESHOLD = 25

#: Downgrade lattice: the next-cheaper strategy when the remaining
#: budget cannot pay for the selected one.
_DOWNGRADE = {
    JoinStrategy.DP: JoinStrategy.LINDP,
    JoinStrategy.LINDP: JoinStrategy.GOO,
    JoinStrategy.GOO: JoinStrategy.GREEDY,
}

#: Budget-floor coefficients (seconds).  Deliberately coarse: they only
#: need to be monotone in n and ordered DP >> LINDP > GOO so the
#: downgrade lattice engages in the right sequence; an exhaustion that
#: slips through anyway is caught by incumbent degradation.
_DP_FLOOR_BASE = 0.01
_DP_FLOOR_GROWTH = 3.0
_DP_FLOOR_FREE_UNITS = 6
_DP_FLOOR_CAP = 30.0
_LINDP_FLOOR_PER_UNIT2 = 2e-4
_GOO_FLOOR_PER_UNIT2 = 5e-5


def budget_floor(strategy: JoinStrategy, n: int) -> float:
    """Seconds a strategy plausibly needs for an ``n``-way component.

    Full bushy DP grows ~3^n (the subset/partition lattice); LINDP and
    GOO are quadratic-ish in the work that dominates them here.  These
    are selection heuristics, not guarantees — the incumbent-degradation
    path backstops underestimates.
    """
    if strategy is JoinStrategy.DP:
        return min(_DP_FLOOR_CAP, _DP_FLOOR_BASE * _DP_FLOOR_GROWTH
                   ** max(0, n - _DP_FLOOR_FREE_UNITS))
    if strategy is JoinStrategy.LINDP:
        return _LINDP_FLOOR_PER_UNIT2 * n * n
    if strategy is JoinStrategy.GOO:
        return _GOO_FLOOR_PER_UNIT2 * n * n
    return 0.0


def select_strategy(n: int, greedy_mode: bool, policy: str,
                    remaining_seconds: Optional[float]) -> JoinStrategy:
    """Pick the search strategy for one ``n``-relation component.

    ``greedy_mode`` reflects ``JoinSearchMode.GREEDY`` (the paper's
    cheapest setting and the left-deep ablation) and wins outright.  A
    non-``adaptive`` ``policy`` (``OrcaConfig.join_strategy``) forces
    that strategy.  Otherwise the component size picks a rung — DP up
    to ``DEFAULT_LINDP_THRESHOLD``, LINDP up to
    ``DEFAULT_GOO_THRESHOLD``, GOO beyond — and the remaining compile
    budget (``None`` = unlimited) downgrades rung by rung while it
    cannot pay the strategy's estimated floor.
    """
    if greedy_mode:
        return JoinStrategy.GREEDY
    if policy != "adaptive":
        return JoinStrategy(policy)
    if n <= DEFAULT_LINDP_THRESHOLD:
        strategy = JoinStrategy.DP
    elif n <= DEFAULT_GOO_THRESHOLD:
        strategy = JoinStrategy.LINDP
    else:
        strategy = JoinStrategy.GOO
    if remaining_seconds is not None:
        while strategy is not JoinStrategy.GREEDY and \
                remaining_seconds < budget_floor(strategy, n):
            strategy = _DOWNGRADE[strategy]
    return strategy


# -- IKKBZ precedence-graph linearization ------------------------------------------


class _Module:
    """A contracted run of relations in an IKKBZ chain.

    ``t`` is the module's multiplicative cardinality effect (the product
    of ``selectivity * rows`` of its members), ``c`` its additive cost
    contribution under the ASI cost function ``C_out``.
    """

    __slots__ = ("units", "t", "c")

    def __init__(self, units: List[int], t: float, c: float) -> None:
        self.units = units
        self.t = t
        self.c = c

    @property
    def rank(self) -> float:
        return (self.t - 1.0) / self.c if self.c > 0 else 0.0


def _combine(first: _Module, second: _Module) -> _Module:
    """Contract two precedence-adjacent modules (ASI combine rule)."""
    return _Module(first.units + second.units,
                   first.t * second.t,
                   first.c + first.t * second.c)


def _merge_chains(chains: List[List[_Module]]) -> List[_Module]:
    """K-way merge of rank-sorted chains into one rank-sorted sequence.

    Intra-chain order is a precedence constraint and is preserved; ties
    break on the smallest leading unit index for determinism.
    """
    merged: List[_Module] = []
    heads = [chain for chain in chains if chain]
    while heads:
        best = min(heads, key=lambda chain: (chain[0].rank,
                                             chain[0].units[0]))
        merged.append(best.pop(0))
        heads = [chain for chain in heads if chain]
    return merged


def ikkbz_order(search, component: int) -> List[int]:
    """IKKBZ linearization of one connected component.

    Builds the minimum-selectivity spanning tree of the component's
    join graph (pairs with no join conjunct default to selectivity 1.0,
    so cross products sink to the end), then linearizes the tree from
    several candidate roots with the classic rank/normalize algorithm
    and keeps the order whose ``C_out`` chain cost is smallest.
    """
    members = units_of(component)
    if len(members) <= 2:
        return members
    rows = {index: max(1e-6, search._local[index][2]) for index in members}
    pair_sel = search.pair_selectivities(component)

    def sel(a: int, b: int) -> float:
        return pair_sel.get((a, b) if a < b else (b, a), 1.0)

    # Prim's MST, edge weight = join selectivity (ties: lower index).
    # Missing edges weigh 1.0, which also stitches disconnected pieces.
    start = min(members, key=lambda index: (rows[index], index))
    in_tree = {start}
    parent: Dict[int, int] = {}
    tree_sel: Dict[int, float] = {}
    while len(in_tree) < len(members):
        best: Optional[Tuple[float, int, int]] = None
        for node in members:
            if node in in_tree:
                continue
            for anchor in in_tree:
                weight = sel(node, anchor)
                key = (weight, node, anchor)
                if best is None or key < best:
                    best = key
        weight, node, anchor = best
        in_tree.add(node)
        parent[node] = anchor
        tree_sel[node] = weight
    children: Dict[int, List[int]] = {index: [] for index in members}
    for node, anchor in parent.items():
        children[anchor].append(node)

    def linearize(root: int) -> List[int]:
        # Re-root the MST at ``root`` (BFS), then linearize bottom-up.
        kids: Dict[int, List[int]] = {index: [] for index in members}
        edge_sel: Dict[int, float] = {}
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for other in children[node] + ([parent[node]]
                                           if node in parent else []):
                if other not in seen:
                    seen.add(other)
                    kids[node].append(other)
                    edge_sel[other] = sel(node, other)
                    frontier.append(other)
        for node in kids:
            kids[node].sort()

        def chain_of(node: int) -> List[_Module]:
            merged = _merge_chains([chain_of(kid) for kid in kids[node]])
            t = max(1e-9, edge_sel[node] * rows[node])
            head = _Module([node], t, t)
            # Normalize: a successor outranked by its precedence
            # predecessor is contracted into it (the ASI normalization
            # step that makes the chain rank-sorted again).
            while merged and merged[0].rank < head.rank:
                head = _combine(head, merged.pop(0))
            return [head] + merged

        sequence = _merge_chains([chain_of(kid) for kid in kids[root]])
        return [root] + [unit for module in sequence
                         for unit in module.units]

    def chain_cost(order: List[int]) -> float:
        # Exact C_out over the order, applying *every* selectivity
        # between the newcomer and the placed prefix (richer than the
        # tree-only ASI score, and what LINDP will actually optimize).
        size = rows[order[0]]
        cost = 0.0
        for position in range(1, len(order)):
            unit = order[position]
            factor = rows[unit]
            for placed in order[:position]:
                factor *= sel(unit, placed)
            size *= factor
            cost += size
        return cost

    if len(members) <= 16:
        roots = members
    else:
        roots = sorted(members,
                       key=lambda index: (rows[index], index))[:16]
    best_order: Optional[List[int]] = None
    best_cost = float("inf")
    for root in roots:
        order = linearize(root)
        cost = chain_cost(order)
        if cost < best_cost:
            best_cost = cost
            best_order = order
    return best_order


# -- GOO: greedy operator ordering --------------------------------------------------


def goo_search(search, component: int
               ) -> Tuple[PhysicalOp, float, float]:
    """Greedy operator ordering over one connected component.

    Maintains a forest of costed subplans (memo groups) and repeatedly
    merges the pair with the smallest estimated join cardinality,
    preferring pairs actually connected by a join conjunct.  Pair
    cardinalities come from a per-pair selectivity matrix updated by
    ``S[A∪B][C] = S[A][C] * S[B][C]`` on merge (conjuncts spanning more
    than two relations are settled exactly by ``subset_rows`` at merge
    time — the matrix only steers *pair selection*).  Every merge offers
    real costed alternatives into the memo, so the final group holds a
    valid bushy plan — and every intermediate group holds an upper
    bound the DP's branch-and-bound pruning can reuse.
    """
    # A left-deep chain seeds the final group first, so budget
    # exhaustion anywhere in the merge loop still degrades to a
    # complete incumbent (with_incumbents=False: GOO *is* the
    # incumbent builder — no recursion).
    search._seed_bounds(component, with_incumbents=False)
    # The forest's trees are unit masks; ``rows`` and ``reach`` (the
    # units adjacent to a tree) are kept per tree.
    forest: List[int] = []
    rows: Dict[int, float] = {}
    reach: Dict[int, int] = {}
    neighbors = search.unit_neighbors()
    for index in units_of(component):
        key = 1 << index
        group = search.ensure_singleton(index)
        forest.append(key)
        rows[key] = group.rows
        reach[key] = neighbors[index]
    pair_sel = search.pair_selectivities(component)
    sel: Dict[Tuple[int, int], float] = {}
    for i, left in enumerate(forest):
        for right in forest[i + 1:]:
            value = pair_sel.get((lowest_unit(left), lowest_unit(right)),
                                 1.0)
            if value != 1.0:
                sel[(left, right)] = value

    def sel_of(a: int, b: int) -> float:
        return sel.get((a, b), sel.get((b, a), 1.0))

    while len(forest) > 1:
        search._check_budget()
        best_key = None
        best_pair: Optional[Tuple[int, int]] = None
        for i, left in enumerate(forest):
            for right in forest[i + 1:]:
                estimate = rows[left] * rows[right] * sel_of(left, right)
                key = (0 if reach[left] & right else 1,
                       estimate, lowest_unit(left), lowest_unit(right))
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (left, right)
        left, right = best_pair
        union = left | right
        group = search.join_groups(union, left, right)
        forest = [entry for entry in forest
                  if entry != left and entry != right]
        for other in forest:
            product = sel_of(left, other) * sel_of(right, other)
            if product != 1.0:
                sel[(union, other)] = product
        forest.append(union)
        rows[union] = group.rows
        reach[union] = reach[left] | reach[right]
    final = search.memo.group(forest[0])
    if final.best_plan is None:  # pragma: no cover — defensive
        raise OrcaError("GOO produced no plan")
    return final.best_plan, final.best_cost, final.rows


# -- linearized DP ------------------------------------------------------------------


def lindp_search(search, component: int
                 ) -> Tuple[PhysicalOp, float, float]:
    """DP over intervals of the IKKBZ order (possibly-bushy trees).

    The IKKBZ chain itself is costed first, which both provides the
    budget-degradation incumbent for the final group and seeds every
    prefix group with an upper bound for branch-and-bound pruning.
    Then each of the O(n²) contiguous intervals is built from its O(n)
    split points; a split whose one side is a singleton always has an
    NL-rescan candidate, so every interval — connected or not — ends up
    with a plan.
    """
    order = ikkbz_order(search, component)
    search._cost_chain(order)
    total = len(order)
    # prefix[k] masks the first k units of the order; the interval
    # [start, end) is prefix[end] ^ prefix[start].
    prefix = [0]
    for index in order:
        prefix.append(prefix[-1] | 1 << index)
    for length in range(2, total + 1):
        for start in range(0, total - length + 1):
            search._check_budget()
            search.expansions += 1
            end = start + length
            subset = prefix[end] ^ prefix[start]
            group = search.memo.group(subset)
            group.rows = search.subset_rows(subset)
            for split in range(start + 1, end):
                group_a = search.memo.group(prefix[split] ^ prefix[start])
                group_b = search.memo.group(prefix[end] ^ prefix[split])
                if group_a.best_plan is None or group_b.best_plan is None:
                    continue
                search._offer_pair(group, group_a, group_b)
    final = search.memo.group(component)
    if final.best_plan is None:  # pragma: no cover — defensive
        raise OrcaError("linearized DP produced no plan")
    return final.best_plan, final.best_cost, final.rows
