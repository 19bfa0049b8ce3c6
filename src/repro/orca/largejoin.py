"""Large-join search strategies: GOO and the selector lattice.

The DP searches in :mod:`repro.orca.joinorder` are exact but
exponential.  Past ``DP_MAX_UNITS`` relations — the 15-, 30-, 50-way
joins where plan quality matters most — a component goes to greedy
operator ordering, a polynomial strategy from the large-join-ordering
literature that runs over the *same* join graph, memo, and Orca cost
model as the DP:

* **GOO** (:func:`goo_search`) — greedy operator ordering.  A forest of
  singleton relations is repeatedly contracted by merging the connected
  pair with the smallest estimated join cardinality; every merge offers
  real join alternatives (hash / index-NL / NL-rescan) into the memo, so
  the result is a costed, possibly *bushy* tree.  O(n³) in pair
  scans, O(n) in costed joins.

The :func:`select_strategy` lattice picks one per joined component —
``dp → goo → greedy`` — by component relation count and by the
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
    GOO = "goo"
    GREEDY = "greedy"


#: Valid values for ``OrcaConfig.join_strategy``.
STRATEGY_POLICIES = ("adaptive",) + tuple(s.value for s in JoinStrategy)

#: The widest component full DP searches; GOO takes every wider one.
#: The selector reads it at call time, so a test or an experiment
#: patches the module constant to move the rung.
DP_MAX_UNITS = 12

#: Downgrade lattice: the next-cheaper strategy when the remaining
#: budget cannot pay for the selected one.
_DOWNGRADE = {
    JoinStrategy.DP: JoinStrategy.GOO,
    JoinStrategy.GOO: JoinStrategy.GREEDY,
}

#: Budget-floor coefficients (seconds).  Deliberately coarse: they only
#: need to be monotone in n and ordered DP >> GOO so the downgrade
#: lattice engages in the right sequence; an exhaustion that slips
#: through anyway is caught by incumbent degradation.
_DP_FLOOR_BASE = 0.01
_DP_FLOOR_GROWTH = 3.0
_DP_FLOOR_FREE_UNITS = 6
_DP_FLOOR_CAP = 30.0
_GOO_FLOOR_PER_UNIT2 = 5e-5


def budget_floor(strategy: JoinStrategy, n: int) -> float:
    """Seconds a strategy plausibly needs for an ``n``-way component.

    Full bushy DP grows ~3^n (the subset/partition lattice); GOO is
    quadratic-ish in the work that dominates it here.  These are
    selection heuristics, not guarantees — the incumbent-degradation
    path backstops underestimates.
    """
    if strategy is JoinStrategy.DP:
        return min(_DP_FLOOR_CAP, _DP_FLOOR_BASE * _DP_FLOOR_GROWTH
                   ** max(0, n - _DP_FLOOR_FREE_UNITS))
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
    to ``DP_MAX_UNITS``, GOO beyond — and the remaining compile budget
    (``None`` = unlimited) downgrades rung by rung while it cannot pay
    the strategy's estimated floor.
    """
    if greedy_mode:
        return JoinStrategy.GREEDY
    if policy != "adaptive":
        return JoinStrategy(policy)
    strategy = JoinStrategy.DP if n <= DP_MAX_UNITS else JoinStrategy.GOO
    if remaining_seconds is not None:
        while strategy is not JoinStrategy.GREEDY and \
                remaining_seconds < budget_floor(strategy, n):
            strategy = _DOWNGRADE[strategy]
    return strategy


# -- GOO: greedy operator ordering --------------------------------------------------


def goo_search(search, component: int, seeded: bool = False
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
    # incumbent builder — no recursion).  ``seeded``: the caller (DP's
    # own seeding) has just costed that very chain into the memo.
    if not seeded:
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
