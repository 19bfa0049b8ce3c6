"""The memo: groups of equivalent expressions with their best plans.

A faithful-in-spirit Cascades memo (Section 8 traces the lineage to
Volcano/Cascades): each group represents the set of plans producing the
same logical result — here keyed by the set of join units covered, as
an integer bitmask (bit ``i`` set = join unit ``i`` covered) — and
records the cheapest physical expression found for it.  Group ids appear
in physical operators, which is how the paper's Fig. 6 annotates Orca's
Q17 plan ("the numbers after the physical operator names are the 'memo'
group IDs").

The join-order searches populate the memo; `stats` caches per-group
cardinalities so exploration work is shared across alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.orca.operators import PhysicalOp


def units_of(mask: int) -> List[int]:
    """The units a mask covers, ascending."""
    units = []
    while mask:
        low = mask & -mask
        units.append(low.bit_length() - 1)
        mask ^= low
    return units


def lowest_unit(mask: int) -> int:
    """The smallest unit a (non-empty) mask covers."""
    return (mask & -mask).bit_length() - 1


@dataclass
class Group:
    """One memo group: the plans covering a fixed set of join units."""

    group_id: int
    #: Unit mask of the join units this group covers.
    key: int
    best_cost: float = float("inf")
    best_plan: Optional[PhysicalOp] = None
    rows: float = 0.0
    #: How many alternative expressions were *costed* for this group — a
    #: measure of exploration effort (used by compile-time accounting).
    #: Re-offers of already-costed plans (``costed=False``) don't count
    #: here, so compile-budget accounting isn't double-counted.
    alternatives: int = 0
    #: Every ``offer()`` call, including re-offers of known plans.
    offered: int = 0
    #: Candidates the search skipped because their cost lower bound
    #: already exceeded this group's best complete plan (branch-and-bound
    #: pruning); they were never costed or offered.
    pruned: int = 0

    def offer(self, plan: PhysicalOp, cost: float,
              costed: bool = True) -> bool:
        """Record a candidate plan; keep it if it is the cheapest so far.

        ``costed=False`` marks a re-offer of a plan whose cost the caller
        already knew (seed plans, chain re-walks): it still competes for
        ``best_plan`` but doesn't inflate the ``alternatives`` effort
        counter.
        """
        self.offered += 1
        if costed:
            self.alternatives += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_plan = plan
            plan.group_id = self.group_id
            return True
        return False

    def note_pruned(self, count: int = 1) -> None:
        """Record candidates skipped by cost-bound pruning."""
        self.pruned += count


class Memo:
    """Group registry keyed by covered-unit masks."""

    def __init__(self) -> None:
        self._groups: Dict[int, Group] = {}
        self._next_id = 0

    def group(self, key: int) -> Group:
        existing = self._groups.get(key)
        if existing is not None:
            return existing
        group = Group(self._next_id, key)
        self._next_id += 1
        self._groups[key] = group
        return group

    def has_group(self, key: int) -> bool:
        return key in self._groups

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def total_alternatives(self) -> int:
        return sum(group.alternatives for group in self._groups.values())

    @property
    def total_offered(self) -> int:
        return sum(group.offered for group in self._groups.values())

    @property
    def total_pruned(self) -> int:
        return sum(group.pruned for group in self._groups.values())

    def stats(self) -> dict:
        """Search-effort summary for the observability layer."""
        return {
            "groups": self.group_count,
            "alternatives": self.total_alternatives,
            "offered": self.total_offered,
            "pruned": self.total_pruned,
        }
