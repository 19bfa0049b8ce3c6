"""The statement plan cache: skip re-optimization of repeated statements.

"Query Optimization in the Wild" names plan caching as one of the two
levers industrial optimizers actually pull (the other — search-space
pruning — lives in :mod:`repro.orca.joinorder`).  This module implements
the first: an LRU cache mapping a statement's text to the refined
executable plan the optimizer produced for it, so a repeated statement
skips parse-tree conversion, the memo search, and plan conversion
entirely and goes straight to execution.

Keying and correctness
----------------------

The cache key is a digest of the statement text with whitespace and
letter case normalised but **literals preserved** —
:func:`statement_cache_key`.  This is deliberately different from
:func:`repro.resilience.statement_fingerprint`, which normalises
literals away: the circuit breaker quarantines a statement *shape*,
but a cached plan has the literals compiled into its predicates, so
``WHERE o_totalprice > 100`` and ``WHERE o_totalprice > 250`` must
never share an entry.  The requested optimizer (``auto`` / ``mysql`` /
``orca``) is part of the key too, since it changes routing and thus the
plan.

Every entry records what its plan was compiled from: the catalog epoch
(:meth:`repro.catalog.catalog.Catalog.epoch`) of each base table the
resolver bound, in any block of the statement — subqueries, derived
tables and CTEs included.  Both optimizers read schemas and statistics
and never storage, so those epochs are the plan's whole input: CREATE,
DROP and ANALYZE of a *referenced* table change one and the next lookup
drops the entry (an *invalidation*); row-level DML, bulk loads, and DDL
or ANALYZE on any other table leave it valid.  A cached plan names its
tables and reads current storage on every execution, so it returns
fresh rows after any write; that its estimates drift from the data is
what the staleness report and the advisor's re-ANALYZE are for, and
that re-ANALYZE is what invalidates.

Failed detours are never cached: the Database facade only stores a plan
when compilation finished without a fallback, so circuit-broken
fingerprints, budget overruns, and contained crashes always re-enter
the normal (guarded) compilation path.

The store is also *deferred past execution*: the facade inserts an
entry only after the statement ran to completion.  A statement aborted
by the execution governor (deadline, cancellation, memory breach) or by
a runtime error therefore never enters the cache — an abort must leave
the Database exactly as if the statement never ran — and the degraded
plan of a reduced-memory streaming retry is likewise never cached
(the forced shape is a one-off degradation, not the optimizer's
choice).

Observability
-------------

The cache keeps its own ``hits`` / ``misses`` / ``evictions`` /
``invalidations`` counters (:meth:`PlanCache.stats`) and mirrors them
into a :class:`repro.observability.MetricsRegistry` when one is
attached (``plan_cache.hits`` and friends), so ``metrics_report()``
answers cache effectiveness alongside detour rate and mdcache ratio.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

#: Default number of cached statements; each entry holds one executor
#: tree, so a few hundred is plenty for a benchmark-sized workload.
DEFAULT_CAPACITY = 128

_WHITESPACE = re.compile(r"\s+")


def statement_cache_key(sql: str, optimizer: str = "auto") -> str:
    """Digest of the statement text with literals preserved.

    Whitespace runs collapse and the text is lower-cased so trivially
    reformatted statements share an entry, but literals stay (see the
    module docstring for why this must differ from the resilience
    fingerprint).
    """
    text = _WHITESPACE.sub(" ", sql).strip().lower()
    return hashlib.sha1(
        f"{optimizer}\x00{text}".encode("utf-8")).hexdigest()[:16]


@dataclass
class PlanCacheEntry:
    """One cached statement plan."""

    #: The refined executable plan — re-executable as-is (each execution
    #: creates a fresh runtime and re-reads current storage).
    executor: object
    #: The optimizer skeleton the executor was refined from, kept so
    #: diagnostics can re-render or re-refine without a full recompile.
    skeleton: object
    #: Which optimizer produced the plan ("orca" or "mysql").
    optimizer_used: str
    #: Catalog epoch, at compile time, of every base table the statement
    #: references; a lookup that finds any of them changed (or the table
    #: gone) invalidates the entry.
    table_epochs: Dict[str, int]
    #: The resilience fingerprint of the statement (literal-normalised),
    #: kept so reports can correlate cache entries with fallback history.
    fingerprint: Optional[str] = None
    #: How many times this entry has been served.
    hits: int = 0


class PlanCache:
    """An LRU statement plan cache validated by per-table epochs."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metrics=None) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._entries: "OrderedDict[str, PlanCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- counters ---------------------------------------------------------------

    def _count(self, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        if self.metrics is not None:
            self.metrics.inc(f"plan_cache.{event}")

    # -- cache protocol ---------------------------------------------------------

    def lookup(self, key: str, catalog) -> Optional[PlanCacheEntry]:
        """The entry for ``key``, or None on a miss.

        An entry whose tables' epochs in ``catalog`` are no longer the
        ones it recorded is dropped (counted as an invalidation *and* a
        miss — the statement will recompile and re-store).
        """
        entry = self._entries.get(key)
        if entry is not None and any(
                catalog.epoch(table) != epoch
                for table, epoch in entry.table_epochs.items()):
            del self._entries[key]
            self._count("invalidations")
            entry = None
        if entry is None:
            self._count("misses")
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self._count("hits")
        return entry

    def store(self, key: str, entry: PlanCacheEntry) -> None:
        """Insert (or replace) an entry, evicting the LRU tail if full."""
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._count("evictions")

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry whose resilience fingerprint matches.

        A fingerprint covers every literal variant of a statement shape,
        so when the workload advisor confirms a plan regression for a
        shape it must purge all of that shape's cached plans, not just
        the one cache key that happened to trip the detector.
        """
        keys = [key for key, entry in self._entries.items()
                if entry.fingerprint == fingerprint]
        for key in keys:
            del self._entries[key]
            self._count("invalidations")
        return len(keys)

    def invalidate_all(self) -> int:
        """Drop every entry (counted as invalidations); returns how many."""
        dropped = len(self._entries)
        for __ in range(dropped):
            self._entries.popitem(last=False)
            self._count("invalidations")
        return dropped

    # -- introspection ----------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus current size and capacity."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_ratio": self.hit_ratio,
        }
