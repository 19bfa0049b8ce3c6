"""Orca's metadata cache: the per-statement MD accessor and the shared
cache behind it.

"Orca maintains an internal metadata cache ... and if the required
information pre-exists there, the metadata provider is not queried again"
(Section 5.7).  The accessor is the only way the Orca side ever sees MySQL
metadata: each answer arrives as a DXL document from the provider and is
parsed and memoised here.  It also serves as the statistics source for
Orca's selectivity estimation (it exposes the ``statistics(name)`` /
``table(name)`` protocol the estimator expects), so every cardinality
Orca computes has round-tripped through DXL.

Two levels:

* :class:`MDAccessor` lives for one detour.  It owns the statement's
  provider, so OID assignment, synthetic OIDs and the
  ``metadata_provider`` fault-injection site stay per statement; its
  maps are plain dicts (one statement touches a bounded set of tables).
* :class:`MDCache` lives as long as its ``Database`` and holds what the
  DXL round trips produced — the parsed ``TableSchema`` and
  ``TableStatistics`` of each table, and parsed type entries — so the
  round trip is paid once per table epoch instead of once per
  statement.  An accessor consults it on a local miss and publishes
  the entries it fetched only when its detour succeeded, so an aborted
  detour leaves the shared cache exactly as it was.

Validity comes from the catalog: a table slot records the table's
``Catalog.epoch`` at fetch time and serves a lookup only while the epoch
still matches.  Epochs move on CREATE and ANALYZE only, never on DML,
and never repeat, so a re-created table cannot hit its predecessor's
slot.  Size is bounded by construction: one slot per (kind, table),
replaced when the epoch moves, evicted by DROP; type entries are bounded
by the ``MySQLType`` enum.

Observability: every hit and miss is counted per request kind
(:meth:`MDAccessor.stats`), mirrored into a
:class:`repro.observability.MetricsRegistry` (``mdcache.hits`` /
``mdcache.misses``) when one is attached, and each provider round-trip
is traced as a ``metadata_lookup`` span.  A shared-cache hit is a hit,
so ``mdcache.misses`` counts real provider round trips.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.bridge import dxl
from repro.bridge.metadata_provider import MySQLMetadataProvider
from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.observability import NOOP_TRACER

#: The per-table entry kinds the shared cache holds.
TABLE_KINDS = ("relation", "statistics")

#: ``(kind, table key) -> (epoch, parsed entry)``.
TableSlots = Dict[Tuple[str, str], Tuple[int, object]]


def _table_key(name: str) -> str:
    # The provider accepts schema-qualified names ('tpch.lineitem').
    return name.rsplit(".", 1)[-1].lower()


class MDCache:
    """One database's parsed metadata, shared by every Orca detour."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._tables: TableSlots = {}
        self._types: Dict[int, dict] = {}
        catalog.drop_listeners.append(self.evict)

    def lookup(self, kind: str, name: str) -> Tuple[int, Optional[object]]:
        """``(the table's current epoch, its entry or None)``; a slot
        fetched under another epoch is no answer."""
        key = _table_key(name)
        epoch = self.catalog.epoch(key)
        slot = self._tables.get((kind, key))
        if slot is not None and slot[0] == epoch:
            return epoch, slot[1]
        return epoch, None

    def type_info(self, type_oid: int) -> Optional[dict]:
        return self._types.get(type_oid)

    def publish(self, tables: TableSlots, types: Dict[int, dict]) -> None:
        """Install a successful detour's fetched entries, each replacing
        its table's slot.  An entry whose table moved epoch (or was
        dropped) since it was fetched is discarded."""
        for (kind, key), slot in tables.items():
            if slot[0] == self.catalog.epoch(key):
                self._tables[(kind, key)] = slot
        self._types.update(types)

    def evict(self, name: str) -> None:
        """Forget a table (the catalog calls this on DROP)."""
        key = _table_key(name)
        for kind in TABLE_KINDS:
            self._tables.pop((kind, key), None)

    def slots(self) -> Dict[Tuple[str, str], int]:
        """``(kind, table key) -> epoch`` of every table slot held."""
        return {key: slot[0] for key, slot in self._tables.items()}


class MDAccessor:
    """Caching facade over one statement's metadata provider."""

    def __init__(self, provider: MySQLMetadataProvider,
                 tracer=NOOP_TRACER, metrics=None,
                 shared: Optional[MDCache] = None) -> None:
        self.provider = provider
        self.tracer = tracer
        self.metrics = metrics
        self.shared = shared
        self.cache_hits = 0
        self.cache_misses = 0
        self._hits_by_kind: Dict[str, int] = {}
        self._misses_by_kind: Dict[str, int] = {}
        self._relations: Dict[int, TableSchema] = {}
        self._statistics: Dict[int, TableStatistics] = {}
        self._types: Dict[int, dict] = {}
        self._oid_by_name: Dict[str, int] = {}
        #: Provider answers this statement fetched, for :meth:`publish`.
        self._fetched_tables: TableSlots = {}
        self._fetched_types: Dict[int, dict] = {}

    # -- hit/miss accounting --------------------------------------------------------

    def _hit(self, kind: str) -> None:
        self.cache_hits += 1
        self._hits_by_kind[kind] = self._hits_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.hits")

    def _miss(self, kind: str) -> None:
        self.cache_misses += 1
        self._misses_by_kind[kind] = self._misses_by_kind.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc("mdcache.misses")

    def stats(self) -> dict:
        """Hit/miss counts, hit ratio, per-kind breakdowns."""
        requests = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_ratio": self.cache_hits / requests if requests else 0.0,
            "hits_by_kind": dict(sorted(self._hits_by_kind.items())),
            "misses_by_kind": dict(sorted(self._misses_by_kind.items())),
        }

    def publish(self) -> None:
        """Hand the entries this statement fetched to the shared cache;
        the router calls it once the detour has succeeded."""
        if self.shared is not None:
            self.shared.publish(self._fetched_tables, self._fetched_types)

    # -- OID resolution -----------------------------------------------------------

    def table_oid(self, name: str) -> int:
        key = name.lower()
        oid = self._oid_by_name.get(key)
        if oid is not None:
            self._hit("table_oid")
            return oid
        self._miss("table_oid")
        with self.tracer.span("metadata_lookup", kind="table_oid",
                              name=name):
            oid = self.provider.get_table_oid(name)
        self._oid_by_name[key] = oid
        return oid

    def synthetic_oid(self, alias: str) -> int:
        return self.provider.get_synthetic_oid(alias)

    def _table_entry(self, kind: str, name: str, local: dict,
                     request: Callable[[int], str],
                     parse: Callable[[str], object]):
        """The statement's map, then the shared cache, then the provider."""
        oid = self.table_oid(name)
        parsed = local.get(oid)
        if parsed is not None:
            self._hit(kind)
            return parsed
        shared = self.shared
        if shared is not None:
            epoch, parsed = shared.lookup(kind, name)
            if parsed is not None:
                self._hit(kind)
                local[oid] = parsed
                return parsed
        self._miss(kind)
        with self.tracer.span("metadata_lookup", kind=kind, name=name):
            parsed = parse(request(oid))
        local[oid] = parsed
        if shared is not None:
            self._fetched_tables[(kind, _table_key(name))] = (epoch, parsed)
        return parsed

    # -- relation metadata --------------------------------------------------------

    def relation(self, name: str) -> TableSchema:
        """Relation metadata, parsed from the provider's DXL answer."""
        return self._table_entry("relation", name, self._relations,
                                 self.provider.get_relation_dxl,
                                 dxl.relation_from_dxl)

    # Alias used by the selectivity estimator protocol.
    def table(self, name: str) -> TableSchema:
        return self.relation(name)

    # -- statistics ----------------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        """Table statistics, parsed from the provider's DXL answer."""
        return self._table_entry("statistics", name, self._statistics,
                                 self.provider.get_statistics_dxl,
                                 dxl.statistics_from_dxl)

    # -- types -----------------------------------------------------------------------

    def type_info(self, type_oid: int) -> dict:
        cached = self._types.get(type_oid)
        if cached is None and self.shared is not None:
            cached = self.shared.type_info(type_oid)
            if cached is not None:
                self._types[type_oid] = cached
        if cached is not None:
            self._hit("type")
            return cached
        self._miss("type")
        with self.tracer.span("metadata_lookup", kind="type"):
            parsed = dxl.type_from_dxl(self.provider.get_type_dxl(type_oid))
        self._types[type_oid] = parsed
        self._fetched_types[type_oid] = parsed
        return parsed
