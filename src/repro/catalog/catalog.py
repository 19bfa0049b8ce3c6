"""The data dictionary: every table schema plus its statistics.

This is the structure the MySQL parser/resolver consults for name
resolution, and from which the bridge's metadata provider answers Orca's
requests (Section 5).  It deliberately contains *no* row data — like the
"shell database" technique the related-work section describes, optimization
needs only metadata and statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import CatalogError


class Catalog:
    """A registry of table schemas and their statistics."""

    def __init__(self, schema: str = "test") -> None:
        self.default_schema = schema
        self._tables: Dict[str, TableSchema] = {}
        self._statistics: Dict[str, TableStatistics] = {}
        #: Table key -> the epoch of what an optimizer can read about the
        #: table (schema and statistics).  Every value comes from one
        #: counter that only grows, so a table dropped and created again
        #: never repeats a value a cached plan may still hold.
        self._epochs: Dict[str, int] = {}
        self._last_epoch = 0
        #: Called with the table's name after each DROP, so caches keyed
        #: by table (Orca's shared metadata cache) forget it at once.
        self.drop_listeners: List[Callable[[str], None]] = []

    # -- epochs ---------------------------------------------------------------

    def _advance_epoch(self, key: str) -> None:
        self._last_epoch += 1
        self._epochs[key] = self._last_epoch

    def epoch(self, name: str) -> Optional[int]:
        """The table's current epoch; None when there is no such table.

        CREATE and ``set_statistics`` (ANALYZE) advance it — row-level
        writes and bulk loads do not, because neither optimizer reads
        storage.  A cached plan records the epoch of every table it was
        compiled against and is valid while all of them still match.
        """
        return self._epochs.get(name.lower())

    # -- tables -------------------------------------------------------------

    def create_table(self, table: TableSchema) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self._statistics[key] = TableStatistics()
        self._advance_epoch(key)

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[key]
        del self._statistics[key]
        del self._epochs[key]
        for listener in self.drop_listeners:
            listener(name)

    def table(self, name: str) -> TableSchema:
        key = name.lower()
        try:
            return self._tables[key]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return [table.name for table in self._tables.values()]

    # -- statistics ----------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        self.table(name)  # validates existence
        return self._statistics[name.lower()]

    def set_statistics(self, name: str, statistics: TableStatistics) -> None:
        self.table(name)
        self._statistics[name.lower()] = statistics
        self._advance_epoch(name.lower())
