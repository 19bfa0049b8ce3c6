"""Logical schema objects: tables, columns, and indexes.

These model what MySQL's data dictionary stores about each relation and
what the metadata provider ships to Orca (Section 5.5): name, columns,
column types, and index definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CatalogError
from repro.mysql_types import MySQLType, TypeInstance


@dataclass(frozen=True)
class Column:
    """A table column: name, type, and nullability."""

    name: str
    type: TypeInstance
    nullable: bool = True

    @staticmethod
    def of(name: str, base: MySQLType, modifier: Optional[int] = None,
           nullable: bool = True) -> "Column":
        """Convenience constructor used throughout schema definitions."""
        return Column(name, TypeInstance(base, modifier), nullable)


@dataclass(frozen=True)
class Index:
    """An index over one or more columns of a table.

    ``primary`` implies ``unique``.  Secondary indexes point back at the
    primary key, as in InnoDB; the storage layer charges an extra lookup
    for non-covering secondary index access.
    """

    name: str
    column_names: Tuple[str, ...]
    unique: bool = False
    primary: bool = False

    def __post_init__(self) -> None:
        if self.primary and not self.unique:
            object.__setattr__(self, "unique", True)

    def covers(self, needed: Sequence[str]) -> bool:
        """Whether every needed column appears in the index key."""
        available = set(self.column_names)
        return all(name in available for name in needed)


class TableSchema:
    """The dictionary entry for one table.

    Column positions are fixed at creation; expression compilation and row
    storage both rely on them.
    """

    def __init__(self, name: str, columns: Sequence[Column],
                 indexes: Sequence[Index] = (), schema: str = "test") -> None:
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        self.name = name
        self.schema = schema
        self.columns: List[Column] = list(columns)
        self._positions: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._positions:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {name!r}")
            self._positions[column.name] = position
        self.indexes: List[Index] = []
        for index in indexes:
            self.add_index(index)

    # -- columns -----------------------------------------------------------

    def column_position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise CatalogError(
                f"unknown column {name!r} in table {self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def column(self, name: str) -> Column:
        return self.columns[self.column_position(name)]

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def not_null_positions(self) -> frozenset:
        """Positions of the columns declared NOT NULL."""
        return frozenset(position for position, column
                         in enumerate(self.columns) if not column.nullable)

    # -- indexes -----------------------------------------------------------

    def add_index(self, index: Index) -> None:
        if any(existing.name == index.name for existing in self.indexes):
            raise CatalogError(
                f"duplicate index {index.name!r} on table {self.name!r}")
        for column_name in index.column_names:
            self.column_position(column_name)  # validates existence
        self.indexes.append(index)

    @property
    def primary_key(self) -> Optional[Index]:
        for index in self.indexes:
            if index.primary:
                return index
        return None

    def indexes_on_prefix(self, column_name: str) -> List[Index]:
        """All indexes whose leading key column is ``column_name``."""
        return [index for index in self.indexes
                if index.column_names and index.column_names[0] == column_name]

    def unique_columns(self) -> frozenset:
        """Names of columns covered by a single-column unique index."""
        return frozenset(
            index.column_names[0] for index in self.indexes
            if index.unique and len(index.column_names) == 1)

    # -- misc ---------------------------------------------------------------

    @property
    def qualified_name(self) -> str:
        return f"{self.schema}.{self.name}"

    @property
    def row_width(self) -> int:
        """Estimated bytes per row, used by the cost models."""
        return sum(column.type.width for column in self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableSchema({self.qualified_name}, {len(self.columns)} cols)"
