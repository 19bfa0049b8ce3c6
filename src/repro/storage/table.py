"""Heap storage for a single table.

Rows are Python tuples whose positions match the table schema's column
positions.  The heap stands in for InnoDB's clustered storage; sequential
scans iterate in heap order, which lets the paper's observation about
"sequential prefetch" on table scans (Section 6.1) be modelled by a lower
per-row scan cost in both cost models.

A row id is a heap position.  The heap stays dense: deleting a row moves
the last row into the freed slot (:meth:`HeapTable.remove`), so exactly
one other row id changes and none are renumbered.  Heap order is
therefore insertion order only until the first DELETE — no scan order
was ever promised without ORDER BY.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError

Row = Tuple


class HeapTable:
    """Row storage plus the table's schema."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: List[Row] = []

    def insert(self, row: Sequence) -> int:
        """Append one row; returns its row id (heap position)."""
        self.insert_many([row])
        return len(self.rows) - 1

    def insert_many(self, rows: Sequence[Sequence]) -> None:
        """Append rows, all or none: every width is checked first."""
        width = len(self.schema.columns)
        staged = [tuple(row) for row in rows]
        for row in staged:
            if len(row) != width:
                raise StorageError(
                    f"row width {len(row)} != {width} "
                    f"for table {self.schema.name!r}")
        self.rows.extend(staged)

    def remove(self, row_id: int) -> Optional[Row]:
        """Delete the row at ``row_id`` by moving the last row into its
        slot; returns the moved row (now stored at ``row_id``), or None
        when the victim was the last row and nothing moved."""
        last = self.rows.pop()
        if row_id == len(self.rows):
            return None
        self.rows[row_id] = last
        return last

    def fetch(self, row_id: int) -> Row:
        return self.rows[row_id]

    def scan(self) -> Iterator[Row]:
        return iter(self.rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column_values(self, column_name: str) -> Iterator:
        """All values of one column, lazily, for ANALYZE.

        A generator rather than a list: ANALYZE consumes each column in
        a single pass, and on large tables the eager gather used to
        build a full per-column copy per consumer (statistics *and* the
        zone-map rebuild).  Callers that need a list can materialise it
        themselves."""
        position = self.schema.column_position(column_name)
        return (row[position] for row in self.rows)
