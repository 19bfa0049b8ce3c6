"""The table: rows held once, as fixed-size chunks.

A :class:`ColumnStore` owns one table's schema and rows and is the only
container that holds them (it stands in for InnoDB's clustered storage).
Rows sit in :class:`ColumnChunk` units of ``chunk_size`` rows — the
executor's batch size, so a batched scan hands a chunk's row list to a
``RowBatch`` with zero copying and one chunk is one parallel morsel —
and every chunk also keeps its rows column by column: ``columns[i]`` is
the chunk's values for column *i* as a plain list (what ANALYZE and an
index build read, column at a time, without gathering).

A row id is a dense global position: row ``r`` is
``chunks[r // chunk_size].rows[r % chunk_size]``, chunk *i* holds ids
``[i * chunk_size, (i + 1) * chunk_size)`` and every chunk but the last
is full.  Inserts append a column at a time, staged and checked before
anything is written (:meth:`ColumnStore.stage_rows`, then
:meth:`ColumnStore.commit`); UPDATE overwrites one slot
(:meth:`ColumnStore.set_row`); DELETE moves the last row into the freed
slot (:meth:`ColumnStore.remove`), so exactly one other row id changes,
none are renumbered, and a single-row write touches at most two
chunks.  Scan order is therefore insertion order only until the
first DELETE — no order was ever promised without ORDER BY.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.mysql_types import orders_like

Row = Tuple

#: Default rows per chunk; mirrors the executor's default batch size so
#: one chunk becomes exactly one RowBatch (and one parallel morsel).
DEFAULT_CHUNK_SIZE = 1024


class ChunkFill(NamedTuple):
    """Rows staged for one chunk by :meth:`ColumnStore.stage_rows`,
    already transposed.  ``columns`` reads like a chunk's, so an index
    can be built over a staged append before anything is written."""

    rows: List[tuple]
    columns: List[list]


class ColumnChunk:
    """One fixed-size horizontal slice of a table, stored both ways:
    ``rows`` is the batch-engine payload (row tuples, at most
    ``chunk_size`` of them) and ``columns`` the same values column by
    column."""

    __slots__ = ("rows", "columns")

    def __init__(self, n_columns: int) -> None:
        self.rows: List[tuple] = []
        self.columns: List[list] = [[] for _ in range(n_columns)]

    def __len__(self) -> int:
        return len(self.rows)

    def extend(self, fill: ChunkFill) -> None:
        """Append staged rows.  An empty chunk adopts the fill's lists;
        a partial one grows by one C-level list extend per column."""
        if not self.rows:
            self.rows = fill.rows
            self.columns = fill.columns
            return
        self.rows.extend(fill.rows)
        for column, values in zip(self.columns, fill.columns):
            column.extend(values)

    def set_row(self, offset: int, row: tuple) -> None:
        """Overwrite the row at ``offset``."""
        old_row = self.rows[offset]
        self.rows[offset] = row
        for position, value in enumerate(row):
            if old_row[position] is not value:
                self.columns[position][offset] = value

    def pop(self) -> None:
        """Drop the last row."""
        self.rows.pop()
        for column in self.columns:
            column.pop()


class ColumnStore:
    """One table: its schema and all of its rows, in chunks.

    Indexes, DML, ANALYZE and every scan read this one structure; see
    the module docstring for the row-id and chunk layout.
    """

    __slots__ = ("schema", "chunk_size", "chunks")

    def __init__(self, schema: TableSchema,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.schema = schema
        self.chunk_size = chunk_size
        self.chunks: List[ColumnChunk] = []

    @property
    def row_count(self) -> int:
        if not self.chunks:
            return 0
        return (self.chunk_size * (len(self.chunks) - 1)
                + len(self.chunks[-1]))

    def fetch(self, row_id: int) -> Row:
        return self.chunks[row_id // self.chunk_size].rows[
            row_id % self.chunk_size]

    def scan(self) -> Iterator[Row]:
        """Every row, in row-id order."""
        for chunk in self.chunks:
            yield from chunk.rows

    def stage_rows(self, rows: Sequence[Sequence]
                   ) -> List[Tuple[ColumnChunk, ChunkFill]]:
        """Lay out an append without touching the table.

        Every row's width and every value is checked and every chunk's
        fill transposed, so :meth:`commit` cannot fail.  The first fill
        tops up the partial last chunk, if there is one; the rest fill
        new chunks, not yet attached.  Raises StorageError, naming the
        table and the column, for a row of the wrong width, a NULL in a
        NOT NULL column, or a value whose type does not order like the
        column's declared type (:func:`repro.mysql_types.orders_like`).
        Each value is judged on its own, so where a load's chunk
        boundaries fall never changes what it accepts."""
        schema = self.schema
        width = len(schema.columns)
        staged = list(map(tuple, rows))
        if set(map(len, staged)) - {width}:
            length = next(len(row) for row in staged if len(row) != width)
            raise StorageError(
                f"row width {length} != {width} "
                f"for table {schema.name!r}")
        size = self.chunk_size
        parts = []
        start = 0
        if staged and self.chunks and len(self.chunks[-1].rows) < size:
            start = size - len(self.chunks[-1].rows)
            parts.append((self.chunks[-1], staged[:start]))
        parts.extend((ColumnChunk(width), staged[offset:offset + size])
                     for offset in range(start, len(staged), size))
        fills = [(chunk, ChunkFill(part, [list(values)
                                          for values in zip(*part)]))
                 for chunk, part in parts]
        for position, column in enumerate(schema.columns):
            kinds = set()
            for __, fill in fills:
                kinds.update(map(type, fill.columns[position]))
            if type(None) in kinds:
                if not column.nullable:
                    raise StorageError(
                        f"column {column.name!r} of table {schema.name!r} "
                        f"cannot be NULL")
                kinds.discard(type(None))
            for kind in kinds:
                if not orders_like(kind, column.type.base):
                    value = next(row[position] for row in staged
                                 if type(row[position]) is kind)
                    raise StorageError(
                        f"value {value!r} ({kind.__name__}) does not "
                        f"order like column {column.name!r} "
                        f"({column.type.base.name}) of table "
                        f"{schema.name!r}")
        return fills

    def commit(self, staged: Sequence[Tuple[ColumnChunk, ChunkFill]]
               ) -> None:
        """Write what :meth:`stage_rows` laid out, attaching new chunks."""
        for chunk, fill in staged:
            if not chunk.rows:
                self.chunks.append(chunk)
            chunk.extend(fill)

    def set_row(self, row_id: int, row: Row) -> None:
        """Overwrite row ``row_id`` in its chunk."""
        self.chunks[row_id // self.chunk_size].set_row(
            row_id % self.chunk_size, row)

    def remove(self, row_id: int) -> Optional[Row]:
        """Delete row ``row_id`` by moving the last row into its slot;
        returns the moved row (now stored at ``row_id``), or None when
        the victim was the last row and nothing moved."""
        last = self.chunks[-1]
        moved = None
        if row_id != self.row_count - 1:
            moved = last.rows[-1]
            self.set_row(row_id, moved)
        last.pop()
        if not last.rows:
            self.chunks.pop()
        return moved

    def column_values(self, column_name: str) -> Iterator:
        """All values of one column: the chunks' own column lists
        chained, with no gather copy and no Python-level frame per
        value — ANALYZE consumes each column in a single pass."""
        position = self.schema.column_position(column_name)
        return chain.from_iterable(
            chunk.columns[position] for chunk in self.chunks)
