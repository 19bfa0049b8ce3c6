"""The table: rows held once, as fixed-size chunks with zone maps.

A :class:`ColumnStore` owns one table's schema and rows and is the only
container that holds them (it stands in for InnoDB's clustered storage).
Rows sit in :class:`ColumnChunk` units of ``chunk_size`` rows — the
executor's batch size, so a batched scan hands a chunk's row list to a
``RowBatch`` with zero copying and one chunk is one parallel morsel —
and every chunk carries a per-column decomposition of its rows:

* ``columns[i]`` — the chunk's values for column *i* as a plain list
  (what ANALYZE reads, column at a time, without gathering);
* ``null_bits[i]`` — a null bitmap (bit *r* set when row *r* is NULL);
* ``mins[i]`` / ``maxs[i]`` — the zone map: min/max over the chunk's
  non-NULL values, ``None`` when the chunk has no non-NULL value.

A row id is a dense global position: row ``r`` is
``chunks[r // chunk_size].rows[r % chunk_size]``, chunk *i* holds ids
``[i * chunk_size, (i + 1) * chunk_size)`` and every chunk but the last
is full.  Inserts append a column at a time, staged before anything is
written (:meth:`ColumnStore.stage_rows`, then :meth:`ColumnStore.commit`;
min/max only widen); UPDATE overwrites one slot
(:meth:`ColumnStore.set_row`); DELETE moves the last row into the freed
slot (:meth:`ColumnStore.remove`), so exactly one other row id changes,
none are renumbered, and a single-row write touches at most two
chunks.  Scan order is therefore insertion order only until the
first DELETE — no order was ever promised without ORDER BY.  Zone maps
of touched chunks stay *exact* — a column is rescanned only when the
value that left was its min or max and no equal value remains — so
``can_skip`` answers what a table rebuilt from the same rows would, and
ANALYZE leaves zone maps alone: there is nothing to recompute.

Chunk skipping: scans pass a list of *zone predicates* — pre-extracted
``(kind, position, ...)`` tuples derived from a scan's filter conjuncts
— and :meth:`ColumnChunk.can_skip` reports chunks where no row can
possibly satisfy some conjunct.  The test is deliberately conservative:
a predicate only votes *skip* when the chunk's range/null statistics
*prove* every row fails (SQL semantics: a NULL comparison never passes a
filter), and any type error during the range test keeps the chunk.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError

Row = Tuple

#: Default rows per chunk; mirrors the executor's default batch size so
#: one chunk becomes exactly one RowBatch (and one parallel morsel).
DEFAULT_CHUNK_SIZE = 1024


class ChunkFill(NamedTuple):
    """Rows staged for one chunk by :meth:`ColumnChunk.stage`: already
    transposed, with their own null bits (bit *r* = the fill's row *r*)
    and the chunk's zone map widened over them.  ``columns`` and
    ``null_bits`` read like a chunk's, so an index can be built over a
    staged append before anything is written."""

    rows: List[tuple]
    columns: List[list]
    null_bits: List[int]
    mins: List[object]
    maxs: List[object]


class IncomparableColumn(TypeError):
    """Staged values of column ``position`` do not compare with each
    other or with the chunk's zone map."""

    def __init__(self, position: int, error: TypeError) -> None:
        super().__init__(str(error))
        self.position = position


class ColumnChunk:
    """One fixed-size horizontal slice of a table, stored both ways.

    ``rows`` is the batch-engine payload (row tuples, at most
    ``chunk_size`` of them); ``columns``/``null_bits``/``mins``/``maxs``
    are the per-column decomposition and zone map described in the
    module docstring.
    """

    __slots__ = ("rows", "columns", "null_bits", "mins", "maxs")

    def __init__(self, n_columns: int) -> None:
        self.rows: List[tuple] = []
        self.columns: List[list] = [[] for _ in range(n_columns)]
        self.null_bits: List[int] = [0] * n_columns
        self.mins: List[object] = [None] * n_columns
        self.maxs: List[object] = [None] * n_columns

    def __len__(self) -> int:
        return len(self.rows)

    def stage(self, rows: List[tuple]) -> ChunkFill:
        """Lay out ``rows`` (at most the free slots) for :meth:`extend`
        without writing anything.

        One ``zip(*rows)`` transposes them into fresh column lists (the
        fill owns ``rows`` and those lists); a column gets null bits only
        when it holds a NULL; the zone map is widened by C-level
        ``min``/``max`` over its extremes and the non-NULL values in row
        order — the comparisons of widening it value by value.  Raises
        :class:`IncomparableColumn` when a column's values do not
        compare with each other or with the chunk's zone map."""
        columns = [list(values) for values in zip(*rows)]
        null_bits = [0] * len(columns)
        mins = list(self.mins)
        maxs = list(self.maxs)
        for position, values in enumerate(columns):
            present = values
            if None in values:
                bits = 0
                for offset, value in enumerate(values):
                    if value is None:
                        bits |= 1 << offset
                null_bits[position] = bits
                present = [value for value in values if value is not None]
                if not present:
                    continue
            try:
                if mins[position] is None:
                    mins[position] = min(present)
                    maxs[position] = max(present)
                else:
                    mins[position] = min(mins[position], *present)
                    maxs[position] = max(maxs[position], *present)
            except TypeError as error:
                raise IncomparableColumn(position, error) from error
        return ChunkFill(rows, columns, null_bits, mins, maxs)

    def extend(self, fill: ChunkFill) -> None:
        """Append the rows :meth:`stage` laid out: no comparison,
        nothing that can fail.  An empty chunk adopts the fill's lists;
        a partial one grows by one C-level list extend per column."""
        self.mins = fill.mins
        self.maxs = fill.maxs
        if not self.rows:
            self.rows = fill.rows
            self.columns = fill.columns
            self.null_bits = fill.null_bits
            return
        start = len(self.rows)
        self.rows.extend(fill.rows)
        for position, values in enumerate(fill.columns):
            self.columns[position].extend(values)
            bits = fill.null_bits[position]
            if bits:
                self.null_bits[position] |= bits << start

    def set_row(self, offset: int, row: tuple) -> None:
        """Overwrite the row at ``offset``, keeping zone maps exact."""
        old_row = self.rows[offset]
        self.rows[offset] = row
        bit = 1 << offset
        for position, value in enumerate(row):
            old = old_row[position]
            if old is value:
                continue
            self.columns[position][offset] = value
            if value is None:
                self.null_bits[position] |= bit
            else:
                self.null_bits[position] &= ~bit
            self._rezone(position, old, value)

    def pop(self) -> None:
        """Drop the last row, keeping zone maps exact."""
        row = self.rows.pop()
        keep = (1 << len(self.rows)) - 1
        for position, old in enumerate(row):
            self.columns[position].pop()
            self.null_bits[position] &= keep
            self._rezone(position, old, None)

    def _rezone(self, position: int, old, new) -> None:
        """``old`` left column ``position`` and ``new`` (already stored)
        took its place; None stands for NULL or no value."""
        low = self.mins[position]
        if old is not None \
                and (old == low or old == self.maxs[position]) \
                and old not in self.columns[position]:
            # The last copy of an extreme left: only a rescan is exact.
            values = self.columns[position]
            if self.null_bits[position]:
                values = [value for value in values if value is not None]
            self.mins[position] = min(values) if values else None
            self.maxs[position] = max(values) if values else None
        elif new is not None:
            if low is None:
                self.mins[position] = new
                self.maxs[position] = new
            elif new < low:
                self.mins[position] = new
            elif new > self.maxs[position]:
                self.maxs[position] = new

    def null_count(self, position: int) -> int:
        return self.null_bits[position].bit_count()

    # -- zone-map predicate test --------------------------------------------------

    def can_skip(self, predicates: Sequence[tuple]) -> bool:
        """True when some predicate provably rejects every row here.

        ``predicates`` entries (see ``plan.zone_predicates``):

        * ``("cmp", position, op, value)`` — column *op* literal with
          ``op`` one of ``= <> < <= > >=``;
        * ``("in", position, values)`` — column IN (literals);
        * ``("notin", position, values)`` — column NOT IN (literals):
          dead only when the chunk is constant on a listed value;
        * ``("notbetween", position, a, b)`` — column NOT BETWEEN a
          AND b: dead when the chunk's [min, max] lies inside [a, b];
        * ``("null", position, negated)`` — IS [NOT] NULL.
        """
        length = len(self.rows)
        for predicate in predicates:
            kind = predicate[0]
            position = predicate[1]
            if kind == "null":
                nulls = self.null_bits[position].bit_count()
                if predicate[2]:  # IS NOT NULL: dead when all NULL
                    if nulls == length:
                        return True
                elif nulls == 0:  # IS NULL: dead when no NULLs
                    return True
                continue
            low = self.mins[position]
            if low is None:
                # Every value is NULL: no comparison ever passes.
                return True
            high = self.maxs[position]
            try:
                if kind == "cmp":
                    op = predicate[2]
                    value = predicate[3]
                    if op == "=":
                        if value < low or value > high:
                            return True
                    elif op == "<":
                        if low >= value:
                            return True
                    elif op == "<=":
                        if low > value:
                            return True
                    elif op == ">":
                        if high <= value:
                            return True
                    elif op == ">=":
                        if high < value:
                            return True
                    elif op == "<>":
                        if low == high == value:
                            return True
                elif kind == "in":
                    if all(value < low or value > high
                           for value in predicate[2]):
                        return True
                elif kind == "notin":
                    if low == high and low in predicate[2]:
                        return True
                elif kind == "notbetween":
                    if predicate[2] <= low and high <= predicate[3]:
                        return True
            except TypeError:
                # Incomparable literal (mixed types): keep the chunk.
                continue
        return False


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

        Every width is checked and every chunk's fill staged (see
        :meth:`ColumnChunk.stage`), so :meth:`commit` cannot fail.  The
        first fill tops up the partial last chunk, if there is one; the
        rest fill new chunks, not yet attached.  Raises StorageError,
        naming the table and the column, for a row of the wrong width
        or values that do not compare."""
        width = len(self.schema.columns)
        staged = list(map(tuple, rows))
        if set(map(len, staged)) - {width}:
            length = next(len(row) for row in staged if len(row) != width)
            raise StorageError(
                f"row width {length} != {width} "
                f"for table {self.schema.name!r}")
        size = self.chunk_size
        fills = []
        start = 0
        try:
            if staged and self.chunks and len(self.chunks[-1].rows) < size:
                last = self.chunks[-1]
                start = size - len(last.rows)
                fills.append((last, last.stage(staged[:start])))
            for offset in range(start, len(staged), size):
                chunk = ColumnChunk(width)
                fills.append((chunk,
                              chunk.stage(staged[offset:offset + size])))
        except IncomparableColumn as error:
            column = self.schema.columns[error.position].name
            raise StorageError(
                f"values of column {column!r} of table "
                f"{self.schema.name!r} do not compare: {error}") from error
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

    def scan_chunks(self, predicates: Optional[Sequence[tuple]] = None
                    ) -> Iterator[Tuple[List[Row], bool]]:
        """Yield ``(chunk_rows, skipped)`` per chunk, in row-id order.

        A skipped chunk's rows are still yielded (the caller charges
        ``rows_scanned`` for them to keep row/batch counter parity) but
        flagged so the scan can avoid materialising a batch.
        """
        if not predicates:
            for chunk in self.chunks:
                yield chunk.rows, False
            return
        for chunk in self.chunks:
            yield chunk.rows, chunk.can_skip(predicates)
