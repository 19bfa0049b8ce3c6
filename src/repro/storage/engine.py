"""The storage engine facade: tables, indexes, ANALYZE, and access counters.

Stands in for InnoDB on top of Taurus Page Stores.  Execution-time access
counts are tracked so benchmarks can report work done (rows read, index
lookups) in addition to wall-clock time; the counters also make failure
diagnosis in tests deterministic.

Write contract.  Every write goes through :meth:`StorageEngine.load_rows`
(append), :meth:`~StorageEngine.update_rows` (overwrite in place) or
:meth:`~StorageEngine.delete_rows` (move the last row into the hole),
and each keeps two structures in step: the table
(:class:`repro.storage.columnstore.ColumnStore`, the one container that
holds the rows) and every index of the table.  Writes are row-level —
per index a few bisects and a C-level shift of its key list and
row-id array, per touched chunk one slot per column — so a statement costs O(rows changed * log N)
whatever the table holds, and delete-all or a table-wide UPDATE take
the same path as a point write.
The one exception is an append that is large against what the indexes
already hold (:data:`BULK_LOAD_DIVISOR`, judged from the row counts
``load_rows`` can see): it rebuilds each index from the key columns
once, which leaves the same entries.  ``load_rows`` validates what it
is given itself — it stages the table's chunk fills and every index's
new state, and writes only when nothing raised — so a rejected load
changes nothing.  ``update_rows`` and ``delete_rows`` trust their
callers (``repro.dml`` checks every value first): they cannot fail
half-way.  A write never touches the catalog: cached plans name
their tables and read them afresh on every execution, and statistics
move only at ANALYZE.  What a write does leave behind is one tick of the
table's mutation count, which is how :meth:`StorageEngine.analyze_all`
knows which tables have anything new to analyze.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index, TableSchema
from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.errors import StorageError
from repro.storage.columnstore import DEFAULT_CHUNK_SIZE, ColumnStore, Row
from repro.storage.index import OrderedIndex

#: Rows per page used when converting row counts to page counts.
ROWS_PER_PAGE = 64

#: Simulated B-tree descent cost, in busy-loop iterations, charged once
#: per index lookup / range-scan start.  A purely RAM-resident Python
#: engine has no random-I/O penalty, so without this the nested-loop vs
#: hash-join trade-off the paper's evaluation hinges on would not exist;
#: the loop stands in for InnoDB's random page reads (see DESIGN.md).
#: ~1500 iterations is a few tens of microseconds — roughly the real
#: gap between one buffered random page access and one scanned row.
LOOKUP_PENALTY_LOOPS = 1500

#: ``load_rows`` re-sorts the indexes once, instead of inserting entry
#: by entry, when it appends at least one row per this many rows already
#: indexed (always, then, for a load into an empty table).  One re-sort
#: costs about a microsecond per table row, one inserted entry about
#: ten (a bisect and two list shifts), so the two meet near a tenth.
BULK_LOAD_DIVISOR = 10


@dataclass
class AccessCounters:
    """Work counters incremented by the execution-time access paths."""

    rows_scanned: int = 0
    index_lookups: int = 0
    index_rows_read: int = 0
    #: Write-side work: rows inserted, overwritten or deleted; index
    #: entries written, removed or re-pointed; table chunks edited.  A
    #: bulk load charges every entry it re-sorted.
    rows_changed: int = 0
    index_entries_maintained: int = 0
    chunks_patched: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class StorageEngine:
    """Owns every table and index, keyed by lower-cased table name."""

    def __init__(self, catalog: Catalog,
                 lookup_penalty: int = LOOKUP_PENALTY_LOOPS,
                 batch_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        self.catalog = catalog
        self._stores: Dict[str, ColumnStore] = {}
        self._indexes: Dict[str, Dict[str, OrderedIndex]] = {}
        #: Writes that changed at least one row, per table.
        self._mutations: Dict[str, int] = {}
        #: What the last ANALYZE of each table saw: the table's mutation
        #: count, ``with_histograms``, and the catalog epoch its
        #: statistics were installed under.
        self._analyzed: Dict[str, Tuple[int, bool, int]] = {}
        self.counters = AccessCounters()
        #: Busy-loop iterations simulating one random B-tree descent.
        self.lookup_penalty = lookup_penalty
        #: Rows per table chunk == the executor's batch size, so one
        #: chunk is exactly one RowBatch (and one parallel morsel).
        self.batch_size = batch_size

    def _charge_lookup(self) -> None:
        for __ in range(self.lookup_penalty):
            pass

    # -- DDL ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        key = schema.name.lower()
        store = ColumnStore(schema, self.batch_size)
        self._stores[key] = store
        self._mutations[key] = 0
        self._indexes[key] = {
            index.name: OrderedIndex(index, store)
            for index in schema.indexes}

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        key = name.lower()
        self._stores.pop(key, None)
        self._indexes.pop(key, None)
        self._mutations.pop(key, None)
        self._analyzed.pop(key, None)

    # -- DML ------------------------------------------------------------------

    def load_rows(self, table_name: str, rows: Sequence[Sequence]) -> None:
        """Append rows (bulk load and SQL INSERT alike), all or nothing.

        Staged, then committed: the table lays out its chunk fills
        (widths and value types checked, columns transposed) and every
        index its new lists or insert positions, over the staged rows.
        Only when none of that raised is anything written, and the
        writes compare nothing.  A rejected load (a row of the wrong
        width, a NULL in a NOT NULL column, a value whose type does not
        order like its column's, index keys that do not compare) raises
        StorageError naming the table and the column or index, and leaves
        the table, its indexes, the counters and the mutation count as
        they were.  Unique keys are not checked here; SQL INSERT checks
        them before it loads."""
        store = self.store(table_name)
        key = table_name.lower()
        staged = store.stage_rows(rows)
        if not staged:
            return
        before = store.row_count
        fills = [fill for __, fill in staged]
        added = len(rows)
        bulk = added * BULK_LOAD_DIVISOR >= before
        if bulk:
            chunks = store.chunks + fills
        else:
            new_rows = [row for fill in fills for row in fill.rows]
        indexes = []
        for index in self._indexes[key].values():
            try:
                indexes.append((index, index.build(chunks) if bulk
                                else index.stage_inserts(new_rows, before)))
            except TypeError as error:
                columns = ", ".join(map(repr, index.definition.column_names))
                raise StorageError(
                    f"keys of index {index.definition.name!r} ({columns}) "
                    f"of table {store.schema.name!r} do not compare: "
                    f"{error}") from error
        store.commit(staged)
        counters = self.counters
        counters.rows_changed += added
        counters.chunks_patched += len(staged)
        for index, lists in indexes:
            counters.index_entries_maintained += (
                index.install(lists) if bulk
                else index.insert_staged(lists))
        self._mutations[key] += 1

    def update_rows(self, table_name: str, row_ids: Sequence[int],
                    new_rows: Sequence[Row]) -> None:
        """Overwrite row ``row_ids[i]`` with ``new_rows[i]``.

        Only indexes whose key actually changes are touched.
        """
        if not row_ids:
            return
        store = self.store(table_name)
        indexes = self._indexes[table_name.lower()].values()
        counters = self.counters
        counters.rows_changed += len(row_ids)
        patched = set()
        for row_id, new in zip(row_ids, new_rows):
            old = store.fetch(row_id)
            for index in indexes:
                if index.key_of(old) != index.key_of(new):
                    counters.index_entries_maintained += (
                        index.remove_entry(old, row_id)
                        + index.insert_entry(new, row_id))
            store.set_row(row_id, new)
            patched.add(row_id // store.chunk_size)
        counters.chunks_patched += len(patched)
        self._mutations[table_name.lower()] += 1

    def delete_rows(self, table_name: str, row_ids: Sequence[int]) -> None:
        """Delete the rows at ``row_ids`` (distinct row ids).

        Victims go in descending order and each hole is filled with the
        table's last row, so per victim only two rows' index entries and
        at most two chunks change, no other row id moves, and every
        chunk but the last stays full.
        """
        if not row_ids:
            return
        store = self.store(table_name)
        indexes = self._indexes[table_name.lower()].values()
        counters = self.counters
        counters.rows_changed += len(row_ids)
        patched = set()
        for row_id in sorted(row_ids, reverse=True):
            victim = store.fetch(row_id)
            last_id = store.row_count - 1
            moved = store.remove(row_id)
            for index in indexes:
                counters.index_entries_maintained += \
                    index.remove_entry(victim, row_id)
                if moved is not None:
                    counters.index_entries_maintained += \
                        index.repoint_entry(moved, last_id, row_id)
            if moved is not None:
                patched.add(row_id // store.chunk_size)
            patched.add(last_id // store.chunk_size)
        counters.chunks_patched += len(patched)
        self._mutations[table_name.lower()] += 1

    # -- access ---------------------------------------------------------------

    def store(self, table_name: str) -> ColumnStore:
        """The table: schema plus rows (see ``repro.storage.columnstore``)."""
        try:
            return self._stores[table_name.lower()]
        except KeyError:
            raise StorageError(f"no storage for table {table_name!r}") from None

    def index(self, table_name: str, index_name: str) -> OrderedIndex:
        table_indexes = self._indexes.get(table_name.lower(), {})
        try:
            return table_indexes[index_name]
        except KeyError:
            raise StorageError(
                f"no index {index_name!r} on table {table_name!r}") from None

    def table_scan(self, table_name: str) -> Iterator[Row]:
        """Full scan; counts every row read.  The row and batch engines
        walk the same chunks and charge each one as it is reached, so
        their counters stay identical."""
        for chunk_rows in self.table_scan_batches(table_name):
            yield from chunk_rows

    def index_lookup_rows(self, table_name: str, index_name: str,
                          key: Tuple) -> List[Row]:
        """Fetch rows via an index point/prefix lookup."""
        fetch = self.store(table_name).fetch
        index = self.index(table_name, index_name)
        row_ids = index.lookup(key)
        self._charge_lookup()
        self.counters.index_lookups += 1
        self.counters.index_rows_read += len(row_ids)
        return [fetch(row_id) for row_id in row_ids]

    def index_range_row_ids(self, table_name: str, index_name: str,
                            low: Optional[Tuple], high: Optional[Tuple],
                            low_inclusive: bool = True,
                            high_inclusive: bool = True) -> List[int]:
        """Row ids of the rows an index range covers — what DML needs
        to locate its victims and probe unique keys.  Charged like the
        read paths: one lookup, one row read per entry."""
        row_ids = self.index(table_name, index_name).range_scan(
            low, high, low_inclusive, high_inclusive)
        self._charge_lookup()
        self.counters.index_lookups += 1
        self.counters.index_rows_read += len(row_ids)
        return row_ids

    def index_range_rows(self, table_name: str, index_name: str,
                         low: Optional[Tuple], high: Optional[Tuple],
                         low_inclusive: bool = True,
                         high_inclusive: bool = True) -> Iterator[Row]:
        fetch = self.store(table_name).fetch
        index = self.index(table_name, index_name)
        self._charge_lookup()
        self.counters.index_lookups += 1
        for row_id in index.range_scan(low, high, low_inclusive,
                                       high_inclusive):
            self.counters.index_rows_read += 1
            yield fetch(row_id)

    def index_ordered_rows(self, table_name: str, index_name: str,
                           descending: bool = False) -> Iterator[Row]:
        """Full ordered scan through an index (supplies sort order)."""
        fetch = self.store(table_name).fetch
        index = self.index(table_name, index_name)
        for row_id in index.ordered_row_ids(descending):
            self.counters.index_rows_read += 1
            yield fetch(row_id)

    # -- batched access ---------------------------------------------------------
    #
    # The batch executor's counterparts of the scans above.  Each charges
    # the same AccessCounters totals as its row-at-a-time twin when fully
    # consumed (one lookup per range start, one rows_scanned /
    # index_rows_read per row); the only divergence is granularity on
    # the index paths — a batch's rows are charged before the batch is
    # produced, so early termination (LIMIT) can over-charge by at most
    # one batch.

    def table_scan_batches(self, table_name: str) -> Iterator[List[Row]]:
        """Full scan emitting the table's chunks — its own row lists,
        no slicing or transposition — each charged to ``rows_scanned``
        as it is reached."""
        counters = self.counters
        for chunk in self.store(table_name).chunks:
            counters.rows_scanned += len(chunk.rows)
            yield chunk.rows

    def index_range_batches(self, table_name: str, index_name: str,
                            low: Optional[Tuple], high: Optional[Tuple],
                            low_inclusive: bool, high_inclusive: bool,
                            batch_size: int) -> Iterator[List[Row]]:
        fetch = self.store(table_name).fetch
        index = self.index(table_name, index_name)
        self._charge_lookup()
        self.counters.index_lookups += 1
        counters = self.counters
        chunk: List[Row] = []
        for row_id in index.range_scan(low, high, low_inclusive,
                                       high_inclusive):
            counters.index_rows_read += 1
            chunk.append(fetch(row_id))
            if len(chunk) >= batch_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def index_ordered_batches(self, table_name: str, index_name: str,
                              descending: bool,
                              batch_size: int) -> Iterator[List[Row]]:
        fetch = self.store(table_name).fetch
        index = self.index(table_name, index_name)
        counters = self.counters
        chunk: List[Row] = []
        for row_id in index.ordered_row_ids(descending):
            counters.index_rows_read += 1
            chunk.append(fetch(row_id))
            if len(chunk) >= batch_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    # -- statistics -------------------------------------------------------------

    def analyze_table(self, table_name: str,
                      with_histograms: bool = True) -> TableStatistics:
        """Recompute statistics (ANALYZE TABLE) and store them in the catalog.

        Histograms are built for *every* column, including UNIQUE ones —
        the restriction MySQL normally applies was lifted for the Orca
        integration (Section 5.5, lesson 5 of Section 7).
        """
        store = self.store(table_name)
        schema = store.schema
        unique_columns = schema.unique_columns()
        statistics = TableStatistics(row_count=store.row_count,
                                     analyzed=True)
        for column in schema.columns:
            statistics.columns[column.name] = ColumnStatistics.from_values(
                store.column_values(column.name),
                unique=column.name in unique_columns,
                with_histogram=with_histograms,
            )
        self.catalog.set_statistics(table_name, statistics)
        key = table_name.lower()
        self._analyzed[key] = (self._mutations[key], with_histograms,
                               self.catalog.epoch(table_name))
        return statistics

    def analyze_all(self, with_histograms: bool = True) -> List[str]:
        """ANALYZE every table that has something new to analyze;
        returns the names of the tables it analyzed.

        A table is skipped — statistics, catalog epoch and so the
        cached plans over it all stay — when no write changed its rows
        since its last ANALYZE, that ANALYZE had the same
        ``with_histograms``, and the statistics it installed are still
        the catalog's (nobody called ``set_statistics`` since).
        """
        analyzed = []
        for table in self.catalog.tables():
            key = table.name.lower()
            if self._analyzed.get(key) != (
                    self._mutations.get(key), with_histograms,
                    self.catalog.epoch(key)):
                self.analyze_table(table.name, with_histograms)
                analyzed.append(table.name)
        return analyzed

    # -- cost-model inputs --------------------------------------------------------

    def page_count(self, table_name: str) -> int:
        return max(1, self.store(table_name).row_count // ROWS_PER_PAGE)
