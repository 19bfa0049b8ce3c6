"""Bulk load: column-at-a-time, staged, committed all or nothing.

``StorageEngine.load_rows`` fills chunks a column at a time
(``ColumnChunk.stage`` / ``extend``), builds indexes from the key
columns (``OrderedIndex.build``) and writes nothing until every width,
zone-map comparison and index key has been checked.  This file pins
three things:

* **Same state.**  The per-row chunk fill and the ``key_of`` + sorted
  ``(key, row_id)`` index build it replaced live on here, as
  :class:`ReferenceTable`.  Seeded tables — NULL-heavy and
  duplicate-heavy columns, nullable composite indexes, equal values of
  different types, sizes around a chunk, appends into a partial last
  chunk, loads on both sides of ``BULK_LOAD_DIVISOR`` and single-row SQL
  INSERTs — must leave exactly the reference's chunks, index lists and
  write counters.
* **A rejected load changes nothing.**  Wrong widths and values that do
  not compare, in indexed and unindexed columns, at bulk and incremental
  sizes: ``StorageError`` naming the table and column, and the table,
  indexes, counters and mutation count exactly as before.
* **The golden digest.**  The loaded store, the indexes and the ANALYZE
  statistics of the TPC-H (0.05), TPC-DS (0.2) and ``compile_mix``
  topology (0.25) corpora of ``tests/test_explain_digest.py`` hash to
  ``tests/goldens/bulk_load/digests.json``.  The golden was written once,
  by the per-row load, and is never regenerated to make a change pass.
  To write it (for a new corpus table, say)::

      PYTHONPATH=src python tests/test_bulk_load.py --write
"""

import bisect
import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.errors import ExecutionError, StorageError
from repro.mysql_types import MySQLType
from repro.storage.engine import BULK_LOAD_DIVISOR
from repro.storage.index import NULL_KEY, OrderedIndex
from repro.workloads.joins import load_topology, make_topology
from repro.workloads.tpcds import load_tpcds
from repro.workloads.tpch import load_tpch

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "bulk_load" / \
    "digests.json"
#: The ``compile_mix`` join topologies and their seed, as in
#: ``tests/test_explain_digest.py``.
TOPOLOGIES = (("chain", 10), ("chain", 20), ("chain", 30), ("star", 10),
              ("star", 20), ("snowflake", 16), ("clique", 10))
TOPOLOGY_SEED = 1234
CHUNK = 16
WRITE_COUNTERS = ("rows_changed", "chunks_patched",
                  "index_entries_maintained")


# -- the per-row reference ---------------------------------------------------------

class ReferenceChunk:
    """A chunk filled one row at a time, widening the zone map value by
    value — the fill ``ColumnChunk.stage`` / ``extend`` replaced."""

    def __init__(self, n_columns):
        self.rows = []
        self.columns = [[] for _ in range(n_columns)]
        self.null_bits = [0] * n_columns
        self.mins = [None] * n_columns
        self.maxs = [None] * n_columns

    def append(self, row):
        bit = 1 << len(self.rows)
        self.rows.append(row)
        for position, value in enumerate(row):
            self.columns[position].append(value)
            if value is None:
                self.null_bits[position] |= bit
            elif self.mins[position] is None:
                self.mins[position] = value
                self.maxs[position] = value
            else:
                if value < self.mins[position]:
                    self.mins[position] = value
                if value > self.maxs[position]:
                    self.maxs[position] = value


class ReferenceTable:
    """One table as the per-row load kept it: rows appended one at a
    time, an index rebuilt by sorting ``(key_of(row), row_id)`` pairs
    when the append is large (``BULK_LOAD_DIVISOR``) and otherwise one
    bisect insert per row, and the write counters that path charged."""

    def __init__(self, schema, chunk_size):
        self.width = len(schema.columns)
        self.chunk_size = chunk_size
        self.chunks = []
        self.positions = {
            index.name: [schema.column_position(name)
                         for name in index.column_names]
            for index in schema.indexes}
        self.entries = {name: [] for name in self.positions}
        self.counters = dict.fromkeys(WRITE_COUNTERS, 0)

    @property
    def row_count(self):
        return sum(len(chunk.rows) for chunk in self.chunks)

    def key_of(self, name, row):
        return tuple(NULL_KEY if row[position] is None else row[position]
                     for position in self.positions[name])

    def load(self, rows):
        rows = [tuple(row) for row in rows]
        if not rows:
            return
        before = self.row_count
        for row in rows:
            if not self.chunks or \
                    len(self.chunks[-1].rows) >= self.chunk_size:
                self.chunks.append(ReferenceChunk(self.width))
            self.chunks[-1].append(row)
        self.counters["rows_changed"] += len(rows)
        self.counters["chunks_patched"] += \
            len(self.chunks) - before // self.chunk_size
        bulk = len(rows) * BULK_LOAD_DIVISOR >= before
        every_row = [row for chunk in self.chunks for row in chunk.rows]
        for name in self.entries:
            if bulk:
                entries = sorted((self.key_of(name, row), row_id)
                                 for row_id, row in enumerate(every_row))
                self.entries[name] = entries
                self.counters["index_entries_maintained"] += len(entries)
            else:
                for row_id, row in enumerate(rows, before):
                    entry = (self.key_of(name, row), row_id)
                    bisect.insort_left(self.entries[name], entry)
                    self.counters["index_entries_maintained"] += 1

    def state(self):
        return (self.row_count,
                [(chunk.rows, chunk.columns, chunk.null_bits, chunk.mins,
                  chunk.maxs) for chunk in self.chunks],
                {name: (entries, [key for key, __ in entries])
                 for name, entries in sorted(self.entries.items())})


def engine_state(storage, table):
    """What :meth:`ReferenceTable.state` holds, read off the engine."""
    store = storage.store(table)
    indexes = storage._indexes[table.lower()]
    return (store.row_count,
            [(chunk.rows, chunk.columns, chunk.null_bits, chunk.mins,
              chunk.maxs) for chunk in store.chunks],
            {name: (index._entries, index._keys)
             for name, index in sorted(indexes.items())})


def write_counters(storage):
    return {name: getattr(storage.counters, name) for name in WRITE_COUNTERS}


def assert_same(storage, table, reference):
    # repr, not ==: 1 and 1.0 are equal but are not the same state.
    assert repr(engine_state(storage, table)) == repr(reference.state())
    assert write_counters(storage) == reference.counters


# -- seeded tables -----------------------------------------------------------------

def make_schema():
    return TableSchema("t", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("a", MySQLType.LONG),
        Column.of("b", MySQLType.DOUBLE),
        Column.of("c", MySQLType.VARCHAR, 8),
        Column.of("d", MySQLType.DOUBLE, nullable=False),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("a_idx", ("a",)),
        Index("a_b", ("a", "b")),
        Index("c_a", ("c", "a"))])


def make_db(chunk_size=CHUNK):
    db = Database(DatabaseConfig(batch_size=chunk_size))
    db.create_table(make_schema())
    return db, ReferenceTable(make_schema(), chunk_size)


class Rows:
    """Seeded rows: ``a`` NULL-heavy, ``b`` duplicate-heavy with equal
    ints and floats, ``c`` a nullable string, ``d`` never NULL."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.next_id = 0

    def row(self):
        rng = self.rng
        self.next_id += 1
        return (self.next_id,
                None if rng.random() < 0.6 else rng.randrange(4),
                None if rng.random() < 0.2
                else rng.choice((1, 1.0, 2, 2.0, 3.5, -0.0, 0)),
                None if rng.random() < 0.3 else rng.choice("xyz") * 2,
                round(rng.uniform(-5, 5), 3))

    def take(self, count):
        return [self.row() for _ in range(count)]


def load_both(db, reference, rows):
    db.load("t", rows)
    reference.load(rows)
    assert_same(db.storage, "t", reference)


# -- same state as the per-row load ------------------------------------------------

@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_sizes_around_a_chunk(size):
    db, reference = make_db()
    rows = Rows(size)
    load_both(db, reference, rows.take(size))
    # Then into the partial (or just-full) last chunk, and across it.
    load_both(db, reference, rows.take(size))
    load_both(db, reference, rows.take(1))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_load_sequences(seed):
    db, reference = make_db(chunk_size=random.Random(seed).choice(
        (1, 2, 7, CHUNK)))
    rows = Rows(seed)
    rng = random.Random(seed * 31)
    for __ in range(14):
        before = reference.row_count
        bulk = max(1, -(-before // BULK_LOAD_DIVISOR))
        size = rng.choice((1, 2, bulk - 1, bulk, bulk + 1, CHUNK - 1,
                           CHUNK + 1, 3 * CHUNK))
        load_both(db, reference, rows.take(max(1, size)))


def test_loads_on_both_sides_of_the_divisor():
    db, reference = make_db()
    rows = Rows(7)
    load_both(db, reference, rows.take(10 * CHUNK))
    before = reference.row_count
    entries = write_counters(db.storage)["index_entries_maintained"]
    smaller = before // BULK_LOAD_DIVISOR - 1
    load_both(db, reference, rows.take(smaller))
    # Incremental: one entry per row per index.
    assert write_counters(db.storage)["index_entries_maintained"] \
        == entries + 4 * smaller
    entries += 4 * smaller
    before = reference.row_count
    bulk = -(-before // BULK_LOAD_DIVISOR)
    load_both(db, reference, rows.take(bulk))
    # Bulk: every entry of every index, rebuilt.
    assert write_counters(db.storage)["index_entries_maintained"] \
        == entries + 4 * (before + bulk)


def test_single_row_inserts():
    db, reference = make_db()
    rows = Rows(3)
    load_both(db, reference, rows.take(2 * CHUNK + 3))
    for __ in range(CHUNK + 2):
        row = rows.row()
        literals = ", ".join("NULL" if value is None else repr(value)
                             for value in row)
        db.run(f"INSERT INTO t VALUES ({literals})")
        reference.load([db.storage.store("t").fetch(
            db.storage.store("t").row_count - 1)])
        assert_same(db.storage, "t", reference)


def test_all_null_and_constant_columns():
    db, reference = make_db(chunk_size=4)
    load_both(db, reference, [(i, None, None, None, 0.0) for i in range(6)])
    load_both(db, reference, [(i, 1, 1, "q", 0) for i in range(6, 9)])
    load_both(db, reference, [(9, None, 1.0, None, -0.0)])


def test_index_on_a_loaded_table_matches():
    db, reference = make_db()
    load_both(db, reference, Rows(5).take(3 * CHUNK + 5))
    store = db.storage.store("t")
    for definition in store.schema.indexes:
        fresh = OrderedIndex(definition, store)
        assert repr(fresh._entries) == repr(
            reference.state()[2][definition.name][0])


# -- a rejected load changes nothing -----------------------------------------------

def snapshot(db, table="t"):
    storage = db.storage
    return repr((engine_state(storage, table),
                 storage.counters.snapshot(),
                 storage._mutations[table]))


def test_rejected_load_changes_nothing():
    db = Database()
    db.create_table(TableSchema("t", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("v", MySQLType.LONG),
    ], [Index("PRIMARY", ("id",), primary=True)]))
    db.load("t", [(1, 10), (2, 20)])
    before = snapshot(db)
    with pytest.raises(StorageError) as caught:
        db.load("t", [(3, 30), ("x", 1), (4, 40)])
    assert "'t'" in str(caught.value) and "'id'" in str(caught.value)
    assert snapshot(db) == before
    assert db.storage.store("t").row_count == 2
    assert db.storage.index("t", "PRIMARY")._keys == [(1,), (2,)]


def _bad_load(rng, rows, reference, incremental):
    """A load that must be rejected, and what it breaks."""
    before = reference.row_count
    size = (rng.randrange(1, max(2, before // BULK_LOAD_DIVISOR))
            if incremental else max(2, -(-before // BULK_LOAD_DIVISOR))
            + rng.randrange(CHUNK))
    load = rows.take(size)
    kind = rng.choice(("short", "long", "indexed", "unindexed"))
    if kind == "unindexed" and size == 1 and before % CHUNK == 0:
        kind = "indexed"    # a lone value in a new chunk meets no other
    if kind == "unindexed":
        # Only the zone map compares ``d``: the bad value must share a
        # chunk with another row of the table.
        shared = [offset for offset in range(size)
                  if (before + offset) % CHUNK
                  or offset + 1 < size and CHUNK > 1]
        at = rng.choice(shared)
        load[at] = load[at][:4] + ("text",)
        return load, "'d'"
    at = rng.randrange(size)
    if kind == "short":
        load[at] = load[at][:4]
        return load, "width"
    if kind == "long":
        load[at] = load[at] + (0,)
        return load, "width"
    # ``id`` is in PRIMARY: zone map or index, one of them compares it.
    load[at] = ("key",) + load[at][1:]
    return load, "'id'"


@pytest.mark.parametrize("incremental", [False, True],
                         ids=["bulk", "incremental"])
@pytest.mark.parametrize("seed", range(8))
def test_seeded_bad_loads_change_nothing(seed, incremental):
    rng = random.Random(seed)
    db, reference = make_db()
    rows = Rows(seed)
    load_both(db, reference, rows.take(rng.choice((CHUNK, 11 * CHUNK + 3,
                                                   25 * CHUNK))))
    for __ in range(6):
        before = snapshot(db)
        load, named = _bad_load(rng, rows, reference, incremental)
        with pytest.raises(StorageError) as caught:
            db.load("t", load)
        assert "'t'" in str(caught.value) and named in str(caught.value)
        assert snapshot(db) == before
        # A good load after the bad one lands as if it never happened.
        load_both(db, reference, rows.take(rng.randrange(1, 2 * CHUNK)))


@pytest.mark.parametrize("column, position", [("id", 0), ("d", 4)])
@pytest.mark.parametrize("incremental", [False, True],
                         ids=["bulk", "incremental"])
@pytest.mark.parametrize("seed", range(4))
def test_null_in_a_not_null_column_changes_nothing(seed, incremental,
                                                    column, position):
    # ``id`` is indexed and ``d`` is not; both are NOT NULL.  The NULL
    # lands anywhere in the load, the partial last chunk included.
    rng = random.Random(seed)
    db, reference = make_db()
    rows = Rows(seed)
    load_both(db, reference, rows.take(rng.choice((CHUNK - 3, 11 * CHUNK
                                                   + 3))))
    for __ in range(4):
        before = snapshot(db)
        size = (rng.randrange(1, max(2, reference.row_count
                                     // BULK_LOAD_DIVISOR))
                if incremental else -(-reference.row_count
                                      // BULK_LOAD_DIVISOR)
                + rng.randrange(CHUNK))
        load = rows.take(size)
        at = rng.randrange(size)
        load[at] = load[at][:position] + (None,) + load[at][position + 1:]
        with pytest.raises(StorageError) as caught:
            db.load("t", load)
        assert f"column {column!r} of table 't' cannot be NULL" \
            in str(caught.value)
        assert snapshot(db) == before
        load_both(db, reference, rows.take(rng.randrange(1, 2 * CHUNK)))


def test_sql_insert_and_load_refuse_the_same_null():
    db, __ = make_db()
    with pytest.raises(ExecutionError):
        db.run("INSERT INTO t VALUES (1, NULL, NULL, NULL, NULL)")
    with pytest.raises(StorageError):
        db.load("t", [(1, None, None, None, None)])
    assert db.storage.store("t").row_count == 0


def test_an_index_alone_can_reject():
    # A lone row in a new chunk meets no zone map; PRIMARY still
    # compares its key with the stored ones, before anything is written.
    db, reference = make_db()
    load_both(db, reference, Rows(1).take(20 * CHUNK))
    before = snapshot(db)
    with pytest.raises(StorageError) as caught:
        db.load("t", [("key", None, None, None, 0.0)])
    assert "'PRIMARY'" in str(caught.value) and "'t'" in str(caught.value)
    assert snapshot(db) == before


# -- the golden digest -------------------------------------------------------------

def _stable(value):
    """``repr`` with the NULL key part named, not addressed."""
    if value is NULL_KEY:
        return "NULL_KEY"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_stable, value)) + ",)"
    return repr(value)


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def table_digests(db):
    """``{"table/store|indexes|statistics": digest}`` for one database."""
    db.analyze()
    digests = {}
    for name in sorted(db.catalog.table_names):
        store = db.storage.store(name)
        digests[f"{name}/store"] = _digest(
            repr((chunk.rows, chunk.columns, chunk.null_bits, chunk.mins,
                  chunk.maxs)) for chunk in store.chunks)
        indexes = db.storage._indexes[name.lower()]
        for index in indexes.values():
            assert index._keys == [key for key, __ in index._entries]
        digests[f"{name}/indexes"] = _digest(
            f"{index_name} {_stable(key)} {row_id}"
            for index_name, index in sorted(indexes.items())
            for key, row_id in index._entries)
        digests[f"{name}/statistics"] = _digest(
            [repr(db.catalog.statistics(name))])
    return digests


def corpus_digests():
    tpch = Database()
    load_tpch(tpch, scale=0.05)
    tpcds = Database()
    load_tpcds(tpcds, scale=0.2)
    joins = Database()
    for kind, relations in TOPOLOGIES:
        load_topology(joins, make_topology(kind, relations,
                                           seed=TOPOLOGY_SEED, scale=0.25))
    return {f"{corpus}/{key}": digest
            for corpus, db in (("tpch", tpch), ("tpcds", tpcds),
                               ("joins", joins))
            for key, digest in table_digests(db).items()}


def test_loaded_corpus_matches_the_golden():
    digests = corpus_digests()
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(key for key in golden if digests.get(key) != golden[key])
    assert not moved, f"{len(moved)} digests changed: {moved}"
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus_digests(), indent=1,
                                 sort_keys=True) + "\n")
