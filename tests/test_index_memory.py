"""Counted memory guard for ordered indexes.

An index entry is a slot in the sorted key list and eight bytes of the
row-id array; a one-column index stores the chunk's own value object
as its key, so it allocates no key at all, and a composite index
allocates one key tuple per entry.  ``tracemalloc`` counts the bytes
allocated while the indexes of a 10 000-row table are built and still
held, so a layout that adds a Python object per entry (an entry tuple,
a boxed row id, a 1-tuple key) fails here.  Bytes are counted, not
timed.
"""

import random
import tracemalloc

import pytest

from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.storage.columnstore import ColumnStore
from repro.storage.index import OrderedIndex

ROWS = 10_000


def make_store():
    rng = random.Random(41)
    schema = TableSchema("t", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("a", MySQLType.LONG),
        Column.of("b", MySQLType.DOUBLE),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("a_idx", ("a",)),
        Index("a_b", ("a", "b"))])
    rows = [(row_id * 7919 % ROWS + 10 ** 6,
             None if row_id % 13 == 0 else rng.randrange(ROWS // 4),
             None if row_id % 17 == 0 else rng.random())
            for row_id in range(ROWS)]
    store = ColumnStore(schema, 1024)
    store.commit(store.stage_rows(rows))
    return store


def traced_bytes_per_entry(store, name):
    definition = next(index for index in store.schema.indexes
                      if index.name == name)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = OrderedIndex(definition, store)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert index.entry_count == ROWS
    return held / ROWS


@pytest.mark.parametrize("name, limit", [("PRIMARY", 24), ("a_idx", 24),
                                         ("a_b", 80)])
def test_bytes_per_entry(name, limit):
    per_entry = traced_bytes_per_entry(make_store(), name)
    assert per_entry <= limit, f"{name}: {per_entry:.1f} B per entry"
