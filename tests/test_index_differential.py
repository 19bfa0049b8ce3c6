"""Differential test of index reads against a brute-force model.

Every index of a small table is compared, after every write, with a
plain sorted list of ``(key_of(row), row_id)`` over the rows the model
table holds.  Seeded streams drive bulk and incremental loads (on both
sides of ``BULK_LOAD_DIVISOR``), UPDATEs that do and do not move a key,
and DELETEs (each hole filled with the last row, which re-points that
row's entries).  The values include NULLs, composite keys with a NULL
part, heavy duplicates, ``1`` beside ``1.0``, and tables of
``batch_size - 1``, ``batch_size`` and ``batch_size + 1`` rows.

Checked after every step, for every index: :meth:`OrderedIndex.lookup`
on full and prefix keys (present, absent, and with a NULL part),
:meth:`OrderedIndex.range_scan` for every inclusive / exclusive pair
over prefix, full and upper-only bounds, :meth:`~OrderedIndex.ordered_row_ids`
in both directions, :meth:`~OrderedIndex.entries` and
:attr:`~OrderedIndex.entry_count`.  No wall clock anywhere.
"""

import itertools
import random

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.storage.engine import BULK_LOAD_DIVISOR
from repro.storage.index import NULL_KEY

CHUNK = 16
STEPS = 24
A_VALUES = (None, 0, 1, 1.0, 2, 3, 7)
B_VALUES = (None, -1.5, 0.0, 1, 1.0, 2.5)
C_VALUES = (None, "", "a", "ab", "b", "zz")
#: Bound values beside the stored ones: absent, and between stored ones.
A_PROBES = A_VALUES[1:] + (-1, 1.5, 99)
B_PROBES = B_VALUES[1:] + (-9, 0.5, 3)
C_PROBES = C_VALUES[1:] + ("aa", "c")


def make_db():
    db = Database(DatabaseConfig(batch_size=CHUNK))
    db.create_table(TableSchema("t", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("a", MySQLType.DOUBLE),
        Column.of("b", MySQLType.DOUBLE),
        Column.of("c", MySQLType.VARCHAR, 4),
        Column.of("d", MySQLType.LONG, nullable=False),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("a_idx", ("a",)),
        Index("b_idx", ("b",)),
        Index("a_b", ("a", "b")),
        Index("c_a", ("c", "a"))]))
    return db


class Model:
    """The table as a list of rows, row id = position, with the
    storage engine's DELETE rule: the last row fills each hole."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = []
        self.next_id = 0

    def new_row(self):
        rng = self.rng
        self.next_id += 1
        return (self.next_id, rng.choice(A_VALUES), rng.choice(B_VALUES),
                rng.choice(C_VALUES), rng.randrange(5))

    def load(self, db, count):
        rows = [self.new_row() for __ in range(count)]
        db.load("t", rows)
        self.rows.extend(rows)

    def update(self, db, count, move_key):
        """Overwrite ``count`` rows: new key columns when ``move_key``,
        else only the unindexed ``d``."""
        rng = self.rng
        row_ids = rng.sample(range(len(self.rows)), count)
        new_rows = []
        for row_id in row_ids:
            old = self.rows[row_id]
            new = ((old[0], rng.choice(A_VALUES), rng.choice(B_VALUES),
                    rng.choice(C_VALUES), old[4]) if move_key
                   else old[:4] + (old[4] + 1,))
            new_rows.append(new)
            self.rows[row_id] = new
        db.storage.update_rows("t", row_ids, new_rows)

    def delete(self, db, count):
        row_ids = self.rng.sample(range(len(self.rows)), count)
        if self.rng.random() < 0.5:
            # Deleting the last row leaves nothing to re-point.
            row_ids = sorted(set(row_ids) | {len(self.rows) - 1})
        for row_id in sorted(row_ids, reverse=True):
            last = self.rows.pop()
            if row_id < len(self.rows):
                self.rows[row_id] = last
        db.storage.delete_rows("t", row_ids)


def lookup_keys(width):
    """Full keys, prefixes and keys with a NULL part, per index width."""
    if width == 1:
        return [(value,) for value in A_PROBES + B_PROBES + (None,)]
    return ([(a,) for a in A_PROBES[:6]] + [(None,)]
            + [(a, b) for a in A_PROBES[:4] for b in B_PROBES[:4]]
            + [(1, None), (None, 1)])


def string_lookup_keys():
    return ([(c,) for c in C_PROBES] + [(c, a) for c in C_PROBES[:4]
                                        for a in A_PROBES[:3]]
            + [("a", None)])


def bound_pairs(first, second):
    """``(low, high)`` bounds: prefix, full and upper-only, over two
    columns' probe values (``second`` is None for a one-column index)."""
    pairs = []
    for low, high in itertools.combinations(first[:6], 2):
        pairs += [((low,), (high,)), ((high,), (low,)), ((low,), None),
                  (None, (high,))]
    if second is not None:
        for x, (low, high) in itertools.product(
                first[:3], itertools.combinations(second[:4], 2)):
            pairs += [((x, low), (x, high)), ((x,), (x, high)),
                      ((x, low), (first[3], high))]
    return pairs


def model_entries(index, rows):
    return sorted((index.key_of(row), row_id)
                  for row_id, row in enumerate(rows))


def expected_lookup(entries, key):
    if any(part is None for part in key):
        return []
    return [row_id for k, row_id in entries if k[:len(key)] == key]


def expected_range(entries, low, high, low_inclusive, high_inclusive):
    prefix = low or ()
    upper_only = high is not None and len(high) > len(prefix)
    out = []
    for key, row_id in entries:
        if low is not None:
            part = key[:len(low)]
            if part < low or (part == low and not low_inclusive):
                continue
        if high is not None:
            part = key[:len(high)]
            if part > high or (part == high and not high_inclusive):
                continue
        if upper_only and key[:len(prefix)] == prefix \
                and key[len(prefix)] is NULL_KEY:
            continue
        out.append(row_id)
    return out


def assert_index_matches(db, model):
    store = db.storage.store("t")
    assert store.row_count == len(model.rows)
    for definition in store.schema.indexes:
        index = db.storage.index("t", definition.name)
        name = definition.name
        entries = model_entries(index, model.rows)
        ids = [row_id for __, row_id in entries]
        assert index.entries() == entries, name
        assert index.entry_count == len(entries), name
        assert list(index.ordered_row_ids()) == ids, name
        assert list(index.ordered_row_ids(descending=True)) == ids[::-1], name
        if name == "c_a":
            keys = string_lookup_keys()
            pairs = bound_pairs(C_PROBES, A_PROBES)
        elif name == "PRIMARY":
            keys = [(row_id,) for row_id in range(-1, model.next_id + 2)]
            pairs = bound_pairs((0, 3, 4, model.next_id // 2,
                                 model.next_id, model.next_id + 1), None)
        else:
            width = len(definition.column_names)
            first = B_PROBES if name == "b_idx" else A_PROBES
            keys = lookup_keys(width)
            pairs = bound_pairs(first, B_PROBES if width == 2 else None)
        for key in keys:
            assert index.lookup(key) == expected_lookup(entries, key), \
                (name, key)
        for (low, high), flags in itertools.product(
                pairs, itertools.product((True, False), repeat=2)):
            assert index.range_scan(low, high, *flags) == expected_range(
                entries, low, high, *flags), (name, low, high, flags)


def step(db, model, rng):
    rows = len(model.rows)
    kinds = ["bulk", "incremental"]
    if rows:
        kinds += ["move", "keep", "delete"]
    kind = rng.choice(kinds)
    if kind == "bulk":
        model.load(db, max(1, rows // 10) + rng.randrange(CHUNK))
    elif kind == "incremental":
        model.load(db, rng.randrange(1, max(2, rows // 10)))
    elif kind == "delete":
        model.delete(db, rng.randrange(1, min(rows, 4) + 1))
    else:
        model.update(db, rng.randrange(1, min(rows, 4) + 1),
                     move_key=kind == "move")


@pytest.mark.parametrize("seed", range(6))
def test_seeded_stream_matches_the_model(seed):
    rng = random.Random(seed)
    db, model = make_db(), Model(rng)
    model.load(db, 3 * CHUNK + rng.randrange(CHUNK))
    assert_index_matches(db, model)
    for __ in range(STEPS):
        step(db, model, rng)
        assert_index_matches(db, model)


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("incremental", [False, True],
                         ids=["bulk", "incremental"])
def test_tables_around_a_chunk(size, incremental):
    rng = random.Random(size * 2 + incremental)
    db, model = make_db(), Model(rng)
    if incremental:
        # A single-row load into more than BULK_LOAD_DIVISOR rows is
        # bisected in, not re-sorted.
        model.load(db, BULK_LOAD_DIVISOR + 1)
        while len(model.rows) < size:
            model.load(db, 1)
    else:
        model.load(db, size)
    assert_index_matches(db, model)
    for kind in ("move", "keep", "delete"):
        if kind == "delete":
            model.delete(db, 1)
        else:
            model.update(db, min(3, len(model.rows)), move_key=kind == "move")
        assert_index_matches(db, model)
