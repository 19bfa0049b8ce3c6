"""Differential test for row-level DML.

A seeded stream of mixed INSERT / UPDATE / DELETE statements runs
against a small table with a primary, a unique and a non-unique
composite index and ``batch_size=8``, so chunk boundaries are crossed
constantly by single-row and table-wide writes alike (both take the
same row-level path; only a large append re-sorts).  A plain list
of tuples predicts every statement's outcome — affected rows or
rejection — and after *every* statement the table's rows must be held
once (an index fetch and a table scan hand back the very same tuple,
chunk *i* holds row ids ``[i * size, (i + 1) * size)``), each index and
each chunk's columns must equal what a from-scratch rebuild over those
rows produces, and row-mode, batch-mode and two-worker scans must agree
on rows and on the rows they read.
No wall clock anywhere.
"""

import random
from collections import Counter

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.errors import ExecutionError
from repro.mysql_types import MySQLType
from repro.observability import find_spans
from repro.storage.columnstore import ColumnStore
from repro.storage.index import OrderedIndex

STATEMENTS = 600
BATCH = 8
ID, CODE, GRP, VAL, SEQ, NOTE = range(6)
NOT_NULL = (ID, NOTE)
UNIQUE = (ID, CODE)


def make_db():
    db = Database(DatabaseConfig(batch_size=BATCH))
    db.create_table(TableSchema("t", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("code", MySQLType.LONG),
        Column.of("grp", MySQLType.LONG),
        Column.of("val", MySQLType.DOUBLE),
        Column.of("seq", MySQLType.LONG),
        Column.of("note", MySQLType.VARCHAR, 10, nullable=False),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("code_uq", ("code",), unique=True),
        Index("grp_val", ("grp", "val"))]))
    return db


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def null_safe(row):
    return tuple((value is not None, value) for value in row)


class Rejected(Exception):
    """The shadow's verdict that a statement must fail."""


class Shadow:
    """The table as a plain list of tuples, plus the statement stream."""

    def __init__(self, rng):
        self.rng = rng
        self.rows = []
        self.next_id = 1
        self.next_code = 1000
        self.next_seq = 0

    # -- the model -------------------------------------------------------------

    def _commit(self, rows):
        for row in rows:
            if any(row[position] is None for position in NOT_NULL):
                raise Rejected("NOT NULL")
        for position in UNIQUE:
            keys = Counter(row[position] for row in rows
                           if row[position] is not None)
            if keys and max(keys.values()) > 1:
                raise Rejected("duplicate key")
        self.rows = rows

    def insert(self, new_rows):
        self._commit(self.rows + list(new_rows))
        return len(new_rows)

    def delete(self, predicate):
        keep = [row for row in self.rows if not predicate(row)]
        removed = len(self.rows) - len(keep)
        self._commit(keep)
        return removed

    def update(self, predicate, assign):
        changed = 0
        rows = []
        for row in self.rows:
            if predicate(row):
                changed += 1
                row = assign(row)
            rows.append(row)
        self._commit(rows)
        return changed

    # -- value pools -----------------------------------------------------------

    def fresh_row(self):
        rng = self.rng
        row = (self.next_id,
               None if rng.random() < 0.3 else self.next_code,
               None if rng.random() < 0.15 else rng.randrange(6),
               None if rng.random() < 0.15
               else round(rng.uniform(0.0, 100.0), 2),
               self.next_seq,
               rng.choice(("a", "b", "c")))
        self.next_id += 1
        self.next_code += 1
        self.next_seq += 1
        return row

    def some(self, position, default):
        values = [row[position] for row in self.rows
                  if row[position] is not None]
        return self.rng.choice(values) if values else default

    # -- the statement stream --------------------------------------------------
    #
    # Each maker returns (sql, apply) where apply() runs the same change
    # on the model and returns the affected-row count or raises Rejected.

    @staticmethod
    def insert_stmt(rows, columns=None):
        names = "" if columns is None else f" ({', '.join(columns)})"
        values = ", ".join(
            "(" + ", ".join(sql_literal(v) for v in row) + ")"
            for row in rows)
        return f"INSERT INTO t{names} VALUES {values}"

    def make_insert_one(self):
        row = self.fresh_row()
        return self.insert_stmt([row]), lambda: self.insert([row])

    def make_insert_many(self):
        rows = [self.fresh_row() for __ in range(self.rng.randrange(2, 6))]
        return self.insert_stmt(rows), lambda: self.insert(rows)

    def make_insert_partial_columns(self):
        # Omits the nullable columns; they must come out NULL.
        row = self.fresh_row()
        full = (row[ID], None, None, None, row[SEQ], row[NOTE])
        sql = self.insert_stmt([(row[ID], row[SEQ], row[NOTE])],
                               ("id", "seq", "note"))
        return sql, lambda: self.insert([full])

    def make_insert_omits_not_null(self):
        row = self.fresh_row()
        sql = self.insert_stmt([(row[ID], row[CODE])], ("id", "code"))
        full = (row[ID], row[CODE], None, None, None, None)
        return sql, lambda: self.insert([full])

    def make_insert_bad_kth(self):
        # A multi-row INSERT whose k-th row (k >= 2) must sink it all.
        rows = [self.fresh_row() for __ in range(self.rng.randrange(3, 6))]
        k = self.rng.randrange(1, len(rows))
        bad = list(rows[k])
        flavour = self.rng.randrange(4)
        if flavour == 0:
            bad[NOTE] = None
        elif flavour == 1:
            bad[ID] = self.some(ID, rows[0][ID])
        elif flavour == 2:
            bad[ID] = rows[0][ID]
        else:
            bad[CODE] = self.some(CODE, None)
            if bad[CODE] is None:
                bad[NOTE] = None
        rows[k] = tuple(bad)
        return self.insert_stmt(rows), lambda: self.insert(rows)

    def make_delete(self):
        rng = self.rng
        flavour = rng.randrange(9)
        if flavour == 0:      # primary key, hit
            key = self.some(ID, -1)
            return (f"DELETE FROM t WHERE id = {key}",
                    lambda r: r[ID] == key)
        if flavour == 1:      # primary key, miss
            return "DELETE FROM t WHERE id = -5", lambda r: False
        if flavour == 2:      # unique key
            key = self.some(CODE, -1)
            return (f"DELETE FROM t WHERE code = {key}",
                    lambda r: r[CODE] == key)
        if flavour == 3:      # composite prefix + range + residual
            grp = rng.randrange(6)
            cut = round(rng.uniform(0.0, 100.0), 2)
            note = rng.choice(("a", "b", "c"))
            return (f"DELETE FROM t WHERE grp = {grp} AND val > {cut} "
                    f"AND note = '{note}'",
                    lambda r: r[GRP] == grp and r[VAL] is not None
                    and r[VAL] > cut and r[NOTE] == note)
        if flavour == 4:      # composite prefix only: many rows
            grp = rng.randrange(6)
            return (f"DELETE FROM t WHERE grp = {grp}",
                    lambda r: r[GRP] == grp)
        if flavour == 5:      # primary-key range, constant on the left
            low = self.some(ID, 0)
            high = low + rng.randrange(1, 8)
            return (f"DELETE FROM t WHERE {low} <= id AND id < {high}",
                    lambda r: low <= r[ID] < high)
        if flavour == 6:      # nothing sargable: scan
            cut = round(rng.uniform(0.0, 30.0), 2)
            return (f"DELETE FROM t WHERE val < {cut}",
                    lambda r: r[VAL] is not None and r[VAL] < cut)
        if flavour == 7:      # NULL keys are not in any index: scan
            return ("DELETE FROM t WHERE code IS NULL AND grp IS NULL",
                    lambda r: r[CODE] is None and r[GRP] is None)
        # = NULL is never true, indexed column or not
        return "DELETE FROM t WHERE grp = NULL", lambda r: False

    def make_delete_stmt(self):
        sql, predicate = self.make_delete()
        return sql, lambda: self.delete(predicate)

    def make_delete_all(self):
        return "DELETE FROM t", lambda: self.delete(lambda r: True)

    def make_update(self):
        rng = self.rng
        flavour = rng.randrange(12)

        def put(position, value):
            return lambda r: r[:position] + (value,) + r[position + 1:]

        if flavour == 0:      # no key changes
            key = self.some(ID, -1)
            return (f"UPDATE t SET note = 'u', seq = seq + 0 "
                    f"WHERE id = {key}",
                    lambda r: r[ID] == key, put(NOTE, "u"))
        if flavour == 1:      # composite key's second column changes
            key = self.some(ID, -1)
            return (f"UPDATE t SET val = val + 1.5 WHERE id = {key}",
                    lambda r: r[ID] == key,
                    lambda r: put(VAL, None if r[VAL] is None
                                  else r[VAL] + 1.5)(r))
        if flavour == 2:      # primary key moves to a fresh value
            key = self.some(ID, -1)
            fresh = self.next_id
            self.next_id += 1
            return (f"UPDATE t SET id = {fresh} WHERE id = {key}",
                    lambda r: r[ID] == key, put(ID, fresh))
        if flavour == 3:      # primary key collides with another row
            key = self.some(ID, -1)
            other = self.some(ID, -2)
            return (f"UPDATE t SET id = {other} WHERE id = {key}",
                    lambda r: r[ID] == key, put(ID, other))
        if flavour == 4:      # unique key to NULL (leaves the index)
            key = self.some(CODE, -1)
            return (f"UPDATE t SET code = NULL WHERE code = {key}",
                    lambda r: r[CODE] == key, put(CODE, None))
        if flavour == 5:      # NULL unique key gets a value (enters it)
            fresh = self.next_code
            self.next_code += 1
            key = self.some(ID, -1)
            return (f"UPDATE t SET code = {fresh} WHERE id = {key}",
                    lambda r: r[ID] == key, put(CODE, fresh))
        if flavour == 6:      # same unique key on k rows: fails if k >= 2
            grp = rng.randrange(6)
            fresh = self.next_code
            self.next_code += 1
            return (f"UPDATE t SET code = {fresh} WHERE grp = {grp}",
                    lambda r: r[GRP] == grp, put(CODE, fresh))
        if flavour == 7:      # many rows, key shifts past everything
            grp = rng.randrange(6)
            self.next_id += 10_000
            return (f"UPDATE t SET id = id + 10000 WHERE grp = {grp}",
                    lambda r: r[GRP] == grp,
                    lambda r: put(ID, r[ID] + 10_000)(r))
        if flavour == 8:      # composite key to NULL on many rows
            grp = rng.randrange(6)
            return (f"UPDATE t SET grp = NULL WHERE grp = {grp} "
                    f"AND val >= 50",
                    lambda r: r[GRP] == grp and r[VAL] is not None
                    and r[VAL] >= 50, put(GRP, None))
        if flavour == 9:      # NOT NULL violated
            key = self.some(ID, -1)
            return (f"UPDATE t SET note = NULL WHERE id >= {key}",
                    lambda r: r[ID] >= key, put(NOTE, None))
        if flavour == 10:     # every row, scan, old values on the right
            return ("UPDATE t SET val = seq, seq = seq + 1",
                    lambda r: True,
                    lambda r: put(SEQ, None if r[SEQ] is None
                                  else r[SEQ] + 1)(
                        put(VAL, r[SEQ])(r)))
        # zero rows through the composite index
        return ("UPDATE t SET note = 'z' WHERE grp = 77 AND val < 3",
                lambda r: False, put(NOTE, "z"))

    def make_update_stmt(self):
        sql, predicate, assign = self.make_update()
        return sql, lambda: self.update(predicate, assign)

    def next_statement(self):
        size = len(self.rows)
        roll = self.rng.random()
        if size < 40:
            makers = (self.make_insert_many, self.make_insert_many,
                      self.make_insert_one, self.make_update_stmt)
        elif size > 160:
            makers = (self.make_delete_stmt, self.make_delete_stmt,
                      self.make_update_stmt, self.make_insert_one)
        elif roll < 0.01:
            makers = (self.make_delete_all,)
        else:
            makers = (self.make_insert_one, self.make_insert_many,
                      self.make_insert_partial_columns,
                      self.make_insert_omits_not_null,
                      self.make_insert_bad_kth,
                      self.make_delete_stmt, self.make_delete_stmt,
                      self.make_update_stmt, self.make_update_stmt,
                      self.make_update_stmt)
        return self.rng.choice(makers)()


# -- structural checks -----------------------------------------------------------

def assert_structures_match_rebuild(db, shadow_rows):
    store = db.storage.store("t")
    scanned = list(db.storage.table_scan("t"))
    assert sorted(scanned, key=null_safe) \
        == sorted(shadow_rows, key=null_safe)

    # One owner: chunk i holds row ids [i * size, (i + 1) * size), only
    # the last chunk is partial, and the batch scan and every index
    # fetch hand back the very tuple the row scan yields at that id.
    size = store.chunk_size
    assert store.row_count == len(scanned)
    full, rest = divmod(len(scanned), size)
    assert [len(chunk) for chunk in store.chunks] \
        == [size] * full + [rest] * (rest > 0)
    batches = list(db.storage.table_scan_batches("t"))
    for number, chunk in enumerate(store.chunks):
        assert batches[number] is chunk.rows, number
        for offset, row in enumerate(chunk.rows):
            assert row is scanned[number * size + offset], (number, offset)

    for definition in store.schema.indexes:
        index = db.storage.index("t", definition.name)
        entries = index.entries()
        for __, row_id in entries:
            assert store.fetch(row_id) is scanned[row_id], definition.name
        assert entries == OrderedIndex(definition, store).entries(), \
            definition.name

    fresh = ColumnStore(store.schema, size)
    fresh.commit(fresh.stage_rows(scanned))
    assert len(store.chunks) == len(fresh.chunks)
    for number, (chunk, want) in enumerate(zip(store.chunks, fresh.chunks)):
        assert chunk.columns == want.columns, number


def assert_scans_agree(db, shadow_rows, cut, forked):
    """Row and batch scans — and, when ``forked``, a batch and a
    two-worker pre-aggregation — under a range predicate on the
    unindexed ``seq``: the same rows, and every run reads the whole
    table."""
    where = f"FROM t WHERE seq < {cut}"
    want = sorted((row for row in shadow_rows
                   if row[SEQ] is not None and row[SEQ] < cut),
                  key=null_safe)
    ids = [row[ID] for row in want]
    want_agg = [(len(want), sum(row[SEQ] for row in want) if want else None,
                 min(ids, default=None), max(ids, default=None))]
    scan = f"SELECT id, code, grp, val, seq, note {where}"
    agg = f"SELECT COUNT(*), SUM(seq), MIN(id), MAX(id) {where}"
    runs = [(scan, want, {"executor_mode": "row"}),
            (scan, want, {"executor_mode": "batch"})]
    if forked:
        runs += [(agg, want_agg, {"executor_mode": "batch"}),
                 (agg, want_agg, {"executor_mode": "batch",
                                  "executor_workers": 2})]
    counters = db.storage.counters
    for sql, expected, kwargs in runs:
        before = counters.rows_scanned
        rows = db.run(sql, use_plan_cache=False, **kwargs).rows
        assert counters.rows_scanned - before == len(shadow_rows), kwargs
        assert sorted(rows, key=null_safe) == expected, kwargs


# -- the test --------------------------------------------------------------------

def test_every_structure_matches_a_rebuild_after_every_statement(
        force_fanout):
    rng = random.Random(20260925)
    db = make_db()
    # The table starts empty: the stream's own INSERTs fill it, so the
    # first rows take the same path as the rest.
    shadow = Shadow(rng)
    tally = Counter()
    # The forked pre-aggregation costs two forks per check; sample it.
    fork_every = 10

    for number in range(STATEMENTS):
        sql, apply = shadow.next_statement()
        before_rows = list(shadow.rows)
        epoch = db.catalog.epoch("t")
        try:
            expected = apply()
        except Rejected:
            expected = None

        if expected is None:
            with pytest.raises(ExecutionError):
                db.run(sql)
            assert shadow.rows == before_rows
            tally["rejected"] += 1
        else:
            result = db.run(sql, trace=True)
            assert result.rows == [(expected,)], sql
            span = find_spans(result.trace, "execute")[0]
            assert span.attributes["rows"] == expected
            tally[span.attributes.get("access", "none")] += 1
            tally["zero_rows" if expected == 0 else
                  "many_rows" if expected >= 5 else "few_rows"] += 1

        # No write, applied or rejected, moves what plans are keyed on.
        assert db.catalog.epoch("t") == epoch, sql
        assert_structures_match_rebuild(db, shadow.rows)
        cut = rng.randrange(shadow.next_seq + 1)
        assert_scans_agree(db, shadow.rows, cut,
                           forked=number % fork_every == 0)

    # The stream really covered what it claims to.
    assert tally["rejected"] >= 40, tally
    assert tally["index"] >= 150, tally
    assert tally["scan"] >= 40, tally
    assert tally["zero_rows"] >= 20, tally
    assert tally["many_rows"] >= 20, tally
    assert db.metrics.count("executor.parallel_fanout") >= 10
    assert db.metrics.count("storage.dml_rows_changed") > 0
    assert db.metrics.count("storage.index_entries_maintained") > 0
    assert db.metrics.count("storage.chunks_patched") > 0


def test_delete_all_then_reinsert():
    db = make_db()
    shadow = Shadow(random.Random(7))
    rows = [shadow.fresh_row() for __ in range(3 * BATCH + 3)]
    db.run(shadow.insert_stmt(rows))
    shadow.insert(rows)
    assert db.run("DELETE FROM t").rows == [(len(rows),)]
    shadow.delete(lambda r: True)
    assert_structures_match_rebuild(db, [])
    assert db.storage.store("t").chunks == []
    again = [shadow.fresh_row() for __ in range(BATCH + 1)]
    for row in again:       # one at a time: crosses a chunk boundary
        db.run(shadow.insert_stmt([row]))
        shadow.insert([row])
        assert_structures_match_rebuild(db, shadow.rows)
    assert len(db.storage.store("t").chunks) == 2
