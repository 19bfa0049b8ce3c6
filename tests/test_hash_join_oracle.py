"""Hash joins checked against SQLite, an engine that shares no code with
this one.

Seeded tables with NULL-heavy, duplicate-heavy keys are loaded into the
engine and into stdlib ``sqlite3``; INNER, LEFT, ``EXISTS`` (semi) and
``NOT EXISTS`` (anti) joins on a single and a composite key, each with
and without a non-equi residual, must return the same multiset of rows.
Table sizes sit on the batch boundary (``batch_size - 1``,
``batch_size``, ``batch_size + 1``) at batch sizes 1, 7 and 1024.

Each statement's plan is asserted to hold the intended hash join (kind,
key count, residual or not), so a planner change cannot route around
the test.  Small tables are planned from the statistics of a larger
load (rows past the target size are deleted after ANALYZE), so both
optimizers plan hash joins at every size.  The oracle side uses only
``sqlite3`` and the generated rows.  A last test checks that a join
whose keys fan out expands its positions about a batch at a time.
"""

import collections
import random
import sqlite3

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.executor.plan import HashJoinNode
from repro.mysql_types import MySQLType

BATCH_SIZES = (1, 7, 1024)
#: (probe-side table rows, other table rows) as offsets from the batch
#: size.
SIZES = ((-1, 1), (0, 0), (1, -1))
#: Rows loaded before ANALYZE when a table is smaller: the optimizers
#: cost a hash join over these statistics.
PLANNED_ROWS = 64

KEYS = {
    "single": ("{x}.k = {y}.k",),
    "composite": ("{x}.k = {y}.k", "{x}.k2 = {y}.k2"),
}
RESIDUAL = "{x}.v < {y}.v"


def _on(keys, residual, x, y):
    parts = list(KEYS[keys]) + ([RESIDUAL] if residual else [])
    return " AND ".join(part.format(x=x, y=y) for part in parts)


def statement(kind, keys, residual, pair):
    a, b = f"a{pair}", f"b{pair}"
    if kind == "inner":
        return (f"SELECT {a}.id, {b}.id, {b}.v FROM {a} JOIN {b} "
                f"ON {_on(keys, residual, a, b)}")
    if kind == "left":
        return (f"SELECT {a}.id, {b}.id, {b}.v FROM {a} LEFT JOIN {b} "
                f"ON {_on(keys, residual, a, b)}")
    negate = "NOT " if kind == "antijoin" else ""
    return (f"SELECT {a}.id, {a}.k FROM {a} WHERE {negate}EXISTS "
            f"(SELECT 1 FROM {b} WHERE {_on(keys, residual, a, b)})")


KINDS = ("inner", "left", "semi", "antijoin")
#: (kind, keys, residual) of every statement shape.
SHAPES = [(kind, keys, residual) for kind in KINDS for keys in KEYS
          for residual in (False, True)]
#: The shapes MySQL's planner takes a hash join for: it has no hash
#: LEFT join, and a semi or anti join with a residual stays a nested
#: loop.  Orca hashes every shape.
MYSQL_HASHED = [(kind, keys, residual) for kind, keys, residual in SHAPES
                if kind == "inner" or kind in ("semi", "antijoin")
                and not residual]
CASES = [(shape, "orca") for shape in SHAPES] \
    + [(shape, "mysql") for shape in MYSQL_HASHED]


def _rows(rng, count):
    """``count`` rows of (id, k, k2, v): about a third of the keys NULL,
    each non-NULL key repeated about four times."""
    domain = max(2, count // 4)
    return [(i,
             None if rng.random() < 0.3 else rng.randrange(domain),
             None if rng.random() < 0.3 else rng.randrange(2),
             None if rng.random() < 0.2 else rng.randrange(-5, 5))
            for i in range(count)]


def _schema(name):
    return TableSchema(name, [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("k", MySQLType.LONGLONG),
        Column.of("k2", MySQLType.LONGLONG),
        Column.of("v", MySQLType.LONGLONG),
    ], [Index("PRIMARY", ("id",), primary=True)])


def _tables(batch_size):
    """``{table: (rows loaded, rows kept)}``, one a/b pair per size."""
    rng = random.Random(batch_size)
    tables = {}
    for pair, offsets in enumerate(SIZES):
        for prefix, offset in zip("ab", offsets):
            kept = batch_size + offset
            tables[f"{prefix}{pair}"] = (
                _rows(rng, max(kept, PLANNED_ROWS)), kept)
    return tables


def _engine(batch_size, tables):
    db = Database(DatabaseConfig(batch_size=batch_size))
    for name, (rows, __) in tables.items():
        db.create_table(_schema(name))
        db.load(name, rows)
    db.analyze()
    for name, (rows, kept) in tables.items():
        if kept < len(rows):
            db.run(f"DELETE FROM {name} WHERE id >= {kept}")
    return db


def _oracle(tables):
    oracle = sqlite3.connect(":memory:")
    for name, (rows, kept) in tables.items():
        oracle.execute(f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, "
                       "k INTEGER, k2 INTEGER, v INTEGER)")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)",
                           rows[:kept])
    return oracle


@pytest.fixture(scope="module", params=BATCH_SIZES,
                ids=[f"batch{size}" for size in BATCH_SIZES])
def pair_dbs(request):
    tables = _tables(request.param)
    oracle = _oracle(tables)
    yield _engine(request.param, tables), oracle
    oracle.close()


def _hash_joins(executor):
    return [(node.kind.value, len(node.build_key_exprs),
             bool(node.residual_conjuncts))
            for node in executor.iter_plan_nodes()
            if isinstance(node, HashJoinNode)]


@pytest.mark.parametrize("pair", range(len(SIZES)))
@pytest.mark.parametrize("shape, optimizer", CASES,
                         ids=[f"{'-'.join(map(str, shape))}-{optimizer}"
                              for shape, optimizer in CASES])
def test_hash_join_matches_sqlite(pair_dbs, pair, shape, optimizer):
    db, oracle = pair_dbs
    kind, keys, residual = shape
    sql = statement(kind, keys, residual, pair)
    executor = db._compile(sql, optimizer)[0]
    assert _hash_joins(executor) == [(kind, len(KEYS[keys]), residual)], \
        db.explain(sql, optimizer=optimizer)
    rows = executor.execute(mode="batch")
    expected = oracle.execute(sql).fetchall()
    assert collections.Counter(rows) == collections.Counter(expected), sql


def test_the_tables_sit_on_the_batch_boundary(pair_dbs):
    db, oracle = pair_dbs
    for pair, offsets in enumerate(SIZES):
        for prefix, offset in zip("ab", offsets):
            name = f"{prefix}{pair}"
            counted = db.run(f"SELECT COUNT(*) FROM {name}").rows
            assert counted == oracle.execute(
                f"SELECT COUNT(*) FROM {name}").fetchall()
            assert counted[0][0] - offset == db.config.batch_size


@pytest.mark.parametrize("size", (7, 1024))
def test_a_join_that_fans_out_holds_about_a_batch_of_positions(
        size, monkeypatch):
    """Every probe row matches two of four build rows, so a probe
    batch's candidates outnumber its rows: they are expanded a piece of
    whole probe rows at a time, each piece holding at most
    ``batch_size`` candidates (or one probe row)."""
    db = Database(DatabaseConfig(batch_size=size))
    for name, count in (("wide", 3 * size), ("dim", 4)):
        db.create_table(_schema(name))
        db.load(name, [(i, i % 2, 0, i) for i in range(count)])
    db.analyze()
    pieces = []
    original = HashJoinNode._matches

    def spy(self, buckets, rows, *args):
        pieces.append((rows, sum(map(len, buckets))))
        return original(self, buckets, rows, *args)

    monkeypatch.setattr(HashJoinNode, "_matches", spy)
    sql = "SELECT wide.id, dim.id FROM wide JOIN dim ON wide.k = dim.k"
    executor = db._compile(sql, "orca")[0]
    assert _hash_joins(executor) == [("inner", 1, False)]
    result = executor.execute(mode="batch")
    assert sorted(result) == sorted(
        (w, d) for w in range(3 * size) for d in range(4) if w % 2 == d % 2)
    assert all(candidates <= size or len(rows) == 1
               for rows, candidates in pieces)
    assert any(rows.start > 0 for rows, __ in pieces)
