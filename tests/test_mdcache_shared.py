"""Orca's shared metadata cache never answers what the catalog no
longer says, and an aborted detour never writes to it.

Every ``Database`` owns one :class:`repro.orca.mdcache.MDCache` that all
Orca detours share: the parsed DXL relation and statistics of each
table, valid for the table's catalog epoch.  The reference here is the
same database compiled with no shared cache at all (every detour then
fetches every entry from the metadata provider), so a stale slot shows
up as a different EXPLAIN — row estimates and costs come straight from
the statistics.
"""

import random

import pytest

from repro import Database, DatabaseConfig, FallbackReason, FaultInjector
from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.resilience import BRIDGE_INJECTION_SITES

from tests.conftest import build_mini_db


def cold_explain(db, sql):
    """EXPLAIN of ``sql`` at the database's current state, compiled as a
    database with a cold cache would: every entry from the provider."""
    shared = db.mdcache
    db.mdcache = None
    try:
        return db.explain(sql, optimizer="orca")
    finally:
        db.mdcache = shared


def provider_fetches(db):
    return (db.metrics.count("metadata.requests.statistics_dxl"),
            db.metrics.count("metadata.requests.relation_dxl"))


# -- a seeded history of DDL, writes and ANALYZE -------------------------------------


def _long(name, nullable=True):
    return Column.of(name, MySQLType.LONG, nullable=nullable)


#: ``w`` is dropped and created again under these shapes in turn: the
#: same three query columns, with different extra columns and indexes.
W_SHAPES = (
    ([_long("id", False), _long("grp"), _long("val")],
     [Index("PRIMARY", ("id",), primary=True), Index("w_grp", ("grp",))]),
    ([_long("id", False), _long("grp"), _long("val"), _long("extra")],
     [Index("PRIMARY", ("id",), primary=True)]),
    ([_long("id", False), _long("val"), _long("grp")],
     [Index("PRIMARY", ("id",), primary=True),
      Index("w_grp_val", ("grp", "val"))]),
)

BASE_QUERIES = (
    "SELECT COUNT(*) FROM a, b, w "
    "WHERE a.x = b.x AND b.y = w.grp AND a.v < 40",
    "SELECT w.grp, COUNT(*) FROM w, a, b "
    "WHERE w.id = a.id AND a.x = b.x AND w.val > 10 GROUP BY w.grp",
)


def created_query(table):
    return (f"SELECT COUNT(*) FROM a, b, {table} "
            f"WHERE a.x = b.x AND b.y = {table}.grp")


class History:
    """The database plus what the test needs to know about its rows."""

    def __init__(self, rng):
        self.rng = rng
        self.db = Database(DatabaseConfig(complex_query_threshold=3))
        self.ids = {}
        self.next_id = {}
        self.created = []
        self.creates = 0
        self.shape = 0
        self._create("a", [_long("id", False), _long("x"), _long("v")],
                     [Index("PRIMARY", ("id",), primary=True)], 200)
        self._create("b", [_long("id", False), _long("x"), _long("y")],
                     [Index("PRIMARY", ("id",), primary=True),
                      Index("b_x", ("x",))], 60)
        self._create("w", *W_SHAPES[0], rows=100)
        self.db.analyze()

    @property
    def queries(self):
        return list(BASE_QUERIES) + [created_query(t) for t in self.created]

    def _row(self, table, key):
        width = len(self.db.catalog.table(table).columns)
        return (key,) + tuple(self.rng.randrange(20)
                              for __ in range(width - 1))

    def _create(self, table, columns, indexes, rows):
        self.db.create_table(TableSchema(table, columns, indexes))
        self.ids[table] = set()
        self.next_id[table] = 1
        self.load(table, rows)

    def load(self, table, rows):
        start = self.next_id[table]
        keys = range(start, start + rows)
        self.db.load(table, [self._row(table, key) for key in keys])
        self.ids[table].update(keys)
        self.next_id[table] = start + rows

    def some_table(self):
        return self.rng.choice(sorted(self.ids))

    def some_id(self, table):
        return self.rng.choice(sorted(self.ids[table]))

    # -- the steps ---------------------------------------------------------------------

    def insert(self):
        table = self.some_table()
        key = self.next_id[table]
        self.next_id[table] += 1
        self.ids[table].add(key)
        values = ", ".join(map(str, self._row(table, key)))
        self.db.run(f"INSERT INTO {table} VALUES ({values})")

    def update(self):
        table = self.some_table()
        column = self.db.catalog.table(table).columns[-1].name
        self.db.run(f"UPDATE {table} SET {column} = "
                    f"{self.rng.randrange(20)} "
                    f"WHERE id = {self.some_id(table)}")

    def delete(self):
        table = self.some_table()
        key = self.some_id(table)
        self.ids[table].discard(key)
        self.db.run(f"DELETE FROM {table} WHERE id = {key}")

    def bulk_load(self):
        self.load(self.some_table(), self.rng.randrange(5, 40))

    def analyze(self):
        self.db.analyze()

    def create(self):
        self.creates += 1
        table = f"c{self.creates}"
        self._create(table, [_long("id", False), _long("grp")],
                     [Index("PRIMARY", ("id",), primary=True)],
                     self.rng.randrange(10, 60))
        if self.rng.random() < 0.5:
            self.db.storage.analyze_table(table)
        self.created.append(table)

    def recreate(self):
        self.db.storage.drop_table("w")
        del self.ids["w"]
        self.shape = (self.shape + 1) % len(W_SHAPES)
        self._create("w", *W_SHAPES[self.shape],
                     rows=self.rng.randrange(40, 160))
        if self.rng.random() < 0.5:
            self.db.storage.analyze_table("w")

    def drop(self):
        table = self.created.pop(self.rng.randrange(len(self.created)))
        self.db.storage.drop_table(table)
        del self.ids[table]


WRITES = ("insert", "update", "delete", "bulk_load")
STEPS = (("insert", 10), ("update", 10), ("delete", 10), ("bulk_load", 5),
         ("analyze", 10), ("create", 4), ("recreate", 4), ("drop", 3))


def test_warm_explain_equals_cold_explain_after_every_step():
    rng = random.Random(20261015)
    history = History(rng)
    db = history.db
    plan = [kind for kind, times in STEPS for __ in range(times)]
    rng.shuffle(plan)
    tally = {"analyze_one": 0}

    def check():
        """Compile every query warm, then cold; return the provider
        fetches of the warm compiles."""
        before = provider_fetches(db)
        warm = [db.explain(sql, optimizer="orca") for sql in history.queries]
        fetched = tuple(after - was for after, was
                        in zip(provider_fetches(db), before))
        for sql, text in zip(history.queries, warm):
            assert text.startswith("EXPLAIN (ORCA)"), sql
            assert text == cold_explain(db, sql), sql
        # Every live table has exactly its slots, each at the table's
        # current epoch; a dropped table has none.
        live = {name.lower() for name in db.catalog.table_names}
        assert db.mdcache.slots() == {
            (kind, table): db.catalog.epoch(table)
            for table in live for kind in ("relation", "statistics")}
        return fetched

    check()
    for kind in plan:
        if kind == "drop" and not history.created:
            kind = "create"
        epochs = {t: db.catalog.epoch(t) for t in db.catalog.table_names}
        getattr(history, kind)()
        moved = {t for t, epoch in epochs.items()
                 if db.catalog.has_table(t) and db.catalog.epoch(t) != epoch}
        statistics, relations = check()
        if kind in WRITES:
            # DML and loads never move an epoch, so they cost Orca no
            # provider round trip for statistics or relations.
            assert not moved
            assert (statistics, relations) == (0, 0), kind
        elif kind == "analyze":
            # ANALYZE re-fetches exactly the tables it changed, once.
            assert (statistics, relations) == (len(moved), len(moved))
            tally["analyze_one"] += len(moved) == 1
    assert tally["analyze_one"] >= 3, tally


# -- aborted detours publish nothing -------------------------------------------------


WARM_SQL = """
SELECT COUNT(*) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
"""

#: Reads ``part`` (never read before) and ``orders`` (re-analyzed), so
#: its detour fetches new entries that an abort must not publish.
FAULTED_SQL = """
SELECT COUNT(*) FROM part, orders, lineitem
WHERE p_partkey = l_partkey AND o_orderkey = l_orderkey
  AND o_totalprice > 2000
"""

FAULT_REASONS = {
    "typed": FallbackReason.TYPED_ABORT,
    "crash": FallbackReason.UNEXPECTED_EXCEPTION,
    "sleep": FallbackReason.BUDGET_EXCEEDED,
}


@pytest.mark.parametrize("action", sorted(FAULT_REASONS))
@pytest.mark.parametrize("site", BRIDGE_INJECTION_SITES)
def test_aborted_detour_leaves_the_shared_cache_untouched(site, action):
    db = build_mini_db(seed=71, orders=80)
    assert db.run(WARM_SQL, optimizer="orca").optimizer_used == "orca"
    db.run("INSERT INTO orders VALUES (9001, 1, 'O', 10.5, '1995-01-01', "
           "'1-PRIO', 'late')")
    db.analyze()
    expected = db.execute(FAULTED_SQL, optimizer="mysql")
    before = db.mdcache.slots()

    if action == "sleep":
        db.config.orca_compile_budget_seconds = 0.01
        db.config.fault_injector = FaultInjector().arm(
            site, "sleep", sleep_seconds=0.05)
    else:
        db.config.fault_injector = FaultInjector().arm(site, action)
    result = db.run(FAULTED_SQL, optimizer="orca", use_plan_cache=False)
    assert result.optimizer_used == "mysql"
    assert result.fallback_reason is FAULT_REASONS[action]
    assert result.rows == expected
    assert db.mdcache.slots() == before

    db.config.fault_injector = None
    db.config.orca_compile_budget_seconds = None
    result = db.run(FAULTED_SQL, optimizer="orca", use_plan_cache=False,
                    explain=True)
    assert result.optimizer_used == "orca"
    assert result.rows == expected
    assert result.explain == cold_explain(db, FAULTED_SQL)
    assert db.mdcache.slots()[("statistics", "part")] == \
        db.catalog.epoch("part")
    assert db.mdcache.slots()[("statistics", "orders")] == \
        db.catalog.epoch("orders")


def test_metadata_provider_fault_fires_on_every_warm_detour():
    """Table OIDs stay per statement, so the provider's fault site is
    reached by every detour, not only by the first one per table."""
    db = build_mini_db(seed=71, orders=80)
    for __ in range(2):
        assert db.run(WARM_SQL, optimizer="orca",
                      use_plan_cache=False).optimizer_used == "orca"
    injector = FaultInjector().arm("metadata_provider", "typed")
    db.config.fault_injector = injector
    for attempt in range(1, 4):
        result = db.run(WARM_SQL, optimizer="orca", use_plan_cache=False)
        assert result.fallback_reason is FallbackReason.TYPED_ABORT
        assert injector.fired["metadata_provider"] == attempt
