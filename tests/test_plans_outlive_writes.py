"""Cached plans outlive writes — and still return the right rows.

A plan is keyed on the catalog epochs of the tables it references, and
only DDL and ANALYZE advance those.  So a plan compiled when ``orders``
held 75 rows is served, unchanged, after single-row INSERT/UPDATE/
DELETE, after a bulk load that makes the table ten times larger, and
after every row of ``lineitem`` is deleted.  This is the net under
that: one seeded stream of such writes interleaved with the statements
the ``htap_churn`` benchmark caches (TPC-H Q3/Q5/Q10/Q12 and its
point-read join), in row and in batch mode.  Every SELECT — above all
every one served from the cache — must return what a from-scratch
compile by the other optimizer on the other engine returns at that
moment, and a rejected or aborted write must leave epochs, the cache
and the tables exactly as they were.
"""

import datetime
import random
from collections import Counter

import pytest

from repro import Database, DatabaseConfig
from repro.errors import ExecutionError, GovernorError
from repro.governor import CancelToken
from repro.observability import find_spans
from repro.workloads.tpch import load_tpch, tpch_query

SCALE = 0.025
OPS = 320
ANALYTICS = (3, 5, 10, 12)
TABLES = ("orders", "lineitem")
#: Keys the generated and the bulk-loaded rows never use.
FRESH_KEYS = 5_000_000


def point_read_join(key):
    return ("SELECT o_orderkey, c_name, c_nationkey FROM orders, customer "
            f"WHERE o_custkey = c_custkey AND o_orderkey = {key}")


def canonical(rows):
    """Order-insensitive, and blind to the last float digits that a
    different join order's summation order moves."""
    return sorted(
        tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row)
        for row in map(tuple, rows))


def reference_rows(db, sql):
    return db.run(sql, optimizer="mysql", executor_mode="row",
                  use_plan_cache=False, executor_workers=1).rows


class Stream:
    """Seeded writes and reads over one database, remembering just
    enough (live keys) to aim the next statement at rows that exist."""

    def __init__(self, db, rng):
        self.db = db
        self.rng = rng
        self.next_key = FRESH_KEYS
        self.customers = [row[0] for row in
                          self.read("SELECT c_custkey FROM customer")]
        self.read_keys = rng.sample(self.order_keys(), 4)

    def read(self, sql):
        """The stream's own bookkeeping reads stay out of the cache, so
        its counters are all about the statements under test."""
        return self.db.run(sql, use_plan_cache=False).rows

    def order_keys(self):
        return [row[0] for row in
                self.read("SELECT o_orderkey FROM orders")]

    def line_keys(self):
        return sorted({row[0] for row in
                       self.read("SELECT l_orderkey FROM lineitem")})

    # -- writes that change exactly the rows they say -------------------------

    def insert_order(self):
        key = self.next_key
        self.next_key += 1
        price = round(self.rng.uniform(1000.0, 300000.0), 2)
        return (f"INSERT INTO orders VALUES ({key}, "
                f"{self.rng.choice(self.customers)}, 'O', {price}, "
                "'1995-03-13', '3-MEDIUM', 'Clerk#000000007', 0, "
                "'outlives')"), 1

    def insert_line(self):
        key = self.rng.choice(self.order_keys())
        number = 100 + self.next_key - FRESH_KEYS
        self.next_key += 1
        return (f"INSERT INTO lineitem VALUES ({key}, 1, 1, {number}, "
                f"{self.rng.randrange(1, 50)}.0, 1234.5, 0.05, 0.02, 'R', "
                "'F', '1995-03-20', '1995-03-25', '1995-04-02', "
                "'DELIVER IN PERSON', 'MAIL', 'outlives')"), 1

    def update_order(self):
        key = self.rng.choice(self.order_keys())
        price = round(self.rng.uniform(1000.0, 300000.0), 2)
        return (f"UPDATE orders SET o_totalprice = {price} "
                f"WHERE o_orderkey = {key}"), 1

    def update_lines(self):
        keys = self.line_keys()
        if not keys:
            return self.insert_line()
        key = self.rng.choice(keys)
        date = datetime.date(1993, 1, 1) + datetime.timedelta(
            days=self.rng.randrange(1500))
        return (f"UPDATE lineitem SET l_shipdate = '{date}', "
                f"l_quantity = {self.rng.randrange(1, 50)}.0 "
                f"WHERE l_orderkey = {key}"), None

    def delete_lines(self):
        keys = self.line_keys()
        if not keys:
            return self.insert_line()
        return (f"DELETE FROM lineitem WHERE l_orderkey = "
                f"{self.rng.choice(keys)}"), None

    def delete_order(self):
        # Never one a point read aims at: those keep returning a row.
        key = self.rng.choice([k for k in self.order_keys()
                               if k not in self.read_keys])
        return f"DELETE FROM orders WHERE o_orderkey = {key}", 1

    # -- writes the engine must refuse ------------------------------------------

    def rejected(self):
        key = self.rng.choice(self.order_keys())
        return self.rng.choice((
            f"INSERT INTO orders VALUES ({key}, 1, 'O', 1.0, '1995-01-01', "
            "'1-URGENT', 'Clerk#000000001', 0, 'duplicate key')",
            f"UPDATE orders SET o_clerk = NULL WHERE o_orderkey = {key}",
            f"INSERT INTO orders VALUES ({self.next_key}, 1, 'O', 1.0, "
            f"'1995-01-01', '1-URGENT', 'c', 0, 'x'), ({self.next_key}, 1, "
            "'O', 2.0, '1995-01-01', '1-URGENT', 'c', 0, 'twice')",
        ))

    # -- the two big ones ---------------------------------------------------------

    def grow_tenfold(self):
        """Nine shifted copies of both tables through ``db.load``."""
        db = self.db
        orders = self.read("SELECT * FROM orders")
        lines = self.read("SELECT * FROM lineitem")
        for copy in range(1, 10):
            shift = copy * 100_000
            db.load("orders", [(row[0] + shift,) + tuple(row[1:])
                               for row in orders])
            db.load("lineitem", [(row[0] + shift,) + tuple(row[1:])
                                 for row in lines])
        return 10 * len(orders), 10 * len(lines)


def snapshot(db):
    return ({t: db.catalog.epoch(t) for t in db.catalog.table_names},
            {t: db.storage.store(t).row_count for t in TABLES},
            dict(db.plan_cache.stats()))


@pytest.mark.parametrize("mode", ["row", "batch"])
def test_cached_plans_return_fresh_rows_across_writes(mode):
    rng = random.Random(20260926)
    db = Database(DatabaseConfig(executor_mode=mode, batch_size=64))
    load_tpch(db, scale=SCALE)
    stream = Stream(db, rng)
    tally = Counter()

    def check_select(sql):
        result = db.run(sql, trace=True)
        assert canonical(result.rows) == canonical(reference_rows(db, sql)), \
            (sql, result.plan_cache_hit)
        route = find_spans(result.trace, "route")[0]
        outcome = route.attributes["plan_cache"]
        assert (outcome == "hit") == result.plan_cache_hit
        tally[outcome] += 1
        tally[f"{outcome}:{result.optimizer_used}"] += 1
        return result

    def check_write(sql, expected):
        epochs = snapshot(db)[0]
        affected = db.run(sql).rows[0][0]
        if expected is not None:
            assert affected == expected, sql
        assert snapshot(db)[0] == epochs, sql
        tally["rows_written"] += affected

    def check_refused(sql, error, **kwargs):
        before = snapshot(db)
        with pytest.raises(error):
            db.run(sql, **kwargs)
        assert snapshot(db) == before, sql
        tally["refused"] += 1

    selects = [tpch_query(n) for n in ANALYTICS] + \
        [point_read_join(key) for key in stream.read_keys]
    for sql in selects:                     # compile each once
        check_select(sql)
    assert tally["miss"] == len(selects)

    writes = (stream.insert_order, stream.insert_line, stream.update_order,
              stream.update_lines, stream.delete_lines, stream.delete_order)
    for op in range(OPS):
        if op == 200:
            for sql in selects:             # whatever ANALYZE made stale
                check_select(sql)
            before = snapshot(db)[0]
            orders, lines = stream.grow_tenfold()
            assert db.storage.store("orders").row_count == orders
            assert db.storage.store("lineitem").row_count == lines
            assert snapshot(db)[0] == before
            tally["grown"] += 1
            for sql in selects:             # small-table plans, big tables
                assert check_select(sql).plan_cache_hit
        elif op == 240:
            for sql in selects:
                check_select(sql)
            before = snapshot(db)[0]
            everything = db.storage.store("lineitem").row_count
            assert db.run("DELETE FROM lineitem").rows == [(everything,)]
            assert db.storage.store("lineitem").row_count == 0
            assert snapshot(db)[0] == before
            tally["emptied"] += 1
            for sql in selects:             # ... and over an empty table
                assert check_select(sql).plan_cache_hit
        elif op % 40 == 39:
            changed = db.storage.analyze_all()
            assert set(changed) <= set(TABLES)
            tally["analyzed"] += len(changed)
        elif op % 16 == 7:
            check_refused(stream.rejected(), ExecutionError)
        elif op % 16 == 15:
            token = CancelToken()
            token.cancel()
            check_refused(rng.choice(writes)()[0], GovernorError,
                          cancel_token=token)
        elif rng.random() < 0.45:
            check_write(*rng.choice(writes)())
        else:
            check_select(rng.choice(selects))

    # The stream really covered what it claims to.
    assert tally["grown"] == tally["emptied"] == 1
    assert tally["hit"] >= 120, tally
    assert tally["hit:orca"] >= 40 and tally["hit:mysql"] >= 20, tally
    assert tally["stale"] >= 8, tally
    assert tally["miss"] == len(selects), tally
    assert tally["refused"] >= 30, tally
    assert tally["rows_written"] >= 100, tally
    assert tally["analyzed"] >= 8, tally
    # Nothing but ANALYZE ever invalidated a plan.
    assert db.plan_cache.invalidations == tally["stale"]
