"""Tests for DML: INSERT / DELETE / UPDATE and their routing behaviour."""

import datetime

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.errors import ExecutionError, ReproError
from repro.mysql_types import MySQLType


@pytest.fixture()
def db():
    database = Database(DatabaseConfig())
    database.create_table(TableSchema("accounts", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("owner", MySQLType.VARCHAR, 30, nullable=False),
        Column.of("balance", MySQLType.DOUBLE, nullable=False),
        Column.of("opened", MySQLType.DATE),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("owner_idx", ("owner",))]))
    database.load("accounts", [
        (1, "ada", 100.0, datetime.date(1995, 1, 1)),
        (2, "bob", 250.0, datetime.date(1996, 2, 2)),
        (3, "cay", -10.0, None),
    ])
    database.analyze()
    return database


class TestInsert:
    def test_insert_full_row(self, db):
        result = db.run("INSERT INTO accounts VALUES "
                        "(4, 'dee', 75.5, DATE '1997-03-03')")
        assert result.rows == [(1,)]
        rows = db.execute("SELECT owner, balance FROM accounts "
                          "WHERE id = 4")
        assert rows == [("dee", 75.5)]

    def test_insert_with_column_list(self, db):
        db.run("INSERT INTO accounts (id, owner, balance) "
               "VALUES (5, 'eve', 0)")
        rows = db.execute("SELECT opened FROM accounts WHERE id = 5")
        assert rows == [(None,)]

    def test_insert_multiple_rows(self, db):
        result = db.run("INSERT INTO accounts (id, owner, balance) "
                        "VALUES (6, 'f', 1), (7, 'g', 2), (8, 'h', 3)")
        assert result.rows == [(3,)]
        assert db.execute("SELECT COUNT(*) FROM accounts") == [(6,)]

    def test_insert_coerces_types(self, db):
        db.run("INSERT INTO accounts (id, owner, balance) "
               "VALUES (9, 'i', 42)")
        rows = db.execute("SELECT balance FROM accounts WHERE id = 9")
        assert rows == [(42.0,)]
        assert isinstance(rows[0][0], float)

    def test_insert_null_into_not_null_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.run("INSERT INTO accounts (id, owner, balance) "
                   "VALUES (10, NULL, 1)")

    def test_insert_omitting_not_null_column_rejected(self, db):
        with pytest.raises(ExecutionError, match="'balance'"):
            db.run("INSERT INTO accounts (id, owner) VALUES (10, 'x')")
        assert db.execute("SELECT COUNT(*) FROM accounts") == [(3,)]

    def test_insert_duplicate_primary_key_rejected(self, db):
        with pytest.raises(ExecutionError, match="duplicate entry 1 "):
            db.run("INSERT INTO accounts (id, owner, balance) "
                   "VALUES (1, 'dup', 5)")
        assert db.execute("SELECT owner FROM accounts WHERE id = 1") \
            == [("ada",)]

    def test_insert_duplicate_within_statement_is_atomic(self, db):
        epoch = db.catalog.epoch("accounts")
        with pytest.raises(ExecutionError, match="duplicate entry 31 "):
            db.run("INSERT INTO accounts (id, owner, balance) "
                   "VALUES (30, 'a', 1), (31, 'b', 2), (31, 'c', 3)")
        assert db.execute("SELECT COUNT(*) FROM accounts") == [(3,)]
        assert db.execute("SELECT COUNT(*) FROM accounts "
                          "WHERE id >= 30") == [(0,)]
        # The rejected statement left no trace: same epoch, and ANALYZE
        # still sees a table nobody wrote to.
        assert db.catalog.epoch("accounts") == epoch
        assert db.storage.analyze_all() == []

    def test_bulk_load_does_not_enforce_unique_keys(self, db):
        db.load("accounts", [(1, "twin", 0.0, None)])
        assert db.execute("SELECT COUNT(*) FROM accounts "
                          "WHERE id = 1") == [(2,)]
        # Rows whose key a statement leaves alone are never blamed for
        # duplicates that were loaded in bulk.
        assert db.run("UPDATE accounts SET balance = 1 "
                      "WHERE id = 1").rows == [(2,)]

    def test_inserted_rows_visible_to_indexes(self, db):
        db.run("INSERT INTO accounts (id, owner, balance) "
               "VALUES (11, 'ada', 7)")
        rows = db.execute(
            "SELECT COUNT(*) FROM accounts WHERE owner = 'ada'")
        assert rows == [(2,)]

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.run("INSERT INTO accounts (id, owner) VALUES (12,)"
                   .replace("(12,)", "(12, 'x', 1.0)"))


class TestDelete:
    def test_delete_with_where(self, db):
        result = db.run("DELETE FROM accounts WHERE balance < 0")
        assert result.rows == [(1,)]
        assert db.execute("SELECT COUNT(*) FROM accounts") == [(2,)]

    def test_delete_all(self, db):
        result = db.run("DELETE FROM accounts")
        assert result.rows == [(3,)]
        assert db.execute("SELECT COUNT(*) FROM accounts") == [(0,)]

    def test_delete_null_predicate_keeps_row(self, db):
        # WHERE opened < ... is UNKNOWN for the NULL date: not deleted.
        result = db.run("DELETE FROM accounts "
                        "WHERE opened < DATE '1999-01-01'")
        assert result.rows == [(2,)]
        assert db.execute("SELECT id FROM accounts") == [(3,)]

    def test_indexes_maintained_after_delete(self, db):
        db.run("DELETE FROM accounts WHERE owner = 'ada'")
        rows = db.execute("SELECT COUNT(*) FROM accounts "
                          "WHERE owner = 'ada'")
        assert rows == [(0,)]
        # The row that filled the hole is found where it now lives.
        assert db.execute("SELECT id FROM accounts WHERE owner = 'cay'") \
            == [(3,)]
        table = db.storage.store("accounts")
        for name in ("PRIMARY", "owner_idx"):
            index = db.storage.index("accounts", name)
            assert sorted(index.ordered_row_ids()) \
                == list(range(table.row_count))
            assert [index.key_of(table.fetch(row_id))
                    for row_id in index.ordered_row_ids()] \
                == sorted(index.key_of(row) for row in table.scan())

    def test_delete_located_through_index_scans_nothing(self, db):
        db.load("accounts", [(100 + i, f"o{i}", 1.0, None)
                             for i in range(200)])
        db.storage.counters.reset()
        result = db.run("DELETE FROM accounts WHERE id = 150", trace=True)
        assert result.rows == [(1,)]
        assert db.storage.counters.rows_scanned == 0
        assert db.storage.counters.index_lookups == 1
        from repro.observability import find_spans
        span = find_spans(result.trace, "execute")[0]
        assert span.attributes["access"] == "index"
        assert span.attributes["rows"] == 1


class TestUpdate:
    def test_update_with_where(self, db):
        result = db.run(
            "UPDATE accounts SET balance = balance + 10 WHERE id = 1")
        assert result.rows == [(1,)]
        assert db.execute("SELECT balance FROM accounts WHERE id = 1") == \
            [(110.0,)]

    def test_update_all_rows(self, db):
        result = db.run("UPDATE accounts SET balance = 0")
        assert result.rows == [(3,)]
        rows = db.execute("SELECT DISTINCT balance FROM accounts")
        assert rows == [(0.0,)]

    def test_update_reads_old_row_values(self, db):
        # SET a = b, b = a must swap, not chain.
        db.create_table(TableSchema("pair", [
            Column.of("a", MySQLType.LONG),
            Column.of("b", MySQLType.LONG),
        ]))
        db.load("pair", [(1, 2)])
        db.run("UPDATE pair SET a = b, b = a")
        assert db.execute("SELECT a, b FROM pair") == [(2, 1)]

    def test_update_to_duplicate_primary_key_rejected(self, db):
        with pytest.raises(ExecutionError, match="duplicate entry 1 "):
            db.run("UPDATE accounts SET id = 1 WHERE id = 2")
        assert db.execute("SELECT id FROM accounts WHERE owner = 'bob'") \
            == [(2,)]

    def test_update_may_shift_keys_onto_rows_it_also_moves(self, db):
        # 1->2, 2->3, 3->4: every new key is vacated by the statement.
        assert db.run("UPDATE accounts SET id = id + 1").rows == [(3,)]
        assert sorted(db.execute("SELECT id, owner FROM accounts")) \
            == [(2, "ada"), (3, "bob"), (4, "cay")]
        assert db.execute("SELECT owner FROM accounts WHERE id = 3") \
            == [("bob",)]

    def test_update_not_null_violation_is_atomic(self, db):
        with pytest.raises(ExecutionError):
            db.run("UPDATE accounts SET balance = NULL WHERE id >= 2")
        assert db.execute("SELECT balance FROM accounts WHERE id = 2") \
            == [(250.0,)]

    def test_update_multiple_assignments(self, db):
        db.run("UPDATE accounts SET owner = 'zed', balance = 1 "
               "WHERE id = 2")
        assert db.execute(
            "SELECT owner, balance FROM accounts WHERE id = 2") == \
            [("zed", 1.0)]


class TestDmlRouting:
    def test_dml_never_routed_to_orca(self, db):
        # Section 4.1: "INSERT, UPDATE, and DELETE statements ... are not
        # sent" to Orca, regardless of thresholds.
        db.config.complex_query_threshold = 1
        result = db.run("INSERT INTO accounts (id, owner, balance) "
                        "VALUES (20, 'x', 1)")
        assert result.optimizer_used == "mysql"
        result = db.run("DELETE FROM accounts WHERE id = 20")
        assert result.optimizer_used == "mysql"

    def test_explain_of_dml_rejected(self, db):
        with pytest.raises(ReproError):
            db.explain("DELETE FROM accounts")

    def test_subquery_in_dml_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.run("DELETE FROM accounts WHERE balance < "
                   "(SELECT AVG(balance) FROM accounts)")


class TestDmlThroughNullableIndex:
    """DML locates its victims through an index whose columns hold
    NULLs — every row has an entry — and each statement's effect is
    checked against a pure-Python filter of the loaded rows."""

    @pytest.fixture()
    def nulls(self):
        database = Database()
        database.create_table(TableSchema("w", [
            Column.of("id", MySQLType.LONG, nullable=False),
            Column.of("grp", MySQLType.LONG),
            Column.of("val", MySQLType.LONG),
        ], [Index("PRIMARY", ("id",), primary=True),
            Index("gv", ("grp", "val"))]))
        rows = [(i, i % 50, None if i % 3 == 0 else i % 17)
                for i in range(2000)]
        database.load("w", rows)
        database.analyze()
        return database, rows

    def _located_through_index(self, db, sql):
        from repro.observability import find_spans
        result = db.run(sql, trace=True)
        span = find_spans(result.trace, "execute")[0]
        assert span.attributes["access"] == "index", sql
        return result.rows[0][0]

    def _assert_index_is_a_rebuild(self, db):
        table = db.storage.store("w")
        index = db.storage.index("w", "gv")
        assert [index.key_of(table.fetch(row_id))
                for row_id in index.ordered_row_ids()] \
            == sorted(index.key_of(row) for row in table.scan())
        assert index.entry_count == table.row_count

    def test_update_on_leading_column_reaches_null_rows(self, nulls):
        db, rows = nulls
        changed = self._located_through_index(
            db, "UPDATE w SET val = 99 WHERE grp = 2")
        assert changed == sum(1 for row in rows if row[1] == 2) == 40
        assert sorted(db.execute("SELECT id FROM w WHERE val = 99")) \
            == [(row[0],) for row in rows if row[1] == 2]
        self._assert_index_is_a_rebuild(db)

    def test_delete_with_a_bounded_nullable_column(self, nulls):
        db, rows = nulls
        deleted = self._located_through_index(
            db, "DELETE FROM w WHERE grp = 3 AND val < 9")
        kept = [row for row in rows
                if not (row[1] == 3 and row[2] is not None
                        and row[2] < 9)]
        assert deleted == len(rows) - len(kept)
        assert sorted(db.execute("SELECT id, grp, val FROM w")) == kept
        self._assert_index_is_a_rebuild(db)

    def test_update_into_and_out_of_null_keys(self, nulls):
        db, rows = nulls
        db.run("UPDATE w SET val = NULL WHERE grp = 4")
        db.run("UPDATE w SET grp = NULL WHERE grp = 5 AND val > 10")
        expected = []
        for key, grp, val in rows:
            if grp == 4:
                val = None
            elif grp == 5 and val is not None and val > 10:
                grp = None
            expected.append((key, grp, val))
        assert sorted(db.execute("SELECT id, grp, val FROM w")) == expected
        assert sorted(db.execute("SELECT id FROM w WHERE grp = 4")) \
            == [(row[0],) for row in expected if row[1] == 4]
        self._assert_index_is_a_rebuild(db)

    def test_unique_index_lets_null_keys_repeat(self):
        database = Database()
        database.create_table(TableSchema("u", [
            Column.of("id", MySQLType.LONG, nullable=False),
            Column.of("a", MySQLType.LONG),
            Column.of("b", MySQLType.LONG),
        ], [Index("PRIMARY", ("id",), primary=True),
            Index("ab", ("a", "b"), unique=True)]))
        database.run("INSERT INTO u VALUES (1, 1, NULL), (2, 1, NULL)")
        database.run("INSERT INTO u VALUES (3, NULL, NULL)")
        database.run("UPDATE u SET a = 1 WHERE id = 3")
        with pytest.raises(ExecutionError):
            database.run("INSERT INTO u VALUES (4, 1, 2), (5, 1, 2)")
        assert sorted(database.execute("SELECT id FROM u WHERE a = 1")) \
            == [(1,), (2,), (3,)]


class TestDmlKeepsPlans:
    """Writes never touch the catalog: a cached plan outlives them and
    reads the rows that are there now.  Only a write that changed a row
    gives the next ANALYZE something to do."""

    @pytest.mark.parametrize("no_op", [
        lambda db: db.run("DELETE FROM accounts WHERE id = 999999"),
        lambda db: db.run("UPDATE accounts SET balance = 0 "
                          "WHERE id = 999999"),
        lambda db: db.load("accounts", []),
    ], ids=["delete", "update", "empty_load"])
    def test_zero_row_write_changes_nothing(self, db, no_op):
        sql = "SELECT owner FROM accounts WHERE balance > 50"
        db.run(sql)
        assert db.run(sql).plan_cache_hit
        epoch = db.catalog.epoch("accounts")
        no_op(db)
        assert db.catalog.epoch("accounts") == epoch
        assert db.run(sql).plan_cache_hit
        assert db.storage.analyze_all() == []

    def test_write_that_changes_a_row_keeps_the_plan(self, db):
        sql = "SELECT owner FROM accounts WHERE balance > 50"
        before = db.run(sql).rows
        epoch = db.catalog.epoch("accounts")
        db.run("DELETE FROM accounts WHERE id = 1")
        assert db.catalog.epoch("accounts") == epoch
        result = db.run(sql)
        assert result.plan_cache_hit
        assert sorted(result.rows) == sorted(
            row for row in before if row != ("ada",))
        # ... and the table now has something new to analyze, which is
        # what invalidates.
        assert db.storage.analyze_all() == ["accounts"]
        assert db.catalog.epoch("accounts") > epoch
        assert not db.run(sql).plan_cache_hit


class TestCostBasedRouting:
    """The Section 9 future-work policy, implemented as an extension."""

    def _db(self, threshold):
        from tests.conftest import build_mini_db

        database = build_mini_db(seed=31, orders=200)
        database.config.routing = "cost_based"
        database.config.mysql_cost_threshold = threshold
        return database

    def test_cheap_query_stays_on_mysql(self):
        db = self._db(threshold=1e9)
        result = db.run("""
            SELECT COUNT(*) FROM customer, orders, lineitem
            WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey""")
        assert result.optimizer_used == "mysql"

    def test_expensive_query_detours_to_orca(self):
        db = self._db(threshold=0.0)
        result = db.run("""
            SELECT COUNT(*) FROM customer, orders, lineitem
            WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey""")
        assert result.optimizer_used == "orca"

    def test_cost_based_ignores_table_count(self):
        # Even a single-table query detours when its MySQL plan is
        # costed above the trigger — unlike the three-table heuristic.
        db = self._db(threshold=0.0)
        result = db.run("SELECT COUNT(*) FROM lineitem")
        assert result.optimizer_used == "orca"

    def test_results_identical_under_both_policies(self):
        sql = """
            SELECT o_custkey, COUNT(*) FROM customer, orders
            WHERE c_custkey = o_custkey GROUP BY o_custkey"""
        db = self._db(threshold=0.0)
        cost_rows = db.execute(sql)
        db.config.routing = "threshold"
        threshold_rows = db.execute(sql)
        assert sorted(cost_rows) == sorted(threshold_rows)