"""Tests for the storage engine: tables, ordered indexes, access paths."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.catalog import Catalog, Column, Index, TableSchema
from repro.errors import StorageError
from repro.mysql_types import MySQLType
from repro.storage import StorageEngine


def make_engine():
    catalog = Catalog()
    engine = StorageEngine(catalog)
    engine.create_table(TableSchema("t", [
        Column.of("k", MySQLType.LONGLONG, nullable=False),
        Column.of("grp", MySQLType.LONG),
        Column.of("val", MySQLType.DOUBLE),
    ], [Index("PRIMARY", ("k",), primary=True),
        Index("grp_idx", ("grp",)),
        Index("grp_val", ("grp", "val"))]))
    return engine


class TestTable:
    def test_insert_and_scan(self):
        engine = make_engine()
        engine.load_rows("t", [(1, 10, 1.0), (2, 20, 2.0)])
        assert list(engine.table_scan("t")) == [(1, 10, 1.0), (2, 20, 2.0)]

    def test_scan_counts_rows(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i % 3, float(i)) for i in range(10)])
        engine.counters.reset()
        list(engine.table_scan("t"))
        assert engine.counters.rows_scanned == 10

    def test_wrong_row_width_rejected(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            engine.load_rows("t", [(1, 2)])

    def test_unknown_table(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            engine.store("nope")


class TestIndexLookup:
    def test_point_lookup(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i % 3, float(i)) for i in range(30)])
        rows = engine.index_lookup_rows("t", "PRIMARY", (7,))
        assert rows == [(7, 1, 7.0)]

    def test_lookup_counts_access(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i % 3, float(i)) for i in range(30)])
        engine.counters.reset()
        engine.index_lookup_rows("t", "grp_idx", (1,))
        assert engine.counters.index_lookups == 1
        assert engine.counters.index_rows_read == 10

    def test_lookup_with_null_key_is_empty(self):
        engine = make_engine()
        engine.load_rows("t", [(1, None, 1.0), (2, 5, 2.0)])
        assert engine.index_lookup_rows("t", "grp_idx", (None,)) == []

    def test_null_keys_indexed_before_values(self):
        engine = make_engine()
        engine.load_rows("t", [(1, None, 1.0), (2, 5, 2.0), (3, 4, None)])
        assert engine.index("t", "grp_idx").entry_count == 3
        rows = list(engine.index_ordered_rows("t", "grp_idx"))
        assert [r[0] for r in rows] == [1, 3, 2]
        rows = list(engine.index_ordered_rows("t", "grp_idx",
                                              descending=True))
        assert [r[0] for r in rows] == [2, 3, 1]

    def test_prefix_lookup_on_composite(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i % 3, float(i)) for i in range(9)])
        rows = engine.index_lookup_rows("t", "grp_val", (0,))
        assert sorted(r[0] for r in rows) == [0, 3, 6]

    def test_missing_index(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            engine.index("t", "nope")


class TestRangeScan:
    def test_inclusive_range(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i, float(i)) for i in range(20)])
        rows = list(engine.index_range_rows("t", "PRIMARY", (5,), (8,)))
        assert [r[0] for r in rows] == [5, 6, 7, 8]

    def test_exclusive_bounds(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i, float(i)) for i in range(20)])
        rows = list(engine.index_range_rows("t", "PRIMARY", (5,), (8,),
                                            low_inclusive=False,
                                            high_inclusive=False))
        assert [r[0] for r in rows] == [6, 7]

    def test_unbounded_low(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i, float(i)) for i in range(10)])
        rows = list(engine.index_range_rows("t", "PRIMARY", None, (2,)))
        assert [r[0] for r in rows] == [0, 1, 2]

    def test_ordered_scan(self):
        engine = make_engine()
        engine.load_rows("t", [(3, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        rows = list(engine.index_ordered_rows("t", "PRIMARY"))
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_ordered_scan_descending(self):
        engine = make_engine()
        engine.load_rows("t", [(3, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
        rows = list(engine.index_ordered_rows("t", "PRIMARY",
                                              descending=True))
        assert [r[0] for r in rows] == [3, 2, 1]

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=0,
                    max_size=60),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=100)
    def test_range_scan_matches_filter(self, keys, low, high):
        """Property: index range scans agree with a filtered full scan."""
        if low > high:
            low, high = high, low
        catalog = Catalog()
        engine = StorageEngine(catalog)
        engine.create_table(TableSchema("p", [
            Column.of("a", MySQLType.LONG, nullable=False),
            Column.of("b", MySQLType.LONG, nullable=False),
        ], [Index("a_idx", ("a",))]))
        engine.load_rows("p", [(k, i) for i, k in enumerate(keys)])
        via_index = sorted(
            engine.index_range_rows("p", "a_idx", (low,), (high,)))
        via_scan = sorted(row for row in engine.table_scan("p")
                          if low <= row[0] <= high)
        assert via_index == via_scan


def make_nullable_index_db():
    """2 000 rows, ``grp = id % 50``, ``val`` NULL in every third row,
    one composite index over the two nullable columns."""
    db = Database()
    db.create_table(TableSchema("w", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("grp", MySQLType.LONG),
        Column.of("val", MySQLType.LONG),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("gv", ("grp", "val"))]))
    rows = [(i, i % 50, None if i % 3 == 0 else i % 17)
            for i in range(2000)]
    db.load("w", rows)
    db.analyze()
    return db, rows


ROUTES = [(optimizer, mode) for optimizer in ("mysql", "orca")
          for mode in ("row", "batch")]


class TestNullableCompositeIndex:
    """A row with a NULL key part is indexed; every answer is checked
    against a pure-Python filter or sort of the loaded rows."""

    @pytest.fixture(scope="class")
    def nulls(self):
        return make_nullable_index_db()

    @pytest.mark.parametrize("optimizer, mode", ROUTES)
    def test_equality_on_leading_column_returns_every_row(self, nulls,
                                                          optimizer, mode):
        db, rows = nulls
        sql = "SELECT id FROM w WHERE grp = 2"
        assert "Index range scan on w using gv" in db.explain(
            sql, optimizer=optimizer)
        result = db.run(sql, optimizer=optimizer, executor_mode=mode)
        expected = [row[0] for row in rows if row[1] == 2]
        assert len(expected) == 40
        assert sorted(value for (value,) in result.rows) == expected

    @pytest.mark.parametrize("where, keep", [
        ("grp = 2 AND val < 10",
         lambda g, v: g == 2 and v is not None and v < 10),
        ("grp = 2 AND val <= 10",
         lambda g, v: g == 2 and v is not None and v <= 10),
        ("grp = 2 AND val > 5",
         lambda g, v: g == 2 and v is not None and v > 5),
        ("grp = 7 AND val BETWEEN 3 AND 12",
         lambda g, v: g == 7 and v is not None and 3 <= v <= 12),
        ("grp < 3", lambda g, v: g < 3),
        ("grp >= 47", lambda g, v: g >= 47),
    ])
    @pytest.mark.parametrize("optimizer, mode", ROUTES)
    def test_range_bounds_exclude_only_the_bounded_nulls(
            self, nulls, where, keep, optimizer, mode):
        db, rows = nulls
        result = db.run(f"SELECT id FROM w WHERE {where}",
                        optimizer=optimizer, executor_mode=mode)
        assert sorted(value for (value,) in result.rows) \
            == [row[0] for row in rows if keep(row[1], row[2])]

    @pytest.mark.parametrize("optimizer, mode", ROUTES)
    def test_order_by_index_columns_returns_every_row_nulls_first(
            self, nulls, optimizer, mode):
        db, rows = nulls
        result = db.run("SELECT id FROM w ORDER BY grp, val",
                        optimizer=optimizer, executor_mode=mode)
        expected = sorted(rows, key=lambda row: (
            row[1], row[2] is not None, row[2] or 0))
        assert result.rows == [(row[0],) for row in expected]

    def test_orca_orders_through_the_index(self, nulls):
        db, __ = nulls
        assert "Index scan on w using gv" in db.explain(
            "SELECT id FROM w ORDER BY grp, val", optimizer="orca")

    @pytest.mark.parametrize("optimizer, mode", ROUTES)
    def test_descending_order_puts_nulls_last(self, nulls, optimizer,
                                              mode):
        db, rows = nulls
        result = db.run("SELECT grp, val FROM w ORDER BY grp DESC, "
                        "val DESC", optimizer=optimizer,
                        executor_mode=mode)
        expected = sorted(((row[1], row[2]) for row in rows),
                          key=lambda gv: (gv[0], gv[1] is not None,
                                          gv[1] or 0), reverse=True)
        assert result.rows == expected

    @pytest.mark.parametrize("predicate", [
        "val < 9", "val = grp", "val > 20", "val IS NULL", "grp = 2",
    ])
    @pytest.mark.parametrize("optimizer, mode", ROUTES)
    def test_ternary_logic_partitioning(self, nulls, predicate, optimizer,
                                        mode):
        """Q = (Q WHERE p) + (Q WHERE NOT p) + (Q WHERE p IS NULL), as
        multisets — an identity that needs no oracle."""
        db, __ = nulls
        base = "SELECT id, val FROM w WHERE grp BETWEEN 1 AND 4"

        def ids(sql):
            return Counter(db.run(sql, optimizer=optimizer,
                                  executor_mode=mode).rows)

        whole = ids(base)
        parts = (ids(f"{base} AND ({predicate})")
                 + ids(f"{base} AND NOT ({predicate})")
                 + ids(f"{base} AND ({predicate}) IS NULL"))
        assert sum(whole.values()) == 160
        assert parts == whole


class TestAnalyze:
    def test_analyze_builds_statistics(self):
        engine = make_engine()
        engine.load_rows("t", [(i, i % 5, float(i % 7)) for i in range(100)])
        stats = engine.analyze_table("t")
        assert stats.row_count == 100
        assert stats.column("grp").distinct_count == 5
        assert stats.column("k").unique
        assert stats.column("k").histogram is not None

    def test_analyze_all(self):
        engine = make_engine()
        engine.load_rows("t", [(1, 1, 1.0)])
        engine.analyze_all()
        assert engine.catalog.statistics("t").row_count == 1

    def test_page_count(self):
        engine = make_engine()
        engine.load_rows("t", [(i, 0, 0.0) for i in range(200)])
        assert engine.page_count("t") >= 3


# -- native column store ----------------------------------------------------------


def make_column_engine(batch_size=8):
    catalog = Catalog()
    engine = StorageEngine(catalog, batch_size=batch_size)
    engine.create_table(TableSchema("t", [
        Column.of("k", MySQLType.LONGLONG, nullable=False),
        Column.of("grp", MySQLType.LONG),
        Column.of("val", MySQLType.DOUBLE),
    ], [Index("PRIMARY", ("k",), primary=True)]))
    return engine


class TestColumnStoreChunking:
    def test_empty_table(self):
        engine = make_column_engine()
        store = engine.store("t")
        assert store.row_count == 0
        assert store.chunks == []
        assert list(engine.table_scan("t")) == []
        assert list(engine.table_scan_batches("t")) == []

    def test_single_row(self):
        engine = make_column_engine()
        engine.load_rows("t", [(1, 10, 1.5)])
        store = engine.store("t")
        assert len(store.chunks) == 1
        assert store.chunks[0].rows == [(1, 10, 1.5)]
        assert store.chunks[0].columns == [[1], [10], [1.5]]
        assert [list(c) for c in engine.table_scan_batches("t")] \
            == [[(1, 10, 1.5)]]

    def test_exact_multiple_of_batch_size(self):
        engine = make_column_engine(batch_size=8)
        rows = [(i, i % 3, float(i)) for i in range(24)]
        engine.load_rows("t", rows)
        store = engine.store("t")
        assert [len(chunk.rows) for chunk in store.chunks] == [8, 8, 8]
        chunks = [list(c) for c in engine.table_scan_batches("t")]
        assert [row for chunk in chunks for row in chunk] == rows

    def test_partial_last_chunk_fills_first(self):
        engine = make_column_engine(batch_size=8)
        engine.load_rows("t", [(i, 0, 0.0) for i in range(5)])
        engine.load_rows("t", [(i, 0, 0.0) for i in range(5, 12)])
        store = engine.store("t")
        assert [len(chunk.rows) for chunk in store.chunks] == [8, 4]
        assert store.row_count == 12

    def test_all_null_column_both_scan_paths(self):
        engine = make_column_engine(batch_size=4)
        rows = [(i, None, None) for i in range(10)]
        engine.load_rows("t", rows)
        chunk = engine.store("t").chunks[0]
        assert chunk.mins[1] is None and chunk.maxs[1] is None
        assert chunk.null_count(1) == 4
        assert list(engine.table_scan("t")) == rows
        batched = [row for c in engine.table_scan_batches("t")
                   for row in c]
        assert batched == rows


class TestZoneMaps:
    def test_incremental_min_max(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i * 10, float(i)) for i in range(8)])
        first, second = engine.store("t").chunks
        assert (first.mins[0], first.maxs[0]) == (0, 3)
        assert (second.mins[1], second.maxs[1]) == (40, 70)

    def test_scan_skips_out_of_range_chunks(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(16)])
        engine.counters.reset()
        rows = list(engine.table_scan("t", [("cmp", 0, "<", 4)]))
        # Skipped chunks still charge rows_scanned (the serial scan
        # contract) but are never materialised into output.
        assert engine.counters.chunks_skipped == 3
        assert engine.counters.rows_scanned == 16
        assert rows == [(i, i, float(i)) for i in range(4)]

    def test_batch_scan_skips_and_counts(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(16)])
        engine.counters.reset()
        chunks = [list(c) for c in
                  engine.table_scan_batches("t", [("cmp", 0, ">=", 12)])]
        assert engine.counters.chunks_skipped == 3
        assert [row for c in chunks for row in c] \
            == [(i, i, float(i)) for i in range(12, 16)]

    def test_null_predicates(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, None if i < 4 else i, 0.0)
                               for i in range(8)])
        engine.counters.reset()
        list(engine.table_scan("t", [("null", 1, False)]))
        assert engine.counters.chunks_skipped == 1  # all-set chunk kept
        engine.counters.reset()
        list(engine.table_scan("t", [("null", 1, True)]))  # IS NOT NULL
        assert engine.counters.chunks_skipped == 1

    def test_in_list_skips_out_of_range_chunks(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(16)])
        engine.counters.reset()
        rows = list(engine.table_scan("t", [("in", 0, [2, 13])]))
        # Values 2 and 13 live in chunks 0 and 3; chunks 1-2 are dead.
        assert engine.counters.chunks_skipped == 2
        assert rows == [(i, i, float(i)) for i in range(16)
                        if i // 4 in (0, 3)]

    def test_not_in_skips_constant_chunks_only(self):
        engine = make_column_engine(batch_size=4)
        # Chunk 0 constant on 7, chunk 1 constant on 9, chunk 2 mixed.
        engine.load_rows("t", [(i, 7, 0.0) for i in range(4)]
                         + [(i, 9, 0.0) for i in range(4, 8)]
                         + [(i, i, 0.0) for i in range(8, 12)])
        engine.counters.reset()
        list(engine.table_scan("t", [("notin", 1, [7, 8])]))
        # Only the all-7 chunk is provably dead: the all-9 chunk's
        # value is not listed, and the mixed chunk is not constant
        # (some of its rows survive NOT IN).
        assert engine.counters.chunks_skipped == 1
        engine.counters.reset()
        batched = [row for c in engine.table_scan_batches(
            "t", [("notin", 1, [7, 9])]) for row in c]
        assert engine.counters.chunks_skipped == 2
        assert batched == [(i, i, 0.0) for i in range(8, 12)]

    def test_not_between_skips_contained_chunks(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(16)])
        engine.counters.reset()
        rows = list(engine.table_scan("t", [("notbetween", 0, 4, 11)]))
        # Chunks [4..7] and [8..11] lie wholly inside the rejected
        # window; the boundary chunks straddle it and must be kept.
        assert engine.counters.chunks_skipped == 2
        assert rows == [(i, i, float(i)) for i in range(16)
                        if i // 4 in (0, 3)]
        engine.counters.reset()
        batched = [row for c in engine.table_scan_batches(
            "t", [("notbetween", 0, 3, 12)]) for row in c]
        assert engine.counters.chunks_skipped == 2
        assert [r[0] for r in batched] == [i for i in range(16)
                                           if i // 4 in (0, 3)]

    def test_analyze_rebuilds_zone_maps(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(8)])
        store = engine.store("t")
        store.chunks[0].mins[0] = -999  # simulate drift
        engine.analyze_table("t")
        assert store.chunks[0].mins[0] == 0

    def test_delete_all_empties_store_and_reinsert_is_exact(self):
        # Ported from the replace_rows test: delete-all leaves an empty
        # store, and a row inserted afterwards gets exact zone maps.
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(8)])
        engine.delete_rows("t", range(8))
        assert engine.store("t").row_count == 0
        engine.load_rows("t", [(99, 1, 1.0)])
        store = engine.store("t")
        assert store.row_count == 1
        assert store.chunks[0].mins[0] == 99

    def test_row_level_delete_patches_two_chunks(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(40)])
        engine.counters.reset()
        engine.delete_rows("t", [0])
        # Row 39 filled the hole: only the first and last chunk changed,
        # and their zone maps are what a rebuild would compute.
        assert engine.counters.chunks_patched == 2
        store = engine.store("t")
        assert store.row_count == 39
        assert store.chunks[0].rows[0] == (39, 39, 39.0)
        assert (store.chunks[0].mins[0], store.chunks[0].maxs[0]) == (1, 39)
        assert (store.chunks[-1].mins[0], store.chunks[-1].maxs[0]) \
            == (36, 38)
        assert [len(chunk) for chunk in store.chunks] == [4] * 9 + [3]
        assert engine.index("t", "PRIMARY").lookup((39,)) == [0]
        assert engine.index("t", "PRIMARY").lookup((0,)) == []

    def test_row_level_update_patches_one_chunk(self):
        engine = make_column_engine(batch_size=4)
        engine.load_rows("t", [(i, i, float(i)) for i in range(40)])
        engine.counters.reset()
        engine.update_rows("t", [5], [(105, None, 5.0)])
        assert engine.counters.chunks_patched == 1
        chunk = engine.store("t").chunks[1]
        assert (chunk.mins[0], chunk.maxs[0]) == (4, 105)
        assert (chunk.mins[1], chunk.maxs[1]) == (4, 7)
        assert chunk.null_count(1) == 1
        # One entry out, one in, the row id unchanged.
        assert engine.counters.index_entries_maintained == 2
        assert engine.index("t", "PRIMARY").lookup((5,)) == []
        assert engine.index("t", "PRIMARY").lookup((105,)) == [5]
        # A write that leaves the key alone leaves the index alone.
        engine.update_rows("t", [6], [(6, 60, 6.0)])
        assert engine.counters.index_entries_maintained == 2
