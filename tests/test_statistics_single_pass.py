"""Single-pass statistics equal the naive builder's, and ANALYZE skips
tables nobody wrote to.

``ColumnStatistics.from_values`` counts a column once and reads the
null count, NDV, min/max and histogram off that counter, placing only
the distinct values on the histogram axis.  The reference below is the
implementation it replaced — materialise the non-null values, ``set``
them, convert and sort *every* value, cut buckets over the flat sorted
list — kept here verbatim so "exactly equal" has something to be equal
to.  The second half pins ``analyze_all``'s skipping.
"""

import datetime
import random

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import (
    Column,
    ColumnStatistics,
    EquiHeightHistogram,
    SingletonHistogram,
    TableSchema,
    TableStatistics,
    build_histogram,
)
from repro.catalog.histogram import _to_number, encode_string_key
from repro.mysql_types import MySQLType
from repro.observability import Tracer


# -- the reference: the builder this PR replaced -------------------------------------


def reference_histogram(values, buckets=32, singleton_limit=64):
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    distinct = set(non_null)
    total = float(len(non_null))
    if len(distinct) <= singleton_limit:
        counts = {}
        for value in non_null:
            counts[value] = counts.get(value, 0) + 1
        return SingletonHistogram(
            {value: count / total for value, count in counts.items()})
    points = sorted(_to_number(value) for value in non_null)
    total = len(points)
    per_bucket = max(1, total // buckets)
    lowers, uppers, cumulative, bucket_ndv = [], [], [], []
    start = 0
    while start < total:
        end = min(total, start + per_bucket)
        while end < total and points[end] == points[end - 1]:
            end += 1
        segment = points[start:end]
        lowers.append(segment[0])
        uppers.append(segment[-1])
        cumulative.append(end / total)
        bucket_ndv.append(float(len(set(segment))))
        start = end
    return EquiHeightHistogram(lowers, uppers, cumulative, bucket_ndv)


def reference_statistics(values, unique=False, with_histogram=True):
    total = 0
    non_null = []
    for value in values:
        total += 1
        if value is not None:
            non_null.append(value)
    return ColumnStatistics(
        null_count=total - len(non_null),
        distinct_count=len(set(non_null)),
        min_value=min(non_null) if non_null else None,
        max_value=max(non_null) if non_null else None,
        histogram=reference_histogram(non_null) if with_histogram else None,
        unique=unique,
    )


def reference_string_key(value):
    key = 0
    data = value.encode("utf-8", errors="replace")[:7]
    for i in range(7):
        key = (key << 8) | (data[i] if i < len(data) else 0)
    return key


# -- seeded columns --------------------------------------------------------------------


def _columns():
    rng = random.Random(20260926)
    day0 = datetime.date(1992, 1, 1)

    def with_nulls(values, share):
        return [None if rng.random() < share else v for v in values]

    cases = {
        "ints": [rng.randrange(5000) for __ in range(4000)],
        "ints_skewed": [int(rng.paretovariate(1.2)) for __ in range(4000)],
        "floats": [round(rng.uniform(-1e4, 1e4), 2) for __ in range(3000)],
        "ints_and_floats": [rng.choice((rng.randrange(300),
                                        rng.randrange(300) + 0.5))
                            for __ in range(3000)],
        "dates": [day0 + datetime.timedelta(days=rng.randrange(2500))
                  for __ in range(3000)],
        "datetimes": [datetime.datetime(2001, 1, 1)
                      + datetime.timedelta(minutes=rng.randrange(10 ** 6))
                      for __ in range(1000)],
        "bools": [rng.random() < 0.3 for __ in range(500)],
        "strings": ["".join(rng.choice("abcdefgh") for __ in range(
            rng.randrange(1, 12))) for __ in range(3000)],
        # Distinct strings, one histogram point: they agree on the
        # first seven bytes, the axis's whole resolution.
        "strings_shared_prefix": [f"Custome{rng.randrange(400):05d}"
                                  for __ in range(2000)],
        "strings_some_shared": [rng.choice(("Clerk#0", "Order##", "zz"))
                                + str(rng.randrange(200))
                                for __ in range(2000)],
        "non_ascii_strings": [rng.choice("äöüßéñ日本") * rng.randrange(1, 5)
                              + str(rng.randrange(90))
                              for __ in range(1500)],
        "null_heavy": with_nulls([rng.randrange(900)
                                  for __ in range(3000)], 0.85),
        "null_heavy_strings": with_nulls(
            [f"s{rng.randrange(700)}" for __ in range(3000)], 0.6),
        "all_null": [None] * 300,
        "empty": [],
        "one_value": [7] * 100,
        "ndv_64": [i % 64 for i in range(1000)],
        "ndv_65": [i % 65 for i in range(1000)],
        # Runs of 25 against buckets of 3200 // 32 = 100: every bucket
        # boundary falls exactly on the end of a run.
        "runs_on_boundaries": [v for v in range(128) for __ in range(25)],
        # Runs of 50 against buckets of 3300 // 32 = 103: every bucket
        # boundary falls inside a run of equal values and must extend.
        "runs_straddle_boundaries": [v for v in range(66)
                                     for __ in range(50)],
        "one_giant_run": [5] * 2000 + list(range(100, 200)),
        "unique_ints": rng.sample(range(10 ** 6), 3000),
        # ints beyond 2**53 collapse on the float axis.
        "huge_ints": [2 ** 60 + rng.randrange(300) for __ in range(1500)],
    }
    for name in ("ints", "dates", "strings"):
        shuffled = list(cases[name])
        rng.shuffle(shuffled)
        cases[name + "_shuffled"] = shuffled
    return cases


COLUMNS = _columns()


@pytest.mark.parametrize("name", sorted(COLUMNS))
@pytest.mark.parametrize("with_histogram", [True, False],
                         ids=["histogram", "no_histogram"])
def test_statistics_equal_the_reference(name, with_histogram):
    values = COLUMNS[name]
    got = ColumnStatistics.from_values(iter(values), unique=True,
                                       with_histogram=with_histogram)
    want = reference_statistics(values, unique=True,
                                with_histogram=with_histogram)
    assert got == want
    if isinstance(want.histogram, SingletonHistogram):
        # Equal as dicts is not enough for "exactly": same first-seen
        # order, same representative of values that compare equal.
        assert list(map(repr, got.histogram.frequencies.items())) == \
            list(map(repr, want.histogram.frequencies.items()))
    assert repr(got.min_value) == repr(want.min_value)
    assert repr(got.max_value) == repr(want.max_value)


@pytest.mark.parametrize("name", sorted(COLUMNS))
@pytest.mark.parametrize("buckets,limit", [(32, 64), (4, 2), (1000, 0)])
def test_build_histogram_equals_the_reference(name, buckets, limit):
    values = COLUMNS[name]
    assert build_histogram(values, buckets, limit) == \
        reference_histogram(values, buckets, limit)


def test_the_cases_cover_what_they_claim():
    kinds = {name: type(reference_histogram(values)).__name__
             for name, values in COLUMNS.items()}
    assert kinds["ndv_64"] == "SingletonHistogram"
    assert kinds["ndv_65"] == "EquiHeightHistogram"
    assert kinds["all_null"] == kinds["empty"] == "NoneType"
    shared = reference_histogram(COLUMNS["strings_shared_prefix"])
    assert len(set(COLUMNS["strings_shared_prefix"])) > 64
    assert shared.lowers == shared.uppers and shared.bucket_ndv == [1.0]
    huge = reference_histogram(COLUMNS["huge_ints"])
    assert sum(huge.bucket_ndv) < len(set(COLUMNS["huge_ints"]))
    straddle = reference_histogram(COLUMNS["runs_straddle_boundaries"])
    assert all(round(c * 3300) % 50 == 0 for c in straddle.cumulative)
    assert straddle.bucket_ndv[0] == 3.0        # 103 values -> 3 runs
    exact = reference_histogram(COLUMNS["runs_on_boundaries"])
    assert exact.bucket_ndv == [4.0] * 32


def test_string_key_equals_the_byte_loop():
    rng = random.Random(5)
    samples = ["", "a", "abcdefg", "abcdefgh", "äöü", "日本語のテキスト",
               "\x00\x01", "z" * 40]
    samples += ["".join(chr(rng.randrange(1, 0x800))
                        for __ in range(rng.randrange(12)))
                for __ in range(300)]
    for value in samples:
        assert encode_string_key(value) == reference_string_key(value)


# -- ANALYZE skips what did not change ---------------------------------------------------


def _two_table_db():
    db = Database(DatabaseConfig())
    for name in ("r", "s", "never_loaded"):
        db.create_table(TableSchema(name, [
            Column.of("a", MySQLType.LONGLONG, nullable=False),
            Column.of("b", MySQLType.VARCHAR, 20),
        ]))
    db.load("r", [(i, f"r{i % 90}") for i in range(500)])
    db.load("s", [(i, None if i % 3 else f"s{i}") for i in range(200)])
    return db


class TestAnalyzeSkipsUnchangedTables:

    def test_first_analyze_covers_every_table_even_an_empty_one(self):
        db = _two_table_db()
        assert db.storage.analyze_all() == ["r", "s", "never_loaded"]
        empty = db.catalog.statistics("never_loaded")
        assert empty.analyzed and empty.row_count == 0
        assert empty.columns["a"] == ColumnStatistics()

    def test_second_analyze_does_no_column_work(self, monkeypatch):
        db = _two_table_db()
        db.analyze()
        statistics = {t: db.catalog.statistics(t)
                      for t in db.catalog.table_names}
        epochs = {t: db.catalog.epoch(t) for t in db.catalog.table_names}
        calls = []
        real = ColumnStatistics.from_values
        monkeypatch.setattr(
            ColumnStatistics, "from_values",
            staticmethod(lambda *a, **k: calls.append(a) or real(*a, **k)))
        db.analyze()
        assert calls == []
        for table in db.catalog.table_names:
            assert db.catalog.statistics(table) is statistics[table]
            assert db.catalog.epoch(table) == epochs[table]
        assert db.metrics.count("analyze.tables_analyzed") == 3
        assert db.metrics.count("analyze.tables_skipped") == 3

    @pytest.mark.parametrize("write", [
        "INSERT INTO s VALUES (1000, 'new')",
        "UPDATE s SET b = 'changed' WHERE a = 7",
        "DELETE FROM s WHERE a = 7",
    ], ids=["insert", "update", "delete"])
    def test_one_changed_row_reanalyzes_only_its_table(self, write):
        db = _two_table_db()
        db.analyze()
        epoch_r = db.catalog.epoch("r")
        assert db.run(write).rows == [(1,)]
        assert db.storage.analyze_all() == ["s"]
        assert db.catalog.epoch("r") == epoch_r
        rows = list(db.storage.store("s").scan())
        assert db.catalog.statistics("s").row_count == len(rows)
        assert db.catalog.statistics("s").columns["b"] == \
            reference_statistics([row[1] for row in rows])
        assert db.storage.analyze_all() == []

    def test_bulk_load_counts_as_a_change(self):
        db = _two_table_db()
        db.analyze()
        db.load("r", [(9000, "x")])
        db.load("s", [])                     # no row: no change
        assert db.storage.analyze_all() == ["r"]

    def test_flipping_with_histograms_recomputes(self):
        db = _two_table_db()
        db.analyze()
        assert db.catalog.statistics("r").columns["a"].histogram is not None
        assert db.storage.analyze_all(with_histograms=False) == \
            ["r", "s", "never_loaded"]
        assert db.catalog.statistics("r").columns["a"].histogram is None
        assert db.storage.analyze_all(with_histograms=False) == []
        assert len(db.storage.analyze_all(with_histograms=True)) == 3

    def test_statistics_set_by_hand_are_not_mistaken_for_analyzed(self):
        db = _two_table_db()
        db.analyze()
        db.catalog.set_statistics("r", TableStatistics(row_count=1))
        assert db.storage.analyze_all() == ["r"]
        assert db.catalog.statistics("r").row_count == 500

    def test_recreated_table_is_analyzed_again(self):
        db = _two_table_db()
        db.analyze()
        schema = db.catalog.table("s")
        db.storage.drop_table("s")
        db.create_table(schema)
        assert db.storage.analyze_all() == ["s"]
        assert db.catalog.statistics("s").analyzed

    def test_analyze_table_always_recomputes(self):
        db = _two_table_db()
        db.analyze()
        before = db.catalog.statistics("r")
        assert db.storage.analyze_table("r") is not before
        assert db.storage.analyze_table("r") == before

    def test_analyze_span_and_counters(self):
        db = _two_table_db()
        db.tracer = Tracer()
        db.analyze()
        db.run("DELETE FROM r WHERE a = 1")
        db.analyze()
        first, second = [root for root in db.tracer.roots
                         if root.name == "analyze"]
        assert first.attributes == {"tables_analyzed": 3,
                                    "tables_skipped": 0}
        assert second.attributes == {"tables_analyzed": 1,
                                     "tables_skipped": 2}
        assert db.metrics.count("analyze.tables_analyzed") == 4
        assert db.metrics.count("analyze.tables_skipped") == 2
