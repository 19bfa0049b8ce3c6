"""Tests for the paper's harness and report formatting
(``benchmarks/paper.py``)."""

import pytest

from benchmarks.paper import (
    COLD_PASS,
    BenchmarkResult,
    QueryTiming,
    format_figure10,
    format_figure12,
    format_table1,
    results_match,
    run_compile_suite,
    run_suite,
    summarize,
)
from tests.conftest import build_mini_db


class TestResultsMatch:
    def test_exact_match(self):
        assert results_match([(1, "a")], [(1, "a")])

    def test_order_insensitive(self):
        assert results_match([(1,), (2,)], [(2,), (1,)])

    def test_float_difference_detected(self):
        # Sums are exact and order-free, so plans agree bit for bit:
        # any float difference is a real one.
        assert not results_match([(45.82250000001,)], [(45.8225,)])

    def test_duplicates_counted(self):
        assert not results_match([(1,), (1,), (2,)], [(1,), (2,), (2,)])

    def test_real_difference_detected(self):
        assert not results_match([(45.8,)], [(45.9,)])

    def test_length_mismatch(self):
        assert not results_match([(1,)], [(1,), (1,)])

    def test_none_values(self):
        assert results_match([(None, 1)], [(None, 1)])
        assert not results_match([(None,)], [(1,)])

    def test_mixed_type_rows(self):
        import datetime

        row = (1, "x", 2.5, datetime.date(1995, 1, 1), None)
        assert results_match([row], [row])


class TestTimingMath:
    def test_ratio_and_speedup(self):
        timing = QueryTiming(1, mysql_seconds=2.0, orca_seconds=0.5)
        assert timing.ratio == pytest.approx(0.25)
        assert timing.speedup == pytest.approx(4.0)

    def test_totals_and_reduction(self):
        result = BenchmarkResult("X", [
            QueryTiming(1, 2.0, 1.0), QueryTiming(2, 2.0, 1.0)])
        assert result.total_mysql == 4.0
        assert result.total_orca == 2.0
        assert result.total_reduction_percent == pytest.approx(50.0)

    def test_wins_and_losses(self):
        result = BenchmarkResult("X", [
            QueryTiming(1, 10.0, 1.0),    # 10X win
            QueryTiming(2, 1.0, 2.0),     # 2X loss
            QueryTiming(3, 1.0, 1.0)])
        assert [t.number for t in result.wins(10.0)] == [1]
        assert [t.number for t in result.losses(1.5)] == [2]

    def test_summarize_fields(self):
        result = BenchmarkResult("X", [
            QueryTiming(1, 10.0, 1.0, results_match=False)])
        headline = summarize(result)
        assert headline["ten_x_wins"] == [1]
        assert headline["mismatches"] == [1]


class TestRunSuite:
    @pytest.fixture(scope="class")
    def db(self):
        return build_mini_db(seed=41, orders=60)

    def test_times_all_queries(self, db):
        queries = {
            1: "SELECT COUNT(*) FROM orders",
            2: "SELECT COUNT(*) FROM orders, customer "
               "WHERE o_custkey = c_custkey",
        }
        result = run_suite(db, queries, "mini", timeout_seconds=60)
        assert [t.number for t in result.timings] == [1, 2]
        assert all(t.mysql_seconds > 0 for t in result.timings)
        assert all(t.results_match for t in result.timings)

    def test_timeout_records_cap(self, db):
        queries = {1: """
            SELECT COUNT(*) FROM lineitem l1, lineitem l2, lineitem l3
            WHERE l1.l_quantity + l2.l_quantity + l3.l_quantity > -1"""}
        result = run_suite(db, queries, "slow", timeout_seconds=0.05)
        timing = result.timings[0]
        assert timing.mysql_timed_out or timing.mysql_seconds <= 0.2
        if timing.mysql_timed_out:
            assert timing.mysql_seconds == pytest.approx(0.05)

    def test_compile_suite(self, db):
        queries = {1: "SELECT COUNT(*) FROM orders, customer "
                      "WHERE o_custkey = c_custkey"}
        totals = run_compile_suite(db, queries, {
            "MySQL": lambda: None,
            "MySQL + Orca-EXHAUSTIVE2":
                lambda: setattr(db.config, "orca_search", "EXHAUSTIVE2"),
        })
        # The untimed Orca pass comes first, then each configuration.
        assert list(totals) == [COLD_PASS, "MySQL",
                                "MySQL + Orca-EXHAUSTIVE2"]
        assert all(value > 0 for value in totals.values())


class TestReports:
    def _result(self):
        return BenchmarkResult("TPC-H", [
            QueryTiming(1, 1.0, 0.1), QueryTiming(2, 0.01, 0.05)])

    def test_figure10_contains_rows_and_totals(self):
        text = format_figure10(self._result())
        assert "Q    1" in text and "Q    2" in text
        assert "total MySQL" in text
        assert ">=10X faster with Orca: [1]" in text

    def test_figure12_marks_slower_queries(self):
        text = format_figure12(self._result())
        assert "Orca slower" in text

    def test_table1_formatting(self):
        text = format_table1({"MySQL": 0.17, "X": 2.06},
                             {"MySQL": 1.09, "X": 48.08})
        assert "0.17" in text and "48.08" in text
        assert "Compiler" in text
