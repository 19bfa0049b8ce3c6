"""Tests for shared selectivity estimation."""

import pytest

from repro.selectivity import SelectivityEstimator
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver

from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=13, orders=400)


def conjunct_for(db, condition):
    stmt = parse_statement(f"SELECT 1 FROM orders WHERE {condition}")
    block, __ = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    return block, block.where_conjuncts[0]


class TestHeuristicEstimation:
    def test_equality_uses_ndv(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_status = 'O'")
        ndv = db.catalog.statistics("orders").column(
            "o_status").distinct_count
        assert estimator.conjunct_selectivity(block, conjunct) == \
            pytest.approx(1.0 / ndv)

    def test_range_uses_default_third(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_totalprice > 9999")
        assert estimator.conjunct_selectivity(block, conjunct) == \
            pytest.approx(1.0 / 3.0)


class TestHistogramEstimation:
    def test_range_uses_histogram(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        block, conjunct = conjunct_for(db, "o_totalprice > 9000")
        sel = estimator.conjunct_selectivity(block, conjunct)
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if v > 9000) / len(values)
        assert sel == pytest.approx(actual, abs=0.08)

    def test_histograms_beat_heuristics(self, db):
        """The core reason Orca's estimates are better."""
        with_h = SelectivityEstimator(db.catalog, use_histograms=True)
        without_h = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_totalprice > 9500")
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if v > 9500) / len(values)
        err_with = abs(with_h.conjunct_selectivity(block, conjunct)
                       - actual)
        err_without = abs(without_h.conjunct_selectivity(block, conjunct)
                          - actual)
        assert err_with < err_without

    def test_between_with_histogram(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        block, conjunct = conjunct_for(
            db, "o_totalprice BETWEEN 1000 AND 3000")
        sel = estimator.conjunct_selectivity(block, conjunct)
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if 1000 <= v <= 3000) / len(values)
        assert sel == pytest.approx(actual, abs=0.08)


class TestCombinators:
    def test_and_multiplies(self, db):
        from repro.sql import ast

        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, first = conjunct_for(db, "o_status = 'O'")
        __, second = conjunct_for(db, "o_status = 'F'")
        combined = ast.BinaryExpr(ast.BinOp.AND, first, second)
        one = estimator.conjunct_selectivity(block, first)
        assert estimator.conjunct_selectivity(block, combined) == \
            pytest.approx(one * one)

    def test_or_is_inclusion_exclusion(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, disj = conjunct_for(db, "o_status = 'O' OR o_status = 'F'")
        sb, single = conjunct_for(db, "o_status = 'O'")
        s = estimator.conjunct_selectivity(sb, single)
        assert estimator.conjunct_selectivity(block, disj) == \
            pytest.approx(s + s - s * s)

    def test_not_complements(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, negated = conjunct_for(db, "NOT o_status = 'O'")
        sb, plain = conjunct_for(db, "o_status = 'O'")
        assert estimator.conjunct_selectivity(block, negated) == \
            pytest.approx(1.0 - estimator.conjunct_selectivity(sb, plain))

    def test_selectivity_always_in_unit_interval(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        for condition in ("o_orderkey = 1", "o_totalprice < -1",
                          "o_totalprice > -99999",
                          "o_comment LIKE '%x%'",
                          "o_status IN ('O', 'F', 'P', 'Z')",
                          "o_comment IS NULL"):
            block, conjunct = conjunct_for(db, condition)
            sel = estimator.conjunct_selectivity(block, conjunct)
            assert 0.0 <= sel <= 1.0


class TestJoinSelectivity:
    def test_equi_join_uses_larger_ndv(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        stmt = parse_statement("""
            SELECT 1 FROM orders, customer
            WHERE o_custkey = c_custkey""")
        block, __ = Resolver(db.catalog).resolve(stmt)
        prepare(block)
        conjunct = block.where_conjuncts[0]
        sel = estimator.join_selectivity(block, conjunct)
        custkeys = db.catalog.statistics("customer").column(
            "c_custkey").distinct_count
        o_ndv = db.catalog.statistics("orders").column(
            "o_custkey").distinct_count
        assert sel == pytest.approx(1.0 / max(custkeys, o_ndv))
