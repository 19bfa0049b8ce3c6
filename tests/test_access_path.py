"""Tests for access-path analysis: ranges, ref access, ordered scans."""

import datetime

import pytest

from repro.executor.plan import AccessMethod
from repro.mysql_optimizer.access_path import (
    best_local_access,
    ordered_index_access,
    ref_access,
)
from repro.mysql_optimizer.cost import MySQLCostModel
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver

from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=51, orders=400)


def setup(db, sql):
    stmt = parse_statement(sql)
    block, __ = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    estimator = SelectivityEstimator(db.catalog, use_histograms=True)
    return block, estimator, MySQLCostModel()


class TestBestLocalAccess:
    def test_no_predicates_scans(self, db):
        block, estimator, cost_model = setup(db, "SELECT 1 FROM orders")
        entry = block.entries[0]
        access = best_local_access(block, entry, [], estimator, cost_model)
        assert access.method is AccessMethod.TABLE_SCAN
        rows = db.catalog.statistics("orders").row_count
        assert access.est_rows == pytest.approx(rows)

    def test_equality_on_pk_uses_range(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders WHERE o_orderkey = 9")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.INDEX_RANGE
        assert access.low == access.high == (9,)
        assert len(access.consumed_conjuncts) == 1

    def test_open_range(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders WHERE o_orderkey > 390")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.INDEX_RANGE
        assert access.low == (390,) and not access.low_inclusive
        assert access.high is None

    def test_closed_range_merges_bounds(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders "
                "WHERE o_orderkey >= 10 AND o_orderkey < 20")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.INDEX_RANGE
        assert access.low == (10,) and access.low_inclusive
        assert access.high == (20,) and not access.high_inclusive
        assert len(access.consumed_conjuncts) == 2

    def test_between_extracted(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders "
                "WHERE o_orderkey BETWEEN 100 AND 110")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.INDEX_RANGE
        assert access.low == (100,) and access.high == (110,)

    def test_unselective_range_prefers_scan(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders WHERE o_orderkey > 0")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.TABLE_SCAN

    def test_predicate_on_unindexed_column_scans(self, db):
        block, estimator, cost_model = setup(
            db, "SELECT 1 FROM orders WHERE o_totalprice = 1.0")
        entry = block.entries[0]
        access = best_local_access(block, entry, block.where_conjuncts,
                                   estimator, cost_model)
        assert access.method is AccessMethod.TABLE_SCAN


class TestRefAccess:
    def _two_tables(self, db, sql):
        block, estimator, cost_model = setup(db, sql)
        return block, block.entries, estimator, cost_model

    def test_pk_ref_access(self, db):
        block, (customer, orders), estimator, cost_model = \
            self._two_tables(db, """
                SELECT 1 FROM customer, orders
                WHERE c_custkey = o_custkey""")
        access = ref_access(block, customer, block.where_conjuncts,
                            1 << orders.entry_id,
                            estimator, cost_model)
        assert access is not None
        assert access.method is AccessMethod.INDEX_LOOKUP
        assert access.index_name == "PRIMARY"
        assert access.est_rows == pytest.approx(1.0)  # unique key

    def test_secondary_index_ref(self, db):
        block, (customer, orders), estimator, cost_model = \
            self._two_tables(db, """
                SELECT 1 FROM customer, orders
                WHERE c_custkey = o_custkey""")
        access = ref_access(block, orders, block.where_conjuncts,
                            1 << customer.entry_id,
                            estimator, cost_model)
        assert access is not None
        assert access.index_name == "orders_custkey"
        assert access.est_rows > 1.0  # non-unique: several per customer

    def test_no_ref_when_outer_not_available(self, db):
        block, (customer, orders), estimator, cost_model = \
            self._two_tables(db, """
                SELECT 1 FROM customer, orders
                WHERE c_custkey = o_custkey""")
        access = ref_access(block, orders, block.where_conjuncts,
                            0, estimator, cost_model)
        assert access is None

    def test_composite_key_prefix(self, db):
        block, entries, estimator, cost_model = self._two_tables(db, """
            SELECT 1 FROM orders, lineitem
            WHERE l_orderkey = o_orderkey""")
        orders, lineitem = entries
        access = ref_access(block, lineitem, block.where_conjuncts,
                            1 << orders.entry_id,
                            estimator, cost_model)
        assert access is not None
        # PRIMARY is (l_orderkey, l_linenumber): prefix lookup on 1 col.
        assert access.index_name == "PRIMARY"
        assert len(access.key_exprs) == 1

    def test_non_equality_gives_no_ref(self, db):
        block, entries, estimator, cost_model = self._two_tables(db, """
            SELECT 1 FROM orders, lineitem
            WHERE l_orderkey > o_orderkey""")
        orders, lineitem = entries
        access = ref_access(block, lineitem, block.where_conjuncts,
                            1 << orders.entry_id,
                            estimator, cost_model)
        assert access is None


class TestOrderedIndexAccess:
    def _order_items(self, db, sql):
        block, __, __ = setup(db, sql)
        return block.entries[0], block.order_by

    def test_matching_index_found(self, db):
        entry, order_items = self._order_items(
            db, "SELECT o_orderkey FROM orders ORDER BY o_orderkey")
        found = ordered_index_access(entry, order_items)
        assert found == ("PRIMARY", False)

    def test_descending_direction(self, db):
        entry, order_items = self._order_items(
            db, "SELECT o_orderkey FROM orders ORDER BY o_orderkey DESC")
        assert ordered_index_access(entry, order_items) == ("PRIMARY", True)

    def test_unindexed_order_not_satisfied(self, db):
        entry, order_items = self._order_items(
            db, "SELECT o_orderkey FROM orders ORDER BY o_totalprice")
        assert ordered_index_access(entry, order_items) is None

    def test_mixed_directions_rejected(self, db):
        block, __, __ = setup(db, """
            SELECT l_orderkey FROM lineitem
            ORDER BY l_orderkey, l_linenumber DESC""")
        assert ordered_index_access(block.entries[0], block.order_by) \
            is None
