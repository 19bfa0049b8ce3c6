"""Tests for name resolution and the table-list structures."""

import pytest

from repro.errors import ResolutionError
from repro.sql import ast
from repro.sql.blocks import EntryKind
from repro.sql.parser import parse_statement
from repro.sql.resolver import Resolver


def resolve(catalog, sql):
    stmt = parse_statement(sql)
    return Resolver(catalog).resolve(stmt)


class TestBasicResolution:
    def test_column_binds_to_entry(self, mini_catalog):
        block, __ = resolve(mini_catalog,
                            "SELECT o_orderkey FROM orders")
        ref = block.select_items[0].expr
        assert ref.entry_id == block.entries[0].entry_id
        assert ref.position == 0

    def test_entry_back_pointer_to_block(self, mini_catalog):
        # The TABLE_LIST link the plan converter relies on (Section 4.2.1).
        block, __ = resolve(mini_catalog, "SELECT * FROM orders")
        assert block.entries[0].block is block

    def test_alias_resolution(self, mini_catalog):
        block, __ = resolve(mini_catalog,
                            "SELECT o.o_orderkey FROM orders o")
        assert block.entries[0].alias == "o"

    def test_unknown_column(self, mini_catalog):
        with pytest.raises(ResolutionError):
            resolve(mini_catalog, "SELECT nothing FROM orders")

    def test_unknown_table(self, mini_catalog):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            resolve(mini_catalog, "SELECT 1 FROM missing")

    def test_ambiguous_column(self, mini_catalog):
        with pytest.raises(ResolutionError):
            resolve(mini_catalog,
                    "SELECT o_orderkey FROM orders o1, orders o2")

    def test_duplicate_alias(self, mini_catalog):
        with pytest.raises(ResolutionError):
            resolve(mini_catalog, "SELECT 1 FROM orders o, lineitem o")

    def test_star_expansion(self, mini_catalog):
        block, __ = resolve(mini_catalog, "SELECT * FROM part")
        assert [item.expr.column for item in block.select_items] == \
            ["p_partkey", "p_brand", "p_size"]

    def test_qualified_star_expansion(self, mini_catalog):
        block, __ = resolve(
            mini_catalog, "SELECT p.* FROM part p, orders")
        assert len(block.select_items) == 3


class TestJoinsAndPooling:
    def test_inner_join_on_pooled_into_where(self, mini_catalog):
        # MySQL pools inner-join ON conditions into WHERE (Listing 3).
        block, __ = resolve(mini_catalog, """
            SELECT o_orderkey FROM orders
            JOIN lineitem ON o_orderkey = l_orderkey
            WHERE l_quantity > 5""")
        assert len(block.where_conjuncts) == 2

    def test_left_join_keeps_on_condition(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_orderkey FROM orders
            LEFT JOIN lineitem ON o_orderkey = l_orderkey""")
        inner = block.entries[1]
        assert inner.is_outer_joined
        assert len(inner.outer_join_conjuncts) == 1
        assert not block.where_conjuncts

    def test_left_join_makes_columns_nullable(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT l_quantity FROM orders
            LEFT JOIN lineitem ON o_orderkey = l_orderkey""")
        inner = block.entries[1]
        assert all(col.nullable for col in inner.columns)


class TestSubqueriesAndDerived:
    def test_derived_table_columns(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT total FROM
            (SELECT o_custkey, SUM(o_totalprice) AS total
             FROM orders GROUP BY o_custkey) AS agg""")
        entry = block.entries[0]
        assert entry.kind is EntryKind.DERIVED
        assert [c.name for c in entry.columns] == ["o_custkey", "total"]

    def test_scalar_subquery_block_attached(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_orderkey FROM orders
            WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)""")
        sub = block.where_conjuncts[0].right.block
        assert sub is not None
        assert not sub.facts.corr

    def test_correlated_subquery_records_outer_refs(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_orderkey FROM orders
            WHERE o_totalprice > (SELECT AVG(l_price) FROM lineitem
                                  WHERE l_orderkey = o_orderkey)""")
        sub = block.where_conjuncts[0].right.block
        sources = sub.facts.corr
        assert sources == [block.entries[0].entry_id]

    def test_cte_consumers_share_binding(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            WITH big AS (SELECT o_custkey AS ck FROM orders
                         WHERE o_totalprice > 100)
            SELECT b1.ck FROM big b1, big b2 WHERE b1.ck = b2.ck""")
        first, second = block.entries
        assert first.kind is EntryKind.CTE
        assert first.cte is second.cte  # single shared producer binding

    def test_select_alias_in_order_by(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_custkey, COUNT(*) AS cnt FROM orders
            GROUP BY o_custkey ORDER BY cnt DESC""")
        order_expr = block.order_by[0].expr
        assert isinstance(order_expr, ast.AggCall)

    def test_select_alias_in_having(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_custkey, COUNT(*) AS cnt FROM orders
            GROUP BY o_custkey HAVING cnt > 3""")
        having = block.having_conjuncts[0]
        assert isinstance(having.left, ast.AggCall)

    def test_union_sides_resolved(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT o_orderkey FROM orders
            UNION ALL SELECT l_orderkey FROM lineitem""")
        assert len(block.set_ops) == 1

    def test_union_arity_mismatch(self, mini_catalog):
        with pytest.raises(ResolutionError):
            resolve(mini_catalog, """
                SELECT o_orderkey FROM orders
                UNION ALL SELECT l_orderkey, l_partkey FROM lineitem""")

    def test_aggregated_flag(self, mini_catalog):
        block, __ = resolve(mini_catalog,
                            "SELECT COUNT(*) FROM orders")
        assert block.aggregated
        block, __ = resolve(mini_catalog,
                            "SELECT o_orderkey FROM orders")
        assert not block.aggregated

    def test_window_specs_collected(self, mini_catalog):
        block, __ = resolve(mini_catalog, """
            SELECT RANK() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice) FROM orders""")
        assert len(block.windows) == 1
