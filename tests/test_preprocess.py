"""Tests for Orca preprocessing: OR factorization, derived subqueries,
CTE predicate pushdown (Sections 4.2.3 and 7)."""

import pytest

from repro.sql import ast
from repro.sql.blocks import EntryKind
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.orca.preprocess import (
    convert_scalar_subqueries_to_derived,
    factor_one_or,
    factor_or_predicates,
    push_cte_predicates,
)


def prepared(catalog, sql):
    stmt = parse_statement(sql)
    block, context = Resolver(catalog).resolve(stmt)
    return prepare(block)


class TestOrFactorization:
    def test_q41_pattern_factors_common_equality(self, mini_catalog):
        # "(a = b AND x) OR (a = b AND y)" -> "(a = b) AND (x OR y)".
        block = prepared(mini_catalog, """
            SELECT 1 FROM orders, customer
            WHERE (o_custkey = c_custkey AND o_status = 'O')
               OR (o_custkey = c_custkey AND o_totalprice > 100)""")
        count = factor_or_predicates(block)
        assert count == 1
        assert len(block.where_conjuncts) == 2
        equality = block.where_conjuncts[0]
        assert equality.op is ast.BinOp.EQ
        disjunction = block.where_conjuncts[1]
        assert disjunction.op is ast.BinOp.OR

    def test_no_common_factor_unchanged(self, mini_catalog):
        block = prepared(mini_catalog, """
            SELECT 1 FROM orders
            WHERE o_status = 'O' OR o_totalprice > 100""")
        assert factor_or_predicates(block) == 0
        assert len(block.where_conjuncts) == 1

    def test_absorption_when_remainder_empty(self, mini_catalog):
        # (c AND x) OR c  ==  c
        block = prepared(mini_catalog, """
            SELECT 1 FROM orders
            WHERE (o_status = 'O' AND o_totalprice > 100)
               OR o_status = 'O'""")
        assert factor_or_predicates(block) == 1
        assert len(block.where_conjuncts) == 1
        assert block.where_conjuncts[0].op is ast.BinOp.EQ

    def test_three_disjuncts(self, mini_catalog):
        block = prepared(mini_catalog, """
            SELECT 1 FROM lineitem, part
            WHERE (p_partkey = l_partkey AND l_quantity < 10)
               OR (p_partkey = l_partkey AND l_quantity > 40)
               OR (p_partkey = l_partkey AND l_price > 400)""")
        assert factor_or_predicates(block) == 1
        assert block.where_conjuncts[0].op is ast.BinOp.EQ

    def test_non_or_conjunct_untouched(self, mini_catalog):
        block = prepared(mini_catalog,
                         "SELECT 1 FROM orders WHERE o_totalprice > 10")
        conjunct = block.where_conjuncts[0]
        assert factor_one_or(conjunct) is None


class TestScalarSubqueryToDerived:
    def test_q17_pattern_converted(self, mini_catalog):
        block = prepared(mini_catalog, """
            SELECT COUNT(*) FROM lineitem, part
            WHERE p_partkey = l_partkey
              AND l_quantity < (SELECT AVG(l_quantity) FROM lineitem
                                WHERE l_partkey = p_partkey)""")
        converted = convert_scalar_subqueries_to_derived(block)
        assert converted == 1
        derived = [e for e in block.entries
                   if e.kind is EntryKind.DERIVED]
        assert len(derived) == 1
        # The materialised column gets MySQL's Name_exp_1 (Listing 7).
        assert derived[0].columns[0].name == "Name_exp_1"
        # The comparison now references the derived column.
        last = block.where_conjuncts[-1]
        assert isinstance(last.right, ast.ColumnRef)
        assert last.right.entry_id == derived[0].entry_id

    def test_subquery_inside_case_not_converted(self, mini_catalog):
        # Section 4.2.3's override: the TPC-DS Q9 CASE subqueries stay
        # subqueries so only the needed bucket is evaluated.
        block = prepared(mini_catalog, """
            SELECT CASE WHEN (SELECT COUNT(*) FROM orders) > 5
                        THEN (SELECT AVG(o_totalprice) FROM orders)
                        ELSE 0 END
            FROM part WHERE p_partkey = 1""")
        assert convert_scalar_subqueries_to_derived(block) == 0

    def test_grouped_subquery_not_converted(self, mini_catalog):
        block = prepared(mini_catalog, """
            SELECT COUNT(*) FROM part
            WHERE p_size < (SELECT MAX(p_size) FROM part p2
                            GROUP BY p_brand LIMIT 1)""")
        assert convert_scalar_subqueries_to_derived(block) == 0

    def test_results_unchanged_by_conversion(self):
        from tests.conftest import build_mini_db

        db = build_mini_db(seed=21, orders=150)
        sql = """
            SELECT COUNT(*) FROM lineitem, part
            WHERE p_partkey = l_partkey
              AND l_quantity < (SELECT AVG(l_quantity) FROM lineitem
                                WHERE l_partkey = p_partkey)"""
        mysql_rows = db.execute(sql, optimizer="mysql")
        orca_rows = db.execute(sql, optimizer="orca")
        assert mysql_rows == orca_rows


class TestCtePushdown:
    def test_consumer_filters_ored_into_producer(self, mini_catalog):
        # The paper's example: predicates a = 5 and a = 6 on two
        # consumers are OR-ed and pushed (Section 7, lesson 3).
        block = prepared(mini_catalog, """
            WITH spend AS (SELECT o_custkey AS ck,
                                  SUM(o_totalprice) AS total
                           FROM orders GROUP BY o_custkey)
            SELECT s1.total, s2.total FROM spend s1, spend s2
            WHERE s1.ck = 5 AND s2.ck = 6 AND s1.total > s2.total""")
        pushed = push_cte_predicates(block)
        assert pushed == 1
        producer = block.cte_bindings[0].block
        pushed_conjunct = producer.where_conjuncts[-1]
        assert pushed_conjunct.op is ast.BinOp.OR

    def test_no_push_when_one_consumer_unfiltered(self, mini_catalog):
        block = prepared(mini_catalog, """
            WITH spend AS (SELECT o_custkey AS ck,
                                  SUM(o_totalprice) AS total
                           FROM orders GROUP BY o_custkey)
            SELECT s1.total FROM spend s1, spend s2
            WHERE s1.ck = 5 AND s1.total > s2.total""")
        assert push_cte_predicates(block) == 0

    def test_no_push_through_aggregate_column(self, mini_catalog):
        block = prepared(mini_catalog, """
            WITH spend AS (SELECT o_custkey AS ck,
                                  SUM(o_totalprice) AS total
                           FROM orders GROUP BY o_custkey)
            SELECT s1.total FROM spend s1
            WHERE s1.total > 100""")
        # total is an aggregate output, not a grouping column.
        assert push_cte_predicates(block) == 0

    def test_push_preserves_results(self):
        from tests.conftest import build_mini_db

        db = build_mini_db(seed=22, orders=150)
        sql = """
            WITH spend AS (SELECT o_custkey AS ck,
                                  SUM(o_totalprice) AS total
                           FROM orders GROUP BY o_custkey)
            SELECT s1.ck, s2.ck FROM spend s1, spend s2
            WHERE s1.ck = 5 AND s2.ck = 6 AND s1.total > s2.total"""
        assert db.execute(sql, optimizer="mysql") == \
            db.execute(sql, optimizer="orca")


class TestConversionStaysOutOfSemijoinNests:
    """A scalar subquery compared inside an EXISTS / NOT EXISTS body is
    not converted once the body is a semi-join nest of the outer block:
    the derived table would be joined above the semi-join, not per nest
    row.  Counts are checked against SQLite over the same rows."""

    SQL = ("SELECT COUNT(*) FROM orders WHERE o_orderdate < DATE "
           "'1993-01-01' AND {neg}EXISTS (SELECT * FROM lineitem WHERE "
           "l_orderkey = o_orderkey AND l_extendedprice > "
           "(SELECT AVG(p_retailprice) * 20 FROM part "
           "WHERE p_partkey = l_partkey))")
    SCALE = 0.02

    @pytest.fixture(scope="class")
    def tpch(self):
        from repro import Database
        from repro.workloads.tpch import load_tpch

        db = Database()
        load_tpch(db, scale=self.SCALE)
        return db

    @pytest.fixture(scope="class")
    def oracle(self):
        import datetime
        import sqlite3

        from repro.workloads.tpch.datagen import generate_tpch
        from repro.workloads.tpch.schema import build_tpch_schema

        rows = generate_tpch(self.SCALE, 42)
        con = sqlite3.connect(":memory:")
        for schema in build_tpch_schema():
            if schema.name not in ("orders", "lineitem", "part"):
                continue
            names = [column.name for column in schema.columns]
            con.execute(f"CREATE TABLE {schema.name} ({', '.join(names)})")
            con.executemany(
                f"INSERT INTO {schema.name} VALUES "
                f"({', '.join('?' * len(names))})",
                [tuple(value.isoformat()
                       if isinstance(value, datetime.date) else value
                       for value in row) for row in rows[schema.name]])
        counts = {}
        for neg in ("", "NOT "):
            sql = self.SQL.format(neg=neg).replace(
                "DATE '1993-01-01'", "'1993-01-01'")
            counts[neg] = con.execute(sql).fetchone()[0]
        con.close()
        return counts

    def test_oracle_counts_partition_the_qualifying_orders(self, oracle):
        assert oracle == {"": 10, "NOT ": 3}

    @pytest.mark.parametrize("neg", ["", "NOT "])
    @pytest.mark.parametrize("optimizer", ["mysql", "orca"])
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_count_matches_sqlite(self, tpch, oracle, neg, optimizer, mode):
        result = tpch.run(self.SQL.format(neg=neg), optimizer=optimizer,
                          executor_mode=mode)
        assert result.rows == [(oracle[neg],)]

    def test_no_corpus_statement_touches_a_nest(self, monkeypatch):
        # The guard leaves every benchmark plan as it was: no TPC-H or
        # TPC-DS conversion candidate reads a semi-join nest.
        from repro import Database
        from repro.orca import preprocess
        from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
        from repro.workloads.tpch import TPCH_QUERIES, load_tpch

        consulted, refused = [], []
        guard = preprocess._reads_semijoin_nest

        def spy(block, left, sub):
            touched = guard(block, left, sub)
            consulted.append(block.block_id)
            if touched:
                refused.append(block.block_id)
            return touched

        monkeypatch.setattr(preprocess, "_reads_semijoin_nest", spy)
        for loader, queries, scale in ((load_tpch, TPCH_QUERIES, 0.01),
                                       (load_tpcds, TPCDS_QUERIES, 0.05)):
            db = Database()
            loader(db, scale=scale)
            for sql in queries.values():
                db.explain(sql, optimizer="orca")
        assert consulted and refused == []
