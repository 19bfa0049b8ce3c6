"""Tests for resolved-block utilities: references, correlation, typing."""

import datetime

import pytest

from repro.executor.expression import RAW_SCALARS, ExpressionCompiler
from repro.mysql_types import MySQLType, python_type_for
from repro.sql import ast
from repro.sql.blocks import (
    contains_aggregate,
    default_column_name,
    infer_type,
)
from repro.sql.facts import contains_subquery, mask_ids, scan_expr
from repro.sql.parser import parse_statement
from repro.sql.resolver import Resolver


def resolve(catalog, sql):
    return Resolver(catalog).resolve(parse_statement(sql))[0]


class TestReferencedEntries:
    def test_single_table(self, mini_catalog):
        block = resolve(mini_catalog,
                        "SELECT 1 FROM orders WHERE o_orderkey > 5")
        refs = mask_ids(block.facts.mask(block.where_conjuncts[0]))
        assert refs == [block.entries[0].entry_id]

    def test_join_conjunct_references_both(self, mini_catalog):
        block = resolve(mini_catalog, """
            SELECT 1 FROM orders, lineitem
            WHERE o_orderkey = l_orderkey""")
        refs = mask_ids(block.facts.mask(block.where_conjuncts[0]))
        assert refs == sorted(e.entry_id for e in block.entries)

    def test_literal_has_no_references(self, mini_catalog):
        assert scan_expr(ast.Literal(5))[0] == 0

    def test_subquery_contributes_outer_refs(self, mini_catalog):
        block = resolve(mini_catalog, """
            SELECT 1 FROM orders
            WHERE o_totalprice > (SELECT AVG(l_price) FROM lineitem
                                  WHERE l_orderkey = o_orderkey)""")
        refs = mask_ids(block.facts.mask(block.where_conjuncts[0]))
        # The correlated subquery's binding to orders shows through.
        assert block.entries[0].entry_id in refs


class TestCorrelationSources:
    def test_uncorrelated_block_empty(self, mini_catalog):
        block = resolve(mini_catalog, "SELECT COUNT(*) FROM orders")
        assert block.facts.corr == []

    def test_nested_correlation_bubbles_up(self, mini_catalog):
        block = resolve(mini_catalog, """
            SELECT 1 FROM orders
            WHERE EXISTS (SELECT * FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_quantity > (SELECT AVG(l_quantity)
                                              FROM lineitem l2
                                              WHERE l2.l_partkey =
                                                    l_partkey))""")
        outer_exists = block.where_conjuncts[0]
        sub = outer_exists.block
        sources = sub.facts.corr
        # The EXISTS block is correlated only to orders; its own nested
        # subquery's references to lineitem are internal to its closure.
        assert sources == [block.entries[0].entry_id]


class TestPredicateHelpers:
    def test_contains_aggregate(self):
        agg = ast.AggCall(ast.AggFunc.SUM, ast.Literal(1))
        wrapped = ast.BinaryExpr(ast.BinOp.GT, agg, ast.Literal(0))
        assert contains_aggregate(wrapped)
        assert not contains_aggregate(ast.Literal(1))

    def test_contains_subquery(self):
        sub = ast.ScalarSubquery(None)
        wrapped = ast.BinaryExpr(ast.BinOp.GT, ast.Literal(1), sub)
        assert contains_subquery(wrapped)
        assert not contains_subquery(ast.Literal(1))

    def test_conjunction_roundtrip(self):
        parts = [ast.Literal(i) for i in range(3)]
        combined = ast.make_conjunction(parts)
        assert ast.conjuncts_of(combined) == parts
        assert ast.make_conjunction([]) is None

    def test_disjunction_roundtrip(self):
        parts = [ast.Literal(i) for i in range(3)]
        combined = ast.make_disjunction(parts)
        assert ast.disjuncts_of(combined) == parts


class TestTypeInference:
    def _item_type(self, catalog, select):
        block = resolve(catalog, f"SELECT {select} FROM orders")
        return infer_type(block.select_items[0].expr)

    def test_column_type_propagates(self, mini_catalog):
        assert self._item_type(mini_catalog, "o_orderdate").base is \
            MySQLType.DATE
        assert self._item_type(mini_catalog, "o_totalprice").base is \
            MySQLType.DOUBLE

    def test_comparison_is_bool(self, mini_catalog):
        assert self._item_type(
            mini_catalog, "o_totalprice > 5").base is MySQLType.BOOL

    def test_count_is_integer(self, mini_catalog):
        assert self._item_type(mini_catalog, "COUNT(*)").base is \
            MySQLType.LONGLONG

    def test_avg_is_double(self, mini_catalog):
        assert self._item_type(
            mini_catalog, "AVG(o_orderkey)").base is MySQLType.DOUBLE

    def test_min_keeps_argument_type(self, mini_catalog):
        assert self._item_type(
            mini_catalog, "MIN(o_orderdate)").base is MySQLType.DATE

    def test_division_is_double(self, mini_catalog):
        assert self._item_type(
            mini_catalog, "o_orderkey / 2").base is MySQLType.DOUBLE

    def test_int_addition_stays_integral(self, mini_catalog):
        assert self._item_type(
            mini_catalog, "o_orderkey + 1").base is MySQLType.LONGLONG

    def test_cast_target(self, mini_catalog):
        assert self._item_type(
            mini_catalog,
            "CAST(o_orderdate AS DATE)").base is MySQLType.DATE

    def test_case_takes_branch_type(self, mini_catalog):
        expr_type = self._item_type(
            mini_catalog,
            "CASE WHEN o_orderkey > 1 THEN 'yes' ELSE 'no' END")
        assert expr_type.base is MySQLType.VARCHAR

    @pytest.mark.parametrize("name", ["ABS", "ROUND", "FLOOR", "CEIL",
                                      "CEILING", "SQRT", "MOD", "POWER",
                                      "GREATEST", "LEAST", "NULLIF"])
    @pytest.mark.parametrize("args", [(7, 2), (7.5, 2), (7, 2.0),
                                      (7.5, 2.5), (2, 7.5), (2.5, 7)])
    def test_numeric_function_type_matches_its_value(self, name, args):
        # The inferred type's runtime class is the class of the value
        # the function returns, for int and float arguments alike.
        arity = 2 if name in ("ROUND", "MOD", "POWER", "GREATEST",
                              "LEAST", "NULLIF") else 1
        args = args[:arity]
        value = RAW_SCALARS[name][0](*args)
        inferred = infer_type(ast.FuncCall(name, [ast.Literal(arg)
                                                  for arg in args]))
        assert python_type_for(inferred.base) is type(value), \
            (name, args, inferred.base, value)

    @pytest.mark.parametrize("name", ["GREATEST", "LEAST"])
    @pytest.mark.parametrize("args", [("a", "b"), (None, 2), (None, 2.5),
                                      (datetime.date(2000, 1, 2),
                                       datetime.date(2000, 1, 1))])
    def test_greatest_and_least_take_their_arguments_type(self, name, args):
        value = RAW_SCALARS[name][0](*[arg for arg in args
                                       if arg is not None])
        inferred = infer_type(ast.FuncCall(name, [ast.Literal(arg)
                                                  for arg in args]))
        assert python_type_for(inferred.base) is type(value), \
            (name, args, inferred.base, value)

    @pytest.mark.parametrize("name", ["COALESCE", "IFNULL"])
    @pytest.mark.parametrize("args", [(None, 2), (None, 2.5), (7, 2.5),
                                      (2.5, 7), (None, "a")])
    def test_coalesce_type_skips_null_literals(self, name, args):
        # The value is the first non-NULL argument; a NULL literal
        # never is one, so it never decides the type.
        value = ExpressionCompiler().compile(
            ast.FuncCall(name, [ast.Literal(arg) for arg in args]))([])
        inferred = infer_type(ast.FuncCall(name, [ast.Literal(arg)
                                                  for arg in args]))
        assert python_type_for(inferred.base) is type(value), \
            (name, args, inferred.base, value)


class TestOutputColumns:
    def test_alias_names_win(self, mini_catalog):
        block = resolve(mini_catalog,
                        "SELECT o_orderkey AS k, COUNT(*) FROM orders "
                        "GROUP BY o_orderkey")
        columns = block.output_columns()
        assert columns[0].name == "k"
        # Anonymous expressions get the MySQL Name_exp_<n> convention.
        assert columns[1].name == "Name_exp_2"

    def test_default_column_name(self):
        ref = ast.ColumnRef("t", "x", 0, 0)
        assert default_column_name(ref, 0) == "x"
        assert default_column_name(ast.Literal(1), 4) == "Name_exp_5"