"""Tests for the SQL parser."""

import datetime

import pytest

from repro.errors import ParseError, UnsupportedSqlError
from repro.sql import ast
from repro.sql.parser import parse_statement


class TestSelectCore:
    def test_simple_select(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert len(stmt.items) == 2
        assert isinstance(stmt.from_tables[0], ast.BaseTableRef)

    def test_select_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse_statement("SELECT t.* FROM t")
        assert stmt.items[0].expr.table == "t"

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t z")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_tables[0].alias == "z"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_group_by_having(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_by_directions(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in stmt.order_by] == [True, False, False]

    def test_limit_offset(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 10 OFFSET 5")
        assert stmt.limit == 10 and stmt.offset == 5

    def test_mysql_limit_comma(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 5, 10")
        assert stmt.limit == 10 and stmt.offset == 5


class TestJoins:
    def test_comma_join(self):
        stmt = parse_statement("SELECT * FROM a, b, c")
        assert len(stmt.from_tables) == 3

    def test_inner_join_on(self):
        stmt = parse_statement("SELECT * FROM a JOIN b ON a.x = b.y")
        join = stmt.from_tables[0]
        assert isinstance(join, ast.JoinRef)
        assert join.join_type is ast.JoinType.INNER
        assert join.condition is not None

    def test_left_outer_join(self):
        stmt = parse_statement(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
        assert stmt.from_tables[0].join_type is ast.JoinType.LEFT

    def test_left_join_without_outer(self):
        stmt = parse_statement("SELECT * FROM a LEFT JOIN b ON a.x = b.y")
        assert stmt.from_tables[0].join_type is ast.JoinType.LEFT

    def test_join_chain_is_left_assoc(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
        outer = stmt.from_tables[0]
        assert isinstance(outer.left, ast.JoinRef)
        assert isinstance(outer.right, ast.BaseTableRef)

    def test_right_join_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            parse_statement("SELECT * FROM a RIGHT JOIN b ON a.x = b.y")

    def test_join_requires_on(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM a JOIN b WHERE 1 = 1")

    def test_derived_table(self):
        stmt = parse_statement(
            "SELECT * FROM (SELECT a FROM t) AS d (col)")
        derived = stmt.from_tables[0]
        assert isinstance(derived, ast.DerivedTableRef)
        assert derived.column_names == ["col"]

    def test_schema_qualified_table(self):
        stmt = parse_statement("SELECT * FROM tpch.lineitem")
        assert stmt.from_tables[0].name == "lineitem"


class TestExpressions:
    def where(self, condition):
        return parse_statement(f"SELECT a FROM t WHERE {condition}").where

    def test_precedence_or_and(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert expr.op is ast.BinOp.OR
        assert expr.right.op is ast.BinOp.AND

    def test_arithmetic_precedence(self):
        expr = self.where("a + b * c = 7")
        assert expr.left.op is ast.BinOp.ADD
        assert expr.left.right.op is ast.BinOp.MUL

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, ast.BetweenExpr)

    def test_not_between(self):
        expr = self.where("a NOT BETWEEN 1 AND 10")
        assert expr.negated

    def test_like_and_not_like(self):
        assert isinstance(self.where("a LIKE '%x%'"), ast.LikeExpr)
        assert self.where("a NOT LIKE '%x%'").negated

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, ast.InListExpr)
        assert len(expr.items) == 3

    def test_in_subquery(self):
        expr = self.where("a IN (SELECT b FROM u)")
        assert isinstance(expr, ast.InSubqueryExpr)

    def test_not_in_subquery(self):
        expr = self.where("a NOT IN (SELECT b FROM u)")
        assert expr.negated

    def test_exists(self):
        expr = self.where("EXISTS (SELECT * FROM u)")
        assert isinstance(expr, ast.ExistsExpr)

    def test_not_exists(self):
        expr = self.where("NOT EXISTS (SELECT * FROM u)")
        assert isinstance(expr, ast.NotExpr)
        assert isinstance(expr.operand, ast.ExistsExpr)

    def test_is_null(self):
        assert isinstance(self.where("a IS NULL"), ast.IsNullExpr)
        assert self.where("a IS NOT NULL").negated

    def test_scalar_subquery(self):
        expr = self.where("a > (SELECT AVG(b) FROM u)")
        assert isinstance(expr.right, ast.ScalarSubquery)

    def test_date_literal(self):
        expr = self.where("d >= DATE '1995-01-01'")
        assert expr.right.value == datetime.date(1995, 1, 1)

    def test_interval(self):
        expr = self.where("d < DATE '1995-01-01' + INTERVAL '3' MONTH")
        interval = expr.right.right
        assert isinstance(interval, ast.IntervalLiteral)
        assert interval.interval.months == 3

    @pytest.mark.parametrize("unit,months,days", [
        ("YEAR", 24, 0), ("MONTH", 2, 0), ("DAY", 0, 2)])
    def test_interval_units_beside_date_functions(self, unit, months, days):
        # YEAR / MONTH followed by "(" are the date functions; after
        # INTERVAL n they stay units.
        stmt = parse_statement(
            f"SELECT YEAR(d), MONTH(d) FROM t "
            f"WHERE d < DATE '1995-01-01' + INTERVAL 2 {unit}")
        assert [item.expr.name for item in stmt.items] == ["YEAR", "MONTH"]
        interval = stmt.where.right.right
        assert isinstance(interval, ast.IntervalLiteral)
        assert (interval.interval.months, interval.interval.days) \
            == (months, days)

    def test_case_searched(self):
        stmt = parse_statement(
            "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.CaseExpr)
        assert expr.else_value is not None

    def test_case_simple_normalised(self):
        stmt = parse_statement(
            "SELECT CASE a WHEN 1 THEN 'x' END FROM t")
        condition = stmt.items[0].expr.whens[0][0]
        assert condition.op is ast.BinOp.EQ

    def test_cast(self):
        stmt = parse_statement("SELECT CAST(a AS DATE) FROM t")
        assert stmt.items[0].expr.name == "CAST_DATE"

    def test_extract(self):
        stmt = parse_statement("SELECT EXTRACT(YEAR FROM d) FROM t")
        assert stmt.items[0].expr.name == "EXTRACT_YEAR"

    def test_concat_operator(self):
        stmt = parse_statement("SELECT a || b FROM t")
        assert stmt.items[0].expr.name == "CONCAT"


class TestAggregatesAndWindows:
    def test_count_star(self):
        stmt = parse_statement("SELECT COUNT(*) FROM t")
        agg = stmt.items[0].expr
        assert agg.func is ast.AggFunc.COUNT and agg.star

    def test_count_distinct(self):
        stmt = parse_statement("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct

    def test_all_aggregates(self):
        stmt = parse_statement(
            "SELECT SUM(a), AVG(a), MIN(a), MAX(a), STDDEV(a) FROM t")
        funcs = [item.expr.func for item in stmt.items]
        assert funcs == [ast.AggFunc.SUM, ast.AggFunc.AVG, ast.AggFunc.MIN,
                         ast.AggFunc.MAX, ast.AggFunc.STDDEV]

    def test_rank_over(self):
        stmt = parse_statement(
            "SELECT RANK() OVER (PARTITION BY a ORDER BY b DESC) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call, ast.WindowCall)
        assert call.func == "RANK"
        assert len(call.partition_by) == 1
        assert call.order_by[0].descending

    def test_sum_over(self):
        stmt = parse_statement(
            "SELECT SUM(x) OVER (PARTITION BY a) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call, ast.WindowCall)
        assert call.func == "SUM"

    def test_grouping_single_column(self):
        stmt = parse_statement("SELECT GROUPING(a) FROM t GROUP BY a")
        assert isinstance(stmt.items[0].expr, ast.GroupingCall)

    def test_grouping_multi_column_rejected(self):
        # Section 4.1: "GROUPING functions can only have one column".
        with pytest.raises(UnsupportedSqlError):
            parse_statement("SELECT GROUPING(a, b) FROM t GROUP BY a, b")


class TestSetOpsAndCtes:
    def test_union_all(self):
        stmt = parse_statement("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert stmt.set_ops[0][0] is ast.SetOp.UNION_ALL

    def test_union_distinct(self):
        stmt = parse_statement("SELECT a FROM t UNION SELECT b FROM u")
        assert stmt.set_ops[0][0] is ast.SetOp.UNION

    def test_intersect_rejected_like_mysql(self):
        # Section 6.2: MySQL does not support INTERSECT/EXCEPT.
        with pytest.raises(UnsupportedSqlError):
            parse_statement("SELECT a FROM t INTERSECT SELECT b FROM u")

    def test_except_rejected_like_mysql(self):
        with pytest.raises(UnsupportedSqlError):
            parse_statement("SELECT a FROM t EXCEPT SELECT b FROM u")

    def test_cte(self):
        stmt = parse_statement(
            "WITH c AS (SELECT a FROM t) SELECT * FROM c")
        assert stmt.ctes[0].name == "c"

    def test_cte_with_columns(self):
        stmt = parse_statement(
            "WITH c (x, y) AS (SELECT a, b FROM t) SELECT * FROM c")
        assert stmt.ctes[0].column_names == ["x", "y"]

    def test_recursive_cte_rejected(self):
        # Section 4.1: only non-recursive CTEs are allowed.
        with pytest.raises(UnsupportedSqlError):
            parse_statement(
                "WITH RECURSIVE c AS (SELECT 1) SELECT * FROM c")

    def test_multiple_ctes(self):
        stmt = parse_statement(
            "WITH a AS (SELECT 1 AS x), b AS (SELECT 2 AS y) "
            "SELECT * FROM a, b")
        assert len(stmt.ctes) == 2


class TestComplexityCount:
    def test_counts_base_tables(self):
        stmt = parse_statement("SELECT * FROM a, b, c")
        assert stmt.table_reference_count() == 3

    def test_counts_subquery_tables(self):
        stmt = parse_statement(
            "SELECT * FROM a WHERE EXISTS (SELECT * FROM b)")
        assert stmt.table_reference_count() == 2

    def test_counts_cte_and_consumers(self):
        stmt = parse_statement(
            "WITH c AS (SELECT * FROM t) SELECT * FROM c, c c2")
        # t (in the CTE) plus the two consumer references.
        assert stmt.table_reference_count() == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT a FROM t WHERE a = 1 1")
