"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

The dialect mirrors what the paper's workloads need.  As in MySQL,
INTERSECT / EXCEPT (and their ALL forms) are rejected with
:class:`~repro.errors.UnsupportedSqlError` — the paper had to rewrite the
TPC-DS queries that used them (Section 6.2) — and recursive CTEs are
rejected because the integration only allows non-recursive ones
(Section 4.1).
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from repro.errors import ParseError, UnsupportedSqlError
from repro.mysql_types import Interval
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

#: Function names recognised as aggregates.
_AGGREGATES = {
    "COUNT": ast.AggFunc.COUNT,
    "SUM": ast.AggFunc.SUM,
    "AVG": ast.AggFunc.AVG,
    "MIN": ast.AggFunc.MIN,
    "MAX": ast.AggFunc.MAX,
    "STDDEV": ast.AggFunc.STDDEV,
    "STDDEV_SAMP": ast.AggFunc.STDDEV,
}

#: Pure window functions (aggregates may also be windowed via OVER).
_WINDOW_FUNCS = frozenset({"RANK", "DENSE_RANK", "ROW_NUMBER", "NTILE"})

_COMPARISONS = {
    "=": ast.BinOp.EQ,
    "<>": ast.BinOp.NE,
    "!=": ast.BinOp.NE,
    "<": ast.BinOp.LT,
    "<=": ast.BinOp.LE,
    ">": ast.BinOp.GT,
    ">=": ast.BinOp.GE,
}


def parse_statement(sql: str):
    """Parse one SQL statement: SELECT (with CTEs) or INSERT/DELETE/UPDATE."""
    return _Parser(tokenize(sql)).parse()


def parse_select(sql: str) -> ast.SelectStmt:
    """Alias of :func:`parse_statement` kept for API clarity."""
    return parse_statement(sql)


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token utilities -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise ParseError(
                f"expected {word}, found {self._current.value!r} "
                f"at position {self._current.position}")

    def _accept_punct(self, symbol: str) -> bool:
        token = self._current
        if token.type is TokenType.PUNCT and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_punct(self, symbol: str) -> None:
        if not self._accept_punct(symbol):
            raise ParseError(
                f"expected {symbol!r}, found {self._current.value!r} "
                f"at position {self._current.position}")

    def _accept_operator(self, symbol: str) -> bool:
        token = self._current
        if token.type is TokenType.OPERATOR and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._current
        if token.type is TokenType.IDENT:
            self._advance()
            return token.value
        # Some keywords double as identifiers in practice (e.g. YEAR, DATE
        # as column names never occur in our workloads, but unit keywords
        # may appear as aliases).
        raise ParseError(
            f"expected identifier, found {token.value!r} "
            f"at position {token.position}")

    # -- entry point -----------------------------------------------------------

    def parse(self):
        first = self._current
        if first.type is TokenType.IDENT and \
                first.value.upper() in ("INSERT", "DELETE", "UPDATE"):
            stmt = self._parse_dml(first.value.upper())
        else:
            stmt = self._parse_select_stmt()
        if self._current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {self._current.value!r} "
                f"at position {self._current.position}")
        return stmt

    # -- DML ----------------------------------------------------------------------

    def _parse_dml(self, verb: str):
        self._advance()  # consume the verb (lexed as an identifier)
        if verb == "INSERT":
            return self._parse_insert()
        if verb == "DELETE":
            return self._parse_delete()
        return self._parse_update()

    def _expect_word(self, word: str) -> None:
        token = self._current
        if token.type is TokenType.IDENT and token.value.upper() == word:
            self._advance()
            return
        raise ParseError(
            f"expected {word}, found {token.value!r} "
            f"at position {token.position}")

    def _parse_insert(self) -> ast.InsertStmt:
        self._expect_word("INTO")
        table = self._expect_ident()
        column_names = None
        if self._accept_punct("("):
            column_names = [self._expect_ident()]
            while self._accept_punct(","):
                column_names.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_word("VALUES")
        rows = [self._parse_value_row()]
        while self._accept_punct(","):
            rows.append(self._parse_value_row())
        return ast.InsertStmt(table, column_names, rows)

    def _parse_value_row(self) -> list:
        self._expect_punct("(")
        values = [self._parse_expr()]
        while self._accept_punct(","):
            values.append(self._parse_expr())
        self._expect_punct(")")
        return values

    def _parse_delete(self) -> ast.DeleteStmt:
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return ast.DeleteStmt(table, where)

    def _parse_update(self) -> ast.UpdateStmt:
        table = self._expect_ident()
        self._expect_word("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return ast.UpdateStmt(table, assignments, where)

    def _parse_assignment(self):
        column = self._expect_ident()
        if not self._accept_operator("="):
            raise ParseError(
                f"expected = in SET at position {self._current.position}")
        return (column, self._parse_expr())

    # -- statements --------------------------------------------------------------

    def _parse_select_stmt(self) -> ast.SelectStmt:
        ctes: List[ast.CteDef] = []
        if self._accept_keyword("WITH"):
            if self._accept_keyword("RECURSIVE"):
                raise UnsupportedSqlError(
                    "recursive CTEs are not supported by the Orca "
                    "integration (Section 4.1)")
            ctes.append(self._parse_cte())
            while self._accept_punct(","):
                ctes.append(self._parse_cte())
        stmt = self._parse_select_core()
        stmt.ctes = ctes
        while True:
            if self._current.is_keyword("UNION"):
                self._advance()
                all_flag = self._accept_keyword("ALL")
                op = ast.SetOp.UNION_ALL if all_flag else ast.SetOp.UNION
                stmt.set_ops.append((op, self._parse_select_core()))
            elif self._current.is_keyword("INTERSECT") or \
                    self._current.is_keyword("EXCEPT"):
                raise UnsupportedSqlError(
                    f"MySQL does not support {self._current.value} "
                    "(Section 6.2); rewrite the query")
            else:
                break
        self._parse_order_limit(stmt)
        return stmt

    def _parse_cte(self) -> ast.CteDef:
        name = self._expect_ident()
        column_names: Optional[List[str]] = None
        if self._accept_punct("("):
            column_names = [self._expect_ident()]
            while self._accept_punct(","):
                column_names.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_keyword("AS")
        self._expect_punct("(")
        subquery = self._parse_select_stmt()
        self._expect_punct(")")
        return ast.CteDef(name, subquery, column_names)

    def _parse_select_core(self) -> ast.SelectStmt:
        self._expect_keyword("SELECT")
        stmt = ast.SelectStmt()
        stmt.distinct = self._accept_keyword("DISTINCT")
        if self._accept_keyword("ALL"):
            pass  # SELECT ALL is the default
        stmt.items = [self._parse_select_item()]
        while self._accept_punct(","):
            stmt.items.append(self._parse_select_item())
        if self._accept_keyword("FROM"):
            stmt.from_tables = self._parse_from_list()
        if self._accept_keyword("WHERE"):
            stmt.where = self._parse_expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            stmt.group_by = [self._parse_expr()]
            while self._accept_punct(","):
                stmt.group_by.append(self._parse_expr())
        if self._accept_keyword("HAVING"):
            stmt.having = self._parse_expr()
        return stmt

    def _parse_order_limit(self, stmt: ast.SelectStmt) -> None:
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            stmt.order_by = [self._parse_order_item()]
            while self._accept_punct(","):
                stmt.order_by.append(self._parse_order_item())
        if self._accept_keyword("LIMIT"):
            stmt.limit = self._parse_integer()
            if self._accept_punct(","):
                stmt.offset = stmt.limit
                stmt.limit = self._parse_integer()
            elif self._accept_keyword("OFFSET"):
                stmt.offset = self._parse_integer()

    def _parse_integer(self) -> int:
        token = self._current
        if token.type is not TokenType.NUMBER:
            raise ParseError(
                f"expected integer, found {token.value!r} "
                f"at position {token.position}")
        self._advance()
        return int(token.value)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _parse_select_item(self) -> ast.SelectItem:
        if self._current.type is TokenType.OPERATOR and \
                self._current.value == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self._parse_expr()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    # -- FROM clause ----------------------------------------------------------------

    def _parse_from_list(self) -> List[ast.TableRef]:
        refs = [self._parse_join_tree()]
        while self._accept_punct(","):
            refs.append(self._parse_join_tree())
        return refs

    def _parse_join_tree(self) -> ast.TableRef:
        left = self._parse_table_factor()
        while True:
            join_type = self._parse_join_type()
            if join_type is None:
                return left
            right = self._parse_table_factor()
            condition: Optional[ast.Expr] = None
            if self._accept_keyword("ON"):
                condition = self._parse_expr()
            elif join_type is not ast.JoinType.CROSS:
                raise ParseError(
                    f"JOIN without ON near position {self._current.position}")
            left = ast.JoinRef(left, right, join_type, condition)

    def _parse_join_type(self) -> Optional[ast.JoinType]:
        if self._accept_keyword("JOIN"):
            return ast.JoinType.INNER
        if self._current.is_keyword("INNER") and self._peek(1).is_keyword("JOIN"):
            self._advance()
            self._advance()
            return ast.JoinType.INNER
        if self._current.is_keyword("LEFT"):
            self._advance()
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return ast.JoinType.LEFT
        if self._current.is_keyword("RIGHT") or self._current.is_keyword("FULL"):
            raise UnsupportedSqlError(
                f"{self._current.value} joins are not supported; "
                "rewrite with LEFT JOIN")
        if self._current.is_keyword("CROSS"):
            self._advance()
            self._expect_keyword("JOIN")
            return ast.JoinType.CROSS
        return None

    def _parse_table_factor(self) -> ast.TableRef:
        if self._accept_punct("("):
            if self._current.is_keyword("SELECT") or \
                    self._current.is_keyword("WITH"):
                subquery = self._parse_select_stmt()
                self._expect_punct(")")
                self._accept_keyword("AS")
                alias = self._expect_ident()
                column_names: Optional[List[str]] = None
                if self._accept_punct("("):
                    column_names = [self._expect_ident()]
                    while self._accept_punct(","):
                        column_names.append(self._expect_ident())
                    self._expect_punct(")")
                return ast.DerivedTableRef(subquery, alias, column_names)
            # Parenthesised join tree.
            inner = self._parse_join_tree()
            self._expect_punct(")")
            return inner
        name = self._expect_ident()
        if self._accept_punct("."):
            # schema-qualified name: keep only the table part.
            name = self._expect_ident()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._advance().value
        return ast.BaseTableRef(name, alias)

    # -- expressions -----------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryExpr(ast.BinOp.OR, left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryExpr(ast.BinOp.AND, left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.NotExpr(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            token = self._current
            if token.type is TokenType.OPERATOR and \
                    token.value in _COMPARISONS:
                self._advance()
                right = self._parse_additive()
                left = ast.BinaryExpr(_COMPARISONS[token.value], left, right)
                continue
            negated = False
            lookahead = 0
            if token.is_keyword("NOT"):
                negated = True
                lookahead = 1
            follower = self._peek(lookahead)
            if follower.is_keyword("BETWEEN"):
                self._index += lookahead + 1
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                left = ast.BetweenExpr(left, low, high, negated)
                continue
            if follower.is_keyword("LIKE"):
                self._index += lookahead + 1
                pattern = self._parse_additive()
                left = ast.LikeExpr(left, pattern, negated)
                continue
            if follower.is_keyword("IN"):
                self._index += lookahead + 1
                left = self._parse_in_tail(left, negated)
                continue
            if follower.is_keyword("IS") and not negated:
                self._advance()
                is_negated = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                left = ast.IsNullExpr(left, is_negated)
                continue
            return left

    def _parse_in_tail(self, operand: ast.Expr, negated: bool) -> ast.Expr:
        self._expect_punct("(")
        if self._current.is_keyword("SELECT") or self._current.is_keyword("WITH"):
            subquery = self._parse_select_stmt()
            self._expect_punct(")")
            return ast.InSubqueryExpr(operand, subquery, negated)
        items = [self._parse_expr()]
        while self._accept_punct(","):
            items.append(self._parse_expr())
        self._expect_punct(")")
        return ast.InListExpr(operand, items, negated)

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            if self._accept_operator("+"):
                left = ast.BinaryExpr(ast.BinOp.ADD, left,
                                      self._parse_multiplicative())
            elif self._accept_operator("-"):
                left = ast.BinaryExpr(ast.BinOp.SUB, left,
                                      self._parse_multiplicative())
            elif self._accept_operator("||"):
                left = ast.FuncCall("CONCAT",
                                    [left, self._parse_multiplicative()])
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self._accept_operator("*"):
                left = ast.BinaryExpr(ast.BinOp.MUL, left, self._parse_unary())
            elif self._accept_operator("/"):
                left = ast.BinaryExpr(ast.BinOp.DIV, left, self._parse_unary())
            elif self._accept_operator("%"):
                left = ast.BinaryExpr(ast.BinOp.MOD, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self._accept_operator("-"):
            return ast.NegExpr(self._parse_unary())
        if self._accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    # -- primary expressions ------------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            value = float(text) if ("." in text or "e" in text or "E" in text) \
                else int(text)
            return ast.Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("DATE"):
            self._advance()
            literal = self._current
            if literal.type is not TokenType.STRING:
                raise ParseError(
                    f"expected date string at position {literal.position}")
            self._advance()
            return ast.Literal(datetime.date.fromisoformat(literal.value))
        if token.is_keyword("INTERVAL"):
            self._advance()
            return self._parse_interval()
        if token.is_keyword("CASE"):
            self._advance()
            return self._parse_case()
        if token.is_keyword("CAST"):
            self._advance()
            return self._parse_cast()
        if token.is_keyword("EXTRACT"):
            self._advance()
            return self._parse_extract()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            subquery = self._parse_select_stmt()
            self._expect_punct(")")
            return ast.ExistsExpr(subquery)
        if token.is_keyword("GROUPING"):
            self._advance()
            self._expect_punct("(")
            args = [self._parse_expr()]
            while self._accept_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
            if len(args) != 1:
                raise UnsupportedSqlError(
                    "GROUPING functions can only have one column "
                    "(Section 4.1)")
            return ast.GroupingCall(args[0])
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            if self._current.is_keyword("SELECT") or \
                    self._current.is_keyword("WITH"):
                subquery = self._parse_select_stmt()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            return self._parse_identifier_expr()
        if token.is_keyword("YEAR") or token.is_keyword("MONTH"):
            following = self._peek(1)
            if following.type is TokenType.PUNCT and following.value == "(":
                # The date functions YEAR(d) / MONTH(d); the same words
                # after INTERVAL n are units (``_parse_interval``).
                self._advance()
                self._advance()
                return self._parse_call(token.value.upper())
        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}")

    def _parse_interval(self) -> ast.Expr:
        token = self._current
        if token.type is TokenType.STRING:
            quantity = int(token.value)
            self._advance()
        elif token.type is TokenType.NUMBER:
            quantity = int(token.value)
            self._advance()
        else:
            raise ParseError(
                f"expected interval quantity at position {token.position}")
        unit = self._current
        self._advance()
        if unit.is_keyword("DAY"):
            return ast.IntervalLiteral(Interval(days=quantity))
        if unit.is_keyword("MONTH"):
            return ast.IntervalLiteral(Interval(months=quantity))
        if unit.is_keyword("YEAR"):
            return ast.IntervalLiteral(Interval(months=12 * quantity))
        raise ParseError(
            f"unsupported interval unit {unit.value!r} "
            f"at position {unit.position}")

    def _parse_case(self) -> ast.Expr:
        # Simple CASE (CASE expr WHEN value ...) is normalised into a
        # searched CASE with equality conditions.
        operand: Optional[ast.Expr] = None
        if not self._current.is_keyword("WHEN"):
            operand = self._parse_expr()
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expr()
            if operand is not None:
                condition = ast.BinaryExpr(ast.BinOp.EQ, operand, condition)
            self._expect_keyword("THEN")
            value = self._parse_expr()
            whens.append((condition, value))
        else_value: Optional[ast.Expr] = None
        if self._accept_keyword("ELSE"):
            else_value = self._parse_expr()
        self._expect_keyword("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN clause")
        return ast.CaseExpr(whens, else_value)

    def _parse_cast(self) -> ast.Expr:
        self._expect_punct("(")
        operand = self._parse_expr()
        self._expect_keyword("AS")
        token = self._advance()
        type_name = token.value.upper()
        # Optional (length) or (precision, scale) after the type name.
        if self._accept_punct("("):
            self._parse_integer()
            if self._accept_punct(","):
                self._parse_integer()
            self._expect_punct(")")
        self._expect_punct(")")
        return ast.FuncCall("CAST_" + type_name, [operand])

    def _parse_extract(self) -> ast.Expr:
        self._expect_punct("(")
        unit = self._advance().value.upper()
        self._expect_keyword("FROM")
        operand = self._parse_expr()
        self._expect_punct(")")
        return ast.FuncCall("EXTRACT_" + unit, [operand])

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._expect_ident()
        # Qualified reference: table.column or table.*
        if self._accept_punct("."):
            if self._current.type is TokenType.OPERATOR and \
                    self._current.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_ident()
            return ast.ColumnRef(name, column)
        if not (self._current.type is TokenType.PUNCT
                and self._current.value == "("):
            return ast.ColumnRef(None, name)
        self._advance()
        return self._parse_call(name.upper())

    def _parse_call(self, upper: str) -> ast.Expr:
        """A function call whose name and ``(`` are consumed."""
        if upper in _AGGREGATES:
            agg = self._parse_aggregate_call(upper)
            return self._maybe_window(upper, agg)
        args: List[ast.Expr] = []
        if not self._accept_punct(")"):
            if self._current.type is TokenType.OPERATOR and \
                    self._current.value == "*":
                self._advance()
                args.append(ast.Star())
            else:
                args.append(self._parse_expr())
            while self._accept_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
        if upper in _WINDOW_FUNCS:
            return self._parse_over(upper, args)
        call = ast.FuncCall(upper, args)
        return self._maybe_window(upper, call)

    def _parse_aggregate_call(self, name: str) -> ast.Expr:
        func = _AGGREGATES[name]
        distinct = self._accept_keyword("DISTINCT")
        if self._current.type is TokenType.OPERATOR and \
                self._current.value == "*":
            self._advance()
            self._expect_punct(")")
            return ast.AggCall(func, star=True)
        arg = self._parse_expr()
        self._expect_punct(")")
        return ast.AggCall(func, arg, distinct=distinct)

    def _maybe_window(self, name: str, call: ast.Expr) -> ast.Expr:
        if not self._current.is_keyword("OVER"):
            return call
        if isinstance(call, ast.AggCall):
            args = [call.arg] if call.arg is not None else []
            return self._parse_over(name, args)
        if isinstance(call, ast.FuncCall):
            return self._parse_over(call.name, call.args)
        return call

    def _parse_over(self, func: str, args: List[ast.Expr]) -> ast.WindowCall:
        self._expect_keyword("OVER")
        self._expect_punct("(")
        partition_by: List[ast.Expr] = []
        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("PARTITION"):
            self._expect_keyword("BY")
            partition_by.append(self._parse_expr())
            while self._accept_punct(","):
                partition_by.append(self._parse_expr())
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        self._expect_punct(")")
        return ast.WindowCall(func.upper(), [a for a in args if a is not None],
                              partition_by, order_by)
