"""Abstract syntax tree nodes produced by the parser.

The node set covers the SQL dialect the workloads use: SELECT blocks with
explicit and comma joins, subqueries (scalar / IN / EXISTS, correlated or
not), derived tables, non-recursive CTEs, aggregation with HAVING, window
functions, CASE, LIKE/BETWEEN/IN, set operations, ORDER BY and LIMIT.

Expression nodes double as the *resolved* representation: the resolver
annotates :class:`ColumnRef` nodes in place with the table-list entry they
bind to, mirroring how MySQL keeps enriching one tree through its phases
(Section 4.1: "the MySQL way is to continue making such gradual changes by
attaching more data structures to the AST").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.mysql_types import Interval


class Expr:
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self):
        """Yield this node and every descendant expression, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            yield node
            children = node.children()
            if children:
                stack.extend(reversed(children))


@dataclass(eq=False)
class Literal(Expr):
    """A constant: number, string, date, boolean, or NULL."""

    value: object


@dataclass(eq=False)
class IntervalLiteral(Expr):
    """``INTERVAL 'n' DAY|MONTH|YEAR`` used in date arithmetic."""

    interval: Interval


@dataclass(eq=False)
class ColumnRef(Expr):
    """A possibly-qualified column reference.

    ``entry_id`` and ``position`` are filled by the resolver; ``entry_id``
    identifies the table-list entry (the paper's ``TABLE_LIST`` analog) the
    reference binds to.
    """

    table: Optional[str]
    column: str
    entry_id: Optional[int] = None
    position: Optional[int] = None

    @property
    def display(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(eq=False)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


class BinOp(enum.Enum):
    """Binary operators with SQL semantics."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"


COMPARISON_OPS = frozenset({BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE,
                            BinOp.GT, BinOp.GE})
ARITHMETIC_OPS = frozenset({BinOp.ADD, BinOp.SUB, BinOp.MUL, BinOp.DIV,
                            BinOp.MOD})

#: op -> commuted op for comparisons (Section 5.3): a < b  <=>  b > a.
COMMUTED_COMPARISON = {
    BinOp.EQ: BinOp.EQ,
    BinOp.NE: BinOp.NE,
    BinOp.LT: BinOp.GT,
    BinOp.LE: BinOp.GE,
    BinOp.GT: BinOp.LT,
    BinOp.GE: BinOp.LE,
}

#: op -> inverse op (Section 5.3): NOT (a < b)  <=>  a >= b.
INVERSE_COMPARISON = {
    BinOp.EQ: BinOp.NE,
    BinOp.NE: BinOp.EQ,
    BinOp.LT: BinOp.GE,
    BinOp.LE: BinOp.GT,
    BinOp.GT: BinOp.LE,
    BinOp.GE: BinOp.LT,
}


@dataclass(eq=False)
class BinaryExpr(Expr):
    op: BinOp
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)


@dataclass(eq=False)
class NotExpr(Expr):
    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(eq=False)
class NegExpr(Expr):
    """Unary minus."""

    operand: Expr

    def children(self):
        return (self.operand,)


@dataclass(eq=False)
class IsNullExpr(Expr):
    operand: Expr
    negated: bool = False

    def children(self):
        return (self.operand,)


@dataclass(eq=False)
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self):
        return (self.operand, self.low, self.high)


@dataclass(eq=False)
class LikeExpr(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def children(self):
        return (self.operand, self.pattern)


@dataclass(eq=False)
class InListExpr(Expr):
    operand: Expr
    items: List[Expr]
    negated: bool = False

    def children(self):
        return (self.operand, *self.items)


@dataclass(eq=False)
class InSubqueryExpr(Expr):
    operand: Expr
    subquery: "SelectStmt"
    negated: bool = False
    #: Filled by the resolver when the subquery is *not* converted to a
    #: semi-join and must be evaluated as an expression.
    block: object = None

    def children(self):
        return (self.operand,)


@dataclass(eq=False)
class ExistsExpr(Expr):
    subquery: "SelectStmt"
    negated: bool = False
    block: object = None


@dataclass(eq=False)
class ScalarSubquery(Expr):
    subquery: "SelectStmt"
    #: Filled by the resolver: the resolved block for the subquery.
    block: object = None


@dataclass(eq=False)
class FuncCall(Expr):
    """A regular (non-aggregate) SQL function: SUBSTRING, EXTRACT, etc."""

    name: str
    args: List[Expr]

    def children(self):
        return tuple(self.args)


class AggFunc(enum.Enum):
    """The six standard SQL aggregates the paper enumerates (Section 5.2)."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    STDDEV = "STDDEV"


@dataclass(eq=False)
class AggCall(Expr):
    """An aggregate function call.

    ``star`` marks COUNT(*); ``distinct`` marks COUNT(DISTINCT expr) and
    friends.  The STAR/ANY pseudo type categories of Section 5.2 correspond
    to ``star=True`` and COUNT over any expression respectively.
    """

    func: AggFunc
    arg: Optional[Expr] = None
    distinct: bool = False
    star: bool = False

    def children(self):
        return (self.arg,) if self.arg is not None else ()


@dataclass(eq=False)
class CaseExpr(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    whens: List[Tuple[Expr, Expr]]
    else_value: Optional[Expr] = None

    def children(self):
        flat: List[Expr] = []
        for condition, value in self.whens:
            flat.append(condition)
            flat.append(value)
        if self.else_value is not None:
            flat.append(self.else_value)
        return tuple(flat)


@dataclass(eq=False)
class WindowCall(Expr):
    """``func(args) OVER (PARTITION BY ... ORDER BY ...)`` without frames."""

    func: str
    args: List[Expr]
    partition_by: List[Expr] = field(default_factory=list)
    order_by: List["OrderItem"] = field(default_factory=list)

    def children(self):
        flat = list(self.args) + list(self.partition_by)
        flat.extend(item.expr for item in self.order_by)
        return tuple(flat)


@dataclass(eq=False)
class GroupingCall(Expr):
    """``GROUPING(column)``.

    Orca does not support GROUPING functions; the paper implemented
    single-column versions only (Section 4.1), and so do we — the parser
    rejects multi-column GROUPING.
    """

    arg: Expr

    def children(self):
        return (self.arg,)


# ---------------------------------------------------------------------------
# Statement-level nodes
# ---------------------------------------------------------------------------

class JoinType(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    CROSS = "CROSS"
    #: Produced by the prepare phase, never by the parser:
    SEMI = "SEMI"
    ANTI = "ANTI"


@dataclass(eq=False)
class TableRef:
    """Base class for items in the FROM clause."""


@dataclass(eq=False)
class BaseTableRef(TableRef):
    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(eq=False)
class DerivedTableRef(TableRef):
    subquery: "SelectStmt"
    alias: str
    #: Explicit column list: (SELECT ...) AS d (c1, c2)
    column_names: Optional[List[str]] = None


@dataclass(eq=False)
class JoinRef(TableRef):
    left: TableRef
    right: TableRef
    join_type: JoinType
    condition: Optional[Expr] = None


@dataclass(eq=False)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(eq=False)
class OrderItem:
    expr: Expr
    descending: bool = False


class SetOp(enum.Enum):
    UNION = "UNION"
    UNION_ALL = "UNION ALL"


@dataclass(eq=False)
class CteDef:
    name: str
    subquery: "SelectStmt"
    column_names: Optional[List[str]] = None


@dataclass(eq=False)
class SelectStmt:
    """One SELECT statement (possibly with CTEs and set operations).

    ``set_ops`` chains further SELECTs combined with UNION [ALL]; ORDER BY
    and LIMIT on a set operation apply to the combined result.
    """

    items: List[SelectItem] = field(default_factory=list)
    from_tables: List[TableRef] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False
    ctes: List[CteDef] = field(default_factory=list)
    set_ops: List[Tuple[SetOp, "SelectStmt"]] = field(default_factory=list)

    def table_reference_count(self) -> int:
        """Count table references, the paper's query-complexity measure.

        "Query complexity is defined to be the total number of table
        references in a query" (Section 4.1) — base tables and CTE
        references anywhere in the statement, including subqueries.
        """
        count = 0
        stack: List[object] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, SelectStmt):
                stack.extend(node.from_tables)
                for cte in node.ctes:
                    stack.append(cte.subquery)
                for __, stmt in node.set_ops:
                    stack.append(stmt)
                for expr in _statement_expressions(node):
                    stack.append(expr)
            elif isinstance(node, JoinRef):
                stack.append(node.left)
                stack.append(node.right)
                if node.condition is not None:
                    stack.append(node.condition)
            elif isinstance(node, BaseTableRef):
                count += 1
            elif isinstance(node, DerivedTableRef):
                stack.append(node.subquery)
            elif isinstance(node, Expr):
                for sub in node.walk():
                    if isinstance(sub, (InSubqueryExpr, ExistsExpr,
                                        ScalarSubquery)):
                        stack.append(sub.subquery)
        return count


def _statement_expressions(stmt: SelectStmt) -> List[Expr]:
    """Every expression hanging off a statement (for tree walks)."""
    exprs: List[Expr] = [item.expr for item in stmt.items]
    if stmt.where is not None:
        exprs.append(stmt.where)
    exprs.extend(stmt.group_by)
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(item.expr for item in stmt.order_by)
    return exprs


# ---------------------------------------------------------------------------
# DML statements — never routed to Orca (Section 4.1: "INSERT, UPDATE, and
# DELETE statements ... are not sent").
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class InsertStmt:
    """``INSERT INTO t [(cols)] VALUES (...), (...)``."""

    table: str
    column_names: Optional[List[str]]
    rows: List[List[Expr]]


@dataclass(eq=False)
class DeleteStmt:
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Optional[Expr] = None


@dataclass(eq=False)
class UpdateStmt:
    """``UPDATE t SET col = expr [, ...] [WHERE ...]``."""

    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


def conjuncts_of(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryExpr) and expr.op is BinOp.AND:
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


def make_conjunction(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Rebuild a predicate from conjuncts; None for an empty list."""
    result: Optional[Expr] = None
    for conjunct in conjuncts:
        if result is None:
            result = conjunct
        else:
            result = BinaryExpr(BinOp.AND, result, conjunct)
    return result


def disjuncts_of(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level OR-ed disjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryExpr) and expr.op is BinOp.OR:
        return disjuncts_of(expr.left) + disjuncts_of(expr.right)
    return [expr]


def make_disjunction(disjuncts: Sequence[Expr]) -> Optional[Expr]:
    result: Optional[Expr] = None
    for disjunct in disjuncts:
        if result is None:
            result = disjunct
        else:
            result = BinaryExpr(BinOp.OR, result, disjunct)
    return result
