"""Resolved query representation: table-list entries and query blocks.

:class:`TableEntry` is this reproduction's analog of MySQL's ``TABLE_LIST``
structure — the paper leans on it heavily: every leaf of an Orca plan
carries a ``TABLE_LIST`` pointer, and "each leaf node contains a TABLE_LIST
object which contains — among other things — a link to the leaf's
containing query block" (Section 4.2.1).  Here each entry has a global id,
a back-pointer to its containing :class:`QueryBlock`, and, for derived
tables and CTEs, a pointer to the sub-block that produces its rows.

A :class:`StatementContext` owns every block and entry of one statement;
entry ids index directly into the executor's runtime context array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import ResolutionError
from repro.mysql_types import MySQLType, TypeInstance
from repro.sql import ast


class EntryKind(enum.Enum):
    BASE = "BASE"
    DERIVED = "DERIVED"
    CTE = "CTE"
    #: Plan-refinement pseudo entries: aggregation and window outputs.
    PSEUDO = "PSEUDO"


@dataclass
class OutputColumn:
    """One output column of a table entry."""

    name: str
    type: TypeInstance
    nullable: bool = True


@dataclass
class CteBinding:
    """A resolved WITH definition shared by all of its references.

    MySQL compiles one producer plan per consumer but executes only one
    (Section 4.2.3); the binding's id is what consumers share.
    """

    cte_id: int
    name: str
    block: "QueryBlock"
    columns: List[OutputColumn]


class TableEntry:
    """One table reference in a query block (the TABLE_LIST analog)."""

    def __init__(self, entry_id: int, kind: EntryKind, name: str, alias: str,
                 block: "QueryBlock") -> None:
        self.entry_id = entry_id
        self.kind = kind
        self.name = name
        self.alias = alias
        #: Back-pointer to the containing query block (Section 4.2.1).
        self.block = block
        self.table_schema: Optional[TableSchema] = None
        self.sub_block: Optional["QueryBlock"] = None
        self.cte: Optional[CteBinding] = None
        self.columns: List[OutputColumn] = []
        #: Index of the semi-join nest this entry belongs to, if any.
        self.semijoin_nest: Optional[int] = None
        #: Set when this entry is the inner side of a LEFT OUTER JOIN.
        self.outer_join_conjuncts: Optional[List[ast.Expr]] = None
        self._column_positions: Dict[str, int] = {}

    def set_columns(self, columns: Sequence[OutputColumn]) -> None:
        self.columns = list(columns)
        self._column_positions = {
            column.name.lower(): position
            for position, column in enumerate(self.columns)}

    def column_position(self, name: str) -> Optional[int]:
        return self._column_positions.get(name.lower())

    @property
    def is_outer_joined(self) -> bool:
        return self.outer_join_conjuncts is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableEntry(#{self.entry_id} {self.alias} {self.kind.value})"


class NestKind(enum.Enum):
    SEMI = "SEMI"
    ANTI = "ANTI"


@dataclass
class SemiJoinNest:
    """A group of entries that came from an IN/EXISTS subquery.

    After the prepare phase converts a subquery to a semi-join, its tables
    live in the outer block but carry nest membership; the outer row
    qualifies on the first (semi) or no (anti) match of the nest's tables.
    """

    nest_id: int
    kind: NestKind
    entry_ids: List[int]


@dataclass
class WindowSpec:
    """A resolved window function occurrence within a block."""

    call: ast.WindowCall
    #: Output slot in the block's window pseudo-entry.
    slot: int = 0


class QueryBlock:
    """One resolved SELECT block.

    The WHERE clause is kept as a pool of conjuncts, as in MySQL after the
    prepare phase (Listing 3 of the paper shows exactly this shape: semi
    join in FROM, all conditions pooled in WHERE).
    """

    def __init__(self, block_id: int, context: "StatementContext") -> None:
        self.block_id = block_id
        self.context = context
        self.entries: List[TableEntry] = []
        self.where_conjuncts: List[ast.Expr] = []
        self.semijoin_nests: List[SemiJoinNest] = []
        self.select_items: List[ast.SelectItem] = []
        self.group_by: List[ast.Expr] = []
        self.having_conjuncts: List[ast.Expr] = []
        self.order_by: List[ast.OrderItem] = []
        self.limit: Optional[int] = None
        self.offset: Optional[int] = None
        self.distinct: bool = False
        self.windows: List[WindowSpec] = []
        #: Blocks combined with this one by UNION / UNION ALL.
        self.set_ops: List[Tuple[ast.SetOp, "QueryBlock"]] = []
        #: Entry ids of *outer* blocks referenced by correlated columns.
        self.outer_references: List[int] = []
        self.parent: Optional["QueryBlock"] = None
        #: Pseudo entry holding (group keys + aggregates) after aggregation.
        self.agg_entry: Optional[TableEntry] = None
        #: Pseudo entry holding window-function outputs.
        self.window_entry: Optional[TableEntry] = None
        self.cte_bindings: List[CteBinding] = []
        self._facts = None

    # -- structure helpers ------------------------------------------------------

    @property
    def aggregated(self) -> bool:
        if self.group_by:
            return True
        for item in self.select_items:
            if _contains_aggregate(item.expr):
                return True
        if any(_contains_aggregate(conjunct)
               for conjunct in self.having_conjuncts):
            return True
        return any(_contains_aggregate(order.expr) for order in self.order_by)

    @property
    def is_correlated(self) -> bool:
        return bool(self.outer_references)

    @property
    def facts(self):
        """The block's :class:`repro.sql.facts.BlockFacts` table."""
        facts = self._facts
        if facts is None:
            from repro.sql.facts import attach_facts

            attach_facts(self)
            facts = self._facts
        return facts

    def entry(self, entry_id: int) -> TableEntry:
        return self.context.entry(entry_id)

    def local_entry_ids(self) -> List[int]:
        return [entry.entry_id for entry in self.entries]

    def nest(self, nest_id: int) -> SemiJoinNest:
        for nest in self.semijoin_nests:
            if nest.nest_id == nest_id:
                return nest
        raise ResolutionError(f"unknown semi-join nest {nest_id}")

    def output_columns(self) -> List[OutputColumn]:
        """Output schema of the block, derived from its select items."""
        columns = []
        for position, item in enumerate(self.select_items):
            name = item.alias or _default_column_name(item.expr, position)
            columns.append(OutputColumn(name, infer_type(item.expr)))
        return columns

    def all_expressions(self) -> List[ast.Expr]:
        exprs: List[ast.Expr] = [item.expr for item in self.select_items]
        exprs.extend(self.where_conjuncts)
        exprs.extend(self.group_by)
        exprs.extend(self.having_conjuncts)
        exprs.extend(order.expr for order in self.order_by)
        for entry in self.entries:
            if entry.outer_join_conjuncts:
                exprs.extend(entry.outer_join_conjuncts)
        return exprs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tables = ", ".join(entry.alias for entry in self.entries)
        return f"QueryBlock(#{self.block_id}: {tables})"


class StatementContext:
    """Allocator and registry for every block/entry of one statement."""

    def __init__(self) -> None:
        self._entries: List[TableEntry] = []
        self._blocks: List[QueryBlock] = []
        self._cte_count = 0
        self._nest_count = 0
        #: The statement's :class:`repro.sql.facts.ExprFacts` memo; a
        #: fresh one is made when prepare builds the block facts.
        self.expr_facts = None

    def new_block(self) -> QueryBlock:
        block = QueryBlock(len(self._blocks), self)
        self._blocks.append(block)
        return block

    def new_entry(self, kind: EntryKind, name: str, alias: str,
                  block: QueryBlock) -> TableEntry:
        entry = TableEntry(len(self._entries), kind, name, alias, block)
        self._entries.append(entry)
        return entry

    def new_cte_id(self) -> int:
        self._cte_count += 1
        return self._cte_count - 1

    def new_nest_id(self) -> int:
        self._nest_count += 1
        return self._nest_count - 1

    def entry(self, entry_id: int) -> TableEntry:
        return self._entries[entry_id]

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def base_table_names(self) -> Set[str]:
        """The catalog tables bound by any block of the statement."""
        return {entry.name for entry in self._entries
                if entry.kind is EntryKind.BASE}

    @property
    def blocks(self) -> List[QueryBlock]:
        return list(self._blocks)


# ---------------------------------------------------------------------------
# Expression analysis helpers shared by both optimizers and the bridge
# ---------------------------------------------------------------------------

def _contains_aggregate(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.AggCall) for node in expr.walk())


def contains_aggregate(expr: ast.Expr) -> bool:
    """Public wrapper: whether an expression contains an aggregate call."""
    return _contains_aggregate(expr)


def _default_column_name(expr: ast.Expr, position: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    # MySQL names anonymous expressions Name_exp_<n> when materialising
    # derived tables — visible in the paper's Listing 7.
    return f"Name_exp_{position + 1}"


def default_column_name(expr: ast.Expr, position: int) -> str:
    return _default_column_name(expr, position)


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------

_LONGLONG = TypeInstance(MySQLType.LONGLONG)
_DOUBLE = TypeInstance(MySQLType.DOUBLE)
_VARCHAR = TypeInstance(MySQLType.VARCHAR, 64)
_DATE = TypeInstance(MySQLType.DATE)
_DATETIME = TypeInstance(MySQLType.DATETIME)
_BOOL = TypeInstance(MySQLType.BOOL)


def infer_type(expr: ast.Expr) -> TypeInstance:
    """Best-effort static type of a resolved expression.

    Used for derived-table output schemas and for the metadata provider's
    expression-OID computation (which needs operand type categories).
    """
    import datetime as _dt

    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            return _BOOL
        if isinstance(value, int):
            return _LONGLONG
        if isinstance(value, float):
            return _DOUBLE
        if isinstance(value, _dt.datetime):
            return _DATETIME
        if isinstance(value, _dt.date):
            return _DATE
        return _VARCHAR
    if isinstance(expr, ast.ColumnRef):
        entry_type = getattr(expr, "resolved_type", None)
        if entry_type is not None:
            return entry_type
        return _DOUBLE
    if isinstance(expr, ast.BinaryExpr):
        if expr.op in ast.COMPARISON_OPS or expr.op in (ast.BinOp.AND,
                                                        ast.BinOp.OR):
            return _BOOL
        left = infer_type(expr.left)
        right = infer_type(expr.right)
        if left.base in (MySQLType.DATE, MySQLType.DATETIME):
            return left
        if right.base in (MySQLType.DATE, MySQLType.DATETIME):
            return right
        if expr.op is ast.BinOp.DIV:
            return _DOUBLE
        if left.base is MySQLType.DOUBLE or right.base is MySQLType.DOUBLE:
            return _DOUBLE
        if left.category.value.startswith("INT") and \
                right.category.value.startswith("INT"):
            return _LONGLONG
        return _DOUBLE
    if isinstance(expr, (ast.NotExpr, ast.IsNullExpr, ast.BetweenExpr,
                         ast.LikeExpr, ast.InListExpr, ast.InSubqueryExpr,
                         ast.ExistsExpr)):
        return _BOOL
    if isinstance(expr, ast.NegExpr):
        return infer_type(expr.operand)
    if isinstance(expr, ast.AggCall):
        if expr.func is ast.AggFunc.COUNT:
            return _LONGLONG
        if expr.func in (ast.AggFunc.AVG, ast.AggFunc.STDDEV):
            return _DOUBLE
        if expr.arg is not None:
            return infer_type(expr.arg)
        return _DOUBLE
    if isinstance(expr, ast.CaseExpr):
        for __, value in expr.whens:
            if not (isinstance(value, ast.Literal) and value.value is None):
                return infer_type(value)
        if expr.else_value is not None:
            return infer_type(expr.else_value)
        return _DOUBLE
    if isinstance(expr, ast.ScalarSubquery):
        block = expr.block
        if isinstance(block, QueryBlock) and block.select_items:
            return infer_type(block.select_items[0].expr)
        return _DOUBLE
    if isinstance(expr, ast.FuncCall):
        name = expr.name
        if name.startswith("CAST_"):
            return _cast_target_type(name[5:])
        if name in ("ABS", "ROUND", "MOD"):
            # abs, round and % keep an int an int and a float a float.
            operands = expr.args[:2] if name == "MOD" else expr.args[:1]
            if all(infer_type(arg).category.value.startswith("INT")
                   for arg in operands):
                return _LONGLONG
            return _DOUBLE
        if name.startswith("EXTRACT_") or name in ("FLOOR", "CEIL",
                                                   "CEILING", "LENGTH",
                                                   "DAYOFWEEK", "YEAR",
                                                   "MONTH"):
            return _LONGLONG
        if name in ("CONCAT", "SUBSTRING", "SUBSTR", "UPPER", "LOWER",
                    "TRIM", "LTRIM", "RTRIM", "COALESCE", "IFNULL"):
            if name in ("COALESCE", "IFNULL") and expr.args:
                return infer_type(expr.args[0])
            return _VARCHAR
        return _DOUBLE
    if isinstance(expr, ast.WindowCall):
        if expr.func in ("RANK", "DENSE_RANK", "ROW_NUMBER", "NTILE", "COUNT"):
            return _LONGLONG
        if expr.args:
            return infer_type(expr.args[0])
        return _DOUBLE
    if isinstance(expr, ast.GroupingCall):
        return _LONGLONG
    if isinstance(expr, ast.IntervalLiteral):
        return _LONGLONG
    return _DOUBLE


def _cast_target_type(name: str) -> TypeInstance:
    mapping = {
        "DATE": _DATE,
        "DATETIME": _DATETIME,
        "CHAR": _VARCHAR,
        "VARCHAR": _VARCHAR,
        "SIGNED": _LONGLONG,
        "UNSIGNED": _LONGLONG,
        "INTEGER": _LONGLONG,
        "INT": _LONGLONG,
        "DECIMAL": _DOUBLE,
        "DOUBLE": _DOUBLE,
        "FLOAT": _DOUBLE,
    }
    return mapping.get(name, _DOUBLE)
