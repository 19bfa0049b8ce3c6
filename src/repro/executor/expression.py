"""Compilation of resolved expressions into Python closures.

This is the runtime analog of MySQL's ``Item`` evaluation.  Each resolved
expression compiles to a function of the execution context (a list indexed
by table-entry id holding each entry's current row tuple, or ``None`` for
a null-extended outer-join row).

SQL three-valued logic is represented with Python ``True`` / ``False`` /
``None``; a predicate passes a filter only when it evaluates to ``True``.

Aggregate and window calls must have been rewritten into column references
on the block's aggregation/window pseudo-entries before compilation — the
plan-refinement phase guarantees that — so encountering one here is an
internal error.
"""

from __future__ import annotations

import datetime
import math
import operator as _operator
import re
from typing import Callable, Dict, List, Optional

from repro.errors import ExecutionError
from repro.mysql_types import Interval, TypeCategory
from repro.sql import ast

CompiledExpr = Callable[[list], object]


def is_true(value) -> bool:
    """SQL filter semantics: only TRUE passes; NULL and FALSE do not."""
    return value is True


class ExpressionCompiler:
    """Compiles expressions; subquery expressions need a subplan executor.

    ``subplan_runner(block, ctx)`` must return an iterator of projected
    output tuples for a subquery block evaluated under the given context
    (so that correlated references read the outer rows).  The compiler
    memoizes subquery results keyed by the values of their correlation
    sources, mirroring MySQL's subquery result caching.
    """

    def __init__(self, subplan_host=None) -> None:
        #: An object exposing ``current_runtime`` and
        #: ``run_block(block, runtime) -> iterator of tuples`` (the
        #: Executor).  Only needed when compiling subquery expressions.
        self._subplan_host = subplan_host

    # -- public API -------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> CompiledExpr:
        method = getattr(self, "_compile_" + type(expr).__name__, None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression node {type(expr).__name__}")
        return method(expr)

    def compile_list(self, exprs: List[ast.Expr]) -> List[CompiledExpr]:
        return [self.compile(expr) for expr in exprs]

    def compile_filter(self, conjuncts: List[ast.Expr]) -> CompiledExpr:
        """Compile a conjunct list into a single TRUE/FALSE/None check."""
        compiled = self.compile_list(conjuncts)
        if not compiled:
            return lambda ctx: True
        if len(compiled) == 1:
            return compiled[0]

        def evaluate(ctx):
            for fn in compiled:
                if fn(ctx) is not True:
                    return False
            return True

        return evaluate

    # -- leaves ------------------------------------------------------------------

    def _compile_Literal(self, expr: ast.Literal) -> CompiledExpr:
        value = expr.value
        return lambda ctx: value

    def _compile_IntervalLiteral(self, expr: ast.IntervalLiteral
                                 ) -> CompiledExpr:
        interval = expr.interval
        return lambda ctx: interval

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> CompiledExpr:
        entry_id = expr.entry_id
        position = expr.position
        if entry_id is None or position is None:
            raise ExecutionError(
                f"unresolved column reference {expr.display!r}")

        def read(ctx):
            row = ctx[entry_id]
            return row[position] if row is not None else None

        return read

    # -- arithmetic and comparison --------------------------------------------------

    def _compile_BinaryExpr(self, expr: ast.BinaryExpr) -> CompiledExpr:
        op = expr.op
        if op is ast.BinOp.AND:
            left = self.compile(expr.left)
            right = self.compile(expr.right)

            def and_eval(ctx):
                lhs = left(ctx)
                if lhs is False:
                    return False
                rhs = right(ctx)
                if rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return and_eval
        if op is ast.BinOp.OR:
            left = self.compile(expr.left)
            right = self.compile(expr.right)

            def or_eval(ctx):
                lhs = left(ctx)
                if lhs is True:
                    return True
                rhs = right(ctx)
                if rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return or_eval
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op in ast.COMPARISON_OPS:
            return _comparison(op, left, right)
        return _arithmetic(op, left, right, numeric_arithmetic(expr))

    def _compile_NotExpr(self, expr: ast.NotExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)

        def not_eval(ctx):
            value = operand(ctx)
            if value is None:
                return None
            return not value

        return not_eval

    def _compile_NegExpr(self, expr: ast.NegExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)

        def neg(ctx):
            value = operand(ctx)
            return None if value is None else -value

        return neg

    def _compile_IsNullExpr(self, expr: ast.IsNullExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda ctx: operand(ctx) is not None
        return lambda ctx: operand(ctx) is None

    def _compile_BetweenExpr(self, expr: ast.BetweenExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(ctx):
            value = operand(ctx)
            lo = low(ctx)
            hi = high(ctx)
            if value is None or lo is None or hi is None:
                return None
            result = lo <= value <= hi
            return (not result) if negated else result

        return between

    def _compile_LikeExpr(self, expr: ast.LikeExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated

        def like(ctx):
            value = operand(ctx)
            pat = pattern(ctx)
            if value is None or pat is None:
                return None
            result = like_regex(pat).match(str(value)) is not None
            return (not result) if negated else result

        return like

    def _compile_InListExpr(self, expr: ast.InListExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = self.compile_list(expr.items)
        negated = expr.negated
        constant_items = all(isinstance(item, ast.Literal)
                             for item in expr.items)
        if constant_items:
            values = {item.value for item in expr.items
                      if item.value is not None}
            has_null = any(item.value is None for item in expr.items)

            def in_const(ctx):
                value = operand(ctx)
                if value is None:
                    return None
                found = value in values
                if not found and has_null:
                    return None
                return (not found) if negated else found

            return in_const

        def in_list(ctx):
            value = operand(ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(ctx)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return in_list

    def _compile_CaseExpr(self, expr: ast.CaseExpr) -> CompiledExpr:
        whens = [(self.compile(cond), self.compile(value))
                 for cond, value in expr.whens]
        else_value = (self.compile(expr.else_value)
                      if expr.else_value is not None else None)

        def case(ctx):
            for cond, value in whens:
                if cond(ctx) is True:
                    return value(ctx)
            return else_value(ctx) if else_value is not None else None

        return case

    def _compile_GroupingCall(self, expr: ast.GroupingCall) -> CompiledExpr:
        # Plain GROUP BY (no ROLLUP) never produces super-aggregate rows,
        # so GROUPING(col) is always 0 — the single-column support the
        # paper added for TPC-DS (Section 4.1).
        return lambda ctx: 0

    # -- subqueries ----------------------------------------------------------------

    def _subplan(self, block) -> Callable:
        if self._subplan_host is None:
            raise ExecutionError(
                "subquery evaluation requires an executor-backed compiler")
        host = self._subplan_host
        sources = block.facts.corr
        block_id = block.block_id

        def run(ctx) -> list:
            runtime = host.current_runtime
            key = (block_id,) + tuple(ctx[entry_id] for entry_id in sources)
            cache = runtime.subquery_cache
            rows = cache.get(key)
            if rows is None:
                rows = list(host.run_block(block, runtime))
                cache[key] = rows
            return rows

        return run

    def _compile_ScalarSubquery(self, expr: ast.ScalarSubquery
                                ) -> CompiledExpr:
        run = self._subplan(expr.block)

        def scalar(ctx):
            rows = run(ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned >1 row")
            return rows[0][0]

        return scalar

    def _compile_InSubqueryExpr(self, expr: ast.InSubqueryExpr
                                ) -> CompiledExpr:
        run = self._subplan(expr.block)
        operand = self.compile(expr.operand)
        negated = expr.negated

        def in_subquery(ctx):
            value = operand(ctx)
            if value is None:
                return None
            found = False
            saw_null = False
            for row in run(ctx):
                candidate = row[0]
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    found = True
                    break
            if found:
                return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return in_subquery

    def _compile_ExistsExpr(self, expr: ast.ExistsExpr) -> CompiledExpr:
        run = self._subplan(expr.block)
        negated = expr.negated

        def exists(ctx):
            found = bool(run(ctx))
            return (not found) if negated else found

        return exists

    # -- functions ------------------------------------------------------------------

    def _compile_FuncCall(self, expr: ast.FuncCall) -> CompiledExpr:
        args = self.compile_list(expr.args)
        name = expr.name
        if name.startswith("CAST_"):
            return _compile_cast(name[5:], args[0])
        if name.startswith("EXTRACT_"):
            return _compile_extract(name[8:], args[0])
        builder = _FUNCTIONS.get(name)
        if builder is None:
            raise ExecutionError(f"unknown function {name!r}")
        return builder(args)

    def _compile_AggCall(self, expr: ast.AggCall) -> CompiledExpr:
        raise ExecutionError(
            "aggregate call reached the expression compiler; plan "
            "refinement should have rewritten it")

    def _compile_WindowCall(self, expr: ast.WindowCall) -> CompiledExpr:
        raise ExecutionError(
            "window call reached the expression compiler; plan "
            "refinement should have rewritten it")

    def _compile_Star(self, expr: ast.Star) -> CompiledExpr:
        raise ExecutionError("* must be expanded during resolution")


# ---------------------------------------------------------------------------
# Operator helpers
# ---------------------------------------------------------------------------

def _comparison(op: ast.BinOp, left: CompiledExpr,
                right: CompiledExpr) -> CompiledExpr:
    table = {
        ast.BinOp.EQ: _operator.eq,
        ast.BinOp.NE: _operator.ne,
        ast.BinOp.LT: _operator.lt,
        ast.BinOp.LE: _operator.le,
        ast.BinOp.GT: _operator.gt,
        ast.BinOp.GE: _operator.ge,
    }
    compare = table[op]

    def evaluate(ctx):
        lhs = left(ctx)
        if lhs is None:
            return None
        rhs = right(ctx)
        if rhs is None:
            return None
        return compare(lhs, rhs)

    return evaluate


def arith_add(lhs, rhs):
    """``lhs + rhs`` with SQL date/interval semantics (non-NULL inputs).

    Shared by the row interpreter and the batch expression compiler so
    both engines agree bit-for-bit on arithmetic results.
    """
    if isinstance(rhs, Interval):
        if not isinstance(lhs, datetime.date):
            raise ExecutionError("interval arithmetic needs a date")
        return rhs.add_to(lhs)
    if isinstance(lhs, datetime.date) and isinstance(rhs, int):
        return lhs + datetime.timedelta(days=rhs)
    return lhs + rhs


def arith_sub(lhs, rhs):
    """``lhs - rhs`` with SQL date/interval semantics (non-NULL inputs)."""
    if isinstance(rhs, Interval):
        if not isinstance(lhs, datetime.date):
            raise ExecutionError("interval arithmetic needs a date")
        return rhs.negate().add_to(lhs)
    if isinstance(lhs, datetime.date) and isinstance(rhs, datetime.date):
        return (lhs - rhs).days
    if isinstance(lhs, datetime.date) and isinstance(rhs, int):
        return lhs - datetime.timedelta(days=rhs)
    return lhs - rhs


#: Type categories whose stored values are Python ints or floats
#: (``mysql_types.python_type_for``).
_NUMERIC_CATEGORIES = frozenset({
    TypeCategory.INT2, TypeCategory.INT4, TypeCategory.INT8,
    TypeCategory.NUM, TypeCategory.BIT})

_ARITHMETIC_OPS = frozenset({
    ast.BinOp.ADD, ast.BinOp.SUB, ast.BinOp.MUL, ast.BinOp.DIV,
    ast.BinOp.MOD})


def statically_numeric(expr: ast.Expr) -> bool:
    """Whether ``expr`` can only evaluate to a number or NULL — never a
    date, datetime or interval — judged from static types alone.

    Numeric are: int/float literals and NULL, base-table columns whose
    declared type is numeric (``ColumnRef.declared_type``, left by the
    resolver; DML coerces every written value to it), and negation or
    ``+ - * / %`` of numeric operands.  Everything else —
    derived-table columns (their types are inferred, not declared),
    aggregate outputs, function results, strings — is "may be temporal".
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return value is None or isinstance(value, (int, float))
    if isinstance(expr, ast.ColumnRef):
        declared = getattr(expr, "declared_type", None)
        return declared is not None \
            and declared.category in _NUMERIC_CATEGORIES
    if isinstance(expr, ast.NegExpr):
        return statically_numeric(expr.operand)
    if isinstance(expr, ast.BinaryExpr) and expr.op in _ARITHMETIC_OPS:
        return statically_numeric(expr.left) \
            and statically_numeric(expr.right)
    return False


def numeric_arithmetic(expr: ast.BinaryExpr) -> bool:
    """Whether ``+`` / ``-`` of this expression is plain Python ``+`` /
    ``-``: the date/interval branches of :func:`arith_add` and
    :func:`arith_sub` fire only for a date left operand or an interval
    (or date) right operand, which numeric operands never are.  Both
    engines specialise from this one decision, so they agree by
    construction."""
    return statically_numeric(expr.left) and statically_numeric(expr.right)


def _div(lhs, rhs):
    return None if rhs == 0 else lhs / rhs


def _mod(lhs, rhs):
    return None if rhs == 0 else lhs % rhs


def _arithmetic(op: ast.BinOp, left: CompiledExpr, right: CompiledExpr,
                numeric: bool) -> CompiledExpr:
    """NULL-propagating arithmetic; the operator is picked once, here.

    ``numeric`` (:func:`numeric_arithmetic`) selects plain ``+`` / ``-``
    over the date/interval-aware helpers."""
    if op is ast.BinOp.ADD:
        apply = _operator.add if numeric else arith_add
    elif op is ast.BinOp.SUB:
        apply = _operator.sub if numeric else arith_sub
    elif op is ast.BinOp.MUL:
        apply = _operator.mul
    elif op is ast.BinOp.DIV:
        apply = _div
    elif op is ast.BinOp.MOD:
        apply = _mod
    else:
        raise ExecutionError(f"bad arithmetic operator {op}")

    def evaluate(ctx):
        lhs = left(ctx)
        if lhs is None:
            return None
        rhs = right(ctx)
        if rhs is None:
            return None
        return apply(lhs, rhs)

    return evaluate


def _like_to_regex(pattern: str) -> re.Pattern:
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


_LIKE_REGEX_CACHE: Dict[str, re.Pattern] = {}


def like_regex(pattern: str) -> re.Pattern:
    """Cached compiled regex for a LIKE pattern (shared by both engines)."""
    regex = _LIKE_REGEX_CACHE.get(pattern)
    if regex is None:
        regex = _like_to_regex(pattern)
        _LIKE_REGEX_CACHE[pattern] = regex
    return regex


def cast_value(target: str, value):
    """CAST a non-NULL value (shared by both engines)."""
    if target == "DATE":
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        return datetime.date.fromisoformat(str(value))
    if target in ("SIGNED", "UNSIGNED", "INTEGER", "INT"):
        return int(value)
    if target in ("DOUBLE", "FLOAT", "DECIMAL"):
        return float(value)
    if target in ("CHAR", "VARCHAR"):
        return str(value)
    raise ExecutionError(f"unsupported CAST target {target}")


def extract_value(unit: str, value):
    """EXTRACT a date part from a non-NULL value (shared by both engines)."""
    if unit == "YEAR":
        return value.year
    if unit == "MONTH":
        return value.month
    if unit == "DAY":
        return value.day
    if unit == "QUARTER":
        return (value.month - 1) // 3 + 1
    if unit == "WEEK":
        return value.isocalendar()[1]
    raise ExecutionError(f"unsupported EXTRACT unit {unit}")


def _compile_cast(target: str, arg: CompiledExpr) -> CompiledExpr:
    def cast(ctx):
        value = arg(ctx)
        if value is None:
            return None
        return cast_value(target, value)

    return cast


def _compile_extract(unit: str, arg: CompiledExpr) -> CompiledExpr:
    def extract(ctx):
        value = arg(ctx)
        if value is None:
            return None
        return extract_value(unit, value)

    return extract


def _scalar_builder(scalar: tuple):
    """Row-engine builder of one scalar function: a strict one returns
    NULL for any NULL argument without calling it."""
    fn, strict = scalar

    def build(args: List[CompiledExpr]) -> CompiledExpr:
        def evaluate(ctx):
            values = [arg(ctx) for arg in args]
            if strict and any(value is None for value in values):
                return None
            return fn(*values)

        return evaluate

    return build


def _build_coalesce(args: List[CompiledExpr]) -> CompiledExpr:
    def coalesce(ctx):
        for arg in args:
            value = arg(ctx)
            if value is not None:
                return value
        return None

    return coalesce


def _substring(value, start, length=None):
    start_index = max(0, int(start) - 1)
    text = str(value)
    if length is None:
        return text[start_index:]
    return text[start_index:start_index + int(length)]


def _nullif(a, b):
    # NULL = b and a = NULL are unknown, never true: NULLIF(a, NULL) is a.
    return None if a is None or a == b else a


def _extreme(pick: Callable) -> Callable:
    """GREATEST / LEAST: the winning argument in the arguments' common
    type, so an int that wins over a float comes back as a float."""
    def extreme(*args):
        value = pick(args)
        if type(value) is int and float in map(type, args):
            return float(value)
        return value

    return extreme


#: Raw scalar implementations as ``(fn, strict)``: a strict function's
#: result is NULL for any NULL argument, and ``fn`` is not called (the
#: caller applies this); a lenient one gets its NULLs.  Checked against
#: SQLite: every one is strict but NULLIF.  Both the row interpreter
#: (via :func:`_scalar_builder`) and the batch expression compiler
#: (inline NULL checks in generated code) read these, so the two
#: engines cannot drift apart on function semantics.
RAW_SCALARS = {
    "CONCAT": (lambda *parts: "".join(str(p) for p in parts), True),
    "UPPER": (lambda s: str(s).upper(), True),
    "LOWER": (lambda s: str(s).lower(), True),
    "LENGTH": (lambda s: len(str(s)), True),
    "TRIM": (lambda s: str(s).strip(), True),
    "LTRIM": (lambda s: str(s).lstrip(), True),
    "RTRIM": (lambda s: str(s).rstrip(), True),
    "ABS": (abs, True),
    "ROUND": (lambda v, digits=0: round(v, int(digits)), True),
    "FLOOR": (math.floor, True),
    "CEIL": (math.ceil, True),
    "CEILING": (math.ceil, True),
    "SQRT": (math.sqrt, True),
    "MOD": (lambda a, b: None if b == 0 else a % b, True),
    "POWER": (lambda a, b: float(a) ** b, True),  # DOUBLE, as in MySQL
    "SUBSTRING": (_substring, True),
    "SUBSTR": (_substring, True),
    "YEAR": (lambda d: d.year, True),
    "MONTH": (lambda d: d.month, True),
    "DAYOFMONTH": (lambda d: d.day, True),
    "DAYOFWEEK": (lambda d: d.isoweekday() % 7 + 1, True),
    "NULLIF": (_nullif, False),
    "GREATEST": (_extreme(max), True),
    "LEAST": (_extreme(min), True),
}

_FUNCTIONS = {name: _scalar_builder(scalar)
              for name, scalar in RAW_SCALARS.items()}
_FUNCTIONS["COALESCE"] = _build_coalesce
_FUNCTIONS["IFNULL"] = _build_coalesce
