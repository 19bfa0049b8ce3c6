"""Expression rewriting utilities shared by prepare, Orca, and the bridge.

:func:`map_expr` rebuilds an expression bottom-up through a mapping
function, creating new nodes only where something changed, so shared
subtrees (e.g. select-alias substitutions) are never mutated in place.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional

from repro.sql import ast

MapFn = Callable[[ast.Expr], Optional[ast.Expr]]


def map_expr(expr: ast.Expr, fn: MapFn) -> ast.Expr:
    """Rebuild ``expr`` bottom-up, replacing nodes where ``fn`` returns one.

    ``fn`` receives each node *after* its children were processed; it
    returns a replacement node or ``None`` to keep the node.  Subquery
    blocks are not entered — only the expression tree itself is rewritten.
    """
    rebuilt = _rebuild_children(expr, fn)
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt


def _rebuild_children(expr: ast.Expr, fn: MapFn) -> ast.Expr:
    if isinstance(expr, ast.BinaryExpr):
        left = map_expr(expr.left, fn)
        right = map_expr(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinaryExpr(expr.op, left, right)
    if isinstance(expr, ast.NotExpr):
        operand = map_expr(expr.operand, fn)
        return expr if operand is expr.operand else ast.NotExpr(operand)
    if isinstance(expr, ast.NegExpr):
        operand = map_expr(expr.operand, fn)
        return expr if operand is expr.operand else ast.NegExpr(operand)
    if isinstance(expr, ast.IsNullExpr):
        operand = map_expr(expr.operand, fn)
        if operand is expr.operand:
            return expr
        return ast.IsNullExpr(operand, expr.negated)
    if isinstance(expr, ast.BetweenExpr):
        operand = map_expr(expr.operand, fn)
        low = map_expr(expr.low, fn)
        high = map_expr(expr.high, fn)
        if operand is expr.operand and low is expr.low and high is expr.high:
            return expr
        return ast.BetweenExpr(operand, low, high, expr.negated)
    if isinstance(expr, ast.LikeExpr):
        operand = map_expr(expr.operand, fn)
        pattern = map_expr(expr.pattern, fn)
        if operand is expr.operand and pattern is expr.pattern:
            return expr
        return ast.LikeExpr(operand, pattern, expr.negated)
    if isinstance(expr, ast.InListExpr):
        operand = map_expr(expr.operand, fn)
        items = [map_expr(item, fn) for item in expr.items]
        if operand is expr.operand and all(new is old for new, old
                                           in zip(items, expr.items)):
            return expr
        return ast.InListExpr(operand, items, expr.negated)
    if isinstance(expr, ast.InSubqueryExpr):
        operand = map_expr(expr.operand, fn)
        if operand is expr.operand:
            return expr
        clone = ast.InSubqueryExpr(operand, expr.subquery, expr.negated)
        clone.block = expr.block
        return clone
    if isinstance(expr, ast.FuncCall):
        args = [map_expr(arg, fn) for arg in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return ast.FuncCall(expr.name, args)
    if isinstance(expr, ast.AggCall):
        if expr.arg is None:
            return expr
        arg = map_expr(expr.arg, fn)
        if arg is expr.arg:
            return expr
        return ast.AggCall(expr.func, arg, expr.distinct, expr.star)
    if isinstance(expr, ast.CaseExpr):
        whens = [(map_expr(cond, fn), map_expr(val, fn))
                 for cond, val in expr.whens]
        else_value = (map_expr(expr.else_value, fn)
                      if expr.else_value is not None else None)
        unchanged = (else_value is expr.else_value and all(
            new_c is old_c and new_v is old_v
            for (new_c, new_v), (old_c, old_v) in zip(whens, expr.whens)))
        if unchanged:
            return expr
        return ast.CaseExpr(whens, else_value)
    if isinstance(expr, ast.WindowCall):
        args = [map_expr(arg, fn) for arg in expr.args]
        partition = [map_expr(part, fn) for part in expr.partition_by]
        orders = [ast.OrderItem(map_expr(order.expr, fn), order.descending)
                  for order in expr.order_by]
        return ast.WindowCall(expr.func, args, partition, orders)
    if isinstance(expr, ast.GroupingCall):
        arg = map_expr(expr.arg, fn)
        return expr if arg is expr.arg else ast.GroupingCall(arg)
    # Literals, column refs, intervals, subquery markers: leaves here.
    return expr


def substitute_entry_columns(expr: ast.Expr, entry_id: int,
                             replacements: List[ast.Expr]) -> ast.Expr:
    """Replace refs to ``entry_id``'s columns with the given expressions.

    Used when merging a derived table into its parent block: references to
    the derived table's output columns become the underlying select-item
    expressions.
    """

    def fn(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.entry_id == entry_id:
            return replacements[node.position]
        return None

    return map_expr(expr, fn)


def expr_key(expr: ast.Expr) -> tuple:
    """A hashable structural key for expression equality.

    Two expressions with the same key are structurally identical (same
    operators, same resolved column bindings, same literal values).  Used
    for matching GROUP BY expressions during post-aggregation rewriting and
    for common-subexpression detection in the Orca preprocessing rules.
    """
    if isinstance(expr, ast.Literal):
        return ("lit", expr.value)
    if isinstance(expr, ast.ColumnRef):
        return ("col", expr.entry_id, expr.position)
    if isinstance(expr, ast.BinaryExpr):
        return ("bin", expr.op.value, expr_key(expr.left),
                expr_key(expr.right))
    if isinstance(expr, ast.NotExpr):
        return ("not", expr_key(expr.operand))
    if isinstance(expr, ast.NegExpr):
        return ("neg", expr_key(expr.operand))
    if isinstance(expr, ast.IsNullExpr):
        return ("isnull", expr.negated, expr_key(expr.operand))
    if isinstance(expr, ast.BetweenExpr):
        return ("between", expr.negated, expr_key(expr.operand),
                expr_key(expr.low), expr_key(expr.high))
    if isinstance(expr, ast.LikeExpr):
        return ("like", expr.negated, expr_key(expr.operand),
                expr_key(expr.pattern))
    if isinstance(expr, ast.InListExpr):
        return ("inlist", expr.negated, expr_key(expr.operand),
                tuple(expr_key(item) for item in expr.items))
    if isinstance(expr, ast.FuncCall):
        return ("func", expr.name,
                tuple(expr_key(arg) for arg in expr.args))
    if isinstance(expr, ast.AggCall):
        return ("agg", expr.func.value, expr.distinct, expr.star,
                expr_key(expr.arg) if expr.arg is not None else None)
    if isinstance(expr, ast.CaseExpr):
        return ("case",
                tuple((expr_key(c), expr_key(v)) for c, v in expr.whens),
                expr_key(expr.else_value)
                if expr.else_value is not None else None)
    if isinstance(expr, ast.WindowCall):
        return ("window", expr.func,
                tuple(expr_key(arg) for arg in expr.args),
                tuple(expr_key(part) for part in expr.partition_by),
                tuple((expr_key(item.expr), item.descending)
                      for item in expr.order_by))
    if isinstance(expr, ast.GroupingCall):
        return ("grouping", expr_key(expr.arg))
    if isinstance(expr, ast.IntervalLiteral):
        return ("interval", expr.interval.months, expr.interval.days)
    if isinstance(expr, ast.InSubqueryExpr):
        return ("in", expr.negated, expr_key(expr.operand),
                _subquery_key(expr))
    if isinstance(expr, ast.ExistsExpr):
        return ("exists", expr.negated, _subquery_key(expr))
    if isinstance(expr, ast.ScalarSubquery):
        return ("scalar", _subquery_key(expr))
    if isinstance(expr, ast.Star):
        return ("star", expr.table)
    return ("other", id(expr))


def _subquery_key(expr) -> tuple:
    """Structural key of a subquery expression's body.

    Two textual copies of one subquery — say in the SELECT list and in
    GROUP BY — resolve to different blocks with different entry ids, so
    the key is the body's parse tree, not its block: a column of the
    body's own tables is keyed by its name (identical trees in one scope
    resolve identically), and a column read from an enclosing block by
    its binding, ``(entry id, position)``.  An unresolved subquery keys
    by identity.
    """
    block = expr.block
    if block is None:
        return ("unresolved", id(expr))
    outer = frozenset(block.facts.corr)
    return _shape(expr.subquery, outer)


def _shape(node, outer: frozenset):
    if isinstance(node, ast.ColumnRef):
        if node.entry_id in outer:
            return ("outer", node.entry_id, node.position)
        return ("col", node.table, node.column)
    if isinstance(node, ast.Literal):
        return ("lit", type(node.value).__name__, node.value)
    if isinstance(node, (list, tuple)):
        return tuple(_shape(item, outer) for item in node)
    if dataclasses.is_dataclass(node):
        # ``block`` is the resolver's output for a nested subquery; its
        # parse tree, ``subquery``, stands for it.
        return (type(node).__name__,) + tuple(
            _shape(getattr(node, field.name), outer)
            for field in dataclasses.fields(node) if field.name != "block")
    if node is None or isinstance(node, (str, int, float, enum.Enum)):
        return node
    return ("other", id(node))

