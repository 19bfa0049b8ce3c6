"""The MySQL prepare phase: logical rewrites on resolved query blocks.

Implements the transformations Section 2.2 lists for MySQL's Prepare
phase:

* constant folding (including ``DATE '...' + INTERVAL`` arithmetic),
* conversion of IN / EXISTS subqueries into semi-joins and NOT IN /
  NOT EXISTS into anti-joins (nullability permitting — Section 4.1),
* merging of simple derived tables into their parent block,
* simplification of LEFT OUTER joins to inner joins when a WHERE conjunct
  rejects NULLs of the inner side, and
* predicate pushdown into non-merged derived tables, including below
  GROUP BY when the predicate only uses grouping columns (the capability
  MySQL has for derived tables but *not* for subqueries — weakness (5) in
  the introduction).

The deliberate *non*-transformations matter just as much for reproducing
the paper: no OR refactoring (weakness 3), no aggregation pushdown
(weakness 4), and no CTE predicate pushdown (Section 7, lesson 3) — those
are Orca capabilities exercised on the Orca path only.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Set, Tuple

from repro.mysql_types import Interval
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    NestKind,
    QueryBlock,
    SemiJoinNest,
    TableEntry,
)
from repro.sql.facts import attach_facts, mask_ids, scan_expr, subquery_blocks
from repro.sql.rewrite import map_expr, substitute_entry_columns


def prepare(block: QueryBlock) -> QueryBlock:
    """Apply all prepare-phase rewrites to a block tree, bottom-up, then
    build the tree's block facts (:mod:`repro.sql.facts`)."""
    _prepare_tree(block)
    attach_facts(block, fresh=True)
    return block


def _prepare_tree(block: QueryBlock) -> None:
    for sub in _direct_sub_blocks(block):
        _prepare_tree(sub)
    _fold_constants(block)
    _convert_subqueries_to_semijoins(block)
    _merge_derived_tables(block)
    _simplify_outer_joins(block)
    _push_predicates_into_derived(block)


def _direct_sub_blocks(block: QueryBlock) -> List[QueryBlock]:
    subs: List[QueryBlock] = []
    for binding in block.cte_bindings:
        subs.append(binding.block)
    for entry in block.entries:
        if entry.kind is EntryKind.DERIVED and entry.sub_block is not None:
            subs.append(entry.sub_block)
    subs.extend(subquery_blocks(block))
    for __, side in block.set_ops:
        subs.append(side)
    return subs


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def _fold_constants(block: QueryBlock) -> None:
    def fold(expr: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(expr, ast.BinaryExpr):
            left, right = expr.left, expr.right
            if isinstance(left, ast.Literal) and \
                    isinstance(right, ast.IntervalLiteral):
                return _fold_date_interval(left, right.interval, expr.op)
            if isinstance(left, ast.Literal) and isinstance(right, ast.Literal) \
                    and expr.op in ast.ARITHMETIC_OPS:
                return _fold_arithmetic(expr.op, left.value, right.value)
        if isinstance(expr, ast.FuncCall) and expr.name.startswith("CAST_") \
                and len(expr.args) == 1 and isinstance(expr.args[0],
                                                       ast.Literal):
            return _fold_cast(expr.name[5:], expr.args[0].value)
        return None

    _rewrite_block_expressions(block, fold)


def _fold_date_interval(literal: ast.Literal, interval: Interval,
                        op: ast.BinOp) -> Optional[ast.Expr]:
    if not isinstance(literal.value, datetime.date):
        return None
    if op is ast.BinOp.ADD:
        return ast.Literal(interval.add_to(literal.value))
    if op is ast.BinOp.SUB:
        return ast.Literal(interval.negate().add_to(literal.value))
    return None


def _fold_arithmetic(op: ast.BinOp, left, right) -> Optional[ast.Expr]:
    if left is None or right is None:
        return ast.Literal(None)
    try:
        if op is ast.BinOp.ADD:
            return ast.Literal(left + right)
        if op is ast.BinOp.SUB:
            return ast.Literal(left - right)
        if op is ast.BinOp.MUL:
            return ast.Literal(left * right)
        if op is ast.BinOp.DIV:
            return ast.Literal(None) if right == 0 else \
                ast.Literal(left / right)
        if op is ast.BinOp.MOD:
            return ast.Literal(None) if right == 0 else \
                ast.Literal(left % right)
    except TypeError:
        return None
    return None


def _fold_cast(target: str, value) -> Optional[ast.Expr]:
    if value is None:
        return ast.Literal(None)
    try:
        if target == "DATE":
            if isinstance(value, datetime.datetime):
                return ast.Literal(value.date())
            if isinstance(value, datetime.date):
                return ast.Literal(value)
            return ast.Literal(datetime.date.fromisoformat(str(value)))
        if target in ("SIGNED", "UNSIGNED", "INTEGER", "INT"):
            return ast.Literal(int(value))
        if target in ("DOUBLE", "FLOAT", "DECIMAL"):
            return ast.Literal(float(value))
        if target in ("CHAR", "VARCHAR"):
            return ast.Literal(str(value))
    except (ValueError, TypeError):
        return None
    return None


def _rewrite_block_expressions(block: QueryBlock, fn) -> None:
    block.where_conjuncts = [map_expr(c, fn) for c in block.where_conjuncts]
    block.select_items = [ast.SelectItem(map_expr(item.expr, fn), item.alias)
                          for item in block.select_items]
    block.group_by = [map_expr(g, fn) for g in block.group_by]
    block.having_conjuncts = [map_expr(c, fn)
                              for c in block.having_conjuncts]
    block.order_by = [ast.OrderItem(map_expr(o.expr, fn), o.descending)
                      for o in block.order_by]
    for entry in block.entries:
        if entry.outer_join_conjuncts is not None:
            entry.outer_join_conjuncts = [
                map_expr(c, fn) for c in entry.outer_join_conjuncts]
    # Window specs reference the (possibly rebuilt) select items; refresh.
    _refresh_windows(block)


def _refresh_windows(block: QueryBlock) -> None:
    if not block.windows:
        return
    from repro.sql.blocks import WindowSpec

    block.windows = []
    slot = 0
    for item in block.select_items:
        for node in item.expr.walk():
            if isinstance(node, ast.WindowCall):
                block.windows.append(WindowSpec(node, slot))
                slot += 1


# ---------------------------------------------------------------------------
# IN / EXISTS -> semi-join conversion
# ---------------------------------------------------------------------------

def _convert_subqueries_to_semijoins(block: QueryBlock) -> None:
    new_pool: List[ast.Expr] = []
    for conjunct in block.where_conjuncts:
        added = _try_semijoin_conversion(block, conjunct)
        if added is None:
            new_pool.append(conjunct)
        else:
            new_pool.extend(added)
    block.where_conjuncts = new_pool


def _try_semijoin_conversion(block: QueryBlock, conjunct: ast.Expr
                             ) -> Optional[List[ast.Expr]]:
    """Convert one conjunct to a semi/anti join; None when not eligible."""
    kind: Optional[NestKind] = None
    expr = conjunct
    if isinstance(expr, ast.NotExpr):
        inner = expr.operand
        if isinstance(inner, (ast.InSubqueryExpr, ast.ExistsExpr)):
            kind = NestKind.ANTI
            expr = inner
    if isinstance(expr, (ast.InSubqueryExpr, ast.ExistsExpr)):
        if kind is None:
            kind = NestKind.ANTI if expr.negated else NestKind.SEMI
        elif expr.negated:
            kind = NestKind.SEMI  # NOT (x NOT IN ...) double negation
    else:
        return None

    sub = expr.block
    if not isinstance(sub, QueryBlock) or not _semijoin_eligible(sub):
        return None

    equality: Optional[ast.Expr] = None
    if isinstance(expr, ast.InSubqueryExpr):
        if len(sub.select_items) != 1:
            return None
        item_expr = sub.select_items[0].expr
        if kind is NestKind.ANTI:
            # NOT IN is only anti-join convertible when neither side can be
            # NULL — "depending on column nullability" (Section 4.1).
            if _maybe_nullable(expr.operand) or _maybe_nullable(item_expr):
                return None
        equality = ast.BinaryExpr(ast.BinOp.EQ, expr.operand, item_expr)

    nest = SemiJoinNest(block.context.new_nest_id(), kind,
                        [entry.entry_id for entry in sub.entries])
    for entry in sub.entries:
        entry.block = block
        entry.semijoin_nest = nest.nest_id
        block.entries.append(entry)
    block.semijoin_nests.append(nest)

    # Correlated references of the subquery that point beyond this block
    # stay outer references of this block.
    local_ids = {entry.entry_id for entry in block.entries}
    for ref_id in sub.outer_references:
        if ref_id not in local_ids and ref_id not in block.outer_references:
            block.outer_references.append(ref_id)

    added = list(sub.where_conjuncts)
    if equality is not None:
        added.append(equality)
    return added


def _semijoin_eligible(sub: QueryBlock) -> bool:
    return (not sub.aggregated
            and not sub.windows
            and sub.limit is None
            and sub.offset is None
            and not sub.set_ops
            and not sub.cte_bindings
            and not sub.semijoin_nests
            and bool(sub.entries)
            and not any(entry.is_outer_joined for entry in sub.entries)
            and not any(entry.kind is not EntryKind.BASE
                        for entry in sub.entries))


def _maybe_nullable(expr: ast.Expr) -> bool:
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            if getattr(node, "resolved_nullable", True):
                return True
        elif isinstance(node, ast.Literal):
            if node.value is None:
                return True
        elif isinstance(node, (ast.AggCall, ast.ScalarSubquery,
                               ast.CaseExpr)):
            return True
    return False


# ---------------------------------------------------------------------------
# Derived table merge
# ---------------------------------------------------------------------------

def _merge_derived_tables(block: QueryBlock) -> None:
    for entry in list(block.entries):
        if entry.kind is not EntryKind.DERIVED:
            continue
        if entry.is_outer_joined:
            continue
        sub = entry.sub_block
        if sub is None or not _merge_eligible(sub):
            continue
        if _referenced_by_sub_blocks(block, entry.entry_id):
            continue
        _merge_one_derived(block, entry, sub)


def _merge_eligible(sub: QueryBlock) -> bool:
    return (not sub.aggregated
            and not sub.windows
            and sub.limit is None
            and sub.offset is None
            and not sub.distinct
            and not sub.set_ops
            and not sub.cte_bindings
            and not sub.semijoin_nests
            and not sub.is_correlated
            and bool(sub.entries))


def _referenced_by_sub_blocks(block: QueryBlock, entry_id: int) -> bool:
    """Whether any subquery block (at any depth) references ``entry_id``."""
    pending = subquery_blocks(block)
    seen: Set[int] = set()
    while pending:
        sub = pending.pop()
        if sub.block_id in seen:
            continue
        seen.add(sub.block_id)
        if entry_id in sub.outer_references:
            return True
        pending.extend(subquery_blocks(sub))
        for entry in sub.entries:
            if entry.sub_block is not None:
                pending.append(entry.sub_block)
    return False


def _merge_one_derived(block: QueryBlock, entry: TableEntry,
                       sub: QueryBlock) -> None:
    replacements = [item.expr for item in sub.select_items]

    def fn(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.entry_id == entry.entry_id:
            return replacements[node.position]
        return None

    _rewrite_block_expressions(block, fn)

    position = block.entries.index(entry)
    for offset, sub_entry in enumerate(sub.entries):
        sub_entry.block = block
        block.entries.insert(position + offset, sub_entry)
    block.entries.remove(entry)
    block.where_conjuncts.extend(sub.where_conjuncts)

    local_ids = {e.entry_id for e in block.entries}
    for ref_id in sub.outer_references:
        if ref_id not in local_ids and ref_id not in block.outer_references:
            block.outer_references.append(ref_id)
    if entry.entry_id in block.outer_references:
        block.outer_references.remove(entry.entry_id)


# ---------------------------------------------------------------------------
# Outer join simplification
# ---------------------------------------------------------------------------

def _simplify_outer_joins(block: QueryBlock) -> None:
    for entry in block.entries:
        if not entry.is_outer_joined:
            continue
        if any(_null_rejects(conjunct, entry.entry_id)
               for conjunct in block.where_conjuncts):
            block.where_conjuncts.extend(entry.outer_join_conjuncts or [])
            entry.outer_join_conjuncts = None


def _null_rejects(conjunct: ast.Expr, entry_id: int) -> bool:
    """Whether the conjunct filters out rows where the entry is all-NULL."""
    if not scan_expr(conjunct)[0] >> entry_id & 1:
        return False
    if isinstance(conjunct, ast.BinaryExpr) and \
            conjunct.op in ast.COMPARISON_OPS:
        return True
    if isinstance(conjunct, ast.IsNullExpr):
        return conjunct.negated
    if isinstance(conjunct, (ast.BetweenExpr, ast.LikeExpr, ast.InListExpr)):
        return not conjunct.negated
    return False


# ---------------------------------------------------------------------------
# Predicate pushdown into derived tables
# ---------------------------------------------------------------------------

def _push_predicates_into_derived(block: QueryBlock) -> None:
    derived_entries = {entry.entry_id: entry for entry in block.entries
                       if entry.kind is EntryKind.DERIVED
                       and not entry.is_outer_joined
                       and entry.sub_block is not None}
    if not derived_entries:
        return
    remaining: List[ast.Expr] = []
    for conjunct in block.where_conjuncts:
        refs = mask_ids(scan_expr(conjunct)[0])
        if len(refs) == 1:
            (entry_id,) = refs
            entry = derived_entries.get(entry_id)
            if entry is not None and _pushdown_allowed(conjunct, entry):
                sub = entry.sub_block
                pushed = substitute_entry_columns(
                    conjunct, entry_id,
                    [item.expr for item in sub.select_items])
                sub.where_conjuncts.append(pushed)
                continue
        remaining.append(conjunct)
    block.where_conjuncts = remaining


def _pushdown_allowed(conjunct: ast.Expr, entry: TableEntry) -> bool:
    sub = entry.sub_block
    if sub.limit is not None or sub.offset is not None or sub.windows \
            or sub.set_ops:
        return False
    positions = [node.position for node in conjunct.walk()
                 if isinstance(node, ast.ColumnRef)
                 and node.entry_id == entry.entry_id]
    if not sub.aggregated:
        return True
    # Below GROUP BY only when every referenced output column is a
    # grouping column (Section 7, lesson 6 describes the HAVING analog).
    group_exprs = {id(g) for g in sub.group_by}
    for position in positions:
        item_expr = sub.select_items[position].expr
        if not _is_grouping_column(item_expr, sub):
            return False
    return True


def _is_grouping_column(expr: ast.Expr, sub: QueryBlock) -> bool:
    if not isinstance(expr, ast.ColumnRef):
        return False
    for group in sub.group_by:
        if isinstance(group, ast.ColumnRef) and \
                group.entry_id == expr.entry_id and \
                group.position == expr.position:
            return True
    return False
