"""Access-path analysis: table scan vs index range vs ref lookups.

This module is shared by the MySQL optimizer (with the heuristic
estimator) and by Orca's implementation rules (with the histogram-backed
estimator): both need to know which indexes can serve constant ranges and
which can serve join-dependent lookups, and what they would cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.catalog.schema import Index
from repro.executor.plan import AccessMethod
from repro.mysql_optimizer.cost import MySQLCostModel
from repro.mysql_optimizer.skeleton import AccessPlan
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind, QueryBlock, TableEntry, \
    referenced_entries


@dataclass
class _RangeBound:
    """A constant bound extracted from one conjunct on one column."""

    conjunct: ast.Expr
    low: Optional[object] = None
    high: Optional[object] = None
    low_inclusive: bool = True
    high_inclusive: bool = True


def is_constant_expr(expr: ast.Expr) -> bool:
    return all(not isinstance(node, ast.ColumnRef) for node in expr.walk())


def _literal_value(expr: ast.Expr):
    """Constant value of an expression, or None when not a plain literal."""
    if isinstance(expr, ast.Literal):
        return expr.value
    return None


def extract_range(conjunct: ast.Expr, entry_id: int,
                  column_position: int) -> Optional[_RangeBound]:
    """Extract a constant bound on (entry, column) from one conjunct."""
    if isinstance(conjunct, ast.BinaryExpr) and \
            conjunct.op in ast.COMPARISON_OPS:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, ast.ColumnRef) and _matches(right, entry_id,
                                                         column_position):
            left, right = right, left
            op = ast.COMMUTED_COMPARISON[op]
        if not (isinstance(left, ast.ColumnRef)
                and _matches(left, entry_id, column_position)):
            return None
        value = _literal_value(right)
        if value is None:
            return None
        if op is ast.BinOp.EQ:
            return _RangeBound(conjunct, low=value, high=value)
        if op is ast.BinOp.LT:
            return _RangeBound(conjunct, high=value, high_inclusive=False)
        if op is ast.BinOp.LE:
            return _RangeBound(conjunct, high=value)
        if op is ast.BinOp.GT:
            return _RangeBound(conjunct, low=value, low_inclusive=False)
        if op is ast.BinOp.GE:
            return _RangeBound(conjunct, low=value)
        return None
    if isinstance(conjunct, ast.BetweenExpr) and not conjunct.negated:
        if isinstance(conjunct.operand, ast.ColumnRef) and \
                _matches(conjunct.operand, entry_id, column_position):
            low = _literal_value(conjunct.low)
            high = _literal_value(conjunct.high)
            if low is not None and high is not None:
                return _RangeBound(conjunct, low=low, high=high)
    return None


def _matches(ref: ast.ColumnRef, entry_id: int, position: int) -> bool:
    return ref.entry_id == entry_id and ref.position == position


def best_local_access(block: QueryBlock, entry: TableEntry,
                      conjuncts: List[ast.Expr],
                      estimator: SelectivityEstimator,
                      cost_model: MySQLCostModel) -> AccessPlan:
    """Best access path using only constants: scan or index range.

    ``conjuncts`` should be the predicates local to the entry (refs only
    to it); the returned plan's ``est_rows`` already accounts for the
    bounds consumed, and the caller applies the remaining local
    selectivity separately.
    """
    table_rows = estimator.table_rows(block, entry.entry_id)
    scan = AccessPlan(
        method=AccessMethod.TABLE_SCAN,
        est_rows=table_rows,
        est_cost=cost_model.table_scan_cost(table_rows),
    )
    if entry.kind is not EntryKind.BASE or entry.table_schema is None:
        return scan
    # Range bounds are estimated with histogram accuracy regardless of the
    # caller's estimator: MySQL performs *index dives* for range access,
    # which are accurate even when the rest of its estimation is not.
    dive = estimator
    if not estimator.use_histograms:
        dive = SelectivityEstimator(estimator.catalog, use_histograms=True)
    best = scan
    for index in entry.table_schema.indexes:
        candidate = _range_plan(block, entry, index, conjuncts, table_rows,
                                dive, cost_model)
        if candidate is not None and candidate.est_cost < best.est_cost:
            best = candidate
    return best


def match_index_prefix(index: Index, table_schema, entry_id: int,
                       conjuncts: List[ast.Expr]
                       ) -> Tuple[List[object], Optional[_RangeBound],
                                  List[ast.Expr]]:
    """Match constant conjuncts against an index's leading columns.

    Returns ``(eq_prefix, range_bound, consumed)``: the equality values
    for the longest constant-bound leading prefix, the merged bound on
    the first column after it (None without one), and the conjuncts
    used, in the order they were matched.  Shared by the SELECT range
    planner below and by DML victim location (``repro.dml``).
    """
    consumed: List[ast.Expr] = []
    consumed_ids = set()
    eq_prefix: List[object] = []
    range_bound: Optional[_RangeBound] = None
    for column_name in index.column_names:
        position = table_schema.column_position(column_name)
        eq_bound = None
        column_bounds: List[_RangeBound] = []
        for conjunct in conjuncts:
            if id(conjunct) in consumed_ids:
                continue
            bound = extract_range(conjunct, entry_id, position)
            if bound is None:
                continue
            if bound.low == bound.high and bound.low is not None:
                eq_bound = bound
                break
            column_bounds.append(bound)
        if eq_bound is not None:
            consumed.append(eq_bound.conjunct)
            consumed_ids.add(id(eq_bound.conjunct))
            eq_prefix.append(eq_bound.low)
            continue
        if column_bounds:
            range_bound = column_bounds[0]
            for extra in column_bounds[1:]:
                range_bound = _merge_bounds(range_bound, extra)
            consumed.extend(bound.conjunct for bound in column_bounds)
        break
    return eq_prefix, range_bound, consumed


def index_key_bounds(eq_prefix: List[object],
                     range_bound: Optional[_RangeBound]
                     ) -> Tuple[Optional[tuple], Optional[tuple], bool, bool]:
    """``(low, high, low_inclusive, high_inclusive)`` index-key bounds
    for an equality prefix plus an optional range on the next column."""
    prefix = tuple(eq_prefix)
    if range_bound is None:
        return prefix, prefix, True, True
    if range_bound.low is not None:
        low = prefix + (range_bound.low,)
        low_inclusive = range_bound.low_inclusive
    else:
        low = prefix if prefix else None
        low_inclusive = True
    if range_bound.high is not None:
        high = prefix + (range_bound.high,)
        high_inclusive = range_bound.high_inclusive
    else:
        high = prefix if prefix else None
        high_inclusive = True
    return low, high, low_inclusive, high_inclusive


def _range_plan(block: QueryBlock, entry: TableEntry, index: Index,
                conjuncts: List[ast.Expr], table_rows: float,
                estimator: SelectivityEstimator,
                cost_model: MySQLCostModel) -> Optional[AccessPlan]:
    """Range plan over an index: constant eq prefix plus one range column."""
    eq_prefix, range_bound, consumed = match_index_prefix(
        index, entry.table_schema, entry.entry_id, conjuncts)
    if not consumed:
        return None
    selectivity = 1.0
    for conjunct in consumed:
        selectivity *= estimator.conjunct_selectivity(block, conjunct)
    matched = max(1.0, table_rows * selectivity)
    low, high, low_inclusive, high_inclusive = index_key_bounds(
        eq_prefix, range_bound)
    return AccessPlan(
        method=AccessMethod.INDEX_RANGE,
        index_name=index.name,
        low=low,
        high=high,
        low_inclusive=low_inclusive,
        high_inclusive=high_inclusive,
        consumed_conjuncts=consumed,
        est_rows=matched,
        est_cost=cost_model.index_range_cost(matched),
    )


def _merge_bounds(a: _RangeBound, b: _RangeBound) -> _RangeBound:
    """Merge two bounds on the same column (e.g. >= lo AND < hi)."""
    merged = _RangeBound(conjunct=a.conjunct)
    merged.low, merged.low_inclusive = a.low, a.low_inclusive
    merged.high, merged.high_inclusive = a.high, a.high_inclusive
    if b.low is not None and (merged.low is None or b.low > merged.low):
        merged.low, merged.low_inclusive = b.low, b.low_inclusive
    if b.high is not None and (merged.high is None or b.high < merged.high):
        merged.high, merged.high_inclusive = b.high, b.high_inclusive
    return merged


def ref_access(block: QueryBlock, entry: TableEntry,
               conjuncts: List[ast.Expr], available: frozenset,
               estimator: SelectivityEstimator,
               cost_model: MySQLCostModel,
               refs: Callable[[ast.Expr], frozenset] = referenced_entries
               ) -> Optional[AccessPlan]:
    """Best join-dependent index lookup (MySQL ``ref``/``eq_ref`` access).

    ``available`` is the set of entry ids whose slots are bound when the
    lookup runs (the placed prefix plus correlation sources).  Equality
    conjuncts of the form ``entry.col = expr(available)`` matching an
    index prefix become lookup keys.  ``refs`` names the entry ids an
    expression reads; a caller probing the same conjuncts many times
    passes a memo of :func:`referenced_entries`.
    """
    if entry.kind is not EntryKind.BASE or entry.table_schema is None:
        return None
    equalities = _join_equalities(entry, conjuncts, available, refs)
    if not equalities:
        return None
    table_rows = estimator.table_rows(block, entry.entry_id)
    best: Optional[AccessPlan] = None
    for index in entry.table_schema.indexes:
        key_exprs: List[ast.Expr] = []
        consumed: List[ast.Expr] = []
        for column_name in index.column_names:
            position = entry.table_schema.column_position(column_name)
            found = equalities.get(position)
            if found is None:
                break
            conjunct, expr = found
            key_exprs.append(expr)
            consumed.append(conjunct)
        if not key_exprs:
            continue
        if index.unique and len(key_exprs) == len(index.column_names):
            matched = 1.0
        else:
            ndv = 1.0
            for column_name in index.column_names[:len(key_exprs)]:
                position = entry.table_schema.column_position(column_name)
                ref = ast.ColumnRef(entry.alias, column_name,
                                    entry.entry_id, position)
                ndv *= estimator.column_ndv(block, ref)
            matched = max(1.0, table_rows / max(1.0, ndv))
        candidate = AccessPlan(
            method=AccessMethod.INDEX_LOOKUP,
            index_name=index.name,
            key_exprs=key_exprs,
            consumed_conjuncts=consumed,
            est_rows=matched,
            est_cost=cost_model.index_lookup_cost(matched),
        )
        if best is None or candidate.est_cost < best.est_cost:
            best = candidate
    return best


def _join_equalities(entry: TableEntry, conjuncts: List[ast.Expr],
                     available: frozenset,
                     refs: Callable[[ast.Expr], frozenset]):
    """Map column position -> (conjunct, outer expr) for usable equalities."""
    result = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryExpr)
                and conjunct.op is ast.BinOp.EQ):
            continue
        left, right = conjunct.left, conjunct.right
        for own, other in ((left, right), (right, left)):
            if not isinstance(own, ast.ColumnRef):
                continue
            if own.entry_id != entry.entry_id:
                continue
            other_refs = refs(other)
            if entry.entry_id in other_refs:
                continue
            if not other_refs.issubset(available):
                continue
            if own.position not in result:
                result[own.position] = (conjunct, other)
            break
    return result


def ordered_index_access(entry: TableEntry, order_items: List[ast.OrderItem]
                         ) -> Optional[Tuple[str, bool]]:
    """An index able to supply the requested order on this entry.

    Returns (index name, descending) when the leading index columns match
    the ORDER BY items (all same direction) — the order-supplying index
    scan Orca was extended with (Section 7, lesson 4).
    """
    if entry.kind is not EntryKind.BASE or entry.table_schema is None:
        return None
    if not order_items:
        return None
    directions = {item.descending for item in order_items}
    if len(directions) != 1:
        return None
    descending = directions.pop()
    wanted: List[int] = []
    for item in order_items:
        if not isinstance(item.expr, ast.ColumnRef) or \
                item.expr.entry_id != entry.entry_id:
            return None
        wanted.append(item.expr.position)
    for index in entry.table_schema.indexes:
        positions = [entry.table_schema.column_position(name)
                     for name in index.column_names]
        if positions[:len(wanted)] == wanted:
            return index.name, descending
    return None
