"""Selectivity estimation shared by both optimizers.

The MySQL-style optimizer calls this with ``use_histograms=False`` (rough
heuristics plus NDV, matching MySQL's classic estimation), while the
Orca-style optimizer passes ``use_histograms=True`` so singleton and
equi-height histograms (including the string histograms of Section 5.5)
drive the estimates.

All functions return fractions in [0, 1]; callers multiply by input
cardinalities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import ColumnStatistics
from repro.sql import ast
from repro.sql.blocks import EntryKind, QueryBlock

#: Default selectivities used when no statistics apply (MySQL-style).
DEFAULT_EQ = 0.1
DEFAULT_RANGE = 1.0 / 3.0
DEFAULT_BETWEEN = 0.25
DEFAULT_LIKE = 0.1
DEFAULT_OTHER = 1.0 / 3.0


class SelectivityEstimator:
    """Estimates conjunct selectivities against base-table statistics."""

    def __init__(self, catalog: Catalog, use_histograms: bool) -> None:
        self.catalog = catalog
        self.use_histograms = use_histograms

    # -- column statistics lookup --------------------------------------------------

    def column_stats(self, block: QueryBlock,
                     ref: ast.ColumnRef) -> Optional[ColumnStatistics]:
        """Statistics for a resolved column ref in the given block tree."""
        if ref.entry_id is None:
            return None
        entry = block.context.entry(ref.entry_id)
        if entry.kind is not EntryKind.BASE or entry.table_schema is None:
            return None
        stats = self.catalog.statistics(entry.table_schema.name)
        if stats.row_count == 0:
            return None
        return stats.column(entry.columns[ref.position].name)

    def table_rows(self, block: QueryBlock, entry_id: int) -> float:
        entry = block.context.entry(entry_id)
        if entry.kind is EntryKind.BASE and entry.table_schema is not None:
            return float(max(
                1, self.catalog.statistics(entry.table_schema.name).row_count))
        return 1000.0

    def column_ndv(self, block: QueryBlock, ref: ast.ColumnRef) -> float:
        stats = self.column_stats(block, ref)
        if stats is None:
            return 100.0
        return float(max(1, stats.distinct_count))

    # -- conjunct selectivity ----------------------------------------------------------

    def conjunct_selectivity(self, block: QueryBlock,
                             conjunct: ast.Expr) -> float:
        """Selectivity of one conjunct applied to its referenced rows."""
        sel = self._selectivity(block, conjunct)
        return min(1.0, max(1e-6, sel))

    def _selectivity(self, block: QueryBlock, expr: ast.Expr) -> float:
        if isinstance(expr, ast.BinaryExpr):
            if expr.op is ast.BinOp.AND:
                return (self._selectivity(block, expr.left)
                        * self._selectivity(block, expr.right))
            if expr.op is ast.BinOp.OR:
                left = self._selectivity(block, expr.left)
                right = self._selectivity(block, expr.right)
                return left + right - left * right
            if expr.op in ast.COMPARISON_OPS:
                return self._comparison_selectivity(block, expr)
        if isinstance(expr, ast.NotExpr):
            return 1.0 - self._selectivity(block, expr.operand)
        if isinstance(expr, ast.IsNullExpr):
            return self._isnull_selectivity(block, expr)
        if isinstance(expr, ast.BetweenExpr):
            return self._between_selectivity(block, expr)
        if isinstance(expr, ast.LikeExpr):
            return self._like_selectivity(block, expr)
        if isinstance(expr, ast.InListExpr):
            return self._inlist_selectivity(block, expr)
        if isinstance(expr, (ast.InSubqueryExpr, ast.ExistsExpr)):
            return 0.5
        if isinstance(expr, ast.Literal):
            if expr.value is True:
                return 1.0
            if expr.value in (False, None):
                return 0.0
        return DEFAULT_OTHER

    def _comparison_selectivity(self, block: QueryBlock,
                                expr: ast.BinaryExpr) -> float:
        column, literal, op = self._normalise_comparison(expr)
        if column is None:
            return self._column_column_selectivity(block, expr)
        stats = self.column_stats(block, column)
        if op is ast.BinOp.EQ:
            if stats is not None:
                if self.use_histograms and stats.histogram is not None \
                        and literal is not None:
                    return stats.histogram.selectivity_eq(literal)
                return 1.0 / max(1, stats.distinct_count)
            return DEFAULT_EQ
        if op is ast.BinOp.NE:
            if stats is not None:
                return 1.0 - 1.0 / max(1, stats.distinct_count)
            return 1.0 - DEFAULT_EQ
        # Range comparison.
        if stats is not None and self.use_histograms \
                and stats.histogram is not None and literal is not None:
            try:
                if op is ast.BinOp.LT:
                    return stats.histogram.selectivity_lt(literal)
                if op is ast.BinOp.LE:
                    return stats.histogram.selectivity_lt(literal, True)
                if op is ast.BinOp.GT:
                    return stats.histogram.selectivity_gt(literal)
                if op is ast.BinOp.GE:
                    return stats.histogram.selectivity_gt(literal, True)
            except (TypeError, ValueError):
                return DEFAULT_RANGE
        return DEFAULT_RANGE

    def _normalise_comparison(self, expr: ast.BinaryExpr):
        """Return (column_ref, literal_value, op) with the column on the left.

        Returns (None, None, op) when the comparison is not col-vs-constant.
        """
        left, right, op = expr.left, expr.right, expr.op
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            return left, right.value, op
        if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            return right, left.value, ast.COMMUTED_COMPARISON[op]
        if isinstance(left, ast.ColumnRef) and _is_constant(right):
            return left, None, op
        if isinstance(right, ast.ColumnRef) and _is_constant(left):
            return right, None, ast.COMMUTED_COMPARISON[op]
        return None, None, op

    def _column_column_selectivity(self, block: QueryBlock,
                                   expr: ast.BinaryExpr) -> float:
        left, right = expr.left, expr.right
        if isinstance(left, ast.ColumnRef) and \
                isinstance(right, ast.ColumnRef):
            if expr.op is ast.BinOp.EQ:
                ndv = max(self.column_ndv(block, left),
                          self.column_ndv(block, right))
                return 1.0 / ndv
            return DEFAULT_RANGE
        return DEFAULT_OTHER

    def _isnull_selectivity(self, block: QueryBlock,
                            expr: ast.IsNullExpr) -> float:
        if isinstance(expr.operand, ast.ColumnRef):
            stats = self.column_stats(block, expr.operand)
            entry = block.context.entry(expr.operand.entry_id) \
                if expr.operand.entry_id is not None else None
            if stats is not None and entry is not None \
                    and entry.table_schema is not None:
                rows = self.catalog.statistics(
                    entry.table_schema.name).row_count
                null_fraction = stats.null_fraction(rows)
                return (1.0 - null_fraction) if expr.negated \
                    else null_fraction
        return 0.05 if not expr.negated else 0.95

    def _between_selectivity(self, block: QueryBlock,
                             expr: ast.BetweenExpr) -> float:
        if self.use_histograms and isinstance(expr.operand, ast.ColumnRef) \
                and isinstance(expr.low, ast.Literal) \
                and isinstance(expr.high, ast.Literal):
            stats = self.column_stats(block, expr.operand)
            if stats is not None and stats.histogram is not None:
                try:
                    sel = stats.histogram.selectivity_range(
                        expr.low.value, expr.high.value,
                        low_inclusive=True, high_inclusive=True)
                except (TypeError, ValueError):
                    sel = DEFAULT_BETWEEN
                return (1.0 - sel) if expr.negated else sel
        return (1.0 - DEFAULT_BETWEEN) if expr.negated else DEFAULT_BETWEEN

    def _like_selectivity(self, block: QueryBlock,
                          expr: ast.LikeExpr) -> float:
        # Histograms cannot estimate general patterns (the paper remarks on
        # this for Q16); a fixed default keeps both optimizers honest.
        return (1.0 - DEFAULT_LIKE) if expr.negated else DEFAULT_LIKE

    def _inlist_selectivity(self, block: QueryBlock,
                            expr: ast.InListExpr) -> float:
        """``IN`` counts each distinct non-NULL item once and ignores
        NULL items; a ``NOT IN`` list holding a NULL is never TRUE."""
        items, has_null = _in_items(expr.items)
        if expr.negated and has_null:
            return 0.0
        if isinstance(expr.operand, ast.ColumnRef):
            stats = self.column_stats(block, expr.operand)
            if stats is not None:
                if self.use_histograms and stats.histogram is not None:
                    sel = 0.0
                    for item in items:
                        if isinstance(item, ast.Literal):
                            sel += stats.histogram.selectivity_eq(item.value)
                    sel = min(1.0, sel)
                else:
                    sel = min(1.0, len(items)
                              / max(1, stats.distinct_count))
                return (1.0 - sel) if expr.negated else sel
        sel = min(1.0, DEFAULT_EQ * len(items))
        return (1.0 - sel) if expr.negated else sel

    # -- join selectivity -----------------------------------------------------------

    def join_selectivity(self, block: QueryBlock,
                         conjuncts: Sequence[ast.Expr]) -> float:
        """Combined selectivity of join conjuncts applied together.

        The one place where a join's conjuncts combine.  Column = column
        equalities between two base entries are grouped by that entry
        pair (:meth:`_equality_group_selectivity`); every other conjunct
        contributes its own selectivity, and the factors multiply in
        conjunct order.
        """
        groups: Dict[Tuple[int, int], List[Tuple[ast.ColumnRef,
                                                 ast.ColumnRef]]] = {}
        keys: List[Optional[Tuple[int, int]]] = []
        for conjunct in conjuncts:
            sides = self._base_equality(block, conjunct)
            key = None
            if sides is not None:
                key = (sides[0].entry_id, sides[1].entry_id)
                groups.setdefault(key, []).append(sides)
            keys.append(key)
        selectivity = 1.0
        for conjunct, key in zip(conjuncts, keys):
            if key is None:
                selectivity *= self._join_conjunct_selectivity(block,
                                                               conjunct)
            elif key in groups:
                selectivity *= self._equality_group_selectivity(
                    block, groups.pop(key))
        return selectivity

    def _join_conjunct_selectivity(self, block: QueryBlock,
                                   conjunct: ast.Expr) -> float:
        if isinstance(conjunct, ast.BinaryExpr) and \
                conjunct.op is ast.BinOp.EQ:
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ast.ColumnRef) and \
                    isinstance(right, ast.ColumnRef):
                return self._equality_selectivity(block, left, right)
        return self.conjunct_selectivity(block, conjunct)

    def _equality_selectivity(self, block: QueryBlock, left: ast.ColumnRef,
                              right: ast.ColumnRef) -> float:
        return 1.0 / max(self.column_ndv(block, left),
                         self.column_ndv(block, right))

    def _base_equality(self, block: QueryBlock, conjunct: ast.Expr
                       ) -> Optional[Tuple[ast.ColumnRef, ast.ColumnRef]]:
        """The column refs of ``base.col = base.col`` across two entries,
        lower entry id first; None for any other conjunct."""
        if not (isinstance(conjunct, ast.BinaryExpr)
                and conjunct.op is ast.BinOp.EQ):
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ast.ColumnRef)
                and isinstance(right, ast.ColumnRef)) \
                or left.entry_id is None or right.entry_id is None \
                or left.entry_id == right.entry_id:
            return None
        for ref in (left, right):
            entry = block.context.entry(ref.entry_id)
            if entry.kind is not EntryKind.BASE or entry.table_schema is None:
                return None
        return (left, right) if left.entry_id < right.entry_id \
            else (right, left)

    def _equality_group_selectivity(
            self, block: QueryBlock,
            group: List[Tuple[ast.ColumnRef, ast.ColumnRef]]) -> float:
        """Selectivity of the column equalities joining one entry pair.

        One equality is ``1/max(ndv_l, ndv_r)``, as it always was.
        Several are not independent: they match a composite value.  When
        one side's columns cover a unique index of its table, each row of
        the other side matches at most one row of it, so the selectivity
        is ``1/rows`` of that table (the larger one when both sides are
        keys).  Otherwise the composite has at most ``min(prod ndv, rows)``
        distinct values per side, and the larger side's count divides.
        Either rule is at least the independent product, which is kept
        when a column has no statistics and is the floor otherwise, so
        grouping never lowers an estimate.
        """
        product = 1.0
        for left, right in group:
            product *= self._equality_selectivity(block, left, right)
        if len(group) == 1:
            return product
        sides = ([left for left, __ in group], [right for __, right in group])
        if any(self.column_stats(block, ref) is None
               for refs in sides for ref in refs):
            return product
        key_rows = 0.0
        composite = 0.0
        for refs in sides:
            entry = block.context.entry(refs[0].entry_id)
            rows = self.table_rows(block, entry.entry_id)
            positions = {ref.position: ref for ref in refs}
            if any(index.unique and all(
                    entry.table_schema.column_position(name) in positions
                    for name in index.column_names)
                   for index in entry.table_schema.indexes):
                key_rows = max(key_rows, rows)
            combinations = 1.0
            for ref in positions.values():
                combinations *= self.column_ndv(block, ref)
            composite = max(composite, min(combinations, rows))
        return max(product, 1.0 / (key_rows or composite))


def _in_items(items: List[ast.Expr]) -> Tuple[List[ast.Expr], bool]:
    """(the items of an IN list less NULLs and repeated literals, whether
    a NULL literal was among them)."""
    kept: List[ast.Expr] = []
    seen = set()
    has_null = False
    for item in items:
        if isinstance(item, ast.Literal):
            if item.value is None:
                has_null = True
                continue
            if item.value in seen:
                continue
            seen.add(item.value)
        kept.append(item)
    return kept, has_null


def _is_constant(expr: ast.Expr) -> bool:
    return all(not isinstance(node, ast.ColumnRef) for node in expr.walk())


def local_selectivity(estimator: SelectivityEstimator, block: QueryBlock,
                      entry_id: int, conjuncts) -> float:
    """Combined selectivity of the conjuncts local to one entry."""
    selectivity = 1.0
    mask = block.facts.mask
    for conjunct in conjuncts:
        if mask(conjunct) == 1 << entry_id:
            selectivity *= estimator.conjunct_selectivity(block, conjunct)
    return selectivity
