"""DML execution: INSERT / DELETE / UPDATE.

These statements never take the Orca detour — "the parse tree converter
only sends SELECT queries to Orca" (Section 4.1) — and they need no
cost-based optimization in this engine: they bind against a single table
and run directly against the storage engine, at the cost InnoDB would
charge — work proportional to the rows touched, not to the table.

Every statement runs in three steps:

1. **Locate.**  UPDATE/DELETE find their victims through an index when
   the WHERE conjuncts put literals on a leading prefix of one
   (equalities, then at most one range) and re-check the whole WHERE on
   those candidates only; otherwise one predicate scan of the table.
2. **Validate.**  Every new row is evaluated, coerced and checked — NOT
   NULL on every column (listed or omitted), unique keys against the
   table *and* against the statement's other rows — before the first
   write, so a failing statement leaves table and indexes untouched.
3. **Apply.**  One call to ``StorageEngine.load_rows`` / ``update_rows``
   / ``delete_rows``, which keeps the table and its indexes in step
   (see ``repro.storage.engine``).  No write touches the catalog, so
   cached plans stay valid and read the new rows on their next run.
   Rows keep their row ids across UPDATE; DELETE moves the last row
   into each hole, so scan order after a DELETE is not insertion order
   (no order was ever promised without ORDER BY).

Statistics are not maintained incrementally; run ``Database.analyze()``
after bulk changes, as with MySQL's ANALYZE TABLE.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, TableSchema
from repro.errors import ExecutionError, ResolutionError
from repro.executor.expression import ExpressionCompiler, is_true
from repro.mysql_optimizer.access_path import (
    index_key_bounds, match_index_prefix)
from repro.mysql_types import coerce, orders_like
from repro.sql import ast
from repro.sql.rewrite import map_expr
from repro.storage.index import has_null


def _bind_to_table(expr: ast.Expr, schema: TableSchema) -> ast.Expr:
    """Resolve column references against a single table (entry slot 0)."""

    def fn(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.entry_id is None:
            if node.table is not None and \
                    node.table.lower() != schema.name.lower():
                raise ResolutionError(
                    f"unknown table {node.table!r} in DML expression")
            position = schema.column_position(node.column)
            bound = ast.ColumnRef(schema.name, node.column, 0, position)
            bound.resolved_type = schema.columns[position].type
            bound.declared_type = bound.resolved_type
            return bound
        if isinstance(node, (ast.ScalarSubquery, ast.InSubqueryExpr,
                             ast.ExistsExpr)):
            raise ExecutionError("subqueries are not supported in DML")
        return None

    return map_expr(expr, fn)


def _compile(expr: ast.Expr, schema: TableSchema) -> Callable:
    return ExpressionCompiler().compile(_bind_to_table(expr, schema))


def _checked(value, column: Column):
    """``value`` as stored in ``column``; NULL into NOT NULL raises."""
    if value is None and not column.nullable:
        raise ExecutionError(f"column {column.name!r} cannot be NULL")
    return coerce(value, column.type.base)


# -- locating victims ----------------------------------------------------------

def _index_safe(conjunct: ast.Expr, schema: TableSchema) -> bool:
    """Whether ``conjunct`` sets one column against literals that order
    like the column's stored values.  Only the operand types are vetted
    here; ``extract_range`` decides which shapes and operators bound an
    index column."""
    if isinstance(conjunct, ast.BinaryExpr):
        operands = [conjunct.left, conjunct.right]
    elif isinstance(conjunct, ast.BetweenExpr):
        operands = [conjunct.operand, conjunct.low, conjunct.high]
    else:
        return False
    columns = [operand for operand in operands
               if isinstance(operand, ast.ColumnRef)]
    literals = [operand for operand in operands
                if isinstance(operand, ast.Literal)]
    if len(columns) != 1 or len(literals) != len(operands) - 1:
        return False
    column = schema.columns[columns[0].position]
    return all(orders_like(type(literal.value), column.type.base)
               for literal in literals)


def _index_access(schema: TableSchema, where: ast.Expr
                  ) -> Optional[Tuple[str, tuple]]:
    """The index that narrows ``where`` best, as ``(index_name, (low,
    high, low_inclusive, high_inclusive))``; None when no conjunct
    bounds a leading index column.

    No cost model: a unique index bound on every column (at most one
    row) wins, then the longest equality prefix, then a range on the
    leading column; schema order breaks ties.
    """
    conjuncts = [conjunct for conjunct in ast.conjuncts_of(where)
                 if _index_safe(conjunct, schema)]
    best = None
    best_rank = None
    for index in schema.indexes:
        eq_prefix, range_bound, consumed = match_index_prefix(
            index, schema, 0, conjuncts)
        if not consumed:
            continue
        rank = (index.unique
                and len(eq_prefix) == len(index.column_names),
                len(eq_prefix), range_bound is not None)
        if best_rank is None or rank > best_rank:
            best_rank = rank
            best = (index.name, index_key_bounds(eq_prefix, range_bound))
    return best


def _locate(storage, schema: TableSchema,
            where: Optional[ast.Expr]) -> List[int]:
    """Row ids of the rows ``where`` selects, ascending."""
    table = storage.store(schema.name)
    if where is None:
        storage.counters.rows_scanned += table.row_count
        return list(range(table.row_count))
    where = _bind_to_table(where, schema)
    predicate = ExpressionCompiler().compile(where)
    access = _index_access(schema, where)
    if access is None:
        storage.counters.rows_scanned += table.row_count
        return [row_id for row_id, row in enumerate(table.scan())
                if is_true(predicate([row]))]
    index_name, bounds = access
    return [row_id for row_id in sorted(storage.index_range_row_ids(
                schema.name, index_name, *bounds))
            if is_true(predicate([table.fetch(row_id)]))]


# -- unique keys -----------------------------------------------------------------

def _check_unique(storage, schema: TableSchema, row_ids: Sequence[int],
                  old_rows: Sequence[Optional[tuple]],
                  new_rows: Sequence[tuple],
                  assigned: Optional[set] = None) -> None:
    """Raise when applying the statement would leave two rows sharing a
    non-NULL key of a unique index.

    ``old_rows[i]`` is the row ``new_rows[i]`` replaces at row id
    ``row_ids[i]`` (INSERT passes no ids and None for every old row).
    A new key may collide with nothing the statement leaves in place:
    not with another new row, not with a stored row the statement does
    not rewrite.  Rows whose key the statement does not change are never
    blamed (bulk ``db.load`` does not enforce uniqueness, so duplicates
    may pre-exist).  ``assigned`` names the column positions an UPDATE
    writes; indexes over other columns cannot change.
    """
    rewritten = set(row_ids)
    for definition in schema.indexes:
        if not definition.unique:
            continue
        index = storage.index(schema.name, definition.name)
        if assigned is not None and assigned.isdisjoint(
                schema.column_position(name)
                for name in definition.column_names):
            continue
        new_keys = [index.key_of(row) for row in new_rows]
        counts = Counter(key for key in new_keys if not has_null(key))
        for key, old in zip(new_keys, old_rows):
            if has_null(key) or (old is not None
                                 and index.key_of(old) == key):
                continue
            holders = storage.index_range_row_ids(
                schema.name, definition.name, key, key)
            if counts[key] > 1 or not rewritten.issuperset(holders):
                shown = key[0] if len(key) == 1 else key
                raise ExecutionError(
                    f"duplicate entry {shown!r} for key "
                    f"{definition.name!r} of table {schema.name!r}")


# -- statements ------------------------------------------------------------------

def execute_insert(storage, stmt: ast.InsertStmt) -> int:
    """Evaluate the VALUES rows, coerce to column types, and append."""
    schema = storage.catalog.table(stmt.table)
    if stmt.column_names is None:
        positions = list(range(len(schema.columns)))
    else:
        positions = [schema.column_position(name)
                     for name in stmt.column_names]
    listed = set(positions)
    for position, column in enumerate(schema.columns):
        if position not in listed and not column.nullable:
            raise ExecutionError(
                f"column {column.name!r} cannot be NULL "
                f"(omitted from the INSERT column list)")
    rows: List[tuple] = []
    for value_exprs in stmt.rows:
        if len(value_exprs) != len(positions):
            raise ExecutionError(
                f"INSERT row has {len(value_exprs)} values for "
                f"{len(positions)} columns")
        row: List = [None] * len(schema.columns)
        for position, expr in zip(positions, value_exprs):
            row[position] = _checked(_compile(expr, schema)([None]),
                                     schema.columns[position])
        rows.append(tuple(row))
    _check_unique(storage, schema, (), [None] * len(rows), rows)
    storage.load_rows(stmt.table, rows)
    return len(rows)


def execute_delete(storage, stmt: ast.DeleteStmt) -> int:
    """Delete rows matching WHERE; returns the number removed."""
    schema = storage.catalog.table(stmt.table)
    row_ids = _locate(storage, schema, stmt.where)
    storage.delete_rows(stmt.table, row_ids)
    return len(row_ids)


def execute_update(storage, stmt: ast.UpdateStmt) -> int:
    """Apply SET assignments to rows matching WHERE; returns rows changed."""
    schema = storage.catalog.table(stmt.table)
    compiled = [(schema.column_position(name), schema.column(name),
                 _compile(expr, schema))
                for name, expr in stmt.assignments]
    row_ids = _locate(storage, schema, stmt.where)
    fetch = storage.store(stmt.table).fetch
    old_rows = [fetch(row_id) for row_id in row_ids]
    new_rows: List[tuple] = []
    for row in old_rows:
        values = list(row)
        # Every right-hand side reads the *old* row, as SQL requires.
        for position, column, fn in compiled:
            values[position] = _checked(fn([row]), column)
        new_rows.append(tuple(values))
    _check_unique(storage, schema, row_ids, old_rows, new_rows,
                  assigned={position for position, __, __ in compiled})
    storage.update_rows(stmt.table, row_ids, new_rows)
    return len(row_ids)
