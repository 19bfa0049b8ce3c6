"""Name resolution: parse trees to resolved query blocks.

The resolver performs what MySQL's Parser/Resolver layers do (Section 2.2):
it binds every column reference to a table-list entry, expands ``*``,
resolves select aliases in GROUP BY / HAVING / ORDER BY, builds the
table-list entries with back-pointers to their containing block, and
resolves subqueries and CTEs into sub-blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import ResolutionError, UnsupportedSqlError
from repro.mysql_types import TypeInstance
from repro.sql import ast
from repro.sql.blocks import (
    CteBinding,
    EntryKind,
    OutputColumn,
    QueryBlock,
    StatementContext,
    TableEntry,
    WindowSpec,
)


class _Scope:
    """Visible table entries during resolution, linked to outer scopes."""

    def __init__(self, block: QueryBlock,
                 parent: Optional["_Scope"] = None) -> None:
        self.block = block
        self.parent = parent
        self._by_alias: Dict[str, TableEntry] = {}

    def add(self, entry: TableEntry) -> None:
        key = entry.alias.lower()
        if key in self._by_alias:
            raise ResolutionError(f"duplicate table alias {entry.alias!r}")
        self._by_alias[key] = entry

    def entries(self) -> List[TableEntry]:
        return list(self._by_alias.values())

    def find(self, table: Optional[str], column: str
             ) -> Tuple[TableEntry, int, bool]:
        """Locate a column; returns (entry, position, is_outer_reference)."""
        scope: Optional[_Scope] = self
        outer = False
        while scope is not None:
            found = scope._find_local(table, column)
            if found is not None:
                return found[0], found[1], outer
            scope = scope.parent
            outer = True
        where = f"{table}.{column}" if table else column
        raise ResolutionError(f"unknown column {where!r}")

    def _find_local(self, table: Optional[str], column: str
                    ) -> Optional[Tuple[TableEntry, int]]:
        if table is not None:
            entry = self._by_alias.get(table.lower())
            if entry is None:
                return None
            position = entry.column_position(column)
            if position is None:
                raise ResolutionError(
                    f"unknown column {column!r} in table {entry.alias!r}")
            return entry, position
        matches: List[Tuple[TableEntry, int]] = []
        for entry in self._by_alias.values():
            position = entry.column_position(column)
            if position is not None:
                matches.append((entry, position))
        if not matches:
            return None
        if len(matches) > 1:
            raise ResolutionError(f"ambiguous column {column!r}")
        return matches[0]


class Resolver:
    """Resolves a parsed statement against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def resolve(self, stmt: ast.SelectStmt
                ) -> Tuple[QueryBlock, StatementContext]:
        """Resolve a statement; returns (top block, statement context)."""
        context = StatementContext()
        block = self._resolve_stmt(stmt, context, parent_scope=None,
                                   cte_env={})
        return block, context

    # -- statements ------------------------------------------------------------

    def _resolve_stmt(self, stmt: ast.SelectStmt, context: StatementContext,
                      parent_scope: Optional[_Scope],
                      cte_env: Dict[str, CteBinding]) -> QueryBlock:
        block = context.new_block()
        if parent_scope is not None:
            block.parent = parent_scope.block

        visible_ctes = dict(cte_env)
        for cte in stmt.ctes:
            binding = self._resolve_cte(cte, context, visible_ctes)
            visible_ctes[cte.name.lower()] = binding
            block.cte_bindings.append(binding)

        scope = _Scope(block, parent_scope)
        for table_ref in stmt.from_tables:
            self._add_table_ref(table_ref, block, scope, visible_ctes)

        if stmt.where is not None:
            where = self._resolve_expr(stmt.where, scope, context,
                                       visible_ctes)
            # Extend, not assign: inner-join ON conditions were already
            # pooled here while resolving the FROM clause.
            block.where_conjuncts.extend(ast.conjuncts_of(where))

        block.select_items = self._resolve_select_items(
            stmt.items, scope, context, visible_ctes)

        alias_map = {item.alias.lower(): item.expr
                     for item in block.select_items if item.alias}

        for expr in stmt.group_by:
            block.group_by.append(self._resolve_expr(
                expr, scope, context, visible_ctes, alias_map=alias_map))
        if stmt.having is not None:
            having = self._resolve_expr(stmt.having, scope, context,
                                        visible_ctes, alias_map=alias_map)
            block.having_conjuncts = ast.conjuncts_of(having)
        for order in stmt.order_by:
            resolved = self._resolve_expr(order.expr, scope, context,
                                          visible_ctes, alias_map=alias_map,
                                          prefer_alias=True)
            block.order_by.append(ast.OrderItem(resolved, order.descending))

        block.limit = stmt.limit
        block.offset = stmt.offset
        block.distinct = stmt.distinct

        for op, side in stmt.set_ops:
            side_block = self._resolve_stmt(side, context, parent_scope=None,
                                            cte_env=visible_ctes)
            if len(side_block.select_items) != len(block.select_items):
                raise ResolutionError(
                    "UNION sides must have the same number of columns")
            block.set_ops.append((op, side_block))

        self._collect_windows(block)
        return block

    def _resolve_cte(self, cte: ast.CteDef, context: StatementContext,
                     cte_env: Dict[str, CteBinding]) -> CteBinding:
        sub_block = self._resolve_stmt(cte.subquery, context,
                                       parent_scope=None, cte_env=cte_env)
        columns = sub_block.output_columns()
        if cte.column_names is not None:
            if len(cte.column_names) != len(columns):
                raise ResolutionError(
                    f"CTE {cte.name!r} column list does not match its query")
            columns = [OutputColumn(name, column.type, column.nullable)
                       for name, column in zip(cte.column_names, columns)]
        return CteBinding(context.new_cte_id(), cte.name, sub_block, columns)

    # -- FROM clause ------------------------------------------------------------

    def _add_table_ref(self, ref: ast.TableRef, block: QueryBlock,
                       scope: _Scope, cte_env: Dict[str, CteBinding],
                       outer_joined: bool = False) -> TableEntry:
        if isinstance(ref, ast.BaseTableRef):
            return self._add_base_table(ref, block, scope, cte_env,
                                        outer_joined)
        if isinstance(ref, ast.DerivedTableRef):
            return self._add_derived_table(ref, block, scope, cte_env,
                                           outer_joined)
        if isinstance(ref, ast.JoinRef):
            return self._add_join(ref, block, scope, cte_env)
        raise ResolutionError(f"unsupported FROM item {ref!r}")

    def _add_base_table(self, ref: ast.BaseTableRef, block: QueryBlock,
                        scope: _Scope, cte_env: Dict[str, CteBinding],
                        outer_joined: bool) -> TableEntry:
        binding = cte_env.get(ref.name.lower())
        if binding is not None:
            entry = block.context.new_entry(EntryKind.CTE, binding.name,
                                            ref.effective_alias, block)
            entry.cte = binding
            entry.sub_block = binding.block
            entry.set_columns([
                OutputColumn(col.name, col.type, True if outer_joined
                             else col.nullable)
                for col in binding.columns])
        else:
            schema = self.catalog.table(ref.name)
            entry = block.context.new_entry(EntryKind.BASE, schema.name,
                                            ref.effective_alias, block)
            entry.table_schema = schema
            entry.set_columns([
                OutputColumn(column.name, column.type,
                             True if outer_joined else column.nullable)
                for column in schema.columns])
        block.entries.append(entry)
        scope.add(entry)
        return entry

    def _add_derived_table(self, ref: ast.DerivedTableRef, block: QueryBlock,
                           scope: _Scope, cte_env: Dict[str, CteBinding],
                           outer_joined: bool) -> TableEntry:
        sub_block = self._resolve_stmt(ref.subquery, block.context,
                                       parent_scope=None, cte_env=cte_env)
        entry = block.context.new_entry(EntryKind.DERIVED, ref.alias,
                                        ref.alias, block)
        entry.sub_block = sub_block
        columns = sub_block.output_columns()
        if ref.column_names is not None:
            if len(ref.column_names) != len(columns):
                raise ResolutionError(
                    f"derived table {ref.alias!r} column list mismatch")
            columns = [OutputColumn(name, column.type, column.nullable)
                       for name, column in zip(ref.column_names, columns)]
        if outer_joined:
            columns = [OutputColumn(c.name, c.type, True) for c in columns]
        entry.set_columns(columns)
        block.entries.append(entry)
        scope.add(entry)
        return entry

    def _add_join(self, ref: ast.JoinRef, block: QueryBlock, scope: _Scope,
                  cte_env: Dict[str, CteBinding]) -> TableEntry:
        self._add_table_ref(ref.left, block, scope, cte_env)
        if ref.join_type is ast.JoinType.LEFT:
            if isinstance(ref.right, ast.JoinRef):
                raise UnsupportedSqlError(
                    "LEFT JOIN with a join nest on the inner side "
                    "is not supported")
            entry = self._add_table_ref(ref.right, block, scope, cte_env,
                                        outer_joined=True)
            condition = self._resolve_expr(ref.condition, scope,
                                           block.context, cte_env)
            entry.outer_join_conjuncts = ast.conjuncts_of(condition)
            return entry
        entry = self._add_table_ref(ref.right, block, scope, cte_env)
        if ref.condition is not None:
            condition = self._resolve_expr(ref.condition, scope,
                                           block.context, cte_env)
            # MySQL pools inner-join ON conditions into the WHERE clause
            # during prepare (visible in the paper's Listing 3).
            block.where_conjuncts.extend(ast.conjuncts_of(condition))
        return entry

    # -- select items -------------------------------------------------------------

    def _resolve_select_items(self, items: List[ast.SelectItem],
                              scope: _Scope, context: StatementContext,
                              cte_env: Dict[str, CteBinding]
                              ) -> List[ast.SelectItem]:
        resolved: List[ast.SelectItem] = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                resolved.extend(self._expand_star(item.expr, scope))
                continue
            expr = self._resolve_expr(item.expr, scope, context, cte_env)
            resolved.append(ast.SelectItem(expr, item.alias))
        return resolved

    def _expand_star(self, star: ast.Star,
                     scope: _Scope) -> List[ast.SelectItem]:
        entries = scope.entries()
        if star.table is not None:
            entries = [entry for entry in entries
                       if entry.alias.lower() == star.table.lower()]
            if not entries:
                raise ResolutionError(f"unknown table {star.table!r} in *")
        items: List[ast.SelectItem] = []
        for entry in entries:
            for position, column in enumerate(entry.columns):
                ref = ast.ColumnRef(entry.alias, column.name,
                                    entry.entry_id, position)
                ref.resolved_type = column.type
                if entry.kind is EntryKind.BASE:
                    ref.declared_type = column.type
                items.append(ast.SelectItem(ref, None))
        return items

    # -- expressions ----------------------------------------------------------------

    def _resolve_expr(self, expr: ast.Expr, scope: _Scope,
                      context: StatementContext,
                      cte_env: Dict[str, CteBinding],
                      alias_map: Optional[Dict[str, ast.Expr]] = None,
                      prefer_alias: bool = False) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, scope, alias_map, prefer_alias)
        if isinstance(expr, ast.ScalarSubquery):
            expr.block = self._resolve_stmt(expr.subquery, context,
                                            parent_scope=scope,
                                            cte_env=cte_env)
            return expr
        if isinstance(expr, ast.InSubqueryExpr):
            expr.operand = self._resolve_expr(expr.operand, scope, context,
                                              cte_env, alias_map)
            expr.block = self._resolve_stmt(expr.subquery, context,
                                            parent_scope=scope,
                                            cte_env=cte_env)
            return expr
        if isinstance(expr, ast.ExistsExpr):
            expr.block = self._resolve_stmt(expr.subquery, context,
                                            parent_scope=scope,
                                            cte_env=cte_env)
            return expr
        # Generic recursion over child expressions, rebuilding in place.
        self._resolve_children(expr, scope, context, cte_env, alias_map)
        return expr

    def _resolve_children(self, expr: ast.Expr, scope: _Scope,
                          context: StatementContext,
                          cte_env: Dict[str, CteBinding],
                          alias_map: Optional[Dict[str, ast.Expr]]) -> None:
        def fix(child: ast.Expr) -> ast.Expr:
            return self._resolve_expr(child, scope, context, cte_env,
                                      alias_map)

        if isinstance(expr, ast.BinaryExpr):
            expr.left = fix(expr.left)
            expr.right = fix(expr.right)
        elif isinstance(expr, (ast.NotExpr, ast.NegExpr)):
            expr.operand = fix(expr.operand)
        elif isinstance(expr, ast.IsNullExpr):
            expr.operand = fix(expr.operand)
        elif isinstance(expr, ast.BetweenExpr):
            expr.operand = fix(expr.operand)
            expr.low = fix(expr.low)
            expr.high = fix(expr.high)
        elif isinstance(expr, ast.LikeExpr):
            expr.operand = fix(expr.operand)
            expr.pattern = fix(expr.pattern)
        elif isinstance(expr, ast.InListExpr):
            expr.operand = fix(expr.operand)
            expr.items = [fix(item) for item in expr.items]
        elif isinstance(expr, ast.FuncCall):
            expr.args = [fix(arg) for arg in expr.args]
        elif isinstance(expr, ast.AggCall):
            if expr.arg is not None:
                expr.arg = fix(expr.arg)
        elif isinstance(expr, ast.CaseExpr):
            expr.whens = [(fix(cond), fix(val)) for cond, val in expr.whens]
            if expr.else_value is not None:
                expr.else_value = fix(expr.else_value)
        elif isinstance(expr, ast.WindowCall):
            expr.args = [fix(arg) for arg in expr.args]
            expr.partition_by = [fix(part) for part in expr.partition_by]
            expr.order_by = [ast.OrderItem(fix(order.expr), order.descending)
                             for order in expr.order_by]
        elif isinstance(expr, ast.GroupingCall):
            expr.arg = fix(expr.arg)

    def _resolve_column(self, ref: ast.ColumnRef, scope: _Scope,
                        alias_map: Optional[Dict[str, ast.Expr]],
                        prefer_alias: bool) -> ast.Expr:
        if ref.entry_id is not None:
            return ref  # already resolved (shared alias expression)
        key = ref.column.lower()
        if prefer_alias and alias_map and ref.table is None \
                and key in alias_map:
            return alias_map[key]
        try:
            entry, position, outer = scope.find(ref.table, ref.column)
        except ResolutionError:
            if alias_map and ref.table is None and key in alias_map:
                return alias_map[key]
            raise
        ref.entry_id = entry.entry_id
        ref.position = position
        ref.resolved_type = entry.columns[position].type
        ref.resolved_nullable = entry.columns[position].nullable
        if entry.kind is EntryKind.BASE:
            # A base table's schema type is what its stored values are
            # (DML coerces to it); a derived or CTE column's type above
            # is only inferred.  The executor specialises arithmetic on
            # the declared one (expression.statically_numeric).
            ref.declared_type = entry.columns[position].type
        if outer:
            block = scope.block
            if entry.entry_id not in block.outer_references:
                block.outer_references.append(entry.entry_id)
        return ref

    # -- windows ----------------------------------------------------------------------

    def _collect_windows(self, block: QueryBlock) -> None:
        slot = 0
        for item in block.select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.WindowCall):
                    block.windows.append(WindowSpec(node, slot))
                    slot += 1
