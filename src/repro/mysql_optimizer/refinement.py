"""MySQL plan refinement: skeleton plans to executable plans.

"Plan refinement, which converts a skeleton plan to an executable physical
plan, accomplishes four things: predicate placement; aggregation; row
ordering; and row limit enforcement" (Section 3).  This module is exactly
that phase, and — as in the paper — it is *oblivious of the Orca detour*:
it consumes best-position arrays regardless of which optimizer filled
them.  The single Orca-specific concession from Section 4.3 is honoured
structurally: the skeleton's hash-join decisions are always obeyed, never
overridden.

Predicate placement walks the best-position array attaching each WHERE
conjunct at the earliest position where all of its referenced tables are
bound; LEFT JOIN ON conditions drive their joins and WHERE conditions on
outer-joined tables apply after null-extension; semi-join nests close with
SEMI/ANTI joins.  Aggregation rewrites post-GROUP BY expressions onto the
aggregation pseudo-entry (the paper's SELECT (1) / SELECT (2) split from
Section 4.1), then window functions, ordering, and limits follow.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError, MySQLOptimizerError
from repro.executor.executor import Executor
from repro.executor.expression import ExpressionCompiler
from repro.executor.plan import (
    AccessMethod,
    AggregateNode,
    AggregateStrategy,
    AggSpec,
    CompiledWindow,
    CteScanNode,
    DerivedMaterializeNode,
    FilterNode,
    HashJoinNode,
    IndexLookupNode,
    IndexOrderedScanNode,
    IndexRangeScanNode,
    JoinKind,
    NestedLoopJoinNode,
    PlanNode,
    QueryPlan,
    SortNode,
    TableScanNode,
    WindowNode,
)
from repro.mysql_optimizer.skeleton import (
    AccessPlan,
    AggStrategy,
    BlockSkeleton,
    JoinMethod,
    PositionEntry,
    SkeletonPlan,
)
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    NestKind,
    QueryBlock,
    TableEntry,
)
from repro.sql.facts import expr_facts, ids_mask
from repro.sql.rewrite import expr_key


class PlanBuilder:
    """Builds an executable :class:`Executor` from a skeleton plan."""

    def __init__(self, skeleton: SkeletonPlan, catalog: Catalog,
                 storage, force_stream_agg: bool = False) -> None:
        self.skeleton = skeleton
        self.catalog = catalog
        self.context = skeleton.context
        self.executor = Executor(storage, self.context)
        self.compiler = ExpressionCompiler(self.executor)
        #: Entry masks of conjuncts, from the statement's facts table:
        #: predicate placement tests them against masks of placed and
        #: visible entries.
        self._mask = expr_facts(self.context).mask
        #: The reduced-memory retry path: every aggregate builds as
        #: STREAM (sort-then-stream) regardless of the skeleton's
        #: choice, trading the hash table's footprint for a sort whose
        #: charges the retry governor treats as spillable.
        self.force_stream_agg = force_stream_agg

    def build(self) -> Executor:
        top = self.skeleton.top_block
        plan = self.build_block_plan(top)
        self.executor.register_plan(top, plan, top=True)
        return self.executor

    # -- per-block plan construction -------------------------------------------------

    def build_block_plan(self, block: QueryBlock) -> QueryPlan:
        if self.executor.has_plan(block):
            return self.executor.plan_for(block)
        sk = self.skeleton.blocks.get(block.block_id)
        if sk is None:
            raise MySQLOptimizerError(
                f"no skeleton for block #{block.block_id}")
        pool = list(block.where_conjuncts)
        corr = block.facts.corr_mask
        root: Optional[PlanNode] = None
        if sk.positions:
            root = self._build_chain(sk.positions, pool, corr)
        if pool:
            leftovers = list(pool)
            pool.clear()
            if root is None:
                raise MySQLOptimizerError(
                    "predicates remain but the block has no tables")
            root = FilterNode(root, leftovers,
                              self._compile_filter(leftovers))
            root.cost, root.rows = sk.total_cost, sk.total_rows

        select_items = [ast.SelectItem(item.expr, item.alias)
                        for item in block.select_items]
        having = list(block.having_conjuncts)
        order_items = [ast.OrderItem(item.expr, item.descending)
                       for item in block.order_by]
        window_slots: Dict[int, int] = {}

        root, select_items, having, order_items = self._apply_aggregation(
            block, sk, root, select_items, having, order_items)
        root, select_items, order_items = self._apply_windows(
            block, root, select_items, order_items)

        if having:
            root = FilterNode(root, having, self._compile_filter(having))
            root.cost, root.rows = sk.total_cost, sk.total_rows

        if order_items and not block.set_ops and not sk.order_satisfied:
            live = self._live_entries(block)
            key_fns = [self._compile(item.expr) for item in order_items]
            root = SortNode(root, order_items, key_fns, live)
            root.cost, root.rows = sk.total_cost, sk.total_rows

        select_fns = [self._compile(item.expr) for item in select_items]
        plan = QueryPlan(block, root,
                         [item.expr for item in select_items], select_fns)
        plan.distinct = block.distinct
        plan.limit = block.limit
        plan.offset = block.offset
        plan.origin = self.skeleton.origin
        plan.total_cost = sk.total_cost
        plan.total_rows = sk.total_rows
        self.executor.register_plan(block, plan)

        for op, side in block.set_ops:
            plan.union_parts.append((op, self.build_block_plan(side)))
        if block.set_ops and order_items:
            plan.union_order = self._union_order_positions(
                select_items, order_items)
        return plan

    # -- join chain -------------------------------------------------------------------

    def _build_chain(self, positions: List[PositionEntry],
                     pool: List[ast.Expr],
                     outer_visible: int) -> PlanNode:
        node: Optional[PlanNode] = None
        placed = 0
        index = 0
        while index < len(positions):
            position = positions[index]
            if position.nest_id is not None:
                run = [position]
                index += 1
                while index < len(positions) and \
                        positions[index].nest_id == position.nest_id:
                    run.append(positions[index])
                    index += 1
                node, placed = self._join_nest(node, placed, run, pool,
                                               outer_visible)
                continue
            index += 1
            unit_ids = ids_mask(position.all_entry_ids())
            if node is None:
                node = self._build_unit(position, placed, pool,
                                        outer_visible, inner_of_nlj=True)
                placed = unit_ids
                # Conjuncts referencing only correlation sources attach to
                # the first node.
                self._attach_filter(node, self._pop_evaluable(
                    pool, placed | outer_visible))
                node.cost, node.rows = position.cost, position.fanout
                continue
            node, placed = self._join_step(node, placed, position, pool,
                                           outer_visible)
        if node is None:
            raise MySQLOptimizerError("empty best-position array")
        return node

    def _join_step(self, node: PlanNode, placed: int,
                   position: PositionEntry, pool: List[ast.Expr],
                   outer_visible: int) -> Tuple[PlanNode, int]:
        unit_ids = ids_mask(position.all_entry_ids())
        entry = (self.context.entry(position.entry_id)
                 if position.entry_id is not None else None)
        is_left = (entry is not None
                   and entry.outer_join_conjuncts is not None)
        if is_left:
            joined = self._join_left(node, placed, position, entry, pool,
                                     outer_visible)
        elif position.join_method is JoinMethod.NLJ:
            inner = self._build_unit(position, placed, pool, outer_visible,
                                     inner_of_nlj=True)
            joined = NestedLoopJoinNode(node, inner, JoinKind.INNER, [],
                                        _TRUE)
        else:
            inner = self._build_unit(position, placed, pool, outer_visible,
                                     inner_of_nlj=False)
            cross = self._pop_cross(pool, placed | outer_visible, unit_ids)
            joined = self._make_hash_join(node, inner, JoinKind.INNER,
                                          cross, placed | outer_visible,
                                          unit_ids)
        new_placed = placed | unit_ids
        # Attach anything newly evaluable that was not consumed (e.g. OR
        # predicates spanning both sides under an NLJ).
        self._attach_filter(joined, self._pop_evaluable(
            pool, new_placed | outer_visible))
        joined.cost, joined.rows = position.cost, position.fanout
        return joined, new_placed

    def _join_left(self, node: PlanNode, placed: int,
                   position: PositionEntry, entry: TableEntry,
                   pool: List[ast.Expr],
                   outer_visible: int) -> PlanNode:
        on_conjuncts = list(entry.outer_join_conjuncts or [])
        unit_ids = ids_mask(position.all_entry_ids())
        if position.join_method is JoinMethod.NLJ:
            inner = self._build_unit(position, placed, on_conjuncts,
                                     outer_visible, inner_of_nlj=True)
            condition = list(on_conjuncts)
            on_conjuncts.clear()
            joined: PlanNode = NestedLoopJoinNode(
                node, inner, JoinKind.LEFT, condition,
                self._compile_filter(condition))
        else:
            inner = self._build_unit(position, placed, on_conjuncts,
                                     outer_visible, inner_of_nlj=False)
            cross = list(on_conjuncts)
            on_conjuncts.clear()
            joined = self._make_hash_join(node, inner, JoinKind.LEFT, cross,
                                          placed | outer_visible, unit_ids)
        return joined

    def _join_nest(self, node: Optional[PlanNode], placed: int,
                   run: List[PositionEntry], pool: List[ast.Expr],
                   outer_visible: int) -> Tuple[PlanNode, int]:
        if node is None:
            raise MySQLOptimizerError(
                "a semi-join nest cannot drive a query block")
        first = run[0]
        block = self.context.entry(first.all_entry_ids()[0]).block
        nest_obj = block.nest(first.nest_id)
        kind = JoinKind.SEMI if nest_obj.kind is NestKind.SEMI \
            else JoinKind.ANTI
        unit_ids = ids_mask(eid for position in run
                            for eid in position.all_entry_ids())
        # Strip nest markers so the inner chain builds as a plain join.
        inner_positions = [_without_nest(position) for position in run]
        if first.join_method is JoinMethod.NLJ:
            # FirstMatch: inner chain sees the outer prefix, so all cross
            # conjuncts become inner-side filters and the join condition is
            # trivially true once an inner row survives.
            inner = self._build_chain(inner_positions, pool,
                                      outer_visible | placed)
            joined: PlanNode = NestedLoopJoinNode(node, inner, kind, [],
                                                  _TRUE)
        else:
            # Materialisation: inner computed standalone, cross equalities
            # become hash keys.
            inner = self._build_chain(inner_positions, pool, outer_visible)
            cross = self._pop_cross(pool, placed | outer_visible, unit_ids)
            joined = self._make_hash_join(node, inner, kind, cross,
                                          placed | outer_visible, unit_ids)
        new_placed = placed | unit_ids
        self._attach_filter(joined, self._pop_evaluable(
            pool, new_placed | outer_visible))
        joined.cost, joined.rows = first.cost, first.fanout
        return joined, new_placed

    def _make_hash_join(self, probe: PlanNode, build: PlanNode,
                        kind: JoinKind, cross: List[ast.Expr],
                        probe_side: int, build_side: int) -> HashJoinNode:
        probe_keys: List[ast.Expr] = []
        build_keys: List[ast.Expr] = []
        residual: List[ast.Expr] = []
        for conjunct in cross:
            pair = _split_equi(self._mask, conjunct, probe_side, build_side)
            if pair is not None:
                probe_keys.append(pair[0])
                build_keys.append(pair[1])
            else:
                residual.append(conjunct)
        return HashJoinNode(
            probe, build, kind,
            probe_keys, [self._compile(k) for k in probe_keys],
            build_keys, [self._compile(k) for k in build_keys],
            residual, self._compile_filter(residual))

    # -- units and leaves ---------------------------------------------------------------

    def _build_unit(self, position: PositionEntry, placed: int,
                    pool: List[ast.Expr], outer_visible: int,
                    inner_of_nlj: bool) -> PlanNode:
        visible = outer_visible | (placed if inner_of_nlj else 0)
        if position.is_branch:
            return self._build_chain(position.branch, pool, visible)
        return self._build_leaf(position, visible, pool)

    def _build_leaf(self, position: PositionEntry, visible: int,
                    pool: List[ast.Expr]) -> PlanNode:
        entry = self.context.entry(position.entry_id)
        access = position.access or AccessPlan(
            method=AccessMethod.TABLE_SCAN)
        node = self._access_node(entry, access)
        _remove_by_identity(pool, access.consumed_conjuncts)
        own = 1 << entry.entry_id
        conjuncts = self._pop_evaluable(pool, visible | own,
                                        must_touch=own)
        self._attach_filter(node, conjuncts)
        node.cost, node.rows = access.est_cost, access.est_rows
        return node

    def _access_node(self, entry: TableEntry,
                     access: AccessPlan) -> PlanNode:
        if entry.kind is EntryKind.BASE:
            table_name = entry.table_schema.name
            if access.method is AccessMethod.TABLE_SCAN:
                return TableScanNode(entry.entry_id, table_name, entry.alias)
            if access.method is AccessMethod.INDEX_RANGE:
                return IndexRangeScanNode(
                    entry.entry_id, table_name, entry.alias,
                    access.index_name, access.low, access.high,
                    access.low_inclusive, access.high_inclusive)
            if access.method is AccessMethod.INDEX_LOOKUP:
                key_fns = [self._compile(k) for k in access.key_exprs]
                return IndexLookupNode(entry.entry_id, table_name,
                                       entry.alias, access.index_name,
                                       access.key_exprs, key_fns)
            if access.method is AccessMethod.INDEX_SCAN:
                return IndexOrderedScanNode(entry.entry_id, table_name,
                                            entry.alias, access.index_name,
                                            access.descending)
            raise MySQLOptimizerError(
                f"bad access method {access.method} for base table")
        if entry.kind is EntryKind.DERIVED:
            subplan = self.build_block_plan(entry.sub_block)
            return DerivedMaterializeNode(entry.entry_id, entry.alias,
                                          subplan,
                                          list(entry.sub_block.facts.corr))
        if entry.kind is EntryKind.CTE:
            subplan = self.build_block_plan(entry.cte.block)
            return CteScanNode(entry.entry_id, entry.alias,
                               entry.cte.cte_id, entry.cte.name, subplan)
        raise MySQLOptimizerError(f"cannot build access for {entry!r}")

    # -- predicate pool helpers ------------------------------------------------------------

    def _pop_evaluable(self, pool: List[ast.Expr], visible: int,
                       must_touch: Optional[int] = None
                       ) -> List[ast.Expr]:
        taken: List[ast.Expr] = []
        remaining: List[ast.Expr] = []
        mask = self._mask
        for conjunct in pool:
            refs = mask(conjunct)
            if not refs & ~visible and \
                    (must_touch is None or refs & must_touch):
                taken.append(conjunct)
            else:
                remaining.append(conjunct)
        pool[:] = remaining
        return taken

    def _pop_cross(self, pool: List[ast.Expr], probe_side: int,
                   build_side: int) -> List[ast.Expr]:
        taken: List[ast.Expr] = []
        remaining: List[ast.Expr] = []
        visible = probe_side | build_side
        mask = self._mask
        for conjunct in pool:
            refs = mask(conjunct)
            if not refs & ~visible and refs & build_side:
                taken.append(conjunct)
            else:
                remaining.append(conjunct)
        pool[:] = remaining
        return taken

    def _attach_filter(self, node: PlanNode,
                       conjuncts: List[ast.Expr]) -> None:
        if not conjuncts:
            return
        combined = node.filter_conjuncts + conjuncts
        node.filter_conjuncts = combined
        node.filter_fn = self._compile_filter(combined)

    # -- aggregation ------------------------------------------------------------------------

    def _apply_aggregation(self, block: QueryBlock, sk: BlockSkeleton,
                           root: Optional[PlanNode],
                           select_items: List[ast.SelectItem],
                           having: List[ast.Expr],
                           order_items: List[ast.OrderItem]):
        if not block.aggregated:
            return root, select_items, having, order_items
        group_exprs = list(block.group_by)
        agg_calls = self._collect_aggregates(select_items, having,
                                             order_items, block)
        agg_entry = self.context.new_entry(EntryKind.PSEUDO, "aggregate",
                                           f"agg_{block.block_id}", block)
        block.agg_entry = agg_entry

        strategy = AggregateStrategy.STREAM \
            if (sk.agg_strategy is AggStrategy.STREAM
                or self.force_stream_agg) \
            else AggregateStrategy.HASH
        if root is not None and group_exprs and \
                strategy is AggregateStrategy.STREAM:
            sort_items = [ast.OrderItem(g) for g in group_exprs]
            key_fns = [self._compile(g) for g in group_exprs]
            root = SortNode(root, sort_items, key_fns,
                            self._live_entries(block, pre_agg=True))
            root.cost, root.rows = sk.total_cost, sk.total_rows
        specs = []
        for call in agg_calls:
            arg_fn = self._compile(call.arg) if call.arg is not None else None
            specs.append(AggSpec(call.func, arg_fn, call.distinct,
                                 call.star, arg_expr=call.arg))
        group_fns = [self._compile(g) for g in group_exprs]
        root = AggregateNode(root, group_fns, group_exprs, specs, strategy,
                             agg_entry.entry_id)
        root.cost, root.rows = sk.total_cost, sk.total_rows

        rewriter = _PostAggRewriter(group_exprs, agg_calls, agg_entry)
        new_items = [ast.SelectItem(rewriter.rewrite(item.expr), item.alias)
                     for item in select_items]
        new_having = [rewriter.rewrite(c) for c in having]
        new_order = [ast.OrderItem(rewriter.rewrite(item.expr),
                                   item.descending)
                     for item in order_items]
        return root, new_items, new_having, new_order

    def _collect_aggregates(self, select_items, having, order_items,
                            block: QueryBlock) -> List[ast.AggCall]:
        calls: List[ast.AggCall] = []
        seen = set()
        exprs: List[ast.Expr] = [item.expr for item in select_items]
        exprs.extend(having)
        exprs.extend(item.expr for item in order_items)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, ast.AggCall):
                    key = expr_key(node)
                    if key not in seen:
                        seen.add(key)
                        calls.append(node)
        return calls

    # -- windows ------------------------------------------------------------------------------

    def _apply_windows(self, block: QueryBlock, root: Optional[PlanNode],
                       select_items: List[ast.SelectItem],
                       order_items: List[ast.OrderItem]):
        window_calls: List[ast.WindowCall] = []
        for item in select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.WindowCall):
                    window_calls.append(node)
        if not window_calls:
            return root, select_items, order_items
        if root is None:
            raise MySQLOptimizerError("window functions need a FROM clause")
        window_entry = self.context.new_entry(
            EntryKind.PSEUDO, "window", f"win_{block.block_id}", block)
        block.window_entry = window_entry
        live = self._live_entries(block)
        specs: List[CompiledWindow] = []
        slot_by_id: Dict[int, int] = {}
        for call in window_calls:
            if id(call) in slot_by_id:
                continue
            slot_by_id[id(call)] = len(specs)
            specs.append(CompiledWindow(
                call.func,
                [self._compile(arg) for arg in call.args],
                [self._compile(part) for part in call.partition_by],
                [self._compile(item.expr) for item in call.order_by],
                call.order_by))
        root = WindowNode(root, specs, window_entry.entry_id, live)

        def replace(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.WindowCall):
                slot = slot_by_id[id(expr)]
                ref = ast.ColumnRef(None, f"window_{slot}",
                                    window_entry.entry_id, slot)
                return ref
            return _rebuild_with(expr, replace)

        new_items = [ast.SelectItem(replace(item.expr), item.alias)
                     for item in select_items]
        new_order = [ast.OrderItem(replace(item.expr), item.descending)
                     for item in order_items]
        return root, new_items, new_order

    # -- misc helpers -----------------------------------------------------------------------------

    def _live_entries(self, block: QueryBlock,
                      pre_agg: bool = False) -> List[int]:
        live = [entry.entry_id for entry in block.entries]
        if not pre_agg:
            if block.agg_entry is not None:
                live.append(block.agg_entry.entry_id)
            if block.window_entry is not None:
                live.append(block.window_entry.entry_id)
        return live

    def _union_order_positions(self, select_items, order_items
                               ) -> List[Tuple[int, bool]]:
        positions: List[Tuple[int, bool]] = []
        keys = [expr_key(item.expr) for item in select_items]
        for order in order_items:
            key = expr_key(order.expr)
            if key not in keys:
                raise MySQLOptimizerError(
                    "ORDER BY of a UNION must name output columns")
            positions.append((keys.index(key), order.descending))
        return positions

    def _compile(self, expr: ast.Expr) -> Callable:
        self._ensure_subplans(expr)
        return self.compiler.compile(expr)

    def _compile_filter(self, conjuncts: List[ast.Expr]) -> Callable:
        for conjunct in conjuncts:
            self._ensure_subplans(conjunct)
        return self.compiler.compile_filter(conjuncts)

    def _ensure_subplans(self, expr: ast.Expr) -> None:
        for node in expr.walk():
            sub = getattr(node, "block", None)
            if isinstance(sub, QueryBlock) and \
                    not self.executor.has_plan(sub):
                self.build_block_plan(sub)


def _TRUE(ctx) -> bool:
    return True


class _PostAggRewriter:
    """Rewrites post-aggregation expressions onto the agg pseudo-entry."""

    def __init__(self, group_exprs: List[ast.Expr],
                 agg_calls: List[ast.AggCall],
                 agg_entry: TableEntry) -> None:
        self.group_map = {expr_key(g): position
                          for position, g in enumerate(group_exprs)}
        self.agg_map = {expr_key(call): len(group_exprs) + position
                        for position, call in enumerate(agg_calls)}
        self.entry_id = agg_entry.entry_id

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        key = expr_key(expr)
        slot = self.group_map.get(key)
        if slot is None:
            slot = self.agg_map.get(key)
        if slot is not None:
            from repro.executor.explain import expr_text

            return ast.ColumnRef(None, expr_text(expr), self.entry_id, slot)
        if isinstance(expr, ast.AggCall):
            raise ExecutionError("aggregate not collected during rewriting")
        return _rebuild_with(expr, self.rewrite)


def _rebuild_with(expr: ast.Expr, fn) -> ast.Expr:
    """Rebuild one level of an expression with ``fn`` applied to children.

    Unlike :func:`repro.sql.rewrite.map_expr`, this is *top-down*: the
    caller tries to replace the whole node first and only recurses when it
    did not match (required for matching whole GROUP BY expressions).
    """
    if isinstance(expr, ast.BinaryExpr):
        return ast.BinaryExpr(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, ast.NotExpr):
        return ast.NotExpr(fn(expr.operand))
    if isinstance(expr, ast.NegExpr):
        return ast.NegExpr(fn(expr.operand))
    if isinstance(expr, ast.IsNullExpr):
        return ast.IsNullExpr(fn(expr.operand), expr.negated)
    if isinstance(expr, ast.BetweenExpr):
        return ast.BetweenExpr(fn(expr.operand), fn(expr.low),
                               fn(expr.high), expr.negated)
    if isinstance(expr, ast.LikeExpr):
        return ast.LikeExpr(fn(expr.operand), fn(expr.pattern), expr.negated)
    if isinstance(expr, ast.InListExpr):
        return ast.InListExpr(fn(expr.operand),
                              [fn(item) for item in expr.items],
                              expr.negated)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, [fn(arg) for arg in expr.args])
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr([(fn(c), fn(v)) for c, v in expr.whens],
                            fn(expr.else_value)
                            if expr.else_value is not None else None)
    if isinstance(expr, ast.WindowCall):
        return ast.WindowCall(expr.func, [fn(arg) for arg in expr.args],
                              [fn(part) for part in expr.partition_by],
                              [ast.OrderItem(fn(item.expr), item.descending)
                               for item in expr.order_by])
    if isinstance(expr, ast.GroupingCall):
        return ast.GroupingCall(fn(expr.arg))
    if isinstance(expr, ast.AggCall) and expr.arg is not None:
        return ast.AggCall(expr.func, fn(expr.arg), expr.distinct, expr.star)
    return expr


def _split_equi(mask: Callable[[ast.Expr], int], conjunct: ast.Expr,
                probe_side: int, build_side: int
                ) -> Optional[Tuple[ast.Expr, ast.Expr]]:
    """Split ``a = b`` into (probe expr, build expr) when sides separate
    (sides are entry masks; ``mask`` gives an expression's)."""
    if not (isinstance(conjunct, ast.BinaryExpr)
            and conjunct.op is ast.BinOp.EQ):
        return None
    left_refs = mask(conjunct.left)
    right_refs = mask(conjunct.right)
    if not left_refs or not right_refs:
        return None
    if not left_refs & ~probe_side and not right_refs & ~build_side:
        return conjunct.left, conjunct.right
    if not right_refs & ~probe_side and not left_refs & ~build_side:
        return conjunct.right, conjunct.left
    return None


def _without_nest(position: PositionEntry) -> PositionEntry:
    """A copy of a position entry with nest markers cleared.

    Inside the nest, entries join as plain inner joins; the semi/anti
    semantics apply only where the nest meets the outer prefix.
    """
    return PositionEntry(
        entry_id=position.entry_id,
        branch=position.branch,
        access=position.access,
        join_method=JoinMethod.NLJ,
        join_kind=JoinKind.INNER,
        nest_id=None,
        fanout=position.fanout,
        cost=position.cost,
    )


def _remove_by_identity(pool: List[ast.Expr],
                        remove: List[ast.Expr]) -> None:
    remove_ids = {id(conjunct) for conjunct in remove}
    pool[:] = [conjunct for conjunct in pool
               if id(conjunct) not in remove_ids]
