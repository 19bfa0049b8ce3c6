"""One table of derived facts per query block.

After :func:`repro.sql.prepare.prepare`, every block of a statement
carries a :class:`BlockFacts` (``block.facts``): the entry masks of its
expressions, its correlation sources and its subquery blocks.  Both
optimizers, the bridge, plan refinement and plan lowering read these
facts from the table instead of re-walking expression trees.

* **Entry masks.**  An ``int`` with bit ``i`` set when the expression
  reads entry ``i`` (entry ids are dense per statement).  A subquery
  node contributes its block's outer references, the bindings that
  matter for predicate placement.  Masks are memoised per statement,
  keyed by the expression node itself (AST nodes hash by identity); an
  expression created after prepare (an OR-factored conjunct, a
  converted derived table's comparison, a post-aggregation rewrite) is
  walked once, on its first read.
* **Correlation sources.**  The entry ids outside the block's closure
  (itself, its derived, CTE and subquery blocks and its set-operation
  sides, recursively) that its expressions read, as a sorted list
  (``corr``) and a mask (``corr_mask``): the signature of subquery
  result caching and of materialize invalidation.
* **Subquery blocks.**  ``sub_blocks``, the blocks reachable through the
  block's expressions, in walk order.

:func:`scan_expr` is the one walk behind every fact.  Prepare, which
rewrites the trees, calls it directly (:func:`subquery_blocks`, and a
scan's mask) instead of memoising.

Ownership: :func:`attach_facts` builds the table for a block tree at the
end of prepare; after prepare, Orca's ``preprocess_block`` is the only
code that rewrites a block, and it calls :func:`refresh_facts` on each
block it rewrites.  A block reached before any of that (a bare resolved
block in a test, say) builds its table on first read.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sql import ast
from repro.sql.blocks import QueryBlock, StatementContext

_SUBQUERY_NODES = frozenset({ast.ScalarSubquery, ast.InSubqueryExpr,
                             ast.ExistsExpr})


def ids_mask(entry_ids) -> int:
    """The mask of an iterable of entry ids."""
    mask = 0
    for entry_id in entry_ids:
        mask |= 1 << entry_id
    return mask


def mask_ids(mask: int) -> List[int]:
    """The entry ids of a mask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def scan_expr(expr: ast.Expr) -> Tuple[int, int, bool, List[QueryBlock]]:
    """One pre-order walk of ``expr``: ``(entry mask, mask of its own
    column references, whether it holds a subquery node, the subquery
    blocks in walk order)``.  The entry mask is the column mask with the
    subquery blocks' outer references folded in."""
    columns = 0
    outer = 0
    subquery = False
    blocks: List[QueryBlock] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.ColumnRef:
            if node.entry_id is not None:
                columns |= 1 << node.entry_id
            continue
        if node is None:
            continue
        if kind in _SUBQUERY_NODES:
            subquery = True
            block = node.block
            if isinstance(block, QueryBlock):
                blocks.append(block)
                for entry_id in block.outer_references:
                    outer |= 1 << entry_id
        children = node.children()
        if children:
            stack.extend(reversed(children))
    return columns | outer, columns, subquery, blocks


def subquery_blocks(block: QueryBlock) -> List[QueryBlock]:
    """The blocks reachable through ``block``'s expressions, in walk
    order, from a fresh scan (the table's ``sub_blocks`` is the memoised
    answer)."""
    blocks: List[QueryBlock] = []
    for expr in block.all_expressions():
        blocks.extend(scan_expr(expr)[3])
    return blocks


def contains_subquery(expr: ast.Expr) -> bool:
    """Whether ``expr`` holds a scalar, IN or EXISTS subquery node, from
    a fresh scan (for expressions outside any block's table)."""
    return scan_expr(expr)[2]


class ExprFacts:
    """The per-statement memo of expression facts, keyed by node."""

    __slots__ = ("masks", "subqueries")

    def __init__(self) -> None:
        self.masks: Dict[ast.Expr, int] = {}
        self.subqueries: Dict[ast.Expr, bool] = {}

    def fill(self, expr: ast.Expr, scanned=None
             ) -> Tuple[int, int, bool, List[QueryBlock]]:
        """Memoise ``expr``'s mask and subquery flag from one scan."""
        if scanned is None:
            scanned = scan_expr(expr)
        self.masks[expr] = scanned[0]
        self.subqueries[expr] = scanned[2]
        return scanned

    def mask(self, expr: ast.Expr) -> int:
        """The entry mask of ``expr``."""
        mask = self.masks.get(expr)
        if mask is None:
            mask = self.fill(expr)[0]
        return mask

    def has_subquery(self, expr: ast.Expr) -> bool:
        """Whether ``expr`` holds a scalar, IN or EXISTS subquery node."""
        flag = self.subqueries.get(expr)
        if flag is None:
            flag = self.fill(expr)[2]
        return flag


class BlockFacts:
    """The derived facts of one query block (see the module docstring).

    ``mask(expr)`` and ``has_subquery(expr)`` read the statement's
    expression memo, which every block of the statement shares."""

    __slots__ = ("block", "corr", "corr_mask", "sub_blocks", "refs_closure",
                 "local_closure", "mask", "has_subquery")

    def __init__(self, block: QueryBlock, refs_closure: int,
                 local_closure: int, sub_blocks: List[QueryBlock]) -> None:
        self.block = block
        #: Entries read by columns / owned anywhere in the block's
        #: closure: itself, its derived, CTE and subquery blocks and its
        #: set-operation sides, recursively.
        self.refs_closure = refs_closure
        self.local_closure = local_closure
        self.corr_mask = refs_closure & ~local_closure
        self.corr = mask_ids(self.corr_mask)
        self.sub_blocks = sub_blocks
        exprs = expr_facts(block.context)
        self.mask = exprs.mask
        self.has_subquery = exprs.has_subquery


def expr_facts(context: StatementContext) -> ExprFacts:
    """The statement's expression memo."""
    if context.expr_facts is None:
        context.expr_facts = ExprFacts()
    return context.expr_facts


def attach_facts(top: QueryBlock, fresh: bool = False) -> None:
    """Build the facts of ``top`` and of every block in its closure,
    children first, each block once.  With ``fresh``, the statement's
    expression memo starts empty: prepare rewrote the trees, so nothing
    memoised before it may be reused."""
    if fresh:
        top.context.expr_facts = ExprFacts()
    built: Dict[int, BlockFacts] = {}

    def facts_of(block: QueryBlock) -> BlockFacts:
        facts = built.get(block.block_id)
        if facts is None:
            facts = built[block.block_id] = _build(block, facts_of)
        return facts

    facts_of(top)


def refresh_facts(block: QueryBlock) -> None:
    """Rebuild ``block``'s facts after a rewrite of its expressions or
    entries; its children keep theirs."""
    _build(block, lambda child: child.facts)


def _build(block: QueryBlock, facts_of) -> BlockFacts:
    """Scan ``block``'s own expressions once and combine the closures
    of its children (``facts_of(child)`` gives each one's)."""
    exprs = expr_facts(block.context)
    masks = exprs.masks
    refs = 0
    sub_blocks: List[QueryBlock] = []
    for expr in block.all_expressions():
        scanned = scan_expr(expr)
        if expr not in masks:
            exprs.fill(expr, scanned)
        refs |= scanned[1]
        sub_blocks.extend(scanned[3])
    local = 0
    for entry in block.entries:
        local |= 1 << entry.entry_id
    if block.agg_entry is not None:
        local |= 1 << block.agg_entry.entry_id
    if block.window_entry is not None:
        local |= 1 << block.window_entry.entry_id
    children = [entry.sub_block for entry in block.entries
                if entry.sub_block is not None]
    children.extend(binding.block for binding in block.cte_bindings)
    children.extend(sub_blocks)
    children.extend(side for __, side in block.set_ops)
    for child in children:
        child_facts = facts_of(child)
        refs |= child_facts.refs_closure
        local |= child_facts.local_closure
    facts = BlockFacts(block, refs, local, sub_blocks)
    block._facts = facts
    return facts
