"""Orca preprocessing rewrites applied before the Cascades search.

Three rewrites the paper credits for Orca's wins, none of which the MySQL
optimizer performs:

* **OR factorization** (Section 7, lesson 4; the Q41 analysis in
  Section 6.2): ``(a = b AND x) OR (a = b AND y)`` becomes
  ``(a = b) AND (x OR y)``, which exposes hash-join keys and halves
  redundant predicate evaluation.

* **Correlated-scalar-subquery conversion to derived tables**
  (Section 4.2.3's first special case, and the apply/join swap rules of
  Section 7 item 1): a ``col < (SELECT agg(...) FROM t WHERE t.k =
  outer.k)`` conjunct becomes a derived table placed in the join order and
  materialised per outer row — the paper's Listing 7 plan, with its
  ``derived_1_2`` temporary and "invalidate on row from part" annotation.

* **CTE predicate pushdown** (Section 7, lesson 3): filters that different
  consumers apply to the same CTE are OR-ed together and pushed into the
  single producer, shrinking the materialisation.  This was functionality
  that "had to be added to MySQL" for the integration.

Rewrites *mutate* the resolved blocks; the MySQL plan refinement that later
consumes the Orca skeleton sees the rewritten predicates, mirroring how
the integration broadened MySQL's factorization scope.  These rewrites
are the only block mutations after prepare, so each rewritten block's
facts table (:mod:`repro.sql.facts`) is refreshed here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    OutputColumn,
    QueryBlock,
    TableEntry,
)
from repro.sql.facts import ids_mask, refresh_facts
from repro.sql.rewrite import expr_key, substitute_entry_columns


def preprocess_block(block: QueryBlock, enable_or_factorization: bool = True,
                     enable_derived_subqueries: bool = True) -> None:
    """Apply Orca preprocessing to one block tree (bottom-up, mutating)."""
    for sub in _sub_blocks(block):
        preprocess_block(sub, enable_or_factorization,
                         enable_derived_subqueries)
    rewritten = 0
    if enable_or_factorization:
        rewritten += factor_or_predicates(block)
    if enable_derived_subqueries:
        rewritten += convert_scalar_subqueries_to_derived(block)
    if rewritten:
        refresh_facts(block)


def _sub_blocks(block: QueryBlock) -> List[QueryBlock]:
    subs: List[QueryBlock] = []
    for binding in block.cte_bindings:
        subs.append(binding.block)
    for entry in block.entries:
        if entry.sub_block is not None:
            subs.append(entry.sub_block)
    subs.extend(block.facts.sub_blocks)
    for __, side in block.set_ops:
        subs.append(side)
    return subs


# ---------------------------------------------------------------------------
# OR factorization
# ---------------------------------------------------------------------------

def factor_or_predicates(block: QueryBlock) -> int:
    """Factor common conjuncts out of OR predicates in the WHERE pool.

    Returns the number of predicates factored (used by tests and the
    ablation bench).
    """
    factored = 0
    new_pool: List[ast.Expr] = []
    for conjunct in block.where_conjuncts:
        pieces = factor_one_or(conjunct)
        if pieces is None:
            new_pool.append(conjunct)
        else:
            factored += 1
            new_pool.extend(pieces)
    block.where_conjuncts = new_pool
    return factored


def factor_one_or(conjunct: ast.Expr) -> Optional[List[ast.Expr]]:
    """Factor one OR predicate; None when nothing can be factored."""
    disjuncts = ast.disjuncts_of(conjunct)
    if len(disjuncts) < 2:
        return None
    conjunct_lists = [ast.conjuncts_of(d) for d in disjuncts]
    first_by_key = {}
    for piece in conjunct_lists[0]:
        first_by_key.setdefault(expr_key(piece), piece)
    common_keys = set(first_by_key)
    for pieces in conjunct_lists[1:]:
        common_keys &= {expr_key(piece) for piece in pieces}
    if not common_keys:
        return None
    # Preserve the original left-to-right order of the common factors.
    common = [piece for piece in conjunct_lists[0]
              if expr_key(piece) in common_keys]
    common_once = []
    seen = set()
    for piece in common:
        key = expr_key(piece)
        if key not in seen:
            seen.add(key)
            common_once.append(piece)
    remainders = []
    for pieces in conjunct_lists:
        rest = [piece for piece in pieces
                if expr_key(piece) not in common_keys]
        remainder = ast.make_conjunction(rest)
        if remainder is None:
            # (common AND x) OR common  ==  common
            return common_once
        remainders.append(remainder)
    return common_once + [ast.make_disjunction(remainders)]


# ---------------------------------------------------------------------------
# Scalar subquery -> derived table (the Q17 path)
# ---------------------------------------------------------------------------

def convert_scalar_subqueries_to_derived(block: QueryBlock) -> int:
    """Convert comparable scalar subqueries into derived-table joins.

    Only *top-level comparison conjuncts* are converted; subqueries inside
    CASE expressions stay as subqueries — the converter override of
    Section 4.2.3 (TPC-DS Q9) that avoids redundant bucket evaluation.

    The derived table keeps its correlation; the join order will place it
    after its sources and the executor re-materialises it per outer row
    ("invalidate on row from ..."), matching Listing 7.
    """
    converted = 0
    new_pool: List[ast.Expr] = []
    for conjunct in block.where_conjuncts:
        replacement = _convert_one(block, conjunct)
        if replacement is None:
            new_pool.append(conjunct)
        else:
            converted += 1
            new_pool.extend(replacement)
    block.where_conjuncts = new_pool
    return converted


def _convert_one(block: QueryBlock,
                 conjunct: ast.Expr) -> Optional[List[ast.Expr]]:
    if not (isinstance(conjunct, ast.BinaryExpr)
            and conjunct.op in ast.COMPARISON_OPS):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(left, ast.ScalarSubquery) and \
            not isinstance(right, ast.ScalarSubquery):
        left, right = right, left
        op = ast.COMMUTED_COMPARISON[op]
    if not isinstance(right, ast.ScalarSubquery):
        return None
    if any(isinstance(node, ast.ScalarSubquery) for node in left.walk()):
        return None
    sub = right.block
    if not isinstance(sub, QueryBlock) or not _convertible(sub):
        return None
    if _reads_semijoin_nest(block, left, sub):
        return None

    context = block.context
    alias = f"derived_{block.block_id}_{sub.block_id}"
    entry = context.new_entry(EntryKind.DERIVED, alias, alias, block)
    entry.sub_block = sub
    columns = sub.output_columns()
    # MySQL names the materialised column Name_exp_1 (paper Listing 7).
    entry.set_columns([OutputColumn(f"Name_exp_{i + 1}", col.type, True)
                       for i, col in enumerate(columns)])
    block.entries.append(entry)
    value_ref = ast.ColumnRef(alias, "Name_exp_1", entry.entry_id, 0)
    value_ref.resolved_type = columns[0].type
    return [ast.BinaryExpr(op, left, value_ref)]


def _reads_semijoin_nest(block: QueryBlock, left: ast.Expr,
                         sub: QueryBlock) -> bool:
    """Whether the comparison reads an entry of one of ``block``'s
    semi-join nests.  Such a conjunct came out of an EXISTS / IN body
    and must be evaluated per nest row, inside the semi-join; a derived
    table would leave the nest and be joined above it."""
    nested = ids_mask(entry for nest in block.semijoin_nests
                      for entry in nest.entry_ids)
    return bool(nested & (block.facts.mask(left) | sub.facts.corr_mask))


def _convertible(sub: QueryBlock) -> bool:
    """A scalar subquery convertible to a (correlated) derived table."""
    return (len(sub.select_items) == 1
            and sub.aggregated
            and not sub.group_by
            and not sub.set_ops
            and not sub.windows
            and sub.limit is None
            and bool(sub.entries))


# ---------------------------------------------------------------------------
# CTE predicate pushdown
# ---------------------------------------------------------------------------

def push_cte_predicates(block: QueryBlock) -> int:
    """OR consumer-side filters together and push them into CTE producers.

    Example from the paper: consumers filtering ``a = 5`` and ``a = 6``
    cause ``a = 5 OR a = 6`` to be pushed into the producer.  The original
    consumer filters stay in place (they still apply per consumer); the
    pushed OR just shrinks the shared materialisation.  Returns the number
    of producers that received a pushed predicate.
    """
    pushed = 0
    for binding in _all_bindings(block):
        consumers = _consumers_of(binding, block)
        if not consumers:
            continue
        per_consumer: List[ast.Expr] = []
        for consumer in consumers:
            conjuncts = _pushable_conjuncts(consumer, binding)
            if not conjuncts:
                per_consumer = []
                break
            per_consumer.append(_materialise(conjuncts, consumer, binding))
        if not per_consumer:
            continue
        combined = ast.make_disjunction(per_consumer)
        binding.block.where_conjuncts.append(combined)
        refresh_facts(binding.block)
        pushed += 1
    return pushed


def _all_bindings(block: QueryBlock):
    bindings = []
    stack = [block]
    seen = set()
    while stack:
        current = stack.pop()
        if current.block_id in seen:
            continue
        seen.add(current.block_id)
        bindings.extend(current.cte_bindings)
        stack.extend(_sub_blocks(current))
    return bindings


def _consumers_of(binding, block: QueryBlock) -> List[TableEntry]:
    consumers: List[TableEntry] = []
    stack = [block]
    seen = set()
    while stack:
        current = stack.pop()
        if current.block_id in seen:
            continue
        seen.add(current.block_id)
        for entry in current.entries:
            if entry.kind is EntryKind.CTE and entry.cte is binding:
                consumers.append(entry)
        stack.extend(_sub_blocks(current))
    return consumers


def _pushable_conjuncts(consumer: TableEntry, binding) -> List[ast.Expr]:
    producer = binding.block
    facts = consumer.block.facts
    target = 1 << consumer.entry_id
    aggregated = producer.aggregated
    group_keys = {expr_key(g) for g in producer.group_by}
    result: List[ast.Expr] = []
    if producer.limit is not None or producer.windows or producer.set_ops:
        return []
    for conjunct in consumer.block.where_conjuncts:
        if facts.mask(conjunct) != target or facts.has_subquery(conjunct):
            continue
        if aggregated:
            positions = [node.position for node in conjunct.walk()
                         if isinstance(node, ast.ColumnRef)
                         and node.entry_id == consumer.entry_id]
            mapped = [producer.select_items[p].expr for p in positions]
            if not all(expr_key(m) in group_keys for m in mapped):
                continue
        result.append(conjunct)
    return result


def _materialise(conjuncts: List[ast.Expr], consumer: TableEntry,
                 binding) -> ast.Expr:
    producer = binding.block
    replacements = [item.expr for item in producer.select_items]
    rewritten = [substitute_entry_columns(c, consumer.entry_id, replacements)
                 for c in conjuncts]
    return ast.make_conjunction(rewritten)
