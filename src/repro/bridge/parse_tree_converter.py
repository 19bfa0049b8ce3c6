"""MySQL parse tree -> Orca logical operator tree (Section 4.1).

Converts one *prepared* query block into an :class:`OrcaLogicalBlock`.
The conversion is clause-wise, in the order the paper lists:

    FROM; WHERE (1); window functions (1); WHERE (2); SELECT (1);
    GROUP BY; SELECT (2); HAVING; window functions (2); ORDER BY;
    SELECT (3); LIMIT

Here: ``FROM`` produces the join units; ``WHERE (1)`` performs *predicate
segregation* — the crucial step the paper motivates with TPC-H Q4
(Listings 2-4): conjuncts local to one table attach to its LogicalGet so
Orca's pipeline benefits from selection pushdown, conjuncts bridging
tables go to the join operators, and the remainder becomes a residual
selection (``WHERE (2)``).  GROUP BY / HAVING / ORDER BY / LIMIT fill the
agg and limit operators; the SELECT splits (1)/(2)/(3) surface during plan
refinement as the pre-/post-aggregation expression rewrite.

While converting, table descriptors are embellished with OIDs from the
metadata provider (through the MD accessor), and comparison / arithmetic
expressions get their expression OIDs — including commutator and inverse
OIDs where they exist, as in the Section 5.7 trace for
``p_container = 'SM_PKG'``.  Each descriptor also carries its TABLE_LIST
entry pointer for the plan converter's reverse mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bridge.oid_layout import INVALID_OID
from repro.errors import OrcaFallbackError
from repro.orca.mdcache import MDAccessor
from repro.orca.operators import (
    LogicalGbAgg,
    LogicalGet,
    LogicalLimit,
    LogicalNAryJoin,
    LogicalOuterJoinSpec,
    LogicalSelect,
    LogicalSemiJoinSpec,
    OrcaLogicalBlock,
    TableDescriptor,
)
from repro.sql import ast
from repro.sql.blocks import (
    EntryKind,
    QueryBlock,
    TableEntry,
)
from repro.sql.facts import ids_mask
from repro.sql.rewrite import expr_key


class ParseTreeConverter:
    """Converts prepared MySQL query blocks to Orca logical blocks."""

    def __init__(self, accessor: MDAccessor, fault_injector=None,
                 tracer=None) -> None:
        self.accessor = accessor
        self.fault_injector = fault_injector
        if tracer is None:
            from repro.observability import NOOP_TRACER
            tracer = NOOP_TRACER
        self.tracer = tracer
        #: Expression OIDs assigned during conversion, keyed by structural
        #: expression key: (oid, commutator oid, inverse oid).
        self.expression_oids: Dict[tuple, Tuple[int, int, int]] = {}

    def convert_block(self, block: QueryBlock) -> OrcaLogicalBlock:
        with self.tracer.span("parse_tree_convert",
                              block_id=block.block_id) as span:
            logical = self._convert_block(block)
            span.set(units=len(logical.core.units))
            return logical

    def _convert_block(self, block: QueryBlock) -> OrcaLogicalBlock:
        if self.fault_injector is not None:
            self.fault_injector.fire("parse_tree_converter")
        facts = block.facts
        corr = facts.corr_mask
        local = ids_mask(entry.entry_id for entry in block.entries)

        # --- FROM: build units and classify entries --------------------------
        # Sets of entries are entry masks, tested against each
        # conjunct's mask from the block's facts table.
        core_units: List[LogicalGet] = []
        unit_by_entry: Dict[int, LogicalGet] = {}
        outer_specs: List[LogicalOuterJoinSpec] = []
        nest_specs: Dict[int, LogicalSemiJoinSpec] = {}
        dependent_units: List[LogicalGet] = []
        left_entries = 0
        dependent_entries = 0
        core_entries = 0

        for entry in block.entries:
            unit = LogicalGet(self._descriptor(entry))
            unit_by_entry[entry.entry_id] = unit
            if entry.semijoin_nest is not None:
                nest = block.nest(entry.semijoin_nest)
                spec = nest_specs.get(nest.nest_id)
                if spec is None:
                    spec = LogicalSemiJoinSpec(nest.kind, nest.nest_id,
                                               [], [])
                    nest_specs[nest.nest_id] = spec
                spec.inners.append(unit)
            elif entry.outer_join_conjuncts is not None:
                spec = LogicalOuterJoinSpec(unit, [])
                for conjunct in entry.outer_join_conjuncts:
                    self._annotate(conjunct)
                    if facts.mask(conjunct) & ~corr \
                            == 1 << entry.entry_id:
                        unit.conjuncts.append(conjunct)
                    else:
                        spec.on_conjuncts.append(conjunct)
                outer_specs.append(spec)
                left_entries |= 1 << entry.entry_id
            elif entry.kind is EntryKind.DERIVED \
                    and entry.sub_block is not None \
                    and entry.sub_block.facts.corr_mask & local:
                # A derived table correlated to this block's own entries.
                dependent_units.append(unit)
                dependent_entries |= 1 << entry.entry_id
            else:
                core_units.append(unit)
                core_entries |= 1 << entry.entry_id

        # --- WHERE (1): predicate segregation ----------------------------------
        core_conjuncts: List[ast.Expr] = []
        residual: List[ast.Expr] = []
        dependent_conjuncts: List[ast.Expr] = []
        nest_masks = [(nest.nest_id, ids_mask(nest.entry_ids))
                      for nest in block.semijoin_nests]
        for conjunct in block.where_conjuncts:
            self._annotate(conjunct)
            bare = facts.mask(conjunct) & ~corr
            single = bare and not bare & (bare - 1)
            nest_hit = next((nest_id for nest_id, mask in nest_masks
                             if bare & mask), None)
            if nest_hit is not None:
                spec = nest_specs.get(nest_hit)
                if spec is not None:
                    inner_ids = ids_mask(unit.descriptor.entry.entry_id
                                         for unit in spec.inners)
                    if single and bare & inner_ids \
                            and not facts.has_subquery(conjunct):
                        unit_by_entry[bare.bit_length() - 1] \
                            .conjuncts.append(conjunct)
                    else:
                        spec.conjuncts.append(conjunct)
                    continue
            if bare & dependent_entries:
                dependent_conjuncts.append(conjunct)
                continue
            if bare & left_entries:
                # WHERE conditions on outer-joined tables apply after
                # null-extension; they stay residual (WHERE (2)).
                residual.append(conjunct)
                continue
            if facts.has_subquery(conjunct):
                residual.append(conjunct)
                continue
            if single:
                if bare & core_entries:
                    unit_by_entry[bare.bit_length() - 1].conjuncts.append(
                        conjunct)
                    continue
                residual.append(conjunct)
                continue
            if bare:
                core_conjuncts.append(conjunct)
                continue
            residual.append(conjunct)

        # --- GROUP BY / SELECT (2) / HAVING: the aggregation operator ------------
        agg: Optional[LogicalGbAgg] = None
        if block.aggregated:
            agg_calls = self._collect_aggregates(block)
            for call in agg_calls:
                self._annotate(call)
            agg = LogicalGbAgg(list(block.group_by), agg_calls)

        # --- ORDER BY / LIMIT ------------------------------------------------------
        limit = LogicalLimit(list(block.order_by), block.limit,
                             block.offset)

        return OrcaLogicalBlock(
            block=block,
            core=LogicalNAryJoin(core_units, core_conjuncts),
            outer_joins=outer_specs,
            semi_joins=list(nest_specs.values()),
            residual=LogicalSelect(residual),
            agg=agg,
            limit=limit,
            dependent_units=dependent_units,
            dependent_conjuncts=dependent_conjuncts,
        )

    # -- helpers -------------------------------------------------------------------

    def _descriptor(self, entry: TableEntry) -> TableDescriptor:
        if entry.kind is EntryKind.BASE:
            mdid = self.accessor.table_oid(entry.table_schema.name)
            # Pull relation metadata through the cache once, so the DXL
            # path is exercised for every referenced relation.
            self.accessor.relation(entry.table_schema.name)
            name = entry.table_schema.name
        else:
            mdid = self.accessor.synthetic_oid(entry.alias)
            name = entry.alias
        return TableDescriptor(mdid=mdid, name=name, alias=entry.alias,
                               entry=entry)

    def _collect_aggregates(self, block: QueryBlock) -> List[ast.AggCall]:
        calls: List[ast.AggCall] = []
        seen = set()
        exprs: List[ast.Expr] = [item.expr for item in block.select_items]
        exprs.extend(block.having_conjuncts)
        exprs.extend(item.expr for item in block.order_by)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, ast.AggCall):
                    key = expr_key(node)
                    if key not in seen:
                        seen.add(key)
                        calls.append(node)
        return calls

    def _annotate(self, expr: ast.Expr) -> None:
        """Attach expression OIDs (and commutators/inverses) to a tree."""
        provider = self.accessor.provider
        for node in expr.walk():
            if isinstance(node, (ast.BinaryExpr, ast.AggCall)):
                key = expr_key(node)
                if key in self.expression_oids:
                    node.mdid = self.expression_oids[key][0]
                    continue
                oid = provider.get_expression_oid(node)
                commutator = provider.get_commutator_oid(oid) \
                    if oid != INVALID_OID else INVALID_OID
                inverse = provider.get_inverse_oid(oid) \
                    if oid != INVALID_OID else INVALID_OID
                self.expression_oids[key] = (oid, commutator, inverse)
                node.mdid = oid
