"""Every block's facts table says what re-walking its trees would say.

``repro.sql.facts`` gives each block one table of derived facts — each
expression's entry mask, the block's correlation sources and subquery
blocks, a subquery flag per expression — that both optimizers, the
bridge, refinement and plan lowering read instead of walking expression
trees.  This test keeps the walk-based helpers the table replaced
verbatim as the reference (``reference_*`` below, copied from
``repro.sql.blocks``, with the recursive ``Expr.walk``; the frozenset
reference searches of ``tests/test_mysql_optimizer.py`` and
``tests/test_join_enumeration.py`` import them too) and checks the
table against them on every block of the 22 TPC-H and 99 TPC-DS
statements and the seven ``compile_mix`` join topologies, under both
optimizers, at three points of a compile:

* right after prepare (which builds the tables),
* after Orca's preprocessing (the only rewrite after prepare, which
  refreshes the tables of the blocks it rewrites), and
* at the end of compile, after plan refinement.

It also checks that the iterative ``Expr.walk`` yields the recursive
walk's pre-order sequence on every expression of the corpus.
"""

import pytest

from repro import Database
from repro.mysql_optimizer.refinement import PlanBuilder
from repro.sql import ast
from repro.sql.blocks import QueryBlock
from repro.sql.facts import ids_mask
from repro.workloads.joins import load_topology, make_topology
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

TOPOLOGIES = (("chain", 10), ("chain", 20), ("chain", 30), ("star", 10),
              ("star", 20), ("snowflake", 16), ("clique", 10))


# -- the walk-based reference ---------------------------------------------------


def reference_walk(expr):
    """The recursive pre-order walk ``Expr.walk`` used to be."""
    yield expr
    for child in expr.children():
        if child is not None:
            yield from reference_walk(child)


def reference_referenced_entries(expr):
    ids = set()
    for node in reference_walk(expr):
        if isinstance(node, ast.ColumnRef) and node.entry_id is not None:
            ids.add(node.entry_id)
        block = getattr(node, "block", None)
        if isinstance(block, QueryBlock):
            ids.update(block.outer_references)
    return frozenset(ids)


def reference_contains_subquery(expr):
    return any(isinstance(node, (ast.ScalarSubquery, ast.InSubqueryExpr,
                                 ast.ExistsExpr))
               for node in reference_walk(expr))


def reference_all_subquery_blocks(block):
    blocks = []
    for expr in block.all_expressions():
        for node in reference_walk(expr):
            sub = getattr(node, "block", None)
            if isinstance(sub, QueryBlock):
                blocks.append(sub)
    return blocks


def reference_correlation_sources(block):
    local = set()
    refs = set()

    def visit(current, seen):
        if current.block_id in seen:
            return
        seen.add(current.block_id)
        for entry in current.entries:
            local.add(entry.entry_id)
            if entry.sub_block is not None:
                visit(entry.sub_block, seen)
        if current.agg_entry is not None:
            local.add(current.agg_entry.entry_id)
        if current.window_entry is not None:
            local.add(current.window_entry.entry_id)
        for binding in current.cte_bindings:
            visit(binding.block, seen)
        for expr in current.all_expressions():
            for node in reference_walk(expr):
                if isinstance(node, ast.ColumnRef) and \
                        node.entry_id is not None:
                    refs.add(node.entry_id)
                sub = getattr(node, "block", None)
                if isinstance(sub, QueryBlock):
                    visit(sub, seen)
        for __, side in current.set_ops:
            visit(side, seen)

    visit(block, set())
    return sorted(refs - local)


def closure(top):
    """Every block reachable from ``top``, each once."""
    blocks, stack, seen = [], [top], set()
    while stack:
        block = stack.pop()
        if block.block_id in seen:
            continue
        seen.add(block.block_id)
        blocks.append(block)
        stack.extend(entry.sub_block for entry in block.entries
                     if entry.sub_block is not None)
        stack.extend(binding.block for binding in block.cte_bindings)
        stack.extend(reference_all_subquery_blocks(block))
        stack.extend(side for __, side in block.set_ops)
    return blocks


def mismatches(top, point):
    """Each fact of each block of ``top``'s closure that differs from
    the reference, as readable strings."""
    found = []
    for block in closure(top):
        facts = block.facts
        where = f"{point} block #{block.block_id}"
        corr = reference_correlation_sources(block)
        if facts.corr != corr or facts.corr_mask != ids_mask(corr):
            found.append(f"{where}: corr {facts.corr} != {corr}")
        subs = reference_all_subquery_blocks(block)
        if [id(sub) for sub in facts.sub_blocks] != [id(sub) for sub in subs]:
            found.append(f"{where}: sub-blocks differ")
        for expr in block.all_expressions():
            for node in reference_walk(expr):
                want = ids_mask(reference_referenced_entries(node))
                if facts.mask(node) != want:
                    found.append(f"{where}: mask of {node!r} "
                                 f"{facts.mask(node):b} != {want:b}")
                if facts.has_subquery(node) \
                        != reference_contains_subquery(node):
                    found.append(f"{where}: subquery flag of {node!r}")
    return found


# -- the corpus ----------------------------------------------------------------------


def corpus():
    """``(database, statement name, sql)`` for the whole corpus, at
    small scales: the facts do not depend on the data."""
    tpch = Database()
    load_tpch(tpch, scale=0.01)
    tpcds = Database()
    load_tpcds(tpcds, scale=0.02)
    joins = Database()
    statements = [(tpch, f"q{n}", sql)
                  for n, sql in sorted(TPCH_QUERIES.items())]
    statements += [(tpcds, f"ds{n}", sql)
                   for n, sql in sorted(TPCDS_QUERIES.items())]
    for kind, relations in TOPOLOGIES:
        topology = make_topology(kind, relations, seed=1234, scale=0.05)
        load_topology(joins, topology)
        statements.append((joins, f"{kind}{relations}", topology.query))
    return statements


@pytest.fixture(scope="module")
def statements():
    return corpus()


def test_corpus_is_complete(statements):
    assert len(statements) == len(TPCH_QUERIES) + len(TPCDS_QUERIES) \
        + len(TOPOLOGIES)


@pytest.mark.parametrize("optimizer", ["orca", "mysql"])
def test_facts_match_the_walks_at_every_point(statements, optimizer,
                                              monkeypatch):
    import repro.bridge.router as router
    import repro.database as database

    found = []
    seen_points = set()

    def checked_prepare(block):
        result = database_prepare(block)
        seen_points.add("prepare")
        found.extend(mismatches(block, "after prepare"))
        return result

    def checked_pushdown(block):
        result = router_pushdown(block)
        seen_points.add("preprocess")
        found.extend(mismatches(block, "after preprocess"))
        return result

    def checked_build(builder):
        executor = plan_build(builder)
        seen_points.add("compile")
        found.extend(mismatches(builder.skeleton.top_block,
                                "after compile"))
        return executor

    database_prepare = database.prepare
    router_pushdown = router.push_cte_predicates
    plan_build = PlanBuilder.build
    monkeypatch.setattr(database, "prepare", checked_prepare)
    monkeypatch.setattr(router, "push_cte_predicates", checked_pushdown)
    monkeypatch.setattr(PlanBuilder, "build", checked_build)
    for db, name, sql in statements:
        before = len(found)
        db.compile_only(sql, optimizer=optimizer)
        found[before:] = [f"{name}: {line}" for line in found[before:]]
    expected = {"prepare", "compile"}
    if optimizer == "orca":
        expected.add("preprocess")
    assert seen_points == expected
    assert not found, f"{len(found)} facts differ: " + "; ".join(found[:10])


def test_iterative_walk_is_the_recursive_pre_order(statements):
    from repro.sql.parser import parse_statement
    from repro.sql.prepare import prepare
    from repro.sql.resolver import Resolver

    walked = 0
    for db, name, sql in statements:
        block, __ = Resolver(db.catalog).resolve(parse_statement(sql))
        prepare(block)
        for sub in closure(block):
            for expr in sub.all_expressions():
                iterative = [id(node) for node in expr.walk()]
                recursive = [id(node) for node in reference_walk(expr)]
                assert iterative == recursive, name
                walked += len(iterative)
    assert walked > 4_000
