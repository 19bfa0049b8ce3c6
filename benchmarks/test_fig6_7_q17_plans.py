"""E8 — Figs. 6/7 and Listing 7: TPC-H Q17 through the plan converter.

The paper uses Q17 to illustrate the two-pass Orca->MySQL plan
translation: the correlated AVG subquery becomes a derived table
(``derived_1_2``), leaves map into two query blocks' best-position arrays,
and the executable plan materialises the derived table per outer row
("Materialize (invalidate on row from part)") while probing lineitem
through the ``lineitem_fk2`` index.
"""

from benchmarks.conftest import write_report
from benchmarks.paper import results_match
from repro.bridge.router import OrcaRouter
from repro.executor.plan import AccessMethod
from repro.governor import ExecutionGovernor
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.workloads.tpch import tpch_query


def test_fig6_7_q17_translation(benchmark, tpch_db):
    sql = tpch_query(17)

    # Drive the Orca detour by hand to inspect the skeleton.
    stmt = parse_statement(sql)
    block, context = Resolver(tpch_db.catalog).resolve(stmt)
    prepare(block)
    router = OrcaRouter(tpch_db.catalog, tpch_db.config,
                        governor=ExecutionGovernor())
    outcome = router.optimize_guarded(stmt, block, context)
    assert outcome.ok, f"Orca fell back unexpectedly: {outcome.reason}"
    skeleton = outcome.skeleton

    # Fig. 7: two best-position arrays — the outer block's and the
    # derived subquery block's.
    block_skeletons = [s for s in skeleton.blocks.values()
                       if s.positions]
    assert len(block_skeletons) == 2

    outer = skeleton.skeleton_for(block)
    aliases = [context.entry(p.entry_id).alias for p in outer.positions]
    # Fig. 7's outer array: [part, derived_1_2, lineitem] — part drives,
    # the derived table and lineitem follow (order of the last two is
    # cost-dependent).
    assert aliases[0] == "part"
    assert any(alias.startswith("derived_") for alias in aliases)
    assert "lineitem" in aliases

    # The derived block's (trivial) array holds just the inner lineitem.
    inner = next(s for s in block_skeletons if s is not outer)
    assert len(inner.positions) == 1
    inner_access = inner.positions[0].access
    # Listing 7: the subquery probes lineitem_fk2 keyed on p_partkey.
    assert inner_access.method is AccessMethod.INDEX_LOOKUP
    assert inner_access.index_name == "lineitem_fk2"

    # Listing 7's executable plan artifacts.
    explain_text = tpch_db.explain(sql, optimizer="orca")
    write_report("fig6_7_q17_plan.txt", explain_text)
    assert explain_text.startswith("EXPLAIN (ORCA)")
    assert "invalidate on row from" in explain_text
    assert "derived_" in explain_text
    assert "lineitem_fk2" in explain_text

    def run_both():
        return (tpch_db.run(sql, optimizer="mysql"),
                tpch_db.run(sql, optimizer="orca"))

    mysql_run, orca_run = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    assert results_match(mysql_run.rows, orca_run.rows)
