"""A3 — ablation: OR factorization on the Q41/Q19 predicate patterns.

Section 6.2 explains Q41's 222X with the rewrite of
``(m = i1.m AND x) OR (m = i1.m AND y)`` into ``m = i1.m AND (x OR y)``;
Section 7 lesson 4 notes the same rewrite enables hash joins (TPC-H Q19's
pattern).  This ablation runs Orca with the rewrite disabled and compares.
"""

from benchmarks.conftest import write_report
from benchmarks.paper import results_match
from repro.orca.joinorder import JoinSearchMode
from repro.orca.optimizer import OrcaConfig


def _run_orca_with_config(db, sql, orca_config):
    """Compile+run through the Orca router with an explicit config."""
    import time

    from repro.bridge.router import OrcaRouter
    from repro.governor import ExecutionGovernor
    from repro.mysql_optimizer.refinement import PlanBuilder
    from repro.sql.parser import parse_statement
    from repro.sql.prepare import prepare
    from repro.sql.resolver import Resolver

    start = time.perf_counter()
    stmt = parse_statement(sql)
    block, context = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    router = OrcaRouter(db.catalog, db.config, orca_config,
                        governor=ExecutionGovernor())
    outcome = router.optimize_guarded(stmt, block, context)
    assert outcome.ok, outcome.reason
    skeleton = outcome.skeleton
    executor = PlanBuilder(skeleton, db.catalog, db.storage).build()
    rows = executor.execute()
    return rows, time.perf_counter() - start


def test_or_factorization_on_q19(benchmark, tpch_db):
    from repro.workloads.tpch import tpch_query

    sql = tpch_query(19)
    with_rewrite = OrcaConfig(search=JoinSearchMode.EXHAUSTIVE2)
    without_rewrite = OrcaConfig(search=JoinSearchMode.EXHAUSTIVE2,
                                 enable_or_factorization=False)

    def both():
        return (_run_orca_with_config(tpch_db, sql, with_rewrite),
                _run_orca_with_config(tpch_db, sql, without_rewrite))

    (rows_on, time_on), (rows_off, time_off) = benchmark.pedantic(
        both, rounds=1, iterations=1)
    assert results_match(rows_on, rows_off)
    write_report(
        "ablation_orfactor_q19.txt",
        f"TPC-H Q19 with OR factorization: {time_on:.3f}s; "
        f"without: {time_off:.3f}s "
        f"({time_off / max(time_on, 1e-9):.1f}X)")
    # The factored form must not be slower, and typically wins big: the
    # common p_partkey = l_partkey factor becomes a hash-join key.
    assert time_on <= time_off * 1.2
    assert time_off / max(time_on, 1e-9) > 2.0, (
        "expected a substantial win from factorization on Q19")


def test_or_factorization_on_q41(benchmark, tpcds_db):
    from repro.workloads.tpcds import tpcds_query

    sql = tpcds_query(41)
    with_rewrite = OrcaConfig(search=JoinSearchMode.EXHAUSTIVE2)
    without_rewrite = OrcaConfig(search=JoinSearchMode.EXHAUSTIVE2,
                                 enable_or_factorization=False)

    def both():
        return (_run_orca_with_config(tpcds_db, sql, with_rewrite),
                _run_orca_with_config(tpcds_db, sql, without_rewrite))

    (rows_on, time_on), (rows_off, time_off) = benchmark.pedantic(
        both, rounds=1, iterations=1)
    assert results_match(rows_on, rows_off)
    write_report(
        "ablation_orfactor_q41.txt",
        f"TPC-DS Q41 with OR factorization: {time_on:.3f}s; "
        f"without: {time_off:.3f}s")
    # "The two plans are identical otherwise" (Section 6.2) — the win
    # comes from evaluating the bail-out once, so factored must not lose.
    assert time_on <= time_off * 1.2
