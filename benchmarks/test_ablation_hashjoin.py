"""A1 — ablation: cost-based hash-join selection.

MySQL's hash-join selection "is not cost-based" (Section 3.1): it takes a
hash join only when no index exists, and index NLJs otherwise.  Orca costs
both.  The TPC-H Q13 pattern (customer LEFT JOIN orders, an FK index
available on orders.o_custkey) is exactly where this differs: MySQL takes
the indexed NLJ, Orca the hash join — "the only plan difference is the
choice of the join method" (Section 6.1), worth ~2X in the paper.
"""

from benchmarks.conftest import write_report
from benchmarks.paper import results_match
from repro.workloads.tpch import tpch_query


def test_q13_join_method_difference(benchmark, tpch_db):
    sql = tpch_query(13)
    mysql_plan = tpch_db.explain(sql, optimizer="mysql")
    orca_plan = tpch_db.explain(sql, optimizer="orca")

    # MySQL's plan uses the index nested-loop left join.
    assert "Nested loop left join" in mysql_plan
    assert "orders_fk1" in mysql_plan or "Index lookup" in mysql_plan
    # Orca's plan hashes the orders side.
    assert "Left hash join" in orca_plan

    def run_both():
        return (tpch_db.run(sql, optimizer="mysql"),
                tpch_db.run(sql, optimizer="orca"))

    mysql_run, orca_run = benchmark.pedantic(run_both, rounds=1,
                                             iterations=1)
    assert results_match(mysql_run.rows, orca_run.rows)
    write_report(
        "ablation_hashjoin_q13.txt",
        f"Q13 (join-method ablation): MySQL NLJ plan executes in "
        f"{mysql_run.execute_seconds:.3f}s, Orca hash plan in "
        f"{orca_run.execute_seconds:.3f}s "
        f"({mysql_run.execute_seconds / max(orca_run.execute_seconds, 1e-9):.2f}X; "
        f"paper: 2X at SF20 — the gap compresses on a memory-resident "
        f"engine where a lookup costs microseconds, not a page read)")
    # Plan-quality comparison (execution only): the hash plan wins.
    assert orca_run.execute_seconds < mysql_run.execute_seconds * 1.15
