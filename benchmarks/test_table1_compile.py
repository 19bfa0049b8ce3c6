"""E6/E9 — Table 1: Orca query compilation overhead.

The paper measures total EXPLAIN time for both suites with the complex
query threshold set to 1 (every query takes the Orca detour) under three
compilers: MySQL alone, MySQL+Orca with EXHAUSTIVE, and with EXHAUSTIVE2.

Shapes asserted (Section 6.3's four observations):

1. Orca compilations are significantly slower than MySQL compilations;
2. on TPC-H, EXHAUSTIVE2 adds no meaningful overhead over EXHAUSTIVE;
3. on TPC-DS, EXHAUSTIVE2 is noticeably slower, and the overhead is
   concentrated in the widest-join queries (Q64's 18-way CTE join —
   the paper's Q14/Q64 observation);
4. the overhead is worth it (that part is Figs. 10/11's job).

``run_compile_suite`` first runs one untimed Orca pass over each suite,
so the first timed Orca configuration does not carry the process's
first-pass cost; the report prints that pass as its own row.
"""

import time

from benchmarks.conftest import write_report
from benchmarks.paper import format_table1, run_compile_suite
from repro.workloads.tpch import TPCH_QUERIES
from repro.workloads.tpcds import TPCDS_QUERIES


def _configurations(db):
    def mysql():
        pass

    def exhaustive():
        db.config.orca_search = "EXHAUSTIVE"

    def exhaustive2():
        db.config.orca_search = "EXHAUSTIVE2"

    return {
        "MySQL": mysql,
        "MySQL + Orca-EXHAUSTIVE": exhaustive,
        "MySQL + Orca-EXHAUSTIVE2": exhaustive2,
    }


def _compile_both(tpch_db, tpcds_db):
    # Threshold 1: "all of the queries take the Orca detours".
    tpch_db.config.complex_query_threshold = 1
    tpcds_db.config.complex_query_threshold = 1
    try:
        tpch_totals = run_compile_suite(tpch_db, TPCH_QUERIES,
                                        _configurations(tpch_db))
        tpcds_totals = run_compile_suite(tpcds_db, TPCDS_QUERIES,
                                         _configurations(tpcds_db))
    finally:
        tpch_db.config.complex_query_threshold = 3
        tpcds_db.config.complex_query_threshold = 2
        tpch_db.config.orca_search = "EXHAUSTIVE2"
        tpcds_db.config.orca_search = "EXHAUSTIVE2"
    return tpch_totals, tpcds_totals


def test_table1_compile_overhead(benchmark, tpch_db, tpcds_db):
    tpch_totals, tpcds_totals = benchmark.pedantic(
        _compile_both, args=(tpch_db, tpcds_db), rounds=1, iterations=1)
    write_report("table1_compile.txt",
                 format_table1(tpch_totals, tpcds_totals))

    # (1) Orca compilation is significantly slower than MySQL's.  (The
    # paper's ratios are 12X / 44X; here the shared Python frontend —
    # parse/resolve/prepare — dominates both paths, compressing the
    # ratio, but the direction and the per-strategy ordering hold.)
    assert tpch_totals["MySQL + Orca-EXHAUSTIVE"] > \
        1.5 * tpch_totals["MySQL"]
    assert tpcds_totals["MySQL + Orca-EXHAUSTIVE"] > \
        1.3 * tpcds_totals["MySQL"]

    # (2) On TPC-H the two Orca strategies are close (within 2X).
    tpch_ratio = (tpch_totals["MySQL + Orca-EXHAUSTIVE2"]
                  / tpch_totals["MySQL + Orca-EXHAUSTIVE"])
    assert tpch_ratio < 2.0, f"TPC-H EXHAUSTIVE2/EXHAUSTIVE = {tpch_ratio}"

    # (3) On TPC-DS EXHAUSTIVE2 costs noticeably more.
    assert tpcds_totals["MySQL + Orca-EXHAUSTIVE2"] > \
        tpcds_totals["MySQL + Orca-EXHAUSTIVE"]


def _cost_evaluations(db):
    histogram = db.metrics.histogram("orca.cost_evaluations")
    return 0 if histogram is None else int(histogram.total)


def test_overhead_concentrated_in_widest_joins(benchmark, tpcds_db):
    """E9: the EXHAUSTIVE2 overhead comes from the widest-join queries.

    Queries are ranked by the extra plans EXHAUSTIVE2 costs
    (``orca.cost_evaluations``), the work behind the overhead, so the
    ranking does not move with the host; the wall-clock deltas are
    written beside it as a report."""
    tpcds_db.config.complex_query_threshold = 1
    try:
        def sweep():
            seconds, evaluations = {}, {}
            for number in sorted(TPCDS_QUERIES):
                elapsed, counted = {}, {}
                for mode in ("EXHAUSTIVE", "EXHAUSTIVE2"):
                    tpcds_db.config.orca_search = mode
                    before = _cost_evaluations(tpcds_db)
                    start = time.perf_counter()
                    tpcds_db.compile_only(TPCDS_QUERIES[number],
                                          optimizer="orca")
                    elapsed[mode] = time.perf_counter() - start
                    counted[mode] = _cost_evaluations(tpcds_db) - before
                seconds[number] = (elapsed["EXHAUSTIVE2"]
                                   - elapsed["EXHAUSTIVE"])
                evaluations[number] = (counted["EXHAUSTIVE2"]
                                       - counted["EXHAUSTIVE"])
            return seconds, evaluations

        seconds, evaluations = benchmark.pedantic(sweep, rounds=1,
                                                  iterations=1)
        top5 = sorted(evaluations, key=evaluations.get, reverse=True)[:5]
        lines = ["EXHAUSTIVE2 - EXHAUSTIVE compile delta, top 10:"]
        for number in sorted(seconds, key=seconds.get, reverse=True)[:10]:
            lines.append(f"  Q{number}: {seconds[number] * 1000:.1f} ms, "
                         f"{evaluations[number]} cost evaluations")
        write_report("table1_per_query_delta.txt", "\n".join(lines))
        # The paper attributes the overhead to Q14 and Q64 (CTEs with
        # multi-way joins); our widest joins are Q64's cross_sales and the
        # Q72 snowflake — one of the known wide queries must lead.
        assert set(top5) & {64, 72, 14, 31, 24, 17}, (
            f"unexpected compile-overhead leaders: {top5}")
    finally:
        tpcds_db.config.complex_query_threshold = 2
        tpcds_db.config.orca_search = "EXHAUSTIVE2"
