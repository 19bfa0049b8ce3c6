"""Large-join strategy benchmark: compile-time curves, optimality,
budget-respecting wide joins, and the forced-DP head-to-head.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_joinorder.py -v

Emits ``BENCH_joinorder.json`` / ``BENCH_joinorder.txt`` under
``benchmarks/results/`` and asserts the acceptance gates of the
large-join PR on the freshly recorded payload:

* adaptive selection at 20 relations optimizes >= 10x faster than
  forcing full DP down its budget-abort path;
* GOO plan cost stays within 1.1x of full DP on every DP-feasible
  (n <= 12) topology (tier-1 keeps the counter-based form of this gate
  on chain10, star10 and clique10 in ``tests/test_perf_smoke.py``);
* wide joins under a tight compile budget never escape to the MySQL
  fallback — they degrade to the best Orca incumbent instead.
"""

from benchmarks.conftest import RESULTS_DIR, SCALE, write_report

from repro.bench import format_joinorder_report, run_joinorder_bench

CURVE_POINTS = (
    ("chain", 10), ("chain", 20), ("chain", 30), ("chain", 50),
    ("star", 10), ("star", 20), ("star", 40),
    ("snowflake", 16), ("snowflake", 31),
    ("clique", 10), ("clique", 14),
)
OPTIMALITY_POINTS = (
    ("chain", 8), ("chain", 10), ("chain", 12),
    ("star", 8), ("star", 10), ("star", 12),
    ("snowflake", 10), ("snowflake", 12),
    ("clique", 8), ("clique", 10),
)
BUDGET_POINTS = (
    ("chain", 30), ("chain", 50), ("star", 40),
    ("snowflake", 31), ("clique", 20),
)


def test_joinorder_bench():
    payload = run_joinorder_bench(
        CURVE_POINTS,
        OPTIMALITY_POINTS,
        BUDGET_POINTS,
        dp_comparison_point=("chain", 20),
        scale=SCALE,
        progress=print,
        emit_json=str(RESULTS_DIR / "BENCH_joinorder.json"),
    )
    write_report("BENCH_joinorder.txt", format_joinorder_report(payload))

    # Gate 1: at 20+ relations the adaptive selector beats forced full
    # DP (which burns its whole budget before degrading) by >= 10x.
    comp = payload["dp_comparison"]
    assert comp["speedup"] >= 10.0, comp
    assert comp["results_identical"], comp
    assert comp["dp_optimizer_used"] == "orca", comp

    # Gate 2: GOO stays near-optimal where full DP is feasible — plan
    # cost within 1.1x of the DP reference.
    for entry in payload["optimality"]:
        assert entry["cost_ratio_vs_dp"]["goo"] <= 1.1, entry

    # Gate 3: no MySQL-fallback escapes on wide joins under a tight
    # compile budget; a blown budget degrades to the Orca incumbent.
    for row in payload["budget"]:
        assert row["optimizer_used"] == "orca", row
        assert row["fallback_reason"] is None, row
        assert row["rows"] == 1, row
