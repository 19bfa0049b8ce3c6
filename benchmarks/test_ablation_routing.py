"""A6 — ablation: threshold routing vs the paper's future-work policy.

Section 9's first alternative: "Orca can be invoked after MySQL's
cost-based optimization has been performed, but only if the estimated
cost of the MySQL plan is above some threshold ... almost certainly
better than our three-table heuristic."  This repository implements that
policy (``DatabaseConfig.routing = "cost_based"``); the ablation compares
it against the shipped three-table heuristic on a mixed TPC-H subset.
"""

from benchmarks.conftest import write_report
from repro.workloads.tpch import TPCH_QUERIES

#: Mixed subset: short single-table queries where the detour is pure
#: overhead, plus the queries whose MySQL plans are expensive.
MIX = (1, 4, 6, 9, 13, 17, 18, 19, 20, 22)


def _run_mix(db):
    total = 0.0
    routed = []
    for number in MIX:
        outcome = db.run(TPCH_QUERIES[number])
        total += outcome.compile_seconds + outcome.execute_seconds
        if outcome.optimizer_used == "orca":
            routed.append(number)
    return total, routed


def test_cost_based_routing_beats_threshold(benchmark, tpch_db):
    def compare():
        original_routing = tpch_db.config.routing
        original_cost_threshold = tpch_db.config.mysql_cost_threshold
        try:
            tpch_db.config.routing = "threshold"
            threshold_total, threshold_routed = _run_mix(tpch_db)
            tpch_db.config.routing = "cost_based"
            tpch_db.config.mysql_cost_threshold = 5000.0
            cost_total, cost_routed = _run_mix(tpch_db)
        finally:
            tpch_db.config.routing = original_routing
            tpch_db.config.mysql_cost_threshold = original_cost_threshold
        return (threshold_total, threshold_routed,
                cost_total, cost_routed)

    threshold_total, threshold_routed, cost_total, cost_routed = \
        benchmark.pedantic(compare, rounds=1, iterations=1)

    write_report(
        "ablation_routing.txt",
        "Routing-policy ablation (Section 9 future work):\n"
        f"  three-table heuristic: {threshold_total:.3f}s, routed "
        f"{sorted(threshold_routed)}\n"
        f"  cost-based trigger:    {cost_total:.3f}s, routed "
        f"{sorted(cost_routed)}")

    # The cost-based policy must catch the expensive queries...
    assert 19 in cost_routed, "Q19's catastrophic MySQL plan not caught"
    # ...while skipping the detour for cheap multi-table queries the
    # three-table heuristic routes pointlessly.
    assert len(cost_routed) <= len(threshold_routed) + 1
    # Net: not slower than the shipped heuristic (usually faster).
    assert cost_total <= threshold_total * 1.25
