"""End-to-end advisor smoke: the full drift story on TPC-H.

One scenario run (small scale, seeded) must show the whole loop the CI
job guards: statistics go stale -> worst-node Q-errors breach -> the
advisor recommends (and ``advisor.apply()`` applies) re-ANALYZE ->
Q-errors recover; a mid-workload optimizer
reroute is flagged as a plan regression and its cached plans purged.

The scenario itself lives in :mod:`tests.drift`.
"""

import pytest

from tests.drift import run_drift_scenario


@pytest.fixture(scope="module")
def payload():
    # Scale 0.7: the staged reroute's cross-product plan grows with the
    # square of the data, the detour's index nested loop linearly, so
    # the contrast grows with scale.  At 0.7 it is ~35x against the
    # detector's 8x, and stays above 19x with the CPU oversubscribed
    # (at 0.35 it was ~16x and fell under 8x under load).  The whole
    # scenario still finishes in seconds.
    return run_drift_scenario(scale=0.7, seed=42, runs_per_query=4)


class TestDriftRecovery:
    def test_drift_actually_breaches(self, payload):
        breached = payload["recovery"]["breached_queries"]
        assert len(breached) >= 2, (
            "stale statistics produced no clear Q-error breaches; "
            "the scenario is not exercising the advisor")

    def test_auto_analyze_hook_applied_reanalyze(self, payload):
        # The scenario's own advisor.apply(kinds=("reanalyze",)) call.
        assert payload["reanalyze_applied"] >= 1

    def test_breached_queries_recover_after_reanalyze(self, payload):
        for row in payload["recovery"]["breached_queries"]:
            assert row["recovered_max_q"] < row["stale_max_q"], (
                f"Q{row['query']} did not recover: "
                f"stale {row['stale_max_q']:.1f} -> "
                f"recovered {row['recovered_max_q']:.1f}")

    def test_recovered_queries_run_their_baseline_plan(self, payload):
        # Latency returns to the baseline's because the plans do: after
        # re-ANALYZE every query of the mix runs the plan it ran against
        # fresh statistics, while the stale phase ran some other plan.
        # Plan hashes are literal- and clock-free, so this cannot flake.
        baseline = payload["baseline"]["queries"]
        stale = payload["stale"]["queries"]
        recovered = payload["recovered"]["queries"]
        assert recovered.keys() == baseline.keys()
        for number, row in recovered.items():
            assert row["plan_hashes"] == baseline[number]["plan_hashes"], (
                f"Q{number}: {baseline[number]['plan_hashes']} -> "
                f"{row['plan_hashes']}")
        assert any(stale[number]["plan_hashes"] != row["plan_hashes"]
                   for number, row in baseline.items())


class TestRegressionHygiene:
    def test_reroute_flagged_as_plan_regression(self, payload):
        flagged = payload["regression_staging"]["flagged"]
        assert len(flagged) == 1
        assert flagged[0]["factor"] > 1.5
        assert flagged[0]["from_hash"] != flagged[0]["to_hash"]

    def test_regression_recommended_and_purged(self, payload):
        assert "plan_regression" in payload["recommendation_kinds"]
        purges = [a for a in payload["actions"]
                  if a["kind"] == "plan_regression"]
        assert purges and "invalidated" in purges[0]["action"]


class TestAdvice:
    def test_index_advice_for_hot_unindexed_columns(self, payload):
        index_recs = [r for r in payload["recommendations"]
                      if r["kind"] == "index"]
        assert index_recs, "no index advice on the drifting mix"
        # The mix filters heavily on unindexed columns; at least one
        # must surface with a favourable what-if cost delta.
        for rec in index_recs:
            details = rec["details"]
            assert details["index_lookup_cost"] < \
                details["table_scan_cost"]
