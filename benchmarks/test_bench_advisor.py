"""BENCH — the workload advisor on a drifting TPC-H workload.

Produces ``benchmarks/results/BENCH_advisor.json`` (committed, so the
PR carries the advisor evidence) and a text summary.  Two parts:

* **Drift scenario** — the full story from :mod:`repro.bench.drift`:
  statistics go stale under churn, worst-node Q-errors breach, a
  mid-workload optimizer reroute regresses one statement's p95, and
  the advisor recommends all three kinds (re-ANALYZE, index, plan
  regression).  Applying the actionable advice must drop the breached
  queries' worst-node Q-error back to the fresh-stats level and
  restore suite p95 latency to within ``MAX_P95_RATIO`` of the
  fresh-stats baseline.
* **Advice dump** — the ranked recommendation list itself, so the
  artifact shows *what* the advisor said, not just that it helped.
"""

import json

from benchmarks.conftest import RESULTS_DIR, SCALE, write_report
from repro.bench.drift import run_drift_scenario

SEED = 20260808

#: Recovered suite p95 must land within this factor of the fresh-stats
#: baseline after the advisor's re-ANALYZE advice is applied.
MAX_P95_RATIO = 1.2


def _format_report(payload: dict) -> str:
    lines = ["BENCH: workload advisor on a drifting TPC-H mix",
             "=" * 48,
             f"scale {payload['scale']}  seed {payload['seed']}  "
             f"mix {payload['mix']}  "
             f"{payload['runs_per_query']} runs/query",
             "",
             "phase            suite p50      suite p95      median max-q"]
    for phase in ("baseline", "stale", "recovered"):
        row = payload[phase]
        lines.append(f"{phase:<14} {row['suite_median_seconds'] * 1000:>9.2f} ms "
                     f"{row['suite_p95_seconds'] * 1000:>10.2f} ms "
                     f"{row['suite_max_q_median']:>13.1f}")
    recovery = payload["recovery"]
    lines.append("")
    lines.append(f"recovered p95 vs baseline: "
                 f"{recovery['suite_p95_ratio_vs_baseline']:.2f}x "
                 f"(ceiling {MAX_P95_RATIO}x)")
    lines.append("breached queries (stale max-q > 16 and > 1.5x baseline):")
    for row in recovery["breached_queries"]:
        lines.append(f"  Q{row['query']:<3} q {row['stale_max_q']:>7.1f} "
                     f"-> {row['recovered_max_q']:>6.1f} "
                     f"(fresh-stats {row['baseline_max_q']:.1f})")
    staging = payload["regression_staging"]
    lines.append("")
    lines.append(f"staged reroute: {staging['fast_median_seconds'] * 1000:.2f} ms "
                 f"-> {staging['slow_median_seconds'] * 1000:.2f} ms median; "
                 f"{len(staging['flagged'])} plan regression(s) flagged")
    lines.append("")
    lines.append(f"advice ({len(payload['recommendations'])} items, "
                 f"kinds {payload['recommendation_kinds']}):")
    for rec in payload["recommendations"][:8]:
        lines.append(f"  [{rec['kind']:<15}] {rec['target']:<24} "
                     f"score {rec['score']:>9.2f}")
    return "\n".join(lines)


def test_bench_advisor():
    payload = run_drift_scenario(scale=SCALE, seed=SEED,
                                 runs_per_query=5)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_advisor.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n")
    write_report("BENCH_advisor.txt", _format_report(payload))

    # All three recommendation kinds on one drifting workload.
    assert set(payload["recommendation_kinds"]) >= \
        {"reanalyze", "index", "plan_regression"}

    # The drift breached, and re-ANALYZE healed every breached query.
    breached = payload["recovery"]["breached_queries"]
    assert len(breached) >= 2
    for row in breached:
        assert row["recovered_max_q"] < row["stale_max_q"]

    # Latency is back in the fresh-stats neighbourhood.
    ratio = payload["recovery"]["suite_p95_ratio_vs_baseline"]
    assert ratio <= MAX_P95_RATIO, (
        f"recovered suite p95 is {ratio:.2f}x the fresh-stats baseline "
        f"(ceiling {MAX_P95_RATIO}x)")

    # The staged reroute was caught and purged.
    assert len(payload["regression_staging"]["flagged"]) == 1
    assert any(a["kind"] == "plan_regression" for a in payload["actions"])
