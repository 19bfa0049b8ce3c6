"""The drifting-workload scenario behind ``BENCH_advisor``.

Stages the lifecycle the workload advisor exists for, on TPC-H data:

1. **Baseline** — a database loaded in full and ANALYZEd; the query mix
   runs against fresh statistics (the "well-tuned" reference numbers).
2. **Drift** — a second database is loaded with only a fraction of the
   fact rows, ANALYZEd (statistics now describe the small heap), and
   then grown to full size through the storage load path — which, like
   a steady trickle of single-row DML under sampled stats maintenance,
   leaves the ANALYZE-time statistics badly stale.
3. **Stale phase** — the mix runs against stale statistics: per-node
   Q-errors breach, the statement log records the breaches, and latency
   degrades wherever the optimizer's tiny-table plans meet big-table
   reality.
4. **Regression staging** — one parameterized statement is rerouted
   mid-workload *out of* the Orca detour and onto the greedy
   optimizer (as a routing-threshold misconfiguration would; every
   run carries fresh literals, so each one cold-compiles, exactly as
   an application interpolating literals behaves).  The statement is
   the paper's OR-factorization pattern: Orca factors the common join
   key out of the disjunction and hash-joins; the greedy path cannot,
   and falls back to filtering the whole cross product.  The plan
   hash changes *and* p95 regresses hard: the statement log's detector
   flags a plan regression.
5. **Advice + apply** — the advisor now holds all three recommendation
   kinds (re-ANALYZE, index, plan regression); applying the actionable
   ones re-ANALYZEs the drifted tables (advancing their catalog
   epochs, so cached plans over them recompile) and purges the regressed
   fingerprint's cached plans.
6. **Recovered phase** — the mix runs again; Q-errors collapse back
   toward 1 and latency returns to the baseline's neighbourhood.

Everything is seeded (datagen, literal choice, reservoir histograms),
so two runs of the scenario produce the same story.
"""

from __future__ import annotations

import gc
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import _median
from repro.database import Database, DatabaseConfig
from repro.workloads.tpch.datagen import generate_tpch
from repro.workloads.tpch.queries import TPCH_QUERIES

__all__ = [
    "DRIFT_MIX",
    "REGRESSION_TEMPLATE",
    "run_drift_scenario",
]

#: The steady query mix: scan-heavy, selective, and join-heavy TPC-H
#: queries that run in milliseconds at bench scale.
DRIFT_MIX: Tuple[int, ...] = (1, 3, 6, 10, 12)

#: Tables whose statistics the drift stages leave stale (the fact and
#: large dimension tables; tiny fixed dimensions are loaded in full).
DRIFT_TABLES: Tuple[str, ...] = ("lineitem", "orders", "partsupp",
                                 "customer", "part")

#: The statement whose mid-workload reroute stages a plan regression:
#: a lean instance of TPC-H Q19's OR-of-conjuncts pattern, where Orca
#: factors ``p_partkey = l_partkey`` out of the disjunction and hash-
#: joins while the greedy optimizer filters the full cross product
#: (part x lineitem: large enough that the batch engine's nested loop
#: stays well past the detector's factor).  Literals are interpolated
#: per run (fresh cache key every time, one shared fingerprint),
#: mirroring an application that does not bind parameters.
REGRESSION_TEMPLATE = """
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE (p_partkey = l_partkey
       AND l_quantity >= {lo} AND l_quantity <= {lo_hi}
       AND l_shipmode IN ('AIR', 'REG AIR'))
   OR (p_partkey = l_partkey
       AND l_quantity >= {hi} AND l_quantity <= {hi_hi}
       AND l_shipmode IN ('MAIL', 'SHIP'))
"""


def _phase_metrics(latencies: Dict[int, List[float]],
                   worst_q: Dict[int, List[float]],
                   plans: Dict[int, List[str]]) -> dict:
    """Per-query and suite-level latency/quality summary of one phase;
    ``plan_hashes`` are the distinct plans a query ran, sorted."""
    per_query = {}
    for number in sorted(latencies):
        samples = sorted(latencies[number])
        per_query[str(number)] = {
            "runs": len(samples),
            "plan_hashes": sorted(set(plans[number])),
            "median_seconds": _median(samples),
            "p95_seconds": samples[max(0, int(0.95 * len(samples)) - 1)]
            if samples else 0.0,
            "max_q_median": _median(worst_q[number]),
        }
    medians = [q["median_seconds"] for q in per_query.values()]
    p95s = [q["p95_seconds"] for q in per_query.values()]
    qs = [q["max_q_median"] for q in per_query.values()]
    return {
        "queries": per_query,
        "suite_median_seconds": _median(medians),
        "suite_p95_seconds": _median(p95s),
        "suite_max_q_median": _median(qs),
    }


def _run_mix(db: Database, runs_per_query: int,
             progress: Optional[Callable[[str], None]] = None,
             label: str = "") -> dict:
    latencies: Dict[int, List[float]] = {}
    worst_q: Dict[int, List[float]] = {}
    plans: Dict[int, List[str]] = {}
    for number in DRIFT_MIX:
        sql = TPCH_QUERIES[number]
        for __ in range(runs_per_query):
            result = db.run(sql)
            total = result.compile_seconds + result.execute_seconds
            latencies.setdefault(number, []).append(total)
            quality = result.plan_quality
            worst_q.setdefault(number, []).append(
                quality.max_q if quality is not None else 1.0)
            plans.setdefault(number, []).append(result.plan_hash)
        if progress is not None:
            progress(f"{label} Q{number}: median "
                     f"{_median(latencies[number]) * 1000:.2f} ms, "
                     f"median max-q {_median(worst_q[number]):.1f}")
    return _phase_metrics(latencies, worst_q, plans)


def _load_fraction(db: Database, data: Dict[str, List[tuple]],
                   fraction: float) -> Dict[str, List[tuple]]:
    """Load the leading ``fraction`` of each drifting table (everything
    else in full); returns the held-back remainder per table."""
    remainder: Dict[str, List[tuple]] = {}
    for name, rows in data.items():
        if name in DRIFT_TABLES:
            keep = max(1, int(len(rows) * fraction))
            db.load(name, rows[:keep])
            remainder[name] = rows[keep:]
        else:
            db.load(name, rows)
    return remainder


def _make_config(**overrides) -> DatabaseConfig:
    config = DatabaseConfig(slow_query_log_threshold_seconds=10.0)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def run_drift_scenario(scale: float = 0.2, seed: int = 42,
                       runs_per_query: int = 5,
                       initial_fraction: float = 0.05,
                       regression_runs: int = 4,
                       auto_analyze: bool = False,
                       progress: Optional[Callable[[str], None]] = None
                       ) -> dict:
    """Run the full drift story; returns a JSON-ready payload.

    With ``auto_analyze=True`` the recovery is driven by the opt-in
    ``advisor_auto_analyze`` hook (the advisor applies its own
    re-ANALYZE advice on the statement path) instead of an explicit
    ``advisor.apply()`` call — the end-to-end loop the CI smoke job
    exercises.
    """
    from repro.workloads.tpch.schema import create_tpch_tables

    data = generate_tpch(scale, seed)
    rng = random.Random(seed)

    # -- baseline: full data, fresh statistics --------------------------------
    baseline_db = Database(_make_config())
    create_tpch_tables(baseline_db)
    for name, rows in data.items():
        baseline_db.load(name, rows)
    baseline_db.analyze()
    baseline = _run_mix(baseline_db, runs_per_query, progress, "baseline")

    # -- drift: analyze a fraction, then grow under the stats' feet -----------
    db = Database(_make_config(
        advisor_auto_analyze=auto_analyze,
        # One sweep covers the whole stale mix: first auto-apply fires
        # after the stale phase has produced its evidence.
        advisor_interval_statements=len(DRIFT_MIX) * runs_per_query
        + regression_runs * 2,
    ))
    create_tpch_tables(db)
    remainder = _load_fraction(db, data, initial_fraction)
    db.analyze()
    for name, rows in remainder.items():
        db.load(name, rows)

    stale = _run_mix(db, runs_per_query, progress, "stale")

    # -- stage the plan regression: reroute one statement mid-workload --------
    def regression_run(optimizer: str) -> float:
        lo = 1 + rng.randrange(10)
        hi = 15 + rng.randrange(10)
        sql = REGRESSION_TEMPLATE.format(lo=lo, lo_hi=lo + 10,
                                         hi=hi, hi_hi=hi + 10)
        result = db.run(sql, optimizer=optimizer)
        return result.compile_seconds + result.execute_seconds

    # The detector reads a p95 over four runs — their maximum — so one
    # full garbage collection inside a millisecond-scale fast run would
    # hide the regression.  Collect now: the staged runs then measure
    # plans, not whichever run the collector's countdown happens to hit.
    gc.collect()
    fast = [regression_run("orca") for __ in range(regression_runs)]
    slow = [regression_run("mysql") for __ in range(regression_runs)]
    regressions = [r.to_dict()
                   for r in db.statements.unresolved_regressions()]

    # -- advice ----------------------------------------------------------------
    recommendations = [rec.to_dict()
                       for rec in db.advisor.recommendations()]
    kinds = sorted({rec["kind"] for rec in recommendations})

    # -- apply + recovery ------------------------------------------------------
    if auto_analyze:
        # The statement-path hook sweeps pending re-ANALYZE advice on
        # its own cadence; the regression hygiene still needs apply().
        actions = db.advisor.apply(kinds=("plan_regression",))
    else:
        actions = db.advisor.apply(
            kinds=("reanalyze", "plan_regression"))
    recovered = _run_mix(db, runs_per_query, progress, "recovered")

    suite_ratio = 0.0
    if baseline["suite_p95_seconds"] > 0:
        suite_ratio = recovered["suite_p95_seconds"] \
            / baseline["suite_p95_seconds"]
    # Queries the *drift* broke: stale worst-node Q-error both breaches
    # the ledger threshold and clearly exceeds the fresh-stats Q-error
    # (which already absorbs the cost model's inherent selectivity
    # error).  These are the ones re-ANALYZE must heal.
    breached_queries = []
    for number in DRIFT_MIX:
        key = str(number)
        base_q = baseline["queries"][key]["max_q_median"]
        stale_q = stale["queries"][key]["max_q_median"]
        rec_q = recovered["queries"][key]["max_q_median"]
        if stale_q > 16.0 and stale_q > 1.5 * base_q:
            breached_queries.append({
                "query": number,
                "baseline_max_q": base_q,
                "stale_max_q": stale_q,
                "recovered_max_q": rec_q,
            })
    return {
        "scale": scale,
        "seed": seed,
        "runs_per_query": runs_per_query,
        "initial_fraction": initial_fraction,
        "mix": list(DRIFT_MIX),
        "auto_analyze": auto_analyze,
        "baseline": baseline,
        "stale": stale,
        "recovered": recovered,
        "regression_staging": {
            "template": REGRESSION_TEMPLATE.strip(),
            "fast_median_seconds": _median(fast),
            "slow_median_seconds": _median(slow),
            "flagged": regressions,
        },
        "recommendations": recommendations,
        "recommendation_kinds": kinds,
        "actions": actions,
        "auto_applied": int(
            db.metrics.count("advisor.applied.reanalyze")),
        "recovery": {
            "suite_p95_ratio_vs_baseline": suite_ratio,
            "stale_max_q_median": stale["suite_max_q_median"],
            "recovered_max_q_median": recovered["suite_max_q_median"],
            "breached_queries": breached_queries,
        },
        "workload_stats": db.statements.workload_stats(),
    }
