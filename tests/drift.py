"""The drifting-workload scenario behind ``tests/test_advisor_smoke.py``.

Stages the lifecycle the workload advisor exists for, on TPC-H data:

1. **Baseline** — a database loaded in full and ANALYZEd; the query mix
   runs against fresh statistics (the "well-tuned" reference plans and
   Q-errors).
2. **Drift** — a second database is loaded with only a fraction of the
   fact rows, ANALYZEd (statistics now describe the small heap), and
   then grown to full size through the storage load path — which, like
   a steady trickle of single-row DML under sampled stats maintenance,
   leaves the ANALYZE-time statistics badly stale.
3. **Stale phase** — the mix runs against stale statistics: per-node
   Q-errors breach, the statement log records the breaches, and the
   optimizer picks tiny-table plans for big-table reality.
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
   kinds (re-ANALYZE, index, plan regression); ``advisor.apply()``
   applies the re-ANALYZE advice right after the staged runs (advancing
   the drifted tables' catalog epochs, so cached plans over them
   recompile), and a second ``apply()`` purges the regressed
   fingerprint's cached plans.
6. **Recovered phase** — the mix runs again; Q-errors collapse back
   toward 1 and every query runs its baseline plan again.

Everything is seeded (datagen, literal choice, reservoir histograms),
so two runs of the scenario produce the same story.
"""

import gc
import random
from statistics import median
from typing import Dict, List, Tuple

from repro.database import Database
from repro.workloads.tpch.datagen import generate_tpch
from repro.workloads.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch.schema import create_tpch_tables

#: The steady query mix: scan-heavy, selective, and join-heavy TPC-H
#: queries that run in milliseconds at smoke scale.
DRIFT_MIX: Tuple[int, ...] = (1, 3, 6, 10, 12)

#: Tables whose statistics the drift stages leave stale (the fact and
#: large dimension tables; tiny fixed dimensions are loaded in full).
DRIFT_TABLES: Tuple[str, ...] = ("lineitem", "orders", "partsupp",
                                 "customer", "part")

#: Share of each drifting table's rows loaded before the stale ANALYZE.
INITIAL_FRACTION = 0.05

#: Runs per optimizer of the staged regression statement.
REGRESSION_RUNS = 4

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


def _run_mix(db: Database, runs_per_query: int) -> dict:
    """Run the mix; per query, the median worst-node Q-error and the
    distinct plans it ran (``plan_hashes``, sorted)."""
    per_query = {}
    for number in DRIFT_MIX:
        worst_q: List[float] = []
        plans = set()
        for __ in range(runs_per_query):
            result = db.run(TPCH_QUERIES[number])
            quality = result.plan_quality
            worst_q.append(quality.max_q if quality is not None else 1.0)
            plans.add(result.plan_hash)
        per_query[str(number)] = {"plan_hashes": sorted(plans),
                                  "max_q_median": median(worst_q)}
    return {"queries": per_query}


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


def run_drift_scenario(scale: float, seed: int, runs_per_query: int) -> dict:
    """Run the full drift story; returns the evidence of each stage."""
    data = generate_tpch(scale, seed)
    rng = random.Random(seed)

    # -- baseline: full data, fresh statistics --------------------------------
    baseline_db = Database()
    create_tpch_tables(baseline_db)
    for name, rows in data.items():
        baseline_db.load(name, rows)
    baseline_db.analyze()
    baseline = _run_mix(baseline_db, runs_per_query)

    # -- drift: analyze a fraction, then grow under the stats' feet -----------
    db = Database()
    create_tpch_tables(db)
    remainder = _load_fraction(db, data, INITIAL_FRACTION)
    db.analyze()
    for name, rows in remainder.items():
        db.load(name, rows)

    stale = _run_mix(db, runs_per_query)

    # -- stage the plan regression: reroute one statement mid-workload --------
    def regression_run(optimizer: str) -> None:
        lo = 1 + rng.randrange(10)
        hi = 15 + rng.randrange(10)
        db.run(REGRESSION_TEMPLATE.format(lo=lo, lo_hi=lo + 10,
                                          hi=hi, hi_hi=hi + 10),
               optimizer=optimizer)

    # The detector reads a p95 over four runs — their maximum — so one
    # full garbage collection inside a millisecond-scale fast run would
    # hide the regression.  Collect now: the staged runs then measure
    # plans, not whichever run the collector's countdown happens to hit.
    gc.collect()
    for optimizer in ("orca", "mysql"):
        for __ in range(REGRESSION_RUNS):
            regression_run(optimizer)
    # One re-ANALYZE sweep, once the stale phase and the staged
    # regression have produced their evidence.
    db.advisor.apply(kinds=("reanalyze",))
    regressions = [r.to_dict()
                   for r in db.statements.unresolved_regressions()]

    # -- advice ----------------------------------------------------------------
    recommendations = [rec.to_dict()
                       for rec in db.advisor.recommendations()]

    # -- apply + recovery ------------------------------------------------------
    actions = db.advisor.apply(kinds=("plan_regression",))
    recovered = _run_mix(db, runs_per_query)

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
        "baseline": baseline,
        "stale": stale,
        "recovered": recovered,
        "regression_staging": {"flagged": regressions},
        "recommendations": recommendations,
        "recommendation_kinds": sorted({rec["kind"]
                                        for rec in recommendations}),
        "actions": actions,
        "reanalyze_applied": int(
            db.metrics.count("advisor.applied.reanalyze")),
        "recovery": {"breached_queries": breached_queries},
    }
