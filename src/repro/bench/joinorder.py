"""Large-join search benchmark: compile time, optimality, budgets.

Drives the :mod:`repro.workloads.joins` topologies through the join
strategies of :mod:`repro.orca.largejoin` and records the three things
the adaptive selector promises:

* **curves** — median optimize-stage time per (topology, relation
  count, strategy): the polynomial strategies stay flat where full DP
  blows up;
* **optimality** — forced GOO/greedy plan cost relative to the
  full-DP reference on every DP-feasible (n <= ``DP_MAX_UNITS``)
  topology;
* **budget** — wide joins under a tight ``CompileBudget``: every run
  must stay on an Orca plan (best-incumbent degradation), never escape
  to the MySQL fallback;
* **dp_comparison** — at 20+ relations, adaptive selection versus
  forcing full DP into its budget-abort path: the selector's plan
  arrives an order of magnitude faster and returns identical results.

Strategies are forced through ``OrcaConfig.join_strategy``
(:func:`repro.bench.harness.forced_orca_config`) with the plan cache
bypassed, so each sample re-runs the search it claims to measure.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    _median,
    _write_json,
    forced_orca_config,
    results_match,
)
from repro.database import Database, DatabaseConfig
from repro.observability import find_spans
from repro.orca.largejoin import DP_MAX_UNITS
from repro.workloads.joins import JoinTopology, load_topology, make_topology

#: Forced-strategy policies measured by the compile-time curves.
CURVE_STRATEGIES = ("adaptive", "dp", "goo", "greedy")


def _fresh_db(topology: JoinTopology, **config) -> Database:
    """A loaded database that has compiled the topology's query once,
    untimed: a database's first compile also fills its metadata cache
    and warms the interpreter, which no timed strategy should pay."""
    db = Database(DatabaseConfig(complex_query_threshold=3, **config))
    load_topology(db, topology)
    db.compile_only(topology.query, optimizer="orca")
    return db


def _search_attrs(result) -> Dict[str, object]:
    """Join-search facts of a traced run's widest memo_search span."""
    attrs: Dict[str, object] = {"join_strategy": None, "join_units": 0,
                                "join_budget_degradations": 0,
                                "best_cost": 0.0}
    if result.trace is None:
        return attrs
    for span in find_spans(result.trace, "memo_search"):
        units = span.attributes.get("join_units", 0)
        if span.attributes.get("join_strategy") is not None \
                and units >= attrs["join_units"]:
            attrs["join_strategy"] = span.attributes["join_strategy"]
            attrs["join_units"] = units
            attrs["best_cost"] = span.attributes.get("best_cost", 0.0)
        attrs["join_budget_degradations"] += span.attributes.get(
            "join_budget_degradations", 0)
    return attrs


def _timed_strategy(db: Database, sql: str, strategy: str,
                    samples: int) -> Dict[str, object]:
    """Median optimize time + search facts for one forced strategy."""
    optimize: List[float] = []
    result = None
    with forced_orca_config(join_strategy=strategy):
        for __ in range(samples):
            result = db.run(sql, optimizer="orca", trace=True,
                            use_plan_cache=False)
            optimize.append(result.compile_seconds)
    attrs = _search_attrs(result)
    return {
        "optimize_median_seconds": _median(optimize),
        "strategy_used": attrs["join_strategy"],
        "join_units": attrs["join_units"],
        "best_cost": attrs["best_cost"],
        "budget_degradations": attrs["join_budget_degradations"],
        "optimizer_used": result.optimizer_used,
        "fallback_reason": (result.fallback_reason.value
                            if result.fallback_reason else None),
        "rows": len(result.rows),
    }


def run_joinorder_bench(
        curve_points: Sequence[Tuple[str, int]],
        optimality_points: Sequence[Tuple[str, int]],
        budget_points: Sequence[Tuple[str, int]],
        dp_comparison_point: Tuple[str, int] = ("chain", 20),
        samples: int = 3,
        scale: float = 1.0,
        seed: int = 1234,
        tight_budget_seconds: float = 0.25,
        dp_reference_budget_seconds: float = 2.5,
        progress: Optional[Callable[[str], None]] = None,
        emit_json: Optional[str] = None) -> dict:
    """Run the whole large-join benchmark; returns a JSON-able payload.

    ``curve_points`` / ``optimality_points`` / ``budget_points`` are
    ``(topology_kind, relation_count)`` pairs.  Full DP only joins the
    compile-time curves at DP-feasible widths; past the selector cutoff
    its cost is measured once, head-to-head, at ``dp_comparison_point``:
    forced ``dp`` under ``dp_reference_budget_seconds`` (it exhausts the
    budget, then degrades to its seeded incumbent) versus ``adaptive``
    under the same budget.
    """
    curves: List[dict] = []
    for kind, relations in curve_points:
        topology = make_topology(kind, relations, seed=seed, scale=scale)
        db = _fresh_db(topology)
        entry: Dict[str, object] = {"topology": kind,
                                    "relations": relations,
                                    "strategies": {}}
        for strategy in CURVE_STRATEGIES:
            if strategy == "dp" and relations > DP_MAX_UNITS:
                continue  # measured head-to-head under a budget below
            entry["strategies"][strategy] = _timed_strategy(
                db, topology.query, strategy, samples)
        curves.append(entry)
        if progress is not None:
            shown = " ".join(
                f"{name}="
                f"{row['optimize_median_seconds'] * 1000:.1f}ms"
                for name, row in entry["strategies"].items())
            progress(f"curve {kind}{relations}: {shown}")

    optimality: List[dict] = []
    for kind, relations in optimality_points:
        topology = make_topology(kind, relations, seed=seed, scale=scale)
        db = _fresh_db(topology)
        rows: Dict[str, dict] = {}
        for strategy in CURVE_STRATEGIES:
            if strategy == "adaptive":
                continue
            rows[strategy] = _timed_strategy(db, topology.query,
                                             strategy, 1)
        reference = rows["dp"]["best_cost"]
        entry = {"topology": kind, "relations": relations,
                 "dp_cost": reference,
                 "cost_ratio_vs_dp": {
                     name: (row["best_cost"] / reference
                            if reference else 1.0)
                     for name, row in rows.items() if name != "dp"}}
        optimality.append(entry)
        if progress is not None:
            shown = " ".join(f"{name}={ratio:.3f}x" for name, ratio
                             in entry["cost_ratio_vs_dp"].items())
            progress(f"optimality {kind}{relations}: {shown}")

    budget: List[dict] = []
    for kind, relations in budget_points:
        topology = make_topology(kind, relations, seed=seed, scale=scale)
        db = _fresh_db(topology,
                       orca_compile_budget_seconds=tight_budget_seconds)
        row = _timed_strategy(db, topology.query, "adaptive", 1)
        row.update(topology=kind, relations=relations,
                   budget_seconds=tight_budget_seconds)
        budget.append(row)
        if progress is not None:
            progress(f"budget {kind}{relations}: used "
                     f"{row['optimizer_used']} via "
                     f"{row['strategy_used']} in "
                     f"{row['optimize_median_seconds'] * 1000:.1f}ms "
                     f"(degradations {row['budget_degradations']})")

    kind, relations = dp_comparison_point
    topology = make_topology(kind, relations, seed=seed, scale=scale)
    db = _fresh_db(topology,
                   orca_compile_budget_seconds=dp_reference_budget_seconds)
    with forced_orca_config(join_strategy="dp"):
        start = time.perf_counter()
        dp_run = db.run(topology.query, optimizer="orca", trace=True,
                        use_plan_cache=False)
        dp_seconds = time.perf_counter() - start
    dp_attrs = _search_attrs(dp_run)
    adaptive = _timed_strategy(db, topology.query, "adaptive", samples)
    adaptive_seconds = adaptive["optimize_median_seconds"]
    dp_comparison = {
        "topology": kind,
        "relations": relations,
        "dp_budget_seconds": dp_reference_budget_seconds,
        "dp_total_seconds": dp_seconds,
        "dp_optimize_seconds": dp_run.compile_seconds,
        "dp_optimizer_used": dp_run.optimizer_used,
        "dp_budget_degradations": dp_attrs["join_budget_degradations"],
        "adaptive_optimize_seconds": adaptive_seconds,
        "adaptive_strategy": adaptive["strategy_used"],
        "speedup": (dp_run.compile_seconds / adaptive_seconds
                    if adaptive_seconds > 0 else float("inf")),
        "results_identical": results_match(dp_run.rows, db.run(
            topology.query, optimizer="orca", use_plan_cache=False).rows),
    }
    if progress is not None:
        progress(f"dp comparison {kind}{relations}: forced dp "
                 f"{dp_run.compile_seconds * 1000:.0f}ms vs adaptive "
                 f"{adaptive_seconds * 1000:.1f}ms "
                 f"({dp_comparison['speedup']:.1f}x)")

    payload = {
        "suite": "joinorder",
        "samples": samples,
        "scale": scale,
        "seed": seed,
        "curves": curves,
        "optimality": optimality,
        "budget": budget,
        "dp_comparison": dp_comparison,
    }
    if emit_json is not None:
        _write_json(emit_json, payload)
    return payload
