"""Report formatting: the same rows/series the paper's figures show.

``format_figure10`` / ``format_figure11`` print per-query bar-chart data
(MySQL vs Orca execution time); ``format_figure12`` prints the scatter of
Orca/MySQL ratio against MySQL run time; ``format_table1`` prints the
compile-overhead table.  All output is plain text so the benches can tee
it into logs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import BenchmarkResult, QueryTiming


def _bar(seconds: float, scale: float, width: int = 30) -> str:
    if scale <= 0:
        return ""
    filled = int(round(width * min(1.0, seconds / scale)))
    return "#" * max(0, filled)


def _per_query_chart(result: BenchmarkResult, title: str) -> str:
    scale = max((t.mysql_seconds for t in result.timings), default=1.0)
    scale = max(scale, max((t.orca_seconds for t in result.timings),
                           default=1.0))
    lines = [title, "=" * len(title),
             f"{'query':>6} | {'MySQL(s)':>9} | {'Orca(s)':>9} | "
             f"{'speedup':>8} |"]
    for timing in result.timings:
        mark = ""
        if timing.mysql_timed_out:
            mark = " (mysql cancelled)"
        if timing.orca_timed_out:
            mark += " (orca cancelled)"
        if timing.orca_fallback_reason is not None:
            mark += f" (orca fell back: {timing.orca_fallback_reason})"
        lines.append(
            f"Q{timing.number:>5} | {timing.mysql_seconds:>9.3f} | "
            f"{timing.orca_seconds:>9.3f} | {timing.speedup:>7.1f}X |"
            f" {_bar(timing.mysql_seconds, scale)}{mark}")
    lines.append("")
    lines.append(f"total MySQL: {result.total_mysql:.2f}s   "
                 f"total Orca: {result.total_orca:.2f}s   "
                 f"reduction: {result.total_reduction_percent:.0f}%")
    ten_x = sorted(t.number for t in result.wins(10.0))
    hundred_x = sorted(t.number for t in result.wins(100.0))
    lines.append(f">=10X faster with Orca: {ten_x}")
    lines.append(f">=100X faster with Orca: {hundred_x}")
    fallbacks = result.fallback_counts
    if fallbacks:
        detail = ", ".join(f"{reason}: {count}"
                           for reason, count in sorted(fallbacks.items()))
        lines.append(f"orca fallbacks: {sum(fallbacks.values())} "
                     f"({detail})")
    return "\n".join(lines)


def format_figure10(result: BenchmarkResult) -> str:
    """Fig. 10: execution time for the TPC-H queries."""
    return _per_query_chart(
        result, "Figure 10 - Execution time for the TPC-H queries")


def format_figure11(result: BenchmarkResult) -> str:
    """Fig. 11: execution time for the TPC-DS queries."""
    return _per_query_chart(
        result, "Figure 11 - Execution time for the TPC-DS queries")


def format_figure12(result: BenchmarkResult) -> str:
    """Fig. 12: Orca/MySQL ratio vs MySQL run time (log-style buckets).

    "Orca is slower only on short queries": the points with ratio > 1
    should cluster at the left (small MySQL run times).
    """
    lines = ["Figure 12 - Orca is slower only on short queries",
             "=" * 48,
             f"{'query':>6} | {'MySQL(s)':>9} | {'Orca/MySQL':>10} |"]
    for timing in sorted(result.timings,
                         key=lambda t: t.mysql_seconds):
        marker = "  <-- Orca slower" if timing.ratio > 1.0 else ""
        lines.append(f"Q{timing.number:>5} | "
                     f"{timing.mysql_seconds:>9.3f} | "
                     f"{timing.ratio:>10.2f} |{marker}")
    slower = [t for t in result.timings if t.ratio > 1.0]
    if slower:
        median_slow = sorted(t.mysql_seconds for t in slower)[
            len(slower) // 2]
        lines.append("")
        lines.append(f"queries where Orca is slower: {len(slower)}; "
                     f"median MySQL time among them: {median_slow:.3f}s")
    return "\n".join(lines)


def format_table1(totals_tpch: Dict[str, float],
                  totals_tpcds: Dict[str, float]) -> str:
    """Table 1: total EXPLAIN times per compiler configuration."""
    lines = ["Table 1 - Orca query compilation overhead (seconds)",
             "=" * 52,
             f"{'Compiler':<28} | {'TPC-H':>8} | {'TPC-DS':>8}"]
    for label in totals_tpch:
        tpch = totals_tpch[label]
        tpcds = totals_tpcds.get(label, float('nan'))
        lines.append(f"{label:<28} | {tpch:>8.2f} | {tpcds:>8.2f}")
    return "\n".join(lines)


#: Optimizer-pipeline stages shown per query in the stage-breakdown
#: table, in pipeline order (``execute`` rides along for contrast).
_BREAKDOWN_STAGES = ("parse_tree_convert", "memo_search", "plan_convert",
                     "refine", "execute")

_BREAKDOWN_HEADERS = ("convert", "search", "plan-conv", "refine",
                      "execute")


def format_stage_breakdown(result: BenchmarkResult) -> str:
    """Per-query optimizer-stage table plus the suite's slowest stages.

    Requires the suite to have run with ``collect_stages=True`` (each
    timing's ``orca_stages`` holds per-span seconds); queries without
    stage data (timed out, or an untraced run) are listed with dashes.
    The trailing "top-3" list ranks *optimizer* stages — ``execute`` is
    excluded — by total seconds across the whole suite.
    """
    title = f"{result.name} - optimizer stage breakdown (ms per query)"
    header = f"{'query':>6} |" + "".join(
        f" {label:>9} |" for label in _BREAKDOWN_HEADERS)
    lines = [title, "=" * len(title), header]
    totals: Dict[str, float] = {}
    for timing in result.timings:
        cells = []
        for stage in _BREAKDOWN_STAGES:
            seconds = timing.orca_stages.get(stage)
            if seconds is None:
                cells.append(f" {'-':>9} |")
            else:
                cells.append(f" {seconds * 1000.0:>9.3f} |")
                totals[stage] = totals.get(stage, 0.0) + seconds
        lines.append(f"Q{timing.number:>5} |" + "".join(cells))
    optimizer_totals = sorted(
        ((stage, seconds) for stage, seconds in totals.items()
         if stage != "execute"),
        key=lambda item: item[1], reverse=True)
    lines.append("")
    if optimizer_totals:
        lines.append("top-3 slowest optimizer stages across the suite:")
        for rank, (stage, seconds) in enumerate(optimizer_totals[:3], 1):
            lines.append(f"  {rank}. {stage:<20} "
                         f"{seconds * 1000.0:9.3f} ms total")
    else:
        lines.append("no stage data recorded "
                     "(run the suite with collect_stages=True)")
    return "\n".join(lines)


def summarize(result: BenchmarkResult) -> Dict[str, object]:
    """Headline numbers used by assertions in the benches and tests."""
    return {
        "total_mysql": result.total_mysql,
        "total_orca": result.total_orca,
        "reduction_percent": result.total_reduction_percent,
        "orca_wins": sum(1 for t in result.timings if t.speedup > 1.0),
        "ten_x_wins": sorted(t.number for t in result.wins(10.0)),
        "hundred_x_wins": sorted(t.number for t in result.wins(100.0)),
        "mismatches": sorted(t.number for t in result.timings
                             if not t.results_match),
        "orca_fallbacks": result.fallback_counts,
    }


def summarize_plan_quality(result: BenchmarkResult) -> Dict[str, object]:
    """JSON-serialisable plan-quality payload for one suite run.

    Requires the suite to have run with ``collect_plan_quality=True``;
    per query it carries both optimizers' root and worst per-node
    Q-error plus the operator kind behind the worst estimate —
    the committed ``BENCH_planquality.json`` artifact.
    """
    queries: Dict[str, Dict[str, object]] = {}
    for timing in result.timings:
        queries[str(timing.number)] = {
            "mysql_root_q": timing.mysql_root_q,
            "mysql_max_q": timing.mysql_max_q,
            "mysql_worst_operator": timing.mysql_worst_operator,
            "orca_root_q": timing.orca_root_q,
            "orca_max_q": timing.orca_max_q,
            "orca_worst_operator": timing.orca_worst_operator,
            "results_match": timing.results_match,
        }
    collected = [t for t in result.timings if t.mysql_root_q > 0.0
                 and t.orca_root_q > 0.0]
    return {
        "suite": result.name,
        "queries": queries,
        "orca_better_or_equal_root": sorted(
            t.number for t in collected
            if t.orca_root_q <= t.mysql_root_q),
        "mysql_better_root": sorted(
            t.number for t in collected
            if t.orca_root_q > t.mysql_root_q),
    }


def format_plan_quality_bench(payload: Dict[str, object]) -> str:
    """Render a :func:`summarize_plan_quality` payload.

    One row per query: each optimizer's root and worst Q-error, and
    the operator kind behind the worst Orca estimate.
    """
    title = f"{payload['suite']}: cardinality estimate accuracy (Q-error)"
    lines = [title, "=" * len(title),
             f"{'query':>6} | {'mysql root q':>12} | {'mysql max q':>11} |"
             f" {'orca root q':>11} | {'orca max q':>10} |"
             f" worst orca operator"]
    queries: Dict[str, Dict[str, object]] = payload["queries"]
    for number in sorted(queries, key=int):
        row = queries[number]
        match = "" if row["results_match"] else "  RESULTS DIFFER"
        lines.append(
            f"Q{number:>5} |"
            f" {row['mysql_root_q']:>12.2f} |"
            f" {row['mysql_max_q']:>11.2f} |"
            f" {row['orca_root_q']:>11.2f} |"
            f" {row['orca_max_q']:>10.2f} |"
            f" {row['orca_worst_operator'] or '-'}{match}")
    lines.append("")
    better = payload["orca_better_or_equal_root"]
    worse = payload["mysql_better_root"]
    lines.append(f"root estimate at least as accurate under orca: "
                 f"{len(better)} queries")
    lines.append(f"root estimate better under mysql: "
                 f"{len(worse)} queries "
                 f"({', '.join(f'Q{n}' for n in worse) or 'none'})")
    return "\n".join(lines)


def format_executor_report(payload: Dict[str, object]) -> str:
    """Render a :func:`repro.bench.harness.run_executor_comparison`
    payload.

    One row per query: execute-stage medians under each engine, the
    speedup, what actually ran, and the batch engine's work counters;
    followed by the per-category median speedups the acceptance gate
    asserts on.
    """
    title = (f"{payload['suite']}: row vs batch executor "
             f"(batch size {payload['batch_size']}, "
             f"optimizer {payload['optimizer']})")
    lines = [title, "=" * len(title),
             f"{'query':>6} | {'row exec(ms)':>12} |"
             f" {'batch exec(ms)':>14} | {'speedup':>7} | {'ran as':>6} |"
             f" {'batches':>7} | {'batch rows':>10} | {'exprs':>5} |"]
    queries: Dict[str, Dict[str, object]] = payload["queries"]
    for number in sorted(queries, key=int):
        row = queries[number]
        match = "" if row["results_match"] else "  RESULTS DIFFER"
        lines.append(
            f"Q{number:>5} |"
            f" {row['row_execute_median_seconds'] * 1000.0:>12.3f} |"
            f" {row['batch_execute_median_seconds'] * 1000.0:>14.3f} |"
            f" {row['speedup']:>6.2f}x |"
            f" {row['ran_as']:>6} |"
            f" {row['batches']:>7} |"
            f" {row['batch_rows']:>10} |"
            f" {row['compiled_exprs']:>5} |{match}")
    categories: Dict[str, Dict[str, object]] = payload.get(
        "categories", {})
    if categories:
        lines.append("")
        for label in sorted(categories):
            entry = categories[label]
            numbers = ", ".join(f"Q{n}" for n in entry["queries"])
            lines.append(f"{label}: median speedup "
                         f"{entry['median_speedup']:.2f}x ({numbers})")
    return "\n".join(lines)


def format_plan_cache_report(payload: Dict[str, object]) -> str:
    """Render a :func:`repro.bench.harness.plan_cache_report` payload.

    One row per query: cold-vs-warm optimize medians (the cache's
    saving) and pruned-vs-unpruned cost-model evaluations (the
    branch-and-bound saving).
    """
    title = f"{payload['suite']}: plan cache and search pruning"
    lines = [title, "=" * len(title),
             f"{'query':>6} | {'cold opt(ms)':>12} | {'warm opt(ms)':>12} |"
             f" {'hits':>5} | {'evals':>11} | {'reduction':>9} |"]
    queries: Dict[str, Dict[str, object]] = payload["queries"]
    for number in sorted(queries, key=int):
        row = queries[number]
        lines.append(
            f"Q{number:>5} |"
            f" {row['cold_optimize_median_seconds'] * 1000.0:>12.3f} |"
            f" {row['warm_optimize_median_seconds'] * 1000.0:>12.3f} |"
            f" {row['warm_hits']:>2}/{row['warm_runs']:<2} |"
            f" {row['cost_evaluations_unpruned']:>4} ->"
            f" {row['cost_evaluations_pruned']:>4} |"
            f" {row['evaluation_reduction_percent']:>8.1f}% |")
    cache = payload["plan_cache"]
    lines.append("")
    lines.append(f"plan cache: {cache['hits']} hits / "
                 f"{cache['misses']} misses "
                 f"({100.0 * cache['hit_ratio']:.1f}%), "
                 f"{cache['evictions']} evictions, "
                 f"{cache['invalidations']} invalidations")
    lines.append(f"pruned candidates total: "
                 f"{payload['pruned_candidates_total']}")
    return "\n".join(lines)


def format_joinorder_report(payload: Dict[str, object]) -> str:
    """Render a :func:`repro.bench.joinorder.run_joinorder_bench`
    payload.

    Four sections: the per-strategy optimize-time curve (one row per
    topology x width, full DP blank past the selector cutoff), the plan
    cost ratio versus the full-DP reference at DP-feasible widths, the
    tight-budget wide-join runs (optimizer used, degradations — the
    no-fallback-escape evidence), and the forced-DP versus adaptive
    head-to-head at the comparison point.
    """
    title = (f"{payload['suite']}: large-join strategy selection "
             f"(samples {payload['samples']}, scale {payload['scale']})")
    lines = [title, "=" * len(title), ""]

    lines.append("optimize-stage median (ms) per forced strategy:")
    header = f"{'topology':>12} |"
    for name in ("adaptive", "dp", "goo", "greedy"):
        header += f" {name:>9} |"
    header += f" {'picked':>7}"
    lines.append(header)
    for entry in payload["curves"]:
        rows: Dict[str, Dict[str, object]] = entry["strategies"]
        line = f"{entry['topology']:>9}{entry['relations']:<3} |"
        for name in ("adaptive", "dp", "goo", "greedy"):
            row = rows.get(name)
            line += (f" {row['optimize_median_seconds'] * 1000:>9.1f} |"
                     if row is not None else f" {'-':>9} |")
        picked = rows["adaptive"]["strategy_used"] or "-"
        line += f" {picked:>7}"
        lines.append(line)

    lines.append("")
    lines.append("plan cost ratio vs full DP (1.00 = DP-optimal):")
    header = f"{'topology':>12} |"
    for name in ("goo", "greedy"):
        header += f" {name:>7} |"
    lines.append(header)
    for entry in payload["optimality"]:
        line = f"{entry['topology']:>9}{entry['relations']:<3} |"
        for name in ("goo", "greedy"):
            line += f" {entry['cost_ratio_vs_dp'][name]:>7.3f} |"
        lines.append(line)

    lines.append("")
    lines.append(f"wide joins under a "
                 f"{payload['budget'][0]['budget_seconds'] * 1000:.0f}ms "
                 f"compile budget (adaptive policy):")
    lines.append(f"{'topology':>12} | {'strategy':>8} | {'opt(ms)':>8} |"
                 f" {'optimizer':>9} | {'degraded':>8}")
    for row in payload["budget"]:
        line = (f"{row['topology']:>9}{row['relations']:<3} |"
                f" {row['strategy_used'] or '-':>8} |"
                f" {row['optimize_median_seconds'] * 1000:>8.1f} |"
                f" {row['optimizer_used']:>9} |"
                f" {row['budget_degradations']:>8}")
        if row["fallback_reason"] is not None:
            line += f"  FALLBACK: {row['fallback_reason']}"
        lines.append(line)

    comp = payload["dp_comparison"]
    lines.append("")
    lines.append(
        f"forced DP vs adaptive at "
        f"{comp['topology']}{comp['relations']} "
        f"({comp['dp_budget_seconds']:.1f}s budget): "
        f"dp optimize {comp['dp_optimize_seconds'] * 1000:.0f}ms "
        f"({comp['dp_budget_degradations']} degradations) vs adaptive "
        f"({comp['adaptive_strategy']}) "
        f"{comp['adaptive_optimize_seconds'] * 1000:.1f}ms -> "
        f"{comp['speedup']:.1f}x faster to optimize; results "
        f"{'identical' if comp['results_identical'] else 'DIFFER'}.")
    return "\n".join(lines)
