"""Benchmark harness reproducing the paper's tables and figures."""

from repro.bench.drift import run_drift_scenario
from repro.bench.harness import (
    BenchmarkResult,
    QueryTiming,
    plan_cache_report,
    results_match,
    run_compile_suite,
    run_executor_comparison,
    run_suite,
)
from repro.bench.joinorder import run_joinorder_bench
from repro.bench.report import (
    format_executor_report,
    format_figure10,
    format_figure11,
    format_figure12,
    format_joinorder_report,
    format_plan_cache_report,
    format_plan_quality_bench,
    format_table1,
    summarize,
    summarize_plan_quality,
)

__all__ = [
    "BenchmarkResult",
    "QueryTiming",
    "format_executor_report",
    "format_figure10",
    "format_figure11",
    "format_figure12",
    "format_joinorder_report",
    "format_plan_cache_report",
    "format_plan_quality_bench",
    "format_table1",
    "plan_cache_report",
    "results_match",
    "run_compile_suite",
    "run_drift_scenario",
    "run_executor_comparison",
    "run_joinorder_bench",
    "run_suite",
    "summarize",
    "summarize_plan_quality",
]
