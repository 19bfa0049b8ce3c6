"""EXPLAIN output in MySQL's FORMAT=TREE style.

Orca-assisted plans are tagged ``EXPLAIN (ORCA)`` on the first line, and
cost/row estimates shown on each node are whichever optimizer's estimates
were copied into the plan (Section 4.2.2 / Listing 7).  Correlated
materialisations carry the "(invalidate on row from ...)" annotation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sql import ast
from repro.executor import plan as p
from repro.plan_quality import per_loop_q


def expr_text(expr: ast.Expr) -> str:
    """Render an expression in compact SQL-ish text for plan labels."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, str):
            return f"'{value}'"
        return str(value)
    if isinstance(expr, ast.ColumnRef):
        return expr.display
    if isinstance(expr, ast.BinaryExpr):
        return (f"({expr_text(expr.left)} {expr.op.value} "
                f"{expr_text(expr.right)})")
    if isinstance(expr, ast.NotExpr):
        return f"(not {expr_text(expr.operand)})"
    if isinstance(expr, ast.NegExpr):
        return f"(-{expr_text(expr.operand)})"
    if isinstance(expr, ast.IsNullExpr):
        suffix = "is not null" if expr.negated else "is null"
        return f"({expr_text(expr.operand)} {suffix})"
    if isinstance(expr, ast.BetweenExpr):
        word = "not between" if expr.negated else "between"
        return (f"({expr_text(expr.operand)} {word} {expr_text(expr.low)} "
                f"and {expr_text(expr.high)})")
    if isinstance(expr, ast.LikeExpr):
        word = "not like" if expr.negated else "like"
        return f"({expr_text(expr.operand)} {word} {expr_text(expr.pattern)})"
    if isinstance(expr, ast.InListExpr):
        word = "not in" if expr.negated else "in"
        items = ", ".join(expr_text(item) for item in expr.items)
        return f"({expr_text(expr.operand)} {word} ({items}))"
    if isinstance(expr, ast.InSubqueryExpr):
        word = "not in" if expr.negated else "in"
        return f"({expr_text(expr.operand)} {word} (subquery))"
    if isinstance(expr, ast.ExistsExpr):
        word = "not exists" if expr.negated else "exists"
        return f"{word}(subquery)"
    if isinstance(expr, ast.ScalarSubquery):
        return "(subquery)"
    if isinstance(expr, ast.AggCall):
        if expr.star:
            return "count(*)"
        inner = expr_text(expr.arg) if expr.arg is not None else ""
        distinct = "distinct " if expr.distinct else ""
        return f"{expr.func.value.lower()}({distinct}{inner})"
    if isinstance(expr, ast.CaseExpr):
        return "case ... end"
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(expr_text(arg) for arg in expr.args)
        return f"{expr.name.lower()}({args})"
    if isinstance(expr, ast.WindowCall):
        return f"{expr.func.lower()}(...) over (...)"
    if isinstance(expr, ast.GroupingCall):
        return f"grouping({expr_text(expr.arg)})"
    if isinstance(expr, ast.IntervalLiteral):
        interval = expr.interval
        if interval.months:
            return f"interval {interval.months} month"
        return f"interval {interval.days} day"
    if isinstance(expr, ast.Star):
        return "*"
    return type(expr).__name__


def explain_plan(query_plan: p.QueryPlan, analyze: bool = False,
                 footer: str = "") -> str:
    """Produce the EXPLAIN FORMAT=TREE-style text for a query plan.

    With ``analyze=True``, each node shows the always-on actual-row
    counters from the most recent execution next to the optimizer's
    estimate, plus the resulting Q-error — EXPLAIN ANALYZE style.  A
    non-empty ``footer`` (see :func:`format_stage_footer`) is appended
    verbatim.
    """
    header = "EXPLAIN (ORCA)" if query_plan.origin == "orca" \
        else "EXPLAIN"
    if analyze:
        header += " ANALYZE"
    lines: List[str] = [header]
    if query_plan.limit is not None:
        lines.append(f" > Limit: {query_plan.limit} row(s)")
    if query_plan.root is not None:
        _render(query_plan.root, lines, depth=1, analyze=analyze)
    else:
        lines.append(" -> Rows fetched before execution")
    for op, part in query_plan.union_parts:
        lines.append(f" -> {op.value}")
        if part.root is not None:
            _render(part.root, lines, depth=2, analyze=analyze)
    if footer:
        lines.append(footer)
    return "\n".join(lines)


#: Pipeline-order stage names shown in the stage-breakdown footer (only
#: stages that actually ran appear; ``statement``/``execute`` durations
#: are carried by the optimize/execute split line).
_FOOTER_STAGES = ("parse", "prepare", "route", "preprocess",
                  "metadata_lookup", "parse_tree_convert", "memo_search",
                  "plan_convert", "mysql_optimize", "refine")


def format_stage_footer(optimizer_used: str, optimize_seconds: float,
                        execute_seconds: float,
                        stages: Optional[dict] = None,
                        memo_groups: int = 0,
                        memo_alternatives: int = 0,
                        memo_pruned: int = 0,
                        executor_mode: Optional[str] = None,
                        batches: int = 0,
                        batch_rows: int = 0,
                        compiled_exprs: int = 0,
                        governor_stats: Optional[dict] = None,
                        join_strategy: Optional[str] = None,
                        join_units: int = 0,
                        join_budget_degradations: int = 0,
                        worker_spans: Optional[List[dict]] = None,
                        worker_skew: Optional[dict] = None,
                        parallel=None) -> str:
    """The EXPLAIN ANALYZE "stage breakdown" footer.

    Shows the optimize-vs-execute wall-clock split, the per-stage trace
    durations (when the statement ran traced), and — for Orca plans —
    the memo statistics, mirroring the paper's copy-over of Orca's
    numbers into MySQL's EXPLAIN (Section 6 / Listing 7).  When
    ``executor_mode`` is given, an executor line reports which engine
    ran and — for the batch engine — its batch and compiled-expression
    counts.  ``governor_stats`` (an
    :meth:`repro.governor.ExecutionGovernor.stats` snapshot) adds a
    resource-governance line: peak tracked operator memory, deadline
    budget used, and checkpoints hit.  ``join_strategy`` adds the
    join-order strategy the selector picked for the statement's widest
    joined component (with its relation count and any budget
    degradations).  ``worker_spans`` (exported ``parallel_worker`` span
    dicts from the cross-process telemetry) adds one line per morsel
    worker — morsels, rows, busy milliseconds — and ``worker_skew``
    (:meth:`repro.executor.parallel.ParallelContext.skew`) the
    distribution summary.  ``parallel`` (the execution's
    :class:`~repro.executor.parallel.ParallelContext`, present whenever
    more than one worker was requested) adds the fan-out decision and,
    when the gate costed an operator, its two estimates.
    """
    total = optimize_seconds + execute_seconds
    share = 100.0 * optimize_seconds / total if total > 0 else 0.0
    lines = ["", "Stage breakdown", "-" * 15,
             f"optimizer: {optimizer_used}",
             f"optimize:  {optimize_seconds * 1000.0:.3f} ms  "
             f"execute: {execute_seconds * 1000.0:.3f} ms  "
             f"(optimize share {share:.1f}%)"]
    if executor_mode is not None:
        executor_line = f"executor: {executor_mode}"
        if executor_mode == "batch":
            executor_line += (f" (batches={batches}, "
                              f"batch_rows={batch_rows}, "
                              f"compiled_exprs={compiled_exprs})")
        lines.append(executor_line)
    stages = stages or {}
    shown = [(name, stages[name]) for name in _FOOTER_STAGES
             if name in stages]
    for name, seconds in shown:
        lines.append(f"  {name + ':':<20} {seconds * 1000.0:9.3f} ms")
    if memo_groups:
        memo_line = (f"memo: {memo_groups} groups, "
                     f"{memo_alternatives} alternatives costed")
        if memo_pruned:
            memo_line += f", {memo_pruned} candidates pruned"
        lines.append(memo_line)
    if join_strategy is not None:
        strategy_line = (f"join search: {join_strategy} "
                         f"({join_units} relations)")
        if join_budget_degradations:
            strategy_line += (f", budget degradations "
                              f"{join_budget_degradations}")
        lines.append(strategy_line)
    if parallel is not None:
        decision_line = f"parallel: {parallel.decision}"
        if parallel.costed:
            decision_line += (
                f" (estimated serial {parallel.est_serial_ms:.1f} ms, "
                f"fan-out {parallel.est_fanout_ms:.1f} ms)")
        lines.append(decision_line)
    if worker_spans:
        # One worker can contribute several spans (one per parallel
        # operator); fold them so the footer shows totals per worker.
        per_worker: dict = {}
        for span in worker_spans:
            attrs = span.get("attributes", {})
            worker = attrs.get("worker", 0)
            totals = per_worker.setdefault(worker, [0, 0, 0.0])
            totals[0] += attrs.get("morsels", 0)
            totals[1] += attrs.get("rows", 0)
            totals[2] += attrs.get("seconds", 0.0)
        lines.append(f"  {len(per_worker)} workers")
        for worker in sorted(per_worker):
            morsels, rows, seconds = per_worker[worker]
            lines.append(f"  worker {worker}: {morsels} morsels, "
                         f"{rows} rows, {seconds * 1000.0:.3f} ms busy")
        if worker_skew is not None:
            lines.append(
                f"  skew: min {worker_skew['min_morsels']} / "
                f"max {worker_skew['max_morsels']} / "
                f"stddev {worker_skew['stddev_morsels']:.2f} "
                f"morsels per worker")
    if governor_stats is not None:
        peak = governor_stats.get("peak_tracked_bytes", 0)
        gov_line = (f"governor: peak tracked memory "
                    f"{peak / 1024.0:.1f} KiB")
        used = governor_stats.get("deadline_used_fraction")
        if used is not None:
            gov_line += f", deadline budget used {100.0 * used:.1f}%"
        gov_line += (f", checkpoints "
                     f"{governor_stats.get('checkpoints', 0)}")
        if governor_stats.get("spill_events"):
            gov_line += f", spills {governor_stats['spill_events']}"
        if governor_stats.get("low_memory"):
            gov_line += " (low-memory retry)"
        lines.append(gov_line)
    return "\n".join(lines)


def _fmt_estimate(rows: float) -> str:
    """Render a cardinality estimate without clamping.

    The cost model keeps its own >= 1 floors where it needs them; here
    the raw estimate is shown (``rows=0`` is meaningful — it is exactly
    the kind of sub-1-row estimate Q-error must see).  Integral values
    print as integers, fractional ones with two decimals.
    """
    value = float(rows)
    if value.is_integer():
        return str(int(value))
    return f"{value:.2f}"


def _render(node: p.PlanNode, lines: List[str], depth: int,
            analyze: bool = False) -> None:
    indent = "  " * depth
    annotation = f"  (cost={node.cost:.2f} rows={_fmt_estimate(node.rows)})"
    if analyze:
        actual = node.actual_rows
        loops = node.actual_loops
        q = per_loop_q(node.rows, actual, loops)
        annotation += (f" (estimated rows={_fmt_estimate(node.rows)} "
                       f"actual rows={actual} q={q:.2f}")
        if loops != 1:
            annotation += f" loops={loops}"
        annotation += ")"
        if node.actual_batches:
            annotation += f" (batches={node.actual_batches}"
            if node.px_workers:
                annotation += f" workers={node.px_workers}"
            annotation += ")"
    lines.append(f"{indent}-> {node.label()}{annotation}")
    if node.filter_conjuncts:
        text = " and ".join(expr_text(c) for c in node.filter_conjuncts)
        lines.append(f"{indent}     Filter: {text}")
    if isinstance(node, p.DerivedMaterializeNode):
        invalidation = node.invalidation_label()
        rebinds = ""
        if analyze and getattr(node, "actual_rebinds", None) is not None:
            rebinds = f" (rebinds={node.actual_rebinds})"
        if invalidation is None:
            lines.append(f"{indent}    -> Materialize{rebinds}")
        else:
            lines.append(
                f"{indent}    -> Materialize ({invalidation}){rebinds}")
        _render_subplan(node.subplan, lines, depth + 2, analyze)
        return
    if isinstance(node, p.CteScanNode):
        lines.append(f"{indent}    -> Materialize CTE {node.cte_name}")
        _render_subplan(node.subplan, lines, depth + 2, analyze)
        return
    for child in node.children():
        _render(child, lines, depth + 1, analyze)


def _render_subplan(subplan: p.QueryPlan, lines: List[str],
                    depth: int, analyze: bool = False) -> None:
    if subplan.root is not None:
        _render(subplan.root, lines, depth, analyze)
