"""Per-layer tracing taken from outside the engine.

This is the only file of the benchmark that reaches below the public
facade, and only the traced run (``--trace 1``) imports it.  It times
calls into each layer's entry points by temporarily replacing the
attribute that callers look up — nothing under ``src/`` is edited, and
the untraced end-to-end run never sees a wrapper.

Layers are the package names.  An entry point that has moved is
reported as ``layer unavailable`` (with the import error) instead of
failing the run, so a refactor under ``src/`` cannot break the gate it
is measured by.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("sql", "mysql_optimizer", "bridge", "orca", "plan_cache",
          "executor", "storage", "catalog", "database")

CALL = "call"      # one span per call
EXECUTE = "execute"  # CALL, plus the busiest worker's seconds on the span
FOLD = "fold"      # hot leaf: calls fold into one span per parent
CHUNKS = "chunks"  # generator: each produced chunk is a folded call

#: (layer, module, attribute path, kind).  Module-level functions are
#: patched where the facade looks them up (``repro.database`` binds
#: ``parse_statement``/``prepare`` by name at import).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("database", "repro.database", "Database.run", CALL),
    ("database", "repro.database", "Database.compile_only", CALL),
    ("database", "repro.database", "Database.load", CALL),
    ("database", "repro.database", "Database.analyze", CALL),
    ("sql", "repro.database", "parse_statement", CALL),
    ("sql", "repro.sql.resolver", "Resolver.resolve", CALL),
    ("sql", "repro.database", "prepare", CALL),
    ("mysql_optimizer", "repro.mysql_optimizer.optimizer",
     "MySQLOptimizer.optimize", CALL),
    ("mysql_optimizer", "repro.mysql_optimizer.refinement",
     "PlanBuilder.build", CALL),
    ("bridge", "repro.bridge.router", "OrcaRouter.optimize_guarded", CALL),
    ("bridge", "repro.bridge.parse_tree_converter",
     "ParseTreeConverter.convert_block", CALL),
    ("bridge", "repro.bridge.plan_converter", "OrcaPlanConverter.convert",
     CALL),
    ("orca", "repro.orca.optimizer", "OrcaOptimizer.optimize_block", CALL),
    ("plan_cache", "repro.plan_cache", "PlanCache.lookup", CALL),
    ("plan_cache", "repro.plan_cache", "PlanCache.store", CALL),
    ("executor", "repro.executor.executor", "Executor.execute", EXECUTE),
    ("storage", "repro.storage.engine", "StorageEngine.load_rows", CALL),
    ("storage", "repro.storage.engine", "StorageEngine.table_scan_batches",
     CHUNKS),
    ("storage", "repro.storage.engine", "StorageEngine.index_lookup_rows",
     FOLD),
    ("storage", "repro.dml", "execute_insert", CALL),
    ("storage", "repro.dml", "execute_update", CALL),
    ("storage", "repro.dml", "execute_delete", CALL),
    ("catalog", "repro.storage.engine", "StorageEngine.analyze_all", CALL),
)

#: Engine stage (``StatementResult.stage_seconds()``) -> the outside
#: spans that should add up to it.
STAGE_SPANS = {
    "parse": ("parse_statement",),
    "prepare": ("Resolver.resolve", "prepare"),
    "mysql_optimize": ("MySQLOptimizer.optimize",),
    "orca_detour": ("OrcaRouter.optimize_guarded",),
    "refine": ("PlanBuilder.build",),
    "execute": ("Executor.execute", "execute_insert", "execute_update",
                "execute_delete"),
}


class Span:
    """One timed call (or, for folded leaves, all calls of one entry
    point under one parent)."""

    __slots__ = ("layer", "name", "parent", "phase", "start", "busy",
                 "calls", "worker_busy")

    def __init__(self, layer: str, name: str, parent: int, phase: str,
                 start: float) -> None:
        self.layer, self.name, self.parent = layer, name, parent
        self.phase, self.start = phase, start
        self.busy = 0.0
        self.calls = 1
        #: ``Executor.execute`` spans of parallel statements: seconds
        #: the busiest worker spent on morsels (0.0 when serial).
        self.worker_busy = 0.0


class LayerTrace:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Open spans: (span index, {entry point: folded child index}).
        self._stack: List[Tuple[int, Dict[str, int]]] = []
        #: Label copied onto every new span ("setup", "warmup", "timed").
        self.phase = "setup"
        #: layer -> import/lookup error, for layers that could not be
        #: wrapped at all.
        self.unavailable: Dict[str, str] = {}
        self._patches: List[Tuple[object, str, object, object]] = []
        self._installed = False
        self._resolve()

    # -- wrapping ---------------------------------------------------------------

    def _resolve(self) -> None:
        wrapped_layers = set()
        for layer, module_name, path, kind in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.unavailable.setdefault(
                    layer, f"{module_name}:{path}: {exc!r}")
                continue
            wrapper = {CALL: self._wrap_call, EXECUTE: self._wrap_execute,
                       FOLD: self._wrap_fold,
                       CHUNKS: self._wrap_chunks}[kind](layer, path, original)
            self._patches.append((owner, attr, original, wrapper))
            wrapped_layers.add(layer)
        # A layer with at least one working entry point still reports.
        for layer in wrapped_layers:
            error = self.unavailable.pop(layer, None)
            if error is not None:
                self.unavailable[f"{layer} (partly)"] = error

    def install(self) -> None:
        if not self._installed:
            for owner, attr, __, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, __ in self._patches:
                setattr(owner, attr, original)
            self._installed = False

    def _wrap_call(self, layer: str, name: str, fn: Callable,
                   after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer, name, stack[-1][0] if stack else -1,
                        self.phase, clock())
            spans.append(span)
            stack.append((index, {}))
            try:
                return fn(*args, **kwargs)
            finally:
                span.busy = clock() - span.start
                stack.pop()
                if after is not None:
                    after(args[0], span)
        return traced

    def _wrap_execute(self, layer: str, name: str, fn: Callable) -> Callable:
        def after(executor, span: Span) -> None:
            parallel = getattr(executor, "last_parallel", None)
            if parallel is not None and parallel.ops:
                span.worker_busy = max(
                    (row["seconds"] for row in parallel.utilization()),
                    default=0.0)
        return self._wrap_call(layer, name, fn, after)

    def _fold(self, layer: str, name: str, start: float,
              seconds: float) -> None:
        parent, folded = self._stack[-1] if self._stack else (-1, None)
        index = folded.get(name) if folded is not None else None
        if index is None:
            span = Span(layer, name, parent, self.phase, start)
            span.calls = 0
            index = len(self.spans)
            self.spans.append(span)
            if folded is not None:
                folded[name] = index
        span = self.spans[index]
        span.busy += seconds
        span.calls += 1

    def _wrap_fold(self, layer: str, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold(layer, name, start, clock() - start)
        return traced

    def _wrap_chunks(self, layer: str, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    chunk = next(iterator)
                except StopIteration:
                    self._fold(layer, name, start, clock() - start)
                    return
                # Close the interval before yielding: the consumer's
                # work on the chunk belongs to the consumer.
                self._fold(layer, name, start, clock() - start)
                yield chunk
        return traced

    # -- accounting -------------------------------------------------------------

    def layer_times(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per layer over one phase: ``busy`` (time inside the layer's
        outermost spans), ``self`` (busy minus child spans), ``calls``.
        """
        spans = self.spans
        self_time = [span.busy for span in spans]
        for span in spans:
            if span.parent >= 0:
                self_time[span.parent] -= span.busy
        out = {layer: {"busy": 0.0, "self": 0.0, "calls": 0}
               for layer in LAYERS}
        for index, span in enumerate(spans):
            if span.phase != phase:
                continue
            row = out[span.layer]
            row["self"] += self_time[index]
            row["calls"] += span.calls
            ancestor = span.parent
            while ancestor >= 0 and spans[ancestor].layer != span.layer:
                ancestor = spans[ancestor].parent
            if ancestor < 0:
                row["busy"] += span.busy
        return out

    def span_seconds(self, phase: str) -> Dict[str, float]:
        """Total busy seconds per entry point over one phase."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.phase == phase:
                totals[span.name] = totals.get(span.name, 0.0) + span.busy
        return totals

    def root_seconds(self, phase: str) -> float:
        return sum(span.busy for span in self.spans
                   if span.phase == phase and span.parent < 0)

    def fanout_wait_seconds(self, phase: str) -> float:
        """Coordinator time in parallel ``Executor.execute`` calls that
        the busiest worker was not busy for: fork, pipes, merge."""
        return sum(span.busy - span.worker_busy for span in self.spans
                   if span.phase == phase and span.worker_busy > 0.0)

    def export(self) -> List[dict]:
        return [{"id": index, "parent": span.parent, "layer": span.layer,
                 "name": span.name, "phase": span.phase,
                 "start": span.start, "busy": span.busy,
                 "calls": span.calls, "worker_busy": span.worker_busy}
                for index, span in enumerate(self.spans)]


def stage_mismatches(outside: Dict[str, float], engine: Dict[str, float],
                     total: float, tolerance: float = 0.10,
                     floor: float = 0.01) -> List[str]:
    """Compare the outside spans with the engine's own stage trace.

    ``outside`` is :meth:`LayerTrace.span_seconds` and ``engine`` the
    summed ``StatementResult.stage_seconds()`` of the same statements.
    Stages below ``floor`` of ``total`` are too short to compare.
    """
    warnings = []
    for stage, names in STAGE_SPANS.items():
        theirs = engine.get(stage, 0.0)
        ours = sum(outside.get(name, 0.0) for name in names)
        if max(ours, theirs) < floor * total:
            continue
        if abs(ours - theirs) > tolerance * max(ours, theirs):
            warnings.append(
                f"stage {stage}: outside {ours * 1e3:.1f} ms vs engine "
                f"{theirs * 1e3:.1f} ms differ by more than "
                f"{tolerance:.0%}")
    return warnings
