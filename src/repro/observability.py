"""End-to-end optimizer observability: tracing and metrics.

The paper evaluates the integration through timings and plan quality
(Section 7), but a production optimizer lives or dies by its
introspection surface: *where* does a detour spend its time (parse-tree
conversion, metadata fetch, memo search, plan conversion, refinement)
and *why* did a plan win or lose?  This module is the common sink for
both questions:

* :class:`Span` / :class:`Tracer` — hierarchical per-statement spans
  covering every pipeline stage.  Spans are context managers, close in
  LIFO order even when an exception unwinds through them (the aborted
  Orca spans of a contained detour stay in the trace, marked with the
  error), and export as JSON-ready dicts;
* :class:`NullTracer` / :data:`NOOP_TRACER` — the zero-cost default:
  every instrumentation hook degrades to a shared no-op span, so an
  untraced statement pays only an attribute lookup per hook;
* :class:`MetricsRegistry` — process-wide counters, gauges, and
  streaming histograms (p50/p95/p99 over a bounded reservoir) for
  detour rate, fallback reasons, memo effort, cost-model evaluations,
  and metadata-cache hits/misses.  The resilience layer's
  :class:`repro.resilience.FallbackLog` feeds the same registry, so one
  report answers "what happened to this statement and why".

Span taxonomy (names are stable API, read by the tests and tools)::

    statement
      parse
      prepare
      route              (plan_cache attribute: hit / miss / bypass)
      orca_detour
        preprocess
        metadata_lookup   (one per metadata-cache miss)
        parse_tree_convert  (one per query block)
        memo_search         (one per query block)
        plan_convert
      mysql_optimize      (fallbacks and simple queries)
      refine
      execute
        lower             (first batch run of a fresh plan: compiled_exprs,
                           outcome = batch | row)

A statement served from the plan cache emits only ``statement``,
``parse``, ``route`` (with ``plan_cache=hit``), and ``execute`` — the
skipped optimize stages (and the batch lowering the cached executor
already holds) are the saving being traced.  The
``memo_search`` span carries the search-effort counters
(``cost_evaluations``, ``memo_offered``, ``pruned_candidates``,
``access_memo_hits``, ``best_cost``) the perf benches aggregate.
"""

from __future__ import annotations

import random
import re
import time
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "MetricsDelta",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NullTracer",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "find_spans",
    "graft_span",
    "interpolated_quantile",
    "stage_durations",
]


# -- spans -------------------------------------------------------------------------


class Span:
    """One timed pipeline stage; a context manager node in the trace tree."""

    __slots__ = ("name", "start", "end", "attributes", "children",
                 "_tracer")

    def __init__(self, name: str, tracer: "Tracer",
                 attributes: Optional[dict] = None) -> None:
        self.name = name
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = attributes or {}
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.attributes.setdefault("error", type(exc).__name__)
            self.attributes.setdefault("error_message", str(exc))
        self._tracer._close(self)
        return False  # never swallow

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) span attributes."""
        self.attributes.update(attributes)
        return self

    # -- inspection --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds from open to close (0.0 while the span is open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Nested JSON-ready representation (children inline).

        A span that never closed (the statement aborted mid-execute, or
        the export happened while the statement is still running) is
        marked ``closed: false`` and carries ``duration: null`` — a
        fabricated 0.0 would read as "instant", which is exactly wrong
        for the span that was open the longest.
        """
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration if self.closed else None,
            "closed": self.closed,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def to_dicts(self) -> List[dict]:
        """Flat JSON trace export: one dict per span, pre-order.

        ``depth`` and ``parent`` (the parent's index in the list) make
        the tree reconstructible without nesting — the format external
        tools consume.  Unclosed spans export with
        ``closed: false`` and a null duration (see :meth:`to_dict`).
        """
        out: List[dict] = []

        def emit(span: "Span", depth: int, parent: Optional[int]) -> None:
            index = len(out)
            out.append({
                "name": span.name,
                "start": span.start,
                "duration": span.duration if span.closed else None,
                "closed": span.closed,
                "depth": depth,
                "parent": parent,
                "attributes": dict(span.attributes),
            })
            for child in span.children:
                emit(child, depth + 1, index)

        emit(self, 0, None)
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, duration={self.duration:.6f}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects hierarchical spans for one or more statements.

    The tracer owns a LIFO stack of open spans; ``span()`` creates a
    child of the innermost open span (or a new root).  Closing is
    resilient: if a span exits while descendants are still open (an
    exception skipped their ``__exit__``, or a generator was abandoned),
    the stack unwinds to the exiting span so the tree stays consistent.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, /, **attributes: object) -> Span:
        return Span(name, self, attributes or None)

    # -- internal lifecycle (called by Span) ---------------------------------------

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        span.start = self._clock()
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        now = self._clock()
        # Unwind to (and including) the exiting span; close any leaked
        # descendants on the way so every span in the tree ends.
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = now
            if top is span:
                break

    # -- inspection ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def last_root(self) -> Optional[Span]:
        return self.roots[-1] if self.roots else None

    def export(self) -> List[dict]:
        """Flat JSON export of every recorded root trace."""
        out: List[dict] = []
        for root in self.roots:
            out.extend(root.to_dicts())
        return out

    def reset(self) -> None:
        self.roots = []
        self._stack = []


class _NullSpan:
    """The shared do-nothing span every disabled hook receives."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0

    attributes: Dict[str, object] = {}
    children: List[Span] = []


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-cost tracer: every hook returns the shared no-op span."""

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, /, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    @property
    def last_root(self) -> None:
        return None

    def export(self) -> List[dict]:
        return []

    def reset(self) -> None:
        pass


#: The process-wide default: instrumentation hooks against this tracer
#: cost one attribute lookup and one no-op context switch.
NOOP_TRACER = NullTracer()


def find_spans(root, name: str) -> list:
    """Every span named ``name`` under ``root``, pre-order.

    ``root`` may be a live :class:`Span`, one *exported* nested dict
    (:meth:`Span.to_dict`), or a flat exported list
    (:meth:`Span.to_dicts` / ``StatementResult.trace_export()``) — so
    trace consumers can search a JSON export exactly like a live tree.
    The return items match the input shape (spans in, dicts out of a
    dict export).
    """
    if isinstance(root, Span):
        return [span for span in root.walk() if span.name == name]
    if isinstance(root, dict):
        out: List[dict] = []
        stack = [root]
        while stack:
            node = stack.pop(0)
            if node.get("name") == name:
                out.append(node)
            stack[0:0] = node.get("children", ())
        return out
    return [node for node in root if node.get("name") == name]


def graft_span(parent: Span, name: str, start: float, end: float,
               **attributes: object) -> Span:
    """Attach an already-finished span under ``parent``.

    Used to splice telemetry that was recorded *elsewhere* — a forked
    morsel worker, a remote process — into a live trace: the child span
    never passes through the tracer's open/close stack, its lifetime is
    whatever the recorder measured.  No-op (returns the parent) when
    the parent is the shared null span of a disabled tracer.
    """
    if not isinstance(parent, Span):
        return parent
    span = Span(name, parent._tracer, attributes or None)
    span.start = start
    span.end = end
    parent.children.append(span)
    return span


def stage_durations(root: Span) -> Dict[str, float]:
    """Total seconds per span name across the tree under ``root``.

    Multiple spans with one name (e.g. ``memo_search`` per query block)
    are summed — the per-stage breakdown EXPLAIN ANALYZE's footer and
    the statement log's records carry.
    """
    totals: Dict[str, float] = {}
    for span in root.walk():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


# -- metrics ------------------------------------------------------------------------


def interpolated_quantile(ordered: List[float], q: float) -> float:
    """Linear-interpolated quantile of sorted values (0.0 when empty)."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class StreamingHistogram:
    """Streaming quantile sketch: exact until the reservoir fills, then a
    uniform reservoir sample (seeded, so runs are reproducible).

    Count / sum / min / max stay exact regardless of sample size; the
    p50/p95/p99 answers come from the reservoir.
    """

    RESERVOIR_SIZE = 512

    def __init__(self, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._rng = random.Random(seed)
        self._sorted = True

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self.RESERVOIR_SIZE:
            self._samples.append(value)
            self._sorted = False
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._samples[slot] = value
                self._sorted = False

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the reservoir (0 <= q <= 1)."""
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return interpolated_quantile(self._samples, q)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Process-wide named counters, gauges, and streaming histograms.

    Names are dotted strings (``detour.entered``, ``mdcache.hits``,
    ``orca.memo_groups``); unknown names read as zero, so report code
    never KeyErrors on a path that was not exercised.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}
        self._gauge_callbacks: Dict[str, Callable[[], float]] = {}

    # -- counters ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def count(self, name: str) -> float:
        return self._counters.get(name, 0)

    # -- gauges -----------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str) -> float:
        self._materialize_gauges()
        return self._gauges.get(name, 0.0)

    def register_gauge(self, name: str,
                       callback: Callable[[], float]) -> None:
        """Register a gauge computed at export time.

        Derived values (hit ratios, live sizes) would need a recompute
        on every event if stored eagerly; a callback is evaluated only
        when an export (``to_dict`` / ``to_prometheus`` / ``report`` /
        ``gauge``) actually wants the number.  Registrations survive
        :meth:`reset` — they describe live objects, not samples.
        """
        self._gauge_callbacks[name] = callback

    def _materialize_gauges(self) -> None:
        for name, callback in self._gauge_callbacks.items():
            self._gauges[name] = float(callback())

    # -- histograms -------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = StreamingHistogram()
            self._histograms[name] = histogram
        histogram.observe(value)

    def histogram(self, name: str) -> Optional[StreamingHistogram]:
        return self._histograms.get(name)

    def declare_histogram(self, name: str) -> StreamingHistogram:
        """Register a histogram before any observation arrives.

        Exports must tolerate the empty histogram this creates: a
        zero-sample reservoir has no quantiles, so ``to_prometheus``
        emits only ``_sum``/``_count`` and ``report`` marks it empty
        instead of printing fabricated zeros (or raising)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = StreamingHistogram()
            self._histograms[name] = histogram
        return histogram

    # -- derived ----------------------------------------------------------------

    def ratio(self, numerator: str, denominator: str) -> float:
        """counter(numerator) / counter(denominator), 0.0 when empty."""
        den = self.count(denominator)
        if den <= 0:
            return 0.0
        return self.count(numerator) / den

    def counters_with_prefix(self, prefix: str) -> Dict[str, float]:
        return {name: value for name, value in sorted(self._counters.items())
                if name.startswith(prefix)}

    # -- export -----------------------------------------------------------------

    def to_dict(self) -> dict:
        self._materialize_gauges()
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {name: histogram.summary()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """The whole registry in Prometheus text exposition format.

        Counters export as monotonic counters (``_total`` suffix),
        gauges as gauges, and streaming histograms as summaries
        (``quantile`` labels plus ``_sum`` / ``_count``).  Dots and any
        other invalid characters in registry names become underscores.
        """
        self._materialize_gauges()
        lines: List[str] = []
        for name, value in sorted(self._counters.items()):
            metric = _prometheus_name(name, prefix) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prometheus_value(value)}")
        for name, value in sorted(self._gauges.items()):
            metric = _prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prometheus_value(value)}")
        for name, histogram in sorted(self._histograms.items()):
            metric = _prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} summary")
            # A declared-but-unobserved histogram has no reservoir to
            # interpolate over; a summary with no quantile lines is
            # valid exposition, a fabricated 0.0 quantile is not.
            if histogram.count > 0:
                for q in ("0.5", "0.95", "0.99"):
                    value = histogram.quantile(float(q))
                    lines.append(f'{metric}{{quantile="{q}"}} '
                                 f"{_prometheus_value(value)}")
            lines.append(
                f"{metric}_sum {_prometheus_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def report(self) -> str:
        self._materialize_gauges()
        lines: List[str] = []
        if self._counters:
            lines.append("counters:")
            for name, value in sorted(self._counters.items()):
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name + ':':<32} {shown}")
        if self._gauges:
            lines.append("gauges:")
            for name, value in sorted(self._gauges.items()):
                lines.append(f"  {name + ':':<32} {value:g}")
        if self._histograms:
            lines.append("histograms (count / p50 / p95 / p99 / max):")
            for name, histogram in sorted(self._histograms.items()):
                if histogram.count == 0:
                    lines.append(f"  {name + ':':<32}      0 / (empty)")
                    continue
                s = histogram.summary()
                lines.append(
                    f"  {name + ':':<32} {s['count']:>6} / "
                    f"{s['p50']:.6g} / {s['p95']:.6g} / "
                    f"{s['p99']:.6g} / {s['max']:.6g}")
        if not lines:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class MetricsDelta:
    """A picklable, mergeable slice of registry activity.

    Forked morsel workers cannot write to the parent's
    :class:`MetricsRegistry` (it lives in another process), so each
    worker records into one of these — plain dicts and lists, cheap to
    pickle over the existing result pipes — and the coordinator folds
    it into the real registry with :meth:`merge_into`.  Counter bumps
    add; histogram observations replay one by one, so the parent's
    reservoir sees the same stream it would have seen in-process.
    """

    __slots__ = ("counters", "observations")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.observations: List[tuple] = []

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self.observations.append((name, float(value)))

    def merge(self, other: "MetricsDelta") -> None:
        """Fold another delta into this one (worker → op aggregation)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.observations.extend(other.observations)

    def merge_into(self, registry: Optional[MetricsRegistry]) -> None:
        """Replay this delta against a real registry (None = drop)."""
        if registry is None:
            return
        for name, value in sorted(self.counters.items()):
            registry.inc(name, value)
        for name, value in self.observations:
            registry.observe(name, value)

    def __getstate__(self) -> tuple:
        return (self.counters, self.observations)

    def __setstate__(self, state: tuple) -> None:
        self.counters, self.observations = state


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str, prefix: str) -> str:
    return prefix + _PROM_INVALID.sub("_", name)


def _prometheus_value(value: float) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)
