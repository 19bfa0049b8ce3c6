"""Fault containment for the Orca detour.

The paper's core operational promise is that the detour is *optional*:
on any bridge abort the system "resorts to the usual MySQL query
optimization" (Section 4.2.1).  This module makes that promise hold for
*every* failure mode, not just the typed aborts the bridge raises on
purpose:

* :class:`FallbackReason` — the taxonomy of why a query ended up on the
  MySQL optimizer after the detour was attempted (or skipped);
* :class:`DetourOutcome` — what one guarded detour produced: the
  router's ``optimize_guarded`` turns typed aborts, budget overruns and
  *unexpected* exceptions (``KeyError``, ``RecursionError``, ...) into a
  clean fallback with the reason and error details captured, and the
  facade records it once (registry counters, the statement's record);
* :class:`CompileBudget` — wall-clock and memo-group caps checked inside
  the Cascades search, so a pathological query aborts the detour instead
  of hanging compilation;
* :class:`CircuitBreaker` — per-statement-fingerprint quarantine: after
  N unexpected-exception fallbacks the fingerprint routes straight to
  MySQL until the breaker decays, mirroring how a production frontend
  isolates optimizer-crashing queries;
* :class:`FaultInjector` — deterministic, seedable fault injection at
  named points in the metadata provider, parse-tree converter,
  optimizer, and plan converter, so every fallback path can be tested
  deliberately.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    ExecutionError,
    OrcaError,
    ReproError,
    ResourceExhaustedError,
    SkeletonInvalidError,
    StatementCancelledError,
)


class FallbackReason(enum.Enum):
    """Why a query fell back to (or stayed on) the MySQL optimizer."""

    #: The bridge aborted on purpose with an ``OrcaError`` /
    #: ``OrcaFallbackError`` (unsupported construct, changed block
    #: structure, ...) — the paper's Section 4.2.1 path.
    TYPED_ABORT = "typed_abort"
    #: A non-Orca exception escaped the detour (a genuine bug); it was
    #: contained instead of crashing the query.
    UNEXPECTED_EXCEPTION = "unexpected_exception"
    #: The compile budget (wall clock or memo group cap) was exhausted.
    BUDGET_EXCEEDED = "budget_exceeded"
    #: The circuit breaker is open for this statement fingerprint; the
    #: detour was never entered.
    CIRCUIT_OPEN = "circuit_open"
    #: The plan converter produced best-position arrays that do not
    #: describe the query block (structure changed / coverage broken).
    SKELETON_INVALID = "skeleton_invalid"
    #: The statement overran its wall-clock deadline and was aborted at
    #: a governor checkpoint (execution-stage; the optimize-stage
    #: analogue is BUDGET_EXCEEDED).
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: The statement's CancelToken was set (``db.cancel()``) and the
    #: abort surfaced at the next cooperative checkpoint.
    STATEMENT_CANCELLED = "statement_cancelled"
    #: A pipeline-breaking operator charged past the statement memory
    #: cap and no degradation path could absorb the breach.
    RESOURCE_EXHAUSTED = "resource_exhausted"
    #: Execution failed with a runtime error (injected scan I/O fault,
    #: storage error, contained executor bug) — aborted cleanly, typed.
    EXEC_RUNTIME_ERROR = "exec_runtime_error"


# -- statement fingerprinting ------------------------------------------------------

_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
_NUMBER_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")
_WHITESPACE = re.compile(r"\s+")


@functools.lru_cache(maxsize=1024)
def statement_fingerprint(sql: str) -> str:
    """A stable digest of a statement with literals normalised away.

    Memoized on the raw SQL text (pure function, bounded cache): the
    facade fingerprints a statement more than once per execution —
    circuit breaker, plan cache, statement record — and a
    warm workload repeats the same text, so the regex+sha1 work runs
    once.

    ``WHERE o_totalprice > 100`` and ``WHERE o_totalprice > 250`` share a
    fingerprint, so the circuit breaker quarantines the statement *shape*
    that crashes the optimizer, not one literal binding of it.

    Deliberately NOT the plan-cache key: a cached plan has its literals
    compiled into the executor, so the cache keys on
    :func:`repro.plan_cache.statement_cache_key`, which preserves them.
    One fingerprint therefore maps to many cache entries — which is why
    a quarantined fingerprint must never be served from the cache (the
    facade refuses to store any plan whose compilation fell back).
    """
    text = _STRING_LITERAL.sub("?", sql)
    text = _NUMBER_LITERAL.sub("?", text)
    text = _WHITESPACE.sub(" ", text).strip().lower()
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


# -- compile budgets ---------------------------------------------------------------


class CompileBudget:
    """Wall-clock and memo-size caps for one Orca compilation.

    The Cascades search calls :meth:`check` as it expands memo groups;
    once either cap is hit a :class:`BudgetExceededError` aborts the
    detour (a typed error, so containment maps it to
    ``FallbackReason.BUDGET_EXCEEDED``) — unless the join search already
    holds a complete incumbent plan, in which case it calls
    :meth:`degrade` and finishes with that plan: every later check
    becomes a no-op so the wrap-up (plan conversion, refinement) runs to
    completion instead of tripping over the same exhausted budget.
    """

    def __init__(self, seconds: Optional[float] = None,
                 max_memo_groups: Optional[int] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.seconds = seconds
        self.max_memo_groups = max_memo_groups
        self._clock = clock
        self.started_at = clock()
        #: Set by :meth:`degrade` when the search settled for its best
        #: incumbent; from then on :meth:`check` never raises.
        self.degraded = False

    @classmethod
    def from_config(cls, config) -> "CompileBudget":
        return cls(
            seconds=config.orca_compile_budget_seconds,
            max_memo_groups=config.orca_memo_group_budget,
        )

    @property
    def unlimited(self) -> bool:
        return self.seconds is None and self.max_memo_groups is None

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock left before :meth:`check` raises.

        ``None`` means no time cap; a degraded budget reports ``0.0`` so
        the strategy selector picks the cheapest (greedy) search for any
        components still to come.
        """
        if self.degraded:
            return 0.0
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    def degrade(self) -> None:
        """Accept the best incumbent: silence all further checks."""
        self.degraded = True

    def check(self, memo_groups: int = 0) -> None:
        """Raise :class:`BudgetExceededError` when a cap is exhausted."""
        if self.degraded:
            return
        if self.seconds is not None:
            elapsed = self.elapsed()
            if elapsed > self.seconds:
                raise BudgetExceededError(
                    f"compile budget exceeded: {elapsed:.3f}s elapsed "
                    f"(budget {self.seconds:.3f}s)")
        if self.max_memo_groups is not None \
                and memo_groups > self.max_memo_groups:
            raise BudgetExceededError(
                f"compile budget exceeded: {memo_groups} memo groups "
                f"(budget {self.max_memo_groups})")


# -- detour outcomes ------------------------------------------------------------------


@dataclass
class DetourOutcome:
    """What one guarded detour attempt produced."""

    skeleton: Optional[object] = None
    reason: Optional[FallbackReason] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.skeleton is not None

    @property
    def error(self) -> Optional[str]:
        """``"Type: message"`` of the contained error, if one was."""
        if self.error_type is None:
            return None
        return f"{self.error_type}: {self.error_message}"


def classify_exception(exc: BaseException) -> FallbackReason:
    """Map an exception that escaped the detour onto the taxonomy."""
    if isinstance(exc, BudgetExceededError):
        return FallbackReason.BUDGET_EXCEEDED
    if isinstance(exc, SkeletonInvalidError):
        return FallbackReason.SKELETON_INVALID
    if isinstance(exc, OrcaError):
        return FallbackReason.TYPED_ABORT
    return FallbackReason.UNEXPECTED_EXCEPTION


def classify_execution_exception(exc: BaseException) -> FallbackReason:
    """Map an execution-stage abort onto the taxonomy.

    The governor's typed errors each have a dedicated member; anything
    else that escaped execution (storage faults, injected crashes
    wrapped by the facade) is an ``EXEC_RUNTIME_ERROR``.
    """
    if isinstance(exc, DeadlineExceededError):
        return FallbackReason.DEADLINE_EXCEEDED
    if isinstance(exc, StatementCancelledError):
        return FallbackReason.STATEMENT_CANCELLED
    if isinstance(exc, ResourceExhaustedError):
        return FallbackReason.RESOURCE_EXHAUSTED
    return FallbackReason.EXEC_RUNTIME_ERROR


# -- circuit breaker -----------------------------------------------------------------


class CircuitBreaker:
    """Per-fingerprint quarantine for optimizer-crashing statements.

    After ``threshold`` *unexpected-exception* fallbacks for one
    fingerprint, :meth:`allow` answers False and the facade routes the
    statement straight to MySQL without re-entering the detour.  Once
    ``reset_seconds`` pass since the last failure the breaker half-opens:
    one trial detour is allowed, and a success closes it again.
    """

    def __init__(self, threshold: int = 3, reset_seconds: float = 60.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ReproError("circuit breaker threshold must be >= 1")
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        #: fingerprint -> (consecutive failures, last failure time)
        self._failures: Dict[str, Tuple[int, float]] = {}

    def record_failure(self, fingerprint: str) -> None:
        count, __ = self._failures.get(fingerprint, (0, 0.0))
        self._failures[fingerprint] = (count + 1, self._clock())

    def record_success(self, fingerprint: str) -> None:
        self._failures.pop(fingerprint, None)

    def failures(self, fingerprint: str) -> int:
        return self._failures.get(fingerprint, (0, 0.0))[0]

    def is_open(self, fingerprint: str) -> bool:
        return not self.allow(fingerprint, probe=True)

    def allow(self, fingerprint: str, probe: bool = False) -> bool:
        """Whether the detour may be entered for this fingerprint.

        With ``probe=True`` the breaker is only inspected: a decayed
        entry is not half-opened (no state change).
        """
        entry = self._failures.get(fingerprint)
        if entry is None:
            return True
        count, last_failure = entry
        if count < self.threshold:
            return True
        if self._clock() - last_failure >= self.reset_seconds:
            if not probe:
                # Half-open: allow one trial; a success closes the
                # breaker, another failure re-opens it immediately.
                self._failures[fingerprint] = (self.threshold - 1,
                                               last_failure)
            return True
        return False

    @property
    def open_fingerprints(self) -> List[str]:
        return sorted(fp for fp in self._failures
                      if not self.allow(fp, probe=True))


# -- fault injection -------------------------------------------------------------------

#: Injection points wired into the bridge (optimize-stage) components.
BRIDGE_INJECTION_SITES = (
    "metadata_provider",
    "parse_tree_converter",
    "optimizer",
    "plan_converter",
)

#: Execution-stage injection points: leaf scans (``scan_io``), the
#: batch accounting hook (``mid_batch``), and the memory accountant's
#: charge path (``alloc_spike`` — fires through :meth:`fire_spike`,
#: inflating a charge instead of raising).
EXECUTION_INJECTION_SITES = (
    "scan_io",
    "mid_batch",
    "alloc_spike",
)

#: All named injection points.
INJECTION_SITES = BRIDGE_INJECTION_SITES + EXECUTION_INJECTION_SITES

#: Supported fault actions at each site.
INJECTION_ACTIONS = ("typed", "crash", "sleep", "spike")


@dataclass
class _ArmedFault:
    action: str
    times: int
    sleep_seconds: float
    probability: float
    spike_bytes: int = 0


class FaultInjector:
    """Deterministic, seedable fault injection for the detour.

    Arm a site with an action; when the component reaches its injection
    point it calls :meth:`fire`, and the armed fault happens:

    * ``"typed"`` — raise the stage's deliberate abort: an
      :class:`OrcaError` at bridge sites, an :class:`ExecutionError`
      (an injected I/O fault) at execution sites;
    * ``"crash"`` — raise ``KeyError`` (an unexpected, non-typed bug);
    * ``"sleep"`` — sleep ``sleep_seconds`` so a compile budget or a
      statement deadline trips;
    * ``"spike"`` — only at ``alloc_spike``: inflate the next memory
      charge by ``spike_bytes`` so a memory cap breaches on demand.

    ``times`` bounds how often the fault fires (-1 = every time) and
    ``probability`` (checked against a seeded PRNG) makes chaos runs
    reproducible.  Only installed via ``DatabaseConfig.fault_injector``;
    a ``None`` injector costs nothing.
    """

    SITES = INJECTION_SITES

    def __init__(self, seed: int = 0) -> None:
        import random

        self._rng = random.Random(seed)
        self._armed: Dict[str, _ArmedFault] = {}
        self.fired: Dict[str, int] = {site: 0 for site in INJECTION_SITES}
        self.reached: Dict[str, int] = {site: 0 for site in INJECTION_SITES}

    def arm(self, site: str, action: str = "typed", times: int = -1,
            sleep_seconds: float = 0.05,
            probability: float = 1.0,
            spike_bytes: int = 64 * 1024 * 1024) -> "FaultInjector":
        if site not in INJECTION_SITES:
            raise ReproError(
                f"unknown injection site {site!r}; valid sites: "
                f"{', '.join(INJECTION_SITES)}")
        if action not in INJECTION_ACTIONS:
            raise ReproError(
                f"unknown injection action {action!r}; valid actions: "
                f"{', '.join(INJECTION_ACTIONS)}")
        if (action == "spike") != (site == "alloc_spike"):
            raise ReproError(
                "the 'spike' action and the 'alloc_spike' site go "
                "together: arm('alloc_spike', 'spike', spike_bytes=...)")
        self._armed[site] = _ArmedFault(action, times, sleep_seconds,
                                        probability, spike_bytes)
        return self

    def disarm(self, site: Optional[str] = None) -> None:
        if site is None:
            self._armed.clear()
        else:
            self._armed.pop(site, None)

    def _draw(self, site: str) -> Optional[_ArmedFault]:
        """Shared gating: armed, times remaining, probability draw."""
        self.reached[site] = self.reached.get(site, 0) + 1
        fault = self._armed.get(site)
        if fault is None or fault.times == 0:
            return None
        if fault.probability < 1.0 \
                and self._rng.random() >= fault.probability:
            return None
        if fault.times > 0:
            fault.times -= 1
        self.fired[site] = self.fired.get(site, 0) + 1
        return fault

    def fire(self, site: str) -> None:
        """Called by a component at its injection point."""
        fault = self._draw(site)
        if fault is None or fault.action == "spike":
            return
        if fault.action == "typed":
            if site in EXECUTION_INJECTION_SITES:
                raise ExecutionError(f"injected I/O fault at {site}")
            raise OrcaError(f"injected typed abort at {site}")
        if fault.action == "crash":
            raise KeyError(f"injected crash at {site}")
        time.sleep(fault.sleep_seconds)

    def fire_spike(self, site: str = "alloc_spike") -> int:
        """Bytes to add to the next memory charge (0 when unarmed).

        Called by :meth:`repro.governor.ExecutionGovernor.charge`; a
        non-spike fault armed at the site is ignored here (spikes never
        raise — they inflate the accountant so the *governor* raises).
        """
        fault = self._draw(site)
        if fault is None or fault.action != "spike":
            return 0
        return fault.spike_bytes
