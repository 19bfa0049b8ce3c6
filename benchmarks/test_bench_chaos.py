"""BENCH — execution-stage resilience: chaos sweep + governor overhead.

Produces ``benchmarks/results/BENCH_chaos.json`` (committed, so the PR
carries the resilience evidence) and a text summary.  Two parts:

* **Chaos sweep** — the same seeded regime generator as the tier-1
  ``tests/test_chaos.py`` suite, run at bench scale: 320 mixed TPC-H
  statements under injected faults, deadlines, memory caps, and
  cancellations.  Zero non-``ReproError`` escapes; every abort is
  classified to a ``FallbackReason``; the artifact records the mix.
* **Governor overhead** — median TPC-H latency with the execution
  governor enabled (the default: cooperative checkpoints on every
  operator) versus fully disabled.  Acceptance: the median overhead
  across the suite is at most 3%.
"""

import json
import random
import statistics
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, SCALE, write_report
from repro import Database, DatabaseConfig, governor
from repro.errors import ExecutionError, GovernorError, ReproError
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, tpch_query
from tests.test_chaos import (
    _GOVERNOR_ABORTS,
    _draw_regime,
    BASELINE_QUERIES,
    CHECK_INTERVAL,
    QUERY_POOL,
    SEED,
    STATEMENTS,
)

#: Repetitions per governor mode in the overhead measurement.
OVERHEAD_REPS = 3

#: Acceptance ceiling for the suite-median checkpoint overhead.
MAX_MEDIAN_OVERHEAD_PERCENT = 3.0


def _chaos_sweep(db: Database, rng: random.Random) -> dict:
    """320 statements of randomized abuse; returns the artifact rows."""
    baseline = {q: db.execute(tpch_query(q)) for q in BASELINE_QUERIES}
    executed = aborted = contained = 0
    reasons = {}
    for step in range(STATEMENTS):
        sql = tpch_query(rng.choice(QUERY_POOL))
        regime = _draw_regime(rng)
        db.config.fault_injector = regime["injector"]
        kwargs = dict(regime["kwargs"])
        kwargs["executor_mode"] = rng.choice(("batch", "row"))
        kwargs["use_plan_cache"] = rng.random() < 0.5
        try:
            result = db.run(sql, **kwargs)
            executed += 1
            if result.fallback_reason is not None:
                contained += 1
        except (GovernorError, ExecutionError) as exc:
            aborted += 1
            reason = _GOVERNOR_ABORTS.get(type(exc))
            name = reason.name if reason is not None \
                else "EXEC_RUNTIME_ERROR"
            reasons[name] = reasons.get(name, 0) + 1
        except ReproError as exc:  # classified, but not a governor type
            pytest.fail(f"step {step}: unclassified abort {exc!r}")
        except BaseException as exc:  # noqa: BLE001 — the point
            pytest.fail(f"step {step}: non-ReproError escaped: "
                        f"{type(exc).__name__}: {exc}")
        finally:
            db.config.fault_injector = None
        assert db.active_statements() == {}
    for q in BASELINE_QUERIES:
        assert db.execute(tpch_query(q)) == baseline[q], \
            f"baseline Q{q} diverged after the sweep"
    return {
        "statements": STATEMENTS,
        "executed": executed,
        "aborted": aborted,
        "contained_fallbacks": contained,
        "abort_reasons": dict(sorted(reasons.items())),
    }


def _median_latency_ms(db: Database, sql: str) -> float:
    samples = []
    for __ in range(OVERHEAD_REPS):
        start = time.perf_counter()
        db.run(sql)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _overhead_sweep(db: Database) -> dict:
    """Per-query governed/unbounded medians, modes interleaved."""
    rows = {}
    for number in sorted(TPCH_QUERIES):
        sql = tpch_query(number)
        db.run(sql)  # warm the plan cache so both modes compile-hit
        db.config.governor_enabled = False
        off_ms = _median_latency_ms(db, sql)
        db.config.governor_enabled = True
        on_ms = _median_latency_ms(db, sql)
        rows[str(number)] = {
            "off_ms": round(off_ms, 3),
            "on_ms": round(on_ms, 3),
            "overhead_percent":
                round((on_ms - off_ms) / off_ms * 100.0, 2),
        }
    return rows


def _format_report(payload: dict) -> str:
    sweep = payload["chaos"]
    lines = [
        "BENCH — execution-stage resilience (chaos + governor overhead)",
        f"  scale={payload['scale']}  seed={payload['seed']}",
        "",
        f"  chaos sweep: {sweep['statements']} statements — "
        f"{sweep['executed']} succeeded "
        f"({sweep['contained_fallbacks']} via contained fallback), "
        f"{sweep['aborted']} aborted, 0 crashes",
    ]
    for name, count in sweep["abort_reasons"].items():
        lines.append(f"    {name:<24} {count:>4}")
    lines += [
        "",
        "  governor checkpoint overhead (median ms per query):",
        f"    {'query':<8}{'off':>10}{'on':>10}{'overhead':>10}",
    ]
    for number, row in payload["governor_overhead"]["queries"].items():
        lines.append(f"    Q{number:<7}{row['off_ms']:>10.3f}"
                     f"{row['on_ms']:>10.3f}"
                     f"{row['overhead_percent']:>9.2f}%")
    lines.append(
        f"  suite median overhead: "
        f"{payload['governor_overhead']['median_overhead_percent']:.2f}%"
        f"  (ceiling {MAX_MEDIAN_OVERHEAD_PERCENT:.1f}%)")
    return "\n".join(lines)


def test_bench_chaos():
    db = Database(DatabaseConfig(orca_compile_budget_seconds=5.0))
    load_tpch(db, scale=SCALE)

    rng = random.Random(SEED)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(governor, "DEFAULT_CHECK_INTERVAL", CHECK_INTERVAL)
        chaos = _chaos_sweep(db, rng)
    assert chaos["executed"] + chaos["aborted"] == STATEMENTS
    assert chaos["executed"] >= 100
    assert chaos["aborted"] >= 30

    # Fresh database for the timing half: no armed injectors, default
    # check interval, nothing left over from the abuse.
    timing_db = Database(DatabaseConfig())
    load_tpch(timing_db, scale=SCALE)
    queries = _overhead_sweep(timing_db)
    median_overhead = statistics.median(
        row["overhead_percent"] for row in queries.values())

    payload = {
        "seed": SEED,
        "scale": SCALE,
        "chaos": chaos,
        "governor_overhead": {
            "reps_per_mode": OVERHEAD_REPS,
            "queries": queries,
            "median_overhead_percent": round(median_overhead, 2),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_chaos.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    write_report("BENCH_chaos.txt", _format_report(payload))

    assert median_overhead <= MAX_MEDIAN_OVERHEAD_PERCENT, (
        f"governor checkpoints cost {median_overhead:.2f}% median "
        f"latency (ceiling {MAX_MEDIAN_OVERHEAD_PERCENT:.1f}%)")
