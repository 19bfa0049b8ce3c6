"""BENCH — execution-stage resilience: the chaos sweep.

Produces ``benchmarks/results/BENCH_chaos.json`` (committed, so the
resilience evidence travels with the code) and a text summary: the same
seeded regime generator as the tier-1 ``tests/test_chaos.py`` suite,
run at bench scale — 320 mixed TPC-H statements under injected faults,
deadlines, memory caps, and cancellations.  Zero non-``ReproError``
escapes; every abort is classified to a ``FallbackReason``; the
artifact records the mix.

Every statement runs under a governor, so there is no ungoverned
baseline to compare against; the governed path's cost is what every
end-to-end cell of ``benchmarks/e2e`` measures.
"""

import json
import random

import pytest

from benchmarks.conftest import RESULTS_DIR, SCALE, write_report
from repro import Database, DatabaseConfig, governor
from repro.errors import ExecutionError, GovernorError, ReproError
from repro.workloads.tpch import load_tpch, tpch_query
from tests.test_chaos import (
    _GOVERNOR_ABORTS,
    _draw_regime,
    BASELINE_QUERIES,
    CHECK_INTERVAL,
    QUERY_POOL,
    SEED,
    STATEMENTS,
)


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


def _format_report(payload: dict) -> str:
    sweep = payload["chaos"]
    lines = [
        "BENCH — execution-stage resilience (chaos sweep)",
        f"  scale={payload['scale']}  seed={payload['seed']}",
        "",
        f"  chaos sweep: {sweep['statements']} statements — "
        f"{sweep['executed']} succeeded "
        f"({sweep['contained_fallbacks']} via contained fallback), "
        f"{sweep['aborted']} aborted, 0 crashes",
    ]
    for name, count in sweep["abort_reasons"].items():
        lines.append(f"    {name:<24} {count:>4}")
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

    payload = {"seed": SEED, "scale": SCALE, "chaos": chaos}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_chaos.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    write_report("BENCH_chaos.txt", _format_report(payload))
