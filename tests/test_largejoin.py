"""Large-join search: strategy selector, the GOO enumerator, budget
degradation, and the forced strategies that steer them.

The heavy lifting (plan validity, bit-identical results across
strategies and executors, wide joins under tight budgets) runs on the
synthetic topologies of :mod:`repro.workloads.joins` — small scale so
tier-1 stays fast, but wide enough (up to 16 relations) that every
selector rung actually fires.
"""

import pytest

from repro import Database, DatabaseConfig
from repro.errors import ReproError
from repro.observability import find_spans
from repro.orca import largejoin
from repro.orca.largejoin import (
    DP_MAX_UNITS,
    STRATEGY_POLICIES as VALID_POLICIES,
    JoinStrategy,
    budget_floor,
    select_strategy,
)
from repro.workloads.joins import load_topology, make_topology

from tests.conftest import forced_orca_config


def _select(n, policy="adaptive", greedy=False, remaining=None):
    return select_strategy(n, greedy, policy, remaining)


# -- the selector lattice -----------------------------------------------------------


def test_selector_picks_rung_by_component_size():
    assert _select(4) is JoinStrategy.DP
    assert _select(DP_MAX_UNITS) is JoinStrategy.DP
    assert _select(DP_MAX_UNITS + 1) is JoinStrategy.GOO
    assert _select(50) is JoinStrategy.GOO


#: ``(units, remaining budget seconds, rung)`` of the adaptive selector:
#: DP takes 12 units and GOO 13, and a thinning budget steps a 12-way
#: component DP -> GOO -> GREEDY (its DP floor is ~7.3 s, its GOO floor
#: 7.2 ms).
SELECTOR_TABLE = (
    (12, None, JoinStrategy.DP),
    (13, None, JoinStrategy.GOO),
    (12, 3600.0, JoinStrategy.DP),
    (12, 1.0, JoinStrategy.GOO),
    (12, 0.001, JoinStrategy.GREEDY),
    (13, 1.0, JoinStrategy.GOO),
    (13, 0.0, JoinStrategy.GREEDY),
)


@pytest.mark.parametrize("units,remaining,rung", SELECTOR_TABLE)
def test_selector_table(units, remaining, rung):
    assert _select(units, remaining=remaining) is rung


def test_selector_has_three_rungs():
    assert [strategy.value for strategy in JoinStrategy] == \
        ["dp", "goo", "greedy"]
    assert VALID_POLICIES == ("adaptive", "dp", "goo", "greedy")
    with pytest.raises(ReproError) as raised:
        with forced_orca_config(join_strategy="lindp"):
            pass
    assert "'lindp'" in str(raised.value)
    assert "adaptive, dp, goo, greedy" in str(raised.value)


def test_selector_honors_custom_thresholds(monkeypatch):
    monkeypatch.setattr(largejoin, "DP_MAX_UNITS", 8)
    assert _select(8) is JoinStrategy.DP
    assert _select(9) is JoinStrategy.GOO


def test_greedy_mode_wins_outright():
    assert _select(4, greedy=True) is JoinStrategy.GREEDY
    assert _select(40, policy="dp", greedy=True) is JoinStrategy.GREEDY


def test_forced_policy_ignores_size_and_budget():
    assert _select(40, policy="dp") is JoinStrategy.DP
    assert _select(40, policy="dp", remaining=0.0) is JoinStrategy.DP
    assert _select(4, policy="goo") is JoinStrategy.GOO
    assert _select(4, policy="greedy") is JoinStrategy.GREEDY


def test_budget_downgrades_rung_by_rung():
    # A 12-way DP floor is ~7.3s; a thin budget steps DP -> GOO, one
    # under GOO's floor lands on GREEDY.
    n = DP_MAX_UNITS
    assert _select(n, remaining=3600.0) is JoinStrategy.DP
    assert _select(n, remaining=1.0) is JoinStrategy.GOO
    floor_goo = budget_floor(JoinStrategy.GOO, n)
    assert _select(n, remaining=floor_goo) is JoinStrategy.GOO
    assert _select(n, remaining=floor_goo / 2) is JoinStrategy.GREEDY
    assert _select(n, remaining=0.0) is JoinStrategy.GREEDY


def test_budget_floor_shape():
    # DP's floor explodes exponentially but is capped; the polynomial
    # strategies stay tiny, and GREEDY is always free.
    assert budget_floor(JoinStrategy.DP, 20) == 30.0
    assert budget_floor(JoinStrategy.DP, 6) < 0.1
    assert budget_floor(JoinStrategy.GOO, 50) < 1.0
    assert budget_floor(JoinStrategy.GOO, 12) < \
        budget_floor(JoinStrategy.DP, 12)
    assert budget_floor(JoinStrategy.GREEDY, 50) == 0.0


# -- forced strategies --------------------------------------------------------------


def test_join_strategy_knob_validated():
    with pytest.raises(ReproError):
        with forced_orca_config(join_strategy="bogus"):
            pass
    with pytest.raises(TypeError):
        with forced_orca_config(no_such_field=1):
            pass


# -- end-to-end over synthetic topologies -------------------------------------------

#: Forced DP is left out: a 16-way star costs it seconds per run.
STRATEGY_POLICIES = ("adaptive", "goo", "greedy")


def _topology_db(kind, relations, **config):
    db = Database(DatabaseConfig(complex_query_threshold=3, **config))
    load_topology(db, make_topology(kind, relations, scale=0.5))
    return db


def _widest_search(result):
    strategy, units = None, 0
    for span in find_spans(result.trace, "memo_search"):
        if span.attributes.get("join_strategy") is not None \
                and span.attributes["join_units"] >= units:
            strategy = span.attributes["join_strategy"]
            units = span.attributes["join_units"]
    return strategy, units


@pytest.mark.parametrize("kind", ["chain", "star", "snowflake"])
def test_wide_join_identical_across_strategies_and_executors(kind):
    """A 16-relation join returns bit-identical aggregates no matter
    which strategy planned it or which executor ran it."""
    db = _topology_db(kind, 16)
    topology = make_topology(kind, 16, scale=0.5)
    reference = None
    for policy in STRATEGY_POLICIES:
        for mode in ("row", "batch"):
            with forced_orca_config(join_strategy=policy):
                result = db.run(topology.query, optimizer="orca",
                                executor_mode=mode, trace=True,
                                use_plan_cache=False)
            assert result.optimizer_used == "orca"
            assert result.fallback_reason is None
            assert len(result.rows) == 1
            if reference is None:
                reference = result.rows
            assert result.rows == reference, (policy, mode)


def test_adaptive_strategy_recorded_on_span_and_counters():
    db = _topology_db("chain", 16)
    topology = make_topology("chain", 16, scale=0.5)
    before = db.metrics.count("orca.join_strategy.goo")
    result = db.run(topology.query, optimizer="orca", trace=True,
                    use_plan_cache=False)
    strategy, units = _widest_search(result)
    # 16 relations sits on the GOO rung of the default lattice.
    assert strategy == "goo"
    assert units == 16
    assert db.metrics.count("orca.join_strategy.goo") > before


def test_explain_analyze_reports_join_strategy():
    db = _topology_db("star", 14)
    topology = make_topology("star", 14, scale=0.5)
    text = db.explain_analyze(topology.query, optimizer="orca")
    assert "join search: goo (14 relations)" in text


def test_full_dp_never_runs_above_the_selector_cutoff():
    """Counter-based perf-smoke gate: a component wider than
    ``DP_MAX_UNITS`` must never enter the exponential full-DP enumerator
    under the adaptive policy."""
    db = _topology_db("chain", DP_MAX_UNITS + 2)
    topology = make_topology("chain", DP_MAX_UNITS + 2, scale=0.5)
    before = db.metrics.count("orca.join_strategy.dp")
    result = db.run(topology.query, optimizer="orca", trace=True,
                    use_plan_cache=False)
    strategy, units = _widest_search(result)
    assert units == DP_MAX_UNITS + 2
    assert strategy != "dp"
    assert db.metrics.count("orca.join_strategy.dp") == before


def test_tight_budget_degrades_to_incumbent_not_fallback():
    """Forcing full DP into a 13-way clique (every subset connected —
    the DP worst case) under a small budget must abort mid-search and
    return the seeded incumbent — never raise into the MySQL
    fallback."""
    db = _topology_db("clique", 13, orca_compile_budget_seconds=0.35)
    topology = make_topology("clique", 13, scale=0.5)
    with forced_orca_config(join_strategy="dp"):
        result = db.run(topology.query, optimizer="orca", trace=True,
                        use_plan_cache=False)
    assert result.optimizer_used == "orca"
    assert result.fallback_reason is None
    assert len(result.rows) == 1
    degradations = sum(
        span.attributes.get("join_budget_degradations", 0)
        for span in find_spans(result.trace, "memo_search"))
    assert degradations >= 1
    assert db.metrics.count("orca.join_budget_degradations") >= 1
    # The degraded plan is still the right answer.
    with forced_orca_config(join_strategy="greedy"):
        check = db.run(topology.query, optimizer="orca",
                       use_plan_cache=False)
    assert check.rows == result.rows
