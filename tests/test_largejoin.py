"""Large-join search: strategy selector, IKKBZ/GOO/LINDP enumerators,
budget degradation, and the forced strategies that steer them.

The heavy lifting (plan validity, bit-identical results across
strategies and executors, wide joins under tight budgets) runs on the
synthetic topologies of :mod:`repro.workloads.joins` — small scale so
tier-1 stays fast, but wide enough (up to 16 relations) that every
selector rung actually fires.
"""

import pytest

from repro import Database, DatabaseConfig
from repro.bench.harness import forced_orca_config
from repro.errors import ReproError
from repro.observability import find_spans
from repro.orca import largejoin
from repro.orca.largejoin import (
    DEFAULT_GOO_THRESHOLD,
    DEFAULT_LINDP_THRESHOLD,
    JoinStrategy,
    budget_floor,
    select_strategy,
)
from repro.orca.memo import units_of
from repro.workloads.joins import load_topology, make_topology


def _select(n, policy="adaptive", greedy=False, remaining=None):
    return select_strategy(n, greedy, policy, remaining)


# -- the selector lattice -----------------------------------------------------------


def test_selector_picks_rung_by_component_size():
    assert _select(4) is JoinStrategy.DP
    assert _select(DEFAULT_LINDP_THRESHOLD) is JoinStrategy.DP
    assert _select(DEFAULT_LINDP_THRESHOLD + 1) is JoinStrategy.LINDP
    assert _select(DEFAULT_GOO_THRESHOLD) is JoinStrategy.LINDP
    assert _select(DEFAULT_GOO_THRESHOLD + 1) is JoinStrategy.GOO
    assert _select(50) is JoinStrategy.GOO


def test_selector_honors_custom_thresholds(monkeypatch):
    monkeypatch.setattr(largejoin, "DEFAULT_LINDP_THRESHOLD", 8)
    monkeypatch.setattr(largejoin, "DEFAULT_GOO_THRESHOLD", 10)
    assert _select(9) is JoinStrategy.LINDP
    assert _select(11) is JoinStrategy.GOO


def test_greedy_mode_wins_outright():
    assert _select(4, greedy=True) is JoinStrategy.GREEDY
    assert _select(40, policy="dp", greedy=True) is JoinStrategy.GREEDY


def test_forced_policy_ignores_size_and_budget():
    assert _select(40, policy="dp") is JoinStrategy.DP
    assert _select(40, policy="dp", remaining=0.0) is JoinStrategy.DP
    assert _select(4, policy="goo") is JoinStrategy.GOO
    assert _select(4, policy="greedy") is JoinStrategy.GREEDY


def test_budget_downgrades_rung_by_rung():
    # A 12-way DP floor is ~7.3s; a thin budget steps DP -> LINDP,
    # a thinner one -> GOO, and an empty one lands on GREEDY.
    n = DEFAULT_LINDP_THRESHOLD
    assert _select(n, remaining=3600.0) is JoinStrategy.DP
    assert _select(n, remaining=1.0) is JoinStrategy.LINDP
    floor_lindp = budget_floor(JoinStrategy.LINDP, n)
    assert _select(n, remaining=floor_lindp / 2) is JoinStrategy.GOO
    assert _select(n, remaining=0.0) is JoinStrategy.GREEDY


def test_budget_floor_shape():
    # DP's floor explodes exponentially but is capped; the polynomial
    # strategies stay tiny, and GREEDY is always free.
    assert budget_floor(JoinStrategy.DP, 20) == 30.0
    assert budget_floor(JoinStrategy.DP, 6) < 0.1
    assert budget_floor(JoinStrategy.LINDP, 50) < 1.0
    assert budget_floor(JoinStrategy.GOO, 50) < \
        budget_floor(JoinStrategy.LINDP, 50)
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

STRATEGY_POLICIES = ("adaptive", "lindp", "goo", "greedy")


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
    before = db.metrics.count("orca.join_strategy.lindp")
    result = db.run(topology.query, optimizer="orca", trace=True,
                    use_plan_cache=False)
    strategy, units = _widest_search(result)
    # 16 relations sits on the LINDP rung of the default lattice.
    assert strategy == "lindp"
    assert units == 16
    assert db.metrics.count("orca.join_strategy.lindp") > before


def test_explain_analyze_reports_join_strategy():
    db = _topology_db("star", 14)
    topology = make_topology("star", 14, scale=0.5)
    text = db.explain_analyze(topology.query, optimizer="orca")
    assert "join search: lindp (14 relations)" in text


def test_full_dp_never_runs_above_the_selector_cutoff():
    """Counter-based perf-smoke gate: a component wider than
    ``DEFAULT_LINDP_THRESHOLD`` must never enter the exponential full-DP
    enumerator under the adaptive policy."""
    db = _topology_db("chain", DEFAULT_LINDP_THRESHOLD + 2)
    topology = make_topology("chain", DEFAULT_LINDP_THRESHOLD + 2,
                             scale=0.5)
    before = db.metrics.count("orca.join_strategy.dp")
    result = db.run(topology.query, optimizer="orca", trace=True,
                    use_plan_cache=False)
    strategy, units = _widest_search(result)
    assert units == DEFAULT_LINDP_THRESHOLD + 2
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


def test_ikkbz_order_is_a_permutation(monkeypatch):
    """The IKKBZ linearization visits every component member exactly
    once, starting somewhere connected — checked on a live search by
    wrapping the enumerator during a forced-LINDP run."""
    from repro.orca import largejoin

    captured = []
    real = largejoin.ikkbz_order

    def spy(search, component):
        order = real(search, component)
        captured.append((frozenset(units_of(component)), tuple(order)))
        return order

    monkeypatch.setattr(largejoin, "ikkbz_order", spy)
    db = _topology_db("snowflake", 13)
    topology = make_topology("snowflake", 13, scale=0.5)
    with forced_orca_config(join_strategy="lindp"):
        result = db.run(topology.query, optimizer="orca",
                        use_plan_cache=False)
    assert result.optimizer_used == "orca"
    wide = [(component, order) for component, order in captured
            if len(component) >= 13]
    assert wide, "the 13-way component never reached IKKBZ"
    for component, order in wide:
        assert len(order) == len(component)
        assert frozenset(order) == component
