"""The ``DatabaseConfig`` audit: every option and the caller that turns it.

An option earns its place when a workload, paper experiment, benchmark
scenario or deployment sets it to something other than its default.  A
setting nobody turns is a constant of the module that owns it, and a
per-statement choice is a ``Database.run`` argument.  Adding an option
means adding it here with its reason.
"""

import dataclasses

import pytest

from repro import DatabaseConfig

#: Every ``DatabaseConfig`` field, in declaration order, with the caller
#: that sets it.
AUDITED_OPTIONS = {
    "complex_query_threshold":
        "routing threshold (Section 4.1): threshold ablation, Table 1, "
        "examples",
    "orca_search": "Orca's search mode: Table 1's search-mode sweep",
    "routing": "cost-based routing (Section 9): routing ablation",
    "mysql_cost_threshold":
        "cost-based routing trigger: routing ablation, "
        "examples/dml_and_analyze.py",
    "orca_compile_budget_seconds":
        "safety bound: chaos suite (tests/test_chaos.py), large-join "
        "budget tests",
    "orca_memo_group_budget":
        "safety bound for deployments; wide-join degradation smoke "
        "(tests/test_perf_smoke.py)",
    "fault_injector": "fault-injection hook: chaos suite "
                      "(tests/test_chaos.py)",
    "slow_query_log_path": "deployment path",
    "statement_timeout_seconds": "safety bound for deployments",
    "statement_memory_limit_bytes": "safety bound for deployments",
    "batch_size": "memory bound for deployments (rows per batch/chunk)",
    "executor_workers": "parallel_tpch benchmark workload",
}


def test_every_option_is_audited():
    names = [field.name for field in dataclasses.fields(DatabaseConfig)]
    assert names == list(AUDITED_OPTIONS)
    assert len(names) <= 12
    assert all(AUDITED_OPTIONS.values())


@pytest.mark.parametrize("name,value", [
    # Only the drift scenario set these; it calls advisor.apply() itself.
    ("advisor_auto_analyze", True),
    ("advisor_interval_statements", 4),
    # A module constant (repro.database) that tests monkeypatch.
    ("slow_query_log_threshold_seconds", 0.0),
])
def test_audited_away_options_are_gone(name, value):
    with pytest.raises(TypeError):
        DatabaseConfig(**{name: value})


def test_governance_is_not_optional():
    # Every statement runs under a governor; without a bound it costs
    # two compares per checkpoint, so there is nothing to switch off.
    with pytest.raises(TypeError):
        DatabaseConfig(governor_enabled=False)
