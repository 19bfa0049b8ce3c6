"""Smoke test of the repo-wide benchmark (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It drives the real command line in ``--quick`` mode (tiny scales, one
timed stream) and checks the output against ``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *flags], cwd=ROOT,
        capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for argument in SPEC["command"]:
        assert not argument.startswith("/") and ".." not in argument
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    # The registry and the JSON describe the same workloads.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.workloads import WORKLOADS as registry
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: workload.why for name, workload in registry.items()}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--quick",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    *report, last = done.stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if trace == "0":
            assert emitted["value"] > 0      # end-to-end metrics are never 0
        # Every printed metric line carries its sample count.
        line = next(text for text in report
                    if text.startswith(metric["name"] + " "))
        assert re.search(r"\bn=\d+", line), line


def test_a_wrong_expected_value_is_a_counted_failure(monkeypatch):
    """The shadow model has teeth: corrupt one prediction and the run
    reports failed statements instead of passing."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e import checks, runner, workloads

    honest = checks.ChurnShadow.read_order
    monkeypatch.setattr(
        checks.ChurnShadow, "read_order",
        lambda self, key: [(key, -1) + honest(self, key)[0][2:]])
    report = runner.run_workload(workloads.WORKLOADS["htap_churn"], seed=3,
                                 seconds=0, streams=1, quick=True)
    assert report.failed >= 20       # 20 order reads per block, two blocks
    assert json.loads(report.result_line())["correct"] is False


def test_exits_nonzero_without_an_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
