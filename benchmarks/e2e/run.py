"""Command line of the repo-wide benchmark.

One workload, in this process (what ``BENCHMARK.json``'s command runs;
the last line printed is the result as one JSON object)::

    python3 benchmarks/e2e/run.py --workload repeat_tpch --seed 1 \\
        --seconds 12 --trace 0

Every workload, each in a fresh process, with a summary table::

    python3 benchmarks/e2e/run.py [--trace 1] [--quick] [--sets N]

``--sets N`` repeats that N times and exits non-zero when a metric's
spread exceeds its bound from ``BENCHMARK.json``;
``--check-determinism`` runs each workload twice on one seed and
requires the layer counts to repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _bootstrap() -> dict:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a bare
    checkout and load ``BENCHMARK.json``; exits 2 when either is
    missing (e.g. a directory holding only the benchmark's own files).
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: no engine to measure: "
                 f"{ROOT / 'src' / 'repro'} is missing")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        sys.exit(f"benchmarks/e2e: cannot read BENCHMARK.json: {exc}")


def _parse(spec: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives statement order, literals and DML "
                             "keys (never the table data)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--streams", type=int,
                        help="time exactly this many streams instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from outside spans; "
                             "0: end-to-end metrics, no wrappers")
    parser.add_argument("--quick", action="store_true",
                        help="tiny scales, one timed stream, one set-up")
    parser.add_argument("--sets", type=int,
                        help="repeat N times (seed, seed+1, ...) and "
                             "compare each metric's spread with its bound")
    parser.add_argument("--check-determinism", action="store_true",
                        help="two traced runs on one seed must give "
                             "identical layer counts")
    return parser.parse_args()


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int,
           streams=None) -> dict:
    """Run one workload in a fresh process (isolates peak RSS and cache
    warmth); returns its parsed result line plus the report text."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    streams = streams if streams is not None else args.streams
    if streams is not None:
        command += ["--streams", str(streams)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload}: exit {done.returncode}\n{done.stderr}")
    *report, last = done.stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    result["report"] = "\n".join(report)
    return result


def _spread(values: List[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / abs(middle) if middle else 0.0


def _run_sets(args: argparse.Namespace, spec: dict,
              workloads: List[str]) -> int:
    """All ``workloads`` × ``--sets``; prints the reports of the first
    set, then one markdown table per metric kind."""
    sets = args.sets or 1
    kind = "per_layer" if args.trace else "end_to_end"
    results: Dict[str, List[dict]] = {name: [] for name in workloads}
    for index in range(sets):
        for name in workloads:
            result = _child(args, name, args.seed + index, args.trace)
            results[name].append(result)
            if index == 0:
                print(result["report"], end="\n\n", flush=True)
    status = 0
    print(f"### {kind} metrics, {sets} set(s), seeds "
          f"{args.seed}..{args.seed + sets - 1}, "
          f"{'quick' if args.quick else f'{args.seconds:g} s window'}\n")
    print("| metric | workload | "
          + " | ".join(f"set {i + 1}" for i in range(sets))
          + " | unit | spread | bound | |")
    print("|---|---|" + "---:|" * sets + "---|---:|---:|---|")
    for metric in spec[kind]:
        for name in workloads:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results[name]]
            spread = _spread(values)
            shown = f"{spread:.1%}" if sets > 1 else "-"
            bound = metric.get("bound")
            verdict = ""
            if bound is not None and sets > 1:
                verdict = "ok" if spread <= bound else "SPREAD > BOUND"
                if spread > bound:
                    status = 1
            print(f"| {metric['name']} | {name} | "
                  + " | ".join(f"{value:.4f}" for value in values)
                  + f" | {metric['unit']} | {shown} | "
                  + (f"{bound:.0%}" if bound is not None else "-")
                  + f" | {verdict} |")
    print()
    for name in workloads:
        failed = sum(r["failed"] for r in results[name])
        attempted = sum(r["attempted"] for r in results[name])
        print(f"failed_share {name}: {failed}/{attempted}")
        if failed:
            status = 1
    return status


def _check_determinism(args: argparse.Namespace,
                       workloads: List[str]) -> int:
    from benchmarks.e2e.runner import EXACT_COUNTS, OUT_DIR

    status = 0
    for name in workloads:
        runs = []
        for __ in range(2):
            _child(args, name, args.seed, trace=1,
                   streams=args.streams or 2)
            runs.append(json.loads(
                (OUT_DIR / f"trace_{name}.json").read_text()))
        first, second = runs
        differing = [key for key in EXACT_COUNTS
                     if first["counts"].get(key, 0)
                     != second["counts"].get(key, 0)]
        if first["fingerprint"] != second["fingerprint"]:
            differing.insert(0, "input fingerprint")
        print(f"{name}: seed {args.seed} twice: "
              + (f"DIFFER: {', '.join(differing)}" if differing else
                 f"{len(EXACT_COUNTS)} layer counts and the input "
                 "fingerprint repeat exactly"))
        for key in differing:
            if key in first["counts"] or key in second["counts"]:
                print(f"  {key}: {first['counts'].get(key, 0):g} vs "
                      f"{second['counts'].get(key, 0):g}")
        status |= bool(differing)
    return status


def main() -> int:
    spec = _bootstrap()
    args = _parse(spec)
    names = [args.workload] if args.workload else \
        [workload["name"] for workload in spec["workloads"]]
    if args.check_determinism:
        return _check_determinism(args, names)
    if args.sets or not args.workload:
        return _run_sets(args, spec, names)

    from benchmarks.e2e.runner import run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    streams = args.streams or (1 if args.quick else None)
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          streams=streams, quick=args.quick,
                          trace=bool(args.trace))
    print("\n".join(report.lines))
    print(report.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
