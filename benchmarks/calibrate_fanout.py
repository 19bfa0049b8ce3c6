"""Measure the four constants of the fan-out cost gate on this host.

    PYTHONPATH=src python benchmarks/calibrate_fanout.py [--scale 4]

Prints the measured value next to the constant committed in
``repro/executor/parallel.py`` and, for three statements, the gate's
prediction next to the measured serial and 2-worker times.  Run once
per benchmark host; the numbers go to EXPERIMENTS.md and the constants
are edited by hand — nothing reads a clock at query time.
"""

import argparse
import statistics
import time
from types import SimpleNamespace

from repro import Database
from repro.executor import parallel
from repro.governor import ExecutionGovernor
from repro.workloads.tpch import load_tpch, tpch_query

Q1 = tpch_query(1)
Q6 = tpch_query(6)
#: Same expression count, few vs many groups: isolates shipping.
FEW_GROUPS = ("SELECT l_returnflag, SUM(l_quantity), SUM(l_extendedprice), "
              "COUNT(*) FROM lineitem GROUP BY l_returnflag")
MANY_GROUPS = ("SELECT l_orderkey, SUM(l_quantity), SUM(l_extendedprice), "
               "COUNT(*) FROM lineitem GROUP BY l_orderkey")
#: (label, sql, compiled expressions per row, groups)
SHAPES = (("Q6 filter+1 agg", Q6, 2, 1),
          ("Q1 filter+2 keys+8 aggs", Q1, 11, 4),
          ("1 key+3 aggs, few groups", FEW_GROUPS, 4, 3))

COMMITTED = {name: getattr(parallel, name) for name in (
    "FORK_SECONDS", "COW_SECONDS_PER_ROW", "SHIP_SECONDS_PER_VALUE",
    "EXPR_SECONDS_PER_ROW")}


def force(on: bool) -> None:
    """Zero the cost side of the gate (every eligible operator fans
    out) or restore the committed constants."""
    for name, value in COMMITTED.items():
        if name != "EXPR_SECONDS_PER_ROW":
            setattr(parallel, name, 0.0 if on else value)


def timed(db, sql, workers, runs=9):
    """Median wall seconds, and median summed worker-busy seconds."""
    walls, busy = [], []
    for __ in range(runs):
        start = time.perf_counter()
        db.run(sql, optimizer="orca", executor_workers=workers)
        walls.append(time.perf_counter() - start)
        if workers > 1:
            busy.append(sum(row["seconds"] for row
                            in db._last_parallel.utilization()))
    return statistics.median(walls), \
        (statistics.median(busy) if busy else 0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=4.0)
    scale = parser.parse_args().scale
    db = Database()
    load_tpch(db, scale=scale)
    rows = db.storage.store("lineitem").row_count
    morsels = len(db.storage.store("lineitem").chunks)
    print(f"TPC-H scale {scale}: lineitem {rows} rows, {morsels} morsels, "
          f"{parallel.USABLE_CPUS} usable CPUs")

    force(True)
    # An operator whose morsels do nothing still pays fork, pipe,
    # telemetry pickle and reap for each worker ...
    context = parallel.ParallelContext(2)
    runtime = SimpleNamespace(governor=ExecutionGovernor())
    empty = []
    for __ in range(25):
        start = time.perf_counter()
        context._run_morsels(runtime, [0, 1], lambda index: (0, []), 2)
        empty.append((time.perf_counter() - start) / 2)
    print(f"empty fan-out: {statistics.median(empty) * 1e3:.2f} ms per "
          f"worker")

    # EXPR and COW: serial per-row cost of each shape, then how much
    # longer the same rows take when read inside forked children.
    # FORK is what a real fan-out costs beyond its workers' busy time
    # — the empty fan-out plus the parent re-faulting the pages fork
    # write-protected.  (Shipping is negligible for these shapes.)
    serial, fanned, exprs_cost, cows, forks = {}, {}, [], [], []
    for label, sql, exprs, __ in SHAPES:
        serial[label], __ = timed(db, sql, 1)
        fanned[label], busy = timed(db, sql, 2)
        exprs_cost.append(serial[label] / (rows * exprs))
        cows.append((busy - serial[label]) / rows)
        forks.append((fanned[label] - busy / 2) / 2)
        print(f"  {label:<28} serial {serial[label] * 1e3:7.1f} ms  "
              f"2 workers {fanned[label] * 1e3:7.1f} ms  "
              f"busy {busy * 1e3:7.1f} ms  "
              f"expr {exprs_cost[-1] * 1e6:.3f} us/row  "
              f"cow {cows[-1] * 1e6:.3f} us/row  "
              f"fork {forks[-1] * 1e3:.2f} ms")
    expr = min(exprs_cost)
    cow = statistics.median(cows)
    fork = statistics.median(forks)

    # SHIP: same expressions, many groups instead of few; what fan-out
    # costs beyond half the serial work is fork + cow + shipping, and
    # only shipping differs between the two.
    many_serial, __ = timed(db, MANY_GROUPS, 1)
    many_fanned, __ = timed(db, MANY_GROUPS, 2)
    few = SHAPES[2][0]
    groups = len(db.run(MANY_GROUPS, optimizer="orca").rows)
    few_groups = len(db.run(FEW_GROUPS, optimizer="orca").rows)
    per_morsel = min(groups, rows / morsels)
    values = (per_morsel - few_groups) * morsels * 4
    ship = ((many_fanned - many_serial / 2)
            - (fanned[few] - serial[few] / 2)) / values
    print(f"  {'1 key+3 aggs, ' + str(groups) + ' groups':<28} "
          f"serial {many_serial * 1e3:7.1f} ms  "
          f"2 workers {many_fanned * 1e3:7.1f} ms  "
          f"({values:.0f} more values shipped)")
    force(False)

    print()
    print(f"{'constant':<24} {'measured':>12} {'committed':>12}")
    for name, value in (("FORK_SECONDS", fork),
                        ("COW_SECONDS_PER_ROW", cow),
                        ("SHIP_SECONDS_PER_VALUE", ship),
                        ("EXPR_SECONDS_PER_ROW", expr)):
        print(f"{name:<24} {value:12.3e} {COMMITTED[name]:12.3e}")

    print()
    print("gate, committed constants (2 workers):")
    for label, __, exprs, groups in SHAPES:
        decision = parallel.fanout_decision(rows, groups, exprs, 2,
                                            morsels)
        print(f"  {label:<28} -> "
              f"{'fanout' if decision.fanout else 'serial':<6} "
              f"(estimated serial {decision.serial_ms:6.1f} ms, "
              f"fan-out {decision.fanout_ms:6.1f} ms; measured "
              f"{serial[label] * 1e3:6.1f} / {fanned[label] * 1e3:6.1f})")


if __name__ == "__main__":
    main()
