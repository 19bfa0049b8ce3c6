"""A seeded statement mix that touches every kind of statement record,
plus the golden report texts it produces.

The mix covers plan-cache misses, hits and stale lookups, literal
variants of one fingerprint, DML, a governor-aborted statement, a
subquery expression, and a circuit-open detour fallback.  ``repro.database``'s clock is replaced by
:class:`FakeClock` while it runs, so every compile/execute latency —
and with them every p95 in the reports — is a pure function of the
mix.  The one latency the fake clock does not reach is an abort's
elapsed time (the governor keeps its own clock); :func:`mask` blanks
it.

The mix uses only the public facade and the report methods, so the
same file regenerates the goldens at any commit that has them::

    PYTHONPATH=src python -m tests.statement_mix tests/goldens/statement_log
"""

import re
import sys
from pathlib import Path

import repro.database
from repro.errors import DeadlineExceededError
from repro.resilience import FaultInjector
from tests.conftest import build_mini_db

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "statement_log"

JOIN3 = ("SELECT c_name, COUNT(*) FROM customer, orders, lineitem "
         "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
         "AND o_totalprice > {lit} GROUP BY c_name")
JOIN2 = ("SELECT o_orderkey, l_quantity FROM orders, lineitem "
         "WHERE o_orderkey = l_orderkey AND l_quantity > {lit}")
SCAN = "SELECT COUNT(*) FROM orders WHERE o_totalprice > {lit}"
POINT = "SELECT o_totalprice FROM orders WHERE o_orderkey = {lit}"
CUSTOMERS = ("SELECT c_segment, COUNT(*) FROM customer "
             "WHERE c_acctbal > {lit} GROUP BY c_segment")
PARTS = ("SELECT p_brand, COUNT(*) FROM part WHERE p_size < {lit} "
         "GROUP BY p_brand")
#: A scalar subquery expression: the batch engine calls the row
#: engine's compiled subquery once per row, so it runs in batch mode.
SUBQUERY = ("SELECT o_orderkey FROM orders WHERE o_totalprice > "
            "(SELECT AVG(o_totalprice) FROM orders) AND o_custkey < {lit}")


class FakeClock:
    """Stands in for the ``time`` module inside ``repro.database``.

    Each ``perf_counter()`` call advances by 1-5 units of 1/4096 s in a
    fixed cycle.  Dyadic steps keep every sum and difference exact, so
    ``compile + execute`` equals ``done - start`` to the last bit.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.calls = 0

    def perf_counter(self) -> float:
        self.calls += 1
        self.now += (1 + (self.calls * 7) % 5) / 4096.0
        return self.now


def run_mix(db) -> None:
    """The mix: 29 statements, each fingerprint run fewer than eight
    times, so no latency-window rule has evidence to flag anything."""
    for lit in (100, 100, 250, 100):           # miss, hit, literal variant
        db.run(SCAN.format(lit=lit))
    for key in (3, 5, 7):
        db.run(POINT.format(lit=key))
    db.run(JOIN3.format(lit=500))              # Orca detour, then a hit
    db.run(JOIN3.format(lit=500))
    db.run(JOIN2.format(lit=10))
    db.run(JOIN2.format(lit=40), optimizer="orca")
    db.run(PARTS.format(lit=20))
    db.run(PARTS.format(lit=20))
    db.run(CUSTOMERS.format(lit=0))
    db.run("INSERT INTO customer VALUES "
           "(9001, 'Customer#9001', 'GOLD', 10.5, 'new')")
    db.run("UPDATE orders SET o_totalprice = 77.5 WHERE o_orderkey = 4")
    db.run("DELETE FROM lineitem WHERE l_orderkey = 9")
    # New statistics for part: its cached plan is stale at the next
    # lookup.
    db.load("part", [(k, f"Brand#{k % 5}", k % 50 + 1)
                     for k in range(1000, 1400)])
    db.storage.analyze_table("part")
    db.run(PARTS.format(lit=20))
    # customer grows 50x behind its statistics: estimates breach.
    db.load("customer", [(k, f"Customer#{k}", ("GOLD", "SILVER")[k % 2],
                          float(k % 900), "bulk")
                         for k in range(2000, 2600)])
    db.run(CUSTOMERS.format(lit=0))
    db.run(CUSTOMERS.format(lit=0))
    db.run(SUBQUERY.format(lit=8))
    db.run(SUBQUERY.format(lit=9))
    try:
        db.run(JOIN3.format(lit=900), timeout_seconds=0.0)
    except DeadlineExceededError:
        pass
    # Three contained optimizer crashes open the circuit; the fourth
    # run is routed around the detour (circuit_open).
    db.config.fault_injector = FaultInjector(seed=3).arm("optimizer",
                                                         "crash")
    for lit in (600, 700, 800, 650):
        db.run(JOIN3.format(lit=lit))
    db.config.fault_injector = None
    db.run("DELETE FROM orders WHERE o_orderkey = 11")
    db.run(SCAN.format(lit=4000))


def mixed_database(config=None):
    """A fresh mini database that has run the mix under a
    :class:`FakeClock`.

    The caller restores ``repro.database.time`` (tests use
    ``monkeypatch``)."""
    repro.database.time = FakeClock()
    db = build_mini_db(seed=5, orders=60, config=config)
    run_mix(db)
    return db


_LATENCY = re.compile(r" +\d+\.\d+")


def mask(text: str) -> str:
    """Blank the latencies of aborted records (the governor's clock)."""
    return "\n".join(_LATENCY.sub(" #", line) if "[ABORTED" in line
                     else line for line in text.splitlines()) + "\n"


def report_texts(db) -> dict:
    """File name -> report text, as committed under ``GOLDEN_DIR``."""
    return {
        "workload_report.txt": db.workload_report_text(),
        "plan_quality_report.txt": db.plan_quality_report_text(),
        "flight_report.txt": db.flight_report_text(limit=100),
        "top.txt": db.top(),
    }


def main(out_dir: str) -> None:
    import time

    try:
        texts = report_texts(mixed_database())
    finally:
        repro.database.time = time
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(mask(text))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(GOLDEN_DIR))
