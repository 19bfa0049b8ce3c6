"""A4 — ablation: histogram fidelity (Sections 5.5 and 7).

The integration lifted MySQL's no-histograms-on-UNIQUE-columns rule and
taught Orca equi-height *string* histograms.  This ablation compares
Orca's selectivity estimates against truth with full histograms, and with
statistics stripped of histograms (ANALYZE ... without histograms).
"""

import pytest

from benchmarks.conftest import SCALE, write_report
from repro import Database, DatabaseConfig
from repro.selectivity import SelectivityEstimator
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.workloads.tpch import load_tpch

PROBES = [
    # (condition, truth function over the lineitem heap)
    ("l_quantity < 10", lambda row: row[4] < 10),
    ("l_extendedprice > 150000", lambda row: row[5] > 150000),
    ("l_shipdate < DATE '1994-01-01'",
     lambda row: row[10].isoformat() < "1994-01-01"),
    ("l_discount BETWEEN 0.05 AND 0.07",
     lambda row: 0.05 <= row[6] <= 0.07),
    ("l_shipmode = 'AIR'", lambda row: row[14] == "AIR"),
]


def _estimation_error(db, use_histograms):
    estimator = SelectivityEstimator(db.catalog, use_histograms)
    heap = list(db.storage.store("lineitem").scan())
    total_error = 0.0
    for condition, truth in PROBES:
        stmt = parse_statement(
            f"SELECT 1 FROM lineitem WHERE {condition}")
        block, __ = Resolver(db.catalog).resolve(stmt)
        prepare(block)
        estimate = estimator.conjunct_selectivity(
            block, block.where_conjuncts[0])
        actual = sum(1 for row in heap if truth(row)) / len(heap)
        total_error += abs(estimate - actual)
    return total_error / len(PROBES)


def test_histograms_reduce_estimation_error(benchmark):
    def measure():
        db = Database(DatabaseConfig())
        load_tpch(db, scale=min(SCALE, 0.5))
        with_histograms = _estimation_error(db, use_histograms=True)
        without = _estimation_error(db, use_histograms=False)
        return with_histograms, without

    with_h, without_h = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_report(
        "ablation_histograms.txt",
        f"mean |estimate - actual| over {len(PROBES)} probes:\n"
        f"  with histograms:    {with_h:.4f}\n"
        f"  without histograms: {without_h:.4f}")
    assert with_h < without_h, (
        "histogram-backed estimation should beat the heuristics")
    assert with_h < 0.08, f"histogram error too large: {with_h:.4f}"
