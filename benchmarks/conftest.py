"""Shared fixtures for the paper-reproduction benchmarks.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — data scale factor (default 1.0; the mini scale
  documented in DESIGN.md).  Use 0.25 for a quick smoke pass.
* ``REPRO_BENCH_TIMEOUT`` — per-query soft timeout in seconds (default
  180).  A query that exceeds it is recorded at the cap, like the paper's
  TPC-DS Q1 MySQL run that was "cancelled after 600 sec".

Formatted reports are printed and written under ``benchmarks/results/``.
"""

import os
import pathlib

import pytest

from benchmarks.paper import run_suite
from repro import Database, DatabaseConfig
from repro.workloads.tpch import TPCH_QUERIES, load_tpch
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "180"))
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Cross-file cache so Fig. 12 reuses Fig. 11's suite run.
_SESSION_CACHE = {}


def session_cache():
    return _SESSION_CACHE


def write_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def tpch_db():
    db = Database(DatabaseConfig(complex_query_threshold=3,
                                 orca_search="EXHAUSTIVE2"))
    load_tpch(db, scale=SCALE)
    return db


@pytest.fixture(scope="session")
def tpcds_db():
    # Section 6.2 ran TPC-DS with the threshold set to 2.
    db = Database(DatabaseConfig(complex_query_threshold=2,
                                 orca_search="EXHAUSTIVE2"))
    load_tpcds(db, scale=SCALE)
    return db


def run_tpch_suite(db):
    return run_suite(db, TPCH_QUERIES, "TPC-H",
                     timeout_seconds=TIMEOUT)


def run_tpcds_suite(db):
    return run_suite(db, TPCDS_QUERIES, "TPC-DS",
                     timeout_seconds=TIMEOUT)
