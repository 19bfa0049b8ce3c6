"""Estimate accuracy, pinned: the q-error census of the corpus.

Runs the 22 TPC-H statements (scale 0.05) and the 99 TPC-DS statements
(scale 0.2) under both optimizers and records, per statement, the
q-error of the root's estimate and the worst per-loop q-error of any
plan node (:func:`repro.plan_quality.per_loop_q`), to four significant
digits, against ``tests/goldens/qerror/census.json``.

An estimator or plan change that moves a cardinality moves this file:
the diff of the golden shows exactly which q-errors rose or fell, so a
change says which ones it moved and why, and regenerates it::

    PYTHONPATH=src python tests/test_qerror_census.py --write
"""

import json
import pathlib
import sys

import pytest

from repro import Database
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "qerror" / \
    "census.json"
OPTIMIZERS = ("orca", "mysql")


def _significant(q):
    return float(f"{q:.4g}")


def census():
    """``{"corpus/statement/optimizer": {"root_q", "max_q"}}``."""
    tpch = Database()
    load_tpch(tpch, scale=0.05)
    tpcds = Database()
    load_tpcds(tpcds, scale=0.2)
    corpora = (("tpch", tpch, TPCH_QUERIES), ("tpcds", tpcds, TPCDS_QUERIES))
    result = {}
    for corpus, db, queries in corpora:
        prefix = "q" if corpus == "tpch" else "ds"
        for number, sql in sorted(queries.items()):
            for optimizer in OPTIMIZERS:
                quality = db.run(sql, optimizer=optimizer,
                                 use_plan_cache=False).plan_quality
                result[f"{corpus}/{prefix}{number}/{optimizer}"] = {
                    "root_q": _significant(quality.root_q),
                    "max_q": _significant(quality.max_q)}
    return result


@pytest.fixture(scope="module")
def measured():
    return census()


def test_census_is_complete(measured):
    assert len(measured) == 2 * (len(TPCH_QUERIES) + len(TPCDS_QUERIES))


def test_every_q_error_matches_the_golden(measured):
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(key for key in golden if measured.get(key) != golden[key])
    assert not moved, f"{len(moved)} q-errors changed: " + ", ".join(
        f"{key} {golden[key]} -> {measured.get(key)}" for key in moved)
    assert measured.keys() == golden.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(census(), indent=1, sort_keys=True) + "\n")
