"""Same plans, pinned: a digest of every corpus statement's EXPLAIN.

The join search, the access-path helpers and the lexer are rewritten
for speed from time to time; none of that may change a plan.  This test
compiles the 22 TPC-H statements (scale 0.05) and the 99 TPC-DS
statements (scale 0.2) under both optimizers, and the seven
``compile_mix`` join topologies (scale 0.25, the benchmark's seed) under
both optimizers, and compares a SHA-256 digest of each EXPLAIN text with
``tests/goldens/explain/digests.json``.

The golden is written once, from the code before a speed change lands,
and is never regenerated to make a change pass — a digest that moves is
a plan that moved.  To write it (for a new corpus statement, say)::

    PYTHONPATH=src python tests/test_explain_digest.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro import Database
from repro.workloads.joins import load_topology, make_topology
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "explain" / \
    "digests.json"
OPTIMIZERS = ("orca", "mysql")
#: The ``compile_mix`` join topologies and the seed the benchmark uses.
TOPOLOGIES = (("chain", 10), ("chain", 20), ("chain", 30), ("star", 10),
              ("star", 20), ("snowflake", 16), ("clique", 10))
TOPOLOGY_SEED = 1234


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _corpus_dbs():
    """(corpus name, database, {statement name: sql}) per corpus."""
    tpch = Database()
    load_tpch(tpch, scale=0.05)
    yield "tpch", tpch, {f"q{n}": sql for n, sql in TPCH_QUERIES.items()}
    tpcds = Database()
    load_tpcds(tpcds, scale=0.2)
    yield "tpcds", tpcds, {f"ds{n}": sql
                           for n, sql in TPCDS_QUERIES.items()}
    joins = Database()
    statements = {}
    for kind, relations in TOPOLOGIES:
        topology = make_topology(kind, relations, seed=TOPOLOGY_SEED,
                                 scale=0.25)
        load_topology(joins, topology)
        statements[f"{kind}{relations}"] = topology.query
    yield "joins", joins, statements


def explain_digests():
    """``{"corpus/statement/optimizer": digest}`` over the whole corpus."""
    digests = {}
    for corpus, db, statements in _corpus_dbs():
        for name, sql in sorted(statements.items()):
            for optimizer in OPTIMIZERS:
                result = db.compile_only(sql, optimizer=optimizer)
                digests[f"{corpus}/{name}/{optimizer}"] = \
                    _digest(result.explain)
    return digests


@pytest.fixture(scope="module")
def digests():
    return explain_digests()


def test_corpus_is_complete(digests):
    assert len(digests) == 2 * (len(TPCH_QUERIES) + len(TPCDS_QUERIES)
                                + len(TOPOLOGIES)) == 256


def test_every_explain_matches_the_golden(digests):
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(key for key in golden if digests.get(key) != golden[key])
    assert not moved, f"{len(moved)} plans changed: {moved}"
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(explain_digests(), indent=1,
                                 sort_keys=True) + "\n")
