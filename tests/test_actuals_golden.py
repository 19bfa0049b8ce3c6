"""Same work, pinned: a digest of every corpus statement's actuals.

Speed work on the batch operators (how a join emits its rows, how an
aggregate builds its output) may change how fast a statement runs, never
what it does.  This test compiles the 22 TPC-H statements (scale 0.05)
and the 99 TPC-DS statements (scale 0.2) under both optimizers, runs
each on the batch engine at batch sizes 7 and 1024, and compares, per
statement, a SHA-256 digest of

- each plan node's label and its actual ``rows``, ``loops`` and
  ``batches`` (what EXPLAIN ANALYZE and the statement log read),
- the storage counters the run moved,
- the bytes charged to the governor as ``hash_join_build``,
- the result rows as a multiset

with ``tests/goldens/actuals/digests.json``.

The golden is written from the code before a change to the operators
lands, and is never regenerated to make a change pass: a digest that
moves is work that moved.  To write it (for a new corpus statement,
say)::

    PYTHONPATH=src python tests/test_actuals_golden.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro import Database, DatabaseConfig
from repro.governor import ExecutionGovernor
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "actuals" / \
    "digests.json"
OPTIMIZERS = ("orca", "mysql")
BATCH_SIZES = (7, 1024)


class _ChargeLog(ExecutionGovernor):
    """An unbounded governor that sums the bytes charged per operator."""

    def __init__(self) -> None:
        super().__init__()
        self.charged = {}

    def charge(self, nbytes, operator, spillable=False):
        self.charged[operator] = self.charged.get(operator, 0) + nbytes
        super().charge(nbytes, operator, spillable)


def work(db, sql, optimizer, workers=1):
    """What one batch execution of ``sql`` did, as a JSON-able list."""
    executor = db._compile(sql, optimizer)[0]
    counters = db.storage.counters
    governor = _ChargeLog()
    before = counters.snapshot()
    rows = executor.execute(mode="batch", governor=governor,
                            workers=workers)
    after = counters.snapshot()
    return [[[node.label(), node.actual_rows, node.actual_loops,
              node.actual_batches]
             for node in executor.iter_plan_nodes()],
            {key: after[key] - before[key] for key in sorted(after)
             if after[key] != before[key]},
            governor.charged.get("hash_join_build", 0),
            sorted(map(repr, rows))]


def _digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _corpus_dbs(batch_size):
    """(corpus name, database, {statement name: sql}) per corpus."""
    tpch = Database(DatabaseConfig(batch_size=batch_size))
    load_tpch(tpch, scale=0.05)
    yield "tpch", tpch, {f"q{n}": sql for n, sql in TPCH_QUERIES.items()}
    tpcds = Database(DatabaseConfig(batch_size=batch_size))
    load_tpcds(tpcds, scale=0.2)
    yield "tpcds", tpcds, {f"ds{n}": sql
                           for n, sql in TPCDS_QUERIES.items()}


def actuals_digests():
    """``{"corpus/statement/optimizer/batchN": digest}`` over the
    corpus."""
    digests = {}
    for batch_size in BATCH_SIZES:
        for corpus, db, statements in _corpus_dbs(batch_size):
            for name, sql in sorted(statements.items()):
                for optimizer in OPTIMIZERS:
                    key = f"{corpus}/{name}/{optimizer}/batch{batch_size}"
                    digests[key] = _digest(work(db, sql, optimizer))
    return digests


@pytest.fixture(scope="module")
def digests():
    return actuals_digests()


def test_corpus_is_complete(digests):
    assert len(digests) == len(BATCH_SIZES) * len(OPTIMIZERS) \
        * (len(TPCH_QUERIES) + len(TPCDS_QUERIES)) == 484


def test_every_statement_does_the_recorded_work(digests):
    golden = json.loads(GOLDEN.read_text())
    moved = sorted(key for key in golden if digests.get(key) != golden[key])
    assert not moved, f"{len(moved)} statements did other work: {moved}"
    assert digests.keys() == golden.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(actuals_digests(), indent=1,
                                 sort_keys=True) + "\n")
