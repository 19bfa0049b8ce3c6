"""Integration: the TPC-DS suite agrees across the two optimizers.

The full 99-query sweep runs in the benchmarks; here a representative
subset (every hand-written flagship plus one query from each template
family) keeps the test suite fast while covering every query shape.
"""

import pytest

from repro import Database, DatabaseConfig
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds

from benchmarks.paper import results_match

#: All hand-written flagships plus a slice of the template families.
SUBSET = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 24, 31, 32, 41,
          58, 72, 81, 92)


@pytest.fixture(scope="module")
def db():
    database = Database(DatabaseConfig(complex_query_threshold=2))
    load_tpcds(database, scale=0.2, seed=7)
    return database


@pytest.mark.parametrize("number", SUBSET)
def test_query_results_match(db, number):
    sql = TPCDS_QUERIES[number]
    mysql_rows = db.execute(sql, optimizer="mysql")
    orca_rows = db.execute(sql, optimizer="orca")
    assert results_match(mysql_rows, orca_rows)


def test_suite_has_99_queries():
    assert sorted(TPCDS_QUERIES) == list(range(1, 100))


def test_q72_is_the_paper_snowflake(db):
    # Listing 1's structure: 11 table references, two LEFT OUTER JOINs.
    sql = TPCDS_QUERIES[72]
    assert sql.count("JOIN") >= 10
    assert sql.count("LEFT OUTER JOIN") == 2
    rows = db.execute(sql, optimizer="orca")
    assert isinstance(rows, list)


def test_q41_or_structure(db):
    # Section 6.2: the self-join condition appears in every OR branch.
    sql = TPCDS_QUERIES[41]
    assert sql.count("item.i_manufact = i1.i_manufact") == 4


def test_flagship_queries_nonempty(db):
    for number in (6, 9, 17, 41, 58):
        rows = db.execute(TPCDS_QUERIES[number], optimizer="orca")
        assert rows, f"Q{number} returned no rows"


def test_full_suite_sweep_tiny_scale():
    """Every one of the 99 queries agrees across optimizers (tiny data).

    The benchmark suite runs this at full mini scale; here a very small
    dataset keeps the complete-coverage sweep fast enough for tests.
    """
    database = Database(DatabaseConfig(complex_query_threshold=2))
    load_tpcds(database, scale=0.12, seed=19)
    mismatches = []
    for number in sorted(TPCDS_QUERIES):
        sql = TPCDS_QUERIES[number]
        mysql_rows = database.execute(sql, optimizer="mysql")
        orca_rows = database.execute(sql, optimizer="orca")
        if not results_match(mysql_rows, orca_rows):
            mismatches.append(number)
    assert not mismatches, mismatches
