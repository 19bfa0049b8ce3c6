"""Exact, order-free aggregate sums.

A float SUM / AVG is the exact sum of its values, rounded once, and
STDDEV's sums are kept the same way, so the answer depends only on the
multiset of values: not on the load order, the batch size, how rows
fall into chunks and batches, the worker count or the engine.  These
tests hold every SUM / AVG to a ``fractions.Fraction`` oracle that
shares no code with the engine, and STDDEV to one answer across every
configuration, over seeded data with wide-range, decimal, huge,
subnormal and signed-zero floats, infinities, NaNs, int-only and mixed
int / float columns, at table sizes one either side of each batch size.
"""

import math
import random
from fractions import Fraction

import pytest

from repro import Database, DatabaseConfig
from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType

# -- the oracle (imports nothing from repro) ----------------------------------


def oracle_sum(values):
    """SUM: None without values, the int sum when every value is an int,
    else the exact sum correctly rounded (+-inf past the double range;
    an inf or NaN argument gives IEEE's inf / NaN; an exact zero is
    +0.0)."""
    values = [value for value in values if value is not None]
    if not values:
        return None
    if all(type(value) is int for value in values):
        return sum(values)
    special = [value for value in values if not math.isfinite(value)]
    if special:
        return sum(special)
    exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def oracle_avg(values):
    values = [value for value in values if value is not None]
    return None if not values else oracle_sum(values) / len(values)


def bits(value):
    """A value as its exact bits: type and ``repr`` (which tells 0.0
    from -0.0 and 1 from 1.0, and round-trips every double)."""
    return type(value).__name__, repr(value)


# -- seeded data ---------------------------------------------------------------

GROUPS = 6


def _float(rng, group, index):
    """One value of column ``f``; each group has its own flavour."""
    if rng.random() < 0.15:
        return None
    if group == 0:  # wide exponent range, heavy cancellation
        value = rng.uniform(-1, 1) * 2.0 ** rng.randint(-70, 70)
        return value if index % 3 else -value
    if group == 1:  # money-like decimals, as TPC-H's
        return round(rng.uniform(0, 1e5), 2) * (1 - rng.choice(
            (0.0, 0.04, 0.07, 0.1)))
    if group == 2:  # near the top of the double range
        return rng.choice((1e308, -1e308, 1.5e308, 1.0, 1e-300))
    if group == 3:  # subnormals, the smallest normal and zeros
        return rng.choice((5e-324, -5e-324, 1.5e-322, 2.2250738585072014e-308,
                           -0.0, 0.0, 1e-310))
    if group == 4:  # infinities beside finite values
        return rng.choice((math.inf, 1.5, -2.25, 3.0))
    return rng.choice((math.nan, 1.0, -math.inf, math.inf, 0.1))


def _rows(seed, count):
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        group = index % GROUPS
        mixed = rng.randint(-2 ** 40, 2 ** 40) if rng.random() < 0.5 \
            else rng.uniform(-1e6, 1e6)
        rows.append((index, group, _float(rng, group, index),
                     None if rng.random() < 0.2
                     else rng.randint(-2 ** 62, 2 ** 62),
                     None if rng.random() < 0.1 else mixed))
    rng.shuffle(rows)  # the load order
    return rows


def _database(rows, batch_size):
    db = Database(DatabaseConfig(batch_size=batch_size))
    db.create_table(TableSchema("t", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("g", MySQLType.LONG, nullable=False),
        Column.of("f", MySQLType.DOUBLE),
        Column.of("i", MySQLType.LONGLONG),
        Column.of("m", MySQLType.DOUBLE),
    ], [Index("PRIMARY", ("id",), primary=True)]))
    db.load("t", rows)
    db.analyze()
    return db


GROUPED = ("SELECT g, SUM(f), AVG(f), SUM(i), AVG(i), SUM(m), AVG(m), "
           "STDDEV(f), STDDEV(i), STDDEV(m), COUNT(f) FROM t GROUP BY g "
           "ORDER BY g")
SCALAR = "SELECT SUM(f), AVG(f), SUM(i), SUM(m), STDDEV(m) FROM t"
RUNNING = ("SELECT id, SUM(f) OVER (PARTITION BY g ORDER BY id), "
           "AVG(m) OVER (PARTITION BY g ORDER BY id), "
           "SUM(i) OVER (PARTITION BY g) FROM t ORDER BY id")


def _expected(rows):
    """The oracle's SUM / AVG cells of the three statements."""
    by_group = {}
    for row in sorted(rows):
        by_group.setdefault(row[1], []).append(row)
    grouped = []
    for group, members in sorted(by_group.items()):
        f, i, m = ([row[k] for row in members] for k in (2, 3, 4))
        grouped.append((group, oracle_sum(f), oracle_avg(f), oracle_sum(i),
                        oracle_avg(i), oracle_sum(m), oracle_avg(m)))
    scalar = (oracle_sum([row[2] for row in rows]),
              oracle_avg([row[2] for row in rows]),
              oracle_sum([row[3] for row in rows]),
              oracle_sum([row[4] for row in rows]))
    running = []
    for row in sorted(rows):
        prefix = [other for other in by_group[row[1]] if other[0] <= row[0]]
        running.append((row[0], oracle_sum([r[2] for r in prefix]),
                        oracle_avg([r[4] for r in prefix]),
                        oracle_sum([r[3] for r in by_group[row[1]]])))
    return grouped, scalar, running


def _cells(result, width):
    """The SUM / AVG cells: each row's first ``width`` values."""
    return [tuple(bits(value) for value in row[:width]) for row in result]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_every_configuration_gives_the_exact_answer(force_fanout, seed,
                                                    batch_size):
    stddevs = set()
    for count in (batch_size - 1, batch_size, batch_size + 1):
        rows = _rows(seed * 1000 + count, count)
        grouped, scalar, running = _expected(rows)
        for load_seed in range(2):
            random.Random(load_seed).shuffle(rows)
            db = _database(rows, batch_size)
            for mode, workers in (("row", 1), ("batch", 1), ("batch", 2)):
                run = lambda sql: db.run(  # noqa: E731
                    sql, executor_mode=mode, executor_workers=workers,
                    use_plan_cache=False).rows
                label = (count, load_seed, mode, workers)
                morsels = db.metrics.count("executor.morsels")
                got = run(GROUPED)
                assert _cells(got, 7) == _cells(grouped, 7), label
                stddevs.add((count, repr([row[7:10] for row in got])))
                got = run(SCALAR)
                assert _cells(got, 4) == _cells([scalar], 4), label
                stddevs.add((count, repr([row[4] for row in got])))
                # Two chunks or more: the scalar aggregate fanned out.
                assert (db.metrics.count("executor.morsels") > morsels) \
                    == (workers == 2 and count > batch_size), label
                assert _cells(run(RUNNING), 4) == _cells(running, 4), label
    # STDDEV: one answer per table, whatever the configuration.
    assert len(stddevs) == 2 * 3


# -- pinned edge cases -----------------------------------------------------------

#: (values, SUM, AVG): the answers the exact fold gives where a
#: left-to-right float fold or a bare ``math.fsum`` does not.
PINNED = [
    # Ten 0.1s sum to 1.0 exactly rounded; a left fold gives 0.999...9.
    ([0.1] * 10, 1.0, 0.1),
    # fsum raises on intermediate overflow; the sum is inf.
    ([1e308, 1e308], math.inf, math.inf),
    ([-1e308, -1e308], -math.inf, -math.inf),
    # The partial sums leave the double range, the exact sum does not.
    ([1e308, 1e308, -1e308], 1e308, 1e308 / 3),
    # fsum raises on inf + -inf; the sum is NaN.
    ([math.inf, -math.inf], math.nan, math.nan),
    ([math.inf, 1.0], math.inf, math.inf),
    ([math.nan, 1.0], math.nan, math.nan),
    # An exact zero is +0.0, whatever the signs of the zeros.
    ([-0.0, -0.0], 0.0, 0.0),
    ([1.5, -1.5], 0.0, 0.0),
    # Subnormals add exactly.
    ([5e-324] * 3, 1.5e-323, 5e-324),
    # Int-only columns stay int; AVG is the correctly rounded quotient.
    ([2 ** 62, 2 ** 62, 1], 2 ** 63 + 1, (2 ** 63 + 1) / 3),
    # Mixed int / float: the exact sum, as a float.
    ([1, 0.5, 2 ** 40], 2 ** 40 + 1.5, (2 ** 40 + 1.5) / 3),
]


@pytest.mark.parametrize("values,total,average", PINNED)
@pytest.mark.parametrize("batch_size", [1, 1024])
def test_pinned_sums(values, total, average, batch_size):
    db = Database(DatabaseConfig(batch_size=batch_size))
    kind = MySQLType.LONGLONG if all(type(v) is int for v in values) \
        else MySQLType.DOUBLE
    db.create_table(TableSchema("v", [
        Column.of("id", MySQLType.LONG, nullable=False),
        Column.of("x", kind)], [Index("PRIMARY", ("id",), primary=True)]))
    db.load("v", list(enumerate(values)))
    assert bits(oracle_sum(values)) == bits(total)
    for mode in ("row", "batch"):
        for sql in ("SELECT SUM(x), AVG(x) FROM v",
                    "SELECT SUM(x) OVER (), AVG(x) OVER () FROM v LIMIT 1"):
            (got,) = db.run(sql, executor_mode=mode).rows
            assert [bits(v) for v in got] == [bits(total), bits(average)], \
                (sql, mode)
