"""Equi-height histograms built in the values' native order are
byte-identical to those built by placing every value on the axis.

``_build_equi_height`` sorts the distinct values themselves where that
sorts their axis points (numbers within ±2**53, dates, ASCII strings
grouped by 7-byte prefix) and maps only run starts onto the axis.  The
function it replaced lives on here as :func:`reference_equi_height`:
every distinct value placed with ``_axis_points``, equal points merged,
the points sorted.  Seeded columns — duplicates, ``1`` beside ``1.0``,
``-0.0``, integers at and beyond ±2**53, infinities and NaN, dates,
strings sharing long prefixes or differing only past the seventh byte
or in the low bits of it, ``"a"`` beside ``"a\\0"``, non-ASCII and
mixed-type columns — must give the same ``repr``.
"""

import bisect
import datetime
import random
from collections import Counter
from itertools import accumulate

import pytest

from repro.catalog.histogram import (EquiHeightHistogram, _axis_points,
                                     _build_equi_height)


def reference_equi_height(counts, buckets):
    runs = {}
    for point, count in zip(_axis_points(counts), counts.values()):
        runs[point] = runs.get(point, 0) + count
    points = sorted(runs)
    ends = list(accumulate(map(runs.__getitem__, points)))
    total = ends[-1]
    per_bucket = max(1, total // buckets)
    lowers, uppers, cumulative, bucket_ndv = [], [], [], []
    first = 0
    while first < len(points):
        start = ends[first - 1] if first else 0
        last = bisect.bisect_left(ends, min(total, start + per_bucket))
        lowers.append(points[first])
        uppers.append(points[last])
        cumulative.append(ends[last] / total)
        bucket_ndv.append(float(last - first + 1))
        first = last + 1
    return EquiHeightHistogram(lowers, uppers, cumulative, bucket_ndv)


def ints(rng, n):
    return [rng.randrange(-50, 400) for __ in range(n)]


def wide_ints(rng, n):
    edge = 2 ** 53
    return [rng.choice((edge, -edge, edge - 1, rng.randrange(10 ** 6)))
            for __ in range(n)]


def huge_ints(rng, n):
    edge = 2 ** 53
    return [rng.choice((edge, edge + 1, 2 ** 60, rng.randrange(10 ** 6)))
            for __ in range(n)]


def floats(rng, n):
    return [round(rng.uniform(-100, 100), rng.randrange(4))
            for __ in range(n)] + [-0.0, 0.0, 0]


def mixed_numbers(rng, n):
    return [rng.choice((rng.randrange(50), rng.randrange(50) / 4, True))
            for __ in range(n)]


def special_floats(rng, n):
    return floats(rng, n) + [float("inf"), float("-inf")]


def nan_floats(rng, n):
    return floats(rng, n) + [float("nan")]


def dates(rng, n):
    start = datetime.date(1992, 1, 1)
    return [start + datetime.timedelta(days=rng.randrange(2500))
            for __ in range(n)]


def strings(rng, n):
    stems = ("", "a", "a\0", "a\0b", "abcdef", "abcdefg", "abcdefh",
             "abcdef0", "abcdef1", "abcdef2", "abcdef3", "zzzzzzzz")
    return [rng.choice(stems) + "".join(
        rng.choice("ab\0~") for __ in range(rng.randrange(4)))
        for __ in range(n)] + ["%08d" % rng.randrange(10 ** 8)
                               for __ in range(n)]


def non_ascii(rng, n):
    return strings(rng, n) + ["é" * rng.randrange(1, 6), "éééé", "€€€",
                              "€uro", "abcdeé", "abcdefé", "abcdefè"]


def mixed_types(rng, n):
    return ints(rng, n) + strings(rng, n)


COLUMNS = (ints, wide_ints, huge_ints, floats, mixed_numbers,
           special_floats, nan_floats, dates, strings, non_ascii,
           mixed_types)


@pytest.mark.parametrize("column", COLUMNS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(4))
def test_native_order_matches_axis_order(column, seed):
    rng = random.Random(seed)
    counts = Counter(column(rng, rng.choice((70, 300, 2000))))
    for buckets in (1, 7, 32, 5000):
        assert repr(_build_equi_height(counts, buckets)) == repr(
            reference_equi_height(counts, buckets)), buckets
