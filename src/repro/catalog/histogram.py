"""Singleton and equi-height histograms.

Both optimizers consume histograms.  MySQL supports singleton and
equi-height histograms for every type, including strings; Orca originally
supported only *singleton* string histograms (a non-order-preserving hash
prevents range estimation).  The paper (Sections 5.5 and 7) extends Orca
with equi-height string histograms by encoding string bucket boundaries as
64-bit signed integers with an order-preserving fixed-length prefix code.
:func:`encode_string_key` implements that code, including its documented
weakness: strings sharing a long common prefix become indistinguishable.
"""

from __future__ import annotations

import bisect
import datetime
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, methodcaller
from typing import (Callable, Collection, Dict, Iterable, List, Mapping,
                    Optional, Tuple)

#: Number of leading bytes folded into the 64-bit string key (Section 7:
#: "because of the fixed length, it cannot distinguish between two strings
#: with a long common prefix").
_STRING_KEY_PREFIX_BYTES = 7


def encode_string_key(value: str) -> int:
    """Encode a string as an order-preserving 56-bit non-negative integer.

    The first seven bytes of the string are packed big-endian (fitting
    comfortably in the paper's 64-bit signed integer), so
    ``encode_string_key(a) < encode_string_key(b)`` whenever ``a < b``
    byte-wise *and* the strings differ within the prefix.  Strings that
    agree on the first seven bytes map to the same key — the precise
    limitation the paper reports for its scheme.
    """
    data = value.encode("utf-8", errors="replace")[:_STRING_KEY_PREFIX_BYTES]
    return int.from_bytes(data.ljust(_STRING_KEY_PREFIX_BYTES, b"\0"), "big")


def _to_number(value) -> float:
    """Map any histogram-able value onto the real line, order preserved."""
    if value is None:
        raise ValueError("NULL has no histogram position")
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.datetime):
        return value.timestamp()
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, datetime.time):
        return value.hour * 3600.0 + value.minute * 60.0 + value.second
    if isinstance(value, str):
        return float(encode_string_key(value))
    raise ValueError(f"cannot place {value!r} on a histogram axis")


class Histogram:
    """Interface shared by both histogram kinds.

    All selectivity results are fractions of the *non-null* rows in
    [0, 1]; callers scale by the null fraction separately.
    """

    kind = "abstract"

    def selectivity_eq(self, value) -> float:
        raise NotImplementedError

    def selectivity_range(self, low, high,
                          low_inclusive: bool = True,
                          high_inclusive: bool = False) -> float:
        """Fraction of rows with low <= value <(=) high; None = unbounded."""
        raise NotImplementedError

    def selectivity_lt(self, value, inclusive: bool = False) -> float:
        return self.selectivity_range(None, value, high_inclusive=inclusive)

    def selectivity_gt(self, value, inclusive: bool = False) -> float:
        return self.selectivity_range(value, None, low_inclusive=inclusive)

    @property
    def distinct_values(self) -> float:
        raise NotImplementedError


@dataclass
class SingletonHistogram(Histogram):
    """One bucket per distinct value: exact equality selectivities.

    MySQL builds these when a column has at most ``histogram buckets``
    distinct values; Orca's native string histograms are of this kind.
    """

    frequencies: Dict[object, float]  # value -> fraction of non-null rows
    kind = "singleton"

    def selectivity_eq(self, value) -> float:
        return self.frequencies.get(value, 0.0)

    def selectivity_range(self, low, high,
                          low_inclusive: bool = True,
                          high_inclusive: bool = False) -> float:
        total = 0.0
        for value, fraction in self.frequencies.items():
            if low is not None:
                cmp = _to_number(value) - _to_number(low)
                if cmp < 0 or (cmp == 0 and not low_inclusive):
                    continue
            if high is not None:
                cmp = _to_number(value) - _to_number(high)
                if cmp > 0 or (cmp == 0 and not high_inclusive):
                    continue
            total += fraction
        return min(1.0, total)

    @property
    def distinct_values(self) -> float:
        return float(len(self.frequencies))


@dataclass
class EquiHeightHistogram(Histogram):
    """Equal-mass buckets: (lower, upper, cumulative_fraction, bucket_ndv).

    Buckets are stored as parallel arrays ordered by upper bound.  The
    cumulative fraction at index ``i`` is the fraction of non-null rows
    with value <= ``uppers[i]``.
    """

    lowers: List[float]
    uppers: List[float]
    cumulative: List[float]
    bucket_ndv: List[float]
    kind = "equi_height"

    def __post_init__(self) -> None:
        if not (len(self.lowers) == len(self.uppers) == len(self.cumulative)
                == len(self.bucket_ndv)):
            raise ValueError("equi-height arrays must have equal lengths")

    @property
    def bucket_count(self) -> int:
        return len(self.uppers)

    @property
    def distinct_values(self) -> float:
        return sum(self.bucket_ndv)

    def _bucket_fraction(self, index: int) -> float:
        previous = self.cumulative[index - 1] if index > 0 else 0.0
        return self.cumulative[index] - previous

    def selectivity_eq(self, value) -> float:
        if not self.uppers:
            return 0.0
        point = _to_number(value)
        index = bisect.bisect_left(self.uppers, point)
        if index >= self.bucket_count or point < self.lowers[index]:
            return 0.0
        ndv = max(1.0, self.bucket_ndv[index])
        return self._bucket_fraction(index) / ndv

    def _cumulative_below(self, point: float, inclusive: bool) -> float:
        """Fraction of rows with value < point (or <= when inclusive)."""
        if not self.uppers:
            return 0.0
        index = bisect.bisect_left(self.uppers, point)
        if index >= self.bucket_count:
            return 1.0
        before = self.cumulative[index - 1] if index > 0 else 0.0
        lower, upper = self.lowers[index], self.uppers[index]
        if point < lower:
            return before
        if upper == lower:
            inside = 1.0 if (point > upper or (inclusive and point == upper)) \
                else 0.0
        else:
            inside = (point - lower) / (upper - lower)
            if inclusive:
                inside += 1.0 / max(1.0, self.bucket_ndv[index])
            inside = min(1.0, max(0.0, inside))
        return before + inside * self._bucket_fraction(index)

    def selectivity_range(self, low, high,
                          low_inclusive: bool = True,
                          high_inclusive: bool = False) -> float:
        upper_mass = (1.0 if high is None
                      else self._cumulative_below(_to_number(high),
                                                  high_inclusive))
        lower_mass = (0.0 if low is None
                      else self._cumulative_below(_to_number(low),
                                                  not low_inclusive))
        return max(0.0, min(1.0, upper_mass - lower_mass))


#: Columns with at most this many distinct values get singleton histograms,
#: matching MySQL's ANALYZE TABLE behaviour.
SINGLETON_NDV_LIMIT = 64
DEFAULT_BUCKETS = 32


def build_histogram(values: Iterable, buckets: int = DEFAULT_BUCKETS,
                    singleton_limit: int = SINGLETON_NDV_LIMIT
                    ) -> Optional[Histogram]:
    """Build the appropriate histogram for a column's values (NULLs are
    ignored); see :func:`histogram_from_counts`."""
    counts = Counter(values)
    counts.pop(None, None)
    return histogram_from_counts(counts, buckets, singleton_limit)


def histogram_from_counts(counts: Mapping[object, int],
                          buckets: int = DEFAULT_BUCKETS,
                          singleton_limit: int = SINGLETON_NDV_LIMIT
                          ) -> Optional[Histogram]:
    """Build the appropriate histogram from ``value -> occurrences`` of
    a column's non-null values.

    Returns ``None`` for an empty column.  Few distinct values produce a
    :class:`SingletonHistogram`; otherwise an :class:`EquiHeightHistogram`
    is built (numeric axis as in :func:`_to_number`, so strings use the
    order-preserving prefix code).
    """
    if not counts:
        return None
    if len(counts) <= singleton_limit:
        total = float(sum(counts.values()))
        return SingletonHistogram(
            {value: count / total for value, count in counts.items()})
    return _build_equi_height(counts, buckets)


def _axis_points(values: Collection) -> Iterable[float]:
    """:func:`_to_number` over ``values``, with the conversion chosen
    once from the types present instead of once per value."""
    types = set(map(type, values))
    if types <= {int, float, bool}:
        return map(float, values)
    if types == {datetime.date}:
        return map(float, map(methodcaller("toordinal"), values))
    if types == {str}:
        return map(float, map(encode_string_key, values))
    return map(_to_number, values)


#: Integers up to this magnitude are exact as floats, so distinct ones
#: land on distinct axis points.
_EXACT_INT = 2 ** 53


def _runs(counts: Mapping[object, int]
          ) -> Tuple[Callable[[int], float], List[int]]:
    """The column's runs in axis order: ``point(i)`` is run *i*'s axis
    point and ``ends[i]`` how many values lie at or below it.

    A run is every occurrence of one point — of one value, or of several
    the axis cannot tell apart.  Where sorting the values themselves
    sorts their points (numbers within ±2**53 and dates, each value its
    own run; ASCII strings, whose runs are the 7-byte prefix groups
    with equal points merged), the distinct values are sorted natively
    and only run starts are mapped onto the axis.  Anything else (mixed
    types, non-ASCII strings, larger integers) places every value and
    sorts the points.  (A NaN sorts the same either way: it compares
    false with everything, whether as itself or as its float.)"""
    types = set(map(type, counts))
    values: List = []
    if types <= {int, float, bool}:
        values = sorted(counts)
        if not -_EXACT_INT <= values[0] <= values[-1] <= _EXACT_INT:
            values = []
    elif types == {datetime.date} or (types == {str}
                                      and all(map(str.isascii, counts))):
        values = sorted(counts)
    if not values:
        runs: Dict[float, int] = {}
        for point, count in zip(_axis_points(counts), counts.values()):
            runs[point] = runs.get(point, 0) + count
        points = sorted(runs)
        return points.__getitem__, list(accumulate(map(runs.__getitem__,
                                                       points)))
    ends = list(accumulate(map(counts.__getitem__, values)))
    if types == {datetime.date}:
        return (lambda i: float(values[i].toordinal())), ends
    if types != {str}:
        return (lambda i: float(values[i])), ends
    # Prefix groups are contiguous in sorted order: the dict keeps each
    # group's last value position, and then each point's last group.
    last = dict(zip(map(itemgetter(slice(0, _STRING_KEY_PREFIX_BYTES)),
                        values), range(len(values))))
    points = map(float, map(int.from_bytes, map(
        methodcaller("ljust", _STRING_KEY_PREFIX_BYTES, b"\0"),
        map(str.encode, last)), repeat("big")))
    run_ends = dict(zip(points, map(ends.__getitem__, last.values())))
    return list(run_ends).__getitem__, list(run_ends.values())


def _build_equi_height(counts: Mapping[object, int],
                       buckets: int) -> EquiHeightHistogram:
    """Cut equal-mass buckets over the column's runs (:func:`_runs`);
    a run never straddles a bucket boundary."""
    point, ends = _runs(counts)
    total = ends[-1]
    per_bucket = max(1, total // buckets)
    lowers: List[float] = []
    uppers: List[float] = []
    cumulative: List[float] = []
    bucket_ndv: List[float] = []
    first = 0
    while first < len(ends):
        start = ends[first - 1] if first else 0
        # The bucket ends with the run holding its per_bucket-th value.
        last = bisect.bisect_left(ends, min(total, start + per_bucket))
        lowers.append(point(first))
        uppers.append(point(last))
        cumulative.append(ends[last] / total)
        bucket_ndv.append(float(last - first + 1))
        first = last + 1
    return EquiHeightHistogram(lowers, uppers, cumulative, bucket_ndv)
