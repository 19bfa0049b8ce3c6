"""Table and column statistics served to both optimizers.

The metadata provider (Section 5.5) ships, per relation: cardinality;
per-column null counts; per-column distinct counts; and histograms.  The
paper additionally lifted MySQL's restriction that UNIQUE columns carry no
histogram, so that Orca could see them — ``ColumnStatistics.from_values``
therefore always builds a histogram when asked, and the ``unique`` flag is
carried alongside.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.catalog.histogram import Histogram, histogram_from_counts


@dataclass
class ColumnStatistics:
    """Statistics for a single column."""

    null_count: int = 0
    distinct_count: int = 0
    min_value: object = None
    max_value: object = None
    histogram: Optional[Histogram] = None
    unique: bool = False

    @staticmethod
    def from_values(values: Iterable, unique: bool = False,
                    with_histogram: bool = True) -> "ColumnStatistics":
        """Compute statistics over a column's values (ANALYZE TABLE).

        ``values`` may be any single-pass iterable.  It is consumed
        once, into a ``value -> occurrences`` counter; null count, NDV,
        min/max and the histogram are all read off that counter, so the
        work after the count is proportional to the distinct values.
        """
        counts = Counter(values)
        null_count = counts.pop(None, 0)
        return ColumnStatistics(
            null_count=null_count,
            distinct_count=len(counts),
            min_value=min(counts) if counts else None,
            max_value=max(counts) if counts else None,
            histogram=histogram_from_counts(counts)
            if with_histogram else None,
            unique=unique,
        )

    def null_fraction(self, row_count: int) -> float:
        if row_count <= 0:
            return 0.0
        return min(1.0, self.null_count / row_count)


@dataclass
class TableStatistics:
    """Statistics for a whole table."""

    row_count: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)
    #: True once ANALYZE computed these statistics; False for the
    #: all-default object a table starts with.  The plan-quality
    #: staleness report uses this to tell "never analyzed" apart from
    #: "analyzed when the table was empty".
    analyzed: bool = False

    def column(self, name: str) -> ColumnStatistics:
        """Statistics for a column; a neutral default if never analyzed."""
        if name not in self.columns:
            self.columns[name] = ColumnStatistics(
                distinct_count=max(1, self.row_count // 10))
        return self.columns[name]

    def ndv(self, name: str) -> float:
        """Distinct-value count with a safe floor of one."""
        return float(max(1, self.column(name).distinct_count))
