"""Ordered indexes over tables.

An :class:`OrderedIndex` keeps ``(key, row_id)`` pairs sorted by key, which
supports the three access patterns both optimizers care about:

* point lookup (``ref`` / ``eq_ref`` access in MySQL terms),
* range scan, and
* full ordered scan (an index scan that supplies a row order — the Orca
  enhancement from Section 7, lesson 4).

NULL keys are excluded from the index, matching SQL lookup semantics.  Keys
within one index are homogeneous tuples, so plain tuple comparison orders
them.

Maintenance comes in two strengths: :meth:`OrderedIndex.build` re-sorts
every entry (bulk loads only — the storage engine's ``load_rows`` picks
it for a large append), while :meth:`~OrderedIndex.insert_entry` /
:meth:`~OrderedIndex.remove_entry` / :meth:`~OrderedIndex.repoint_entry`
bisect to one entry and shift the sorted lists in C (every INSERT,
UPDATE and DELETE).  Both leave exactly the same ``(key, row_id)``
sequence for the same table.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import Index
from repro.storage.columnstore import ColumnStore


class _AfterAll:
    """Sorts after every key part, so ``prefix + (_AFTER,)`` is the
    least upper bound of all keys that start with ``prefix`` — whether
    ``prefix`` is a full key or a leading part of one."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


_AFTER = _AfterAll()


class OrderedIndex:
    """A sorted (key, row_id) structure for one index definition."""

    def __init__(self, definition: Index, table: ColumnStore) -> None:
        self.definition = definition
        self.table = table
        self._positions = [table.schema.column_position(name)
                           for name in definition.column_names]
        self._entries: List[Tuple[Tuple, int]] = []
        self._keys: List[Tuple] = []
        self.build()

    def key_of(self, row: Sequence) -> Optional[Tuple]:
        """The row's index key, or None when a key part is NULL (such
        rows have no entry)."""
        key = tuple(row[position] for position in self._positions)
        if any(part is None for part in key):
            return None
        return key

    # -- maintenance ---------------------------------------------------------

    def build(self) -> None:
        """(Re)build the index from the table's current rows."""
        entries = []
        for row_id, row in enumerate(self.table.scan()):
            key = self.key_of(row)
            if key is not None:
                entries.append((key, row_id))
        entries.sort()
        self._entries = entries
        self._keys = [entry[0] for entry in entries]

    def insert_entry(self, row: Sequence, row_id: int) -> int:
        """Add the entry for ``row`` stored at ``row_id``.

        Returns the number of entries written (0 for a NULL key)."""
        key = self.key_of(row)
        if key is None:
            return 0
        at = bisect.bisect_left(self._entries, (key, row_id))
        self._entries.insert(at, (key, row_id))
        self._keys.insert(at, key)
        return 1

    def remove_entry(self, row: Sequence, row_id: int) -> int:
        """Drop the entry for ``row`` stored at ``row_id``.

        Returns the number of entries removed (0 for a NULL key)."""
        key = self.key_of(row)
        if key is None:
            return 0
        at = bisect.bisect_left(self._entries, (key, row_id))
        del self._entries[at]
        del self._keys[at]
        return 1

    def repoint_entry(self, row: Sequence, old_id: int, new_id: int) -> int:
        """``row`` moved from ``old_id`` to a lower ``new_id`` (the table
        filled a deleted slot with its last row).

        The key is unchanged, so the entry only moves within its run of
        equal keys: ``_keys`` stays as it is and ``_entries`` is
        rewritten over that run alone — no list shift at all.  Returns
        the number of entries rewritten (0 for a NULL key)."""
        key = self.key_of(row)
        if key is None:
            return 0
        entries = self._entries
        old_at = bisect.bisect_left(entries, (key, old_id))
        new_at = bisect.bisect_left(entries, (key, new_id), 0, old_at)
        entries[new_at:old_at + 1] = \
            [(key, new_id)] + entries[new_at:old_at]
        return 1

    # -- lookups -------------------------------------------------------------

    def _span(self, low: Optional[Tuple], high: Optional[Tuple],
              low_inclusive: bool, high_inclusive: bool) -> Tuple[int, int]:
        """Entry positions ``[start, stop)`` whose key prefix lies
        between the bounds; each end is one bisect."""
        keys = self._keys
        if low is None:
            start = 0
        else:
            start = bisect.bisect_left(
                keys, low if low_inclusive else low + (_AFTER,))
        if high is None:
            stop = len(keys)
        else:
            stop = bisect.bisect_left(
                keys, high + (_AFTER,) if high_inclusive else high)
        return start, stop

    def lookup(self, key: Tuple) -> List[int]:
        """Row ids whose index key equals ``key`` or, when ``key`` is
        shorter than the index key, starts with it."""
        if any(part is None for part in key):
            return []
        return self.range_scan(key, key)

    def range_scan(self, low: Optional[Tuple], high: Optional[Tuple],
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> List[int]:
        """Row ids whose key prefix lies in [low, high], in key order.

        ``low`` / ``high`` may be shorter than the full key (prefix bounds);
        ``None`` means unbounded on that side.
        """
        start, stop = self._span(low, high, low_inclusive, high_inclusive)
        return [entry[1] for entry in self._entries[start:stop]]

    def ordered_row_ids(self, descending: bool = False) -> Iterator[int]:
        """All row ids in key order — the order-supplying index scan."""
        entries = reversed(self._entries) if descending else self._entries
        for __, row_id in entries:
            yield row_id

    @property
    def entry_count(self) -> int:
        return len(self._entries)
