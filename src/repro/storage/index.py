"""Ordered indexes over tables.

An :class:`OrderedIndex` keeps its entries in ``(key, row_id)`` order,
which supports the three access patterns both optimizers care about:

* point lookup (``ref`` / ``eq_ref`` access in MySQL terms),
* range scan, and
* full ordered scan (an index scan that supplies a row order — the Orca
  enhancement from Section 7, lesson 4).

The entries are two parallel sorted sequences, not a list of pairs:
``_keys`` holds the keys and ``_ids`` an ``array('q')`` of the row ids.
A one-column index stores each key bare — the very value object the
table's chunk holds, so an entry costs a list slot and eight array
bytes — and a composite index stores key tuples.  Every operation
bisects the key list, then, for maintenance, the ascending id run of
equal keys, so the order is exactly that of sorting ``(key, row_id)``
pairs.  :meth:`OrderedIndex.entries` reads them back as such pairs,
keys in :meth:`~OrderedIndex.key_of` form.

Every row has an entry, as in InnoDB: a NULL key part is stored as the
:data:`NULL_KEY` sentinel, which sorts before every value — MySQL's
ascending NULL order, so an ordered index scan returns exactly the rows
and the order ``ORDER BY`` the key columns asks for.  Lookups never
match NULL (a key with a NULL part finds nothing, and a range bound
excludes the NULLs of the column it bounds), and a unique index lets
NULL keys repeat (:func:`has_null`).  Keys within one index are
homogeneous, so plain comparison orders them.

Maintenance comes in two strengths: :meth:`OrderedIndex.build` sorts
every row id by a key zipped from the chunks' column lists (a large
append — the storage engine's ``load_rows`` picks it), while
:meth:`~OrderedIndex.stage_inserts` / :meth:`~OrderedIndex.insert_entry`
/ :meth:`~OrderedIndex.remove_entry` / :meth:`~OrderedIndex.repoint_entry`
bisect to one entry and shift both sequences in C (a small append and
every UPDATE and DELETE).  Both leave exactly the same entries for the
same table.  An append is staged before it is written: ``build`` and
``stage_inserts`` compare keys but change nothing, and
:meth:`~OrderedIndex.install` / :meth:`~OrderedIndex.insert_staged`
write without comparing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import Index
from repro.storage.columnstore import ColumnChunk, ColumnStore


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


class _NullKey:
    """A NULL key part: sorts before every value and equals only itself,
    so rows with NULLs keep their place in the index order."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return other is not self

    def __gt__(self, other) -> bool:
        return False


NULL_KEY = _NullKey()


def has_null(key: Tuple) -> bool:
    """Whether an index key has a NULL part (never equal to any key)."""
    return any(part is NULL_KEY for part in key)


#: What :meth:`OrderedIndex.build` returns: the sorted keys and row ids.
Lists = Tuple[list, array]
#: What :meth:`OrderedIndex.stage_inserts` returns: ``(position, stored
#: key, row_id)`` triples.
Placements = List[Tuple[int, object, int]]


class OrderedIndex:
    """Sorted keys beside their row ids, for one index definition."""

    def __init__(self, definition: Index, table: ColumnStore) -> None:
        self.definition = definition
        self.table = table
        self._positions = [table.schema.column_position(name)
                           for name in definition.column_names]
        #: One key column: keys are stored bare, not as 1-tuples.
        self._bare = len(self._positions) == 1
        self._keys, self._ids = self.build(table.chunks)

    def key_of(self, row: Sequence) -> Tuple:
        """The row's index key, NULL parts stored as :data:`NULL_KEY`."""
        return tuple(NULL_KEY if row[position] is None else row[position]
                     for position in self._positions)

    def _stored(self, row: Sequence):
        """The row's key as ``_keys`` holds it."""
        if self._bare:
            value = row[self._positions[0]]
            return NULL_KEY if value is None else value
        return self.key_of(row)

    def _at(self, key, row_id: int) -> int:
        """Where the entry ``(key, row_id)`` is or would go: the key's
        run of equal keys, then the row id within the run."""
        keys = self._keys
        low = bisect_left(keys, key)
        return bisect_left(self._ids, row_id, low,
                           bisect_right(keys, key, low))

    def entries(self) -> List[Tuple[Tuple, int]]:
        """Every ``(key, row_id)`` in index order, keys in
        :meth:`key_of` form."""
        keys = ([(key,) for key in self._keys] if self._bare
                else self._keys)
        return list(zip(keys, self._ids))

    # -- maintenance ---------------------------------------------------------

    def build(self, chunks: Sequence[ColumnChunk]) -> Lists:
        """The index's ``(keys, ids)`` over ``chunks``, whose rows hold
        row ids 0, 1, ... in order: the table's chunks, or those
        followed by the fills ``load_rows`` staged (anything with
        chunk-like ``columns``).  Installs nothing.

        The key columns are read straight from the column lists, NULLs
        mapped to :data:`NULL_KEY` only in a column that holds a NULL
        (a C-level ``None in`` test per chunk), and the row ids are
        stable-sorted by key: equal keys keep row-id order, exactly the
        order of sorting ``(key, row_id)`` pairs whenever the keys are
        totally ordered (a NaN is not).  Raises TypeError when keys do
        not compare."""
        columns = []
        for position in self._positions:
            parts = [chunk.columns[position] for chunk in chunks]
            values = chain.from_iterable(parts)
            if any(None in part for part in parts):
                values = (NULL_KEY if value is None else value
                          for value in values)
            columns.append(values)
        keys = list(columns[0]) if self._bare else list(zip(*columns))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return list(map(keys.__getitem__, order)), array("q", order)

    def install(self, lists: Lists) -> int:
        """Replace the index's sequences with what :meth:`build`
        returned; returns the number of entries written."""
        self._keys, self._ids = lists
        return len(self._ids)

    def stage_inserts(self, rows: Sequence[Sequence], first_id: int
                      ) -> Placements:
        """Where the entries of ``rows``, stored from row id
        ``first_id`` on, go: ``(position, key, row_id)`` in entry
        order, each position counted after the earlier ones are
        inserted.  The new row ids exceed every stored one, so each
        entry goes after its run of equal keys.  Compares keys but
        writes nothing; raises TypeError when they do not compare."""
        new = list(map(self._stored, rows))
        order = sorted(range(len(new)), key=new.__getitem__)
        keys = self._keys
        return [(bisect_right(keys, new[offset]) + rank, new[offset],
                 first_id + offset)
                for rank, offset in enumerate(order)]

    def insert_staged(self, placements: Placements) -> int:
        """Insert what :meth:`stage_inserts` placed; returns the number
        of entries written."""
        keys, ids = self._keys, self._ids
        for at, key, row_id in placements:
            keys.insert(at, key)
            ids.insert(at, row_id)
        return len(placements)

    def insert_entry(self, row: Sequence, row_id: int) -> int:
        """Add the entry for ``row`` stored at ``row_id``.

        Returns the number of entries written."""
        key = self._stored(row)
        at = self._at(key, row_id)
        self._keys.insert(at, key)
        self._ids.insert(at, row_id)
        return 1

    def remove_entry(self, row: Sequence, row_id: int) -> int:
        """Drop the entry for ``row`` stored at ``row_id``.

        Returns the number of entries removed."""
        at = self._at(self._stored(row), row_id)
        del self._keys[at]
        del self._ids[at]
        return 1

    def repoint_entry(self, row: Sequence, old_id: int, new_id: int) -> int:
        """``row`` moved from ``old_id`` to a lower ``new_id`` (the table
        filled a deleted slot with its last row).

        The key is unchanged, so the entry only moves within its run of
        equal keys: both sequences are rewritten over that run alone, in
        place, and nothing after it shifts.  Returns the number of
        entries rewritten."""
        key = self._stored(row)
        keys, ids = self._keys, self._ids
        old_at, new_at = self._at(key, old_id), self._at(key, new_id)
        keys[new_at:old_at + 1] = [key] + keys[new_at:old_at]
        ids[new_at + 1:old_at + 1] = ids[new_at:old_at]
        ids[new_at] = new_id
        return 1

    # -- lookups -------------------------------------------------------------

    def _bisect(self, bound: Tuple, after: bool) -> int:
        """The first position whose key starts at or, when ``after``,
        past the key prefix ``bound``."""
        keys = self._keys
        if not self._bare:
            return bisect_left(keys, bound + (_AFTER,) if after else bound)
        if not bound:
            return len(keys) if after else 0
        return (bisect_right if after else bisect_left)(keys, bound[0])

    def _span(self, low: Optional[Tuple], high: Optional[Tuple],
              low_inclusive: bool, high_inclusive: bool) -> Tuple[int, int]:
        """Entry positions ``[start, stop)`` whose key prefix lies
        between the bounds; each end is one bisect.

        A bound on a column excludes its NULLs.  They sort first, so a
        lower bound passes over them by itself; a column bounded from
        above only (``high`` one part longer than ``low``) starts after
        its NULL entries instead."""
        start = 0 if low is None else self._bisect(low, not low_inclusive)
        prefix = low or ()
        if high is not None and len(high) > len(prefix):
            start = max(start, self._bisect(prefix + (NULL_KEY,), True))
        stop = (len(self._ids) if high is None
                else self._bisect(high, high_inclusive))
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
        return self._ids[start:stop].tolist()

    def ordered_row_ids(self, descending: bool = False) -> Iterator[int]:
        """All row ids in key order — the order-supplying index scan."""
        return reversed(self._ids) if descending else iter(self._ids)

    @property
    def entry_count(self) -> int:
        return len(self._ids)
