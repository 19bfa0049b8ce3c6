"""In-memory storage engine standing in for InnoDB/Taurus Page Stores."""

from repro.storage.index import OrderedIndex
from repro.storage.columnstore import ColumnChunk, ColumnStore
from repro.storage.engine import AccessCounters, StorageEngine

__all__ = ["AccessCounters", "ColumnChunk", "ColumnStore", "OrderedIndex",
           "StorageEngine"]
