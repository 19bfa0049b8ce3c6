"""Synthetic join topologies for large-join search benchmarking.

TPC-H tops out at 8-way joins; the large-join strategies
(:mod:`repro.orca.largejoin`) only earn their keep at 10-50 relations.
This module generates the four classic join-graph shapes at any width:

* **chain** — ``t0 - t1 - ... - t(n-1)``: the sparsest connected graph
  (its connected subsets are exactly the intervals);
* **star** — a fact hub with ``n - 1`` dimension tables: every
  connected set of two or more tables holds the hub;
* **clique** — every pair joined through a shared key: the DP worst case
  (every subset is connected — keep n modest);
* **snowflake** — hub → dimensions → sub-dimensions: the realistic
  data-warehouse shape mixing star and chain structure.

All integer columns — ``SUM`` over any join order folds exactly, so
result sets compare bit-identically across strategies and executors.
Table sizes cycle through a wide spread (20-200 base rows before
``scale``) so join order genuinely matters, and every column name is
prefixed with its table name, keeping unqualified references unambiguous
no matter how many topologies share one database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.catalog.schema import Column, Index, TableSchema
from repro.mysql_types import MySQLType as T

TOPOLOGY_KINDS = ("chain", "star", "clique", "snowflake")

#: Base row counts cycled across a topology's tables: a deliberate
#: 10x spread so greedy/GOO orderings have real choices to make.
_SIZE_CYCLE = (60, 180, 35, 140, 20, 90, 200, 50)

#: Join-key domain compression: child fk values cover this fraction of
#: the parent pk domain, so joins filter instead of exploding.
_FK_COVERAGE = 0.8


@dataclass(frozen=True)
class JoinTopology:
    """One generated workload: schemas, rows, and the n-way join query."""

    kind: str
    relations: int
    tables: List[TableSchema]
    rows: Dict[str, List[Tuple]]
    query: str


def _table_name(kind: str, relations: int, index: int) -> str:
    return f"{kind}{relations}_t{index}"


def _sizes(relations: int, scale: float) -> List[int]:
    return [max(4, int(_SIZE_CYCLE[index % len(_SIZE_CYCLE)] * scale))
            for index in range(relations)]


def _schema(name: str, fk_names: List[str]) -> TableSchema:
    columns = [Column.of(f"{name}_pk", T.LONG, nullable=False)]
    columns += [Column.of(fk, T.LONG, nullable=False) for fk in fk_names]
    columns.append(Column.of(f"{name}_val", T.LONG, nullable=False))
    indexes = [Index("PRIMARY", (f"{name}_pk",), primary=True)]
    indexes += [Index(f"{name}_fk{pos}", (fk,))
                for pos, fk in enumerate(fk_names)]
    return TableSchema(name, columns, indexes, schema="joins")


def _rows(rng: random.Random, size: int,
          fk_domains: List[int]) -> List[Tuple]:
    rows = []
    for pk in range(size):
        fks = [rng.randrange(max(1, int(domain * _FK_COVERAGE)))
               for domain in fk_domains]
        rows.append(tuple([pk] + fks + [rng.randrange(1000)]))
    return rows


def _query(names: List[str], conjuncts: List[str]) -> str:
    first, last = names[0], names[-1]
    select = (f"SELECT COUNT(*), SUM({first}_val), SUM({last}_val), "
              f"MIN({first}_pk), MAX({last}_pk)")
    sql = f"{select}\nFROM {', '.join(names)}"
    if conjuncts:
        sql += "\nWHERE " + "\n  AND ".join(conjuncts)
    return sql


def make_topology(kind: str, relations: int, seed: int = 1234,
                  scale: float = 1.0) -> JoinTopology:
    """Build one deterministic topology of ``relations`` tables."""
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}; "
                         f"valid: {', '.join(TOPOLOGY_KINDS)}")
    if relations < 2:
        raise ValueError("a join topology needs at least 2 relations")
    rng = random.Random((seed, kind, relations).__repr__())
    names = [_table_name(kind, relations, index)
             for index in range(relations)]
    sizes = _sizes(relations, scale)
    # parents[i] = tables whose pk table i's fk columns reference.
    parents: List[List[int]] = [[] for __ in range(relations)]
    conjuncts: List[str] = []

    if kind == "chain":
        for index in range(relations - 1):
            parents[index].append(index + 1)
    elif kind == "star":
        parents[0] = list(range(1, relations))
    elif kind == "snowflake":
        # Hub -> dimensions -> sub-dimensions, round-robin: dimension
        # count ~ (n-1)/3 so each dimension carries ~2 sub-dimensions.
        dims = max(1, (relations - 1 + 2) // 3)
        dims = min(dims, relations - 1)
        parents[0] = list(range(1, dims + 1))
        for offset, index in enumerate(range(dims + 1, relations)):
            parents[1 + offset % dims].append(index)
    # clique: no fk edges — all tables share one key domain (below).

    if kind == "clique":
        # One shared join column per table; every pair equi-joined.
        # Per-key multiplicity ~1.2, so the n-way equi-clique result
        # stays at ~domain * 1.2^n rows (hundreds, non-empty) instead
        # of exploding multiplicatively.
        domain = max(6, int(40 * scale))
        sizes = [max(domain + 2, int(domain * 1.2))] * relations
        tables = []
        rows: Dict[str, List[Tuple]] = {}
        for index, name in enumerate(names):
            key_col = f"{name}_jk"
            columns = [Column.of(f"{name}_pk", T.LONG, nullable=False),
                       Column.of(key_col, T.LONG, nullable=False),
                       Column.of(f"{name}_val", T.LONG, nullable=False)]
            indexes = [Index("PRIMARY", (f"{name}_pk",), primary=True),
                       Index(f"{name}_jk_idx", (key_col,))]
            tables.append(TableSchema(name, columns, indexes,
                                      schema="joins"))
            rows[name] = [(pk, rng.randrange(domain),
                           rng.randrange(1000))
                          for pk in range(sizes[index])]
        for left in range(relations):
            for right in range(left + 1, relations):
                conjuncts.append(f"{names[left]}_jk = {names[right]}_jk")
        return JoinTopology(kind, relations, tables, rows,
                            _query(names, conjuncts))

    tables = []
    rows = {}
    for index, name in enumerate(names):
        fk_names = [f"{name}_fk{parent}" for parent in parents[index]]
        tables.append(_schema(name, fk_names))
        rows[name] = _rows(rng, sizes[index],
                           [sizes[parent] for parent in parents[index]])
        for parent in parents[index]:
            conjuncts.append(
                f"{name}_fk{parent} = {names[parent]}_pk")
    return JoinTopology(kind, relations, tables, rows,
                        _query(names, conjuncts))


def load_topology(db, topology: JoinTopology,
                  analyze: bool = True) -> None:
    """Create, populate, and ANALYZE one topology's tables."""
    for schema in topology.tables:
        db.create_table(schema)
    for schema in topology.tables:
        db.load(schema.name, topology.rows[schema.name])
    if analyze:
        db.analyze()
