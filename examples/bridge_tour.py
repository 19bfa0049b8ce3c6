#!/usr/bin/env python
"""A tour of the bridge internals: OIDs, DXL, and the metadata cache.

Walks through what Section 5 of the paper describes: how the MySQL
metadata provider lays out OIDs for types and expressions, how commutator
and inverse expression OIDs are computed, what the DXL exchange looks
like, and how Orca's metadata cache prevents repeated provider requests —
within one statement, and across statements until a table's epoch moves.
"""

from repro import Database
from repro.bridge import oid_layout
from repro.bridge.metadata_provider import MySQLMetadataProvider
from repro.mysql_types import MySQLType, TypeCategory
from repro.orca.mdcache import MDAccessor
from repro.sql import ast
from repro.workloads.tpch import load_tpch, tpch_query


def main() -> None:
    db = Database()
    load_tpch(db, scale=0.2)
    provider = MySQLMetadataProvider(db.catalog)
    accessor = MDAccessor(provider)

    # --- Section 5.2: the expression cubes -------------------------------
    print("expression OID spaces:")
    print(f"  arithmetic: {oid_layout.ARITHMETIC_COUNT} expressions "
          f"(12 x 12 x 5)")
    print(f"  comparison: {oid_layout.COMPARISON_COUNT} expressions "
          f"(12 x 12 x 6)")
    print(f"  aggregate:  {oid_layout.AGGREGATE_COUNT} expressions "
          f"(14 x 6)")

    # The paper's Section 5.7 trace: "for p_container = 'SM PKG', the OID
    # for STR_EQ_STR is returned ... commutator and inverse exist too".
    str_eq_str = provider.get_comparison_oid(
        TypeCategory.STR, TypeCategory.STR, ast.BinOp.EQ)
    print(f"\nSTR = STR comparison OID: {str_eq_str}")
    print(f"  commutator: {provider.get_commutator_oid(str_eq_str)} "
          f"(STR = STR commutes to itself)")
    inverse = provider.get_inverse_oid(str_eq_str)
    print(f"  inverse:    {inverse} "
          f"-> {oid_layout.decode_comparison(inverse)}")

    lt = provider.get_comparison_oid(TypeCategory.INT8, TypeCategory.NUM,
                                     ast.BinOp.LT)
    print(f"\nINT8 < NUM OID: {lt}")
    print(f"  commutator -> {oid_layout.decode_comparison(provider.get_commutator_oid(lt))}")
    print(f"  inverse    -> {oid_layout.decode_comparison(provider.get_inverse_oid(lt))}")

    sub = provider.get_arithmetic_oid(TypeCategory.NUM, TypeCategory.NUM,
                                      ast.BinOp.SUB)
    print(f"\nNUM - NUM OID: {sub}; commutator: "
          f"{provider.get_commutator_oid(sub)} "
          f"(INVALID: '-' does not commute)")

    # --- Section 5.7: table OIDs and the DXL exchange ----------------------
    lineitem_oid = provider.get_table_oid("tpch.lineitem")
    print(f"\n'tpch.lineitem' -> OID {lineitem_oid}")
    dxl_text = provider.get_relation_dxl(lineitem_oid)
    print("relation DXL (first 200 chars):")
    print("  " + dxl_text[:200] + "...")

    stats = accessor.statistics("lineitem")
    print(f"\nstatistics via the MD accessor (DXL round trip): "
          f"{stats.row_count} rows, "
          f"{len(stats.columns)} column stats, histogram on l_shipdate: "
          f"{type(stats.columns['l_shipdate'].histogram).__name__}")

    # --- Section 5.7: the metadata cache -----------------------------------
    before = dict(provider.request_counts)
    for __ in range(5):
        accessor.statistics("lineitem")
        accessor.relation("lineitem")
    after = provider.request_counts
    print("\nprovider requests before five repeated lookups:", before)
    print("provider requests after:                        ", after)
    print(f"cache hits recorded by the accessor: {accessor.cache_hits} "
          f"(the provider was not queried again)")

    # --- the database's shared cache: once per table epoch -------------------
    # Every Orca detour gets a fresh accessor, but they all share the
    # database's MDCache, so the DXL round trip is paid once per table
    # epoch (CREATE / ANALYZE), not once per statement.
    sql = tpch_query(5)

    def fetches() -> int:
        return int(db.metrics.count("metadata.requests.statistics_dxl"))

    for attempt in ("first", "second"):
        before = fetches()
        db.compile_only(sql, optimizer="orca")
        print(f"{attempt} compile of Q5: {fetches() - before} statistics "
              f"DXL fetches")
    db.storage.analyze_table("nation")
    before = fetches()
    db.compile_only(sql, optimizer="orca")
    print(f"after ANALYZE nation:  {fetches() - before} statistics DXL "
          f"fetch (only the table whose epoch moved)")


if __name__ == "__main__":
    main()
