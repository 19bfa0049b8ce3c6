"""Perf smoke: the optimize- and execute-stage savings hold on a tiny
TPC-H subset.

Deterministic counter-based assertions only — no wall-clock thresholds,
so the check cannot flake on slow CI machines.  The TPC-H queries whose
main block joins at least five units (Q2, Q5, Q7, Q8, Q9) must cut
cost-model evaluations by at least 25% with cost-bound pruning, against
the unpruned search, while choosing a plan of the same cost; the second
identical run of every TPC-H query is a plan-cache hit that returns the
same rows.

The batch executor's counters are smoked the same way: the scan-heavy
(Q1, Q6) and join-heavy (Q10, Q13, Q14) queries must actually run
batched (``executor.batches`` > 0) through compiled expressions
(``exec.compiled_exprs`` > 0) with results identical to the row
engine's.  The e2e ``repeat_tpch`` statements must
do exactly the storage and per-node work recorded before the batch
kernels, and their index nested loops must emit through the batched
probe.  A second compile of a TPC-DS statement must fetch no relation
or statistics DXL: Orca's metadata cache outlives the statement.  The
seven ``compile_mix`` join topologies must do exactly the recorded
memo search work and pick the recorded strategy and cost, and with the
join-step access memo bypassed, the work recorded before the memo.  On
every DP-feasible graph of up to 12 relations, forced GOO must plan
within 1.1x of full DP's cost, and wide joins whose search overruns a
tight memo-group budget must degrade to an Orca plan.
"""

import json
import pathlib

import pytest

from repro import Database, DatabaseConfig
from repro.executor.plan import DerivedMaterializeNode
from repro.observability import find_spans
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

from tests.conftest import forced_orca_config, run_orca

SMOKE_QUERIES = (5, 8, 9)
#: TPC-H queries whose main block joins at least five units.
WIDE_JOIN_QUERIES = (2, 5, 7, 8, 9)
SCALE = 0.02


@pytest.fixture(scope="module")
def smoke_db():
    db = Database()
    load_tpch(db, scale=SCALE)
    return db


def _orca_counters(db, sql, pruning):
    rows, spans = run_orca(db, sql, pruning=pruning)
    evaluations = sum(s.attributes["cost_evaluations"] for s in spans)
    best_cost = sum(s.attributes["best_cost"] for s in spans)
    return rows, evaluations, best_cost


@pytest.mark.parametrize("number", WIDE_JOIN_QUERIES)
def test_pruning_cuts_evaluations_at_least_25_percent(smoke_db, number):
    sql = TPCH_QUERIES[number]
    rows_p, evals_p, cost_p = _orca_counters(smoke_db, sql, pruning=True)
    rows_u, evals_u, cost_u = _orca_counters(smoke_db, sql, pruning=False)
    assert rows_p == rows_u
    # Soundness first: pruning never changes the chosen plan's cost ...
    assert cost_p == pytest.approx(cost_u)
    # ... and effectiveness second: at least a quarter of the cost-model
    # work disappears on these multi-join queries.
    assert evals_u > 0
    reduction = 1.0 - evals_p / evals_u
    assert reduction >= 0.25, (
        f"Q{number}: only {100 * reduction:.1f}% fewer evaluations "
        f"({evals_u} -> {evals_p})")


@pytest.mark.parametrize("number", sorted(TPCH_QUERIES))
def test_second_run_is_a_plan_cache_hit(smoke_db, number):
    sql = TPCH_QUERIES[number]
    first = smoke_db.run(sql)
    second = smoke_db.run(sql)
    assert not first.plan_cache_hit or first.rows == second.rows
    assert second.plan_cache_hit
    assert second.rows == first.rows
    assert second.optimizer_used == first.optimizer_used


#: Scan-heavy (Q1, Q6: lineitem scan + aggregation) and join-heavy
#: (Q10, Q13, Q14: hash joins under Orca) batch-engine smoke queries.
BATCH_SMOKE_QUERIES = (1, 6, 10, 13, 14)


@pytest.mark.parametrize("number", BATCH_SMOKE_QUERIES)
def test_batch_engine_runs_with_live_counters(smoke_db, number):
    db = smoke_db
    sql = TPCH_QUERIES[number]
    row = db.run(sql, optimizer="orca", executor_mode="row")
    before_batches = db.metrics.count("executor.batches")
    before_rows = db.metrics.count("executor.batch_rows")
    before_exprs = db.metrics.count("exec.compiled_exprs")
    batch = db.run(sql, optimizer="orca", executor_mode="batch")
    # The statement really took the batch path, counted its work ...
    assert batch.executor_mode == "batch"
    assert db.metrics.count("executor.batches") > before_batches
    assert db.metrics.count("executor.batch_rows") > before_rows
    assert db.metrics.count("exec.compiled_exprs") > before_exprs
    # ... and produced the row engine's exact result multiset.
    assert sorted(map(repr, batch.rows)) == sorted(map(repr, row.rows))


@pytest.mark.parametrize("number", SMOKE_QUERIES)
def test_plan_quality_counters_advance(smoke_db, number):
    """Every executed statement feeds the plan-quality loop: the
    ``planq.*`` counters advance and the per-statement snapshot carries
    a finite Q-error for every plan node."""
    db = smoke_db
    sql = TPCH_QUERIES[number]
    before = db.metrics.count("planq.statements")
    result = db.run(sql)
    assert db.metrics.count("planq.statements") == before + 1
    quality = result.plan_quality
    assert quality is not None and quality.nodes
    assert quality.root_q >= 1.0
    assert quality.max_q >= max(quality.root_q, 1.0)
    histogram = db.metrics.histogram("planq.max_q")
    assert histogram is not None and histogram.count >= 1
    assert histogram.max >= quality.max_q or histogram.count > 1


def test_plan_quality_export_surfaces(smoke_db):
    """After a workload the quality aggregates are exportable: the
    statement log holds fingerprint entries and the Prometheus text
    carries planq series."""
    db = smoke_db
    db.run(TPCH_QUERIES[SMOKE_QUERIES[0]])
    assert db.statements.quality_stats()["size"] >= 1
    report = db.plan_quality_report()
    assert report["worst_fingerprints"]
    export = db.metrics_export()
    assert "repro_planq_statements_total" in export
    assert "repro_planq_max_q_count" in export


# -- full scans and morsel parallelism --------------------------------------------


def test_date_range_scan_reads_every_chunk():
    """A date-clustered table under a selective range predicate: the
    right rows, and the scan reads every row — counter-based, no wall
    clock."""
    import datetime

    from repro.catalog import Column, Index, TableSchema
    from repro.mysql_types import MySQLType

    db = Database(DatabaseConfig(batch_size=64))
    db.create_table(TableSchema("events", [
        Column.of("e_id", MySQLType.LONGLONG, nullable=False),
        Column.of("e_day", MySQLType.DATE, nullable=False),
        Column.of("e_amount", MySQLType.DOUBLE, nullable=False),
    ], [Index("PRIMARY", ("e_id",), primary=True)]))
    start = datetime.date(2020, 1, 1)
    # Insertion-ordered by day, as an append-only event table would be.
    db.load("events", [
        (i, start + datetime.timedelta(days=i // 8), float(i % 100))
        for i in range(2048)])
    db.analyze()
    db.storage.counters.reset()
    result = db.run(
        "SELECT COUNT(*), SUM(e_amount) FROM events "
        "WHERE e_day >= DATE '2020-01-01' AND e_day < DATE '2020-01-08'",
        use_plan_cache=False)
    assert result.rows[0][0] == 56
    assert db.storage.counters.rows_scanned == 2048


@pytest.mark.parametrize("predicate,expected_rows", [
    ("e_id IN (3, 1000)", 2),
    ("e_amount BETWEEN 100.0 AND 160.0", 121),
    ("e_id NOT BETWEEN 64 AND 1983", 128),
    ("e_amount NOT IN (5.0)", 2047),
])
@pytest.mark.parametrize("mode", ["row", "batch"])
def test_in_and_between_scans_read_every_chunk(mode, predicate,
                                               expected_rows):
    """IN-list and BETWEEN conjuncts (both polarities) on a table scan:
    the right rows on the row and batch paths alike, every row read."""
    db = Database(DatabaseConfig(batch_size=64))
    from repro.catalog import Column, Index, TableSchema
    from repro.mysql_types import MySQLType

    db.create_table(TableSchema("points", [
        Column.of("e_id", MySQLType.LONGLONG, nullable=False),
        Column.of("e_amount", MySQLType.DOUBLE, nullable=False),
    ], [Index("PRIMARY", ("e_id",), primary=True)]))
    db.load("points", [(i, i * 0.5) for i in range(2048)])
    db.analyze()
    db.storage.counters.reset()
    result = db.run(f"SELECT COUNT(*) FROM points WHERE {predicate}",
                    use_plan_cache=False, executor_mode=mode)
    assert result.rows[0][0] == expected_rows
    assert db.storage.counters.rows_scanned == 2048


def test_wide_joins_stay_off_the_exponential_dp_path():
    """Counter-based large-join gate: above ``DP_MAX_UNITS`` the
    adaptive selector must route every component to GOO — the
    ``orca.join_strategy.dp`` counter stays frozen while the GOO counter
    advances."""
    from repro.orca.largejoin import DP_MAX_UNITS as cutoff
    from repro.workloads.joins import load_topology, make_topology

    db = Database(DatabaseConfig(complex_query_threshold=3))
    for kind, relations in (("chain", cutoff + 4), ("star", 30)):
        load_topology(db, make_topology(kind, relations, scale=0.25))
    dp_before = db.metrics.count("orca.join_strategy.dp")
    for kind, relations in (("chain", cutoff + 4), ("star", 30)):
        topology = make_topology(kind, relations, scale=0.25)
        result = db.run(topology.query, optimizer="orca",
                        use_plan_cache=False)
        assert result.optimizer_used == "orca"
        assert result.fallback_reason is None
    assert db.metrics.count("orca.join_strategy.dp") == dp_before
    assert db.metrics.count("orca.join_strategy.goo") >= 2


#: The seven ``compile_mix`` join topologies at scale 0.25, one Orca
#: compile each: ``(memo groups, alternatives, offered, pruned, cost
#: evaluations, join-step access memo hits, dp_expansions, join
#: strategy, best cost)``.  Recorded from the frozenset-keyed join search
#: before it moved to unit masks; the representation changes how the
#: search runs, never what it does.  Cost evaluations were re-based when
#: the join-step access memo arrived: a memo hit skips ``ref_access``
#: and with it one ``index_lookup_cost`` per usable index.  Every other
#: field is the unmemoised search's.  Re-based again when GOO took every
#: component above 12 units and full DP lost its IKKBZ-chain seed:
#: chain20, star20 and snowflake16 moved to GOO, and the three DP
#: graphs offer and evaluate fewer candidates from the same plan.
#: Re-based once more when DP's GOO incumbent pass stopped re-costing
#: the left-deep seed chain DP had just costed: the three DP graphs
#: offer (and prune) that chain's candidates once, not twice.
TOPOLOGY_SEARCH = {
    ("chain", 10): (55, 106, 117, 362, 124, 8, 45, "dp", 98.545),
    ("chain", 20): (56, 59, 79, 77, 91, 0, 0, "goo", 188.545),
    ("chain", 30): (86, 87, 117, 115, 132, 0, 0, "goo", 273.425),
    ("star", 10): (521, 939, 950, 4873, 953, 0, 511, "dp",
                   120.41499999999996),
    ("star", 20): (57, 56, 76, 78, 80, 0, 0, "goo", 242.24499999999995),
    ("snowflake", 16): (45, 48, 64, 62, 70, 0, 0, "goo",
                        177.68499999999997),
    ("clique", 10): (1023, 4399, 4410, 59131, 4467, 2897, 1013, "dp",
                     22.741165396825394),
}

#: Cost evaluations of the same compiles with the access memo bypassed,
#: re-based with :data:`TOPOLOGY_SEARCH`.
UNMEMOISED_EVALUATIONS = {
    ("chain", 10): 132, ("chain", 20): 91, ("chain", 30): 132,
    ("star", 10): 953, ("star", 20): 80, ("snowflake", 16): 70,
    ("clique", 10): 7364,
}


#: DP-feasible graphs (at most ``DP_MAX_UNITS`` relations) on which full
#: DP is the exact reference for forced GOO.
OPTIMALITY_POINTS = (
    ("chain", 8), ("chain", 10), ("chain", 12),
    ("star", 8), ("star", 10), ("star", 12),
    ("snowflake", 10), ("snowflake", 12),
    ("clique", 8), ("clique", 10),
)


@pytest.fixture(scope="module")
def topology_db():
    from repro.workloads.joins import load_topology, make_topology

    db = Database()
    for kind, relations in sorted({*TOPOLOGY_SEARCH, *OPTIMALITY_POINTS}):
        load_topology(db, make_topology(kind, relations, scale=0.25))
    return db


def _topology_search(db, kind, relations):
    from repro.workloads.joins import make_topology

    result = db.run(make_topology(kind, relations, scale=0.25).query,
                    optimizer="orca", trace=True, use_plan_cache=False)
    assert result.fallback_reason is None
    (span,) = find_spans(result.trace, "memo_search")
    a = span.attributes
    return (a["memo_groups"], a["memo_alternatives"], a["memo_offered"],
            a["pruned_candidates"], a["cost_evaluations"],
            a["access_memo_hits"], a["dp_expansions"], a["join_strategy"],
            a["best_cost"])


@pytest.mark.parametrize("kind,relations", sorted(TOPOLOGY_SEARCH))
def test_topology_search_effort_is_pinned(topology_db, kind, relations):
    assert _topology_search(topology_db, kind, relations) \
        == TOPOLOGY_SEARCH[(kind, relations)]


@pytest.mark.parametrize("kind,relations", sorted(TOPOLOGY_SEARCH))
def test_bypassed_access_memo_does_the_unmemoised_work(
        topology_db, kind, relations, monkeypatch):
    """With every join step asking ``ref_access`` afresh, the search is
    the one before the memo, field for field."""
    from repro.mysql_optimizer.access_path import ref_access
    from repro.orca.joinorder import OrcaJoinSearch

    def unmemoised(search, index, outer, conjuncts):
        unit = search.units[index]
        return ref_access(search.block, unit.descriptor.entry,
                          unit.conjuncts + conjuncts,
                          search._bound_entries(outer), search.estimator,
                          search.cost_model)

    monkeypatch.setattr(OrcaJoinSearch, "_join_access", unmemoised)
    expected = list(TOPOLOGY_SEARCH[(kind, relations)])
    expected[4] = UNMEMOISED_EVALUATIONS[(kind, relations)]
    expected[5] = 0
    assert list(_topology_search(topology_db, kind, relations)) == expected


@pytest.mark.parametrize("kind,relations", OPTIMALITY_POINTS)
def test_goo_stays_within_ten_percent_of_dp(topology_db, kind, relations):
    """Optimality gate, counter-based: where full DP runs it is exact,
    so forced GOO's best cost can only match or exceed it, and it stays
    within 1.1x of it."""
    costs = {}
    for policy in ("dp", "goo"):
        with forced_orca_config(join_strategy=policy):
            search = _topology_search(topology_db, kind, relations)
        assert search[7] == policy
        costs[policy] = search[8]
    assert costs["dp"] <= costs["goo"] <= 1.1 * costs["dp"]


@pytest.mark.parametrize("kind,relations", [
    ("chain", 30), ("chain", 50), ("star", 40), ("snowflake", 31),
    ("clique", 20)])
def test_wide_joins_under_a_tight_budget_stay_on_orca(kind, relations):
    """A wide join whose compile budget is tight never escapes to the
    MySQL fallback: a search that overruns degrades to its best Orca
    incumbent, which still returns the topology's one aggregate row.

    The budget is a memo-group cap, not a wall-clock one, so the search
    overruns at the same check on any machine: unbounded, these searches
    build 56-146 groups, and the incumbent GOO seeds fits under
    ``relations + 1``."""
    from repro.workloads.joins import load_topology, make_topology

    topology = make_topology(kind, relations, scale=0.25)
    db = Database(DatabaseConfig(complex_query_threshold=3,
                                 orca_memo_group_budget=relations + 1))
    load_topology(db, topology)
    result = db.run(topology.query, optimizer="orca", use_plan_cache=False)
    assert result.optimizer_used == "orca"
    assert result.fallback_reason is None
    assert db.metrics.count("orca.join_budget_degradations") >= 1
    assert len(result.rows) == 1


def test_parallel_scan_dispatches_more_morsels_than_workers(force_fanout):
    db = Database(DatabaseConfig(batch_size=32))
    load_tpch(db, scale=SCALE)
    workers = 4
    before = db.metrics.count("executor.morsels")
    result = db.run(
        "SELECT COUNT(*), SUM(l_quantity) FROM lineitem "
        "WHERE l_quantity > 0",
        use_plan_cache=False, executor_workers=workers)
    assert result.executor_mode == "batch"
    morsels = db.metrics.count("executor.morsels") - before
    # Morsel-driven means many more work units than workers, so the
    # pool load-balances instead of running one static partition each.
    assert morsels > workers
    assert db.metrics.count("executor.parallel_workers") >= 2


def test_fanned_out_run_leaves_the_counters_a_serial_run_does(force_fanout):
    """Serial/parallel counter parity: once the worker deltas merge, a
    fanned-out pre-aggregation leaves exactly the ``executor.batch_rows``
    and ``rows_scanned`` totals the serial run does, at any worker
    count."""
    db = Database(DatabaseConfig(batch_size=8))
    load_tpch(db, scale=SCALE)
    # Range over half the clustered key: wide enough to stay a table
    # scan, narrow enough that the filter drops rows.
    half = db.storage.store("orders").row_count // 2
    sql = (f"SELECT COUNT(*), SUM(o_totalprice) FROM orders "
           f"WHERE o_orderkey <= {half}")
    counters = db.storage.counters

    def run_counting(workers):
        names = ("executor.batch_rows", "executor.morsels")
        before = [db.metrics.count(name) for name in names]
        scanned = counters.rows_scanned
        result = db.run(sql, executor_mode="batch", use_plan_cache=False,
                        executor_workers=workers)
        return [db.metrics.count(name) - start
                for name, start in zip(names, before)] \
            + [counters.rows_scanned - scanned], result.rows

    (serial_rows, __, serial_scanned), serial_result = run_counting(1)
    assert serial_scanned == db.storage.store("orders").row_count
    for workers in (2, 3, 4):
        (rows, morsels, scanned), result = run_counting(workers)
        assert morsels > 0, "the gate was forced open; this must fork"
        assert result == serial_result
        assert (rows, scanned) == (serial_rows, serial_scanned), workers


def _single_row_write_work(n_rows):
    """Per-statement work counters of a single-row DELETE and UPDATE by
    primary key on an ``n_rows`` table with three indexes."""
    from repro.catalog import Column, Index, TableSchema
    from repro.mysql_types import MySQLType

    db = Database()
    db.create_table(TableSchema("w", [
        Column.of("id", MySQLType.LONGLONG, nullable=False),
        Column.of("grp", MySQLType.LONG, nullable=False),
        Column.of("val", MySQLType.DOUBLE, nullable=False),
    ], [Index("PRIMARY", ("id",), primary=True),
        Index("grp_idx", ("grp",)),
        Index("grp_val", ("grp", "val"))]))
    db.load("w", [(i, i % 97, float(i % 1013)) for i in range(n_rows)])
    names = ("storage.dml_rows_changed", "storage.index_entries_maintained",
             "storage.chunks_patched")
    work = {}
    for label, sql in (
            ("delete", f"DELETE FROM w WHERE id = {n_rows // 3}"),
            ("update", f"UPDATE w SET grp = 5, val = 0.5 "
                       f"WHERE id = {n_rows // 2}")):
        db.storage.counters.reset()
        before = [db.metrics.count(name) for name in names]
        assert db.run(sql).rows == [(1,)]
        counts = dict(db.storage.counters.snapshot())
        counts.update(
            (name, db.metrics.count(name) - start)
            for name, start in zip(names, before))
        work[label] = counts
    return work


def test_single_row_dml_cost_does_not_grow_with_the_table():
    """Row-level DML gate: a primary-key DELETE/UPDATE locates its row
    through the index and edits heap, indexes and column store in
    place — the same handful of entries and chunks at 20k and 40k rows."""
    small = _single_row_write_work(20_000)
    large = _single_row_write_work(40_000)
    for work in (small, large):
        for label in ("delete", "update"):
            counts = work[label]
            assert counts["rows_scanned"] == 0, (label, counts)
            assert counts["index_lookups"] == 1, (label, counts)
            assert counts["storage.dml_rows_changed"] == 1
            assert counts["storage.index_entries_maintained"] <= 2 * 3
            assert counts["storage.chunks_patched"] <= 2
    assert small == large


# -- plans outlive writes; ANALYZE costs what changed --------------------------------


def test_cached_join_plan_survives_single_row_writes():
    """One Orca-routed join, run 20 times with 50 single-row writes to
    the tables it reads in between: compiled once, served 19 times."""
    db = Database()
    load_tpch(db, scale=SCALE)
    sql = TPCH_QUERIES[3]
    reference = Database()
    load_tpch(reference, scale=SCALE)
    writes = 0
    blocks_after_first = None
    for run in range(20):
        result = db.run(sql)
        assert result.optimizer_used == "orca"
        assert result.plan_cache_hit == (run > 0)
        if blocks_after_first is None:
            blocks_after_first = db.metrics.count("orca.blocks_optimized")
            assert blocks_after_first > 0
        # 50 writes spread over the 19 gaps between the 20 runs.
        while writes < 50 * (run + 1) // 19 and run < 19:
            key = 900000 + writes
            statements = (
                f"INSERT INTO orders VALUES ({key}, 1, 'O', 10.5, "
                "'1995-01-01', '3-MEDIUM', 'Clerk#000000001', 0, 'smoke')",
                f"UPDATE orders SET o_totalprice = {writes}.5 "
                f"WHERE o_orderkey = {key - 1}",
                f"DELETE FROM orders WHERE o_orderkey = {key - 2}",
            )
            for target in (db, reference):
                target.run(statements[writes % 3])
            writes += 1
    assert writes == 50
    assert db.metrics.count("plan_cache.hits") == 19
    assert db.metrics.count("plan_cache.invalidations") == 0
    assert db.metrics.count("orca.blocks_optimized") == blocks_after_first
    # The 20th answer is the one a from-scratch compile gives now.
    assert sorted(map(repr, result.rows)) == sorted(map(repr, reference.run(
        sql, optimizer="mysql", executor_mode="row",
        use_plan_cache=False).rows))


def test_repeated_statements_never_recompile():
    """The e2e ``repeat_tpch`` statement set: after the first round
    every execution is a hit and nothing is ever invalidated — the
    plan-quality ledger records breaches, it no longer evicts."""
    db = Database()
    load_tpch(db, scale=SCALE)
    for __ in range(6):
        for number in (1, 6, 12, 14, 3, 5, 10, 13):  # e2e REPEAT_QUERIES
            db.run(TPCH_QUERIES[number])
    assert db.metrics.count("plan_cache.misses") == 8
    assert db.metrics.count("plan_cache.hits") == 40
    assert db.metrics.count("plan_cache.invalidations") == 0


def test_analyze_of_an_unchanged_database_analyzes_nothing():
    db = Database()
    load_tpch(db, scale=SCALE)       # loads and ANALYZEs
    tables = len(db.catalog.table_names)
    before = db.metrics.count("analyze.tables_analyzed")
    db.analyze()
    assert db.metrics.count("analyze.tables_analyzed") == before
    assert db.metrics.count("analyze.tables_skipped") == tables


# -- the shared metadata cache -------------------------------------------------------


@pytest.mark.parametrize("number", (1, 3, 11))
def test_second_compile_fetches_no_metadata(number):
    """``compile_mix`` compiles the same TPC-DS statements over and over:
    after the first compile every relation and statistics entry comes
    from the database's metadata cache, and the plan text is the same."""
    db = Database()
    load_tpcds(db, scale=0.05)
    sql = TPCDS_QUERIES[number]
    first = db.compile_only(sql)
    assert first.optimizer_used == "orca"

    def fetches():
        return (db.metrics.count("metadata.requests.statistics_dxl"),
                db.metrics.count("metadata.requests.relation_dxl"))

    before = fetches()
    assert min(before) > 0
    second = db.compile_only(sql)
    assert fetches() == before
    assert second.explain == first.explain


#: The e2e ``repeat_tpch`` statements at TPC-H scale 1, run once each in
#: this order on a fresh database: ``(index_lookups, index_rows_read,
#: rows_scanned, executor.batch_rows)`` and every plan
#: node's ``(operator, actual_rows, actual_loops)``.  Recorded before
#: the batch kernels (specialised arithmetic, column-wise sort, batched
#: index probe) replaced the per-row paths; the kernels change how the
#: work is done, never how much of it there is.
REPEAT_COUNTERS = {
    1: ((0, 0, 11910, 23562),
        [("Sort", 5, 1), ("Aggregate", 5, 1), ("Sort", 11776, 1),
         ("TableScan", 11776, 1)]),
    6: ((0, 0, 11910, 220),
        [("Aggregate", 1, 1), ("TableScan", 219, 1)]),
    12: ((53, 53, 11910, 163),
         [("Sort", 2, 1), ("Aggregate", 2, 1), ("Sort", 53, 1),
          ("NestedLoopJoin", 53, 1), ("TableScan", 53, 1),
          ("IndexLookup", 53, 53)]),
    14: ((175, 175, 11910, 351),
         [("Aggregate", 1, 1), ("NestedLoopJoin", 175, 1),
          ("TableScan", 175, 1), ("IndexLookup", 175, 175)]),
    3: ((359, 1787, 300, 178),
        [("Sort", 23, 1), ("Aggregate", 23, 1), ("NestedLoopJoin", 72, 1),
         ("NestedLoopJoin", 299, 1), ("TableScan", 60, 1),
         ("IndexLookup", 299, 60), ("IndexLookup", 72, 299)]),
    5: ((131, 607, 3045, 702),
        [("Sort", 3, 1), ("Aggregate", 3, 1), ("NestedLoopJoin", 11, 1),
         ("HashJoin", 124, 1), ("TableScan", 417, 1),
         ("NestedLoopJoin", 92, 1), ("HashJoin", 6, 1),
         ("TableScan", 40, 1), ("NestedLoopJoin", 5, 1),
         ("TableScan", 1, 1), ("IndexLookup", 5, 1),
         ("IndexLookup", 92, 6), ("IndexLookup", 11, 124)]),
    10: ((0, 0, 15235, 4249),
         [("Sort", 89, 1), ("Aggregate", 89, 1), ("HashJoin", 219, 1),
          ("HashJoin", 219, 1), ("TableScan", 2891, 1),
          ("TableScan", 117, 1), ("HashJoin", 300, 1),
          ("TableScan", 300, 1), ("TableScan", 25, 1)]),
    13: ((300, 3000, 300, 7236),
         [("Aggregate", 300, 1), ("Sort", 3000, 1),
          ("NestedLoopJoin", 3000, 1), ("TableScan", 300, 1),
          ("IndexLookup", 3000, 300), ("Sort", 18, 1),
          ("Aggregate", 18, 1), ("Sort", 300, 1),
          ("DerivedMaterialize", 300, 1)]),
}


@pytest.fixture(scope="module")
def repeat_db():
    db = Database()
    load_tpch(db, scale=1.0)
    return db


def test_repeat_statements_do_the_recorded_work(repeat_db):
    db = repeat_db
    counters = db.storage.counters
    for number, (expected, nodes) in REPEAT_COUNTERS.items():
        def snapshot():
            return (counters.index_lookups, counters.index_rows_read,
                    counters.rows_scanned,
                    db.metrics.count("executor.batch_rows"))
        before = snapshot()
        result = db.run(TPCH_QUERIES[number])
        assert result.executor_mode == "batch"
        work = tuple(a - b for a, b in zip(snapshot(), before))
        assert work == expected, f"Q{number}"
        assert [(node.operator, node.actual, node.loops)
                for node in result.plan_quality.nodes] == nodes, \
            f"Q{number}"


@pytest.mark.parametrize("number", (13, 3))
def test_index_nested_loops_emit_through_the_batched_probe(
        repeat_db, monkeypatch, number):
    """Q13's left and Q3's inner index nested loops probe a whole outer
    batch at a time: no inner side re-runs per outer row."""
    from repro.executor.plan import NestedLoopJoinNode

    rebinds = []
    original = NestedLoopJoinNode._rebind_batches

    def spy(self, runtime):
        rebinds.append(1)
        return original(self, runtime)

    monkeypatch.setattr(NestedLoopJoinNode, "_rebind_batches", spy)
    result = repeat_db.run(TPCH_QUERIES[number])
    assert result.executor_mode == "batch"
    assert any(node.operator == "NestedLoopJoin"
               for node in result.plan_quality.nodes)
    assert rebinds == []


# -- subquery bodies and correlated inners ------------------------------------------

#: The ``adhoc_tpcds`` statements whose subquery bodies (ds41, ds9, ds6)
#: or correlated derived-table inners (ds1, ds81 under Orca) run per
#: outer row, at TPC-DS scale 0.2: body runs (subquery-cache misses),
#: re-materialisations per derived node, and the storage counters that
#: moved.  Recorded while bodies and such inners still ran on the row
#: plan; running them as batch plans changes how, never how much.
BODY_WORK = {
    ("mysql", 41): (60, [], {"rows_scanned": 3660}),
    ("mysql", 9): (10, [], {"rows_scanned": 16007}),
    ("mysql", 6): (38, [], {"rows_scanned": 2280, "index_lookups": 136,
                            "index_rows_read": 201}),
    ("mysql", 1): (66, [], {"rows_scanned": 158, "index_lookups": 162,
                            "index_rows_read": 162}),
    ("mysql", 81): (50, [], {"rows_scanned": 145, "index_lookups": 309,
                             "index_rows_read": 309}),
    ("orca", 41): (0, [60], {"rows_scanned": 3660}),
    ("orca", 9): (10, [], {"rows_scanned": 16007}),
    ("orca", 6): (60, [], {"rows_scanned": 3810, "index_lookups": 32,
                           "index_rows_read": 97}),
    ("orca", 1): (0, [17], {"rows_scanned": 888, "index_lookups": 17,
                            "index_rows_read": 17}),
    ("orca", 81): (0, [4], {"rows_scanned": 1075, "index_lookups": 5,
                            "index_rows_read": 10}),
}


@pytest.fixture(scope="module")
def body_db():
    db = Database()
    load_tpcds(db, scale=0.2)
    return db


@pytest.mark.parametrize("optimizer", ["mysql", "orca"])
def test_body_statements_do_the_recorded_work(body_db, optimizer):
    counters = body_db.storage.counters
    for number in (41, 9, 6, 1, 81):
        executor = body_db._compile(TPCDS_QUERIES[number], optimizer)[0]
        before = counters.snapshot()
        executor.execute(mode="batch")
        after = counters.snapshot()
        rebinds = [node.actual_rebinds
                   for node in executor.iter_plan_nodes()
                   if isinstance(node, DerivedMaterializeNode)
                   and node.actual_rebinds]
        work = (len(executor.last_runtime.subquery_cache), sorted(rebinds),
                {key: after[key] - before[key] for key in after
                 if after[key] != before[key]})
        assert work == BODY_WORK[(optimizer, number)], f"ds{number}"


# -- the block facts table: one mask per expression, the same search -----------------

#: Orca memo groups and cost evaluations of one default-routed compile
#: of each ``compile_mix`` statement (TPC-DS scale 0.05, topologies at
#: scale 0.25), recorded before the block facts table replaced the
#: tree walks: reading conjunct facts from a table changes how fast the
#: compile runs, never what the search does.  Re-based when GOO took
#: every component above 12 units, full DP lost its IKKBZ-chain seed and
#: a semi join's standalone inner came to be planned once; and again
#: when DP's GOO incumbent pass stopped re-costing DP's seed chain.
SEARCH_COUNTS = pathlib.Path(__file__).parent / "goldens" / "perf" / \
    "compile_mix_search.json"


def compile_mix_search_counts():
    """``{statement: [memo groups, cost evaluations]}`` per statement."""
    from repro.workloads.joins import load_topology, make_topology

    tpcds = Database()
    load_tpcds(tpcds, scale=0.05)
    joins = Database()
    statements = [(f"ds{number}", tpcds, sql)
                  for number, sql in sorted(TPCDS_QUERIES.items())]
    for kind, relations in sorted(TOPOLOGY_SEARCH):
        topology = make_topology(kind, relations, seed=1234, scale=0.25)
        load_topology(joins, topology)
        statements.append((f"{kind}{relations}", joins, topology.query))
    counts = {}
    for name, db, sql in statements:
        before = [_histogram_total(db, metric) for metric in
                  ("orca.memo_groups", "orca.cost_evaluations")]
        db.compile_only(sql)
        counts[name] = [_histogram_total(db, metric) - start
                        for metric, start in zip(
                            ("orca.memo_groups", "orca.cost_evaluations"),
                            before)]
    return counts


def _histogram_total(db, name):
    histogram = db.metrics.histogram(name)
    return 0 if histogram is None else int(histogram.total)


def test_compile_mix_search_counts_are_the_recorded_ones():
    golden = json.loads(SEARCH_COUNTS.read_text())
    measured = compile_mix_search_counts()
    moved = sorted(name for name in golden if measured.get(name)
                   != golden[name])
    assert not moved, ", ".join(f"{name} {golden[name]} -> "
                                f"{measured.get(name)}" for name in moved)
    assert measured.keys() == golden.keys()


@pytest.mark.parametrize("statement", ["ds72", "chain20"])
@pytest.mark.parametrize("optimizer", ["orca", "mysql"])
def test_each_entry_mask_is_computed_once(statement, optimizer,
                                          monkeypatch):
    """A compile walks each expression's tree for its entry mask at most
    once: every later question about it is a table read."""
    from repro.sql.facts import ExprFacts
    from repro.workloads.joins import load_topology, make_topology

    db = Database()
    if statement == "ds72":
        load_tpcds(db, scale=0.02)
        sql = TPCDS_QUERIES[72]
    else:
        topology = make_topology("chain", 20, seed=1234, scale=0.05)
        load_topology(db, topology)
        sql = topology.query
    fills = {}
    fill = ExprFacts.fill

    def counted(memo, expr, scanned=None):
        key = (id(memo), id(expr))
        fills[key] = fills.get(key, 0) + 1
        return fill(memo, expr, scanned)

    monkeypatch.setattr(ExprFacts, "fill", counted)
    result = db.compile_only(sql, optimizer=optimizer)
    assert result.optimizer_used == optimizer
    assert len(fills) > 20
    assert max(fills.values()) == 1
