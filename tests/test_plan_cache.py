"""The statement plan cache and cost-bound search pruning.

Tentpole coverage for the optimize-stage cost work: a repeated
statement is served from the cache (no memo search in its trace, same
rows), a cached plan outlives INSERT, UPDATE, DELETE and bulk loads
(and returns the fresh rows) while DDL or ANALYZE of a table it
references — and only of those — invalidates it,
``use_plan_cache=False`` bypasses, failed detours are never cached,
and the branch-and-bound pruning in Orca's DP join search picks a plan
of exactly the same cost as the unpruned search.
"""

import pytest

from repro import Database, DatabaseConfig, FallbackReason, FaultInjector
from repro.catalog import Catalog, Column, TableSchema, TableStatistics
from repro.mysql_types import MySQLType
from repro.observability import find_spans
from repro.plan_cache import PlanCache, PlanCacheEntry, statement_cache_key
from repro.resilience import statement_fingerprint

from tests.conftest import build_mini_db, run_orca

JOIN_SQL = """
SELECT COUNT(*) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
"""

FIVE_WAY_SQL = """
SELECT COUNT(*)
FROM customer c1, orders o1, lineitem l1, part p1, orders o2
WHERE c1.c_custkey = o1.o_custkey
  AND o1.o_orderkey = l1.l_orderkey
  AND l1.l_partkey = p1.p_partkey
  AND o2.o_custkey = c1.c_custkey
"""


@pytest.fixture()
def db():
    return build_mini_db(seed=5, orders=80)


# -- the key function ---------------------------------------------------------------


class TestStatementCacheKey:

    def test_whitespace_and_case_insensitive(self):
        assert statement_cache_key("SELECT  1\nFROM t") == \
            statement_cache_key("select 1 from t")

    def test_literals_are_preserved(self):
        """Unlike the resilience fingerprint, different literals must
        map to different plans (they are compiled into the executor)."""
        a = "SELECT * FROM orders WHERE o_totalprice > 100"
        b = "SELECT * FROM orders WHERE o_totalprice > 250"
        assert statement_cache_key(a) != statement_cache_key(b)
        assert statement_fingerprint(a) == statement_fingerprint(b)

    def test_optimizer_is_part_of_the_key(self):
        sql = "SELECT 1 FROM t"
        assert statement_cache_key(sql, "orca") != \
            statement_cache_key(sql, "mysql")


# -- the cache data structure -------------------------------------------------------


def _table(name: str) -> TableSchema:
    return TableSchema(name, [Column.of("a", MySQLType.LONGLONG)])


def _catalog(*names: str) -> Catalog:
    catalog = Catalog()
    for name in names:
        catalog.create_table(_table(name))
    return catalog


def _entry(catalog: Catalog = None, *tables: str) -> PlanCacheEntry:
    return PlanCacheEntry(
        executor=object(), skeleton=object(), optimizer_used="orca",
        table_epochs={table: catalog.epoch(table) for table in tables})


class TestPlanCacheLRU:

    def test_lru_eviction_and_counters(self):
        catalog = _catalog()
        cache = PlanCache(capacity=2)
        cache.store("a", _entry())
        cache.store("b", _entry())
        assert cache.lookup("a", catalog) is not None  # "b" is now LRU
        cache.store("c", _entry())
        assert cache.evictions == 1
        assert cache.lookup("b", catalog) is None
        assert cache.lookup("a", catalog) is not None
        assert cache.lookup("c", catalog) is not None
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1

    def test_only_a_referenced_tables_epoch_invalidates(self):
        catalog = _catalog("r", "s", "other")
        cache = PlanCache(capacity=4)
        cache.store("a", _entry(catalog, "r", "s"))
        catalog.set_statistics("other", TableStatistics(row_count=5))
        catalog.create_table(_table("newcomer"))
        catalog.drop_table("other")
        assert cache.lookup("a", catalog) is not None
        assert cache.invalidations == 0
        catalog.set_statistics("s", TableStatistics(row_count=5))
        assert cache.lookup("a", catalog) is None
        assert cache.invalidations == 1
        assert "a" not in cache

    def test_recreated_table_never_matches_an_old_epoch(self):
        catalog = _catalog("r")
        cache = PlanCache(capacity=4)
        cache.store("a", _entry(catalog, "r"))
        cache.store("b", _entry(catalog, "r"))
        catalog.drop_table("r")
        assert cache.lookup("a", catalog) is None
        catalog.create_table(_table("r"))
        assert cache.lookup("b", catalog) is None
        assert cache.invalidations == 2

    def test_invalidate_all(self):
        cache = PlanCache(capacity=4)
        cache.store("a", _entry())
        cache.store("b", _entry())
        assert cache.invalidate_all() == 2
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


# -- end-to-end: hits skip optimization ----------------------------------------------


class TestCacheHits:

    def test_repeat_is_a_hit_with_identical_rows(self, db):
        first = db.run(JOIN_SQL, trace=True)
        assert not first.plan_cache_hit
        second = db.run(JOIN_SQL, trace=True)
        assert second.plan_cache_hit
        assert second.rows == first.rows
        assert second.optimizer_used == first.optimizer_used
        # The hit path skips the whole optimize pipeline: no memo
        # search, no detour, no refine — just route/execute.
        names = {span.name for span in second.trace.walk()}
        assert "memo_search" not in names
        assert "orca_detour" not in names
        assert "refine" not in names
        route = find_spans(second.trace, "route")[0]
        assert route.attributes["plan_cache"] == "hit"

    def test_miss_then_hit_counters(self, db):
        db.run(JOIN_SQL)
        db.run(JOIN_SQL)
        db.run(JOIN_SQL)
        stats = db.plan_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert db.metrics.count("plan_cache.hits") == 2
        assert db.metrics.count("plan_cache.misses") == 1

    def test_bypass_never_looks_up_or_stores(self, db):
        db.run(JOIN_SQL, use_plan_cache=False)
        assert len(db.plan_cache) == 0
        assert db.plan_cache.hits == db.plan_cache.misses == 0
        db.run(JOIN_SQL)          # miss + store
        result = db.run(JOIN_SQL, use_plan_cache=False)
        assert not result.plan_cache_hit
        assert db.plan_cache.hits == 0

    def test_different_literals_do_not_share_plans(self, db):
        template = "SELECT COUNT(*) FROM orders, lineitem, customer " \
                   "WHERE o_orderkey = l_orderkey " \
                   "AND c_custkey = o_custkey AND o_totalprice > {}"
        low = db.run(template.format(100))
        high = db.run(template.format(9000))
        assert not high.plan_cache_hit
        assert low.rows[0][0] >= high.rows[0][0]

    def test_metrics_report_mentions_plan_cache(self, db):
        db.run(JOIN_SQL)
        db.run(JOIN_SQL)
        report = db.metrics_report()
        assert "plan cache:" in report
        assert "search pruning:" in report


# -- invalidation --------------------------------------------------------------------


class TestInvalidation:

    def _prime(self, db):
        result = db.run(JOIN_SQL)
        assert not result.plan_cache_hit
        assert db.run(JOIN_SQL).plan_cache_hit
        return result.rows[0][0]

    def _fresh(self, db):
        return db.run(JOIN_SQL, optimizer="mysql", executor_mode="row",
                      use_plan_cache=False).rows[0][0]

    def test_insert_keeps_plan_and_returns_fresh_rows(self, db):
        before = self._prime(db)
        db.run("INSERT INTO orders VALUES "
               "(99001, 1, 'O', 500.0, '1995-06-01', '1-PRIO', NULL)")
        db.run("INSERT INTO lineitem VALUES "
               "(99001, 1, 1, 5.0, 50.0, "
               "'1995-06-10', '1995-06-15', '1995-06-20')")
        result = db.run(JOIN_SQL)
        assert result.plan_cache_hit
        assert result.rows[0][0] == before + 1 == self._fresh(db)
        assert db.plan_cache.invalidations == 0

    def test_update_keeps_plan_and_returns_fresh_rows(self, db):
        before = self._prime(db)
        # Re-home every line of order 1 to an order that does not exist.
        moved = db.run("UPDATE lineitem SET l_orderkey = 424242 "
                       "WHERE l_orderkey = 1").rows[0][0]
        assert moved > 0
        result = db.run(JOIN_SQL)
        assert result.plan_cache_hit
        assert result.rows[0][0] == before - moved == self._fresh(db)

    def test_delete_keeps_plan_and_returns_fresh_rows(self, db):
        before = self._prime(db)
        gone = db.run("DELETE FROM lineitem WHERE l_orderkey = 1"
                      ).rows[0][0]
        assert gone > 0
        result = db.run(JOIN_SQL)
        assert result.plan_cache_hit
        assert result.rows[0][0] == before - gone == self._fresh(db)

    def test_bulk_load_keeps_plan_and_returns_fresh_rows(self, db):
        self._prime(db)
        lines = db.execute("SELECT * FROM lineitem")
        db.load("lineitem", lines * 3)
        result = db.run(JOIN_SQL)
        assert result.plan_cache_hit
        assert result.rows[0][0] == 4 * len(lines) == self._fresh(db)

    def test_analyze_after_change_to_referenced_table_invalidates(self, db):
        self._prime(db)
        db.run("DELETE FROM lineitem WHERE l_orderkey = 1")
        db.analyze()
        result = db.run(JOIN_SQL, trace=True)
        assert not result.plan_cache_hit
        route = find_spans(result.trace, "route")[0]
        assert route.attributes["plan_cache"] == "stale"
        assert db.plan_cache.invalidations == 1
        assert db.run(JOIN_SQL).plan_cache_hit

    def test_analyze_and_ddl_on_unrelated_tables_keep_the_plan(self, db):
        self._prime(db)
        # JOIN_SQL reads customer, orders, lineitem — never part.
        db.run("DELETE FROM part WHERE p_partkey = 1")
        db.analyze()
        assert db.run(JOIN_SQL).plan_cache_hit
        db.storage.drop_table("part")
        db.create_table(_table("scratch"))
        assert db.run(JOIN_SQL).plan_cache_hit
        assert db.plan_cache.invalidations == 0

    def test_analyze_with_nothing_changed_keeps_the_plan(self, db):
        self._prime(db)
        db.analyze()
        assert db.run(JOIN_SQL).plan_cache_hit

    def test_drop_and_recreate_of_referenced_table_invalidates(self, db):
        self._prime(db)
        schema = db.catalog.table("lineitem")
        rows = db.execute("SELECT * FROM lineitem")
        db.storage.drop_table("lineitem")
        db.create_table(schema)
        db.load("lineitem", rows)
        result = db.run(JOIN_SQL)
        assert not result.plan_cache_hit
        assert db.plan_cache.invalidations == 1
        assert result.rows[0][0] == self._fresh(db)

    def test_subquery_and_derived_tables_are_dependencies(self, db):
        sql = ("SELECT COUNT(*) FROM customer WHERE c_custkey IN "
               "(SELECT o_custkey FROM orders) AND c_custkey IN "
               "(SELECT d.k FROM (SELECT p_partkey AS k FROM part) d)")
        db.run(sql)
        assert db.run(sql).plan_cache_hit
        db.run("DELETE FROM part WHERE p_partkey = 1")
        db.analyze()
        assert not db.run(sql).plan_cache_hit
        db.run("DELETE FROM orders WHERE o_orderkey = 1")
        db.analyze()
        assert not db.run(sql).plan_cache_hit
        db.run("DELETE FROM lineitem WHERE l_orderkey = 2")
        db.analyze()
        assert db.run(sql).plan_cache_hit


# -- failed detours are never cached --------------------------------------------------


class TestFailureInteraction:

    def test_fallback_is_not_cached(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "optimizer", "typed", times=1)
        first = db.run(JOIN_SQL, optimizer="orca")
        assert first.fallback_reason is FallbackReason.TYPED_ABORT
        assert len(db.plan_cache) == 0
        # The injector is exhausted: the retry takes the detour again
        # (a cached MySQL plan would have hidden the recovery).
        second = db.run(JOIN_SQL, optimizer="orca")
        assert second.optimizer_used == "orca"
        assert not second.plan_cache_hit
        assert db.run(JOIN_SQL, optimizer="orca").plan_cache_hit

    def test_circuit_broken_statement_never_populates(self, db):
        db.config.fault_injector = FaultInjector().arm(
            "plan_converter", "crash")
        for __ in range(db.circuit_breaker.threshold):
            db.run(JOIN_SQL, optimizer="orca")
        assert len(db.plan_cache) == 0
        result = db.run(JOIN_SQL, optimizer="orca")
        assert result.fallback_reason is FallbackReason.CIRCUIT_OPEN
        assert len(db.plan_cache) == 0
        # Every quarantined run keeps consulting the breaker rather
        # than short-circuiting through the cache.
        assert db.fallback_log.count(FallbackReason.CIRCUIT_OPEN) == 1


# -- cost-bound pruning ---------------------------------------------------------------


class TestCostBoundPruning:

    @pytest.mark.parametrize("sql", [JOIN_SQL, FIVE_WAY_SQL])
    def test_pruned_search_matches_unpruned_cost(self, db, sql):
        """Soundness: the bound only skips candidates that cannot beat
        the incumbent, so the chosen plan's cost is identical."""
        pruned_rows, pruned = run_orca(db, sql, pruning=True)
        unpruned_rows, unpruned = run_orca(db, sql, pruning=False)
        assert sorted(pruned_rows) == sorted(unpruned_rows)
        pruned_cost = sum(s.attributes["best_cost"] for s in pruned)
        unpruned_cost = sum(s.attributes["best_cost"] for s in unpruned)
        assert pruned_cost == pytest.approx(unpruned_cost)

    def test_pruning_reduces_cost_evaluations(self, db):
        def evaluations(pruning):
            __, spans = run_orca(db, FIVE_WAY_SQL, pruning=pruning)
            return sum(s.attributes["cost_evaluations"] for s in spans)

        assert evaluations(True) < evaluations(False)

    def test_pruned_candidates_are_counted(self, db):
        result = db.run(FIVE_WAY_SQL, optimizer="orca", trace=True,
                        use_plan_cache=False)
        pruned = sum(s.attributes["pruned_candidates"]
                     for s in find_spans(result.trace, "memo_search"))
        assert pruned > 0
        assert db.metrics.count("orca.pruned_candidates") == pruned

    def test_memo_separates_offered_from_costed(self, db):
        result = db.run(JOIN_SQL, optimizer="orca", trace=True,
                        use_plan_cache=False)
        span = find_spans(result.trace, "memo_search")[0]
        assert span.attributes["memo_offered"] >= \
            span.attributes["memo_alternatives"]


# -- the shared metadata cache -------------------------------------------------------


class TestSharedMDCacheSize:

    def test_one_slot_per_kind_per_table_orca_has_read(self, db):
        """The cache is bounded by what Orca reads, not by a capacity:
        one relation and one statistics slot per table, however many
        statements read it and however often ANALYZE moves its epoch."""
        def expected(*tables):
            return {(kind, table) for table in tables
                    for kind in ("relation", "statistics")}

        assert db.mdcache.slots() == {}
        for __ in range(3):
            result = db.run(JOIN_SQL, optimizer="orca", use_plan_cache=False)
            assert result.optimizer_used == "orca"
        assert set(db.mdcache.slots()) == expected(
            "customer", "orders", "lineitem")
        db.run(FIVE_WAY_SQL, optimizer="orca", use_plan_cache=False)
        read = expected("customer", "orders", "lineitem", "part")
        assert set(db.mdcache.slots()) == read
        for __ in range(3):
            db.storage.analyze_table("orders")
            db.run(FIVE_WAY_SQL, optimizer="orca", use_plan_cache=False)
        slots = db.mdcache.slots()
        assert set(slots) == read
        assert slots[("statistics", "orders")] == db.catalog.epoch("orders")
