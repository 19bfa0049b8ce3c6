"""Failure injection: the Orca detour must always fall back cleanly.

Section 4.2.1: when conversion aborts, "the system resorts to the usual
MySQL query optimization".  These tests force failures at different
stages of the detour and verify queries still execute — on MySQL plans.
"""

import pytest

from repro import FallbackReason
from repro.bridge.router import OrcaRouter
from repro.errors import OrcaError, OrcaFallbackError
from repro.governor import ExecutionGovernor

from tests.conftest import build_mini_db

SQL = """
SELECT COUNT(*) FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
"""


@pytest.fixture()
def db():
    return build_mini_db(seed=71, orders=80)


class TestRouterFallback:
    def test_optimizer_crash_falls_back(self, db, monkeypatch):
        from repro.orca import optimizer as orca_optimizer

        def explode(self, logical, estimates):
            raise OrcaError("injected failure")

        monkeypatch.setattr(orca_optimizer.OrcaOptimizer,
                            "optimize_block", explode)
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.rows  # the query still ran

    def test_converter_crash_falls_back(self, db, monkeypatch):
        from repro.bridge import parse_tree_converter as ptc

        def explode(self, block):
            raise OrcaFallbackError("injected conversion abort")

        monkeypatch.setattr(ptc.ParseTreeConverter, "convert_block",
                            explode)
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"

    def test_plan_converter_abort_falls_back(self, db, monkeypatch):
        from repro.bridge import plan_converter as pc

        def explode(self, block_plans, top_block):
            raise OrcaFallbackError("injected block-structure change")

        monkeypatch.setattr(pc.OrcaPlanConverter, "convert", explode)
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"

    def test_unexpected_exception_contained_by_default(self, db,
                                                       monkeypatch):
        # The containment guard catches genuine bugs too: the query
        # falls back to MySQL and the reason records the real error.
        from repro.orca import optimizer as orca_optimizer

        def explode(self, logical, estimates):
            raise ValueError("a real bug")

        monkeypatch.setattr(orca_optimizer.OrcaOptimizer,
                            "optimize_block", explode)
        result = db.run(SQL, optimizer="orca")
        assert result.optimizer_used == "mysql"
        assert result.fallback_reason is \
            FallbackReason.UNEXPECTED_EXCEPTION
        assert db.statements.last.error == "ValueError: a real bug"

    def test_fallback_results_equal_mysql_results(self, db, monkeypatch):
        expected = db.execute(SQL, optimizer="mysql")
        from repro.orca import optimizer as orca_optimizer

        def explode(self, logical, estimates):
            raise OrcaError("injected")

        monkeypatch.setattr(orca_optimizer.OrcaOptimizer,
                            "optimize_block", explode)
        assert db.execute(SQL, optimizer="orca") == expected

    def test_router_returns_none_on_fallback(self, db, monkeypatch):
        from repro.orca import optimizer as orca_optimizer
        from repro.sql.parser import parse_statement
        from repro.sql.prepare import prepare
        from repro.sql.resolver import Resolver

        def explode(self, logical, estimates):
            raise OrcaFallbackError("injected")

        monkeypatch.setattr(orca_optimizer.OrcaOptimizer,
                            "optimize_block", explode)
        stmt = parse_statement(SQL)
        block, context = Resolver(db.catalog).resolve(stmt)
        prepare(block)
        router = OrcaRouter(db.catalog, db.config,
                            governor=ExecutionGovernor())
        outcome = router.optimize_guarded(stmt, block, context)
        assert outcome.skeleton is None
        assert outcome.reason is FallbackReason.TYPED_ABORT


class TestAccessCounters:
    def test_mysql_plan_does_more_lookups_than_orca_on_joins(self, db):
        """Behavioural check of the core plan difference: MySQL's index
        NLJ plans probe per outer row; Orca's hash plans scan once."""
        sql = """
            SELECT COUNT(*) FROM orders, lineitem
            WHERE o_orderkey = l_orderkey"""
        db.storage.counters.reset()
        db.execute(sql, optimizer="mysql")
        mysql_lookups = db.storage.counters.index_lookups
        db.storage.counters.reset()
        db.execute(sql, optimizer="orca")
        orca_lookups = db.storage.counters.index_lookups
        assert mysql_lookups > orca_lookups

    def test_counters_track_scans(self, db):
        db.storage.counters.reset()
        db.execute("SELECT COUNT(*) FROM orders", optimizer="mysql")
        assert db.storage.counters.rows_scanned == \
            db.storage.store("orders").row_count
