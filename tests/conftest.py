"""Shared fixtures: small schemas and loaded databases."""

import datetime
import random
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

import pytest

from repro import Database, DatabaseConfig
from repro.bridge import router
from repro.bridge.router import OrcaRouter
from repro.catalog import Catalog, Column, Index, TableSchema
from repro.errors import ReproError
from repro.governor import ExecutionGovernor
from repro.mysql_types import MySQLType
from repro.observability import Tracer, find_spans
from repro.orca.largejoin import STRATEGY_POLICIES
from repro.orca.optimizer import OrcaConfig
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver


def _orders_schema():
    return TableSchema("orders", [
        Column.of("o_orderkey", MySQLType.LONGLONG, nullable=False),
        Column.of("o_custkey", MySQLType.LONGLONG, nullable=False),
        Column.of("o_status", MySQLType.STRING, 1, nullable=False),
        Column.of("o_totalprice", MySQLType.DOUBLE, nullable=False),
        Column.of("o_orderdate", MySQLType.DATE, nullable=False),
        Column.of("o_priority", MySQLType.VARCHAR, 15, nullable=False),
        Column.of("o_comment", MySQLType.VARCHAR, 79),
    ], [Index("PRIMARY", ("o_orderkey",), primary=True),
        Index("orders_custkey", ("o_custkey",))])


def _lineitem_schema():
    return TableSchema("lineitem", [
        Column.of("l_orderkey", MySQLType.LONGLONG, nullable=False),
        Column.of("l_partkey", MySQLType.LONGLONG, nullable=False),
        Column.of("l_linenumber", MySQLType.LONG, nullable=False),
        Column.of("l_quantity", MySQLType.DOUBLE, nullable=False),
        Column.of("l_price", MySQLType.DOUBLE, nullable=False),
        Column.of("l_shipdate", MySQLType.DATE, nullable=False),
        Column.of("l_commitdate", MySQLType.DATE, nullable=False),
        Column.of("l_receiptdate", MySQLType.DATE, nullable=False),
    ], [Index("PRIMARY", ("l_orderkey", "l_linenumber"), primary=True),
        Index("lineitem_partkey", ("l_partkey",))])


def _customer_schema():
    return TableSchema("customer", [
        Column.of("c_custkey", MySQLType.LONGLONG, nullable=False),
        Column.of("c_name", MySQLType.VARCHAR, 25, nullable=False),
        Column.of("c_segment", MySQLType.STRING, 10, nullable=False),
        Column.of("c_acctbal", MySQLType.DOUBLE, nullable=False),
        Column.of("c_comment", MySQLType.VARCHAR, 100),
    ], [Index("PRIMARY", ("c_custkey",), primary=True)])


def _part_schema():
    return TableSchema("part", [
        Column.of("p_partkey", MySQLType.LONGLONG, nullable=False),
        Column.of("p_brand", MySQLType.VARCHAR, 10, nullable=False),
        Column.of("p_size", MySQLType.LONG, nullable=False),
    ], [Index("PRIMARY", ("p_partkey",), primary=True)])


@pytest.fixture
def mini_catalog():
    """A catalog with orders/lineitem/customer/part schemas (no data)."""
    catalog = Catalog()
    for schema in (_orders_schema(), _lineitem_schema(),
                   _customer_schema(), _part_schema()):
        catalog.create_table(schema)
    return catalog


def build_mini_db(seed: int = 0, orders: int = 300,
                  lines_per_order: int = 4,
                  config: DatabaseConfig = None) -> Database:
    """A loaded database with deterministic synthetic data."""
    rng = random.Random(seed)
    db = Database(config or DatabaseConfig(complex_query_threshold=3))
    for schema in (_orders_schema(), _lineitem_schema(),
                   _customer_schema(), _part_schema()):
        db.create_table(schema)

    start = datetime.date(1995, 1, 1)
    n_customers = max(10, orders // 5)
    n_parts = max(10, orders // 4)

    db.load("customer", [
        (k, f"Customer#{k}", ["GOLD", "SILVER", "BRONZE"][k % 3],
         round(rng.uniform(-500, 5000), 2), f"comment {k}")
        for k in range(1, n_customers + 1)])
    db.load("part", [
        (k, f"Brand#{k % 5}", k % 50 + 1) for k in range(1, n_parts + 1)])
    order_rows = []
    line_rows = []
    for key in range(1, orders + 1):
        date = start + datetime.timedelta(days=rng.randrange(365))
        order_rows.append((
            key, rng.randrange(1, n_customers + 1), rng.choice("OFP"),
            round(rng.uniform(100, 10000), 2), date,
            f"{key % 5}-PRIO", None if key % 7 == 0 else f"note {key}"))
        for line in range(1, rng.randrange(1, lines_per_order * 2) + 1):
            ship = date + datetime.timedelta(days=rng.randrange(1, 60))
            commit = date + datetime.timedelta(days=rng.randrange(10, 50))
            receipt = ship + datetime.timedelta(days=rng.randrange(1, 20))
            line_rows.append((
                key, rng.randrange(1, n_parts + 1), line,
                float(rng.randrange(1, 50)),
                round(rng.uniform(10, 500), 2), ship, commit, receipt))
    db.load("orders", order_rows)
    db.load("lineitem", line_rows)
    db.analyze()
    return db


@pytest.fixture(scope="module")
def mini_db():
    return build_mini_db()


@pytest.fixture
def force_fanout(monkeypatch):
    """Make the fan-out gate say yes for every eligible non-empty
    pre-aggregation, so tests reach the fork path on small tables: the
    three cost constants drop to zero (any shared work then pays) and
    the CPU ceiling is lifted so ``executor_workers=4`` means 4."""
    from repro.executor import parallel
    for constant in ("FORK_SECONDS", "COW_SECONDS_PER_ROW",
                     "SHIP_SECONDS_PER_VALUE"):
        monkeypatch.setattr(parallel, constant, 0.0)
    monkeypatch.setattr(parallel, "USABLE_CPUS", 64)


def brute_force(db, tables, predicate, project):
    """Reference evaluator: cartesian product + Python predicate."""
    import itertools

    heaps = [list(db.storage.store(t).scan()) for t in tables]
    out = []
    for combo in itertools.product(*heaps):
        if predicate(*combo):
            out.append(project(*combo))
    return out


@contextmanager
def forced_orca_config(**changes) -> Iterator[None]:
    """Plan every Orca detour inside the block with these ``OrcaConfig``
    fields changed, e.g. ``join_strategy="dp"`` or
    ``enable_cost_bound_pruning=False``.

    Forcing a join strategy or switching pruning off is a measurement
    setting, not a database option: it changes the search configuration
    the router derives from ``DatabaseConfig``, and ``db.run`` inside
    the block plans, executes and returns rows as usual.
    """
    replace(OrcaConfig(), **changes)  # an unknown field raises here
    policy = changes.get("join_strategy", "adaptive")
    if policy not in STRATEGY_POLICIES:
        raise ReproError(f"unknown join_strategy {policy!r}; valid "
                         f"choices: {', '.join(STRATEGY_POLICIES)}")
    derive = router.orca_config_for
    router.orca_config_for = lambda config: replace(derive(config),
                                                    **changes)
    try:
        yield
    finally:
        router.orca_config_for = derive


def orca_search(db, sql, pruning: bool = True) -> tuple:
    """Compile ``sql`` through the Orca detour, traced, with cost-bound
    pruning on or off; returns ``(skeleton, memo_search spans)``.

    The unpruned search is an ``OrcaConfig`` setting only, so this
    drives the Orca router directly under :func:`forced_orca_config`.
    The skeleton is None when the detour fell back.
    """
    stmt = parse_statement(sql)
    block, context = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    tracer = Tracer()
    with forced_orca_config(enable_cost_bound_pruning=pruning), \
            tracer.span("compile") as root:
        skeleton = OrcaRouter(db.catalog, db.config,
                              governor=ExecutionGovernor(), tracer=tracer,
                              mdcache=db.mdcache
                              ).optimize(stmt, block, context)
    return skeleton, find_spans(root, "memo_search")


def run_orca(db, sql, pruning: bool = True):
    """Compile ``sql`` through the Orca detour with cost-bound pruning on
    or off and run the plan; returns ``(rows, memo_search spans)``."""
    from repro.mysql_optimizer.refinement import PlanBuilder

    skeleton, spans = orca_search(db, sql, pruning)
    assert skeleton is not None, "the Orca detour fell back"
    rows = PlanBuilder(skeleton, db.catalog, db.storage).build().execute()
    return rows, spans
