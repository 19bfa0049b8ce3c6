"""Tests for shared selectivity estimation."""

import hashlib
import random
import re

import pytest

from repro import Database
from repro.catalog import Column, Index, TableSchema
from repro.mysql_types import MySQLType
from repro.selectivity import SelectivityEstimator
from repro.sql import ast
from repro.sql.blocks import EntryKind
from repro.sql.parser import parse_statement
from repro.sql.prepare import prepare
from repro.sql.resolver import Resolver
from repro.workloads.tpcds import TPCDS_QUERIES, load_tpcds
from repro.workloads.tpch import TPCH_QUERIES, load_tpch

from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=13, orders=400)


def conjunct_for(db, condition):
    stmt = parse_statement(f"SELECT 1 FROM orders WHERE {condition}")
    block, __ = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    return block, block.where_conjuncts[0]


class TestHeuristicEstimation:
    def test_equality_uses_ndv(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_status = 'O'")
        ndv = db.catalog.statistics("orders").column(
            "o_status").distinct_count
        assert estimator.conjunct_selectivity(block, conjunct) == \
            pytest.approx(1.0 / ndv)

    def test_range_uses_default_third(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_totalprice > 9999")
        assert estimator.conjunct_selectivity(block, conjunct) == \
            pytest.approx(1.0 / 3.0)


class TestHistogramEstimation:
    def test_range_uses_histogram(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        block, conjunct = conjunct_for(db, "o_totalprice > 9000")
        sel = estimator.conjunct_selectivity(block, conjunct)
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if v > 9000) / len(values)
        assert sel == pytest.approx(actual, abs=0.08)

    def test_histograms_beat_heuristics(self, db):
        """The core reason Orca's estimates are better."""
        with_h = SelectivityEstimator(db.catalog, use_histograms=True)
        without_h = SelectivityEstimator(db.catalog, use_histograms=False)
        block, conjunct = conjunct_for(db, "o_totalprice > 9500")
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if v > 9500) / len(values)
        err_with = abs(with_h.conjunct_selectivity(block, conjunct)
                       - actual)
        err_without = abs(without_h.conjunct_selectivity(block, conjunct)
                          - actual)
        assert err_with < err_without

    def test_between_with_histogram(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        block, conjunct = conjunct_for(
            db, "o_totalprice BETWEEN 1000 AND 3000")
        sel = estimator.conjunct_selectivity(block, conjunct)
        values = [o[3] for o in db.storage.store("orders").scan()]
        actual = sum(1 for v in values if 1000 <= v <= 3000) / len(values)
        assert sel == pytest.approx(actual, abs=0.08)


class TestCombinators:
    def test_and_multiplies(self, db):
        from repro.sql import ast

        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, first = conjunct_for(db, "o_status = 'O'")
        __, second = conjunct_for(db, "o_status = 'F'")
        combined = ast.BinaryExpr(ast.BinOp.AND, first, second)
        one = estimator.conjunct_selectivity(block, first)
        assert estimator.conjunct_selectivity(block, combined) == \
            pytest.approx(one * one)

    def test_or_is_inclusion_exclusion(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, disj = conjunct_for(db, "o_status = 'O' OR o_status = 'F'")
        sb, single = conjunct_for(db, "o_status = 'O'")
        s = estimator.conjunct_selectivity(sb, single)
        assert estimator.conjunct_selectivity(block, disj) == \
            pytest.approx(s + s - s * s)

    def test_not_complements(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=False)
        block, negated = conjunct_for(db, "NOT o_status = 'O'")
        sb, plain = conjunct_for(db, "o_status = 'O'")
        assert estimator.conjunct_selectivity(block, negated) == \
            pytest.approx(1.0 - estimator.conjunct_selectivity(sb, plain))

    def test_selectivity_always_in_unit_interval(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        for condition in ("o_orderkey = 1", "o_totalprice < -1",
                          "o_totalprice > -99999",
                          "o_comment LIKE '%x%'",
                          "o_status IN ('O', 'F', 'P', 'Z')",
                          "o_comment IS NULL"):
            block, conjunct = conjunct_for(db, condition)
            sel = estimator.conjunct_selectivity(block, conjunct)
            assert 0.0 <= sel <= 1.0


class TestJoinSelectivity:
    def test_equi_join_uses_larger_ndv(self, db):
        estimator = SelectivityEstimator(db.catalog, use_histograms=True)
        stmt = parse_statement("""
            SELECT 1 FROM orders, customer
            WHERE o_custkey = c_custkey""")
        block, __ = Resolver(db.catalog).resolve(stmt)
        prepare(block)
        conjunct = block.where_conjuncts[0]
        sel = estimator.join_selectivity(block, [conjunct])
        custkeys = db.catalog.statistics("customer").column(
            "c_custkey").distinct_count
        o_ndv = db.catalog.statistics("orders").column(
            "o_custkey").distinct_count
        assert sel == pytest.approx(1.0 / max(custkeys, o_ndv))


def resolved(db, sql):
    stmt = parse_statement(sql)
    block, __ = Resolver(db.catalog).resolve(stmt)
    prepare(block)
    return block


def _seeded_db(seed=32):
    """``sale`` keyed on (item, ticket), ``ret`` and ``pair`` unkeyed,
    ``empty`` keyed but never loaded (no statistics)."""
    rng = random.Random(seed)
    db = Database()
    key = (Column.of("item", MySQLType.LONG, nullable=False),
           Column.of("ticket", MySQLType.LONG, nullable=False))
    db.create_table(TableSchema("sale", [
        *key, Column.of("qty", MySQLType.LONG)],
        [Index("PRIMARY", ("item", "ticket"), primary=True)]))
    db.create_table(TableSchema("ret", [
        Column.of("r_item", MySQLType.LONG), Column.of("r_ticket",
                                                        MySQLType.LONG)]))
    db.create_table(TableSchema("pair", [
        Column.of("p_x", MySQLType.LONG), Column.of("p_y", MySQLType.LONG)]))
    db.create_table(TableSchema("empty", list(key),
                                [Index("PRIMARY", ("item", "ticket"),
                                       primary=True)]))
    sales = sorted({(rng.randrange(40), rng.randrange(60))
                    for __ in range(900)})
    db.load("sale", [(item, ticket, rng.randrange(9))
                     for item, ticket in sales])
    db.load("ret", [rng.choice(sales) for __ in range(150)])
    db.load("pair", [(rng.randrange(30), rng.randrange(30))
                     for __ in range(200)])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def seeded():
    return _seeded_db()


def _equalities(block):
    return [c for c in block.where_conjuncts
            if isinstance(c, ast.BinaryExpr) and c.op is ast.BinOp.EQ]


def _product(estimator, block, conjuncts):
    product = 1.0
    for conjunct in conjuncts:
        product *= estimator.join_selectivity(block, [conjunct])
    return product


class TestCompositeJoinSelectivity:
    """How the conjuncts joining one entry pair combine."""

    @pytest.mark.parametrize("histograms", [False, True])
    def test_key_covered_pair_gives_one_over_rows(self, seeded, histograms):
        estimator = SelectivityEstimator(seeded.catalog, histograms)
        block = resolved(seeded, "SELECT 1 FROM ret, sale "
                         "WHERE r_ticket = ticket AND item = r_item")
        pair = _equalities(block)
        rows = seeded.catalog.statistics("sale").row_count
        assert estimator.join_selectivity(block, pair) == 1.0 / rows
        assert 1.0 / rows > _product(estimator, block, pair)

    def test_non_key_pair_is_capped_by_rows(self, seeded):
        estimator = SelectivityEstimator(seeded.catalog, True)
        block = resolved(seeded, "SELECT 1 FROM ret, pair "
                         "WHERE r_item = p_x AND r_ticket = p_y")
        stats = seeded.catalog.statistics

        def composite(table, columns):
            combinations = 1.0
            for name in columns:
                combinations *= stats(table).column(name).distinct_count
            return min(combinations, stats(table).row_count)

        ret = composite("ret", ("r_item", "r_ticket"))
        pair = composite("pair", ("p_x", "p_y"))
        assert pair == stats("pair").row_count  # 30 * 30 > 200 rows
        conjuncts = _equalities(block)
        assert estimator.join_selectivity(block, conjuncts) == \
            1.0 / max(ret, pair)
        assert 1.0 / max(ret, pair) > _product(estimator, block, conjuncts)

    def test_non_base_side_keeps_the_product(self, seeded):
        estimator = SelectivityEstimator(seeded.catalog, True)
        block = resolved(seeded, "SELECT 1 FROM sale, "
                         "(SELECT DISTINCT r_item, r_ticket FROM ret) d "
                         "WHERE d.r_item = item AND d.r_ticket = ticket")
        conjuncts = _equalities(block)
        assert len(conjuncts) == 2
        assert {block.context.entry(ref.entry_id).kind
                for ref in (conjuncts[0].left, conjuncts[0].right)} == \
            {EntryKind.BASE, EntryKind.DERIVED}
        assert estimator.join_selectivity(block, conjuncts) == \
            _product(estimator, block, conjuncts)

    def test_side_without_statistics_keeps_the_product(self, seeded):
        estimator = SelectivityEstimator(seeded.catalog, True)
        block = resolved(seeded, "SELECT 1 FROM ret, empty "
                         "WHERE r_item = item AND r_ticket = ticket")
        conjuncts = _equalities(block)
        assert estimator.join_selectivity(block, conjuncts) == \
            _product(estimator, block, conjuncts)

    def test_other_conjuncts_multiply_in(self, seeded):
        estimator = SelectivityEstimator(seeded.catalog, True)
        block = resolved(seeded, "SELECT 1 FROM ret, sale "
                         "WHERE r_item = item AND qty > r_ticket "
                         "AND r_ticket = ticket")
        first, other, last = block.where_conjuncts
        assert estimator.join_selectivity(block, [first, other, last]) == \
            estimator.join_selectivity(block, [first, last]) \
            * estimator.conjunct_selectivity(block, other)


# -- the corpus ---------------------------------------------------------------

#: SHA-256 (first 16 hex digits) of every single column = column equality
#: selectivity over the TPC-H (scale 0.05) and TPC-DS (scale 0.2) corpus,
#: both estimator modes, recorded from the one-conjunct estimator that
#: ``join_selectivity`` replaced.  A group of one must not move.
SINGLE_EQUALITY_DIGEST = "79349c29e15cf43a"


def corpus_equalities(db, queries):
    """``(block, conjunct)`` for every column = column equality in any
    expression of any block of the corpus statements, in order."""
    for __, sql in sorted(queries.items()):
        block = resolved(db, sql)
        for each in block.context.blocks:
            for expr in each.all_expressions():
                for node in expr.walk():
                    if isinstance(node, ast.BinaryExpr) \
                            and node.op is ast.BinOp.EQ \
                            and isinstance(node.left, ast.ColumnRef) \
                            and isinstance(node.right, ast.ColumnRef):
                        yield each, node


def single_equality_digest(corpora, selectivity):
    digest = hashlib.sha256()
    count = 0
    for db, queries in corpora:
        for histograms in (False, True):
            estimator = SelectivityEstimator(db.catalog, histograms)
            for block, conjunct in corpus_equalities(db, queries):
                digest.update(
                    selectivity(estimator, block, conjunct).hex().encode())
                count += 1
    return digest.hexdigest()[:16], count


@pytest.fixture(scope="module")
def tpch():
    db = Database()
    load_tpch(db, scale=0.05)
    return db


@pytest.fixture(scope="module")
def tpcds():
    db = Database()
    load_tpcds(db, scale=0.2)
    return db


@pytest.fixture(scope="module")
def corpora(tpch, tpcds):
    return ((tpch, TPCH_QUERIES), (tpcds, TPCDS_QUERIES))


class TestCorpusJoinSelectivity:
    def test_single_equalities_are_bit_identical(self, corpora):
        digest, count = single_equality_digest(
            corpora, lambda estimator, block, conjunct:
            estimator.join_selectivity(block, [conjunct]))
        assert count == 858
        assert digest == SINGLE_EQUALITY_DIGEST

    def test_grouping_never_lowers_an_estimate(self, corpora):
        groups = 0
        for db, queries in corpora:
            estimator = SelectivityEstimator(db.catalog, True)
            for __, sql in sorted(queries.items()):
                for block in resolved(db, sql).context.blocks:
                    by_pair = {}
                    for conjunct in _equalities(block):
                        sides = (conjunct.left, conjunct.right)
                        key = frozenset(getattr(side, "entry_id", None)
                                        for side in sides)
                        if all(isinstance(side, ast.ColumnRef)
                               for side in sides) and len(key) == 2:
                            by_pair.setdefault(key, []).append(conjunct)
                    for conjuncts in by_pair.values():
                        if len(conjuncts) > 1:
                            groups += 1
                            assert estimator.join_selectivity(
                                block, conjuncts) >= \
                                _product(estimator, block, conjuncts)
        assert groups >= 10


# -- IN lists -----------------------------------------------------------------

#: (condition on lineitem, estimated rows without / with histograms,
#: actual rows) at TPC-H scale 0.05.  Counting every item, the first
#: three estimated 11.92 / 47.68 / 23.84 rows without histograms, and
#: ``NOT IN (1, NULL)`` 572.
IN_PROBES = [
    ("l_quantity IN (1)", 11.92, 9.0, 9),
    ("l_quantity IN (1, 1, 1, 1)", 11.92, 9.0, 9),
    ("l_quantity IN (1, NULL)", 11.92, 9.0, 9),
    ("l_quantity NOT IN (1, NULL)", 0.0, 0.0, 0),
    ("l_quantity NOT IN (NULL)", 0.0, 0.0, 0),
]


class TestInListSelectivity:
    @pytest.mark.parametrize("condition, plain, histogram, actual",
                             IN_PROBES)
    def test_probe(self, tpch, condition, plain, histogram, actual):
        block = resolved(tpch, f"SELECT 1 FROM lineitem WHERE {condition}")
        conjunct = block.where_conjuncts[0]
        rows = tpch.catalog.statistics("lineitem").row_count
        for histograms, expected in ((False, plain), (True, histogram)):
            estimator = SelectivityEstimator(tpch.catalog, histograms)
            estimate = estimator.conjunct_selectivity(block, conjunct) * rows
            assert round(estimate, 2) == expected, (condition, histograms)
        count = tpch.run(f"SELECT COUNT(*) FROM lineitem WHERE {condition}")
        assert count.rows == [(actual,)]


# -- EXPLAIN ANALYZE ----------------------------------------------------------

def join_q(text, tables):
    """The q of the lowest EXPLAIN ANALYZE join whose subtree reads all
    of ``tables``."""
    lines = [line for line in text.splitlines() if "->" in line]
    best = None
    for at, line in enumerate(lines):
        if "join" not in line:
            continue
        depth = line.index("->")
        subtree = []
        for below in lines[at + 1:]:
            if below.index("->") <= depth:
                break
            subtree.append(below)
        if all(any(re.search(rf" on {table}\b", node) for node in subtree)
               for table in tables) \
                and (best is None or len(subtree) < best[0]):
            best = (len(subtree), line)
    assert best is not None, f"no join of {tables} in\n{text}"
    return float(re.search(r" q=([0-9.]+)", best[1]).group(1))


class TestCompositeJoinEstimates:
    """The composite-key joins that collapsed to ~0 rows (q = 60 at
    scale 0.2 and 300 at scale 1.0 before the equalities were grouped)."""

    @pytest.mark.parametrize("number, tables", [
        (21, ("store_returns", "store_sales")),
        (4, ("catalog_returns", "catalog_sales")),
    ])
    def test_composite_join_q_at_most_two(self, tpcds, number, tables):
        text = tpcds.explain_analyze(TPCDS_QUERIES[number],
                                     optimizer="orca")
        assert join_q(text, tables) <= 2.0
