"""Tests for EXPLAIN ANALYZE: actual per-operator row counts."""

import re

import pytest

from tests.conftest import build_mini_db


@pytest.fixture(scope="module")
def db():
    return build_mini_db(seed=61, orders=100)


def actual_rows(text):
    return [int(m) for m in re.findall(r"actual rows=(\d+)", text)]


class TestExplainAnalyze:
    def test_header(self, db):
        text = db.explain_analyze("SELECT COUNT(*) FROM orders",
                                  optimizer="mysql")
        assert text.startswith("EXPLAIN ANALYZE")

    def test_orca_header(self, db):
        text = db.explain_analyze("""
            SELECT COUNT(*) FROM orders, customer, lineitem
            WHERE o_custkey = c_custkey AND l_orderkey = o_orderkey""",
            optimizer="orca")
        assert text.startswith("EXPLAIN (ORCA) ANALYZE")

    def test_every_operator_annotated(self, db):
        text = db.explain_analyze(
            "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
            optimizer="mysql")
        operator_lines = [line for line in text.splitlines()
                          if "-> " in line and "Materialize" not in line]
        annotated = [line for line in operator_lines
                     if "actual rows=" in line]
        assert len(annotated) == len(operator_lines)

    def test_scan_count_matches_table(self, db):
        text = db.explain_analyze("SELECT o_orderkey FROM orders",
                                  optimizer="mysql")
        counts = actual_rows(text)
        assert db.storage.store("orders").row_count in counts

    def test_filter_reduces_actuals(self, db):
        text = db.explain_analyze(
            "SELECT COUNT(*) FROM orders WHERE o_totalprice > 9000",
            optimizer="mysql")
        lines = text.splitlines()
        scan_line = next(line for line in lines if "Table scan" in line)
        scanned = actual_rows(scan_line)[0]
        truth = sum(1 for o in db.storage.store("orders").scan()
                    if o[3] > 9000)
        assert scanned == truth

    def test_aggregate_emits_group_count(self, db):
        text = db.explain_analyze(
            "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
            optimizer="mysql")
        agg_line = next(line for line in text.splitlines()
                        if "aggregate" in line.lower())
        groups = len({o[2] for o in db.storage.store("orders").scan()})
        assert actual_rows(agg_line)[0] == groups

    def test_subplan_instrumented(self, db):
        text = db.explain_analyze("""
            SELECT SUM(l_price) FROM lineitem, part
            WHERE p_partkey = l_partkey AND p_brand = 'Brand#1'
              AND l_quantity < (SELECT AVG(l_quantity) FROM lineitem
                                WHERE l_partkey = p_partkey)""",
            optimizer="orca")
        # The materialised subquery's operators carry actuals too.
        materialize_at = text.find("Materialize")
        assert materialize_at != -1
        assert "actual rows=" in text[materialize_at:]

    def test_rebind_counts_shown(self, db):
        # Section 7, Orca change 3: rebind counts — the number of distinct
        # outer rows forcing re-materialisation — are tracked and shown.
        text = db.explain_analyze("""
            SELECT SUM(l_price) FROM lineitem, part
            WHERE p_partkey = l_partkey AND p_brand = 'Brand#1'
              AND l_quantity < (SELECT AVG(l_quantity) FROM lineitem
                                WHERE l_partkey = p_partkey)""",
            optimizer="orca")
        match = re.search(r"rebinds=(\d+)", text)
        assert match is not None
        rebinds = int(match.group(1))
        brand_parts = {p[0] for p in db.storage.store("part").scan()
                       if p[1] == "Brand#1"}
        # One rebind per distinct correlated p_partkey, at most.
        assert 1 <= rebinds <= len(brand_parts)

    def test_results_unaffected_by_instrumentation(self, db):
        sql = "SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000"
        plain = db.execute(sql, optimizer="mysql")
        db.explain_analyze(sql, optimizer="mysql")
        assert db.execute(sql, optimizer="mysql") == plain


class TestBatchCounts:
    """Per-node batch counts and the executor footer line."""

    def test_batch_counts_on_operators(self, db):
        text = db.explain_analyze(
            "SELECT o_status, COUNT(*) FROM orders GROUP BY o_status",
            optimizer="mysql", executor_mode="batch")
        scan_line = next(line for line in text.splitlines()
                         if "Table scan" in line)
        assert re.search(r"\(batches=\d+\)", scan_line)

    def test_footer_reports_batch_engine(self, db):
        text = db.explain_analyze("SELECT o_orderkey FROM orders",
                                  optimizer="mysql",
                                  executor_mode="batch")
        footer = text.split("Stage breakdown")[1]
        assert re.search(
            r"executor: batch \(batches=[1-9]\d*, "
            r"batch_rows=[1-9]\d*, compiled_exprs=\d+\)", footer)

    def test_footer_reports_row_engine(self, db):
        text = db.explain_analyze("SELECT o_orderkey FROM orders",
                                  optimizer="mysql",
                                  executor_mode="row")
        assert "executor: row" in text
        assert "batches=" not in text

    def test_actual_rows_match_across_modes(self, db):
        sql = """
            SELECT o_status, COUNT(*) FROM orders
            WHERE o_totalprice > 1000
            GROUP BY o_status ORDER BY o_status"""
        row_text = db.explain_analyze(sql, optimizer="mysql",
                                      executor_mode="row")
        batch_text = db.explain_analyze(sql, optimizer="mysql",
                                        executor_mode="batch")
        assert actual_rows(row_text) == actual_rows(batch_text)
