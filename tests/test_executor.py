"""End-to-end execution semantics, cross-checked against brute force.

Every test runs through the full stack (parse/resolve/prepare/optimize/
refine/execute) under *both* optimizers and compares against a Python
reference evaluation, so join kinds, aggregation, ordering, and limits are
all validated behaviourally.
"""

import datetime

import pytest

from tests.conftest import brute_force


def run_both(db, sql):
    mysql_rows = db.execute(sql, optimizer="mysql")
    orca_rows = db.execute(sql, optimizer="orca")
    assert sorted(map(repr, mysql_rows)) == sorted(map(repr, orca_rows)), \
        "optimizers disagree"
    return mysql_rows


class TestScansAndFilters:
    def test_filtered_scan(self, mini_db):
        rows = run_both(mini_db,
                        "SELECT o_orderkey FROM orders "
                        "WHERE o_totalprice > 5000")
        expected = brute_force(mini_db, ["orders"],
                               lambda o: o[3] > 5000, lambda o: (o[0],))
        assert sorted(rows) == sorted(expected)

    def test_range_predicate_on_date(self, mini_db):
        cutoff = datetime.date(1995, 6, 1)
        rows = run_both(mini_db,
                        "SELECT o_orderkey FROM orders "
                        "WHERE o_orderdate >= DATE '1995-06-01'")
        expected = brute_force(mini_db, ["orders"],
                               lambda o: o[4] >= cutoff, lambda o: (o[0],))
        assert sorted(rows) == sorted(expected)

    def test_or_predicate(self, mini_db):
        rows = run_both(mini_db,
                        "SELECT o_orderkey FROM orders "
                        "WHERE o_status = 'O' OR o_totalprice < 500")
        expected = brute_force(
            mini_db, ["orders"],
            lambda o: o[2] == "O" or o[3] < 500, lambda o: (o[0],))
        assert sorted(rows) == sorted(expected)


class TestJoins:
    def test_inner_join(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_orderkey, l_linenumber FROM orders, lineitem
            WHERE o_orderkey = l_orderkey AND o_totalprice > 8000""")
        expected = brute_force(
            mini_db, ["orders", "lineitem"],
            lambda o, l: o[0] == l[0] and o[3] > 8000,
            lambda o, l: (o[0], l[2]))
        assert sorted(rows) == sorted(expected)

    def test_left_join_null_extension(self, mini_db):
        rows = run_both(mini_db, """
            SELECT c_custkey, o_orderkey FROM customer
            LEFT JOIN orders ON c_custkey = o_custkey
                 AND o_totalprice > 9500""")
        orders = list(mini_db.storage.store("orders").scan())
        expected = []
        for c in mini_db.storage.store("customer").scan():
            matches = [o for o in orders
                       if o[1] == c[0] and o[3] > 9500]
            if matches:
                expected.extend((c[0], o[0]) for o in matches)
            else:
                expected.append((c[0], None))
        assert sorted(rows, key=repr) == sorted(expected, key=repr)

    def test_semi_join_via_exists(self, mini_db):
        rows = run_both(mini_db, """
            SELECT c_custkey FROM customer
            WHERE EXISTS (SELECT * FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_totalprice > 9000)""")
        orders = list(mini_db.storage.store("orders").scan())
        expected = [(c[0],) for c in mini_db.storage.store("customer").scan()
                    if any(o[1] == c[0] and o[3] > 9000 for o in orders)]
        assert sorted(rows) == sorted(expected)

    def test_anti_join_via_not_exists(self, mini_db):
        rows = run_both(mini_db, """
            SELECT c_custkey FROM customer
            WHERE NOT EXISTS (SELECT * FROM orders
                              WHERE o_custkey = c_custkey)""")
        orders = list(mini_db.storage.store("orders").scan())
        expected = [(c[0],) for c in mini_db.storage.store("customer").scan()
                    if not any(o[1] == c[0] for o in orders)]
        assert sorted(rows) == sorted(expected)

    def test_three_way_join(self, mini_db):
        rows = run_both(mini_db, """
            SELECT c_custkey, l_partkey FROM customer, orders, lineitem
            WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
              AND c_segment = 'GOLD' AND l_quantity > 45""")
        expected = brute_force(
            mini_db, ["customer", "orders", "lineitem"],
            lambda c, o, l: (c[0] == o[1] and o[0] == l[0]
                             and c[1] is not None and c[2] == "GOLD"
                             and l[3] > 45),
            lambda c, o, l: (c[0], l[1]))
        assert sorted(rows) == sorted(expected)

    def test_cross_join(self, mini_db):
        rows = run_both(mini_db, """
            SELECT COUNT(*) FROM customer, part
            WHERE c_custkey <= 3 AND p_partkey <= 4""")
        assert rows == [(12,)]

    def test_non_equi_join(self, mini_db):
        rows = run_both(mini_db, """
            SELECT COUNT(*) FROM customer c1, customer c2
            WHERE c1.c_custkey < c2.c_custkey AND c1.c_custkey <= 5
              AND c2.c_custkey <= 5""")
        assert rows == [(10,)]


class TestAggregation:
    def test_group_by_count(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status, COUNT(*), SUM(o_totalprice)
            FROM orders GROUP BY o_status""")
        heap = list(mini_db.storage.store("orders").scan())
        expected = {}
        for o in heap:
            entry = expected.setdefault(o[2], [0, 0.0])
            entry[0] += 1
            entry[1] += o[3]
        assert {(r[0], r[1]) for r in rows} == \
            {(k, v[0]) for k, v in expected.items()}
        for r in rows:
            assert r[2] == pytest.approx(expected[r[0]][1])

    def test_scalar_aggregate_over_empty_input(self, mini_db):
        rows = run_both(mini_db, """
            SELECT COUNT(*), SUM(o_totalprice), MIN(o_orderkey)
            FROM orders WHERE o_totalprice < -99999""")
        assert rows == [(0, None, None)]

    def test_group_by_over_empty_input_no_rows(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status, COUNT(*) FROM orders
            WHERE o_totalprice < -99999 GROUP BY o_status""")
        assert rows == []

    def test_avg_min_max(self, mini_db):
        rows = run_both(mini_db, """
            SELECT AVG(o_totalprice), MIN(o_totalprice),
                   MAX(o_totalprice) FROM orders""")
        values = [o[3] for o in mini_db.storage.store("orders").scan()]
        assert rows[0][0] == pytest.approx(sum(values) / len(values))
        assert rows[0][1] == min(values)
        assert rows[0][2] == max(values)

    def test_count_distinct(self, mini_db):
        rows = run_both(mini_db,
                        "SELECT COUNT(DISTINCT o_custkey) FROM orders")
        distinct = {o[1] for o in mini_db.storage.store("orders").scan()}
        assert rows == [(len(distinct),)]

    def test_having(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_custkey, COUNT(*) AS cnt FROM orders
            GROUP BY o_custkey HAVING COUNT(*) >= 8""")
        counts = {}
        for o in mini_db.storage.store("orders").scan():
            counts[o[1]] = counts.get(o[1], 0) + 1
        expected = [(k, v) for k, v in counts.items() if v >= 8]
        assert sorted(rows) == sorted(expected)

    def test_stddev(self, mini_db):
        rows = run_both(mini_db, "SELECT STDDEV(o_totalprice) FROM orders")
        values = [o[3] for o in mini_db.storage.store("orders").scan()]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert rows[0][0] == pytest.approx(variance ** 0.5, rel=1e-6)

    def test_expression_on_aggregate(self, mini_db):
        rows = run_both(mini_db, """
            SELECT SUM(o_totalprice) / COUNT(*) FROM orders""")
        values = [o[3] for o in mini_db.storage.store("orders").scan()]
        assert rows[0][0] == pytest.approx(sum(values) / len(values))


class TestOrderingAndLimits:
    def test_order_by_desc_with_limit(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC LIMIT 5""")
        all_prices = sorted(
            (o[3] for o in mini_db.storage.store("orders").scan()),
            reverse=True)
        assert [r[1] for r in rows] == all_prices[:5]

    def test_order_by_multiple_keys(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status, o_orderkey FROM orders
            ORDER BY o_status, o_orderkey DESC LIMIT 10""")
        assert rows == sorted(rows, key=lambda r: (r[0], -r[1]))[:10]

    def test_offset(self, mini_db):
        all_rows = run_both(mini_db,
                            "SELECT o_orderkey FROM orders "
                            "ORDER BY o_orderkey")
        page = run_both(mini_db,
                        "SELECT o_orderkey FROM orders "
                        "ORDER BY o_orderkey LIMIT 5 OFFSET 10")
        assert page == all_rows[10:15]

    def test_nulls_sort_first_ascending(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_comment FROM orders ORDER BY o_comment LIMIT 3""")
        assert rows[0][0] is None

    def test_distinct(self, mini_db):
        rows = run_both(mini_db, "SELECT DISTINCT o_status FROM orders")
        assert len(rows) == len({o[2] for o in
                                 list(mini_db.storage.store("orders").scan())})


class TestSubqueriesAndSetOps:
    def test_scalar_subquery_in_where(self, mini_db):
        rows = run_both(mini_db, """
            SELECT COUNT(*) FROM orders
            WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)""")
        values = [o[3] for o in mini_db.storage.store("orders").scan()]
        avg = sum(values) / len(values)
        assert rows == [(sum(1 for v in values if v > avg),)]

    def test_correlated_scalar_subquery(self, mini_db):
        rows = run_both(mini_db, """
            SELECT COUNT(*) FROM lineitem, part
            WHERE p_partkey = l_partkey AND p_brand = 'Brand#1'
              AND l_quantity > (SELECT AVG(l_quantity) FROM lineitem
                                WHERE l_partkey = p_partkey)""")
        lines = list(mini_db.storage.store("lineitem").scan())
        parts = {p[0] for p in mini_db.storage.store("part").scan()
                 if p[1] == "Brand#1"}
        expected = 0
        for line in lines:
            if line[1] not in parts:
                continue
            peers = [l[3] for l in lines if l[1] == line[1]]
            if line[3] > sum(peers) / len(peers):
                expected += 1
        assert rows == [(expected,)]

    def test_union_all(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_orderkey FROM orders WHERE o_orderkey <= 3
            UNION ALL
            SELECT o_orderkey FROM orders WHERE o_orderkey <= 2""")
        assert sorted(rows) == [(1,), (1,), (2,), (2,), (3,)]

    def test_union_distinct(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_orderkey FROM orders WHERE o_orderkey <= 3
            UNION
            SELECT o_orderkey FROM orders WHERE o_orderkey <= 2""")
        assert sorted(rows) == [(1,), (2,), (3,)]

    def test_cte_shared_across_consumers(self, mini_db):
        rows = run_both(mini_db, """
            WITH big AS (SELECT o_custkey AS ck, o_totalprice AS price
                         FROM orders WHERE o_totalprice > 8000)
            SELECT b1.ck FROM big b1, big b2
            WHERE b1.ck = b2.ck AND b1.price < b2.price""")
        big = [(o[1], o[3]) for o in mini_db.storage.store("orders").scan()
               if o[3] > 8000]
        expected = [(a[0],) for a in big for b in big
                    if a[0] == b[0] and a[1] < b[1]]
        assert sorted(rows) == sorted(expected)

    def test_derived_table_execution(self, mini_db):
        rows = run_both(mini_db, """
            SELECT spend.ck, spend.total FROM
            (SELECT o_custkey AS ck, SUM(o_totalprice) AS total
             FROM orders GROUP BY o_custkey) AS spend
            WHERE spend.total > 20000""")
        totals = {}
        for o in mini_db.storage.store("orders").scan():
            totals[o[1]] = totals.get(o[1], 0.0) + o[3]
        expected = [(k, pytest.approx(v)) for k, v in totals.items()
                    if v > 20000]
        assert sorted(r[0] for r in rows) == \
            sorted(k for k, v in totals.items() if v > 20000)


class TestWindowFunctions:
    def test_rank_per_partition(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status, o_orderkey,
                   RANK() OVER (PARTITION BY o_status
                                ORDER BY o_totalprice DESC) AS rk
            FROM orders""")
        heap = list(mini_db.storage.store("orders").scan())
        for status, orderkey, rank in rows:
            prices = sorted((o[3] for o in heap if o[2] == status),
                            reverse=True)
            row_price = next(o[3] for o in heap if o[0] == orderkey)
            assert rank == prices.index(row_price) + 1

    def test_row_number_is_dense(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status,
                   ROW_NUMBER() OVER (PARTITION BY o_status
                                      ORDER BY o_orderkey) AS rn
            FROM orders""")
        per_status = {}
        for status, rn in sorted(rows):
            per_status.setdefault(status, []).append(rn)
        for numbers in per_status.values():
            assert sorted(numbers) == list(range(1, len(numbers) + 1))

    def test_sum_over_whole_partition(self, mini_db):
        rows = run_both(mini_db, """
            SELECT o_status, SUM(o_totalprice) OVER
                   (PARTITION BY o_status) AS total
            FROM orders""")
        totals = {}
        for o in mini_db.storage.store("orders").scan():
            totals[o[2]] = totals.get(o[2], 0.0) + o[3]
        for status, total in rows:
            assert total == pytest.approx(totals[status])
