"""Output oracles that share no code with the engine.

Everything here works on plain Python rows: the generated table rows
going in and the result rows coming out.  Nothing is imported from
``repro`` — a bug in the engine cannot hide in its own checker.
"""

from __future__ import annotations

import datetime
import math
from typing import Dict, List, Sequence


def _sort_key(row: Sequence) -> tuple:
    # (is-not-null, value) keeps NULLs comparable; floats are rounded so
    # last-bit differences between plans do not reorder equal rows.
    return tuple((value is not None,
                  round(value, 3) if isinstance(value, float) else value)
                 for value in row)


def rows_match(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    """Order-insensitive comparison; floats within 1e-6 (rel and abs).

    Different plans sum floats in different orders, so aggregates may
    differ in the last bits — anything beyond that is a wrong answer.
    """
    if len(got) != len(want):
        return False
    try:
        got_sorted = sorted(got, key=_sort_key)
        want_sorted = sorted(want, key=_sort_key)
    except TypeError:  # a column mixing types that do not order
        got_sorted = sorted(got, key=repr)
        want_sorted = sorted(want, key=repr)
    for row_got, row_want in zip(got_sorted, want_sorted):
        if len(row_got) != len(row_want):
            return False
        for a, b in zip(row_got, row_want):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(
                        a, b, rel_tol=1e-6, abs_tol=1e-6):
                    return False
            elif a != b:
                return False
    return True


# -- TPC-H Q1 / Q6 straight from the generated lineitem rows -------------------

def tpch_q1(lineitem: Sequence[Sequence], col: Dict[str, int]) -> List[tuple]:
    """TPC-H Q1 (pricing summary) as a plain loop over ``lineitem``."""
    cutoff = datetime.date(1998, 12, 1) - datetime.timedelta(days=90)
    qty, price, disc, tax = (col["l_quantity"], col["l_extendedprice"],
                             col["l_discount"], col["l_tax"])
    flag, status, ship = (col["l_returnflag"], col["l_linestatus"],
                          col["l_shipdate"])
    groups: Dict[tuple, List[float]] = {}
    for row in lineitem:
        if row[ship] > cutoff:
            continue
        acc = groups.setdefault((row[flag], row[status]), [0.0] * 6)
        acc[0] += row[qty]
        acc[1] += row[price]
        acc[2] += row[price] * (1 - row[disc])
        acc[3] += row[price] * (1 - row[disc]) * (1 + row[tax])
        acc[4] += row[disc]
        acc[5] += 1
    return [(key[0], key[1], acc[0], acc[1], acc[2], acc[3],
             acc[0] / acc[5], acc[1] / acc[5], acc[4] / acc[5], int(acc[5]))
            for key, acc in sorted(groups.items())]


def tpch_q6(lineitem: Sequence[Sequence], col: Dict[str, int]) -> List[tuple]:
    """TPC-H Q6 (forecast revenue change) as a plain loop."""
    low, high = datetime.date(1994, 1, 1), datetime.date(1995, 1, 1)
    qty, price, disc, ship = (col["l_quantity"], col["l_extendedprice"],
                              col["l_discount"], col["l_shipdate"])
    revenue = None
    for row in lineitem:
        if low <= row[ship] < high and 0.05 <= row[disc] <= 0.07 \
                and row[qty] < 24:
            revenue = (revenue or 0.0) + row[price] * row[disc]
    return [(revenue,)]


# -- shadow model for htap_churn ----------------------------------------------

class ChurnShadow:
    """What ``orders``/``lineitem``/``customer`` must contain after every
    statement of ``htap_churn``, kept in dictionaries.

    The workload generator applies each DML here *as it emits it*, so
    every point read and every affected-row count has a predicted value
    before the engine sees the statement.
    """

    def __init__(self, tables: Dict[str, Sequence[Sequence]],
                 col: Dict[str, Dict[str, int]]) -> None:
        o, l, c = col["orders"], col["lineitem"], col["customer"]
        #: o_orderkey -> [o_custkey, o_totalprice, o_orderstatus]
        self.orders: Dict[int, list] = {
            row[o["o_orderkey"]]: [row[o["o_custkey"]],
                                   row[o["o_totalprice"]],
                                   row[o["o_orderstatus"]]]
            for row in tables["orders"]}
        #: l_orderkey -> [(l_linenumber, l_quantity, l_extendedprice)]
        self.lines: Dict[int, List[tuple]] = {}
        for row in tables["lineitem"]:
            self.lines.setdefault(row[l["l_orderkey"]], []).append(
                (row[l["l_linenumber"]], row[l["l_quantity"]],
                 row[l["l_extendedprice"]]))
        #: c_custkey -> (c_name, c_nationkey)
        self.customers: Dict[int, tuple] = {
            row[c["c_custkey"]]: (row[c["c_name"]], row[c["c_nationkey"]])
            for row in tables["customer"]}
        self.line_count = len(tables["lineitem"])
        #: Sampling pools: every order key, and the keys that still
        #: have lineitems (DELETE draws from the second).
        self.order_keys = sorted(self.orders)
        self.keys_with_lines = sorted(self.lines)
        self.customer_keys = sorted(self.customers)
        self.next_order_key = self.order_keys[-1] + 1

    # Each method returns the rows the engine must answer with.

    def read_order(self, key: int) -> List[tuple]:
        cust, price, status = self.orders[key]
        return [(key, cust, price, status)]

    def read_lines(self, key: int) -> List[tuple]:
        return list(self.lines.get(key, ()))

    def read_order_customer(self, key: int) -> List[tuple]:
        name, nation = self.customers[self.orders[key][0]]
        return [(key, name, nation)]

    def insert_order(self, cust: int, price: float, status: str) -> int:
        key = self.next_order_key
        self.next_order_key += 1
        self.orders[key] = [cust, price, status]
        self.order_keys.append(key)
        return key

    def update_price(self, key: int, price: float) -> List[tuple]:
        self.orders[key][1] = price
        return [(1,)]

    def delete_lines(self, pool_index: int) -> tuple:
        """Drop every lineitem of the key at ``pool_index`` of
        ``keys_with_lines``; returns ``(key, [(affected,)])``."""
        pool = self.keys_with_lines
        pool[pool_index], pool[-1] = pool[-1], pool[pool_index]
        key = pool.pop()
        affected = len(self.lines.pop(key))
        self.line_count -= affected
        return key, [(affected,)]
