"""Tests for both cost models and the memo."""

import pytest

from repro.mysql_optimizer.cost import MySQLCostModel
from repro.orca.cost_model import OrcaCostModel
from repro.orca.memo import Memo, lowest_unit, units_of
from repro.orca.operators import PhysicalGet


class TestMySQLCostModel:
    def setup_method(self):
        self.model = MySQLCostModel()

    def test_scan_scales_with_rows(self):
        assert self.model.table_scan_cost(10_000) > \
            10 * self.model.table_scan_cost(100)

    def test_lookup_cheaper_than_scan_for_selective_access(self):
        # The bias that makes MySQL chase index NLJ plans: a one-row
        # lookup is far cheaper than a scan.
        assert self.model.index_lookup_cost(1) < \
            self.model.table_scan_cost(1000) / 10

    def test_rescan_cost_is_full_inner_cost(self):
        # The deliberate quirk: non-index join steps are charged a full
        # inner rescan per outer row (no hash-join credit).
        inner = self.model.table_scan_cost(5000)
        assert self.model.rescan_cost(inner) == inner

    def test_sort_cost_superlinear(self):
        assert self.model.sort_cost(10_000) > \
            10 * self.model.sort_cost(1_000)

    def test_sort_of_one_row_free(self):
        assert self.model.sort_cost(1) == 0.0


class TestOrcaCostModel:
    def setup_method(self):
        self.model = OrcaCostModel()

    def test_hash_join_beats_rescan_for_large_outer(self):
        inner_scan = self.model.table_scan_cost(5_000)
        hash_cost = self.model.hash_join_cost(
            build_rows=5_000, probe_rows=10_000, output_rows=10_000)
        rescan_cost = self.model.nljoin_rescan_cost(10_000, inner_scan)
        assert hash_cost < rescan_cost / 100

    def test_index_nlj_beats_hash_for_tiny_outer(self):
        lookup = self.model.index_lookup_cost(2)
        nlj = self.model.index_nljoin_cost(outer_rows=3,
                                           per_lookup_cost=lookup)
        hash_cost = self.model.hash_join_cost(
            build_rows=5_000, probe_rows=3, output_rows=6)
        assert nlj < hash_cost

    def test_orca_lookup_dearer_than_mysqls(self):
        # Section 9: Orca's "relatively high index lookup ... costs";
        # also matches the storage engine's simulated descent penalty.
        mysql = MySQLCostModel()
        assert self.model.index_lookup_cost(1) > \
            2 * mysql.index_lookup_cost(1)

    def test_crossover_exists(self):
        """There is an outer size below which index NLJ wins and above
        which the hash join wins — the Fig. 12 crossover."""
        lookup = self.model.index_lookup_cost(3)
        build_rows = 5_000

        def nlj(outer):
            return self.model.index_nljoin_cost(outer, lookup)

        def hash_join(outer):
            return self.model.hash_join_cost(build_rows, outer,
                                             outer * 3)

        assert nlj(10) < hash_join(10)
        assert nlj(100_000) > hash_join(100_000)

    def test_stream_vs_hash_agg_tradeoff(self):
        rows = 10_000
        few_groups = self.model.hash_agg_cost(rows, groups=5)
        sort_then_stream = self.model.sort_cost(rows) + \
            self.model.stream_agg_cost(rows)
        assert few_groups < sort_then_stream


class TestMemo:
    def test_group_identity_by_key(self):
        memo = Memo()
        a = memo.group(0b110)
        b = memo.group(0b100 | 0b010)
        assert a is b
        assert memo.group_count == 1

    def test_group_ids_sequential(self):
        memo = Memo()
        first = memo.group(0b10)
        second = memo.group(0b100)
        assert second.group_id == first.group_id + 1

    def test_offer_keeps_cheapest(self):
        memo = Memo()
        group = memo.group(0b10)
        expensive = PhysicalGet.__new__(PhysicalGet)
        expensive.cost = 0.0
        cheap = PhysicalGet.__new__(PhysicalGet)
        cheap.cost = 0.0
        assert group.offer(expensive, 10.0)
        assert group.offer(cheap, 5.0)
        assert not group.offer(expensive, 7.0)
        assert group.best_plan is cheap
        assert group.best_cost == 5.0

    def test_offer_stamps_group_id(self):
        memo = Memo()
        group = memo.group(0b1000)
        plan = PhysicalGet.__new__(PhysicalGet)
        plan.cost = 0.0
        group.offer(plan, 1.0)
        assert plan.group_id == group.group_id

    def test_alternatives_counted(self):
        memo = Memo()
        group = memo.group(0b10)
        for cost in (3.0, 2.0, 4.0):
            plan = PhysicalGet.__new__(PhysicalGet)
            plan.cost = 0.0
            group.offer(plan, cost)
        assert group.alternatives == 3
        assert memo.total_alternatives == 3

    def test_mask_helpers(self):
        assert units_of(0b1000010001) == [0, 4, 9]
        assert lowest_unit(0b1000010000) == 4
        assert units_of(0) == []
