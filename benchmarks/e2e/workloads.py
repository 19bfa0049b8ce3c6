"""The five workloads: data, database configuration, statement streams.

Only the public facade is imported here (``repro.workloads.*``
generators and schemas); :mod:`benchmarks.e2e.runner` drives the
statements through ``Database``.  Data always comes from the
generators' fixed seeds; ``--seed`` drives only statement order,
literals and DML keys, so every run of a workload sees the same tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.workloads.joins import make_topology
from repro.workloads.tpcds.datagen import generate_tpcds
from repro.workloads.tpcds.queries import TPCDS_QUERIES
from repro.workloads.tpcds.schema import build_tpcds_schema
from repro.workloads.tpch.datagen import generate_tpch
from repro.workloads.tpch.queries import tpch_query
from repro.workloads.tpch.schema import build_tpch_schema

from benchmarks.e2e.checks import ChurnShadow, tpch_q1, tpch_q6

#: ``Op.expect`` markers (a list of rows means "exactly these rows").
#: STABLE: the answer never changes during the run — verified against
#: the reference on the warm-up stream, and every timed execution must
#: reproduce those verified rows.  REFERENCE: the answer moves with the
#: DML around it — verified against the reference on the warm-up stream
#: only; a timed execution must merely succeed.
STABLE = "stable"
REFERENCE = "reference"


class Op(NamedTuple):
    """One statement of a stream."""

    key: str          # identity for geomean_ms (statement or class)
    kind: str         # "run" | "compile" | "analyze"
    db: int           # index into the workload's databases
    sql: str
    expect: object    # list of rows | STABLE | REFERENCE | None


#: One database's tables: ``[(TableSchema, rows), ...]`` in load order.
Tables = List[tuple]


class Streams:
    """Source of a workload's statement streams (one per call)."""

    def next_stream(self) -> List[Op]:
        raise NotImplementedError

    def final_ops(self) -> List[Op]:
        """Statements checked once after the timed window."""
        return []


@dataclass
class Workload:
    name: str
    why: str
    #: Human-readable size line for the report header.
    size: str
    scale: float
    quick_scale: float
    #: ``scale -> [Tables per database]``; untimed.
    generate: Callable[[float], List[Tables]]
    #: ``(seed, [Tables]) -> Streams``.
    streams: Callable[[int, List[Tables]], Streams]
    #: ``DatabaseConfig`` keyword arguments (default config when empty).
    config: Dict[str, object] = field(default_factory=dict)
    #: Extra ``Database.run`` keyword arguments for "run" ops.
    run_kwargs: Dict[str, object] = field(default_factory=dict)
    #: ``[Tables] -> {op key: rows}`` computed without the engine.
    independent: Optional[Callable[[List[Tables]], Dict[str, list]]] = None


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


def _with_schemas(schemas: Sequence, rows: Dict[str, list]) -> Tables:
    return [(schema, rows[schema.name]) for schema in schemas]


# -- TPC-DS: adhoc_tpcds and compile_mix --------------------------------------

def _tpcds_tables(scale: float) -> Tables:
    return _with_schemas(build_tpcds_schema(), generate_tpcds(scale, seed=7))


class _ShuffledStreams(Streams):
    """The same statements every stream, in a freshly seeded order."""

    def __init__(self, seed: int, name: str, ops: List[Op]) -> None:
        self.seed, self.name, self.ops, self.index = seed, name, ops, 0

    def next_stream(self) -> List[Op]:
        stream = list(self.ops)
        _rng(self.seed, self.name, self.index).shuffle(stream)
        self.index += 1
        return stream


def _adhoc_streams(seed: int, specs: List[Tables]) -> Streams:
    ops = [Op(f"ds{number}", "run", 0, sql, STABLE)
           for number, sql in sorted(TPCDS_QUERIES.items())]
    return _ShuffledStreams(seed, "adhoc_tpcds", ops)


#: (kind, relations) of the join topologies in ``compile_mix``: one per
#: size class of the adaptive join-order selector (DP up to 12
#: relations, linearized DP up to 25, GOO beyond) and graph shape.
TOPOLOGIES = (("chain", 10), ("chain", 20), ("chain", 30), ("star", 10),
              ("star", 20), ("snowflake", 16), ("clique", 10))


def _compile_tables(scale: float) -> List[Tables]:
    joins: Tables = []
    for kind, relations in TOPOLOGIES:
        topology = make_topology(kind, relations, seed=1234, scale=scale)
        joins.extend(_with_schemas(topology.tables, topology.rows))
    return [_tpcds_tables(scale), joins]


def _compile_streams(seed: int, specs: List[Tables]) -> Streams:
    ops = [Op(f"ds{number}", "compile", 0, sql, None)
           for number, sql in sorted(TPCDS_QUERIES.items())]
    # The query text does not depend on the data scale.
    ops += [Op(f"{kind}{relations}", "compile", 1,
               make_topology(kind, relations, seed=1234).query, None)
            for kind, relations in TOPOLOGIES]
    return _ShuffledStreams(seed, "compile_mix", ops)


# -- TPC-H: repeat_tpch, parallel_tpch, htap_churn ----------------------------

#: Q1/Q6/Q12/Q14 are scan-heavy, Q3/Q5/Q10/Q13 join-heavy.  Q19 is
#: deliberately absent (see README: it alone would be >90 % of a run).
REPEAT_QUERIES = (1, 6, 12, 14, 3, 5, 10, 13)
CHURN_ANALYTICS = (3, 5, 10, 12)


def _tpch_tables(scale: float) -> List[Tables]:
    return [_with_schemas(build_tpch_schema(), generate_tpch(scale, seed=42))]


def _columns(tables: Tables) -> Dict[str, Dict[str, int]]:
    return {schema.name: {name: schema.column_position(name)
                          for name in schema.column_names}
            for schema, __ in tables}


def _rows(tables: Tables) -> Dict[str, list]:
    return {schema.name: rows for schema, rows in tables}


def _repeat_streams(seed: int, specs: List[Tables]) -> Streams:
    # Shared by repeat_tpch and parallel_tpch on purpose: the same seed
    # gives both the same statement order.  Shuffled per stream rather
    # than repeated in one fixed order: in a fixed order the
    # interpreter's periodic full garbage collection lands in the same
    # statement every time and moves that one median by ~30 ms, and
    # which statement it is depends on the order.  The plan-cache
    # working set is the same eight plans either way.
    ops = [Op(f"q{number}", "run", 0, tpch_query(number), STABLE)
           for number in REPEAT_QUERIES]
    return _ShuffledStreams(seed, "repeat_tpch", ops)


def _tpch_independent(specs: List[Tables]) -> Dict[str, list]:
    lineitem = _rows(specs[0])["lineitem"]
    col = _columns(specs[0])["lineitem"]
    return {"q1": tpch_q1(lineitem, col), "q6": tpch_q6(lineitem, col)}


#: Operations per htap_churn block, by class.  The three point-read
#: shapes share the ``read`` class.
CHURN_BLOCK = (("read_order", 20), ("read_lines", 20), ("read_join", 20),
               ("insert", 9), ("update", 8), ("delete", 8),
               ("analytic", 14), ("analyze", 1))


class ChurnStreams(Streams):
    """Seeded blocks of 100 mixed operations over TPC-H, each with the
    answer the shadow model predicts."""

    def __init__(self, seed: int, specs: List[Tables]) -> None:
        self.seed = seed
        self.index = 0
        self.analytic = 0
        self.shadow = ChurnShadow(_rows(specs[0]), _columns(specs[0]))

    def next_stream(self) -> List[Op]:
        rng = _rng(self.seed, "htap_churn", self.index)
        self.index += 1
        kinds = [kind for kind, count in CHURN_BLOCK for __ in range(count)]
        rng.shuffle(kinds)
        return [self._op(kind, rng) for kind in kinds]

    def _op(self, kind: str, rng: random.Random) -> Op:
        shadow = self.shadow
        if kind == "read_order":
            key = rng.choice(shadow.order_keys)
            return Op("read", "run", 0,
                      "SELECT o_orderkey, o_custkey, o_totalprice, "
                      f"o_orderstatus FROM orders WHERE o_orderkey = {key}",
                      shadow.read_order(key))
        if kind == "read_lines":
            key = rng.choice(shadow.order_keys)
            return Op("read", "run", 0,
                      "SELECT l_linenumber, l_quantity, l_extendedprice "
                      f"FROM lineitem WHERE l_orderkey = {key}",
                      shadow.read_lines(key))
        if kind == "read_join":
            key = rng.choice(shadow.order_keys)
            return Op("read", "run", 0,
                      "SELECT o_orderkey, c_name, c_nationkey "
                      "FROM orders, customer WHERE o_custkey = c_custkey "
                      f"AND o_orderkey = {key}",
                      shadow.read_order_customer(key))
        if kind == "insert":
            cust = rng.choice(shadow.customer_keys)
            price = round(rng.uniform(1000.0, 300000.0), 2)
            key = shadow.insert_order(cust, price, "O")
            return Op("insert", "run", 0,
                      f"INSERT INTO orders VALUES ({key}, {cust}, 'O', "
                      f"{price}, '1996-03-13', '3-MEDIUM', "
                      "'Clerk#000000007', 0, 'e2e churn')", [(1,)])
        if kind == "update":
            key = rng.choice(shadow.order_keys)
            price = round(rng.uniform(1000.0, 300000.0), 2)
            return Op("update", "run", 0,
                      f"UPDATE orders SET o_totalprice = {price} "
                      f"WHERE o_orderkey = {key}",
                      shadow.update_price(key, price))
        if kind == "delete":
            key, affected = shadow.delete_lines(
                rng.randrange(len(shadow.keys_with_lines)))
            return Op("delete", "run", 0,
                      f"DELETE FROM lineitem WHERE l_orderkey = {key}",
                      affected)
        if kind == "analytic":
            number = CHURN_ANALYTICS[self.analytic % len(CHURN_ANALYTICS)]
            self.analytic += 1
            return Op("analytic", "run", 0, tpch_query(number), REFERENCE)
        return Op("analyze", "analyze", 0, "ANALYZE", None)

    def final_ops(self) -> List[Op]:
        return [Op("final", "run", 0, "SELECT COUNT(*) FROM orders",
                   [(len(self.shadow.orders),)]),
                Op("final", "run", 0, "SELECT COUNT(*) FROM lineitem",
                   [(self.shadow.line_count,)])]


# -- registry ----------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="adhoc_tpcds",
        why="Ad-hoc analytics (paper Fig. 11): 99 TPC-DS statements, plan "
            "cache bypassed, so each pays parse, route, optimize, refine "
            "and execute - every layer contributes.",
        size="TPC-DS scale 1.0 (8k store_sales); 99 statements per "
             "stream, shuffled; run(sql, use_plan_cache=False)",
        scale=1.0, quick_scale=0.2,
        generate=lambda scale: [_tpcds_tables(scale)],
        streams=_adhoc_streams,
        run_kwargs={"use_plan_cache": False}),
    Workload(
        name="compile_mix",
        why="Compile overhead (paper Table 1): compile_only over TPC-DS "
            "plus 10-30 relation join graphs; optimizer layers do all "
            "the work, executor and storage none.",
        size="TPC-DS scale 1.0 + 7 join topologies in a second "
             "Database; 106 compile_only calls per stream, shuffled",
        scale=1.0, quick_scale=0.2,
        generate=_compile_tables,
        streams=_compile_streams),
    Workload(
        name="repeat_tpch",
        why="Dashboard traffic: 8 TPC-H statements repeated with the plan "
            "cache on, one worker; compile is ~0 after warm-up, executor "
            "and storage do the work, optimizers are bypassed.",
        size="TPC-H scale 4 (48k lineitem); 8 statements per stream, "
             "shuffled; working set of 8 plans fits the 128-entry "
             "plan cache",
        scale=4.0, quick_scale=0.25,
        generate=_tpch_tables,
        streams=_repeat_streams,
        config={"executor_workers": 1},
        independent=_tpch_independent),
    Workload(
        name="parallel_tpch",
        why="Same data and statements as repeat_tpch with 2 fork workers: "
            "morsel fan-out, worker pipes and merge; a scan gain that "
            "costs the parallel path shows as the two diverging.",
        size="TPC-H scale 4; same streams as repeat_tpch; "
             "executor_workers=2, fork backend",
        scale=4.0, quick_scale=0.25,
        generate=_tpch_tables,
        streams=_repeat_streams,
        config={"executor_workers": 2},
        independent=_tpch_independent),
    Workload(
        name="htap_churn",
        why="Writes beside reads: point reads with fresh literals, "
            "single-row INSERT/UPDATE/DELETE, ANALYZE and cached analytics "
            "on one store; plans are invalidated, the cache overflows.",
        size="TPC-H scale 2 (24k lineitem); blocks of 100 ops: 60 point "
             "reads, 9 INSERT, 8 UPDATE, 8 DELETE, 14 analytic, 1 "
             "ANALYZE; thousands of distinct literals against a "
             "128-entry plan cache",
        scale=2.0, quick_scale=0.25,
        generate=_tpch_tables,
        streams=ChurnStreams),
)}
