"""TPC-H-like schema, data generator, and the paper's query subset.

The paper evaluates TPC-H scale factor 10 (Table 4: simple queries Q6 and
Q14; complex queries Q4, Q8, Q9, Q19, Q22; plus Q13 and Q17 in Figure 1),
with some queries modified to single-attribute group-bys because the
adaptively parallelized group-by supports one grouping attribute -- we
apply the same modifications.  Monetary values are stored as integer
cents and discounts as integer percents (MonetDB stores decimals as
scaled integers too), so query constants differ slightly from the spec;
the selectivities match.

Rows are generated at 1/1000 of real scale; pair the dataset with
``data_scale=1000`` (the default of :meth:`TpchDataset.sim_config`) so a
scale-factor-10 lineitem *times* like its real 60M-row self.

Substitutions from the official benchmark are documented in DESIGN.md;
one worth noting here: Q4's correlated EXISTS on
``l_commitdate < l_receiptdate`` uses a generated ``l_late`` flag column
because the SQL subset has no column-to-column comparison -- the
selectivity (~63%) matches the spec's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import MachineSpec, SimulationConfig, two_socket_machine
from ..errors import WorkloadError
from ..operators.aggregate import Aggregate
from ..operators.calc import Calc
from ..operators.groupby import GroupAggregate
from ..operators.join import SemiJoin
from ..operators.literal import Literal
from ..operators.project import Fetch, HeadsOf
from ..operators.scan import Scan
from ..operators.select import LikePredicate, RangePredicate, Select, EqualsPredicate
from ..plan.graph import Plan, PlanNode
from ..sql.planner import plan_sql
from ..storage import DATE, LNG, STR, Catalog, Table, date_value
from .generator import choice_strings, sequential_keys, uniform_dates, uniform_ints

#: Real rows per scale-factor unit, divided by :data:`TPCH_SHRINK`.
TPCH_SHRINK = 1000
_ROWS_PER_SF = {
    "lineitem": 6_000_000,
    "orders": 1_500_000,
    "part": 200_000,
    "customer": 150_000,
    "supplier": 10_000,
}

_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
_CONTAINERS = [
    f"{size} {kind}"
    for size in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for kind in ("CASE", "BOX", "BAG", "PKG", "PACK")
]
_TYPES = [
    f"{pre} {mid} {post}"
    for pre in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for mid in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for post in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1]

#: Query classes from Table 4 of the paper (Q13/Q17 appear in Figure 1).
SIMPLE_QUERIES = ("q6", "q14")
COMPLEX_QUERIES = ("q4", "q8", "q9", "q19", "q22")
ALL_QUERIES = ("q4", "q6", "q8", "q9", "q13", "q14", "q17", "q19", "q22")


@dataclass
class TpchDataset:
    """Generated TPC-H tables plus plan factories for the query subset."""

    scale_factor: int = 10
    seed: int = 22
    catalog: Catalog = field(init=False)

    def __post_init__(self) -> None:
        if self.scale_factor < 1:
            raise WorkloadError("scale_factor must be >= 1")
        self.catalog = Catalog("tpch")
        self._generate()

    # ------------------------------------------------------------------
    def rows(self, table: str) -> int:
        """Generated (scaled-down) row count for ``table``."""
        return max(8, (_ROWS_PER_SF[table] * self.scale_factor) // TPCH_SHRINK)

    def sim_config(self, machine: MachineSpec | None = None, **kwargs) -> SimulationConfig:
        """A simulation config whose ``data_scale`` restores real scale."""
        return SimulationConfig(
            machine=machine if machine is not None else two_socket_machine(),
            data_scale=float(TPCH_SHRINK),
            **kwargs,
        )

    def _generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n_li = self.rows("lineitem")
        n_ord = self.rows("orders")
        n_part = self.rows("part")
        n_cust = self.rows("customer")
        n_supp = self.rows("supplier")
        start = date_value("1992-01-01")
        end = date_value("1998-12-01")

        self.catalog.add(Table.from_arrays("nation", {
            "n_nationkey": (LNG, sequential_keys(25)),
            "n_name": (STR, _NATIONS),
            "n_regionkey": (LNG, np.asarray(_NATION_REGION, dtype=np.int64)),
        }))
        self.catalog.add(Table.from_arrays("region", {
            "r_regionkey": (LNG, sequential_keys(5)),
            "r_name": (STR, _REGIONS),
        }))
        self.catalog.add(Table.from_arrays("supplier", {
            "s_suppkey": (LNG, sequential_keys(n_supp)),
            "s_nationkey": (LNG, uniform_ints(rng, n_supp, 0, 25)),
            "s_acctbal": (LNG, uniform_ints(rng, n_supp, -99_999, 1_000_000)),
        }))
        self.catalog.add(Table.from_arrays("customer", {
            "c_custkey": (LNG, sequential_keys(n_cust)),
            "c_nationkey": (LNG, uniform_ints(rng, n_cust, 0, 25)),
            "c_acctbal": (LNG, uniform_ints(rng, n_cust, -99_999, 1_000_000)),
            "c_mktsegment": (STR, choice_strings(
                rng, n_cust,
                ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"],
            )),
        }))
        self.catalog.add(Table.from_arrays("part", {
            "p_partkey": (LNG, sequential_keys(n_part)),
            "p_type": (STR, choice_strings(rng, n_part, _TYPES)),
            "p_brand": (STR, choice_strings(rng, n_part, _BRANDS)),
            "p_container": (STR, choice_strings(rng, n_part, _CONTAINERS)),
            "p_size": (LNG, uniform_ints(rng, n_part, 1, 51)),
        }))
        order_dates = uniform_dates(rng, n_ord, start, end)
        self.catalog.add(Table.from_arrays("orders", {
            "o_orderkey": (LNG, sequential_keys(n_ord)),
            # Two thirds of customers place orders; the rest never do
            # (the population Q22 looks for).
            "o_custkey": (LNG, uniform_ints(rng, n_ord, 0, max(1, (2 * n_cust) // 3))),
            "o_orderdate": (DATE, order_dates),
            "o_orderpriority": (STR, choice_strings(rng, n_ord, _PRIORITIES)),
        }))
        l_orderkey = uniform_ints(rng, n_li, 0, n_ord)
        ship_lag = uniform_ints(rng, n_li, 1, 122)
        self.catalog.add(Table.from_arrays("lineitem", {
            "l_orderkey": (LNG, l_orderkey),
            "l_partkey": (LNG, uniform_ints(rng, n_li, 0, n_part)),
            "l_suppkey": (LNG, uniform_ints(rng, n_li, 0, n_supp)),
            "l_quantity": (LNG, uniform_ints(rng, n_li, 1, 51)),
            # Cents; uniform like dbgen's retail-price formula in spirit.
            "l_extendedprice": (LNG, uniform_ints(rng, n_li, 90_000, 10_500_000)),
            "l_discount": (LNG, uniform_ints(rng, n_li, 0, 11)),  # percent
            "l_tax": (LNG, uniform_ints(rng, n_li, 0, 9)),
            "l_shipdate": (DATE, order_dates[l_orderkey] + ship_lag),
            # l_commitdate < l_receiptdate holds for ~63% of rows in spec
            # data; the flag column stands in for the comparison.
            "l_late": (LNG, (rng.random(n_li) < 0.63).astype(np.int64)),
        }))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_names(self) -> tuple[str, ...]:
        """Names accepted by :meth:`plan`."""
        return ALL_QUERIES

    def plan(self, name: str) -> Plan:
        """A fresh serial plan for query ``name`` (e.g. ``"q6"``)."""
        try:
            factory = getattr(self, f"_plan_{name}")
        except AttributeError:
            raise WorkloadError(
                f"unknown TPC-H query {name!r}; available: {ALL_QUERIES}"
            ) from None
        return factory()

    def _sql(self, text: str) -> Plan:
        return plan_sql(text, self.catalog)

    def _plan_q4(self) -> Plan:
        return self._sql(
            """
            SELECT o_orderpriority, COUNT(*) FROM orders
            WHERE o_orderdate >= DATE '1993-07-01'
              AND o_orderdate < DATE '1993-10-01'
              AND o_orderkey IN (
                    SELECT l_orderkey FROM lineitem WHERE l_late = 1)
            GROUP BY o_orderpriority ORDER BY o_orderpriority
            """
        )

    def _plan_q6(self) -> Plan:
        return self._sql(
            """
            SELECT SUM(l_extendedprice * l_discount) FROM lineitem
            WHERE l_shipdate >= DATE '1994-01-01'
              AND l_shipdate < DATE '1995-01-01'
              AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24
            """
        )

    def _plan_q8(self) -> Plan:
        """National market share (modified, hand-built plan).

        numerator   = revenue of BRAZIL suppliers
        denominator = revenue of all suppliers
        over lineitem filtered to 1995-1996 orders of ECONOMY ANODIZED
        STEEL parts; output is ``1000 * numerator / denominator``.
        Hand-built because the SQL subset has no CASE expression.
        """
        cat = self.catalog
        plan = Plan()

        def scan(table: str, column: str) -> PlanNode:
            return plan.add(Scan(cat.column(table, column)), label=f"{table}.{column}")

        # Filter: part type.
        p_cands = plan.add(
            Select(EqualsPredicate("ECONOMY ANODIZED STEEL")), [scan("part", "p_type")]
        )
        p_keys = plan.add(Fetch(), [p_cands, scan("part", "p_partkey")])
        li_partkey = scan("lineitem", "l_partkey")
        semi_part = plan.add(SemiJoin(), [li_partkey, p_keys])
        cands = plan.add(HeadsOf(), [semi_part])
        # Filter: order date window.
        o_cands = plan.add(
            Select(RangePredicate(date_value("1995-01-01"), date_value("1996-12-31"))),
            [scan("orders", "o_orderdate")],
        )
        o_keys = plan.add(Fetch(), [o_cands, scan("orders", "o_orderkey")])
        l_orderkey = plan.add(Fetch(), [cands, scan("lineitem", "l_orderkey")])
        semi_ord = plan.add(SemiJoin(), [l_orderkey, o_keys])
        cands = plan.add(HeadsOf(), [semi_ord])

        def revenue(source_cands: PlanNode) -> PlanNode:
            price = plan.add(Fetch(), [source_cands, scan("lineitem", "l_extendedprice")])
            disc = plan.add(Fetch(), [source_cands, scan("lineitem", "l_discount")])
            hundred = plan.add(Literal(100))
            rebate = plan.add(Calc("-"), [hundred, disc])
            volume = plan.add(Calc("*"), [price, rebate])
            return plan.add(Aggregate("sum"), [volume])

        denominator = revenue(cands)
        # Numerator: restrict to BRAZIL suppliers.
        n_cands = plan.add(
            Select(EqualsPredicate("BRAZIL")), [scan("nation", "n_name")]
        )
        n_keys = plan.add(Fetch(), [n_cands, scan("nation", "n_nationkey")])
        s_natkey = scan("supplier", "s_nationkey")
        semi_nat = plan.add(SemiJoin(), [s_natkey, n_keys])
        s_cands = plan.add(HeadsOf(), [semi_nat])
        s_keys = plan.add(Fetch(), [s_cands, scan("supplier", "s_suppkey")])
        l_suppkey = plan.add(Fetch(), [cands, scan("lineitem", "l_suppkey")])
        semi_supp = plan.add(SemiJoin(), [l_suppkey, s_keys])
        brazil_cands = plan.add(HeadsOf(), [semi_supp])
        numerator = revenue(brazil_cands)

        thousand = plan.add(Literal(1000))
        scaled = plan.add(Calc("*"), [thousand, numerator])
        share = plan.add(Calc("/"), [scaled, denominator])
        plan.set_outputs([share])
        return plan

    def _plan_q9(self) -> Plan:
        return self._sql(
            """
            SELECT n_name, SUM(l_extendedprice * (100 - l_discount))
            FROM lineitem, part, supplier, nation
            WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey
              AND s_nationkey = n_nationkey AND p_type LIKE '%BRASS%'
            GROUP BY n_name ORDER BY n_name
            """
        )

    def _plan_q13(self) -> Plan:
        return self._sql(
            """
            SELECT c_nationkey, COUNT(*) FROM orders, customer
            WHERE o_custkey = c_custkey
              AND o_orderpriority <> '1-URGENT'
            GROUP BY c_nationkey ORDER BY c_nationkey
            """
        )

    def _plan_q14(self) -> Plan:
        """Promo revenue (modified, hand-built: no CASE in the subset).

        ``1000 * promo_revenue / total_revenue`` over a one-month
        shipdate window, where promo rows have a part whose type starts
        with PROMO.
        """
        cat = self.catalog
        plan = Plan()

        def scan(table: str, column: str) -> PlanNode:
            return plan.add(Scan(cat.column(table, column)), label=f"{table}.{column}")

        cands = plan.add(
            Select(
                RangePredicate(
                    date_value("1995-09-01"),
                    date_value("1995-10-01"),
                    hi_inclusive=False,
                )
            ),
            [scan("lineitem", "l_shipdate")],
        )

        def revenue(source_cands: PlanNode) -> PlanNode:
            price = plan.add(Fetch(), [source_cands, scan("lineitem", "l_extendedprice")])
            disc = plan.add(Fetch(), [source_cands, scan("lineitem", "l_discount")])
            hundred = plan.add(Literal(100))
            rebate = plan.add(Calc("-"), [hundred, disc])
            volume = plan.add(Calc("*"), [price, rebate])
            return plan.add(Aggregate("sum"), [volume])

        total = revenue(cands)
        p_cands = plan.add(
            Select(LikePredicate("PROMO%")), [scan("part", "p_type")]
        )
        p_keys = plan.add(Fetch(), [p_cands, scan("part", "p_partkey")])
        l_partkey = plan.add(Fetch(), [cands, scan("lineitem", "l_partkey")])
        semi = plan.add(SemiJoin(), [l_partkey, p_keys])
        promo_cands = plan.add(HeadsOf(), [semi])
        promo = revenue(promo_cands)

        thousand = plan.add(Literal(1000))
        scaled = plan.add(Calc("*"), [thousand, promo])
        ratio = plan.add(Calc("/"), [scaled, total])
        plan.set_outputs([ratio])
        return plan

    def _plan_q17(self) -> Plan:
        return self._sql(
            """
            SELECT SUM(l_extendedprice) / 7 FROM lineitem, part
            WHERE l_partkey = p_partkey AND p_brand = 'Brand#23'
              AND p_container = 'MED BOX' AND l_quantity < 9
            """
        )

    def _plan_q19(self) -> Plan:
        return self._sql(
            """
            SELECT SUM(l_extendedprice * (100 - l_discount))
            FROM lineitem, part
            WHERE l_partkey = p_partkey AND (
                  (p_brand = 'Brand#12'
                   AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
                   AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
               OR (p_brand = 'Brand#23'
                   AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
                   AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
               OR (p_brand = 'Brand#34'
                   AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
                   AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))
            """
        )

    def _plan_q22(self) -> Plan:
        return self._sql(
            """
            SELECT COUNT(*), SUM(c_acctbal) FROM customer
            WHERE c_acctbal > 500000
              AND c_custkey NOT IN (SELECT o_custkey FROM orders)
            """
        )


def q1_style_plan(dataset: TpchDataset) -> Plan:
    """A TPC-H Q1-style aggregation over lineitem.

    Date-range select, three fetches, an arithmetic calc, and two
    grouped aggregates over a low-cardinality key -- the classic
    scan-heavy reporting shape Q1 exercises (the generated lineitem has
    no returnflag/linestatus, so ``l_tax`` serves as the group key).
    """
    cat = dataset.catalog
    shipdate = cat.column("lineitem", "l_shipdate")
    # Data-driven cutoff at ~70% selectivity keeps the plan meaningful
    # at every scale factor without hard-coding the date encoding.
    cutoff = float(np.percentile(shipdate.values, 70))
    plan = Plan()

    def scan(table: str, column: str) -> PlanNode:
        return plan.add(Scan(cat.column(table, column)), label=f"{table}.{column}")

    cands = plan.add(
        Select(RangePredicate(hi=cutoff, hi_inclusive=False)),
        [scan("lineitem", "l_shipdate")],
    )
    keys = plan.add(Fetch(), [cands, scan("lineitem", "l_tax")])
    price = plan.add(Fetch(), [cands, scan("lineitem", "l_extendedprice")])
    disc = plan.add(Fetch(), [cands, scan("lineitem", "l_discount")])
    volume = plan.add(Calc("*"), [price, disc])
    sums = plan.add(GroupAggregate("sum"), [keys, volume])
    counts = plan.add(GroupAggregate("count"), [keys])
    plan.set_outputs([sums, counts])
    return plan
