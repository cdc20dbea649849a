"""A pure-Python, scaled-down TPC-H data generator.

Generates the eight TPC-H relations with full referential integrity and
simplified value distributions, deterministically from a seed.  The scale
factor works like dbgen's: ``sf=1`` would be 150k customers / 6M lineitems;
benchmarks here use ``sf`` in the 0.001-0.01 range.

Dates are integer date keys (``yyyymmdd``); a date dimension suitable for
SSB-style star joins is generated alongside (:func:`date_dimension`).
In the warehouse-loading scenario the fact flow (``orders`` + ``lineitem``)
arrives as a stream while everything else is static, so the DDL declares
them accordingly.
"""

from __future__ import annotations

import random
from typing import Iterator

TPCH_DDL = """
CREATE TABLE region (r_regionkey INT, r_name VARCHAR(12));
CREATE TABLE nation (n_nationkey INT, n_name VARCHAR(25), n_regionkey INT);
CREATE TABLE supplier (s_suppkey INT, s_nationkey INT, s_acctbal FLOAT);
CREATE TABLE customer (c_custkey INT, c_nationkey INT, c_mktsegment VARCHAR(10), c_acctbal FLOAT);
CREATE TABLE part (p_partkey INT, p_mfgr VARCHAR(10), p_brand VARCHAR(10), p_category VARCHAR(10), p_retailprice INT);
CREATE TABLE partsupp (ps_partkey INT, ps_suppkey INT, ps_supplycost INT);
CREATE TABLE ddate (d_datekey INT, d_year INT, d_month INT);
CREATE STREAM orders (o_orderkey INT, o_custkey INT, o_orderdate INT, o_totalprice INT);
CREATE STREAM lineitem (l_orderkey INT, l_partkey INT, l_suppkey INT, l_linenumber INT, l_quantity INT, l_extendedprice INT, l_discount INT, l_tax INT, l_shipdate INT);
"""

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    # (name, regionkey) — the 25 TPC-H nations.
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
MFGRS = [f"MFGR#{i}" for i in range(1, 6)]
YEARS = list(range(1992, 1999))


def date_dimension() -> list[tuple]:
    """The date dimension covering the TPC-H order date range (months)."""
    rows = []
    for year in YEARS:
        for month in range(1, 13):
            for day in (1, 8, 15, 22):
                rows.append((year * 10000 + month * 100 + day, year, month))
    return rows


class TpchGenerator:
    """Deterministic TPC-H tables at a given scale factor."""

    def __init__(self, sf: float = 0.002, seed: int = 1992) -> None:
        self.sf = sf
        self.seed = seed
        self.n_customers = max(3, int(150_000 * sf))
        self.n_suppliers = max(2, int(10_000 * sf))
        self.n_parts = max(4, int(200_000 * sf))
        self.n_orders = max(5, int(1_500_000 * sf))
        self.dates = date_dimension()
        # partsupp pairs are unique and every lineitem references one, so
        # the partsupp join is exactly 1:1 per lineitem in every engine.
        rng = self._rng("partsupp_pairs")
        self._part_suppliers: dict[int, list[int]] = {}
        for part in range(1, self.n_parts + 1):
            k = min(2, self.n_suppliers)
            self._part_suppliers[part] = rng.sample(
                range(1, self.n_suppliers + 1), k
            )

    def _rng(self, table: str) -> random.Random:
        """Each table draws from its own stream, so generation is
        deterministic regardless of which tables are requested or in what
        order (the engines consume them differently)."""
        return random.Random(f"{self.seed}:{table}")

    # -- dimension tables ---------------------------------------------------

    def region(self) -> list[tuple]:
        return [(i, name) for i, name in enumerate(REGIONS)]

    def nation(self) -> list[tuple]:
        return [(i, name, region) for i, (name, region) in enumerate(NATIONS)]

    def supplier(self) -> list[tuple]:
        rng = self._rng("supplier")
        return [
            (
                i + 1,
                rng.randrange(len(NATIONS)),
                round(rng.uniform(-999.99, 9999.99), 2),
            )
            for i in range(self.n_suppliers)
        ]

    def customer(self) -> list[tuple]:
        rng = self._rng("customer")
        return [
            (
                i + 1,
                rng.randrange(len(NATIONS)),
                rng.choice(SEGMENTS),
                round(rng.uniform(-999.99, 9999.99), 2),
            )
            for i in range(self.n_customers)
        ]

    def part(self) -> list[tuple]:
        rng = self._rng("part")
        rows = []
        for i in range(self.n_parts):
            mfgr = rng.choice(MFGRS)
            brand = f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}"
            category = f"{mfgr}#{rng.randint(1, 5)}"
            rows.append((i + 1, mfgr, brand, category, 900 + (i % 200)))
        return rows

    def partsupp(self) -> list[tuple]:
        rng = self._rng("partsupp")
        rows = []
        for part in range(1, self.n_parts + 1):
            for supplier in self._part_suppliers[part]:
                rows.append((part, supplier, rng.randint(100, 1000)))
        return rows

    def ddate(self) -> list[tuple]:
        return list(self.dates)

    # -- fact stream ----------------------------------------------------------

    def orders_and_lineitems(self) -> Iterator[tuple[str, tuple]]:
        """Yield ``("orders", row)`` then its ``("lineitem", row)`` children,
        in arrival order — the warehouse loading stream."""
        rng = self._rng("facts")
        for order_index in range(self.n_orders):
            orderkey = order_index + 1
            custkey = rng.randint(1, self.n_customers)
            datekey = rng.choice(self.dates)[0]
            lines = rng.randint(1, 7)
            total = 0
            line_rows = []
            for line_number in range(1, lines + 1):
                partkey = rng.randint(1, self.n_parts)
                suppkey = rng.choice(self._part_suppliers[partkey])
                quantity = rng.randint(1, 50)
                extended = quantity * (900 + (partkey % 200))
                discount = rng.randint(0, 10)  # percent
                tax = rng.randint(0, 8)
                line_rows.append(
                    (
                        orderkey,
                        partkey,
                        suppkey,
                        line_number,
                        quantity,
                        extended,
                        discount,
                        tax,
                        datekey,
                    )
                )
                total += extended
            yield ("orders", (orderkey, custkey, datekey, total))
            for row in line_rows:
                yield ("lineitem", row)

    def static_tables(self) -> dict[str, list[tuple]]:
        """All non-stream tables, keyed by relation name."""
        return {
            "region": self.region(),
            "nation": self.nation(),
            "supplier": self.supplier(),
            "customer": self.customer(),
            "part": self.part(),
            "partsupp": self.partsupp(),
            "ddate": self.ddate(),
        }
