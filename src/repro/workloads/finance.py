"""The algorithmic trading query suite (the paper's Section 4 finance app).

Queries follow the DBToaster finance benchmark family:

* **vwap** — volume-weighted average price contribution of large bids: a
  nested aggregate compares each bid's volume against a fraction of total
  bid volume (the paper's VWAP/SOBI building block; stream engines cannot
  express it, see :class:`repro.errors.UnsupportedQueryError`);
* **axf** (AXFinder) — per-broker imbalance between asks and bids within a
  price band;
* **bsp** (BrokerSpread) — per-broker exposure spread between its standing
  asks and bids (the market-maker detection query: market makers quote both
  sides);
* **psp** (PriceSpread) — aggregate bid/ask notional spread over the cross
  product of the books (maps keep this O(1) per event; any engine that
  joins explicitly pays O(n) or worse);
* **mst** (MissedTrades) — volume of bids that cross the book (a correlated
  EXISTS against the ask side);
* **bbo** (BestBidOffer) — per-broker best bid and worst offer (non-linear
  MIN/MAX aggregates, maintained through auxiliary extremum caches
  with re-derivation on extremum deletes);
* **act** (ActiveBrokers) — how many distinct brokers currently quote each
  price level on the bid side (COUNT(DISTINCT ...), a 0<->nonzero
  multiplicity-crossing aggregate).
"""

from __future__ import annotations

from repro.sql.catalog import Catalog
from repro.workloads.orderbook import ORDER_BOOK_DDL

FINANCE_QUERIES: dict[str, str] = {
    "vwap": (
        "SELECT sum(b.price * b.volume) FROM bids b "
        "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)"
    ),
    "axf": (
        "SELECT b.broker_id, sum(a.volume) - sum(b.volume) "
        "FROM bids b, asks a "
        "WHERE b.broker_id = a.broker_id "
        "AND a.price - b.price < 1000 AND b.price - a.price < 1000 "
        "GROUP BY b.broker_id"
    ),
    "bsp": (
        "SELECT b.broker_id, sum(a.price * a.volume) - sum(b.price * b.volume) "
        "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "GROUP BY b.broker_id"
    ),
    "psp": (
        "SELECT sum(a.price - b.price) FROM bids b, asks a"
    ),
    "mst": (
        "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT a.id FROM asks a WHERE a.price <= b.price)"
    ),
    "bbo": (
        "SELECT b.broker_id, max(b.price), min(a.price) "
        "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "GROUP BY b.broker_id"
    ),
    "act": (
        "SELECT b.price, count(DISTINCT b.broker_id) FROM bids b "
        "GROUP BY b.price"
    ),
}

#: The non-linear members (MIN/MAX and DISTINCT aggregates): maintained
#: through auxiliary caches rather than closed-form ring deltas.
NONLINEAR_FINANCE = ("bbo", "act")

#: Queries expressible by the stream-operator baseline (no nesting).
STREAMABLE_FINANCE = ("axf", "bsp", "psp")


def finance_catalog() -> Catalog:
    """The bids/asks catalog shared by all finance queries."""
    return Catalog.from_script(ORDER_BOOK_DDL)
