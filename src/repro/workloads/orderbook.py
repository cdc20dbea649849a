"""Synthetic limit order book stream (NASDAQ TotalView stand-in).

The paper demos on TotalView order book data, which is proprietary; this
generator produces the same *shape* of traffic against the same schema:

* two relations ``bids``/``asks`` receiving high-volume insert/delete
  deltas (new orders, cancellations, modifications = delete+insert);
* prices follow a random walk of the mid price with an exponential-ish
  offset into the book, volumes are small integers;
* traffic is cancellation-heavy (most real order-book messages modify or
  remove standing orders), so the book does **not** grow unboundedly —
  while still being inexpressible as a sliding window, the property the
  paper's data model stresses.

Prices and volumes are integers (price in ticks), keeping all maintained
aggregates exact across engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.runtime.events import StreamEvent

ORDER_BOOK_DDL = """
CREATE STREAM bids (t INT, id INT, broker_id INT, price INT, volume INT);
CREATE STREAM asks (t INT, id INT, broker_id INT, price INT, volume INT);
"""


@dataclass
class _Order:
    order_id: int
    broker_id: int
    price: int
    volume: int
    time: int

    def row(self) -> tuple:
        return (self.time, self.order_id, self.broker_id, self.price, self.volume)


class OrderBookGenerator:
    """Deterministic order book event stream.

    ``events(n)`` yields exactly ``n`` StreamEvents.  The action mix is
    configurable; defaults approximate real book traffic: ~45% new orders,
    ~35% cancels, ~20% modifications (a modify emits a delete+insert pair,
    counting as two events).
    """

    def __init__(
        self,
        seed: int = 2009,
        brokers: int = 10,
        start_price: int = 10_000,
        tick: int = 1,
        max_volume: int = 100,
        new_order_weight: float = 0.45,
        cancel_weight: float = 0.35,
        modify_weight: float = 0.20,
    ) -> None:
        self.rng = random.Random(seed)
        self.brokers = brokers
        self.mid_price = start_price
        self.tick = tick
        self.max_volume = max_volume
        self.weights = (new_order_weight, cancel_weight, modify_weight)
        self.time = 0
        self.next_id = 1
        self.live: dict[str, list[_Order]] = {"bids": [], "asks": []}

    # -- internals ---------------------------------------------------------

    def _price_for(self, side: str) -> int:
        # Exponential-ish offset into the book from the mid price.
        offset = self.tick * min(int(self.rng.expovariate(0.3)) + 1, 40)
        return self.mid_price - offset if side == "bids" else self.mid_price + offset

    def _new_order(self, side: str) -> StreamEvent:
        self.time += 1
        order = _Order(
            order_id=self.next_id,
            broker_id=self.rng.randrange(self.brokers),
            price=self._price_for(side),
            volume=self.rng.randint(1, self.max_volume),
            time=self.time,
        )
        self.next_id += 1
        self.live[side].append(order)
        return StreamEvent(side, 1, order.row())

    def _cancel(self, side: str) -> StreamEvent:
        book = self.live[side]
        order = book.pop(self.rng.randrange(len(book)))
        return StreamEvent(side, -1, order.row())

    def _modify(self, side: str) -> tuple[StreamEvent, StreamEvent]:
        book = self.live[side]
        index = self.rng.randrange(len(book))
        order = book[index]
        removal = StreamEvent(side, -1, order.row())
        # Price improvement or size change; keep id, refresh timestamp.
        self.time += 1
        order.time = self.time
        if self.rng.random() < 0.5:
            order.price += self.rng.choice((-self.tick, self.tick))
        else:
            order.volume = self.rng.randint(1, self.max_volume)
        book[index] = order
        return removal, StreamEvent(side, 1, order.row())

    # -- public API ---------------------------------------------------------

    def events(self, n: int) -> Iterator[StreamEvent]:
        """Yield exactly ``n`` events (modifies count as two)."""
        produced = 0
        pending: list[StreamEvent] = []
        new_w, cancel_w, modify_w = self.weights
        while produced < n:
            if pending:
                yield pending.pop(0)
                produced += 1
                continue
            # Random walk of the mid price.
            if self.rng.random() < 0.05:
                self.mid_price += self.rng.choice((-self.tick, self.tick))
            side = self.rng.choice(("bids", "asks"))
            roll = self.rng.random()
            if roll < new_w or not self.live[side]:
                yield self._new_order(side)
                produced += 1
            elif roll < new_w + cancel_w:
                yield self._cancel(side)
                produced += 1
            else:
                removal, reinsert = self._modify(side)
                pending.append(reinsert)
                yield removal
                produced += 1

    def depth(self) -> dict[str, int]:
        """Current number of standing orders per side."""
        return {side: len(book) for side, book in self.live.items()}
