"""The update-stream event model.

Per the paper's data model, a database is a set of relations each subject to
an arbitrary sequence of inserts, updates and deletes — *not* windowed
streams.  An update is represented as a delete of the old tuple followed by
an insert of the new one (the paper makes the same reduction).

Besides single events, the runtime supports *batched* delivery: a stream is
cut into windows of ``batch_size`` consecutive events, and each window into
one :class:`EventBatch` per relation (:func:`batches`), so each layer (WAL,
router, lane) handles a relation's share of a window once (see
:meth:`repro.runtime.engine.DeltaEngine.process_batch`).  A window's
triggers may run per relation because every serial order of its events
ends at the same maps; an engine whose maps are not all exact integers
keeps the stream's own order instead (see
:meth:`repro.runtime.engine.Engine.process_stream`).  The sign is a column
of the batch, as a Z-set's weight travels with its row: a batch of one
sign keeps ``sign`` ``+1``/``-1``, a mixed batch carries its per-row weight
column, and either executes as one call of the relation's trigger, which
takes each row's weight as an argument.

A batch is stored *columnar* (struct-of-arrays): one parallel list per
event column, in stream order.  The generated batch triggers iterate the
column lists they actually read (skipping unused columns entirely) instead
of unpacking row tuples, and shard routing hashes one column list directly.
``EventBatch.rows`` materialises the row-tuple view for callers that want
it.  Batches can additionally be *shard-routed*: :func:`partition_columns`
(or the row-level :func:`partition_rows`, which also carries a weight
column) splits a batch by the hash of one column, the unit of parallel
delta processing (see :class:`repro.runtime.engine.ShardedEngine`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import EventError


@dataclass(frozen=True)
class StreamEvent:
    """A single-tuple insert (+1) or delete (-1) on a base relation."""

    relation: str
    sign: int
    values: tuple

    def __post_init__(self) -> None:
        if not is_sign(self.sign):
            raise EventError(
                f"event sign must be the int +1 or -1, got {self.sign!r}"
            )

    def __repr__(self) -> str:
        symbol = "+" if self.sign == 1 else "-"
        return f"{symbol}{self.relation}{self.values!r}"


def insert(relation: str, *values) -> StreamEvent:
    """An insert event."""
    return StreamEvent(relation, 1, tuple(values))


def delete(relation: str, *values) -> StreamEvent:
    """A delete event (of one previously inserted tuple)."""
    return StreamEvent(relation, -1, tuple(values))


def update(relation: str, old: Sequence, new: Sequence) -> tuple[StreamEvent, StreamEvent]:
    """An update, expressed as the paper's delete+insert pair."""
    return (
        StreamEvent(relation, -1, tuple(old)),
        StreamEvent(relation, 1, tuple(new)),
    )


def flatten(events: Iterable) -> Iterator[StreamEvent]:
    """Flatten a stream that may contain update pairs (tuples of events).

    :class:`EventBatch` items are iterable over their events, so batched
    streams flatten transparently as well.
    """
    for item in events:
        if isinstance(item, StreamEvent):
            yield item
        else:
            for sub in item:
                yield sub


def columns_from_rows(rows: Iterable[Sequence]) -> tuple[list, ...]:
    """Transpose row tuples into the columnar (struct-of-arrays) layout."""
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    if not rows:
        return ()
    return tuple(map(list, zip(*rows)))


def rows_from_columns(columns: Sequence[Sequence]) -> list[tuple]:
    """Materialise the row-tuple view of a columnar batch."""
    if not columns:
        return []
    return list(zip(*columns))


_SIGNS = frozenset((1, -1))


def is_sign(value) -> bool:
    """Whether ``value`` is a sign: the ``int`` ``+1`` or ``-1``.  A float
    or a bool equals one (``1.0 == 1``) but is refused: a float indexes
    no per-event route, and a map would store either as itself, which the
    exact-integer proofs behind sharding and reordering rule out."""
    return type(value) is int and (value == 1 or value == -1)


def batch_sign(weights: list):
    """The ``sign`` of a batch with this weight column: its one sign when
    every row shares it, else the column itself."""
    first = weights[0]
    return first if weights.count(first) == len(weights) else weights


def _checked_sign(sign, count: int):
    """A batch's ``sign`` from what a caller passed: a sign (see
    :func:`is_sign`), or a weight column — a list of one sign per row,
    kept only when it actually mixes signs."""
    if is_sign(sign):
        return sign
    if not isinstance(sign, list):
        shown = repr(sign)
    elif len(sign) != count or not sign:
        shown = f"a {len(sign)}-entry weight column for {count} rows"
    elif not _SIGNS.issuperset(sign) or set(map(type, sign)) != {int}:
        shown = "weights " + ", ".join(
            sorted({repr(weight) for weight in sign if not is_sign(weight)})
        )
    else:
        return batch_sign(sign)
    raise EventError(
        "batch sign must be the int +1 or -1, or a list of one such sign "
        f"per row, got {shown}"
    )


class EventBatch:
    """Rows of one relation, applied as one delta: a relation's share of a
    window (:func:`batches`), in stream order.

    ``sign`` is ``+1``/``-1`` when every row shares it; a *mixed* batch
    carries its weight column there instead — a list of one ``+1``/``-1``
    per row, in stream order — and :attr:`weights` gives the per-row list
    either way.  A mixed batch applies in one trigger call with its
    weight column (:meth:`repro.runtime.engine.DeltaEngine._apply`), as
    exact as per-event processing for every query.

    The canonical execution layout is *columnar*: ``columns[i]`` is the
    list of the ``i``-th event value across the batch, in stream order (a
    struct-of-arrays).  The batch executors iterate exactly the column
    lists they read, and shard routing hashes one column list directly.

    A batch holds whichever representation it was built with (row tuples
    from stream grouping, columns from a columnar producer) and
    materialises the other on first access, caching the transpose — so
    degenerate one-row batches dispatched through the per-event path never
    pay for a transpose at all.

    >>> batch = EventBatch("bids", 1, [(1, 10), (2, 20)])
    >>> batch.columns
    ([1, 2], [10, 20])
    >>> EventBatch.from_columns("bids", 1, ([1, 2], [10, 20])).rows
    [(1, 10), (2, 20)]
    >>> len(batch), batch.row(1)
    (2, (2, 20))
    >>> mixed = EventBatch("bids", [1, -1], [(1, 10), (1, 10)])
    >>> mixed, mixed.weights, list(mixed)
    (±bids[2 rows], [1, -1], [+bids(1, 10), -bids(1, 10)])
    """

    __slots__ = ("relation", "sign", "_rows", "_columns", "_length")

    def __init__(self, relation: str, sign, rows: Iterable[Sequence] = ()):
        rows = rows if isinstance(rows, list) else list(rows)
        self.relation = relation
        self.sign = _checked_sign(sign, len(rows))
        self._rows: Optional[list] = rows
        self._columns: Optional[tuple[list, ...]] = None
        self._length = len(rows)

    @classmethod
    def from_columns(
        cls, relation: str, sign, columns: Sequence[Sequence]
    ) -> "EventBatch":
        """Adopt parallel column lists (all of one length) as a batch."""
        columns = tuple(columns)
        length = len(columns[0]) if columns else 0
        if len(set(map(len, columns))) > 1:
            raise EventError(
                f"ragged columnar batch for {relation!r}: column lengths "
                f"{[len(column) for column in columns]}"
            )
        batch = cls.__new__(cls)
        batch.relation = relation
        batch.sign = _checked_sign(sign, length)
        batch._rows = None
        batch._columns = columns
        batch._length = length
        return batch

    @classmethod
    def _adopt(cls, relation: str, sign, rows: list) -> "EventBatch":
        """A batch over ``rows`` as they are, for a producer that built
        them and ``sign`` (as :func:`batch_sign` makes it) itself: no
        copy, no checks."""
        batch = cls.__new__(cls)
        batch.relation = relation
        batch.sign = sign
        batch._rows = rows
        batch._columns = None
        batch._length = len(rows)
        return batch

    @property
    def weights(self) -> list:
        """The per-row signs (the weight column), uniform batches included."""
        sign = self.sign
        return sign if isinstance(sign, list) else [sign] * self._length

    @property
    def columns(self) -> tuple[list, ...]:
        """The struct-of-arrays view (cached transpose)."""
        if self._columns is None:
            self._columns = columns_from_rows(self._rows)
        return self._columns

    @property
    def rows(self) -> list[tuple]:
        """The row-tuple view (cached transpose; do not mutate)."""
        if self._rows is None:
            self._rows = rows_from_columns(self._columns)
        return self._rows

    def row(self, index: int) -> tuple:
        """One row as a tuple, from whichever representation is present."""
        if self._rows is not None:
            return tuple(self._rows[index])
        return tuple(column[index] for column in self._columns)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.sign == other.sign
            and self.rows == other.rows
        )

    def __iter__(self) -> Iterator[StreamEvent]:
        """The batch as its constituent events (keeps ``flatten`` uniform)."""
        for index, sign in enumerate(self.weights):
            yield StreamEvent(self.relation, sign, self.row(index))

    def __repr__(self) -> str:
        sign = self.sign
        symbol = "±" if isinstance(sign, list) else "+" if sign == 1 else "-"
        return f"{symbol}{self.relation}[{self._length} rows]"


def partition_rows(
    rows: Iterable[Sequence],
    column: int,
    shards: int,
    weights: Optional[list] = None,
) -> list:
    """Hash-partition batch rows by one column into per-shard row lists.

    Row order is preserved within every shard, so each shard observes its
    sub-stream in stream order; rows assigned to different shards commute
    because a partitionable trigger only touches map keys carrying the
    row's own partition value (see :mod:`repro.compiler.partition`).
    ``weights`` (a mixed batch's weight column) travels with its rows:
    each shard then gets a ``(rows, weights)`` pair.
    """
    if shards < 1:
        raise EventError(f"shard count must be >= 1, got {shards!r}")
    if weights is not None:
        pairs: list[tuple[list, list]] = [([], []) for _ in range(shards)]
        for row, weight in zip(rows, weights):
            shard_rows, shard_weights = pairs[hash(row[column]) % shards]
            shard_rows.append(row)
            shard_weights.append(weight)
        return pairs
    buckets: list[list[Sequence]] = [[] for _ in range(shards)]
    if shards == 1:
        buckets[0].extend(rows)
        return buckets
    for row in rows:
        buckets[hash(row[column]) % shards].append(row)
    return buckets


def partition_columns(
    columns: Sequence[Sequence],
    column: int,
    shards: int,
    weights: Optional[list] = None,
) -> list:
    """Hash-partition a columnar batch by one column, staying columnar.

    The routing column is hashed directly from its own list (no row
    reconstruction) into per-shard position selectors; every column is
    then gathered per shard in one comprehension.  Stream order is
    preserved within each shard — the columnar equivalent of
    :func:`partition_rows`, ``weights`` included: each shard then gets
    a ``(columns, weights)`` pair.
    """
    if weights is not None:
        parts = partition_columns((*columns, weights), column, shards)
        return [(part[:-1], part[-1]) for part in parts]
    if shards < 1:
        raise EventError(f"shard count must be >= 1, got {shards!r}")
    if shards == 1:
        return [tuple(list(col) for col in columns)]
    selectors: list[list[int]] = [[] for _ in range(shards)]
    for position, value in enumerate(columns[column]):
        selectors[hash(value) % shards].append(position)
    return [
        tuple([col[i] for i in selector] for col in columns)
        for selector in selectors
    ]


def batches(events: Iterable, batch_size: Optional[int] = None) -> Iterator[EventBatch]:
    """Cut a stream into windows and each window into one batch per relation.

    A window is ``batch_size`` consecutive events (``None``: the whole
    stream).  It yields one batch per relation it touches, in order of
    first appearance; a batch holds its relation's rows in stream order,
    inserts and deletes together under a weight column (see
    :class:`EventBatch`).  Rows are not consolidated: a batch holds one
    row per event.  Update pairs (and pre-existing batches) are flattened
    first.  Every serial order of a window's events ends at the same map
    values (DBSP's linearity, Q(ΣΔI) = ΣQ(ΔI)), and the per-relation order
    is one of them, so applying the batches equals applying the window per
    event in the order ``flatten(batches(events, batch_size))`` replays.

    >>> list(batches([insert("R", 1), insert("R", 2), delete("R", 1)]))
    [±R[3 rows]]
    >>> window = [insert("R", 1), insert("S", 1), delete("R", 1), insert("S", 2)]
    >>> list(batches(window)), list(batches(window, 2))
    ([±R[2 rows], +S[2 rows]], [+R[1 rows], +S[1 rows], -R[1 rows], +S[1 rows]])
    """
    return chain.from_iterable(_windows(events, batch_size, regroup=True))


def _windows(
    events: Iterable, batch_size: Optional[int], regroup: bool
) -> Iterator[list[EventBatch]]:
    """The one cut behind :func:`batches` and the engines' stream ingest:
    the stream as a list of batches per window.

    With ``regroup``, a window is ``batch_size`` consecutive events, one
    batch per relation (see :func:`batches`).  Without it, a window is a
    run of consecutive events on one relation, at most ``batch_size``
    long, so the batches replay the stream in its own order: what a
    program whose maps are not all exact integers takes, since a FLOAT
    sum added in another order may differ in its last bits.
    """
    if batch_size is not None and batch_size < 1:
        raise EventError(f"batch_size must be >= 1, got {batch_size!r}")
    limit = sys.maxsize if batch_size is None else batch_size
    # Rows (and their signs) accumulate per event; a batch transposes
    # lazily, once, if a consumer asks for columns.
    adopt = EventBatch._adopt

    def window(runs: dict) -> list[EventBatch]:
        return [
            adopt(relation, batch_sign(signs), rows)
            for relation, (rows, signs) in runs.items()
        ]

    runs: dict[str, tuple[list, list]] = {}
    count = 0
    for event in flatten(events):
        run = runs.get(event.relation)
        if run is None:
            if runs and not regroup:
                yield window(runs)
                runs, count = {}, 0
            run = runs[event.relation] = ([], [])
        run[0].append(event.values)
        run[1].append(event.sign)
        count += 1
        if count == limit:
            yield window(runs)
            runs, count = {}, 0
    if runs:
        yield window(runs)
