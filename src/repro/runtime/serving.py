"""Reactive view-subscription serving: push deltas, don't poll maps.

The engine on its own is a library — callers push batches and poll
``results()``.  This module turns it into a *server*: clients subscribe
to named views (the program's standing queries) and receive incremental
Z-set deltas of the SQL-visible result rows as triggers fire, the
serving model of the higher-order delta-processing line of work (views
kept continuously fresh for many readers).  Three layers:

* :class:`ViewDeltaTap` — the per-view delta tap over the engine's flush
  path.  It registers as a batch listener
  (:meth:`~repro.runtime.engine.DeltaEngine.add_batch_listener`), and for
  every applied batch emits ``(lsn, view, [(row, weight)])`` result
  deltas.  A delta costs what changed, not what the view holds: the
  engine's result maps remember the groups a batch touched
  (:meth:`~repro.runtime.engine.DeltaEngine.watch_results`) and the tap
  renders only those through :mod:`repro.runtime.views`; a view is only
  looked at when the batch's trigger writes one of its aggregate slot
  maps.  Subscribers see *SQL result rows*, never raw slot maps.  LSNs
  are monotonic (not necessarily
  dense); on a :class:`~repro.runtime.durability.DurableEngine` they are
  the WAL LSNs recovery replays, so a subscriber's position is
  meaningful across restarts.

* the **wire protocol** — length-prefixed JSON frames (4-byte big-endian
  length, UTF-8 JSON body).  Clients send ``subscribe`` /
  ``unsubscribe`` / ``publish`` / ``ping`` ops; the server answers with
  ``snapshot`` / ``delta`` / ``ack`` / ``pong`` / ``error`` frames.
  Catch-up is *snapshot-then-stream*: a subscriber first receives one
  ``snapshot`` frame (the view's current row multiset and its LSN),
  then every subsequent ``delta`` with a strictly greater LSN — a
  late-joining or lagging client is consistent by construction.
  A *resuming* subscriber (``subscribe`` with ``from_lsn``) skips the
  snapshot: the server replays the missed delta suffix — from its
  in-memory history ring, or from the WAL on a durable engine — and
  answers ``resumed`` followed by the replayed ``delta`` frames, or
  ``resume_gap`` when the suffix is no longer reachable (history
  evicted and WAL truncated), telling the client to fall back to a
  plain snapshot-then-stream subscribe.

* :class:`ViewServer` / :class:`SubscriberClient` — an asyncio server
  wrapping any engine (:class:`~repro.runtime.engine.DeltaEngine`,
  :class:`~repro.runtime.engine.ShardedEngine`,
  :class:`~repro.runtime.durability.DurableEngine`) with a subscription
  registry and per-client bounded send queues, and a small blocking
  client for tests, examples and the CLI.  Each ingest (network
  ``publish`` or in-process :meth:`ViewServer.publish`) is one
  synchronous step — apply, tap, encode, queue — so every subscriber
  observes one consistent delta sequence.  Both directions move
  *bursts*, not frames: a connection handler applies every complete
  frame one socket read returned before it reads again, a delta is
  encoded once for all its subscribers, and a client's writer sends
  everything queued for it in one write.

Backpressure: each client has a bounded frame queue; what happens when a
slow client fills it is the server's ``backpressure`` policy:

* ``"block"`` — ingest waits for the queue to drain: no client ever
  misses a delta, but one stalled reader stalls the source (classic
  flow control; the default);
* ``"drop"`` — the slow client is disconnected and its subscriptions
  discarded: the source never stalls, readers must resubscribe (and
  re-snapshot) after falling behind;
* ``"coalesce"`` — the client's queued deltas are merged per view
  (weights summed row-wise, LSN advanced to the newest): the client
  skips intermediate states but still converges on the live result —
  correct because Z-set deltas compose additively.

Run ``python -m repro.tools.cli serve ...`` for the standalone server;
the ledger's ``serve-push`` workload (``benchmarks/ledger/``) measures
its saturation events/sec and open-loop p50/p99 delivery latency.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import random
import socket
import struct
import threading
import time
import weakref
from collections import Counter, deque
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import EventError, ResumeGapError, ServingError
from repro.runtime.durability import DurableEngine, restore_and_replay
from repro.runtime.engine import (
    DEFAULT_BATCH_SIZE,
    DeltaEngine,
    _stream_windows,
    check_values,
)
from repro.runtime.views import GroupRenderer, result_delta

_log = logging.getLogger("repro.serving")

#: Frame length prefix: one unsigned 32-bit big-endian length.
_LENGTH = struct.Struct(">I")

#: Frames larger than this are rejected as protocol corruption rather
#: than allocated (a torn length prefix can claim gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Accepted backpressure policies (see the module docstring).
BACKPRESSURE_POLICIES = ("block", "drop", "coalesce")

#: Default bound of a subscriber's send queue, in frames.
DEFAULT_QUEUE_FRAMES = 256

#: Default per-view delta-history ring bound (frames) for
#: resume-from-LSN; see :class:`ViewServer`.
DEFAULT_HISTORY_FRAMES = 1024

_CLOSE = object()  # writer-task poison pill

#: Most bytes one socket read takes, on either end: the size of a burst.
_READ_BYTES = 1 << 16

#: A connection handler hands the loop back after dispatching at most
#: this many frames (see :meth:`ViewServer._handle_client`).
_YIELD_EVERY = 64

#: Serving sockets a forked child must not inherit.  Shard workers are
#: forked while the server runs (the supervisor respawns them mid-
#: stream), and a fork copies the whole fd table — a child holding a
#: duplicate of the listen socket keeps the port bound after the server
#: stops (restart-in-place then fails EADDRINUSE), and a duplicate of a
#: connection fd keeps that connection half-alive after the real owner
#: closes it (disconnects go unnoticed).  Every serving socket is
#: registered here and closed again *in the child* right after fork;
#: the parent's fds are untouched.
_fork_isolated_sockets: "weakref.WeakSet" = weakref.WeakSet()


def _isolate_from_forks(sock) -> None:
    """Register one socket for close-after-fork in child processes.

    asyncio hands out non-weakrefable ``TransportSocket`` wrappers;
    unwrap to the underlying ``socket.socket`` so the registry can hold
    it weakly (closed sockets age out with their owners).
    """
    raw = getattr(sock, "_sock", sock)
    try:
        _fork_isolated_sockets.add(raw)
    except TypeError:  # pragma: no cover - unexpected socket flavor
        pass


def _close_sockets_after_fork() -> None:
    for sock in list(_fork_isolated_sockets):
        try:
            sock.close()
        except OSError:
            pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_sockets_after_fork)


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


#: Frame bodies' one compact encoder and one decoder (``json.dumps``
#: with ``separators`` builds a new encoder per call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_to_json = _ENCODER.encode
_from_json = json.JSONDecoder().decode

#: The C scanner ``_to_json`` builds per call, built once for a delta's
#: changes (no cycle check: the rows come from the engine).
_scan = c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", False, False, True
)


def _framed(body: bytes) -> bytes:
    """``body`` behind its length prefix."""
    if len(body) > MAX_FRAME_BYTES:
        raise ServingError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "protocol limit"
        )
    return _LENGTH.pack(len(body)) + body


def encode_frame(message: Mapping) -> bytes:
    """One wire frame: 4-byte big-endian length + compact UTF-8 JSON."""
    return _framed(_to_json(message).encode("utf-8"))


def decode_frame(body: bytes) -> dict:
    """Inverse of :func:`encode_frame` for one frame body."""
    try:
        message = _from_json(body.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise ServingError(f"undecodable protocol frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServingError(
            f"protocol frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def _split_frames(buffer: bytearray) -> tuple[list[bytes], int]:
    """Slice every complete frame body off the front of ``buffer``.

    Returns ``(bodies, consumed)``; the caller trims ``consumed`` bytes
    with one ``del buffer[:consumed]`` — one memmove per burst, however
    many frames it held.  A trailing partial frame stays in the buffer.

    A length prefix beyond :data:`MAX_FRAME_BYTES` raises
    :class:`~repro.errors.ServingError` — but only at the buffer's
    front: met behind complete frames it just ends the slice, so those
    frames are applied first and the next call raises.
    """
    bodies: list[bytes] = []
    offset = 0
    end = len(buffer)
    while end - offset >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if length > MAX_FRAME_BYTES:
            if offset:
                break
            raise ServingError(
                f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
                "protocol limit"
            )
        start = offset + _LENGTH.size
        if end - start < length:
            break
        bodies.append(bytes(buffer[start : start + length]))
        offset = start + length
    return bodies, offset


def _tuple_changes(changes: Iterable[Sequence]) -> list[tuple[tuple, int]]:
    """JSON ``[[row, weight], ...]`` back to ``[(row, weight), ...]``."""
    return [(tuple(row), weight) for row, weight in changes]


def apply_changes(rows: Counter, changes: Iterable[tuple[tuple, int]]) -> Counter:
    """Fold one delta into an accumulated row multiset, in place.

    ``snapshot ⊎ delta₁ ⊎ delta₂ ⊎ ...`` reproduces the live result —
    the subscriber-side half of the serving contract (zero-weight rows
    are evicted, so the counter holds exactly the live multiset).
    """
    for row, weight in changes:
        total = rows.get(row, 0) + weight
        if total == 0:
            rows.pop(row, None)
        else:
            rows[row] = total
    return rows


# ---------------------------------------------------------------------------
# The flush-path delta tap
# ---------------------------------------------------------------------------


class ViewDeltaTap:
    """Renders per-batch result deltas for the program's views.

    Attach via the engine's flush-path listener::

        tap = ViewDeltaTap(engine)
        engine.add_batch_listener(tap.on_batch)   # or let ViewServer do it

    The tap keeps ``group -> row`` per view, and after every applied
    batch :meth:`on_batch` re-renders a *candidate set* of groups of the
    views that batch's trigger writes (unrelated views are never looked
    at), compares each against the row it holds, and returns what left
    and arrived — one changed group as its ordered pair, more through
    :func:`~repro.runtime.views.result_delta`.  :attr:`candidates` says
    where each view's candidates come from:

    * ``"event"`` — every group the view's triggers write is a tuple of
      the event's own values (bsp's ``broker_id``, any scalar view; see
      :func:`~repro.runtime.views.event_group_columns`): they are read
      off the batch's rows, or its columns, and the maps stay plain
      dicts;
    * ``"recorded"`` — some group is read from a loop or a map (the SSB
      views'): the engine's result maps note every key written
      (:class:`~repro.runtime.storage.RecordingDict`);
    * ``"whole"`` — the engine cannot say what a batch wrote (sharded
      lanes, kernel-held result maps, a closed tap): every
      group the view has or had, so a delta costs what the view holds.

    The first two need a :class:`~repro.runtime.engine.DeltaEngine`, or
    a durable engine over one, whose result maps are dicts
    (:meth:`~repro.runtime.engine.Engine.watch_results`); there a delta
    costs what changed.

    The tap is built in sync with the engine and works however it is
    driven — registered as a listener, called from another listener, or
    called by hand after a batch — and several taps on one engine each
    see every write.  An event-keyed view learns what changed from the
    batches it is handed, so the tap must be handed every batch the
    engine applies from construction on, or be :meth:`resync`-ed (what
    :meth:`ViewServer.start` does).  A write no batch shows — a
    listener that raised, a batch that raised while a listener is
    attached, a ``restore_state``, a map object the engine replaced —
    makes the next :meth:`on_batch` look at the view whole, once.
    :meth:`close` releases the watch.

    ``views`` restricts serving to a subset of the program's queries
    (default: all of them).
    """

    def __init__(self, engine, views: Optional[Iterable[str]] = None) -> None:
        program = engine.program
        known = [query.name for query in program.queries]
        if views is None:
            selected = known
        else:
            selected = list(dict.fromkeys(views))
            unknown = sorted(set(selected) - set(known))
            if unknown:
                raise ServingError(
                    f"unknown views {unknown}; this program serves: "
                    + ", ".join(known)
                )
        self.engine = engine
        self.views = selected
        #: which served views each relation's trigger can change: exactly
        #: those whose slot maps the trigger's statements write.
        self._affected: dict[str, tuple[str, ...]] = {}
        for (relation, _), trigger in program.triggers.items():
            targets = {statement.target for statement in trigger.statements}
            self._affected[relation] = tuple(
                view
                for view in selected
                if targets.intersection(program.slot_maps[view])
            )
        #: what the engine reports writes for, per view: ``(touched,
        #: columns)`` (see :meth:`~repro.runtime.engine.Engine.watch_results`);
        #: ``None`` while the tap holds no watch.
        self._watch: Optional[dict[str, tuple]] = None
        #: per such view: a renderer over the engine's own maps, the
        #: touched set, and for an event-keyed view, per relation,
        #: ``batch -> groups`` (``None`` for a recorded view).
        self._watched: dict[str, tuple] = {}
        #: group -> rendered row, per view: what subscribers hold.
        self._rows: dict[str, dict[tuple, tuple]] = {}
        self.resync()

    def resync(self) -> None:
        """Render every view from the engine's maps as they are now, and
        take the engine's LSN — the LSN clock, the WAL tip on a durable
        engine, so a tap over an already-running or recovered engine
        starts at its true position instead of 0.  The tap is built in
        sync; a tap that was not handed every batch since (a
        :class:`ViewServer` before its listener is registered) calls it
        to catch up, and a closed tap takes the engine watch back."""
        if self._watch is None:
            self._watch = self.engine.watch_results(self.views)
            self._watched = {
                view: (None, touched, None if columns is None else {
                    relation: _batch_groups(positions)
                    for relation, positions in columns.items()
                })
                for view, (touched, columns) in self._watch.items()
            }
        program = self.engine.program
        maps = self.engine.current_maps()
        for view in self.views:
            renderer = GroupRenderer(program, maps, view)
            watched = self._watched.get(view)
            if watched is not None:
                _, touched, readers = watched
                touched.clear()
                self._watched[view] = (renderer, touched, readers)
            self._rows[view] = {
                group: renderer.row(group) for group in renderer.live_groups()
            }
        #: LSN of the last observed batch.
        self.lsn = self.engine.tap_lsn()

    @property
    def candidates(self) -> dict[str, str]:
        """Per view, where a batch's candidate groups come from right
        now: ``"event"``, ``"recorded"`` or ``"whole"`` (see the class
        docstring)."""
        modes = {}
        for view in self.views:
            watched = self._watched.get(view)
            if watched is None:
                modes[view] = "whole"
            else:
                modes[view] = "recorded" if watched[2] is None else "event"
        return modes

    def close(self) -> None:
        """Release the engine watch (idempotent): the result maps are
        plain dicts again.  A closed tap still answers, from the whole
        view, until :meth:`resync` takes the watch back."""
        if self._watch is not None:
            self.engine.unwatch_results(self._watch)
        self._watch = None
        self._watched = {}

    def snapshot(self, view: str) -> tuple[int, list[tuple[tuple, int]]]:
        """The view's current row multiset and its LSN (the catch-up
        frame a new subscriber starts from)."""
        if view not in self._rows:
            raise ServingError(
                f"unknown view {view!r}; this tap serves: "
                + ", ".join(self.views)
            )
        rows = sorted(Counter(self._rows[view].values()).items(), key=repr)
        return self.lsn, rows

    def on_batch(self, lsn: int, batch) -> dict[str, list[tuple[tuple, int]]]:
        """The flush-path listener: result deltas of one applied batch.

        Returns ``{view: [(row, weight), ...]}`` for the views the batch
        actually changed (often empty — e.g. a batch that only shifts
        internal join state without moving any rendered aggregate).
        """
        self.lsn = lsn
        deltas: dict[str, list[tuple[tuple, int]]] = {}
        for view in self.affected(batch.relation):
            changes = self._view_delta(view, batch)
            if changes:
                deltas[view] = changes
        return deltas

    def affected(self, relation) -> tuple[str, ...]:
        """The served views a batch of ``relation`` can change, whatever
        its signs."""
        if not isinstance(relation, str):  # a malformed publish frame
            return ()
        return self._affected.get(relation, ())

    def _view_delta(self, view: str, batch) -> list[tuple[tuple, int]]:
        """Bring one view's ``group -> row`` up to date and return what
        changed: the rows that left and arrived, ordered as
        :func:`~repro.runtime.views.result_delta` orders them."""
        rows = self._rows[view]
        watched = self._watched.get(view)
        if watched is None:
            renderer = GroupRenderer(
                self.engine.program, self.engine.current_maps(), view
            )
            groups = rows.keys() | renderer.live_groups()
        else:
            renderer, touched, readers = watched
            if readers is None:
                groups = {key[: renderer.width] for key in touched}
                touched.clear()
            elif touched:  # a write no batch shows: the whole view, once
                touched.clear()
                renderer = GroupRenderer(
                    self.engine.program, self.engine.current_maps(), view
                )
                self._watched[view] = (renderer, touched, readers)
                groups = rows.keys() | renderer.live_groups()
            else:
                groups = readers[batch.relation](batch)
        if len(groups) == 1:
            (group,) = groups
            before = rows.get(group)
            after = renderer.row(group)
            if before == after:
                return []
            if after is None:
                del rows[group]
                return [(before, -1)]
            rows[group] = after
            if before is None:
                return [(after, 1)]
            if repr(after) <= repr(before):  # result_delta's stable sort
                return [(after, 1), (before, -1)]
            return [(before, -1), (after, 1)]
        left: dict[tuple, int] = {}
        arrived: dict[tuple, int] = {}
        for group in groups:
            before = rows.get(group)
            after = renderer.row(group)
            if before == after:
                continue
            if before is not None:
                left[before] = left.get(before, 0) + 1
            if after is None:
                del rows[group]
            else:
                arrived[after] = arrived.get(after, 0) + 1
                rows[group] = after
        return result_delta(left, arrived)


def _batch_groups(positions: tuple[tuple[int, ...], ...]):
    """``batch -> groups`` for an event-keyed view: each group a write
    takes from the event values at one tuple of ``positions`` — read off
    the rows, or zipped from the columns of a columnar batch (no
    transpose)."""

    def reader(group: tuple[int, ...]):
        if len(group) == 1:
            read = itemgetter(*group)
            return lambda row: (read(row),)
        return itemgetter(*group) if group else lambda row: ()

    readers = [reader(group) for group in positions]

    def groups(batch):
        rows = batch._rows
        if rows is None:
            columns = batch._columns
            found: set = set()
            for group in positions:
                if group:
                    found.update(zip(*[columns[i] for i in group]))
                elif batch._length:
                    found.add(())
            return found
        return {read(row) for read in readers for row in rows}

    return groups


# ---------------------------------------------------------------------------
# The asyncio server
# ---------------------------------------------------------------------------


class _Delta(NamedTuple):
    """One published delta, shared by every subscriber queue and the
    resume history ring: its ``wire`` frame is encoded exactly once."""

    lsn: int
    view: str
    ts: float
    changes: list  # [(row, weight), ...]
    wire: bytes


def _delta_record(
    view: str, lsn: int, ts: float, changes: list, flag: Optional[str] = None
) -> _Delta:
    """Encode one ``delta`` frame; ``flag`` marks a ``"replayed"`` or
    ``"coalesced"`` one.  The bytes are :func:`encode_frame`'s for
    ``{"type": "delta", "view", "lsn", "ts", [flag: true,] "changes"}``,
    built from a byte template: only ``changes`` (whose row tuples JSON
    renders as arrays) goes through the encoder."""
    body = b'{"type":"delta","view":%s,"lsn":%d,"ts":%s%s,"changes":%s}' % (
        _to_json(view).encode(),
        lsn,
        (repr(ts) if type(ts) is float else _to_json(ts)).encode(),
        b"" if flag is None else b',"%s":true' % flag.encode(),
        "".join(_scan(changes, 0)).encode(),
    )
    return _Delta(lsn, view, ts, changes, _framed(body))


def _ack_frame(lsn: int, count: int) -> bytes:
    """``encode_frame({"type": "ack", "lsn": lsn, "count": count})``."""
    return _framed(b'{"type":"ack","lsn":%d,"count":%d}' % (lsn, count))


class _ClientState:
    """Server-side state of one connected client: a send queue the
    server bounds to ``queue_frames``, the future its idle writer awaits
    (``wake``), and the event a step waiting for room awaits (``drained``)."""

    __slots__ = (
        "writer",
        "queue",
        "views",
        "name",
        "dropped",
        "writer_task",
        "wake",
        "drained",
        "last_active",
    )

    def __init__(self, writer, name: str) -> None:
        self.writer = writer
        self.queue: deque = deque()
        self.views: set[str] = set()
        self.name = name
        self.dropped = False
        self.writer_task: Optional[asyncio.Task] = None
        self.wake: Optional[asyncio.Future] = None
        self.drained = asyncio.Event()
        #: Monotonic stamp of the client's last observed progress: any
        #: received burst, or its writer draining one onto the socket.
        self.last_active = time.monotonic()


class ViewServer:
    """The reactive view-subscription server.

    Wraps one engine and serves every view of its program; accepts
    framed-protocol clients; fans every applied batch's result deltas out
    to the view's subscribers.  Usage (inside an event loop)::

        server = ViewServer(engine, port=0)
        await server.start()
        ...                        # server.port holds the bound port
        await server.stop()

    Every publish — a network ``publish`` op, :meth:`publish`,
    :meth:`publish_stream` — is one synchronous step on the event loop:
    the engine applies the batch, and its flush-path listener
    (:meth:`_on_batch`) taps it, encodes each delta once and queues it to
    every subscriber before the step returns.  Steps never interleave, so
    all subscribers observe the same LSN-stamped delta sequence, and a
    subscribe — one step too — can neither miss nor duplicate a delta.
    The one wait is before a step: under ``block`` backpressure, for room
    in the queues it will write (:meth:`_room`).

    ``backpressure`` picks the slow-client policy (``"block"`` /
    ``"drop"`` / ``"coalesce"``, see the module docstring);
    ``queue_frames`` bounds each client's send queue.

    ``history_frames`` bounds the per-view delta history ring backing
    resume-from-LSN: a resume older than the ring falls through to the
    WAL on a durable engine, and to ``resume_gap`` otherwise (``0``
    disables in-memory resume entirely).  ``idle_timeout`` (seconds,
    default off) evicts subscribers that neither send an op nor accept
    a frame within the window — a final best-effort ``timeout`` frame
    is written straight to the socket, so one stalled reader cannot pin
    ingest forever under ``block`` backpressure.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        backpressure: str = "block",
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
        history_frames: int = DEFAULT_HISTORY_FRAMES,
        idle_timeout: Optional[float] = None,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ServingError(
                f"unknown backpressure policy {backpressure!r}; choose from "
                + ", ".join(BACKPRESSURE_POLICIES)
            )
        if queue_frames < 2:
            raise ServingError(
                f"queue_frames must be >= 2, got {queue_frames!r}"
            )
        if history_frames < 0:
            raise ServingError(
                f"history_frames must be >= 0, got {history_frames!r}"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ServingError(
                f"idle_timeout must be positive (or None), got {idle_timeout!r}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.backpressure = backpressure
        self.queue_frames = queue_frames
        self.history_frames = history_frames
        self.idle_timeout = idle_timeout
        self.tap = ViewDeltaTap(engine)
        self._server: Optional[asyncio.AbstractServer] = None
        self._subscribers: dict[str, set[_ClientState]] = {
            view: set() for view in self.tap.views
        }
        #: Per-view ring of recent delta frames, and the LSN *floor* of
        #: each ring: every delta with ``lsn > floor`` is retained, so a
        #: resume from any ``from_lsn >= floor`` replays from memory.
        self._history: dict[str, deque] = {
            view: deque(maxlen=history_frames) for view in self.tap.views
        }
        self._history_floor: dict[str, int] = {
            view: self.tap.lsn for view in self.tap.views
        }
        self._clients: set[_ClientState] = set()
        self._client_counter = 0
        self._monitor_task: Optional[asyncio.Task] = None
        self.clients_dropped = 0
        self.clients_timed_out = 0
        self.deltas_sent = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and register the engine tap."""
        if self._server is not None:
            raise ServingError("server already started")
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        # Register the tap only once the bind has succeeded, so a failed
        # start (port already in use) leaves no listener on the engine.
        # What the engine applied before it (since construction, or a
        # stop) reached no listener: catch the tap up first (taking back
        # the engine watch a stop released), and restart the resume
        # history where its LSN now stands.
        lsn = self.tap.lsn
        self.tap.resync()
        if self.tap.lsn != lsn:
            for view in self.tap.views:
                self._history[view].clear()
                self._history_floor[view] = self.tap.lsn
        self.engine.add_batch_listener(self._on_batch)
        for sock in self._server.sockets:
            _isolate_from_forks(sock)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.idle_timeout is not None:
            self._monitor_task = asyncio.ensure_future(self._idle_monitor())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener and every client connection, and release
        the tap's engine watch (idempotent)."""
        self.tap.close()
        if self._server is None:
            return
        self.engine.remove_batch_listener(self._on_batch)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            await asyncio.gather(self._monitor_task, return_exceptions=True)
            self._monitor_task = None
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        clients = list(self._clients)
        for client in clients:
            self._disconnect(client)
        # ``_disconnect`` only *schedules* the transport teardown; wait
        # for the sockets to genuinely close before returning, so the
        # port is immediately rebindable (restart-in-place) and no fds
        # leak into a stopped event loop.
        tasks = [c.writer_task for c in clients if c.writer_task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for client in clients:
            transport = client.writer.transport
            if transport is not None:
                transport.abort()
            try:
                await asyncio.wait_for(client.writer.wait_closed(), timeout=1.0)
            except (asyncio.TimeoutError, OSError):
                pass
        self._clients.clear()
        for waiters in self._subscribers.values():
            waiters.clear()

    # -- ingest -------------------------------------------------------------

    def _on_batch(self, lsn: int, batch) -> None:
        """The flush-path listener, and all of fan-out: inside the engine
        call that applied the batch, encode each delta once for the
        history ring and every subscriber's queue."""
        deltas = self.tap.on_batch(lsn, batch)
        if not deltas:
            return
        ts = time.time()
        for view, changes in deltas.items():
            record = _delta_record(view, lsn, ts, changes)
            self._remember(record)
            for client in tuple(self._subscribers[view]):  # a drop edits it
                if self._enqueue(client, record):
                    self.deltas_sent += 1

    async def publish(
        self, relation: str, sign: int, rows: Sequence[Sequence]
    ) -> tuple[int, int]:
        """Apply one batch and fan out its deltas.

        Returns ``(count, lsn)``: rows that reached a trigger, and the
        tap's LSN after the batch (unchanged when the batch was skipped).
        The batch goes through the engine's public entry point, so a
        durable engine logs it before applying it.
        """
        views = self.tap.affected(relation)
        if self._full(None, views):
            await self._room(None, views)
        count = self.engine.process_batch(relation, sign, list(rows))
        return count, self.tap.lsn

    async def publish_stream(self, events, batch_size: Optional[int] = None) -> int:
        """Apply a whole event stream through the serving ingest path.

        Events are cut into windows of ``batch_size`` events and each
        window into one batch per relation, inserts and deletes together,
        as :meth:`~repro.runtime.engine.Engine.process_stream` cuts them
        (stream-order runs for a program with a FLOAT sum), and each batch
        is one :meth:`publish` — one LSN and one delta per view per batch.
        Returns events consumed.
        """
        size = DEFAULT_BATCH_SIZE if batch_size is None else batch_size
        count = 0
        for window in _stream_windows(self.engine, events, size):
            for batch in window:
                await self.publish(batch.relation, batch.sign, batch.rows)
                count += len(batch)
        return count

    def _remember(self, record: _Delta) -> None:
        """Retain one delta in its view's resume history ring,
        advancing the floor past whatever eviction discards."""
        history = self._history[record.view]
        if history.maxlen == 0:
            self._history_floor[record.view] = record.lsn
            return
        if len(history) == history.maxlen:
            self._history_floor[record.view] = history[0].lsn
        history.append(record)

    # -- delivery / backpressure -------------------------------------------

    def _enqueue(self, client: _ClientState, item) -> bool:
        """Queue one delta record, encoded frame or ``_CLOSE`` and wake
        the client's writer.  Only a full queue meets the policy: ``drop``
        disconnects, ``coalesce`` merges, ``block`` queues anyway — its
        step waited for room (:meth:`_room`), so only a step's own extra
        frames (a resume replay) pass the bound.  False when the client
        is (or thereby gets) dropped."""
        if client.dropped:
            return False
        if len(client.queue) < self.queue_frames or self.backpressure == "block":
            client.queue.append(item)
        elif self.backpressure == "drop":
            self.clients_dropped += 1
            self._disconnect(client)
            return False
        else:
            self._coalesce(client, item)
        wake = client.wake
        if wake is not None:
            client.wake = None
            if not wake.done():
                wake.set_result(None)
        return True

    def _reply(self, client: _ClientState, message: Mapping) -> bool:
        """Queue one non-delta frame (encoded here, written as is)."""
        return self._enqueue(client, encode_frame(message))

    def _full(self, client: Optional[_ClientState], views) -> Optional[_ClientState]:
        """Under ``block``, a queue one step would take past its bound (a
        delta per view in ``views`` to each subscriber, a reply to
        ``client``), else None.  An empty queue takes any one step."""
        if self.backpressure != "block":
            return None
        need = len(views)
        if client and client.queue and len(client.queue) + need >= self.queue_frames:
            return client
        for view in views:
            for subscriber in self._subscribers[view]:
                queued = len(subscriber.queue)
                if queued and queued + need > self.queue_frames:
                    return subscriber
        return None

    async def _room(self, client: Optional[_ClientState], views) -> None:
        """Wait until :meth:`_full` finds room, in slices, so an eviction
        or an unsubscribe unpins it instead of a queue nothing drains."""
        while (full := self._full(client, views)) and not full.dropped:
            full.drained.clear()
            try:
                await asyncio.wait_for(full.drained.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    def _coalesce(self, client: _ClientState, item: _Delta | bytes) -> None:
        """Merge the client's queued deltas per view to make room.

        Weights sum row-wise and the LSN advances to the newest, so the
        merged frame moves the subscriber straight to the latest state —
        Z-set deltas compose additively, intermediate states are simply
        skipped.  ``ts`` keeps the *oldest* pending stamp, so measured
        delivery latency still reflects how long the client lagged.
        Non-delta frames (snapshots, acks, pongs) are preserved in order
        ahead of the merged deltas; only a merged frame is re-encoded.
        """
        pending = [*client.queue, item]
        client.queue.clear()
        merged: dict[str, tuple[Counter, int, float]] = {}
        for queued in pending:
            if not isinstance(queued, _Delta):
                client.queue.append(queued)
                continue
            rows, lsn, ts = merged.get(
                queued.view, (Counter(), queued.lsn, queued.ts)
            )
            apply_changes(rows, queued.changes)
            merged[queued.view] = rows, max(lsn, queued.lsn), min(ts, queued.ts)
        for view, (rows, lsn, ts) in merged.items():
            changes = sorted(rows.items(), key=repr)
            if changes:  # else the deltas cancelled out entirely
                client.queue.append(
                    _delta_record(view, lsn, ts, changes, "coalesced")
                )

    def _disconnect(self, client: _ClientState) -> None:
        """Drop one client: unregister, stop its writer, close the socket."""
        if client.dropped:
            return
        client.dropped = True
        client.drained.set()  # no step waits on a dropped client
        for view in client.views:
            self._subscribers.get(view, set()).discard(client)
        self._clients.discard(client)
        if client.writer_task is not None:
            client.writer_task.cancel()
        try:
            client.writer.close()
        except Exception:
            pass

    # -- connection handling ------------------------------------------------

    async def _idle_monitor(self) -> None:
        """Evict subscribers that made no progress within ``idle_timeout``.

        Progress is either direction: an op received, or the writer
        draining a frame onto the socket.  The evicted client gets one
        best-effort ``timeout`` frame written straight to the transport
        (its queue may be full — that is exactly why it is evicted).
        """
        interval = min(1.0, self.idle_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for client in list(self._clients):
                if client.dropped or now - client.last_active <= self.idle_timeout:
                    continue
                self.clients_timed_out += 1
                _log.warning(
                    "evicting %s: no read or ping within %gs",
                    client.name,
                    self.idle_timeout,
                )
                try:
                    client.writer.write(
                        encode_frame(
                            {
                                "type": "timeout",
                                "message": (
                                    "evicted: no read or ping within "
                                    f"{self.idle_timeout:g}s"
                                ),
                                "lsn": self.tap.lsn,
                            }
                        )
                    )
                except Exception:
                    pass
                self._disconnect(client)

    async def _writer_loop(self, client: _ClientState) -> None:
        """One wakeup writes everything queued: one ``write``, one
        ``drain``, one ``last_active`` stamp per burst."""
        writer, queue = client.writer, client.queue
        loop = asyncio.get_running_loop()
        try:
            closing = False
            while not closing:
                if not queue:
                    client.wake = loop.create_future()
                    await client.wake
                burst = list(queue)
                queue.clear()
                client.drained.set()
                if _CLOSE in burst:  # flush what precedes it, then stop
                    closing = True
                    del burst[burst.index(_CLOSE) :]
                writer.write(
                    b"".join(
                        item.wire if isinstance(item, _Delta) else item
                        for item in burst
                    )
                )
                await writer.drain()
                client.last_active = time.monotonic()
        except (OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_client(self, reader, writer) -> None:
        # Mark accepted sockets SO_REUSEADDR so a lingering half-closed
        # connection (e.g. a stalled reader that never FINs back) cannot
        # hold the listen port against a restart-in-place rebind; keep
        # them out of forked shard workers for the same reason.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            _isolate_from_forks(sock)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            except OSError:
                pass
        self._client_counter += 1
        client = _ClientState(writer, f"client-{self._client_counter}")
        client.writer_task = asyncio.ensure_future(self._writer_loop(client))
        self._clients.add(client)
        # A burst is whatever one wakeup's read returns: every complete
        # frame in it is one synchronous step, taken before the next
        # read.  A step whose queues have room never suspends, so the
        # loop is handed back explicitly every few frames — writers flush
        # and other connections progress — and often enough that a
        # frame's replies to this client (a delta and an ack, at most)
        # cannot overflow its own queue within one slice.
        yield_every = min(_YIELD_EVERY, self.queue_frames // 2)
        blocks = self.backpressure == "block"
        buffer = bytearray()
        unyielded = 0
        try:
            while not client.dropped:
                bodies, consumed = _split_frames(buffer)
                if not consumed:
                    chunk = await reader.read(_READ_BYTES)
                    if not chunk:
                        break
                    buffer += chunk
                    continue
                del buffer[:consumed]
                client.last_active = time.monotonic()
                for body in bodies:
                    message = decode_frame(body)
                    if blocks:
                        views = ()
                        if message.get("op") == "publish":
                            views = self.tap.affected(message.get("relation"))
                        if self._full(client, views):
                            await self._room(client, views)
                            if client.dropped:
                                break
                    self._dispatch(client, message)
                    if client.dropped:
                        break
                    unyielded += 1
                    if unyielded == yield_every:
                        unyielded = 0
                        await asyncio.sleep(0)
            # A clean close leaves nothing buffered; a client dying
            # mid-frame leaves a torn length prefix or body.  Both are
            # reaped quietly — never propagated to the ingest path.
            if buffer and not client.dropped:
                _log.warning(
                    "%s disconnected mid-frame (%d bytes of a torn frame "
                    "discarded)",
                    client.name,
                    len(buffer),
                )
        except OSError as exc:
            _log.info("%s connection lost: %s", client.name, exc)
        except ServingError as exc:
            # Malformed framing (oversized length prefix, undecodable
            # body): let the writer flush the replies to the frames
            # before it, tell the client directly — its queue may be
            # full — then reap it.
            _log.warning("%s sent a malformed frame: %s", client.name, exc)
            await asyncio.sleep(0)
            try:
                writer.write(encode_frame({"type": "error", "message": str(exc)}))
            except Exception:
                pass
        finally:
            if not client.dropped:
                for view in client.views:
                    self._subscribers.get(view, set()).discard(client)
                self._clients.discard(client)
                client.drained.set()  # no step waits on a departed client
                if len(client.queue) < self.queue_frames:
                    self._enqueue(client, _CLOSE)
                else:
                    client.writer_task.cancel()
                await asyncio.gather(client.writer_task, return_exceptions=True)

    def _dispatch(self, client: _ClientState, message: dict) -> None:
        op = message.get("op")
        if op == "publish":
            self._op_publish(client, message)
        elif op == "subscribe":
            self._op_subscribe(client, message)
        elif op == "unsubscribe":
            view = message.get("view")
            client.views.discard(view)
            self._subscribers.get(view, set()).discard(client)
            self._reply(
                client,
                {"type": "unsubscribed", "view": view, "lsn": self.tap.lsn},
            )
        elif op == "ping":
            self._reply(client, {"type": "pong", "lsn": self.tap.lsn})
        else:
            self._reply(
                client,
                {"type": "error", "message": f"unknown protocol op {op!r}"},
            )

    def _op_subscribe(self, client: _ClientState, message: dict) -> None:
        view = message.get("view")
        from_lsn = message.get("from_lsn")
        if from_lsn is not None and not isinstance(from_lsn, int):
            self._reply(
                client,
                {
                    "type": "error",
                    "message": f"from_lsn must be an integer, got {from_lsn!r}",
                },
            )
            return
        # Snapshot (or resume replay) and registration are one step, so
        # the subscriber's stream is exactly "catch-up at LSN, then
        # every delta with a greater LSN".
        try:
            if from_lsn is None:
                lsn, rows = self.tap.snapshot(view)
            else:
                records = self._resume_records(view, from_lsn)
        except ServingError as exc:
            self._reply(client, {"type": "error", "message": str(exc)})
            return
        if from_lsn is not None:
            if records is None:
                # The suffix past from_lsn is unreachable (history
                # evicted, WAL truncated or absent): the client must
                # fall back to snapshot-then-stream.
                self._reply(
                    client,
                    {
                        "type": "resume_gap",
                        "view": view,
                        "requested_lsn": from_lsn,
                        "lsn": self.tap.lsn,
                    },
                )
                return
            client.views.add(view)
            self._subscribers[view].add(client)
            self._reply(
                client,
                {
                    "type": "resumed",
                    "view": view,
                    "lsn": self.tap.lsn,
                    "from_lsn": from_lsn,
                    "replayed": len(records),
                },
            )
            for record in records:
                if self._enqueue(client, record):
                    self.deltas_sent += 1
            return
        client.views.add(view)
        self._subscribers[view].add(client)
        self._reply(
            client, {"type": "snapshot", "view": view, "lsn": lsn, "rows": rows}
        )

    # -- resume-from-LSN ----------------------------------------------------

    def _resume_records(
        self, view: str, from_lsn: int
    ) -> Optional[list[_Delta]]:
        """The delta records for ``view`` past ``from_lsn``, or ``None``
        when that suffix is unreachable (the ``resume_gap`` answer).

        Served from the in-memory history ring when ``from_lsn`` is at
        or above the ring's floor, else rebuilt from the WAL on a
        durable engine (snapshot + suffix shadow replay).
        """
        if view not in self._history:
            raise ServingError(
                f"unknown view {view!r}; this server serves: "
                + ", ".join(self.tap.views)
            )
        if from_lsn > self.tap.lsn:
            # A position from this server's future: its state was lost
            # (non-durable restart) — the client must re-snapshot.
            return None
        if from_lsn >= self._history_floor[view]:
            return [
                record
                for record in self._history[view]
                if record.lsn > from_lsn
            ]
        return self._wal_resume_records(view, from_lsn)

    def _wal_resume_records(
        self, view: str, from_lsn: int
    ) -> Optional[list[_Delta]]:
        """Rebuild the delta suffix past ``from_lsn`` from durable state.

        Reads the engine's log from the newest snapshot at or below
        ``from_lsn`` (:meth:`~repro.runtime.durability.DurableEngine.read_log`),
        replays it into a *shadow* engine
        (:func:`~repro.runtime.durability.restore_and_replay`, the
        recovery path), and taps the replay from the ``from_lsn``
        boundary onward — the same LSN-stamped deltas the live tap
        emitted, recomputed from disk.  Returns ``None`` when the engine
        is not durable or the WAL no longer reaches back to ``from_lsn``.
        """
        engine = self.engine
        if not isinstance(engine, DurableEngine):
            return None
        # Any engine flavour replays to the same results; a plain
        # non-strict DeltaEngine is the cheapest shadow.
        shadow = DeltaEngine(engine.program, strict=False)
        tap: Optional[ViewDeltaTap] = None
        records: list[_Delta] = []
        ts = time.time()

        def apply(lsn: int, batch) -> None:
            nonlocal tap
            if tap is None and lsn > from_lsn:
                # Construct the tap at the resume boundary so its
                # cached baseline is the state as of from_lsn.
                tap = ViewDeltaTap(shadow, [view])
            shadow._process_batch(batch)
            if tap is None:
                return
            changes = tap.on_batch(lsn, batch).get(view)
            if changes:
                records.append(
                    _delta_record(view, lsn, ts, changes, "replayed")
                )

        try:
            restore_and_replay(shadow, *engine.read_log(max_lsn=from_lsn), apply)
        except ResumeGapError:
            return None
        return records

    def _op_publish(self, client: _ClientState, message: dict) -> None:
        """A network publish: the batch, its fan-out and the ``ack``."""
        try:
            relation = message["relation"]
            sign = message.get("sign", 1)
            rows = [tuple(row) for row in message["rows"]]
        except (KeyError, TypeError) as exc:
            self._reply(
                client,
                {"type": "error", "message": f"malformed publish frame: {exc}"},
            )
            return
        engine = self.engine
        try:
            if engine._log is None:  # a log step checks the values itself
                check_values(engine.program, relation, rows)
            count = engine.process_batch(relation, sign, rows)
        except EventError as exc:
            self._reply(client, {"type": "error", "message": str(exc)})
            return
        self._enqueue(client, _ack_frame(self.tap.lsn, count))


# ---------------------------------------------------------------------------
# Thread-hosted server (for synchronous callers: tests, benchmarks, CLI)
# ---------------------------------------------------------------------------


class ServerThread:
    """Runs a :class:`ViewServer` on a private event loop in a daemon
    thread, for synchronous callers::

        with ServerThread(engine) as handle:
            client = SubscriberClient(handle.host, handle.port)
            ...

    The engine must not be used from other threads while the server is
    running — all processing goes through the server's serialised ingest
    (network ``publish`` frames or :meth:`publish` /
    :meth:`publish_stream`, which hop onto the loop thread).
    """

    def __init__(self, engine, **server_kwargs) -> None:
        self.server = ViewServer(engine, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise ServingError("server thread already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # surfaced to start() below
                failure.append(exc)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-view-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            # Leave the instance inert (as if never started): stop()
            # stays a no-op and start() may be retried — e.g. rebinding
            # a just-released port during a restart-in-place.
            self._thread.join()
            self._loop.close()
            self._loop = None
            self._thread = None
            raise failure[0]
        return self

    def publish(self, relation: str, sign: int, rows) -> tuple[int, int]:
        """In-process ingest: apply one batch on the loop thread."""
        return self._call(self.server.publish(relation, sign, list(rows)))

    def publish_stream(self, events, batch_size: Optional[int] = None) -> int:
        """In-process ingest of a whole stream (grouped into batches)."""
        return self._call(
            self.server.publish_stream(list(events), batch_size=batch_size)
        )

    def _call(self, coroutine):
        if self._loop is None:
            raise ServingError("server thread is not running")
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    def stop(self) -> None:
        if self._loop is None:
            return
        self._call(self.server.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# The blocking subscriber client
# ---------------------------------------------------------------------------


class SubscriberClient:
    """A small blocking client of the framed subscription protocol.

    Intended for tests, examples and benchmark drivers (a production
    reader would speak the protocol asynchronously)::

        client = SubscriberClient(host, port)
        snapshot = client.subscribe("q")
        rows = rows_from_snapshot(snapshot)        # Counter of row tuples
        while ...:
            message = client.recv()
            if message["type"] == "delta":
                apply_changes(rows, message["changes"])

    Frames arrive strictly in server order; :meth:`publish`,
    :meth:`subscribe`, :meth:`ping` and :meth:`unsubscribe` wait for
    their reply frame while buffering any interleaved deltas, which
    later :meth:`recv` calls return first-in-first-out.  Server
    ``error`` frames raise :class:`~repro.errors.ServingError`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        # A forked shard worker must not inherit this connection: its
        # duplicate fd would keep the connection open after close(), so
        # the server would never see the disconnect.
        _isolate_from_forks(self._sock)
        self._buffer = bytearray()  # received, not yet framed
        self._bodies: deque[bytes] = deque()  # framed, not yet returned
        self._pending: deque[dict] = deque()
        self._closed = False

    # -- framing ------------------------------------------------------------

    def _send(self, message: Mapping) -> None:
        if self._closed:
            raise ServingError("client is closed")
        self._sock.sendall(encode_frame(message))

    def _recv_frame(self) -> dict:
        while not self._bodies:
            bodies, consumed = _split_frames(self._buffer)
            if consumed:
                del self._buffer[:consumed]
                self._bodies.extend(bodies)
                continue
            chunk = self._sock.recv(_READ_BYTES)
            if not chunk:
                raise ServingError("server closed the connection")
            self._buffer += chunk
        message = decode_frame(self._bodies.popleft())
        if message.get("type") == "delta":
            message["changes"] = _tuple_changes(message["changes"])
        elif message.get("type") == "snapshot":
            message["rows"] = _tuple_changes(message["rows"])
        return message

    # -- requests -----------------------------------------------------------

    def recv(self) -> dict:
        """The next server frame (buffered frames first), rows tupled."""
        if self._pending:
            return self._pending.popleft()
        return self._recv_frame()

    def _wait_for(self, frame_type, view: Optional[str] = None) -> dict:
        types = (
            (frame_type,) if isinstance(frame_type, str) else tuple(frame_type)
        )
        while True:
            message = self._recv_frame()
            if message.get("type") == "error":
                raise ServingError(message.get("message", "server error"))
            if message.get("type") == "timeout":
                raise ServingError(
                    message.get("message", "evicted by server idle timeout")
                )
            if message.get("type") in types and (
                view is None or message.get("view") == view
            ):
                return message
            self._pending.append(message)

    def subscribe(self, view: str, from_lsn: Optional[int] = None) -> dict:
        """Subscribe; returns the catch-up frame.

        A plain subscribe returns the ``snapshot`` frame.  With
        ``from_lsn``, the server resumes the delta stream past that LSN
        instead of re-snapshotting: the return is either the ``resumed``
        header (the replayed deltas follow as ordinary ``delta``
        frames), or the ``resume_gap`` frame when the server can no
        longer reach that suffix — the caller then falls back to a
        plain subscribe.
        """
        if from_lsn is None:
            self._send({"op": "subscribe", "view": view})
            return self._wait_for("snapshot", view)
        self._send({"op": "subscribe", "view": view, "from_lsn": from_lsn})
        return self._wait_for(("resumed", "resume_gap"), view)

    def unsubscribe(self, view: str) -> dict:
        self._send({"op": "unsubscribe", "view": view})
        return self._wait_for("unsubscribed", view)

    def publish(self, relation: str, sign: int, rows: Iterable[Sequence]) -> dict:
        """Push one batch; returns the ``ack`` frame (``lsn``, ``count``)."""
        self._send(
            {
                "op": "publish",
                "relation": relation,
                "sign": sign,
                "rows": [list(row) for row in rows],
            }
        )
        return self._wait_for("ack")

    def ping(self) -> int:
        """Round-trip barrier; returns the server's current LSN.

        Because all frames to this client flow through one ordered
        queue, the returned pong also guarantees every delta fanned out
        before it has been delivered.
        """
        self._send({"op": "ping"})
        return self._wait_for("pong")["lsn"]

    def drain_deltas(self, view: str, until_lsn: int) -> list[dict]:
        """Receive until a frame for ``view`` reaches ``until_lsn``.

        Returns the delta frames for ``view`` (other views' frames stay
        buffered).  A ping barrier makes ``until_lsn`` reachable even
        when the final batch changed nothing for this view.
        """
        deltas: list[dict] = []
        barrier = self.ping()
        if barrier < until_lsn:
            raise ServingError(
                f"server LSN {barrier} has not reached {until_lsn}"
            )
        while self._pending:
            message = self._pending.popleft()
            if message.get("type") == "delta" and message.get("view") == view:
                deltas.append(message)
        return deltas

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SubscriberClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def rows_from_snapshot(snapshot: Mapping) -> Counter:
    """The row multiset a ``snapshot`` frame carries, as a Counter."""
    return Counter({row: weight for row, weight in snapshot["rows"]})


# ---------------------------------------------------------------------------
# The self-healing subscriber
# ---------------------------------------------------------------------------


#: A reconnect waits its backoff delay scaled by up to ``1 + BACKOFF_JITTER``.
BACKOFF_JITTER = 0.5

#: :class:`ReconnectingSubscriber`'s budget of consecutive failed connects
#: and its backoff, ``_BACKOFF_BASE * 2**attempt`` seconds capped at
#: ``_BACKOFF_MAX`` (read at each connect, so a test may patch them).
_MAX_RECONNECTS = 8
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0


class ReconnectingSubscriber:
    """A :class:`SubscriberClient` wrapper that survives its server.

    The client half of the fault-tolerance contract, for one view:

    * **auto-reconnect** — a lost connection (server restart, network
      fault, idle eviction) is retried with exponential backoff plus
      jitter, up to ``_MAX_RECONNECTS`` *consecutive* failures (the
      budget resets on every successful connect);
    * **resume-from-LSN** — reconnects subscribe with
      ``from_lsn=<last delivered LSN>``, so the server replays exactly
      the missed suffix instead of re-snapshotting;
    * **idempotent delivery** — delta frames at or below the last
      delivered LSN (duplicates straddling a crash) are discarded, so a
      flapping server yields the same recorded delta sequence as a
      stable one;
    * **gap fallback** — on ``resume_gap`` the subscriber re-snapshots
      and records one synthetic bridging delta (marked
      ``"synthesized": True``; omitted when nothing was actually
      missed), keeping :attr:`rows` correct even past a truncated WAL.

    :attr:`rows` is the live row multiset, :attr:`deltas` the
    deduplicated delta log; :meth:`pump_until` drives the receive loop
    (reconnecting through failures) until the server's LSN reaches a
    target and every delta up to it is recorded.
    """

    def __init__(
        self,
        host: str,
        port: int,
        view: str,
        timeout: float = 30.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.view = view
        self.timeout = timeout
        self._rng = rng if rng is not None else random.Random()
        self.rows: Counter = Counter()
        self.deltas: list[dict] = []
        self.last_lsn: Optional[int] = None
        self.reconnects = 0
        self.resume_gaps = 0
        self._client: Optional[SubscriberClient] = None
        self._connect()

    # -- connection management ----------------------------------------------

    def _backoff(self, attempt: int) -> float:
        delay = min(_BACKOFF_MAX, _BACKOFF_BASE * (2 ** attempt))
        return delay * (1.0 + BACKOFF_JITTER * self._rng.random())

    def _connect(self) -> None:
        """(Re)establish the subscription, resuming past ``last_lsn``."""
        failures = 0
        while True:
            if self._client is not None:
                self._client.close()
                self._client = None
            try:
                client = SubscriberClient(
                    self.host, self.port, timeout=self.timeout
                )
                if self.last_lsn is None:
                    reply = client.subscribe(self.view)
                    self.rows = rows_from_snapshot(reply)
                    self.last_lsn = reply["lsn"]
                else:
                    reply = client.subscribe(self.view, from_lsn=self.last_lsn)
                    if reply["type"] == "resume_gap":
                        self.resume_gaps += 1
                        _log.info(
                            "resume gap for %r past LSN %s: re-snapshotting",
                            self.view,
                            self.last_lsn,
                        )
                        self._bridge(client.subscribe(self.view))
            except (ServingError, OSError) as exc:
                failures += 1
                if failures > _MAX_RECONNECTS:
                    raise ServingError(
                        f"reconnect budget exhausted ({_MAX_RECONNECTS} "
                        f"consecutive failures) for view {self.view!r}: {exc}"
                    ) from exc
                time.sleep(self._backoff(failures - 1))
                continue
            self._client = client
            return

    def _bridge(self, snapshot: Mapping) -> None:
        """Fold a fallback snapshot in as one synthetic catch-up delta."""
        target = rows_from_snapshot(snapshot)
        changes = result_delta(self.rows, target)
        if changes:
            apply_changes(self.rows, changes)
            self.deltas.append(
                {
                    "type": "delta",
                    "view": self.view,
                    "lsn": snapshot["lsn"],
                    "synthesized": True,
                    "changes": changes,
                }
            )
        self.last_lsn = snapshot["lsn"]

    def _record(self, frame: dict) -> bool:
        """Deliver one delta frame exactly once (duplicates discarded)."""
        lsn = frame.get("lsn", 0)
        if self.last_lsn is not None and lsn <= self.last_lsn:
            return False
        apply_changes(self.rows, frame["changes"])
        self.deltas.append(frame)
        self.last_lsn = lsn
        return True

    def _drain_pending(self) -> None:
        client = self._client
        while client._pending:
            message = client._pending.popleft()
            if (
                message.get("type") == "delta"
                and message.get("view") == self.view
            ):
                self._record(message)

    # -- receiving ----------------------------------------------------------

    def pump_until(self, lsn: int, deadline: float = 60.0) -> None:
        """Receive (reconnecting through failures) until the server's
        LSN reaches ``lsn`` and every delta at or below it is recorded."""
        end = time.monotonic() + deadline
        while True:
            try:
                barrier = self._client.ping()
                self._drain_pending()
                if barrier >= lsn:
                    return
            except (ServingError, OSError):
                self.reconnects += 1
                self._connect()
            if time.monotonic() > end:
                raise ServingError(
                    f"server did not reach LSN {lsn} within {deadline:g}s"
                )
            time.sleep(0.01)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def __enter__(self) -> "ReconnectingSubscriber":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
