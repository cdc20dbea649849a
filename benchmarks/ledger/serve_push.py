"""serve-push: the event's whole life, publish frame to subscriber socket.

The server is a **subprocess** (``python -m repro.tools.cli serve``); this
process holds exactly two connections, a publisher and a subscriber,
multiplexed on one thread.  One event per publish frame.

* Pass B — **saturation**, a closed loop: the publisher keeps at most 64
  frames in flight; the clock stops when the subscriber has applied the
  last delta.  ``events_per_s`` is the median of ~25 such passes of 1200
  frames; with ``--trace 0`` nothing else runs.
* Pass A — **open loop at 1500 events/s** (~45% of saturation): every
  frame has a due time fixed before the pass; delivery is timed from that
  *due* time to the receipt of the delta carrying the frame's LSN (taken
  from the in-order acks), so a stall is charged to every frame queued
  behind it.  Its latencies are per-layer metrics, so it runs (before
  each pass B, over the same continuous feed) only with ``--trace 1``.

Serving (framing, JSON, the tap's re-render and diff, asyncio queues,
sockets) is ~95% of the work, which is why the binary-codec roadmap item
shows here and not on finance-event.

The traced pass is in-process (no subprocess, no sockets): it drives
``decode_frame -> engine.process_batch -> tap.on_batch -> encode_frame ->
decode_frame + apply_changes`` itself, one trace id per publish frame.
``serving.loop_us`` is what remains of pass B's per-frame service time
after those stages: the event loop, queues and sockets.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

from repro import DeltaEngine, compile_sql
from repro.runtime.serving import (
    ViewDeltaTap,
    apply_changes,
    decode_frame,
    encode_frame,
)
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import ORDER_BOOK_DDL, OrderBookGenerator

from benchmarks.ledger import stats
from benchmarks.ledger.common import (
    REPO,
    Outcome,
    note_host,
    per_reference_second,
    rounds,
    summarize,
    traced_section,
)
from benchmarks.ledger.oracle import SqliteOracle, mismatches, net_live_rows
from benchmarks.ledger.spans import patched

NAME = "serve-push"
QUERY = "bsp"
VIEW = "q"  # the CLI serves its one query under this name

#: Pass A's rate: about 45% of what pass B sustains on the reference host
#: (~3.5k events/s), so the queue is short but never empty for long.
OPEN_LOOP_RATE = 1500.0
IN_FLIGHT = 64  # unacknowledged frames in pass B

PASS_A_FRAMES = 900  # 0.6 s at the open-loop rate
PASS_B_FRAMES = 1_200  # ~0.35 s at saturation
TRACED_FRAMES = 6_000

_LENGTH = struct.Struct(">I")
_clock = time.perf_counter


def _scaled(count: int, smoke: bool) -> int:
    return count // 10 if smoke else count


class Wire:
    """One non-blocking framed connection: bytes out, parsed frames in."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outgoing = bytearray()
        self.incoming = bytearray()

    def queue(self, frame: bytes) -> None:
        self.outgoing += frame

    def flush(self) -> None:
        while self.outgoing:
            try:
                sent = self.sock.send(self.outgoing)
            except BlockingIOError:
                return
            del self.outgoing[:sent]

    def read_frames(self) -> list[dict]:
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.incoming += chunk
        frames = []
        data = self.incoming
        offset = 0
        while len(data) - offset >= 4:
            (length,) = _LENGTH.unpack_from(data, offset)
            if len(data) - offset - 4 < length:
                break
            frames.append(decode_frame(bytes(data[offset + 4 : offset + 4 + length])))
            offset += 4 + length
        del data[:offset]
        return frames

    def close(self) -> None:
        self.sock.close()


@dataclass
class Client:
    """The two multiplexed connections and what arrived on them."""

    publisher: Wire
    subscriber: Wire
    selector: selectors.BaseSelector
    rows: Counter = field(default_factory=Counter)
    acks: list = field(default_factory=list)  # ack lsn per publish, in order
    delta_at: dict = field(default_factory=dict)  # lsn -> receipt time
    pongs: int = 0
    errors: int = 0
    short_acks: int = 0  # acks whose count was not 1 (an event was skipped)

    def pump(self, timeout: float) -> None:
        """Write what is queued, wait up to ``timeout`` for input, and
        file every frame that arrived."""
        self.publisher.flush()
        self.subscriber.flush()
        if timeout > 0 or not (self.publisher.outgoing or self.subscriber.outgoing):
            self.selector.select(max(0.0, timeout))
        for frame in self.publisher.read_frames():
            if frame.get("type") == "ack":
                self.acks.append(frame["lsn"])
                self.short_acks += frame["count"] != 1
            else:
                self.errors += 1
        now = _clock()
        for frame in self.subscriber.read_frames():
            kind = frame.get("type")
            if kind == "delta":
                self.delta_at[frame["lsn"]] = now
                apply_changes(
                    self.rows, [(tuple(r), w) for r, w in frame["changes"]]
                )
            elif kind == "snapshot":
                apply_changes(self.rows, [(tuple(r), w) for r, w in frame["rows"]])
            elif kind == "pong":
                self.pongs += 1
            else:
                self.errors += 1

    def drain(self, acked: int, deadline: float = 60.0) -> None:
        """Wait until ``acked`` publishes are acknowledged and every delta
        they caused has reached the subscriber.  Deltas are queued to the
        subscriber before the ack is queued to the publisher, and each
        connection is FIFO, so a ping sent after the last ack is answered
        after the last delta."""
        limit = _clock() + deadline
        while len(self.acks) + self.errors < acked:
            if _clock() > limit:
                raise TimeoutError("publishes left unacknowledged")
            self.pump(0.05)
        wanted = self.pongs + 1
        self.subscriber.queue(encode_frame({"op": "ping"}))
        while self.pongs < wanted:
            if _clock() > limit:
                raise TimeoutError("subscriber never answered the ping")
            self.pump(0.05)

    def close(self) -> None:
        self.selector.close()
        self.publisher.close()
        self.subscriber.close()


@dataclass
class State:
    stream: Iterator  # the seeded order-book feed, endless
    catalog: object
    smoke: bool
    feed: list = field(default_factory=list)  # every event published so far
    server: Optional[subprocess.Popen] = None
    client: Optional[Client] = None

    def next_frames(self, count: int) -> list[bytes]:
        """Draw the feed's next ``count`` events; one publish frame each."""
        events = list(islice(self.stream, count))
        self.feed += events
        return [_publish_frame(event) for event in events]


def _publish_frame(event) -> bytes:
    return encode_frame({
        "op": "publish", "relation": event.relation, "sign": event.sign,
        "rows": [list(event.values)],
    })


def _start_server() -> tuple[subprocess.Popen, int]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.tools.cli", "serve",
            "--schema", ORDER_BOOK_DDL, "--query", FINANCE_QUERIES[QUERY],
            "--port", "0",
        ],
        cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    while True:
        line = server.stdout.readline()
        if not line:
            server.wait()
            raise RuntimeError(f"server exited with {server.returncode} before serving")
        if line.startswith("-- serving view"):
            address = line.split(" on ", 1)[1].split()[0]
            return server, int(address.rsplit(":", 1)[1])


def _stop_server(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    server.stdout.close()


def setup(seed: int, smoke: bool) -> State:
    # One iterator for the whole run: a modification is a delete and an
    # insert, and ``events(n)`` drops the insert when ``n`` falls between.
    stream = OrderBookGenerator(seed=seed).events(1 << 62)
    state = State(stream, finance_catalog(), smoke)
    state.server, port = _start_server()
    try:
        publisher = Wire("127.0.0.1", port)
        subscriber = Wire("127.0.0.1", port)
        selector = selectors.DefaultSelector()
        selector.register(publisher.sock, selectors.EVENT_READ)
        selector.register(subscriber.sock, selectors.EVENT_READ)
        state.client = Client(publisher, subscriber, selector)
        subscriber.queue(encode_frame({"op": "subscribe", "view": VIEW}))
        state.client.drain(0)  # the snapshot precedes the pong
    except BaseException:
        teardown(state)  # never leave the server running
        raise
    return state


def teardown(state: State) -> None:
    if state.client is not None:
        state.client.close()
        state.client = None
    if state.server is not None:
        _stop_server(state.server)
        state.server = None


def _server_peak_rss_mb(server: subprocess.Popen) -> float:
    with open(f"/proc/{server.pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _open_loop(state: State, count: int) -> tuple[list, list]:
    """Pass A.  Returns (due time, send time) per frame."""
    client = state.client
    frames = state.next_frames(count)
    due = stats.due_times(count, OPEN_LOOP_RATE, _clock() + 0.01)
    sent_at: list[float] = []
    while len(sent_at) < count:
        now = _clock()
        ready = stats.frames_due(due, now)
        for index in range(len(sent_at), ready):
            client.publisher.queue(frames[index])
            sent_at.append(now)
        wait = due[ready] - _clock() if ready < count else 0.0
        client.pump(wait)
    client.drain(len(state.feed))
    return due, sent_at


def _saturate(state: State, count: int) -> float:
    """Pass B.  Returns the seconds from the first send until the
    subscriber has applied the last delta."""
    client = state.client
    frames = state.next_frames(count)
    first = len(state.feed) - count
    started = _clock()
    sent = 0
    while sent < count:
        window = IN_FLIGHT - (first + sent - len(client.acks) - client.errors)
        for _ in range(min(window, count - sent)):
            client.publisher.queue(frames[sent])
            sent += 1
        client.pump(0.05 if window <= 0 else 0.0)
    client.drain(len(state.feed))
    return _clock() - started


def _check(state: State, outcome: Outcome) -> None:
    client = state.client
    published = len(state.feed)
    outcome.attempted += published + 1
    outcome.fail(published - len(client.acks), "publishes never acknowledged")
    outcome.fail(client.errors, "error frames")
    outcome.fail(client.short_acks, "events skipped by the server")
    oracle = SqliteOracle(state.catalog)
    oracle.load_live(net_live_rows(state.feed))
    expected = oracle.rows(FINANCE_QUERIES[QUERY])
    oracle.close()
    outcome.fail(
        mismatches(client.rows.elements(), expected),
        "subscriber's accumulated rows differ from sqlite",
    )


def measure(state: State, seconds: float) -> Outcome:
    """Pass B alone: all the end-to-end metrics need."""
    return _measure(state, seconds, minimum=3, open_loop=False)[0]


def _measure(
    state: State, seconds: float, minimum: int, open_loop: bool
) -> tuple[Outcome, float]:
    """``(outcome, pass B's median rate per wall second)``.  A round is
    one pass B; ``open_loop`` puts a pass A, whose latencies only the
    per-layer listing reports, before each."""
    outcome = Outcome()
    client = state.client
    a_count = _scaled(PASS_A_FRAMES, state.smoke)
    b_count = _scaled(PASS_B_FRAMES, state.smoke)

    def one_round() -> dict:
        taken = {}
        if open_loop:
            first = len(state.feed)
            due, sent_at = _open_loop(state, a_count)
            acks = client.acks[first : first + a_count]
            receipt = [client.delta_at.get(lsn) for lsn in acks]
            taken["latency"] = stats.delivery_latencies(due, receipt)
            taken["late"] = stats.lateness(due, sent_at)
        taken["rate"] = b_count / _saturate(state, b_count)
        return taken

    samples, factors = rounds(one_round, seconds, minimum)
    outcome.metrics["events_per_s"] = summarize(
        outcome, "pass B", per_reference_second(samples["rate"], factors), " ev/s"
    )
    note_host(outcome, factors)
    outcome.metrics["peak_rss_mb"] = _server_peak_rss_mb(state.server)
    outcome.notes.append(
        f"pass B: {len(factors)} x {b_count} frames, {IN_FLIGHT} in flight"
    )
    if open_loop:
        latency = [seconds for taken in samples["latency"] for seconds in taken]
        late = [seconds for taken in samples["late"] for seconds in taken]
        outcome.metrics["e2e.delivery_p50_ms"] = 1e3 * stats.percentile(latency, 50.0)
        outcome.metrics["e2e.delivery_p99_ms"] = 1e3 * stats.supported_percentile(
            latency, 99.0
        )
        outcome.metrics["serving.gen_late_p99_ms"] = (
            1e3 * stats.supported_percentile(late, 99.0)
        )
        outcome.notes.append(
            f"pass A: {len(late)} frames at {OPEN_LOOP_RATE:.0f}/s, "
            f"{len(latency)} deliveries timed"
        )
    outcome.metrics["serving.deltas"] = float(len(client.delta_at))
    outcome.metrics["serving.empty_deltas"] = float(
        len(client.acks) - len(client.delta_at)
    )
    _check(state, outcome)
    return outcome, stats.median(samples["rate"])


# -- the traced pass: the same stages, in process ---------------------------------


def _in_process(state: State, bodies: list, recorder=None) -> tuple[Counter, dict]:
    """One publish frame's life without sockets: decode, apply, tap,
    encode the delta, decode and apply it on the "client"."""
    program = compile_sql(FINANCE_QUERIES[QUERY], state.catalog, name=VIEW)
    engine = DeltaEngine(program)
    tap = ViewDeltaTap(engine)
    staged: list = []
    engine.add_batch_listener(
        lambda lsn, batch: staged.append((lsn, tap.on_batch(lsn, batch)))
    )
    rows: Counter = Counter(engine.results(VIEW))
    counts = {"deltas": 0, "empty": 0, "bytes": 0}

    def receive(wire: bytes) -> None:  # the subscriber's side of one delta
        changes = decode_frame(wire[4:])["changes"]
        apply_changes(rows, [(tuple(row), weight) for row, weight in changes])

    decode, encode, process = decode_frame, encode_frame, engine.process_batch
    if recorder is not None:
        decode = recorder.wrap(decode, "serving.decode")
        encode = recorder.wrap(encode, "serving.encode")
        process = recorder.wrap(process, "engine.batch")
        receive = recorder.wrap(receive, "serving.client_apply")
    for body in bodies:
        if recorder is not None:
            recorder.new_trace()
        message = decode(body)
        process(
            message["relation"], message["sign"],
            [tuple(row) for row in message["rows"]],
        )
        for lsn, deltas in staged:
            changes = deltas.get(VIEW)
            if not changes:
                counts["empty"] += 1
                continue
            wire = encode({
                "type": "delta", "view": VIEW, "lsn": lsn, "ts": 0.0,
                "changes": [[list(row), weight] for row, weight in changes],
            })
            counts["deltas"] += 1
            counts["bytes"] += len(wire)
            receive(wire)
        staged.clear()
    return rows, counts


def trace(state: State, seconds: float, recorder) -> Outcome:
    outcome, wall_rate = _measure(state, seconds / 2, minimum=1, open_loop=True)
    service_us = 1e6 / wall_rate  # wall time, like the span times below

    events = state.feed[: _scaled(TRACED_FRAMES, state.smoke)]
    count = len(events)
    bodies = [_publish_frame(event)[4:] for event in events]
    started = _clock()
    _in_process(state, bodies)
    outcome.untraced_wall += _clock() - started
    with patched(recorder, [
        (ViewDeltaTap, "on_batch", "serving.tap"),
        (DeltaEngine, "results", "views.render"),
    ]):
        with traced_section(recorder, outcome):
            rows, counts = _in_process(state, bodies, recorder)
    outcome.attempted += count + 1
    oracle = SqliteOracle(state.catalog)
    oracle.load_live(net_live_rows(events))
    outcome.fail(
        mismatches(rows.elements(), oracle.rows(FINANCE_QUERIES[QUERY])),
        "in-process subscriber rows differ from sqlite",
    )
    oracle.close()

    own = recorder.self_by_name()
    metrics = outcome.metrics

    def mean_us(name: str) -> float:
        spans = recorder.durations(name)
        return 1e6 * sum(spans) / len(spans)

    def per_frame_us(name: str) -> float:
        return 1e6 * own.get(name, 0.0) / count

    metrics["serving.decode_us"] = mean_us("serving.decode")
    metrics["serving.tap_us"] = per_frame_us("serving.tap")
    metrics["views.render_us"] = per_frame_us("views.render")
    metrics["serving.encode_us"] = mean_us("serving.encode")
    metrics["serving.client_apply_us"] = mean_us("serving.client_apply")
    metrics["serving.frame_bytes"] = counts["bytes"] / counts["deltas"]
    metrics["engine.batch_us_per_event"] = per_frame_us("engine.batch")
    # What is left of the real server's per-frame service time (pass B)
    # after its in-process stages: the event loop, queues and sockets.
    server_side = sum(
        per_frame_us(name)
        for name in ("serving.decode", "engine.batch", "serving.tap",
                     "views.render", "serving.encode")
    )
    metrics["serving.loop_us"] = service_us - server_side
    # The dominance table's serve-push row: all of a frame's life but the
    # trigger is serving.
    metrics["serving.frame_share"] = 1.0 - per_frame_us("engine.batch") / service_us
    return outcome
