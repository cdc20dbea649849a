"""Units and end-to-end checks for the view-subscription serving layer.

Covers the frame codec, the result-delta algebra, the flush-path
:class:`~repro.runtime.serving.ViewDeltaTap`, the asyncio
:class:`~repro.runtime.serving.ViewServer` with its blocking
:class:`~repro.runtime.serving.SubscriberClient` (snapshot-then-stream
parity, late joiners, protocol errors), the three backpressure policies,
and serving over sharded and durable engines (where delivered LSNs are
the WAL's).  The cross-engine streaming property lives in
``test_serving_property.py``; the CI smoke entry point is
``serving_smoke.py``.
"""

import asyncio
import math
import os
from collections import Counter
from functools import lru_cache
from itertools import islice

import pytest

from repro.algebra.translate import eval_result, translate_sql
from repro.compiler import compile_queries, compile_sql
from repro.errors import ServingError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.durability import DurableEngine
from repro.runtime.engine import Engine, engine_state
from repro.runtime.events import EventBatch, batches
from repro.runtime.serving import (
    ServerThread,
    SubscriberClient,
    ViewDeltaTap,
    ViewServer,
    _ClientState,
    _ack_frame,
    _delta_record,
    _split_frames,
    apply_changes,
    decode_frame,
    encode_frame,
    rows_from_snapshot,
)
from repro.runtime.storage import RecordingDict
from repro.runtime.views import GroupRenderer, result_delta, result_map_names
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog, warehouse_stream
from repro.workloads.tpch import TpchGenerator
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
"""


def _program(query="SELECT A, sum(B) FROM R GROUP BY A"):
    return compile_sql(query, Catalog.from_script(CATALOG_DDL), name="q")


def _two_view_program():
    catalog = Catalog.from_script(CATALOG_DDL)
    return compile_queries(
        [
            translate_sql("SELECT A, sum(B) FROM R GROUP BY A", catalog, name="qr"),
            translate_sql("SELECT B, sum(C) FROM S GROUP BY B", catalog, name="qs"),
        ],
        catalog,
    )


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def test_frame_codec_round_trips():
    message = {"op": "publish", "relation": "R", "rows": [[1, 2.5], [0, -3]]}
    frame = encode_frame(message)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == message


def test_frame_codec_rejects_garbage():
    with pytest.raises(ServingError):
        decode_frame(b"\xff\xfe not json")
    with pytest.raises(ServingError):
        decode_frame(b"[1, 2, 3]")  # valid JSON, not an object


@pytest.mark.parametrize(
    "body, complaint",
    [
        (b'{"op": "p\xc3ng"}', "undecodable"),  # a torn UTF-8 sequence
        (b'{"op": "ping",', "undecodable"),  # a torn JSON object
        (b'"ping"', "must be a JSON object"),
    ],
    ids=["invalid-utf8", "invalid-json", "non-object"],
)
def test_decode_frame_raises_serving_error(body, complaint):
    with pytest.raises(ServingError, match=complaint):
        decode_frame(body)


_TEMPLATED_DELTAS = [
    ("q", 7, 1760000000.25, [((1, 10), 1)], None),
    ("q", 8, 0.1, [((1, 10), -1), ((1, 15), 1)], "replayed"),
    ("q", 9, 1e22, [((2, 2.5), -3), (("x", -1.0, 3), 2)], "coalesced"),
    ("wide view", 2**40, 1e-07, [((1, 2, 3, 4), -1), ((-5, 0.5), 2.5)], None),
    ("q", 1, 12.0, [((), 1)], None),
]


@pytest.mark.parametrize("view, lsn, ts, changes, flag", _TEMPLATED_DELTAS)
def test_templated_delta_frame_is_encode_frame(view, lsn, ts, changes, flag):
    message = {"type": "delta", "view": view, "lsn": lsn, "ts": ts}
    if flag is not None:
        message[flag] = True
    message["changes"] = changes
    assert _delta_record(view, lsn, ts, changes, flag).wire == encode_frame(message)


@pytest.mark.parametrize("lsn, count", [(0, 0), (1, 1), (123456789, 17)])
def test_templated_ack_frame_is_encode_frame(lsn, count):
    expected = encode_frame({"type": "ack", "lsn": lsn, "count": count})
    assert _ack_frame(lsn, count) == expected


# ---------------------------------------------------------------------------
# Delta algebra helpers
# ---------------------------------------------------------------------------


def test_result_delta_asserts_and_retracts():
    previous = Counter({(1, 10): 1, (2, 20): 2})
    current = Counter({(1, 15): 1, (2, 20): 1})
    delta = result_delta(previous, current)
    assert apply_changes(Counter(previous), delta) == current
    assert dict(delta) == {(1, 10): -1, (1, 15): 1, (2, 20): -1}


def test_apply_changes_evicts_zero_rows():
    rows = Counter({(1,): 1})
    apply_changes(rows, [((1,), -1), ((2,), 1)])
    assert dict(rows) == {(2,): 1}


# ---------------------------------------------------------------------------
# The flush-path delta tap
# ---------------------------------------------------------------------------


def test_tap_rejects_unknown_view():
    engine = DeltaEngine(_program())
    with pytest.raises(ServingError, match="unknown view"):
        ViewDeltaTap(engine, views=["nope"])
    tap = ViewDeltaTap(engine)
    with pytest.raises(ServingError, match="unknown view"):
        tap.snapshot("nope")


def test_tap_snapshot_then_deltas_reproduce_results():
    engine = DeltaEngine(_program())
    engine.process_batch("R", 1, [(1, 10), (2, 20)])
    tap = ViewDeltaTap(engine)
    engine.add_batch_listener(tap.on_batch)
    lsn, rows = tap.snapshot("q")
    accumulated = Counter(dict(rows))
    deltas = []
    engine.add_batch_listener(
        lambda batch_lsn, batch: None  # second listener must not disturb
    )
    captured = []
    original = tap.on_batch
    engine.remove_batch_listener(original)

    def recording(batch_lsn, batch):
        captured.append((batch_lsn, original(batch_lsn, batch)))

    engine.add_batch_listener(recording)
    engine.process_batch("R", 1, [(1, 5)])
    engine.process_batch("R", -1, [(2, 20)])
    for batch_lsn, delta in captured:
        assert batch_lsn > lsn
        for changes in delta.values():
            apply_changes(accumulated, changes)
    assert accumulated == Counter(engine.results("q"))


def test_tap_renders_only_affected_views():
    engine = DeltaEngine(_two_view_program())
    tap = ViewDeltaTap(engine)
    assert tap.affected("R") == ("qr",)
    assert tap.affected("S") == ("qs",)
    engine.add_batch_listener(tap.on_batch)
    deltas = []
    engine.remove_batch_listener(tap.on_batch)
    engine.add_batch_listener(lambda lsn, b: deltas.append(tap.on_batch(lsn, b)))
    engine.process_batch("R", 1, [(1, 10)])
    assert list(deltas[-1]) == ["qr"]
    engine.process_batch("S", 1, [(7, 3)])
    assert list(deltas[-1]) == ["qs"]


def test_tap_serves_a_mixed_batch_to_the_views_of_either_sign():
    engine = DeltaEngine(_two_view_program())
    tap = ViewDeltaTap(engine)
    assert tap.affected("R") == ("qr",)
    deltas = []
    engine.add_batch_listener(lambda lsn, b: deltas.append(tap.on_batch(lsn, b)))
    engine.process_batch("R", [1, 1, -1], [(1, 10), (2, 20), (1, 10)])
    assert deltas == [{"qr": [((2, 20), 1)]}]
    engine.process_batch("R", [-1, 1], [(2, 20), (3, 30)])
    assert deltas[-1] == {"qr": [((2, 20), -1), ((3, 30), 1)]}


def test_tap_view_subset_restriction():
    engine = DeltaEngine(_two_view_program())
    tap = ViewDeltaTap(engine, views=["qs"])
    assert tap.views == ["qs"]
    assert tap.affected("R") == ()
    with pytest.raises(ServingError):
        tap.snapshot("qr")


# ---------------------------------------------------------------------------
# Server end-to-end (thread-hosted server, blocking client)
# ---------------------------------------------------------------------------


def test_subscribe_publish_delta_parity():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            snapshot = sub.subscribe("q")
            rows = rows_from_snapshot(snapshot)
            assert rows == Counter()
            with SubscriberClient(handle.host, handle.port) as publisher:
                ack1 = publisher.publish("R", 1, [(1, 10), (2, 20)])
                ack2 = publisher.publish("R", -1, [(2, 20)])
            assert ack2["lsn"] > ack1["lsn"]
            for frame in sub.drain_deltas("q", ack2["lsn"]):
                assert frame["lsn"] > snapshot["lsn"]
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))


def test_late_joiner_snapshot_then_stream():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        handle.publish("R", 1, [(1, 10), (2, 20)])
        with SubscriberClient(handle.host, handle.port) as late:
            snapshot = late.subscribe("q")
            rows = rows_from_snapshot(snapshot)
            # The snapshot already reflects the pre-subscription history.
            assert rows == Counter(engine.results("q"))
            _, lsn = handle.publish("R", 1, [(1, 5)])
            for frame in late.drain_deltas("q", lsn):
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))


def test_unsubscribe_stops_deltas():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            sub.subscribe("q")
            sub.unsubscribe("q")
            handle.publish("R", 1, [(1, 10)])
            lsn = sub.ping()
            assert lsn >= 1
            assert not sub._pending  # no delta slipped through after the pong


def test_protocol_errors_are_reported():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as client:
            with pytest.raises(ServingError, match="unknown view"):
                client.subscribe("nope")
            # The connection survives an error frame.
            client._send({"op": "warble"})
            message = client.recv()
            assert message["type"] == "error"
            assert "unknown protocol op" in message["message"]
            client._send({"op": "publish", "rows": [[1]]})  # no relation
            message = client.recv()
            assert message["type"] == "error"
            assert "malformed publish" in message["message"]
            # Rows of the wrong width and float or bool signs are refused
            # whole, with an error frame on the same connection.
            for sign, rows, refusal in (
                (1, [[1, 2, {}]], "2 columns; got a row of 3"),
                (1, [[1, 2], [1]], "2 columns; got a row of 1"),
                (1.0, [[1, 2]], "got 1.0"),
                (-1.0, [[1, 2], [3, 4]], "got -1.0"),
                (True, [[1, 2]], "got True"),
            ):
                client._send(
                    {"op": "publish", "relation": "R", "sign": sign, "rows": rows}
                )
                message = client.recv()
                assert message["type"] == "error"
                assert refusal in message["message"]
            assert client.subscribe("q")["lsn"] == 0
    assert engine.events_processed == 0


@pytest.mark.parametrize("durable", [False, True])
def test_a_published_value_no_column_takes_gets_an_error_frame(durable, tmp_path):
    """Values are checked where outside input enters, logged or not: the
    publisher gets an error frame naming the column, and its connection
    stays open."""
    engine = DurableEngine(_program(), tmp_path) if durable else DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as client:
            for rows, refusal in (
                ([[1, "x"]], "column 'B' is INT; got 'x'"),
                ([[1, 2], ["y", 2]], "column 'A' is INT; got 'y'"),
                ([[1, None]], "column 'B' is INT; got None"),
                ([[True, 2]], "column 'A' is INT; got True"),
                ([[1, 2.5]], "column 'B' is INT; got 2.5"),
            ):
                client._send({"op": "publish", "relation": "R", "rows": rows})
                message = client.recv()
                assert message["type"] == "error"
                assert f"relation 'R' {refusal}" in message["message"]
            assert client.subscribe("q")["lsn"] == 0
    assert engine.events_processed == 0
    engine.close()


def test_publish_stream_groups_batches():
    engine = DeltaEngine(_program())
    events = [StreamEvent("R", 1, (i % 3, i)) for i in range(20)]
    reference = DeltaEngine(_program())
    for event in events:
        reference.process(event)
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            snapshot = sub.subscribe("q")
            rows = rows_from_snapshot(snapshot)
            consumed = handle.publish_stream(events, batch_size=4)
            assert consumed == len(events)
            for frame in sub.drain_deltas("q", sub.ping()):
                apply_changes(rows, frame["changes"])
            assert rows == Counter(reference.results("q"))


def test_sharded_engine_serving_parity():
    program = _program()
    engine = ShardedEngine(program, shards=2)
    reference = DeltaEngine(program)
    events = [StreamEvent("R", 1, (i % 4, i)) for i in range(32)]
    for event in events:
        reference.process(event)
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            rows = rows_from_snapshot(sub.subscribe("q"))
            handle.publish_stream(events, batch_size=8)
            for frame in sub.drain_deltas("q", sub.ping()):
                apply_changes(rows, frame["changes"])
            assert rows == Counter(reference.results("q"))


def test_durable_engine_serves_wal_lsns(tmp_path):
    engine = DurableEngine(_program(), tmp_path, fsync="batch")
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            rows = rows_from_snapshot(sub.subscribe("q"))
            acks = [
                handle.publish("R", 1, [(1, 10)]),
                handle.publish("R", 1, [(2, 20)]),
                handle.publish("R", -1, [(1, 10)]),
            ]
            lsns = [lsn for _, lsn in acks]
            # Served LSNs are the durability LSNs: one WAL frame per
            # batch, strictly increasing, ending at the log's tail.
            assert lsns == sorted(lsns)
            assert lsns[-1] == engine._wal.last_lsn
            frames = sub.drain_deltas("q", lsns[-1])
            assert [frame["lsn"] for frame in frames] == lsns
            for frame in frames:
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))
    engine.close()


def test_server_rejects_bad_options():
    engine = DeltaEngine(_program())
    with pytest.raises(ServingError, match="backpressure"):
        ViewServer(engine, backpressure="panic")
    with pytest.raises(ServingError, match="queue_frames"):
        ViewServer(engine, queue_frames=1)


# ---------------------------------------------------------------------------
# Backpressure policies (event-loop level, no sockets)
# ---------------------------------------------------------------------------


def _decode_frames(data):
    """Every frame in ``data``, which must end on a frame boundary."""
    bodies, consumed = _split_frames(bytearray(data))
    assert consumed == len(data)
    return [decode_frame(body) for body in bodies]


class _LoopWriter:
    """An in-loop stand-in for a connection's StreamWriter: records what
    is written; while ``stalled`` its ``drain`` blocks, which is how a
    reader that stopped reading looks from the server."""

    transport = None

    def __init__(self, stalled=False):
        self.data = bytearray()
        self.writes = 0
        self.closed = False
        self._open = asyncio.Event()
        if not stalled:
            self._open.set()

    def get_extra_info(self, name):
        return None

    def write(self, data):
        self.data += data
        self.writes += 1

    async def drain(self):
        await self._open.wait()

    def resume(self):
        self._open.set()

    def close(self):
        self.closed = True

    def frames(self):
        return _decode_frames(self.data)


def _queued_frames(client):
    """Drain a client's send queue into decoded wire frames."""
    frames = []
    while client.queue:
        item = client.queue.popleft()
        frames += _decode_frames(getattr(item, "wire", item))
    return frames


def test_drop_policy_disconnects_slow_client():
    async def scenario():
        server = ViewServer(
            DeltaEngine(_program()), backpressure="drop", queue_frames=2
        )
        client = _ClientState(_LoopWriter(), name="slow")
        server._clients.add(client)
        server._subscribers["q"].add(client)
        client.views.add("q")
        for lsn in (1, 2):  # fill the bounded queue
            assert server._enqueue(client, _delta_record("q", lsn, 0.0, []))
        assert not server._enqueue(client, _delta_record("q", 3, 0.0, []))
        assert client.dropped
        assert client.writer.closed
        assert server.clients_dropped == 1
        assert client not in server._subscribers["q"]
        # Further deliveries to a dropped client are no-ops.
        assert not server._enqueue(client, _delta_record("q", 4, 0.0, []))

    asyncio.run(scenario())


def test_coalesce_policy_merges_queued_deltas():
    async def scenario():
        server = ViewServer(
            DeltaEngine(_program()), backpressure="coalesce", queue_frames=2
        )
        client = _ClientState(_LoopWriter(), name="laggy")
        server._enqueue(
            client, _delta_record("q", 1, 10.0, [((1, 10), 1), ((2, 20), 1)])
        )
        server._enqueue(
            client, _delta_record("q", 2, 11.0, [((1, 10), -1), ((1, 15), 1)])
        )
        # Queue is full: the third delta forces a merge of all three.
        assert server._enqueue(
            client, _delta_record("q", 3, 12.0, [((2, 20), -1), ((2, 25), 1)])
        )
        frames = _queued_frames(client)
        assert len(frames) == 1
        merged = frames[0]
        assert merged["coalesced"] is True
        assert merged["lsn"] == 3  # newest LSN wins...
        assert merged["ts"] == 10.0  # ...oldest timestamp is preserved
        rows = apply_changes(Counter(), [(tuple(r), w) for r, w in merged["changes"]])
        assert rows == Counter({(1, 15): 1, (2, 25): 1})

    asyncio.run(scenario())


def test_coalesce_preserves_non_delta_frames_in_order():
    async def scenario():
        server = ViewServer(
            DeltaEngine(_program()), backpressure="coalesce", queue_frames=2
        )
        client = _ClientState(_LoopWriter(), name="laggy")
        server._reply(client, {"type": "pong", "lsn": 1})
        server._enqueue(client, _delta_record("q", 2, 5.0, [((1, 1), 1)]))
        server._enqueue(client, _delta_record("q", 3, 6.0, [((1, 1), -1)]))
        # The pong survives; the two deltas cancelled out entirely.
        assert _queued_frames(client) == [{"type": "pong", "lsn": 1}]

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Resume-from-LSN (memory ring, WAL shadow replay, resume_gap)
# ---------------------------------------------------------------------------


def _collect(handle, client, until_lsn):
    frames = client.drain_deltas("q", until_lsn)
    return frames


def test_resume_from_memory_ring_replays_exact_suffix():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            sub.subscribe("q")
            for i in range(10):
                handle.publish("R", 1, [(i % 3, i)])
            deltas = sub.drain_deltas("q", sub.ping())
            mid = deltas[4]["lsn"]
            with SubscriberClient(handle.host, handle.port) as resumer:
                reply = resumer.subscribe("q", from_lsn=mid)
                assert reply["type"] == "resumed"
                assert reply["from_lsn"] == mid
                replayed = [resumer.recv() for _ in range(reply["replayed"])]
                want = [d for d in deltas if d["lsn"] > mid]
                assert [(f["lsn"], f["changes"]) for f in replayed] == [
                    (f["lsn"], f["changes"]) for f in want
                ]
                # The resumed subscriber is live: new deltas flow.
                _, lsn = handle.publish("R", 1, [(0, 100)])
                live = resumer.drain_deltas("q", lsn)
                assert live and live[-1]["lsn"] == lsn


def test_resume_at_current_lsn_replays_nothing():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        handle.publish("R", 1, [(1, 10)])
        with SubscriberClient(handle.host, handle.port) as sub:
            tip = sub.ping()
            reply = sub.subscribe("q", from_lsn=tip)
            assert reply["type"] == "resumed"
            assert reply["replayed"] == 0


def test_resume_from_wal_when_history_evicted(tmp_path):
    engine = DurableEngine(_program(), tmp_path, fsync="none")
    with ServerThread(engine, history_frames=2) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            sub.subscribe("q")
            for i in range(20):
                handle.publish("R", 1, [(i % 4, i)])
            deltas = sub.drain_deltas("q", sub.ping())
            early = deltas[2]["lsn"]
            # Far below the 2-frame ring floor: served from the WAL.
            assert early < handle.server._history_floor["q"]
            with SubscriberClient(handle.host, handle.port) as resumer:
                reply = resumer.subscribe("q", from_lsn=early)
                assert reply["type"] == "resumed"
                replayed = [resumer.recv() for _ in range(reply["replayed"])]
                want = [d for d in deltas if d["lsn"] > early]
                assert [(f["lsn"], f["changes"]) for f in replayed] == [
                    (f["lsn"], f["changes"]) for f in want
                ]
                assert all(f.get("replayed") for f in replayed)
    engine.close()


def test_resume_gap_on_non_durable_engine():
    engine = DeltaEngine(_program())
    with ServerThread(engine, history_frames=2) as handle:
        for i in range(10):
            handle.publish("R", 1, [(i, i)])
        with SubscriberClient(handle.host, handle.port) as sub:
            reply = sub.subscribe("q", from_lsn=1)
            assert reply["type"] == "resume_gap"
            assert reply["requested_lsn"] == 1
            # A gapped subscriber is NOT registered; the fallback
            # snapshot-then-stream subscribe works on the same socket.
            rows = rows_from_snapshot(sub.subscribe("q"))
            assert rows == Counter(engine.results("q"))


def test_resume_gap_after_wal_truncation(tmp_path, small_segments):
    engine = DurableEngine(_program(), tmp_path, fsync="none")
    with ServerThread(engine, history_frames=2) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            sub.subscribe("q")
            for i in range(30):
                handle.publish("R", 1, [(i % 4, i)])
            deltas = sub.drain_deltas("q", sub.ping())
            early = deltas[2]["lsn"]
            engine.snapshot()  # retires covered WAL segments
            assert engine.oldest_replayable_lsn() > early + 1
            with SubscriberClient(handle.host, handle.port) as resumer:
                reply = resumer.subscribe("q", from_lsn=early)
                assert reply["type"] == "resume_gap"
    engine.close()


def test_resume_from_the_future_is_a_gap():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        handle.publish("R", 1, [(1, 10)])
        with SubscriberClient(handle.host, handle.port) as sub:
            reply = sub.subscribe("q", from_lsn=999)
            assert reply["type"] == "resume_gap"


def test_resume_rejects_bad_from_lsn():
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            sub._send({"op": "subscribe", "view": "q", "from_lsn": "nope"})
            message = sub.recv()
            assert message["type"] == "error"
            assert "from_lsn" in message["message"]


def test_server_rejects_bad_resume_options():
    engine = DeltaEngine(_program())
    with pytest.raises(ServingError, match="history_frames"):
        ViewServer(engine, history_frames=-1)
    with pytest.raises(ServingError, match="idle_timeout"):
        ViewServer(engine, idle_timeout=0)


def test_tap_seeds_lsn_from_engine_clock(tmp_path):
    engine = DurableEngine(_program(), tmp_path, fsync="none")
    for i in range(5):
        engine.process_batch("R", 1, [(i, i)])
    # A tap over an already-running durable engine starts at the WAL
    # tip, not 0 — a restarted server keeps serving meaningful LSNs.
    tap = ViewDeltaTap(engine)
    assert tap.lsn == engine.lsn > 0
    engine.close()


# ---------------------------------------------------------------------------
# Idle timeout and torn-frame hardening
# ---------------------------------------------------------------------------


def test_idle_subscriber_evicted_with_timeout_frame():
    import time as _time

    engine = DeltaEngine(_program())
    with ServerThread(engine, idle_timeout=0.2) as handle:
        with SubscriberClient(handle.host, handle.port, timeout=5) as sub:
            sub.subscribe("q")
            _time.sleep(0.8)
            with pytest.raises(ServingError, match="evicted|closed"):
                # Either the buffered timeout frame raises, or the
                # closed socket does.
                sub.ping()
        assert handle.server.clients_timed_out == 1
        # An active client (pinging within the window) is never evicted.
        with SubscriberClient(handle.host, handle.port, timeout=5) as sub:
            sub.subscribe("q")
            for _ in range(6):
                _time.sleep(0.1)
                sub.ping()
        assert handle.server.clients_timed_out == 1


def test_torn_frame_mid_length_prefix_is_reaped_quietly():
    import socket as _socket
    import struct as _struct

    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        raw = _socket.create_connection((handle.host, handle.port))
        raw.sendall(b"\x00\x00")  # half a length prefix, then vanish
        raw.close()
        raw = _socket.create_connection((handle.host, handle.port))
        body = b'{"op": "ping"}'
        raw.sendall(_struct.pack(">I", len(body) + 10) + body)  # torn body
        raw.close()
        # The server survives both: a well-behaved client still works.
        with SubscriberClient(handle.host, handle.port) as sub:
            sub.subscribe("q")
            _, lsn = handle.publish("R", 1, [(1, 1)])
            assert sub.drain_deltas("q", lsn)
        assert not handle.server._clients or all(
            not c.dropped for c in handle.server._clients
        )


def test_oversized_length_prefix_gets_error_frame():
    import socket as _socket
    import struct as _struct

    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        raw = _socket.create_connection((handle.host, handle.port))
        raw.settimeout(5)
        raw.sendall(_struct.pack(">I", 2**31))  # absurd frame length
        prefix = raw.recv(4)
        (length,) = _struct.unpack(">I", prefix)
        message = decode_frame(raw.recv(length))
        assert message["type"] == "error"
        assert "exceeds" in message["message"]
        raw.close()


# ---------------------------------------------------------------------------
# ReconnectingSubscriber
# ---------------------------------------------------------------------------


def test_reconnecting_subscriber_survives_server_restart(tmp_path, monkeypatch):
    import random as _random

    from repro.runtime import serving
    from repro.runtime.durability import recover_engine
    from repro.runtime.serving import ReconnectingSubscriber

    monkeypatch.setattr(serving, "_BACKOFF_BASE", 0.01)
    program = _program()
    engine = DurableEngine(program, tmp_path, fsync="none")
    handle = ServerThread(engine)
    handle.start()
    sub = ReconnectingSubscriber(
        handle.host, handle.port, "q", rng=_random.Random(7)
    )
    try:
        for i in range(5):
            handle.publish("R", 1, [(i % 2, i)])
        sub.pump_until(engine.lsn)
        handle.stop()
        engine.close()
        # Hard restart: recover the directory, rebind the same port.
        engine2, _ = recover_engine(program, tmp_path), None
        engine2 = DurableEngine(program, tmp_path, fsync="none")
        handle2 = ServerThread(engine2, port=handle.port)
        handle2.start()
        for i in range(5, 10):
            handle2.publish("R", 1, [(i % 2, i)])
        sub.pump_until(engine2.lsn, deadline=30)
        reference = DeltaEngine(program)
        for i in range(10):
            reference.process_batch("R", 1, [(i % 2, i)])
        assert sub.rows == Counter(reference.results("q"))
        assert sub.reconnects >= 1
        assert sub.resume_gaps == 0
        # Idempotent delivery: strictly increasing LSNs, no synthetics.
        lsns = [f["lsn"] for f in sub.deltas]
        assert lsns == sorted(set(lsns))
        assert not any(f.get("synthesized") for f in sub.deltas)
        handle2.stop()
        engine2.close()
    finally:
        sub.close()


def test_reconnecting_subscriber_resume_gap_fallback(
    tmp_path, small_segments, monkeypatch
):
    import random as _random

    from repro.runtime import serving
    from repro.runtime.serving import ReconnectingSubscriber

    monkeypatch.setattr(serving, "_BACKOFF_BASE", 0.01)
    program = _program()
    engine = DurableEngine(
        program, tmp_path, fsync="none"
    )
    handle = ServerThread(engine, history_frames=2)
    handle.start()
    sub = ReconnectingSubscriber(
        handle.host, handle.port, "q", rng=_random.Random(1)
    )
    try:
        for i in range(5):
            handle.publish("R", 1, [(i % 2, i)])
        sub.pump_until(engine.lsn)
        handle.stop()
        # Progress while disconnected, then truncate the missed suffix.
        for i in range(5, 30):
            engine.process_batch("R", 1, [(i % 2, i)])
        engine.snapshot()
        handle2 = ServerThread(engine, history_frames=2, port=handle.port)
        handle2.start()
        sub.pump_until(engine.lsn, deadline=30)
        reference = DeltaEngine(program)
        for i in range(30):
            reference.process_batch("R", 1, [(i % 2, i)])
        # State parity holds even though the sequence needed a synthetic
        # bridge (the truncated suffix is unrecoverable by design).
        assert sub.rows == Counter(reference.results("q"))
        assert sub.resume_gaps >= 1
        assert any(f.get("synthesized") for f in sub.deltas)
        handle2.stop()
    finally:
        sub.close()
        engine.close()


def test_reconnecting_subscriber_budget_exhaustion(monkeypatch):
    import random as _random

    from repro.runtime import serving
    from repro.runtime.serving import ReconnectingSubscriber

    monkeypatch.setattr(serving, "_MAX_RECONNECTS", 2)
    monkeypatch.setattr(serving, "_BACKOFF_BASE", 0.001)
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        host, port = handle.host, handle.port
    # Server gone: the initial connect must exhaust the budget and raise.
    with pytest.raises(
        ServingError, match=r"reconnect budget exhausted \(2 consecutive"
    ):
        ReconnectingSubscriber(host, port, "q", rng=_random.Random(3))


# ---------------------------------------------------------------------------
# Restart-in-place
# ---------------------------------------------------------------------------


def test_restart_in_place_reclaims_port_with_lingering_clients():
    # Stopping a server must genuinely close its sockets: a new server
    # can rebind the same port immediately, even though a subscriber
    # that never read its frames (half-closed connection) is attached.
    engine = DeltaEngine(_program())
    handle = ServerThread(engine)
    handle.start()
    port = handle.port
    laggard = SubscriberClient(handle.host, port, timeout=5)
    laggard.subscribe("q")
    for i in range(10):
        handle.publish("R", 1, [(i % 3, i)])
    handle.stop()
    try:
        handle2 = ServerThread(engine, port=port)
        handle2.start()  # must not raise EADDRINUSE
        assert handle2.port == port
        with SubscriberClient(handle2.host, port, timeout=5) as sub:
            assert sub.subscribe("q")["type"] == "snapshot"
        handle2.stop()
    finally:
        laggard.close()


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork isolation requires POSIX fork"
)
def test_forked_children_do_not_inherit_serving_sockets():
    # A shard worker forked while the server runs (supervisor respawn)
    # must not keep duplicates of the listen/connection fds: the copies
    # would hold the port bound after stop() and keep closed client
    # connections half-alive.
    import multiprocessing

    engine = DeltaEngine(_program())
    handle = ServerThread(engine)
    handle.start()
    port = handle.port
    with SubscriberClient(handle.host, port, timeout=5) as sub:
        sub.subscribe("q")
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=child.send, args=(os.getpid(),), daemon=True)
        proc.start()
        parent.recv()
        # While the child lives, stop and rebind: only possible if the
        # child closed its inherited serving fds after the fork.
        handle.stop()
        handle2 = ServerThread(engine, port=port)
        handle2.start()
        assert handle2.port == port
        handle2.stop()
        proc.join(timeout=10)


# ---------------------------------------------------------------------------
# Burst semantics: many frames per read, one encode per delta, one write
# per wakeup
# ---------------------------------------------------------------------------


def _publish_burst(rows_per_frame):
    """Concatenated ``publish`` frames, one per entry of ``rows_per_frame``."""
    return b"".join(
        encode_frame({"op": "publish", "relation": "R", "sign": 1, "rows": rows})
        for rows in rows_per_frame
    )


def _read_frames_until_eof(sock):
    """Every frame the server sends before it closes the connection."""
    data = b""
    while chunk := sock.recv(1 << 16):
        data += chunk
    return _decode_frames(data)


def test_burst_of_publishes_acks_in_order_and_streams_parity():
    rows_per_frame = [[[i % 7, i]] for i in range(200)]
    reference = DeltaEngine(_program())
    for rows in rows_per_frame:
        reference.process_batch("R", 1, [tuple(row) for row in rows])
    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        with SubscriberClient(handle.host, handle.port) as sub:
            rows = rows_from_snapshot(sub.subscribe("q"))
            with SubscriberClient(handle.host, handle.port) as publisher:
                publisher._sock.sendall(_publish_burst(rows_per_frame))
                acks = [publisher._wait_for("ack") for _ in rows_per_frame]
            lsns = [ack["lsn"] for ack in acks]
            assert lsns == sorted(set(lsns)) and len(lsns) == 200
            assert all(ack["count"] == 1 for ack in acks)
            deltas = sub.drain_deltas("q", lsns[-1])
            assert [frame["lsn"] for frame in deltas] == lsns
            for frame in deltas:
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))
            assert rows == Counter(reference.results("q"))


def test_burst_with_torn_tail_applies_every_complete_frame(caplog):
    import socket as _socket

    engine = DeltaEngine(_program())
    burst = _publish_burst([[[i, i]] for i in range(50)])
    torn = encode_frame({"op": "publish", "relation": "R", "rows": [[99, 99]]})
    with caplog.at_level("WARNING", logger="repro.serving"):
        with ServerThread(engine) as handle:
            raw = _socket.create_connection((handle.host, handle.port))
            raw.settimeout(10)
            raw.sendall(burst + torn[:-5])
            raw.shutdown(_socket.SHUT_WR)
            replies = _read_frames_until_eof(raw)
            raw.close()
    assert [reply["type"] for reply in replies] == ["ack"] * 50
    assert Counter(engine.results("q")) == Counter({(i, i): 1 for i in range(50)})
    assert f"{len(torn) - 5} bytes of a torn frame" in caplog.text


def test_oversized_prefix_mid_burst_applies_the_frames_before_it():
    import socket as _socket
    import struct as _struct

    engine = DeltaEngine(_program())
    burst = _publish_burst([[[i, i]] for i in range(5)])
    with ServerThread(engine) as handle:
        raw = _socket.create_connection((handle.host, handle.port))
        raw.settimeout(10)
        raw.sendall(burst + _struct.pack(">I", 2**31) + burst)
        replies = _read_frames_until_eof(raw)  # the server reaps the client
        raw.close()
        assert [reply["type"] for reply in replies] == ["ack"] * 5 + ["error"]
        assert "exceeds" in replies[-1]["message"]
        assert Counter(engine.results("q")) == Counter(
            {(i, i): 1 for i in range(5)}
        )
        assert not handle.server._clients


def test_fanout_encodes_each_delta_once(monkeypatch):
    import socket as _socket

    from repro.runtime import serving

    built = []
    real_build = serving._delta_record

    def counting_build(view, lsn, *args):
        built.append((view, lsn))
        return real_build(view, lsn, *args)

    engine = DeltaEngine(_program())
    with ServerThread(engine) as handle:
        subscribers = []
        for _ in range(3):
            raw = _socket.create_connection((handle.host, handle.port))
            raw.settimeout(10)
            raw.sendall(encode_frame({"op": "subscribe", "view": "q"}))
            assert raw.recv(1 << 16)  # the snapshot
            subscribers.append(raw)
        monkeypatch.setattr(serving, "_delta_record", counting_build)
        _, first = handle.publish("R", 1, [(1, 10), (2, 20)])
        _, second = handle.publish("R", -1, [(2, 20)])
        monkeypatch.undo()
        for raw in subscribers:
            raw.sendall(encode_frame({"op": "ping"}))
        received = []
        for raw in subscribers:
            data = b""
            while b'"pong"' not in data:
                data += raw.recv(1 << 16)
            received.append(data)
            raw.close()
    # Two deltas, three subscribers: one record built per delta.
    assert built == [("q", first), ("q", second)]
    assert received[0] == received[1] == received[2]
    assert received[0].count(b'"type":"delta"') == 2
    assert handle.server.deltas_sent == 6


def _loop_server(engine, **options):
    """A server tapped into ``engine`` but never bound to a socket:
    connections are handed to it in-loop."""
    server = ViewServer(engine, **options)
    engine.add_batch_listener(server._on_batch)
    return server


def _attach_subscriber(server, writer):
    """Register an in-loop subscriber of ``q`` with a running writer task."""
    client = _ClientState(writer, "subscriber")
    client.writer_task = asyncio.ensure_future(server._writer_loop(client))
    client.views.add("q")
    server._clients.add(client)
    server._subscribers["q"].add(client)
    return client


def _connect_publisher(server, burst):
    """Feed ``burst`` then EOF to a connection handler; returns its task
    and the writer its replies land on."""
    reader = asyncio.StreamReader()
    reader.feed_data(burst)
    reader.feed_eof()
    writer = _LoopWriter()
    return asyncio.ensure_future(server._handle_client(reader, writer)), writer


BURST_ROWS = [[[i % 3, i]] for i in range(20)]


def _sum_of_deltas(frames):
    rows = Counter()
    for frame in frames:
        assert frame["type"] == "delta"
        apply_changes(rows, [(tuple(r), w) for r, w in frame["changes"]])
    return rows


def test_block_policy_stalls_and_resumes_without_loss():
    async def scenario():
        engine = DeltaEngine(_program())
        server = _loop_server(engine, backpressure="block", queue_frames=4)
        stalled = _LoopWriter(stalled=True)
        _attach_subscriber(server, stalled)
        task, replies = _connect_publisher(server, _publish_burst(BURST_ROWS))
        await asyncio.sleep(0.3)
        # The subscriber's writer holds one burst in its stalled drain,
        # its queue is full behind it, and ingest waits for room before
        # the next apply — so every frame applied so far is acknowledged.
        assert not task.done()
        assert 0 < server.tap.lsn < len(BURST_ROWS)
        assert len(replies.frames()) == server.tap.lsn
        stalled.resume()
        await asyncio.wait_for(task, timeout=10)
        await asyncio.sleep(0)  # the subscriber's writer flushes its tail
        acks = replies.frames()
        assert [ack["lsn"] for ack in acks] == list(range(1, 21))
        deltas = stalled.frames()
        assert [delta["lsn"] for delta in deltas] == list(range(1, 21))
        assert _sum_of_deltas(deltas) == Counter(engine.results("q"))
        assert server.deltas_sent == 20
        # Bursts, not frames, reach the socket.
        assert stalled.writes < 20 and replies.writes < 20

    asyncio.run(scenario())


def test_block_policy_unpins_on_idle_timeout():
    async def scenario():
        engine = DeltaEngine(_program())
        server = ViewServer(
            engine, backpressure="block", queue_frames=4, idle_timeout=0.2
        )
        await server.start()
        try:
            stalled = _LoopWriter(stalled=True)
            client = _attach_subscriber(server, stalled)

            async def ingest():  # in-process, so only the reader can idle
                for rows in BURST_ROWS:
                    await server.publish("R", 1, [tuple(r) for r in rows])

            await asyncio.wait_for(ingest(), timeout=10)
            assert client.dropped and server.clients_timed_out == 1
            assert server.tap.lsn == len(BURST_ROWS)
            # Only accepted frames count, not the one the eviction refused.
            assert server.deltas_sent == 8  # one burst written, one queue
            assert stalled.frames()[-1]["type"] == "timeout"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_drop_policy_disconnects_at_queue_frames_and_counts_accepted_only():
    async def scenario():
        engine = DeltaEngine(_program())
        server = _loop_server(engine, backpressure="drop", queue_frames=4)
        stalled = _LoopWriter(stalled=True)
        client = _attach_subscriber(server, stalled)
        await server.publish("R", 1, [(9, 9)])
        await asyncio.sleep(0)  # the writer takes this one frame and stalls
        task, replies = _connect_publisher(server, _publish_burst(BURST_ROWS))
        await asyncio.wait_for(task, timeout=10)
        # The source never stalls, and the publisher's own replies (a
        # burst five times its queue) all arrive.
        assert len(replies.frames()) == len(BURST_ROWS)
        assert client.dropped and stalled.closed
        assert server.clients_dropped == 1
        # Accepted: the frame in the stalled write, then one full queue.
        # The frame that found it full, and the rest, were never "sent".
        assert len(stalled.frames()) == 1
        assert server.deltas_sent == 1 + 4

    asyncio.run(scenario())


def test_coalesce_policy_delivers_one_merged_frame():
    async def scenario():
        engine = DeltaEngine(_program())
        server = _loop_server(engine, backpressure="coalesce", queue_frames=4)
        stalled = _LoopWriter(stalled=True)
        _attach_subscriber(server, stalled)
        await server.publish("R", 1, [(9, 9)])
        await asyncio.sleep(0)  # the writer takes this one frame and stalls
        # 17 more deltas into a 4-frame queue: merges at the 5th, 9th,
        # 13th and 17th leave exactly one frame queued.
        task, replies = _connect_publisher(
            server, _publish_burst(BURST_ROWS[:17])
        )
        await asyncio.wait_for(task, timeout=10)
        assert len(replies.frames()) == 17
        stalled.resume()
        await asyncio.sleep(0)
        first, merged = stalled.frames()
        assert "coalesced" not in first and merged["coalesced"] is True
        missed = [record for record in server._history["q"] if record.lsn > 1]
        assert len(missed) == 17
        assert merged["lsn"] == missed[-1].lsn == server.tap.lsn
        assert merged["ts"] == missed[0].ts  # the oldest pending stamp
        row_wise_sum = Counter()
        for record in missed:
            apply_changes(row_wise_sum, record.changes)
        assert _sum_of_deltas([merged]) == row_wise_sum
        assert _sum_of_deltas([first, merged]) == Counter(engine.results("q"))

    asyncio.run(scenario())


class _SlowWriter(_LoopWriter):
    """A reader that keeps up, slowly: every drain takes a while."""

    async def drain(self):
        await asyncio.sleep(0.001)


async def _until(condition, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


def _slow_block_server():
    """A ``block`` server with 4-frame queues, a slow subscriber of
    ``q``, and a count of the steps that had to wait for room."""
    engine = DeltaEngine(_program())
    server = _loop_server(engine, backpressure="block", queue_frames=4)
    slow = _SlowWriter()
    _attach_subscriber(server, slow)
    waits = []
    room = server._room

    async def counting_room(client, views):
        waits.append(views)
        await room(client, views)

    server._room = counting_room
    return engine, server, slow, waits


LONG_BURST = [[[i % 7, i]] for i in range(200)]


def test_block_burst_to_a_slow_reader_keeps_lsn_order_and_acks_every_frame():
    async def scenario():
        engine, server, slow, waits = _slow_block_server()
        task, replies = _connect_publisher(server, _publish_burst(LONG_BURST))
        await asyncio.wait_for(task, timeout=30)
        await _until(lambda: len(slow.frames()) == len(LONG_BURST))
        acks = replies.frames()
        assert [ack["type"] for ack in acks] == ["ack"] * len(LONG_BURST)
        assert all(ack["count"] == 1 for ack in acks)
        lsns = [delta["lsn"] for delta in slow.frames()]
        assert lsns == [ack["lsn"] for ack in acks] == list(range(1, 201))
        assert _sum_of_deltas(slow.frames()) == Counter(engine.results("q"))
        assert waits  # the room wait ran, not just the fast path

    asyncio.run(scenario())


def test_in_process_publishes_share_the_lsn_sequence_of_a_network_burst():
    async def scenario():
        engine, server, slow, waits = _slow_block_server()
        task, replies = _connect_publisher(server, _publish_burst(LONG_BURST))
        local = []
        for i in range(40):
            _, lsn = await server.publish("R", 1, [(100 + i, 1)])
            local.append(lsn)
            await asyncio.sleep(0)
        await asyncio.wait_for(task, timeout=30)
        total = len(LONG_BURST) + len(local)
        await _until(lambda: len(slow.frames()) == total)
        acked = [ack["lsn"] for ack in replies.frames()]
        assert acked == sorted(acked) and local == sorted(local)
        assert sorted(acked + local) == list(range(1, total + 1))
        assert acked[0] < local[-1] and local[0] < acked[-1]  # interleaved
        assert [d["lsn"] for d in slow.frames()] == list(range(1, total + 1))
        assert _sum_of_deltas(slow.frames()) == Counter(engine.results("q"))

    asyncio.run(scenario())


def test_subscribe_mid_burst_snapshot_meets_the_first_delta_after_it():
    async def scenario():
        engine, server, slow, waits = _slow_block_server()
        task, _ = _connect_publisher(server, _publish_burst(LONG_BURST))
        await _until(lambda: server.tap.lsn >= 50)
        reader = asyncio.StreamReader()  # stays open until the burst ends
        reader.feed_data(encode_frame({"op": "subscribe", "view": "q"}))
        late = _LoopWriter()
        joined = asyncio.ensure_future(server._handle_client(reader, late))
        await asyncio.wait_for(task, timeout=30)
        await _until(lambda: late.frames() and late.frames()[-1]["lsn"] == 200)
        reader.feed_eof()
        await asyncio.wait_for(joined, timeout=10)
        snapshot, *deltas = late.frames()
        assert snapshot["type"] == "snapshot" and 50 <= snapshot["lsn"] < 200
        assert [d["lsn"] for d in deltas] == list(
            range(snapshot["lsn"] + 1, 201)
        )
        rows = Counter({tuple(row): w for row, w in snapshot["rows"]})
        for delta in deltas:
            apply_changes(rows, [(tuple(r), w) for r, w in delta["changes"]])
        assert rows == Counter(engine.results("q"))

    asyncio.run(scenario())


def test_ping_is_answered_within_one_slice_of_another_connections_burst():
    from repro.runtime.serving import _YIELD_EVERY

    async def scenario():
        engine = DeltaEngine(_program())
        server = _loop_server(engine)
        frame = encode_frame(
            {"op": "publish", "relation": "R", "sign": 1, "rows": [[1, 1]]}
        )
        count = (1 << 16) // len(frame)
        assert count > 10 * _YIELD_EVERY
        streaming, _ = _connect_publisher(server, frame * count)
        pinging, pong = _connect_publisher(
            server, encode_frame({"op": "ping"})
        )
        await asyncio.gather(streaming, pinging)
        (reply,) = pong.frames()
        assert reply["type"] == "pong"
        # The pong's LSN is how far the streaming connection had got.
        assert reply["lsn"] <= _YIELD_EVERY
        assert server.tap.lsn == count

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# The touched-group tap: a delta costs what changed, not what the view holds
# ---------------------------------------------------------------------------

#: The engines a tap runs over: kind -> lane of ``tests/lanes.py``.
ENGINE_KINDS = {"delta": "compiled", "durable": "compiled", "sharded": "compiled/2"}


def _kinds(program) -> list:
    """``ENGINE_KINDS``, and each kernel executor that attaches to
    ``program``, under its own name."""
    kernels = set(lanes.executors(program)) - set(lanes.PYTHON_EXECUTORS)
    return [*ENGINE_KINDS, *sorted(kernels)]


def _engine_of(kind, program, tmp_path):
    durable = tmp_path if kind == "durable" else None
    return lanes.build_engine(program, ENGINE_KINDS.get(kind, kind), durable)


def _assert_tap_parity(engine, events, batch_size):
    """Drive ``events`` through ``engine`` under a tap called by hand.
    After every batch the emitted change lists must equal the whole-view
    ``result_delta(previous, current)`` — kept here as the reference —
    and ``snapshot ⊎ deltas`` must equal ``engine.results``.  Returns
    what the subscriber holds per view."""
    tap = ViewDeltaTap(engine)
    held = {view: Counter(dict(tap.snapshot(view)[1])) for view in tap.views}
    previous = {view: Counter(engine.results(view)) for view in tap.views}
    assert held == previous
    for batch in batches(events, batch_size):
        engine.process_batch(batch.relation, batch.sign, batch.rows)
        deltas = tap.on_batch(engine.tap_lsn(), batch)
        for view in tap.views:
            current = Counter(engine.results(view))
            assert deltas.get(view, []) == result_delta(previous[view], current)
            apply_changes(held[view], deltas.get(view, []))
            assert held[view] == current
            previous[view] = current
    tap.close()
    return held


@lru_cache(maxsize=None)
def _finance_case(query):
    """``(program, events, what sqlite answers after them)``."""
    events = lanes.order_book(20, 160)
    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query])
    oracle.apply_all(events)
    return lanes.shipped_program(query), events, oracle.rows()


@pytest.mark.parametrize("batch_size", [1, 7, 100])
@pytest.mark.parametrize(
    "query,kind",
    [
        (query, kind)
        for query in sorted(FINANCE_QUERIES)
        for kind in _kinds(lanes.shipped_program(query))
    ],
)
def test_tap_parity_matrix_finance(query, kind, batch_size, tmp_path):
    program, events, expected = _finance_case(query)
    engine = _engine_of(kind, program, tmp_path)
    held = _assert_tap_parity(engine, events, batch_size)
    assert normalize_rows(held["q"].elements()) == expected
    engine.close()


@lru_cache(maxsize=None)
def _ssb_case():
    """The 4-view SSB program, its dimension tables, a fact-feed prefix
    and what sqlite answers per view after both."""
    generator = TpchGenerator(sf=0.0005, seed=1992)
    static = generator.static_tables()
    events = list(islice(warehouse_stream(generator), 300))
    oracle = SqliteOracle(ssb_catalog(), "")
    for relation, rows in static.items():
        oracle.apply_all(StreamEvent(relation, 1, tuple(row)) for row in rows)
    oracle.apply_all(events)
    expected = {}
    for view, sql in SSB_FLIGHT.items():
        oracle.sql = sql
        expected[view] = oracle.rows()
    return lanes.shipped_program("warehouse"), static, events, expected


@pytest.mark.parametrize("batch_size", [1, 7, 100])
@pytest.mark.parametrize("kind", _kinds(lanes.shipped_program("warehouse")))
def test_tap_parity_matrix_ssb_program(kind, batch_size, tmp_path):
    program, static, events, expected = _ssb_case()
    engine = _engine_of(kind, program, tmp_path)
    for relation, rows in static.items():
        engine.load(relation, rows)
    held = _assert_tap_parity(engine, events, batch_size)
    assert sum(len(rows) for rows in held.values()) > 20  # not vacuous
    for view in SSB_FLIGHT:
        assert normalize_rows(held[view].elements()) == expected[view], view
    engine.close()


# -- the compiled row renderer ---------------------------------------------------


def _eval_rows(program, maps, view):
    """Per live group, the row ``eval_result`` walks out of the result
    tree — what the compiled renderer replaced, kept as its reference."""
    query = next(q for q in program.queries if q.name == view)
    aux = program.slot_aux.get(view, {})
    # A product slot's value is the sum of its terms' products.
    sources = [
        program.products.get(name, ((1, (name,)),)) if spec.kind == "sum"
        else ((1, (aux[index],)),)
        for index, (spec, name) in enumerate(
            zip(query.aggregates, program.slot_maps[view])
        )
    ]
    for group in GroupRenderer(program, maps, view).live_groups():
        values = [
            sum(
                coeff * math.prod(maps[name].get(group, 0) for name in factors)
                for coeff, factors in terms
            )
            for terms in sources
        ]
        yield group, tuple(eval_result(i.result, group, values) for i in query.items)


def _assert_rows_are_eval_result(engine):
    maps = engine.current_maps()
    for query in engine.program.queries:
        renderer = GroupRenderer(engine.program, maps, query.name)
        expected = dict(_eval_rows(engine.program, maps, query.name))
        assert expected, query.name  # not vacuous
        # repr, so an int where eval_result gives a float fails too
        assert {g: repr(renderer.row(g)) for g in expected} == {
            g: repr(row) for g, row in expected.items()
        }


@pytest.mark.parametrize("query", sorted(FINANCE_QUERIES))
def test_compiled_rows_equal_eval_result_finance(query):
    program, events, _ = _finance_case(query)
    engine = DeltaEngine(program)
    engine.process_stream(events, batch_size=7)
    _assert_rows_are_eval_result(engine)


def test_compiled_rows_equal_eval_result_ssb_program():
    program, static, events, _ = _ssb_case()
    engine = DeltaEngine(program)
    for relation, rows in static.items():
        engine.load(relation, rows)
    engine.process_stream(events, batch_size=100)
    _assert_rows_are_eval_result(engine)


def test_compiled_row_of_a_hand_built_result_tree():
    from repro.algebra.translate import (
        RBin,
        RConst,
        RGroup,
        RNeg,
        RSlot,
        TranslatedItem,
        TranslatedQuery,
    )
    from repro.runtime.views import _compile_row, _row_source

    results = [
        RGroup(1),
        RNeg(RSlot(0)),
        RBin("/", RSlot(0), RSlot(1)),  # slot 1 is 0 in group ("b", 2)
        RBin("+", RConst(2.5), RBin("*", RConst(-1), RSlot(1))),
        RBin("-", RNeg(RConst(3)), RBin("/", RConst(1), RBin("-", RSlot(1), RSlot(1)))),
    ]
    query = TranslatedQuery(
        "h", ("x", "y"), ("x", "y"),
        [TranslatedItem(f"i{n}", r) for n, r in enumerate(results)],
        [], (), 2,
    )
    counts = {("a", 1): 1, ("b", 2): 3, ("c", 3): 0}
    slots = [{("a", 1): 7, ("b", 2): -4.5}, {("a", 1): 2}]
    source, constants = _row_source(query, [((1, (0,)),), ((1, (1,)),), ((1, (2,)),)])
    row, count = _compile_row(source)([*slots, counts], constants)
    assert row(("c", 3)) is None and row(("d", 4)) is None  # no live row
    for group in (("a", 1), ("b", 2)):
        values = [slot.get(group, 0) for slot in slots]
        expected = tuple(eval_result(r, group, values) for r in results)
        assert repr(row(group)) == repr(expected)
        assert count(group) == counts[group]
    assert row(("b", 2))[2] == 0  # ``/`` by a zero slot
    # The same tree over product slots: slot 0 = 2·x·y − y, the count x·y.
    x = {("a", 1): 7, ("b", 2): 3, ("c", 3): 5}
    y = {("a", 1): 1, ("b", 2): -1}
    source, constants = _row_source(
        query, [((2, (0, 1)), (-1, (1,))), ((1, (2,)),), ((1, (0, 1)),)]
    )
    row, count = _compile_row(source)([x, y, slots[1]], constants)
    assert row(("c", 3)) is None and count(("c", 3)) == 0
    for group in (("a", 1), ("b", 2)):
        values = [2 * x[group] * y[group] - y[group], slots[1].get(group, 0)]
        expected = tuple(eval_result(r, group, values) for r in results)
        assert repr(row(group)) == repr(expected)
        assert count(group) == x[group] * y[group]


def test_query_results_compiles_each_query_at_most_once():
    from repro.runtime.views import _compile_row

    engines = []
    for query in sorted(FINANCE_QUERIES):
        program, events, _ = _finance_case(query)
        engines.append(DeltaEngine(program))
        engines[-1].process_stream(events[:40])
    engines.append(DeltaEngine(_ssb_case()[0]))
    views = sum(len(engine.program.queries) for engine in engines)
    _compile_row.cache_clear()
    compiles = []
    for _ in range(3):
        for engine in engines:
            for query in engine.program.queries:
                engine.results(query.name)
        compiles.append(_compile_row.cache_info().misses)
    # At most one compile per view, all in the first round.
    assert 0 < compiles[0] <= views and compiles == [compiles[0]] * 3


def _wide_view_engine(groups):
    """``SELECT price, sum(volume) FROM bids GROUP BY price`` holding one
    bid at each of ``groups`` prices."""
    program = compile_sql(
        "SELECT price, sum(volume) FROM bids GROUP BY price",
        finance_catalog(),
        name="q",
    )
    engine = DeltaEngine(program)
    engine.process_batch(
        "bids", 1, [(0, i, i % 10, 10_000 + i, 5) for i in range(groups)]
    )
    return engine


def test_one_row_batch_renders_what_it_touched_not_the_view(monkeypatch):
    engine = _wide_view_engine(2_500)
    tap = ViewDeltaTap(engine)
    assert tap.candidates == {"q": "event"}
    assert len(tap.snapshot("q")[1]) == 2_500
    rendered = []
    render = GroupRenderer.row

    def counting(self, group):
        rendered.append(group)
        return render(self, group)

    def no_results(self, query_name=None):
        raise AssertionError("on_batch rendered the whole view")

    monkeypatch.setattr(GroupRenderer, "row", counting)
    monkeypatch.setattr(DeltaEngine, "results", no_results)
    held = Counter(dict(tap.snapshot("q")[1]))
    steps = [
        (1, (1, 9001, 3, 10_007, 2)),  # an existing group moves
        (1, (1, 9002, 3, 99_999, 4)),  # a new group appears
        (-1, (1, 9002, 3, 99_999, 4)),  # ... and goes
    ]
    for sign, row in steps:
        del rendered[:]
        engine.process_batch("bids", sign, [row])
        changes = tap.on_batch(0, EventBatch("bids", sign, [row]))["q"]
        assert len(rendered) <= 2
        apply_changes(held, changes)
    monkeypatch.undo()
    assert held == Counter(engine.results("q"))


def _finance_engine(query, shards):
    """A ``query`` engine (sharded at ``shards`` > 1) fed the first 400
    events of the order book."""
    program = lanes.shipped_program(query, query)
    if shards == 1:
        engine = DeltaEngine(program)
    else:
        engine = ShardedEngine(program, shards=shards)
    engine.process_stream(lanes.order_book(11, 400), batch_size=7)
    return engine


@pytest.mark.parametrize("shards", [1, 2])
def test_one_asks_row_reaches_a_product_view(shards, monkeypatch):
    """bsp's slots are products of maps each side keeps, so an asks row
    writes no map of bids' and still moves bsp's rows.  The tap reads a
    write to a factor as a write to the view: the row reaches bsp's
    subscribers, a DeltaEngine renders only the groups it touched (its
    broker), and the deltas fold to the engine's results."""
    engine = _finance_engine("bsp", shards)
    tap = ViewDeltaTap(engine)
    assert tap.affected("asks") == tap.affected("bids") == ("bsp",)
    assert tap.candidates == {"bsp": "event" if shards == 1 else "whole"}
    held = Counter(dict(tap.snapshot("bsp")[1]))
    brokers = sorted({row[0] for row, _ in tap.snapshot("bsp")[1]})
    rendered = []
    render = GroupRenderer.row

    def counting(self, group):
        rendered.append(group)
        return render(self, group)

    monkeypatch.setattr(GroupRenderer, "row", counting)
    steps = [
        (1, (9, 9001, brokers[0], 12_345, 3)),  # a live broker moves
        (1, (9, 9002, 999, 12_345, 3)),  # a broker with no bids: no row
        (-1, (9, 9001, brokers[0], 12_345, 3)),  # ... and back
    ]
    moved = 0
    for sign, row in steps:
        del rendered[:]
        engine.process_batch("asks", sign, [row])
        changes = tap.on_batch(0, EventBatch("asks", sign, [row])).get("bsp", [])
        if shards == 1:
            assert set(rendered) <= {(row[2],)}
        moved += bool(changes)
        apply_changes(held, changes)
    monkeypatch.undo()
    assert moved == 2
    assert held == Counter(engine.results("bsp"))
    engine.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_a_scalar_product_view_taps_its_one_row(shards):
    """psp's sum is ``m1·m2 − m3·m4`` over the two sides' running sums:
    every row of either side retracts the one row and asserts its new
    value, and the deltas fold to the engine's results."""
    engine = _finance_engine("psp", shards)
    tap = ViewDeltaTap(engine)
    ((before, count),) = tap.snapshot("psp")[1]
    assert count == 1
    for relation, sign, row in [
        ("bids", 1, (9, 9001, 1, 10_000, 5)),
        ("asks", 1, (9, 9002, 2, 10_050, 5)),
        ("bids", -1, (9, 9001, 1, 10_000, 5)),
    ]:
        engine.process_batch(relation, sign, [row])
        changes = tap.on_batch(0, EventBatch(relation, sign, [row]))
        (after,) = engine.results("psp")
        assert changes == {"psp": sorted([(before, -1), (after, 1)], key=repr)}
        before = after
    engine.close()


def test_tap_works_registered_called_by_another_listener_or_by_hand():
    events, program = lanes.order_book(5, 200), lanes.shipped_program("bsp")

    def drive(attach):
        engine = DeltaEngine(program)
        tap = ViewDeltaTap(engine)  # before any listener exists
        logs = []
        step = attach(engine, tap, logs)
        for batch in batches(events, 3):
            engine.process_batch(batch.relation, batch.sign, batch.rows)
            step(batch)
        return logs

    def registered(engine, tap, logs):
        class Keeper:
            def on_batch(self, lsn, batch):
                logs.append(tap.on_batch(lsn, batch))

        engine.add_batch_listener(Keeper().on_batch)
        return lambda batch: None

    def from_another_listener(engine, tap, logs):
        engine.add_batch_listener(
            lambda lsn, batch: logs.append(tap.on_batch(lsn, batch))
        )
        return lambda batch: None

    def by_hand(engine, tap, logs):
        assert not engine._batch_listeners
        return lambda batch: logs.append(tap.on_batch(0, batch))

    first = drive(registered)
    assert any(first)
    assert drive(from_another_listener) == first
    assert drive(by_hand) == first


#: A view whose group an R event reads from S's map: its candidates are
#: recorded, not read off the event.
MAP_KEYED = "SELECT S.C, sum(R.A) FROM R, S WHERE R.B = S.B GROUP BY S.C"


def _two_map_keyed_views():
    """Two views whose groups an R event reads from S's map: both are
    recorded, so two taps share :class:`RecordingDict` maps."""
    catalog = Catalog.from_script(CATALOG_DDL)
    return compile_queries(
        [
            translate_sql(MAP_KEYED, catalog, name="qr"),
            translate_sql(
                "SELECT S.C, sum(R.B) FROM R, S WHERE R.B = S.B GROUP BY S.C",
                catalog,
                name="qs",
            ),
        ],
        catalog,
    )


def test_two_taps_on_one_engine_each_see_every_touched_group():
    engine = DeltaEngine(_two_map_keyed_views())
    engine.process_batch("S", 1, [(0, 7), (1, 8), (2, 9)])
    first = ViewDeltaTap(engine)
    second = ViewDeltaTap(engine, views=["qr"])
    assert first.candidates == {"qr": "recorded", "qs": "recorded"}
    assert second.candidates == {"qr": "recorded"}
    (qs_map,) = set(result_map_names(engine.program, "qs")) - set(
        result_map_names(engine.program, "qr")
    )
    for i in range(6):
        batch = EventBatch("R", 1, [(i + 1, i % 3)])
        engine.process_batch("R", 1, batch.rows)
        seen = first.on_batch(i, batch)
        assert second.on_batch(i, batch) == {"qr": seen["qr"]} and seen
    # Releasing one tap leaves the other recording.
    first.close()
    assert first.candidates == {"qr": "whole", "qs": "whole"}
    assert engine.storage_classes()[qs_map] == "dict"
    assert {
        engine.storage_classes()[name]
        for name in result_map_names(engine.program, "qr")
    } == {"recording"}
    batch = EventBatch("R", -1, [(1, 0)])
    engine.process_batch("R", -1, batch.rows)
    assert second.on_batch(7, batch)["qr"] == first.on_batch(7, batch)["qr"]
    second.close()
    assert set(engine.storage_classes().values()) == {"dict"}
    assert Counter(dict(second.snapshot("qr")[1])) == Counter(engine.results("qr"))


def test_tap_deduplicates_repeated_views():
    engine = DeltaEngine(_program())
    tap = ViewDeltaTap(engine, views=["q", "q"])
    assert tap.views == ["q"]
    assert tap.affected("R") == ("q",)


def test_stopped_server_leaves_plain_dicts_and_the_untapped_binding():
    engine = DeltaEngine(_program(MAP_KEYED))
    engine.process_batch("S", 1, [(1, 7), (2, 8)])
    engine.process_batch("R", 1, [(10, 1)])
    before = engine.storage_classes()
    handle = ServerThread(engine)
    handle.start()
    assert handle.server.tap.candidates == {"q": "recorded"}
    assert "recording" in engine.storage_classes().values()
    handle.publish("R", 1, [(20, 2)])
    handle.stop()
    assert engine.storage_classes() == before
    assert all(type(contents) is dict for contents in engine.maps.values())
    assert handle.server.tap.candidates == {"q": "whole"}
    # The re-bound triggers write the plain dicts.
    engine.process_batch("R", 1, [(1, 2)])
    assert sorted(engine.results("q")) == [(7, 10), (8, 21)]


def test_a_served_event_keyed_view_leaves_every_map_a_plain_dict():
    engine = DeltaEngine(_program())
    engine.process_batch("R", 1, [(1, 10)])
    before = engine.storage_classes()
    with ServerThread(engine) as handle:
        assert handle.server.tap.candidates == {"q": "event"}
        assert engine.storage_classes() == before
        handle.publish("R", 1, [(2, 20)])
        assert all(type(contents) is dict for contents in engine.maps.values())
    assert handle.server.tap.candidates == {"q": "whole"}
    assert engine.storage_classes() == before
    assert sorted(engine.results("q")) == [(1, 10), (2, 20)]


@pytest.mark.parametrize("query", ["bsp", MAP_KEYED], ids=["event", "recorded"])
def test_a_restarted_server_watches_the_engine_again(query):
    """``stop()`` releases the engine watch; ``start()`` on the same
    object takes it back, so later batches keep their candidate groups
    instead of re-rendering whole views."""
    if query == "bsp":
        program, events = lanes.shipped_program("bsp"), lanes.order_book(7, 120)
    else:
        program = _program(MAP_KEYED)
        events = [StreamEvent("S", 1, (b, b + 6)) for b in range(4)] + [
            StreamEvent("R", 1 if i % 5 else -1, (i % 7, i % 4))
            for i in range(1, 60)
        ]
    engine = DeltaEngine(program)
    handle = ServerThread(engine)
    handle.start()
    first = handle.server.tap.candidates
    assert first == {"q": "event" if query == "bsp" else "recorded"}
    handle.publish_stream(events[:40], batch_size=5)
    handle.stop()
    handle.start()
    try:
        assert handle.server.tap.candidates == first
        with SubscriberClient(handle.host, handle.port) as sub:
            rows = rows_from_snapshot(sub.subscribe("q"))
            for batch in batches(events[40:], 5):
                _, lsn = handle.publish(batch.relation, batch.sign, batch.rows)
            for frame in sub.drain_deltas("q", lsn):
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))
    finally:
        handle.stop()


@pytest.mark.parametrize("query", [None, MAP_KEYED])
@pytest.mark.parametrize("kind", ["delta", "durable"])
def test_events_applied_before_start_are_in_the_first_snapshot(
    query, kind, tmp_path
):
    program = _program() if query is None else _program(query)
    if kind == "durable":
        engine = DurableEngine(program, tmp_path, fsync="none")
    else:
        engine = DeltaEngine(program)
    engine.process_batch("S", 1, [(1, 7), (2, 8)])  # no R row: the view is empty
    handle = ServerThread(engine)
    built_at = handle.server.tap.lsn
    # No listener hears these: the server catches its tap up as it starts.
    engine.process_batch("R", 1, [(10, 1), (20, 2)])
    engine.process_batch("R", 1, [(5, 1)])
    engine.process_batch("R", -1, [(20, 2)])
    with handle:
        assert handle.server.tap.lsn == engine.tap_lsn()
        with SubscriberClient(handle.host, handle.port) as sub:
            snapshot = sub.subscribe("q")
            rows = rows_from_snapshot(snapshot)
            assert rows == Counter(engine.results("q"))
            if kind == "durable":
                # The history ring starts at the caught-up LSN: a resume
                # from before it replays the logged batches.
                reply = sub.subscribe("q", from_lsn=built_at)
                assert reply["type"] == "resumed"
                replayed = Counter()
                for _ in range(reply["replayed"]):
                    apply_changes(replayed, sub.recv()["changes"])
                assert replayed == rows
            _, lsn = handle.publish("R", 1, [(1, 2)])
            for frame in sub.drain_deltas("q", lsn):
                apply_changes(rows, frame["changes"])
            assert rows == Counter(engine.results("q"))
    if kind == "durable":
        engine.close()


def _two_sums_program():
    catalog = Catalog.from_script("CREATE STREAM T (A int, B int, C int);")
    return compile_sql(
        "SELECT A, sum(B), sum(C) FROM T GROUP BY A", catalog, name="q"
    )


@pytest.mark.parametrize("path", ["route", "batch"])
def test_a_trigger_that_raised_midway_reaches_the_next_delta(path):
    engine = DeltaEngine(_two_sums_program())
    tap = ViewDeltaTap(engine)
    assert tap.candidates == {"q": "event"}
    held = Counter()
    engine.add_batch_listener(
        lambda lsn, batch: apply_changes(held, tap.on_batch(lsn, batch).get("q", []))
    )
    engine.process_batch("T", 1, [(2, 1, 1)])
    assert engine._routes["T"]
    # Group 2's sum(B) takes the 5, then its sum(C) raises on the None:
    # no listener hears of the half-applied event.
    with pytest.raises(TypeError):
        if path == "route":
            engine.process_batch("T", 1, [(2, 5, None)])
        else:
            engine.process_batch_columns("T", 1, [[2], [5], [None]])
    assert engine.results("q") == [(2, 6, 1)]
    engine.process_batch("T", 1, [(3, 1, 1)])  # another group
    assert held == Counter(engine.results("q"))


@pytest.mark.parametrize("kind", ["delta", "durable"])
def test_a_listener_that_raised_costs_the_later_tap_no_delta(kind, tmp_path):
    if kind == "durable":
        engine = DurableEngine(_program(), tmp_path, fsync="none")
    else:
        engine = DeltaEngine(_program())
    tap = ViewDeltaTap(engine)
    held = Counter()
    failing = []

    def flaky(lsn, batch):
        if failing:
            raise RuntimeError("listener down")

    engine.add_batch_listener(flaky)
    engine.add_batch_listener(
        lambda lsn, batch: apply_changes(held, tap.on_batch(lsn, batch).get("q", []))
    )
    engine.process_batch("R", 1, [(1, 10)])
    failing.append(True)
    with pytest.raises(RuntimeError):
        engine.process_batch("R", 1, [(2, 20)])  # a route, on a DeltaEngine
    with pytest.raises(RuntimeError):
        engine.process_batch_columns("R", 1, [[1], [5]])  # the batch path
    failing.clear()
    engine.process_batch("R", 1, [(3, 30)])
    assert held == Counter(engine.results("q"))
    if kind == "durable":
        engine.close()


def test_incremental_says_which_views_cost_what_changed(tmp_path):
    program = _program()
    assert ViewDeltaTap(DeltaEngine(program)).candidates == {"q": "event"}
    durable = DurableEngine(program, tmp_path, fsync="none")
    assert ViewDeltaTap(durable).candidates == {"q": "event"}
    durable.close()
    assert ViewDeltaTap(ShardedEngine(program, shards=2)).candidates == {
        "q": "whole"
    }
    if hasattr(os, "fork"):
        with ShardedEngine(program, shards=2, parallel=True) as forked:
            tap = ViewDeltaTap(forked)
            assert tap.candidates == {"q": "whole"}
            batch = EventBatch("R", 1, [(1, 10), (2, 20)])
            forked.process_batch("R", 1, batch.rows)
            assert tap.on_batch(1, batch) == {"q": [((1, 10), 1), ((2, 20), 1)]}


# -- totality of the touched set -------------------------------------------------


def _tapped(sql, catalog=None):
    engine = DeltaEngine(compile_sql(sql, catalog or finance_catalog(), name="q"))
    tap = ViewDeltaTap(engine)
    held = Counter(dict(tap.snapshot("q")[1]))

    def apply(relation, sign, rows):
        engine.process_batch(relation, sign, rows)
        changes = tap.on_batch(0, EventBatch(relation, sign, rows)).get("q", [])
        apply_changes(held, changes)
        assert held == Counter(engine.results("q"))
        return changes

    return engine, tap, apply


@pytest.mark.parametrize("query", ["vwap", "mst"])
def test_second_order_restate_reaches_the_tap(query):
    # A multi-row run takes the batch trigger, whose second-order flush
    # clears and refills the maps it restates.
    engine, tap, apply = _tapped(FINANCE_QUERIES[query])
    source = engine._executor.source
    assert "second-order flush" in source or "restate" in source
    bids = [(i, i, i % 3, 100 + 7 * i, 10 + 40 * (i % 2)) for i in range(12)]
    asks = [(i, 50 + i, i % 3, 90 + 5 * i, 5 + i) for i in range(12)]
    steps = [
        apply("bids", 1, bids[:6]),
        apply("asks", 1, asks[:6]),
        apply("bids", 1, bids[6:]),
        apply("asks", 1, asks[6:]),
        apply("bids", -1, bids[2:9]),
        apply("asks", -1, asks[:5]),
    ]
    assert sum(1 for changes in steps if changes) >= 3


def test_finalize_rebuild_without_pendings_reaches_the_tap():
    # A restated occurrence map rebuilds its max cache from scratch:
    # clear(), then one write per live group.
    sql = (
        "SELECT b.broker_id, max(b.price) FROM bids b WHERE b.volume > 0.25 * "
        "(SELECT sum(b1.volume) FROM bids b1) GROUP BY b.broker_id"
    )
    engine, tap, apply = _tapped(sql)
    assert "_m_q_q_max_1__max.clear()" in engine._executor.source
    volumes = [100, 1, 1, 100, 1, 100]
    bids = [(i, i, i % 3, 100 + 7 * i, volumes[i]) for i in range(6)]
    assert apply("bids", 1, bids[:3]) == [((0, 100), 1)]
    assert apply("bids", 1, bids[3:]) == [((0, 100), -1), ((0, 121), 1), ((2, 135), 1)]
    assert apply("bids", -1, [bids[3], bids[5]])
    assert apply("bids", -1, bids[:2])
    assert sorted(engine.results("q")) == [(1, 128), (2, 114)]


def test_extremum_rederivation_on_delete_reaches_the_tap():
    engine, tap, apply = _tapped(FINANCE_QUERIES["bbo"])
    apply("asks", 1, [(0, 1, 7, 300, 1)])
    apply("bids", 1, [(0, 2, 7, 100, 1)])
    apply("bids", 1, [(0, 3, 7, 200, 1)])
    # The best bid leaves: Finalize re-derives the group's maximum.
    assert apply("bids", -1, [(0, 3, 7, 200, 1)]) == [
        ((7, 100, 300), 1),
        ((7, 200, 300), -1),
    ]
    # The last bid leaves: the group goes with it.
    assert apply("bids", -1, [(0, 2, 7, 100, 1)]) == [((7, 100, 300), -1)]
    assert engine.results("q") == []


def test_restore_state_under_a_live_tap_marks_the_view_whole():
    program = _program()
    donor = DeltaEngine(program)
    donor.process_batch("R", 1, [(5, 50), (6, 60), (1, 1)])
    engine = DeltaEngine(program)
    engine.process_batch("R", 1, [(1, 10), (2, 20)])
    tap = ViewDeltaTap(engine)
    held = Counter(dict(tap.snapshot("q")[1]))
    engine.restore_state(engine_state(donor))
    assert tap.candidates == {"q": "event"}  # same maps, still watched
    batch = EventBatch("R", 1, [(9, 90)])
    engine.process_batch("R", 1, batch.rows)
    apply_changes(held, tap.on_batch(1, batch)["q"])
    assert held == Counter(engine.results("q"))
    assert held == Counter([(5, 50), (6, 60), (1, 1), (9, 90)])


def test_deepcopy_of_a_tapped_engine_is_an_untapped_engine():
    import copy

    engine = DeltaEngine(_program(MAP_KEYED))
    engine.process_batch("S", 1, [(1, 7)])
    engine.process_batch("R", 1, [(10, 1)])
    tap = ViewDeltaTap(engine)
    assert tap.candidates == {"q": "recorded"}
    clone = copy.deepcopy(engine)
    assert all(type(contents) is dict for contents in clone.maps.values())
    assert clone._watches == []
    clone.process_batch("R", 1, [(5, 1)])
    assert clone.results("q") == [(7, 15)]
    assert engine.results("q") == [(7, 10)]
    assert not tap._watch["q"][0]  # the clone's writes are its own
    assert type(engine.maps["q_q_sum_1"]) is RecordingDict
    assert type(copy.deepcopy(engine.maps["q_q_sum_1"])) is dict


def test_recording_dict_never_writes_silently():
    touched, other = set(), set()
    recording = RecordingDict({(1,): 1, (2,): 2}, [touched])

    def noted(write):
        touched.clear()
        write()
        return set(touched)

    assert noted(lambda: recording.__setitem__((3,), 3)) == {(3,)}
    assert noted(lambda: recording.pop((3,))) == {(3,)}
    assert noted(lambda: recording.pop((3,), None)) == {(3,)}
    with pytest.raises(KeyError):
        recording.pop((3,))
    assert noted(lambda: recording.update({(4,): 4}, x=1)) == {(4,), "x"}
    assert noted(lambda: recording.__delitem__("x")) == {"x"}
    assert noted(lambda: recording.setdefault((5,), 5)) == {(5,)}
    assert noted(recording.popitem) == {(5,)}
    assert noted(lambda: recording.__ior__({(6,): 6})) == {(6,)}
    assert noted(lambda: recording.add((6,), -6)) == {(6,)}
    assert (6,) not in recording
    assert noted(lambda: recording.add((7,), 7)) == {(7,)}
    recording.record_into([touched, other])
    live = set(recording)
    assert noted(recording.clear) == live == other
    assert recording == {} and type(recording.copy()) is dict
    with pytest.raises(TypeError):
        RecordingDict.fromkeys([(1,)])


def test_untapped_engines_are_untouched():
    import hashlib

    shipped = sorted({**FINANCE_QUERIES, **SSB_FLIGHT})
    assert len(shipped) == 11
    for query in shipped:
        program = lanes.shipped_program(query)
        for mode in lanes.executors(program):
            if mode == "interpreted":  # renders no module
                continue
            plain = DeltaEngine(program, mode=mode)
            tapped = DeltaEngine(program, mode=mode)
            layout = plain.storage_classes()
            assert "recording" not in layout.values()
            for name, kind in layout.items():
                assert (type(plain.maps[name]) is dict) == (kind == "dict")
            tap = ViewDeltaTap(tapped)
            digest = hashlib.sha256(plain._executor.source.encode()).hexdigest()
            assert (
                hashlib.sha256(tapped._executor.source.encode()).hexdigest()
                == digest
            )
            tap.close()
            assert tapped.storage_classes() == layout


def test_base_engine_cannot_say_what_a_batch_touched():
    engine = ShardedEngine(_program(), shards=2)
    assert Engine.watch_results(engine, ["q"]) == {}
    assert engine.watch_results(["q"]) == {}
    engine.unwatch_results({})  # a no-op, not an error
