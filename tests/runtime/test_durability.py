"""Units for the durability layer: frame codec, WAL, snapshots, recovery.

The crash-driven end-to-end properties live in
``test_fault_injection.py``; this module pins the pieces in isolation —
the column-packed frame codec round-trips every value shape an
:class:`~repro.runtime.events.EventBatch` can carry, the WAL survives
torn tails and rotation, snapshots are atomic and fall back past corrupt
files, and recovery refuses foreign programs.
"""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.compiler import compile_sql
from repro.errors import (
    DurabilityError,
    EventError,
    RecoveryError,
    UnknownStreamError,
    WalCorruptionError,
)
from repro.runtime import DeltaEngine, ShardedEngine, durability
from repro.runtime.durability import (
    _COLUMN_HEADER,
    _PAYLOAD_HEADER,
    DurableEngine,
    SnapshotStore,
    WriteAheadLog,
    decode_batch_payload,
    encode_batch_payload,
    encode_rows_payload,
    program_fingerprint,
    recover_engine,
)
from repro.runtime.engine import EMPTY_STATE, engine_state
from repro.runtime.events import EventBatch, StreamEvent
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
"""


def _program(query="SELECT A, sum(B) FROM R GROUP BY A"):
    return compile_sql(query, Catalog.from_script(CATALOG_DDL), name="q")


# ---------------------------------------------------------------------------
# Frame codec round-trips (EventBatch -> WAL payload -> EventBatch)
# ---------------------------------------------------------------------------


def _round_trip(batch: EventBatch) -> EventBatch:
    payload = encode_batch_payload(
        batch.relation, batch.sign, batch.columns, len(batch)
    )
    relation, sign, columns = decode_batch_payload(payload)
    return EventBatch.from_columns(relation, sign, columns)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 10), (2, 20), (3, 30)],                      # all-int columns
        [(1.5, -2.25), (0.0, 3.125)],                     # all-float columns
        [("ask", "ibm"), ("bid", "msft")],                # all-str columns
        [(1, 2.5, "x"), (2, 3.5, "yy")],                  # mixed column kinds
        [(1, "α"), (2, "βγ")],                            # non-ASCII strings
        [(True, 1), (False, 0)],                          # bools stay bools
        [(1, 2), (2.5, 3), ("x", 4)],                     # mixed within a column
        [(2**70, 1), (-(2**70), 2)],                      # beyond int64
        [(None, 1), ((1, 2), 2)],                         # arbitrary objects
    ],
)
def test_codec_round_trips_rows(rows):
    batch = EventBatch("R", 1, rows)
    back = _round_trip(batch)
    assert back.relation == "R" and back.sign == 1
    assert back.rows == [tuple(row) for row in rows]
    # Types survive exactly (2 stays int, True stays bool, 2.0 stays float).
    for original, decoded in zip(batch.rows, back.rows):
        assert [type(v) for v in original] == [type(v) for v in decoded]


def test_codec_round_trips_delete_sign_and_relation():
    batch = EventBatch("some_relation", -1, [(7, 8)])
    back = _round_trip(batch)
    assert back.sign == -1
    assert back.relation == "some_relation"
    assert back.rows == [(7, 8)]


def test_codec_round_trips_empty_batch():
    relation, sign, columns = decode_batch_payload(
        encode_batch_payload("R", 1, ((), ()), 0)
    )
    assert (relation, sign) == ("R", 1)
    assert [list(c) for c in columns] == [[], []]
    assert EventBatch.from_columns(relation, sign, columns).rows == []


def test_codec_round_trips_zero_arity_rows():
    batch = EventBatch("R", 1, [(), (), ()])
    payload = encode_batch_payload("R", 1, batch.columns, 3)
    relation, sign, columns = decode_batch_payload(payload)
    assert (relation, sign, columns) == ("R", 1, ())


def test_codec_via_columns_matches_via_rows():
    rows = [(1, 2.0, "a"), (3, 4.0, "b")]
    via_rows = EventBatch("R", 1, rows)
    via_columns = EventBatch.from_columns("R", 1, via_rows.columns)
    assert _round_trip(via_rows).rows == _round_trip(via_columns).rows == rows


# ---------------------------------------------------------------------------
# Mixed-sign frames: a weight column behind sign byte 0
# ---------------------------------------------------------------------------

#: One WAL segment of four uniform batches — both payload layouts, every
#: column tag — as written before mixed frames existed.  Uniform frames
#: must stay byte-identical: logs written before then recover, and a log
#: of uniform batches written now is still readable by an older build.
_UNIFORM_SEGMENT = bytes.fromhex(
    "5257414c0100010000000000000001000000000000002900000004000101000000ffff62"
    "69647380059511000000000000005d94284b014b024b034b644b057494612eeabd8ae802"
    "00000000000000370000000400ff02000000ffff61736b738005951f000000000000005d"
    "9428284b014b024b034b644b057494284b024b034b014b634b077494652eced5a5090300"
    "000000000000850000000100010500000003005271280000000100000000000000feffff"
    "ffffffffff03000000000000000000000000010000050000000000000064280000000000"
    "00000000f83f0000000000000440000000000000e0bf0000000000000000000000000000"
    "0a40551c0000000100000002000000000000000300000002000000616262636363c3a930"
    "4a313d0400000000000000530000000100ff050000000200535020000000800595150000"
    "00000000005d9428884b02473ff00000000000004b034b05652e501f0000008005951400"
    "0000000000005d94284e8c0178944b014b0286944b044b06652e9dc8cd24"
)


def _uniform_batches():
    return [
        EventBatch("bids", 1, [(1, 2, 3, 100, 5)]),
        EventBatch("asks", -1, [(1, 2, 3, 100, 5), (2, 3, 1, 99, 7)]),
        EventBatch.from_columns("R", 1, (
            [1, -2, 3, 2**40, 5],
            [1.5, 2.5, -0.5, 0.0, 3.25],
            ["a", "bb", "", "ccc", "é"],
        )),
        EventBatch("S", -1, [(True, None), (2, "x"), (1.0, (1, 2)), (3, 4), (5, 6)]),
    ]


def test_uniform_frames_are_byte_identical_to_the_pre_weight_format(tmp_path):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        for batch in _uniform_batches():
            wal.append_batch(batch)
    (segment,) = tmp_path.glob("wal-*.log")
    assert segment.read_bytes() == _UNIFORM_SEGMENT
    replayed = [
        EventBatch.from_columns(relation, sign, columns)
        for _, relation, sign, columns in WriteAheadLog.replay(tmp_path)
    ]
    assert replayed == _uniform_batches()


def test_codec_round_trips_a_weight_column_in_both_layouts():
    rows = [(1, 2.5, "x"), (2, 3.5, "y"), (3, 4.5, "z")]
    weights = [1, -1, 1]
    for payload in (
        encode_batch_payload("R", weights, EventBatch("R", 1, rows).columns, 3),
        encode_rows_payload("R", weights, rows),
    ):
        relation, sign, columns = decode_batch_payload(payload)
        assert (relation, sign) == ("R", weights)
        assert EventBatch.from_columns(relation, sign, columns).rows == rows


def test_mixed_batch_is_one_frame_and_replays_its_weights(tmp_path):
    logged = [
        EventBatch("R", [1, -1], [(1, 2), (1, 2)]),
        EventBatch("R", [-1, 1, 1, -1, 1, -1], [(i, i) for i in range(6)]),
        EventBatch("S", -1, [(7, 8)]),
    ]
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        assert [wal.append_batch(batch) for batch in logged] == [1, 2, 3]
    replayed = [
        EventBatch.from_columns(relation, sign, columns)
        for _, relation, sign, columns in WriteAheadLog.replay(tmp_path)
    ]
    assert replayed == logged
    assert replayed[1].sign == [-1, 1, 1, -1, 1, -1]


def test_decode_rejects_an_unknown_sign_byte(tmp_path):
    payload = bytearray(encode_rows_payload("R", 1, [(1, 2)]))
    payload[2] = 5  # the sign byte, after the u16 name length
    with pytest.raises(WalCorruptionError, match="sign byte 5"):
        decode_batch_payload(bytes(payload))
    # A CRC-valid frame carrying it fails replay instead of being dropped.
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        wal._append_payload(bytes(payload))
    with pytest.raises(WalCorruptionError, match="sign byte 5"):
        list(WriteAheadLog.replay(tmp_path))


def test_decode_rejects_a_weight_column_that_does_not_fit():
    rows = pickle.dumps([(1, 2), (3, 4), (5, 6)])

    def payload(claimed_rows, weights: bytes) -> bytes:
        return (
            _PAYLOAD_HEADER.pack(1, 0, claimed_rows, 0xFFFF) + b"R"
            + _COLUMN_HEADER.pack(b"b", len(weights)) + weights + rows
        )

    assert decode_batch_payload(payload(3, bytes([1, 255, 1])))[1] == [1, -1, 1]
    with pytest.raises(WalCorruptionError, match="4-row batch"):
        decode_batch_payload(payload(4, bytes([1, 255, 1])))
    with pytest.raises(WalCorruptionError, match="not only"):
        decode_batch_payload(payload(3, bytes([1, 2, 255])))


def test_a_torn_mixed_frame_loses_the_whole_batch(tmp_path):
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        wal.append_batch(EventBatch("R", 1, [(0, 0)]))
        wal.append_batch(EventBatch("R", [1, -1, 1, -1], [(i, i) for i in range(4)]))
    (segment,) = tmp_path.glob("wal-*.log")
    os.truncate(segment, segment.stat().st_size - 5)
    assert [(lsn, sign) for lsn, _, sign, _ in WriteAheadLog.replay(tmp_path)] == [
        (1, 1)
    ]


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------


def _append_n(wal: WriteAheadLog, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        wal.append_batch(EventBatch("R", 1, [(i, i * 10)]))


def test_wal_append_replay_round_trip(tmp_path):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 5)
        wal.append_batch(EventBatch("S", -1, [(1, 3), (2, 4)]))
    frames = list(WriteAheadLog.replay(tmp_path))
    assert [lsn for lsn, *_ in frames] == [1, 2, 3, 4, 5, 6]
    assert frames[0][1:] == ("R", 1, ([0], [0]))
    assert frames[-1][1:] == ("S", -1, ([1, 2], [3, 4]))


def test_wal_replay_after_lsn_filters_prefix(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        _append_n(wal, 10)
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path, after_lsn=7)] == [8, 9, 10]
    assert list(WriteAheadLog.replay(tmp_path, after_lsn=10)) == []


def test_wal_resumes_at_next_lsn(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        _append_n(wal, 3)
        assert wal.last_lsn == 3
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 3
        _append_n(wal, 2, start=3)
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3, 4, 5]


def test_wal_segment_rotation(tmp_path, small_segments):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 30)
    segments = sorted(tmp_path.glob("wal-*.log"))
    assert len(segments) > 1
    # Segment file names carry their first LSN; replay stitches them.
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == list(range(1, 31))


def test_wal_torn_tail_truncated_on_open(tmp_path):
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        _append_n(wal, 6)
    segment = sorted(tmp_path.glob("wal-*.log"))[-1]
    os.truncate(segment, segment.stat().st_size - 3)  # tear the last frame
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3, 4, 5]
    with WriteAheadLog(tmp_path) as wal:  # open repairs the tail in place
        assert wal.last_lsn == 5
        _append_n(wal, 1, start=5)
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3, 4, 5, 6]


def test_wal_corrupt_tail_crc_truncated(tmp_path):
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        _append_n(wal, 4)
    segment = sorted(tmp_path.glob("wal-*.log"))[-1]
    data = bytearray(segment.read_bytes())
    data[-2] ^= 0xFF  # flip a bit inside the final frame's CRC
    segment.write_bytes(bytes(data))
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3]


def test_wal_interior_corruption_raises(tmp_path, small_segments):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 30)
    first = sorted(tmp_path.glob("wal-*.log"))[0]
    data = bytearray(first.read_bytes())
    data[40] ^= 0xFF  # damage a frame in a non-final segment
    first.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        list(WriteAheadLog.replay(tmp_path))


def test_wal_ensure_lsn_leaves_forward_gap(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        _append_n(wal, 2)
        wal.ensure_lsn(10)  # a snapshot got ahead of the durable log
        assert wal.append_batch(EventBatch("R", 1, [(9, 9)])) == 11
    lsns = [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)]
    assert lsns == [1, 2, 11]  # gap-tolerant, strictly increasing


def test_wal_abandon_drops_buffered_frames(tmp_path):
    wal = WriteAheadLog(tmp_path, fsync="batch")
    _append_n(wal, 3)
    wal.sync()
    _append_n(wal, 2, start=3)  # buffered, never synced
    wal.abandon()
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3]


def test_wal_rejects_unknown_policy_and_closed_appends(tmp_path):
    with pytest.raises(DurabilityError):
        WriteAheadLog(tmp_path, fsync="sometimes")
    wal = WriteAheadLog(tmp_path)
    wal.close()
    with pytest.raises(DurabilityError):
        wal.append_batch(EventBatch("R", 1, [(1,)]))


def test_wal_truncate_before_removes_covered_segments(
    tmp_path, small_segments
):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 30)
        wal.sync()
        before = sorted(tmp_path.glob("wal-*.log"))
        assert len(before) > 2
        removed = wal.truncate_before(wal.last_lsn)
        assert removed  # everything but the active segment retired
        survivors = sorted(tmp_path.glob("wal-*.log"))
        assert survivors == [before[-1]]
        # Replay from the watermark still works over the survivor.
        assert list(WriteAheadLog.replay(tmp_path, after_lsn=30)) == []
        _append_n(wal, 2, start=30)
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path, after_lsn=30)] == [31, 32]


def test_wal_truncate_before_keeps_uncovered_suffix(tmp_path, small_segments):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 30)
        wal.sync()
        segments = sorted(tmp_path.glob("wal-*.log"))
        # A watermark mid-log must keep the segment holding watermark+1
        # and everything after it.
        watermark = 10
        wal.truncate_before(watermark)
        survivors = sorted(tmp_path.glob("wal-*.log"))
        assert survivors and len(survivors) <= len(segments)
        lsns = [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path, after_lsn=watermark)]
        assert lsns == list(range(watermark + 1, 31))


def test_wal_truncate_before_never_removes_active_segment(tmp_path):
    with WriteAheadLog(tmp_path, fsync="none") as wal:  # one segment only
        _append_n(wal, 5)
        wal.sync()
        assert wal.truncate_before(wal.last_lsn) == []
        assert len(list(tmp_path.glob("wal-*.log"))) == 1
        _append_n(wal, 1, start=5)
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path)] == [1, 2, 3, 4, 5, 6]


def test_durable_snapshot_truncates_wal_and_recovers(tmp_path, small_segments):
    program = _program()
    with DurableEngine(program, tmp_path, fsync="batch") as engine:
        for i in range(40):
            engine.process_batch("R", 1, [(i % 4, i)])
        engine.snapshot()
        after_first = len(list(tmp_path.glob("wal-*.log")))
        # First checkpoint retires every sealed segment: with a single
        # retained snapshot its own LSN is the oldest watermark.
        assert after_first == 1
        for i in range(40, 80):
            engine.process_batch("R", 1, [(i % 4, i)])
        grown = len(list(tmp_path.glob("wal-*.log")))
        engine.snapshot()
        # Second checkpoint truncates only to the *oldest retained*
        # snapshot (keep=2), so the suffix the fallback path may replay
        # survives.
        assert len(list(tmp_path.glob("wal-*.log"))) <= grown
        expected = engine.results("q")
    recovered, lsn = recover_engine(program, tmp_path)
    assert recovered.results("q") == expected
    assert lsn == 80


def test_durable_truncation_preserves_corrupt_snapshot_fallback(
    tmp_path, small_segments
):
    program = _program()
    with DurableEngine(program, tmp_path, fsync="batch") as engine:
        for i in range(30):
            engine.process_batch("R", 1, [(i % 3, i)])
        engine.snapshot()
        for i in range(30, 60):
            engine.process_batch("R", 1, [(i % 3, i)])
        engine.snapshot()
        expected = engine.results("q")
    snapshots = sorted(tmp_path.glob("snapshot-*.snap"))
    assert len(snapshots) == 2
    # Corrupt the newest snapshot: recovery must fall back to the older
    # one and replay the WAL suffix truncation left in place.
    data = bytearray(snapshots[-1].read_bytes())
    data[len(data) // 2] ^= 0xFF
    snapshots[-1].write_bytes(bytes(data))
    recovered, _ = recover_engine(program, tmp_path)
    assert recovered.results("q") == expected


def test_recover_engine_is_the_one_recovery_entry(tmp_path):
    """An engine class has no recovery classmethod of its own:
    ``recover_engine`` rebuilds every kind, forwarding engine options."""
    assert not hasattr(DeltaEngine, "recover")
    program = _program()
    with DurableEngine(program, tmp_path, fsync="always") as engine:
        for i in range(12):
            engine.process_batch("R", 1, [(i % 3, i)])
        expected = engine.results("q")
    recovered, lsn = recover_engine(program, tmp_path, mode="interpreted")
    assert type(recovered) is DeltaEngine and lsn == 12
    assert recovered.results("q") == expected


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_save_load_round_trip(tmp_path):
    store = SnapshotStore(tmp_path)
    store.save(5, {"maps": {"m": {(1,): 2}}, "events_processed": 7})
    state = store.load_latest()
    assert state["lsn"] == 5
    assert state["maps"] == {"m": {(1,): 2}}
    assert state["events_processed"] == 7


def test_snapshot_latest_wins_and_prunes(tmp_path):
    store = SnapshotStore(tmp_path)
    for lsn in (1, 2, 3):
        store.save(lsn, {"maps": {}, "n": lsn})
    assert store.load_latest()["n"] == 3
    assert len(store.paths()) == 2  # two kept: the oldest pruned


def test_snapshot_corrupt_latest_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(durability, "_SNAPSHOTS_KEPT", 3)
    store = SnapshotStore(tmp_path)
    store.save(1, {"maps": {"m": {(1,): 1}}})
    store.save(2, {"maps": {"m": {(1,): 2}}})
    latest = store.paths()[-1]
    data = bytearray(latest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    latest.write_bytes(bytes(data))
    assert store.load_latest()["maps"] == {"m": {(1,): 1}}


def test_snapshot_tmp_files_are_invisible_and_pruned(tmp_path):
    store = SnapshotStore(tmp_path)
    stray = Path(tmp_path) / "snapshot-0000000000000009.snap.tmp"
    stray.write_bytes(b"half a snapshot")
    assert store.load_latest() is None
    store.save(1, {"maps": {}})
    assert not stray.exists()  # save prunes strays left by crashes


def test_snapshot_empty_directory_loads_none(tmp_path):
    assert SnapshotStore(tmp_path).load_latest() is None


# ---------------------------------------------------------------------------
# Recovery guards
# ---------------------------------------------------------------------------


def test_fingerprint_distinguishes_programs():
    a = program_fingerprint(_program("SELECT A, sum(B) FROM R GROUP BY A"))
    b = program_fingerprint(_program("SELECT sum(A) FROM R"))
    assert a != b
    assert a == program_fingerprint(_program("SELECT A, sum(B) FROM R GROUP BY A"))


def test_recover_refuses_foreign_program(tmp_path):
    with DurableEngine(_program(), tmp_path) as engine:
        engine.insert("R", 1, 2)
    other = _program("SELECT sum(A) FROM R")
    with pytest.raises(RecoveryError, match="different program"):
        recover_engine(other, tmp_path)
    with pytest.raises(RecoveryError, match="different program"):
        DurableEngine(other, tmp_path)


#: The fingerprints bsp, psp and bbo had while their product slots were
#: maintained root maps (a directory that build wrote stores these).
MAINTAINED_ROOT_FINGERPRINTS = {
    "bsp": "0d56e0928f76b4b5",
    "psp": "58f91d8a681e6cd1",
    "bbo": "d7f57aedb06aea4b",
}


@pytest.mark.parametrize("query", sorted(MAINTAINED_ROOT_FINGERPRINTS))
def test_a_directory_of_maintained_roots_is_refused(query, tmp_path):
    """Reading bsp's, psp's and bbo's count slots as products dropped
    their root maps, and the fingerprint covers map names: a directory
    written when they were maintained is refused by name, not replayed
    into maps that no longer exist."""
    program = compile_sql(FINANCE_QUERIES[query], finance_catalog(), name=query)
    stored = MAINTAINED_ROOT_FINGERPRINTS[query]
    assert program.products and program_fingerprint(program) != stored
    (tmp_path / durability._META_FILE).write_text(
        json.dumps({"format": durability._FORMAT_VERSION, "fingerprint": stored})
    )
    with pytest.raises(RecoveryError, match=f"fingerprint '{stored}'"):
        recover_engine(program, tmp_path)
    with pytest.raises(RecoveryError, match="different program"):
        DurableEngine(program, tmp_path)


def test_recover_empty_directory_yields_fresh_engine(tmp_path):
    engine, lsn = recover_engine(_program(), tmp_path)
    assert lsn == 0
    assert engine.events_processed == 0
    assert engine.results("q") == []


def test_durable_engine_rejects_bad_options(tmp_path):
    with pytest.raises(DurabilityError):
        DurableEngine(_program(), tmp_path, snapshot_every=0)
    with pytest.raises(DurabilityError):
        DurableEngine(_program(), tmp_path, fsync="perhaps")


def test_durable_engine_rejects_use_after_close(tmp_path):
    engine = DurableEngine(_program(), tmp_path)
    engine.insert("R", 1, 2)
    engine.close()
    with pytest.raises(DurabilityError):
        engine.insert("R", 1, 2)


def test_precheck_keeps_bad_events_out_of_the_log(tmp_path):
    program = compile_sql(
        "SELECT A, sum(B) FROM R GROUP BY A",
        Catalog.from_script(CATALOG_DDL),
        name="q",
    )
    with DurableEngine(program, tmp_path, strict=True, fsync="always") as engine:
        engine.insert("R", 1, 2)
        with pytest.raises(UnknownStreamError):
            engine.insert("Nope", 1, 2)
    # The rejected event was never logged, so recovery replays cleanly.
    recovered, lsn = recover_engine(program, tmp_path, strict=True)
    assert lsn == 1
    assert recovered.events_processed == 1


def test_restore_state_rejects_unknown_maps():
    engine = DeltaEngine(_program())
    with pytest.raises(EventError, match="unknown maps"):
        engine.restore_state(dict(EMPTY_STATE, maps={"not_a_map": {}}))


def test_the_empty_state_is_read_only():
    """Every copy of the empty state shares its ``maps``."""
    with pytest.raises(TypeError):
        dict(EMPTY_STATE)["maps"]["m"] = {}


# ---------------------------------------------------------------------------
# Unknown-relation diagnostics (strict mode)
# ---------------------------------------------------------------------------


def test_unknown_relation_error_names_relation_and_lists_known():
    engine = DeltaEngine(_program(), strict=True)
    with pytest.raises(UnknownStreamError) as excinfo:
        engine.insert("Trades", 1, 2)
    message = str(excinfo.value)
    assert "'Trades'" in message
    assert "known relations" in message and "R" in message


# ---------------------------------------------------------------------------
# The shared engine core: admission rules and lifecycle on every engine shape
# ---------------------------------------------------------------------------

ENGINE_SHAPES = {
    "delta": lambda program, path, **kw: DeltaEngine(program, **kw),
    "sharded-local": lambda program, path, **kw: ShardedEngine(
        program, shards=2, **kw
    ),
    "sharded-parallel": lambda program, path, **kw: ShardedEngine(
        program, shards=2, parallel=True, **kw
    ),
    "durable-1": lambda program, path, **kw: DurableEngine(
        program, path, shards=1, **kw
    ),
    "durable-2": lambda program, path, **kw: DurableEngine(
        program, path, shards=2, **kw
    ),
}


#: Inputs every engine shape refuses whole, before anything is applied or
#: logged: rows of the wrong width for ``R (A, B)`` on the per-event,
#: one-row, multi-row and columnar paths, and signs that equal +1 or -1
#: but are a float or a bool.
REFUSED = {
    "short event": lambda e: e.insert("R", 1),
    "long event": lambda e: e.insert("R", 1, 2, {}),
    "short row": lambda e: e.process_batch("R", 1, [(1,)]),
    "long row": lambda e: e.process_batch("R", 1, [(1, 2, {})]),
    "short rows": lambda e: e.process_batch("R", 1, [(1, 2), (1,)]),
    "long rows": lambda e: e.process_batch("R", -1, [(1, 2, 3)] * 2),
    "short columns": lambda e: e.process_batch_columns("R", 1, ([1, 2],)),
    "float event": lambda e: e.process(StreamEvent("R", 1.0, (1, 2))),
    "float row": lambda e: e.process_batch("R", 1.0, [(1, 2)]),
    "float rows": lambda e: e.process_batch("R", -1.0, [(1, 2)] * 2),
    "float weights": lambda e: e.process_batch("R", [1, -1.0], [(1, 2)] * 2),
    "bool row": lambda e: e.process_batch("R", True, [(1, 2)]),
}


@pytest.mark.parametrize("shape", sorted(ENGINE_SHAPES))
def test_engine_core_rules_hold_on_every_engine_shape(shape, tmp_path):
    make = ENGINE_SHAPES[shape]
    # Strict mode names the unknown relation, on the batch and load paths.
    with make(_program(), tmp_path / "strict", strict=True) as engine:
        with pytest.raises(UnknownStreamError, match="known relations"):
            engine.process_batch("Nope", 1, [(1, 2), (3, 4)])
        with pytest.raises(UnknownStreamError, match="known relations"):
            engine.load("Nope", [(1, 2)])
    # A non-strict engine skips (and counts) it instead.
    with make(_program(), tmp_path / "lax") as engine:
        engine.insert("Nope", 1, 2)
        assert engine.events_skipped == 1
        assert engine.events_processed == 0
    # A wrong-width row or a float or bool sign raises EventError and
    # changes no map, counter or log (a routed relation included).
    with make(_program(), tmp_path / "refused") as engine:
        engine.insert("R", 1, 2)
        engine.insert("R", 1, 3)

        def state():
            logged = engine.lsn if isinstance(engine, DurableEngine) else None
            return repr(engine.current_maps()), engine.events_processed, logged

        before = state()
        for name, refused in REFUSED.items():
            with pytest.raises(EventError):
                refused(engine)
            assert state() == before, name
    # Static tables take inserts only, and only before the first stream event.
    static = compile_sql(
        "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k",
        Catalog.from_script(
            "CREATE TABLE dim (k int, v int); CREATE STREAM fact (k int, x int);"
        ),
        name="q",
    )
    engine = make(static, tmp_path / "static")
    with pytest.raises(EventError, match="only supports bulk-load"):
        engine.delete("dim", 1, 2)
    engine.load("dim", [(1, 2), (2, 3)])
    engine.process_batch("fact", 1, [(1, 10), (2, 100)])
    with pytest.raises(EventError, match="cannot change after"):
        engine.load("dim", [(3, 4)])
    # Lifecycle: every engine answers the sync() barrier, close() is
    # idempotent (and what leaving the with-blocks above called).
    engine.sync()
    assert engine.result_scalar() == 320
    engine.close()
    engine.close()


def _state(engine) -> str:
    """``engine``'s maps, counters and stream state, as :func:`engine_state`
    reads them off the engine a durable one wraps."""
    return repr(engine_state(getattr(engine, "engine", engine)))


@pytest.mark.parametrize("shape", sorted(ENGINE_SHAPES))
def test_every_engine_shape_restores_its_snapshot_whole(shape, tmp_path):
    make = ENGINE_SHAPES[shape]
    program = _program("SELECT A, sum(B), max(B) FROM R GROUP BY A")
    with make(program, tmp_path / "source") as source:
        source.process_batch("R", 1, [(i % 3, i) for i in range(12)])
        source.insert("S", 1, 2)  # no query reads S: skipped
        source.process_batch("R", [1, -1], [(5, 1), (0, 3)])
        snapshot = engine_state(getattr(source, "engine", source))
        assert snapshot["stream_started"] and snapshot["events_skipped"] == 1
        with make(program, tmp_path / "target") as target:
            target.restore_state(snapshot)
            assert _state(target) == _state(source) == repr(snapshot)


@pytest.mark.parametrize("shards", [1, 2])
def test_a_value_no_column_takes_is_refused_before_the_log(shards, tmp_path):
    """A row of the right width with a value its column cannot take
    raises before the WAL append, naming the relation and the column:
    nothing is logged or applied, and the directory reopens."""
    program = compile_sql(FINANCE_QUERIES["bsp"], finance_catalog(), name="bsp")
    engine = DurableEngine(program, tmp_path, shards=shards)
    engine.insert("bids", 1, 7, 1, 100, 5)
    engine.process_batch("bids", 1, [(2, 8, 1, 101, 5)] * 6)
    before = (engine.lsn, _state(engine))
    mixed = (1, 2, 3, True, 5)
    for refused, match in (
        (lambda: engine.insert("bids", 2, 8, 1, "x", 5), "'price' is INT; got 'x'"),
        (lambda: engine.insert("bids", 2, 8, 1, 100, 5.5), "'volume' is INT"),
        (lambda: engine.insert("bids", None, 8, 1, 100, 5), "'t' is INT; got None"),
        (lambda: engine.insert("bids", 2, 8, 1, 100), "got a row of 4 values"),
        (
            lambda: engine.process_batch("asks", -1, [(1, 2, 3, 4, 5), mixed]),
            "relation 'asks' column 'price' is INT; got True",
        ),
        (lambda: engine.process_batch_columns(
            "bids", 1, ([1] * 9, [2] * 9, [3] * 9, [4] * 8 + ["4"], [5] * 9)
        ), "'price' is INT; got '4'"),
    ):
        with pytest.raises(EventError, match=match):
            refused()
        assert (engine.lsn, _state(engine)) == before
    engine.close()
    with DurableEngine(program, tmp_path, shards=shards) as reopened:
        assert (reopened.lsn, _state(reopened)) == before
    recovered, lsn = recover_engine(program, tmp_path)
    assert (lsn, _state(recovered)) == before


#: A two-batch window whose second batch holds a value its column cannot
#: take: ``process_stream`` regroups it into a bids batch, then an asks one.
_BAD_WINDOW = [
    StreamEvent("bids", 1, (1, 1, 1, 100, 5)),
    StreamEvent("asks", 1, (2, 2, 1, "x", 5)),
]


@pytest.mark.parametrize("shape", ["durable", "supervised", "served"])
def test_a_window_is_refused_whole_before_its_first_batch_is_logged(shape, tmp_path):
    """On a logged engine every batch of a window passes the value check
    before the first is logged: a bad value in the window's last batch
    leaves the maps, the counters and the log where they were."""
    from repro.runtime.serving import ServerThread

    program = compile_sql(FINANCE_QUERIES["bsp"], finance_catalog(), name="bsp")
    if shape == "supervised":
        engine = ShardedEngine(program, shards=2, parallel=True, supervise=True)
    else:
        engine = DurableEngine(program, tmp_path, fsync="none")
    engine.insert("bids", 7, 7, 1, 90, 3)

    def state():
        return getattr(engine, "lsn", None), engine.events_processed, _state(engine)

    before = state()
    with pytest.raises(EventError, match="'price' is INT; got 'x'"):
        if shape == "served":
            with ServerThread(engine) as handle:
                handle.publish_stream(_BAD_WINDOW, batch_size=2)
        else:
            engine.process_stream(_BAD_WINDOW, 2)
    assert state() == before
    engine.close()


def test_single_lane_durable_engine_takes_supervision_as_a_noop(tmp_path):
    # One lane has no worker to supervise; like a ShardedEngine without
    # forked lanes, the knob is accepted and inert (it used to be a bare
    # TypeError from DeltaEngine.__init__).
    with DurableEngine(
        _program(), tmp_path, shards=1, supervise=True, fsync="always"
    ) as engine:
        engine.insert("R", 1, 2)
        assert isinstance(engine.engine, DeltaEngine)
    recovered, lsn = recover_engine(
        _program(), tmp_path, shards=1, supervise=True, max_worker_restarts=1
    )
    assert lsn == 1
    assert recovered.results() == [(1, 2)]


# ---------------------------------------------------------------------------
# Resume watermark agreement (oldest_replayable_lsn / ResumeGapError)
# ---------------------------------------------------------------------------


def test_oldest_replayable_lsn_tracks_truncation(tmp_path, small_segments):
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        # A frameless fresh log answers its next LSN (coverage starts
        # there; nothing has been truncated away).
        assert wal.oldest_replayable_lsn() == 1
        _append_n(wal, 30)
        assert wal.oldest_replayable_lsn() == 1
        wal.truncate_before(20)
        oldest = wal.oldest_replayable_lsn()
        # truncate_before keeps the segment holding watermark+1, so the
        # oldest replayable frame is at or below the watermark + 1.
        assert oldest is not None and oldest <= 21
        # Agreement: replay from oldest-1 works, replay from before the
        # truncated prefix raises the typed gap error.
        lsns = [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path, after_lsn=oldest - 1)]
        assert lsns == list(range(oldest, 31))


def test_replay_raises_resume_gap_for_pre_truncation_lsn(tmp_path, small_segments):
    from repro.errors import ResumeGapError

    with WriteAheadLog(tmp_path, fsync="none") as wal:
        _append_n(wal, 30)
        wal.truncate_before(20)
        oldest = wal.oldest_replayable_lsn()
    assert oldest > 2
    with pytest.raises(ResumeGapError) as info:
        list(WriteAheadLog.replay(tmp_path, after_lsn=1))
    assert info.value.requested_lsn == 1
    assert info.value.oldest_lsn == oldest


def test_replay_raises_resume_gap_on_forward_gap(tmp_path):
    from repro.errors import ResumeGapError

    with WriteAheadLog(tmp_path, fsync="none") as wal:
        wal.ensure_lsn(10)  # fresh log starting past a snapshot watermark
        _append_n(wal, 3)
    # Replay from the watermark is fine (first frame is 11)...
    assert [lsn for lsn, *_ in WriteAheadLog.replay(tmp_path, after_lsn=10)] == [11, 12, 13]
    # ...but a reader expecting frames 1..10 must be told they are gone.
    with pytest.raises(ResumeGapError):
        list(WriteAheadLog.replay(tmp_path, after_lsn=0))


def test_snapshot_load_latest_max_lsn(tmp_path, monkeypatch):
    monkeypatch.setattr(durability, "_SNAPSHOTS_KEPT", 10)
    store = SnapshotStore(tmp_path)
    for lsn in (5, 10, 15):
        store.save(lsn, {"maps": {}, "marker": lsn})
    assert store.load_latest()["marker"] == 15
    assert store.load_latest(max_lsn=12)["marker"] == 10
    assert store.load_latest(max_lsn=5)["marker"] == 5
    assert store.load_latest(max_lsn=4) is None


def test_durable_engine_oldest_replayable_lsn(tmp_path, small_segments):
    engine = DurableEngine(_program(), tmp_path, fsync="none")
    for i in range(40):
        engine.process_batch("R", 1, [(i % 4, i)])
    assert engine.oldest_replayable_lsn() == 1
    engine.snapshot()  # retires fully covered segments
    oldest = engine.oldest_replayable_lsn()
    assert oldest is None or oldest > 1
    engine.close()
