"""Durability: Z-set write-ahead log, engine snapshots and crash recovery.

The engine's maintained maps are main-memory state: without this module
they die with the process.  Durability follows directly from the delta
architecture — a maintained view is a *function of the update stream's
prefix* (the higher-order delta compilation replays deltas; DBSP makes
the same point formally), so persisting the stream is persisting the
views.  Three pieces:

* :class:`WriteAheadLog` — an append-only log of LSN-prefixed,
  CRC-checksummed event-batch frames.  A frame serialises one
  :class:`~repro.runtime.events.EventBatch` *column-packed* (the batch is
  already struct-of-arrays: int64/float64 columns write as packed arrays,
  string columns as length-prefixed UTF-8, anything else pickles), so the
  log layout mirrors the runtime layout; a batch that mixes inserts and
  deletes is still one frame, its signs one packed int8 weight column
  (so a torn frame loses the whole batch or none of it).  Frames append
  to segment files
  (``wal-<first_lsn>.log``) rotated at a size threshold; the fsync policy
  (``"always"`` / ``"batch"`` / ``"none"``) trades durability latency for
  throughput; a torn tail — the partial frame a crash leaves behind — is
  detected by CRC on open and truncated away.

* :class:`SnapshotStore` — whole-engine snapshots
  ``(lsn_watermark, maps, counters)`` written atomically (tmp file,
  fsync, rename, directory fsync) with a CRC trailer, taken manually
  (:meth:`DurableEngine.snapshot`) or every N events.  Invalid or torn
  snapshots are skipped at load time, falling back to the previous one.

* **recovery** (:func:`recover_engine`, :meth:`DurableEngine.__init__`)
  — read the log (:func:`read_log`: the latest valid snapshot and the
  WAL suffix ``lsn > watermark``), replay it through the normal batch
  path (:func:`restore_and_replay`, the one such loop), resume logging
  at the right LSN.  The recovery
  invariant (pinned by the hypothesis suite in
  ``tests/runtime/test_fault_injection.py``): *snapshot + WAL-suffix
  replay lands on a state identical to an uninterrupted engine that
  processed the same logged prefix*, and replaying any WAL prefix twice
  is idempotent because frames at or below the watermark are skipped by
  LSN, never re-applied.

:class:`DurableEngine` layers over a :class:`~repro.runtime.engine.DeltaEngine`
(or, with ``shards > 1``, a :class:`~repro.runtime.engine.ShardedEngine`)
and logs every batch *before* applying it — as the wrapped engine's log
step, pre-partition, so one log serves any future shard count: the same
directory can be recovered into a single engine or any shard fan-out.

Fault injection hooks: the WAL, the snapshot store and the durable engine
call a *probe* callable (when installed) at the labelled points listed in
:data:`PROBE_POINTS`.  :class:`CrashPoint` is the standard probe — it
counts occurrences of one label and fires an action (SIGKILL by default)
on the Nth, which is how ``tests/runtime/fault_injection.py`` kills real
subprocesses mid-frame-write, between append and apply, or mid-snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import struct
import sys
import zlib
from array import array
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.compiler.program import CompiledProgram
from repro.errors import (
    DurabilityError,
    RecoveryError,
    ResumeGapError,
    WalCorruptionError,
)
from repro.runtime.engine import EMPTY_STATE, Engine, engine_state
from repro.runtime.events import EventBatch

#: Labels at which the durability layer calls its fault-injection probe.
PROBE_POINTS = (
    "wal.mid_frame",         # half a flush written to the segment fd
    "engine.after_append",   # frame durable per policy, not yet applied
    "engine.after_apply",    # frame applied, snapshot check not yet run
    "snapshot.mid_write",    # half the snapshot body written to the tmp
    "snapshot.before_rename",  # tmp complete + fsynced, not yet renamed
)

#: Accepted WAL fsync policies.
FSYNC_POLICIES = ("always", "batch", "none")

#: Rotate to a fresh segment once the current one exceeds this (read at
#: append time, so a test may patch it).
_SEGMENT_BYTES = 16 * 1024 * 1024

#: ``batch``/``none`` appends buffer in memory up to this many bytes
#: before being written out (bounds loss *and* memory, not durability —
#: only ``sync()`` establishes a durability barrier).
DEFAULT_FLUSH_BYTES = 256 * 1024

_FORMAT_VERSION = 1
_SEGMENT_MAGIC = b"RWAL"
_SNAPSHOT_MAGIC = b"RSNP"
_SEGMENT_HEADER = struct.Struct("<4sHQ")   # magic, version, first_lsn
_FRAME_HEADER = struct.Struct("<QI")       # lsn, payload length
_FRAME_CRC = struct.Struct("<I")           # crc32(header + payload)
_PAYLOAD_HEADER = struct.Struct("<HbIH")   # relation len, sign, rows, cols
_COLUMN_HEADER = struct.Struct("<cI")      # type tag, encoded length
_SNAPSHOT_HEADER = struct.Struct("<4sHQI")  # magic, version, lsn, body len
_FRAME_OVERHEAD = _FRAME_HEADER.size + _FRAME_CRC.size

#: Frames larger than this are rejected as corruption rather than
#: allocated (a torn length field can claim gigabytes).
_MAX_PAYLOAD_BYTES = 1 << 31

#: Batches at or below this many rows skip the per-column packing and
#: pickle their row list in one call — small windows and hand-made
#: batches hold one or two rows, where per-column dispatch costs more
#: than the data (pickle round-trips values and types exactly, like the
#: ``P`` column tag).  The column count field carries the sentinel below.
_SMALL_BATCH_ROWS = 4

#: ``cols`` value in the payload header marking a pickled-rows payload.
_ROWS_SENTINEL = 0xFFFF

#: ``sign`` value in the payload header marking a mixed-sign batch: a
#: weight column (tag ``b``, one int8 ±1 per row) follows the relation
#: name.  Uniform batches keep ``+1``/``-1`` there, byte for byte.
_MIXED_SIGN = 0

# Bound once: the append path runs per frame, and small windows make
# one/two-row frames, so attribute lookups show up.
_pack_payload_header = _PAYLOAD_HEADER.pack
_pack_column_header = _COLUMN_HEADER.pack
_pack_frame_header = _FRAME_HEADER.pack
_pack_crc = _FRAME_CRC.pack
_crc32 = zlib.crc32
_dumps = pickle.dumps
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

_NAME_CACHE: dict[str, bytes] = {}


def _encoded_name(relation: str) -> bytes:
    """UTF-8 relation name, cached (relation sets are small and fixed)."""
    name = _NAME_CACHE.get(relation)
    if name is None:
        name = _NAME_CACHE[relation] = relation.encode("utf-8")
    return name

_META_FILE = "durable.json"

#: Snapshots a :class:`SnapshotStore` retains: the newest, and one older
#: for recovery to fall back to past a corrupt newest file.
_SNAPSHOTS_KEPT = 2


# ---------------------------------------------------------------------------
# Column-packed frame codec
# ---------------------------------------------------------------------------


def _pack_numeric(kind: str, values: Sequence) -> bytes:
    packed = array(kind, values)
    if sys.byteorder == "big":  # frames are little-endian on disk
        packed.byteswap()
    return packed.tobytes()


def _unpack_numeric(kind: str, data: bytes) -> list:
    unpacked = array(kind)
    unpacked.frombytes(data)
    if sys.byteorder == "big":
        unpacked.byteswap()
    return unpacked.tolist()


def _encode_column(values: Sequence) -> tuple[bytes, bytes]:
    """One column as ``(type tag, packed bytes)``.

    Tags mirror the runtime's column kinds: ``q`` all-int64, ``d``
    all-float, ``U`` all-str (length-prefixed UTF-8), ``P`` pickled
    fallback for mixed/boxed columns.  Type sets are checked strictly
    (``bool`` is not ``int``, ``2`` is not ``2.0``) so decoding
    round-trips values *and their types* exactly.
    """
    kinds = set(map(type, values))
    if not kinds or kinds == {int}:
        try:
            return b"q", _pack_numeric("q", values)
        except OverflowError:  # a value outside int64: box the column
            return b"P", pickle.dumps(list(values), pickle.HIGHEST_PROTOCOL)
    if kinds == {float}:
        return b"d", _pack_numeric("d", values)
    if kinds == {str}:
        encoded = [value.encode("utf-8") for value in values]
        lengths = _pack_numeric("I", [len(item) for item in encoded])
        return b"U", lengths + b"".join(encoded)
    return b"P", pickle.dumps(list(values), pickle.HIGHEST_PROTOCOL)


def _decode_column(tag: bytes, data: bytes, rows: int) -> list:
    if tag == b"q":
        return _unpack_numeric("q", data)
    if tag == b"d":
        return _unpack_numeric("d", data)
    if tag == b"U":
        lengths = _unpack_numeric("I", data[: 4 * rows])
        out, offset = [], 4 * rows
        for length in lengths:
            out.append(data[offset:offset + length].decode("utf-8"))
            offset += length
        return out
    if tag == b"P":
        return pickle.loads(data)
    raise WalCorruptionError(f"unknown WAL column tag {tag!r}")


def _payload_head(relation: str, sign, rows: int, n_columns: int) -> bytes:
    """Payload header and relation name — then, for a mixed batch
    (``sign`` is its weight column), the packed weight column."""
    name = _encoded_name(relation)
    if not isinstance(sign, list):
        return _pack_payload_header(len(name), sign, rows, n_columns) + name
    weights = array("b", sign).tobytes()
    return (
        _pack_payload_header(len(name), _MIXED_SIGN, rows, n_columns)
        + name
        + _pack_column_header(b"b", len(weights))
        + weights
    )


def encode_batch_payload(
    relation: str, sign, columns: Sequence[Sequence], rows: int
) -> bytes:
    """Serialise one batch column-packed (the WAL frame payload);
    ``sign`` is ``+1``/``-1`` or a mixed batch's weight column."""
    parts = [_payload_head(relation, sign, rows, len(columns))]
    for column in columns:
        tag, data = _encode_column(column)
        parts.append(_pack_column_header(tag, len(data)))
        parts.append(data)
    return b"".join(parts)


def encode_rows_payload(relation: str, sign, rows: Sequence) -> bytes:
    """The small-batch payload: one pickled row list, no column dispatch.

    Same frame envelope and header as :func:`encode_batch_payload` with
    ``cols`` set to :data:`_ROWS_SENTINEL`; :func:`decode_batch_payload`
    transposes back to columns, so readers see one format.  A list is
    pickled as handed (no copy); any other sequence is listed first, so
    the bytes are the same either way.
    """
    return _payload_head(relation, sign, len(rows), _ROWS_SENTINEL) + _dumps(
        rows if type(rows) is list else list(rows), _PICKLE_PROTOCOL
    )


def _decode_weights(payload: bytes, offset: int, rows: int) -> tuple[list, int]:
    """A mixed frame's weight column at ``offset``, and the offset past
    it; anything but ``rows`` entries of ``+1``/``-1`` is corruption."""
    tag, length = _COLUMN_HEADER.unpack_from(payload, offset)
    offset += _COLUMN_HEADER.size
    weights = array("b", payload[offset:offset + length]).tolist()
    if tag != b"b" or length != rows or len(weights) != rows:
        raise WalCorruptionError(
            f"WAL weight column holds {len(weights)} of {length} bytes "
            f"(tag {tag!r}) for a {rows}-row batch"
        )
    if not {1, -1}.issuperset(weights):
        raise WalCorruptionError(
            f"WAL weight column holds {sorted(set(weights) - {1, -1})}, "
            "not only +1/-1"
        )
    return weights, offset + length


def decode_batch_payload(payload: bytes) -> tuple[str, object, tuple[list, ...]]:
    """Inverse of the payload encoders (columns in either layout; the
    sign as ``+1``/``-1`` or a mixed batch's weight column).  Raises
    :class:`~repro.errors.WalCorruptionError` for a sign byte no encoder
    writes or a weight column that does not fit the batch."""
    name_len, sign, rows, n_columns = _PAYLOAD_HEADER.unpack_from(payload, 0)
    offset = _PAYLOAD_HEADER.size
    relation = payload[offset:offset + name_len].decode("utf-8")
    offset += name_len
    if sign == _MIXED_SIGN:
        sign, offset = _decode_weights(payload, offset, rows)
    elif sign != 1 and sign != -1:
        raise WalCorruptionError(
            f"unknown WAL sign byte {sign} in a frame for {relation!r}"
        )
    if n_columns == _ROWS_SENTINEL:
        row_list = pickle.loads(payload[offset:])
        if not row_list:
            return relation, sign, ()
        return relation, sign, tuple(map(list, zip(*row_list)))
    columns = []
    for _ in range(n_columns):
        tag, data_len = _COLUMN_HEADER.unpack_from(payload, offset)
        offset += _COLUMN_HEADER.size
        columns.append(_decode_column(tag, payload[offset:offset + data_len], rows))
        offset += data_len
    return relation, sign, tuple(columns)


def encode_frame(lsn: int, payload: bytes) -> bytes:
    """An LSN-prefixed, CRC-trailed WAL frame."""
    header = _FRAME_HEADER.pack(lsn, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header))
    return header + payload + _FRAME_CRC.pack(crc)


def _walk_frames(data: bytes) -> Iterator[tuple[int, int, bytes, int]]:
    """Yield ``(offset, lsn, payload, end_offset)`` for each *valid* frame.

    Stops (without raising) at the first frame that is truncated or fails
    its CRC — the caller decides whether that is a torn tail (last
    segment: truncate) or corruption (interior segment: raise).
    """
    offset, size = 0, len(data)
    while offset + _FRAME_OVERHEAD <= size:
        lsn, payload_len = _FRAME_HEADER.unpack_from(data, offset)
        if payload_len > _MAX_PAYLOAD_BYTES:
            return
        end = offset + _FRAME_HEADER.size + payload_len + _FRAME_CRC.size
        if end > size:
            return
        payload_start = offset + _FRAME_HEADER.size
        payload = data[payload_start:payload_start + payload_len]
        (stored_crc,) = _FRAME_CRC.unpack_from(data, end - _FRAME_CRC.size)
        crc = zlib.crc32(payload, zlib.crc32(data[offset:payload_start]))
        if crc != stored_crc:
            return
        yield offset, lsn, payload, end
        offset = end


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _sigkill_self() -> None:
    """The default crash action: die as uncleanly as the OS allows."""
    os.kill(os.getpid(), signal.SIGKILL)


class CrashPoint:
    """A fault-injection probe: fire ``action`` at the Nth hit of a label.

    Install as the ``probe=`` argument of :class:`DurableEngine` (it is
    threaded through to the WAL and the snapshot store).  Every call with
    a matching label increments the counter; on hit number ``hits`` the
    action runs — by default ``SIGKILL`` to the calling process, which is
    how the fault-injection harness produces real unclean deaths at
    deterministic points.  See :data:`PROBE_POINTS` for the labels.
    """

    def __init__(
        self,
        label: str,
        hits: int = 1,
        action: Callable[[], None] = _sigkill_self,
    ) -> None:
        if label not in PROBE_POINTS:
            raise DurabilityError(
                f"unknown probe label {label!r}; known points: "
                + ", ".join(PROBE_POINTS)
            )
        if hits < 1:
            raise DurabilityError(f"CrashPoint hits must be >= 1, got {hits!r}")
        self.label = label
        self.hits = hits
        self.action = action
        self.count = 0
        self.fired = False

    def __call__(self, label: str) -> None:
        if label != self.label:
            return
        self.count += 1
        if self.count == self.hits:
            self.fired = True
            self.action()


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------


def _segment_path(directory: Path, first_lsn: int) -> Path:
    return directory / f"wal-{first_lsn:016d}.log"


def _segment_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("wal-*.log"))


def _segment_first_lsn(path: Path) -> Optional[int]:
    """The segment header's first LSN, or None for a torn/foreign header."""
    try:
        with open(path, "rb") as handle:
            header = handle.read(_SEGMENT_HEADER.size)
    except OSError:
        return None
    if len(header) < _SEGMENT_HEADER.size:
        return None
    magic, version, first_lsn = _SEGMENT_HEADER.unpack(header)
    if magic != _SEGMENT_MAGIC or version != _FORMAT_VERSION:
        return None
    return first_lsn


def _oldest_replayable_lsn(directory: Path) -> Optional[int]:
    """The LSN of the oldest frame still on disk, or None for no frames.

    The first *valid frame* of the first readable segment, not the
    segment header's first LSN: an ``ensure_lsn`` forward gap can leave
    a segment whose header claims an LSN no frame carries.  Falls back
    to the header LSN for a frameless (freshly rotated) segment so the
    answer still bounds what :meth:`WriteAheadLog.replay` could serve.
    """
    fallback: Optional[int] = None
    for path in _segment_files(directory):
        first_lsn = _segment_first_lsn(path)
        if first_lsn is None:
            continue
        for _, lsn, _, _ in _walk_frames(
            path.read_bytes()[_SEGMENT_HEADER.size:]
        ):
            return lsn
        if fallback is None:
            fallback = first_lsn
    return fallback


class WriteAheadLog:
    """An append-only, segmented log of column-packed event batches.

    Each :meth:`append_batch` assigns the batch the next LSN and encodes
    it as one CRC-checksummed frame.  The fsync policy controls when
    frames reach disk:

    * ``"always"`` — every append is written *and* fsynced before it
      returns (durable on return; the slowest policy);
    * ``"batch"`` — appends buffer in memory and are written + fsynced
      together at :meth:`sync` barriers, segment rotation, close, or when
      the buffer exceeds ``DEFAULT_FLUSH_BYTES`` (the default; amortises
      fsync across a batch of frames);
    * ``"none"`` — like ``"batch"`` but never fsyncs: the OS decides when
      pages hit disk.  Survives process crashes after a :meth:`sync` (the
      data reached the kernel), not power loss.

    Opening a directory that already holds a log *resumes* it: the last
    segment is scanned, a torn tail (truncated frame or CRC mismatch left
    by a crash) is truncated away, and appends continue at the next LSN.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "batch",
        probe: Optional[Callable[[str], None]] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"unknown fsync policy {fsync!r}; choose from "
                + ", ".join(FSYNC_POLICIES)
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.probe = probe
        self._pending = bytearray()
        self._fd: Optional[int] = None
        self._segment_size = 0
        self._next_lsn = 1
        self._open_tail()

    # -- opening / tail repair ---------------------------------------------

    def _open_tail(self) -> None:
        """Resume the newest segment, truncating any torn tail."""
        segments = _segment_files(self.directory)
        while segments:
            tail = segments[-1]
            first_lsn = _segment_first_lsn(tail)
            if first_lsn is None:
                # The crash tore the segment header itself: the file holds
                # no recoverable frame, so drop it and fall back.
                tail.unlink()
                segments.pop()
                continue
            data = tail.read_bytes()
            valid_end = _SEGMENT_HEADER.size
            last_lsn = first_lsn - 1
            for _, lsn, _, end in _walk_frames(data[_SEGMENT_HEADER.size:]):
                last_lsn = lsn
                valid_end = _SEGMENT_HEADER.size + end
            if valid_end < len(data):
                os.truncate(tail, valid_end)
            self._next_lsn = last_lsn + 1
            self._fd = os.open(tail, os.O_WRONLY | os.O_APPEND)
            self._segment_size = valid_end
            return
        self._start_segment(self._next_lsn)

    def _start_segment(self, first_lsn: int) -> None:
        path = _segment_path(self.directory, first_lsn)
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        header = _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _FORMAT_VERSION, first_lsn)
        os.write(self._fd, header)
        if self.fsync != "none":
            os.fsync(self._fd)
        self._segment_size = len(header)
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- appending ----------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended (not necessarily durable)
        frame; 0 for an empty log."""
        return self._next_lsn - 1

    def ensure_lsn(self, watermark: int) -> None:
        """Never re-issue LSNs at or below ``watermark``.

        Recovery calls this with the snapshot watermark: if the log tail
        was lost (``fsync="none"``/``"batch"`` crash after a snapshot),
        the next append must still get a fresh LSN, leaving a forward gap
        in the log rather than a duplicate.  Replay tolerates gaps — LSNs
        must only be strictly increasing.
        """
        if watermark >= self._next_lsn:
            self._next_lsn = watermark + 1

    def oldest_replayable_lsn(self) -> Optional[int]:
        """The oldest LSN :meth:`replay` can still produce — a frameless
        (fresh or fully rotated) log answers its next LSN, and ``None``
        means a directory with no segments at all.

        This is the watermark :meth:`truncate_before` has advanced to:
        ``replay(after_lsn=A)`` succeeds iff ``A + 1 >= `` this value (a
        smaller ``A`` asks for truncated frames and raises
        :class:`~repro.errors.ResumeGapError`).  Buffered appends are
        written out first so the answer covers every assigned LSN.
        """
        if self._fd is None:
            raise DurabilityError("write-ahead log is closed")
        self._flush(fsync=False)
        return _oldest_replayable_lsn(self.directory)

    def append_batch(self, batch: EventBatch) -> int:
        """Log one :class:`~repro.runtime.events.EventBatch` as one frame
        (a mixed batch's weight column included); returns its LSN.

        Small batches (<= ``_SMALL_BATCH_ROWS`` rows — the short runs an
        interleaved stream produces even at large batch sizes) take the
        pickled-rows payload, skipping the per-column packing and the
        rows->columns transpose, and so does every mixed batch: on
        order-book rows pickling is 2-3x faster and smaller than column
        packing at 8 to 1,000 rows.  The
        rest — uniform runs, laid out exactly as before mixed frames
        existed — write column-packed.
        """
        sign = batch.sign
        if batch._length <= _SMALL_BATCH_ROWS or isinstance(sign, list):
            payload = encode_rows_payload(batch.relation, sign, batch.rows)
        else:
            payload = encode_batch_payload(
                batch.relation, sign, batch.columns, batch._length
            )
        return self._append_payload(payload)

    def _append_payload(self, payload: bytes) -> int:
        if self._fd is None:
            raise DurabilityError("write-ahead log is closed")
        lsn = self._next_lsn
        header = _pack_frame_header(lsn, len(payload))
        pending = self._pending
        if (
            self._segment_size + len(pending) + len(payload) + _FRAME_OVERHEAD
            > _SEGMENT_BYTES
            and self._segment_size + len(pending) > _SEGMENT_HEADER.size
        ):
            self._rotate(lsn)
            pending = self._pending
        pending += header
        pending += payload
        pending += _pack_crc(_crc32(payload, _crc32(header)))
        self._next_lsn = lsn + 1
        if self.fsync == "always":
            self._flush(fsync=True)
        elif len(pending) >= DEFAULT_FLUSH_BYTES:
            self._flush(fsync=self.fsync == "batch")
        return lsn

    def _rotate(self, next_lsn: int) -> None:
        self._flush(fsync=self.fsync != "none")
        os.close(self._fd)
        self._start_segment(next_lsn)

    def _flush(self, fsync: bool) -> None:
        if self._pending:
            data = bytes(self._pending)
            self._pending.clear()
            if self.probe is not None and len(data) > 1:
                # Fault injection: let a crash land between the two halves
                # of one write, producing a genuinely torn frame on disk.
                half = len(data) // 2
                os.write(self._fd, data[:half])
                self.probe("wal.mid_frame")
                os.write(self._fd, data[half:])
            else:
                os.write(self._fd, data)
            self._segment_size += len(data)
        if fsync:
            os.fsync(self._fd)

    def sync(self) -> None:
        """Durability barrier: buffered frames reach disk before return
        (written, and fsynced unless the policy is ``"none"``)."""
        if self._fd is None:
            raise DurabilityError("write-ahead log is closed")
        self._flush(fsync=self.fsync != "none")

    def truncate_before(self, watermark: int) -> list[Path]:
        """Remove log segments every frame of which is ``<= watermark``.

        The caller asserts the watermark is covered by a durable snapshot
        recovery can start from, so frames at or below it will never be
        replayed.  Segment boundaries make coverage checkable without
        scanning: segment ``i`` (other than the active tail, which is
        never removed) only holds frames below segment ``i+1``'s first
        LSN, so it is removable exactly when ``starts[i+1] <= watermark +
        1``.  The directory is fsynced after the unlinks, and the first
        surviving segment still satisfies ``first_lsn <= watermark + 1``
        — :meth:`replay` from the watermark sees an intact log.

        Returns the removed segment paths (empty when nothing is
        covered).
        """
        if self._fd is None:
            raise DurabilityError("write-ahead log is closed")
        segments = _segment_files(self.directory)
        removed: list[Path] = []
        for index in range(len(segments) - 1):
            next_first = _segment_first_lsn(segments[index + 1])
            if next_first is None or next_first > watermark + 1:
                break
            segments[index].unlink()
            removed.append(segments[index])
        if removed:
            self._fsync_directory()
        return removed

    def close(self) -> None:
        """Flush and close (idempotent)."""
        if self._fd is None:
            return
        self._flush(fsync=self.fsync != "none")
        os.close(self._fd)
        self._fd = None

    def abandon(self) -> None:
        """Drop buffered frames and close *without* flushing.

        This is the fault-injection escape hatch: it leaves the on-disk
        state exactly as a SIGKILL would — everything written so far
        survives, everything still buffered in memory is lost.
        """
        self._pending.clear()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- replay -------------------------------------------------------------

    @staticmethod
    def replay(
        directory: str | Path, after_lsn: int = 0
    ) -> Iterator[tuple[int, str, object, tuple[list, ...]]]:
        """Yield ``(lsn, relation, sign, columns)`` for every frame with
        ``lsn > after_lsn``, in LSN order (``sign`` is ``+1``/``-1``, or
        a mixed batch's weight column).

        Read-only: a torn tail on the *last* segment simply ends the
        iteration (the opener truncates it later); a bad frame in any
        earlier segment — or a non-increasing LSN — is real corruption
        and raises :class:`~repro.errors.WalCorruptionError`.

        The suffix is guaranteed *complete*: if the log's oldest
        surviving frame sits beyond ``after_lsn + 1`` (checkpoint
        truncation removed the prefix, or an ``ensure_lsn`` forward gap
        means it was never logged), the request raises
        :class:`~repro.errors.ResumeGapError` instead of silently
        yielding a stream with missing deltas — the caller must restart
        from a snapshot at or below ``after_lsn``.
        """
        directory = Path(directory)
        segments = _segment_files(directory)
        # Segments strictly after the watermark's segment still need their
        # predecessor scanned (the watermark may sit mid-segment).
        starts = [_segment_first_lsn(path) for path in segments]
        keep_from = 0
        for index, first_lsn in enumerate(starts):
            if first_lsn is not None and first_lsn <= after_lsn + 1:
                keep_from = index
        previous_lsn = after_lsn
        oldest_seen: Optional[int] = None
        for index in range(keep_from, len(segments)):
            path = segments[index]
            is_last = index == len(segments) - 1
            first_lsn = starts[index]
            if first_lsn is None:
                if is_last:
                    break  # torn header: nothing recoverable in the tail
                raise WalCorruptionError(
                    f"{path.name}: unreadable segment header in the middle "
                    "of the log"
                )
            data = path.read_bytes()
            valid_end = _SEGMENT_HEADER.size
            for _, lsn, payload, end in _walk_frames(data[_SEGMENT_HEADER.size:]):
                if oldest_seen is None:
                    oldest_seen = lsn
                    if lsn > after_lsn + 1:
                        raise ResumeGapError(after_lsn, lsn)
                if lsn <= previous_lsn and lsn > after_lsn:
                    raise WalCorruptionError(
                        f"{path.name}: LSN {lsn} after {previous_lsn} — "
                        "log sequence must be strictly increasing"
                    )
                valid_end = _SEGMENT_HEADER.size + end
                if lsn > after_lsn:
                    previous_lsn = lsn
                    relation, sign, columns = decode_batch_payload(payload)
                    yield lsn, relation, sign, columns
            if valid_end < len(data) and not is_last:
                raise WalCorruptionError(
                    f"{path.name}: corrupt frame in the middle of the log "
                    f"(byte {valid_end})"
                )
        if oldest_seen is None:
            # A frameless log (fresh tail after full truncation, or empty
            # directory) can still witness a gap through its header LSN.
            for first_lsn in starts[keep_from:]:
                if first_lsn is not None:
                    if first_lsn > after_lsn + 1:
                        raise ResumeGapError(after_lsn, first_lsn)
                    break


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class SnapshotStore:
    """Atomic whole-engine snapshots, newest-first on load.

    A snapshot file is ``header + pickled state + crc32`` written to a
    temporary file, fsynced, then renamed into place (followed by a
    directory fsync) — a crash leaves either the previous snapshot set or
    the previous set plus one complete new file, never a half-written
    visible snapshot.  The newest :data:`_SNAPSHOTS_KEPT` snapshots are
    retained; older ones (and stray tmp files) are pruned after each save.
    """

    def __init__(
        self,
        directory: str | Path,
        probe: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.probe = probe

    def _path(self, lsn: int) -> Path:
        return self.directory / f"snapshot-{lsn:016d}.snap"

    def paths(self) -> list[Path]:
        """Snapshot files, oldest first."""
        return sorted(self.directory.glob("snapshot-*.snap"))

    def retained_watermark(self) -> Optional[int]:
        """The *oldest* retained snapshot's LSN, or ``None`` if empty.

        This is the safe WAL-truncation watermark: recovery may fall back
        past a corrupt newest snapshot to any older retained one, so the
        log must keep every frame those older snapshots still need —
        truncating to the newest snapshot's LSN would strand them.
        """
        lsns = []
        for path in self.paths():
            try:
                lsns.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return min(lsns) if lsns else None

    def save(self, lsn: int, state: dict) -> Path:
        """Write one snapshot atomically and prune old ones."""
        body = pickle.dumps(dict(state, lsn=lsn), pickle.HIGHEST_PROTOCOL)
        header = _SNAPSHOT_HEADER.pack(
            _SNAPSHOT_MAGIC, _FORMAT_VERSION, lsn, len(body)
        )
        final = self._path(lsn)
        tmp = final.with_suffix(".snap.tmp")
        with open(tmp, "wb") as handle:
            handle.write(header)
            if self.probe is not None:
                half = len(body) // 2
                handle.write(body[:half])
                handle.flush()
                self.probe("snapshot.mid_write")
                handle.write(body[half:])
            else:
                handle.write(body)
            handle.write(_FRAME_CRC.pack(zlib.crc32(body)))
            handle.flush()
            os.fsync(handle.fileno())
        if self.probe is not None:
            self.probe("snapshot.before_rename")
        os.replace(tmp, final)
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self.prune()
        return final

    def prune(self) -> None:
        for stray in self.directory.glob("snapshot-*.snap.tmp"):
            stray.unlink(missing_ok=True)
        snapshots = self.paths()
        for old in snapshots[: max(0, len(snapshots) - _SNAPSHOTS_KEPT)]:
            old.unlink(missing_ok=True)

    def _load(self, path: Path) -> Optional[dict]:
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if len(data) < _SNAPSHOT_HEADER.size + _FRAME_CRC.size:
            return None
        magic, version, lsn, body_len = _SNAPSHOT_HEADER.unpack_from(data, 0)
        if magic != _SNAPSHOT_MAGIC or version != _FORMAT_VERSION:
            return None
        start = _SNAPSHOT_HEADER.size
        end = start + body_len
        if end + _FRAME_CRC.size > len(data):
            return None
        body = data[start:end]
        (stored_crc,) = _FRAME_CRC.unpack_from(data, end)
        if zlib.crc32(body) != stored_crc:
            return None
        try:
            state = pickle.loads(body)
        except Exception:
            return None
        if not isinstance(state, dict) or state.get("lsn") != lsn:
            return None
        return state

    def load_latest(self, max_lsn: Optional[int] = None) -> Optional[dict]:
        """The newest snapshot that validates, or None.

        Invalid files (torn writes that somehow became visible, bad CRCs,
        foreign formats) are skipped, falling back to the next older
        snapshot — the load-side half of snapshot atomicity.

        ``max_lsn`` bounds the search to snapshots at or below that LSN —
        the resume-from-LSN path needs a *basis* no newer than the
        subscriber's position, so WAL replay from it passes through the
        requested LSN instead of starting beyond it.
        """
        for path in reversed(self.paths()):
            if max_lsn is not None:
                try:
                    lsn = int(path.stem.split("-", 1)[1])
                except (IndexError, ValueError):
                    continue
                if lsn > max_lsn:
                    continue
            state = self._load(path)
            if state is not None:
                return state
        return None


# ---------------------------------------------------------------------------
# Program identity
# ---------------------------------------------------------------------------


def program_fingerprint(program: CompiledProgram) -> str:
    """A stable digest of the program shape a durable directory serves.

    Recovery refuses to replay a log into a *different* program (other
    maps, other triggers): the WAL records deltas, and deltas only mean
    anything against the program that produced them.  The fingerprint
    covers the trigger set, the maintained maps (name + key arity) and
    the query names — the parts replay depends on.  A relation's
    trigger is hashed as the signs its events may carry (``-1`` and
    ``1``, or ``1`` alone for a static table), so a
    directory keeps its fingerprint across builds that key triggers by
    relation alone.
    """
    digest = hashlib.sha256()
    for relation in program.relations:
        for sign in (1,) if relation in program.static_relations else (-1, 1):
            digest.update(f"trigger:{relation}/{sign};".encode())
    for name in sorted(program.maps):
        digest.update(f"map:{name}/{program.maps[name].arity};".encode())
    for query in program.queries:
        digest.update(f"query:{query.name};".encode())
    for relation in sorted(program.static_relations):
        digest.update(f"static:{relation};".encode())
    return digest.hexdigest()[:16]


def _check_meta(directory: Path, fingerprint: str, create: bool) -> None:
    meta_path = directory / _META_FILE
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise RecoveryError(
                f"{meta_path}: unreadable durability metadata: {exc}"
            ) from exc
        stored = meta.get("fingerprint")
        if stored != fingerprint:
            raise RecoveryError(
                f"{directory} was written by a different program "
                f"(fingerprint {stored!r}, this program {fingerprint!r}); "
                "recover it with the original query/schema or point the "
                "engine at a fresh directory"
            )
        return
    if create:
        tmp = meta_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"format": _FORMAT_VERSION, "fingerprint": fingerprint})
        )
        os.replace(tmp, meta_path)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def read_log(
    directory: str | Path, max_lsn: Optional[int] = None
) -> tuple[dict, Iterator[tuple]]:
    """The log of ``directory`` as recovery, a supervised rebuild and a
    resume read it: the newest valid snapshot at or below ``max_lsn``
    (the empty state at LSN 0 without one) and the lazily read
    :meth:`WriteAheadLog.replay` frames past its watermark.  A missing
    directory reads as empty and is not created."""
    directory = Path(directory)
    snapshot = directory.exists() and SnapshotStore(directory).load_latest(max_lsn)
    snapshot = snapshot or dict(EMPTY_STATE, lsn=0)
    return snapshot, WriteAheadLog.replay(directory, after_lsn=snapshot["lsn"])


def restore_and_replay(
    engine,
    snapshot: dict,
    frames: Iterable[tuple],
    apply: Optional[Callable[[int, EventBatch], None]] = None,
) -> tuple[int, int]:
    """Restore ``snapshot`` into ``engine`` and replay the ``(lsn,
    relation, sign, columns)`` ``frames`` logged past it through the
    normal batch path.

    The one restore-then-replay loop: crash recovery
    (:func:`recover_engine`), a supervised worker rebuild
    (:class:`~repro.runtime.engine.ShardSupervisor`, from the WAL or its
    in-memory log) and the server's resume-from-LSN shadow replay
    (:mod:`repro.runtime.serving`) all land here, so they share its
    parity guarantee; WAL callers pass what :func:`read_log` returns.
    ``apply(lsn, batch)`` replaces the plain
    ``engine._process_batch(batch)`` for a caller that observes frames
    as they go by.  The log step and the flush-path listeners are
    suspended throughout: a replay is never logged, and subscribers
    already saw these deltas.

    Returns ``(last applied LSN, frames replayed)``.
    """
    listeners, engine._batch_listeners = engine._batch_listeners, []
    log, engine._log = engine._log, None
    try:
        engine.restore_state(snapshot)
        last, replayed = snapshot.get("lsn", 0), 0
        for lsn, relation, sign, columns in frames:
            batch = EventBatch.from_columns(relation, sign, columns)
            if apply is None:
                engine._process_batch(batch)
            else:
                apply(lsn, batch)
            last = lsn
            replayed += 1
        return last, replayed
    finally:
        engine._batch_listeners = listeners
        engine._log = log


def _open_engine(program: CompiledProgram, shards: int, parallel: bool, **kwargs):
    """A fresh engine to replay a durable directory into."""
    from repro.runtime.engine import DeltaEngine, ShardedEngine

    if shards > 1:
        return ShardedEngine(program, shards=shards, parallel=parallel, **kwargs)
    # One lane has no worker to supervise: as on a ShardedEngine without
    # forked lanes, the supervision knobs are inert.
    for name in ("supervise", "max_worker_restarts", "restart_window"):
        kwargs.pop(name, None)
    return DeltaEngine(program, **kwargs)


def _replay_directory(
    engine,
    directory: Path,
    fingerprint: str,
    apply: Optional[Callable[[int, EventBatch], None]] = None,
) -> int:
    """Replay ``directory`` into ``engine`` (see :func:`recover_engine`);
    returns the last applied frame's LSN."""
    snapshot, frames = read_log(directory)
    stored = snapshot.get("fingerprint")
    if stored is not None and stored != fingerprint:
        raise RecoveryError(
            f"snapshot in {directory} was written by a different "
            f"program (fingerprint {stored!r}, this program "
            f"{fingerprint!r})"
        )
    try:
        return restore_and_replay(engine, snapshot, frames, apply)[0]
    except ResumeGapError as exc:
        # Only reachable when every snapshot is invalid but the log was
        # already truncated past one: the lost prefix is unrecoverable,
        # and replaying the surviving suffix alone would silently build
        # the wrong state.
        raise RecoveryError(
            f"{directory}: no valid snapshot covers the truncated WAL "
            f"prefix (replay would start at LSN {exc.oldest_lsn}, needed "
            f"{exc.requested_lsn + 1}); the directory is unrecoverable"
        ) from exc


def recover_engine(
    program: CompiledProgram,
    directory: str | Path,
    shards: int = 1,
    parallel: bool = False,
    **engine_kwargs,
):
    """Rebuild an engine from a durable directory.

    Reads the log (:func:`read_log`: the latest valid snapshot and the
    WAL suffix past its watermark) and replays it into a fresh engine
    (:func:`restore_and_replay`).  Returns ``(engine, lsn)`` where
    ``lsn`` is the last applied frame's LSN (the watermark a resumed log
    must not re-issue).  With ``shards > 1`` the engine is a
    :class:`~repro.runtime.engine.ShardedEngine` — the log is written
    pre-partition, so any shard count can recover the same directory.
    Recovering twice (or recovering an already-recovered directory)
    reaches the identical state.
    """
    directory = Path(directory)
    fingerprint = program_fingerprint(program)
    _check_meta(directory, fingerprint, create=False)
    engine = _open_engine(program, shards, parallel, **engine_kwargs)
    return engine, _replay_directory(engine, directory, fingerprint)


# ---------------------------------------------------------------------------
# The durable engine layer
# ---------------------------------------------------------------------------


class DurableEngine(Engine):
    """A crash-durable engine: WAL + snapshots around the delta engine.

    Opening a directory recovers whatever state it holds (latest valid
    snapshot + WAL-suffix replay) and resumes logging at the next LSN, so
    construction doubles as restart::

        engine = DurableEngine(program, "state/")   # fresh or recovered
        engine.process_stream(events)
        engine.snapshot()                            # manual checkpoint
        engine.close()

    Every batch is logged *before* it is applied (write-ahead), as the
    wrapped engine's log step — pre-partition — so with ``shards > 1``
    one log serves any future shard count.  ``fsync`` picks the WAL
    durability policy (:class:`WriteAheadLog`); ``snapshot_every=N``
    checkpoints automatically every N logged events, bounding the WAL
    suffix a restart must replay.  The ingest and read surface is the shared
    :class:`~repro.runtime.engine.Engine` core over the wrapped engine's
    ``_process_batch``; anything specific to the wrapped engine
    (``maps``, ``events_processed``, ``supervisor``...) delegates to it.
    """

    def __init__(
        self,
        program: CompiledProgram,
        directory: str | Path,
        shards: int = 1,
        parallel: bool = False,
        fsync: str = "batch",
        snapshot_every: Optional[int] = None,
        probe: Optional[Callable[[str], None]] = None,
        **engine_kwargs,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise DurabilityError(
                f"snapshot_every must be >= 1 events, got {snapshot_every!r}"
            )
        super().__init__(program)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = program_fingerprint(program)
        _check_meta(self.directory, self.fingerprint, create=True)
        self._probe = probe
        self._snapshot_every = snapshot_every
        self._snapshots = SnapshotStore(self.directory, probe=probe)
        self._wal: Optional[WriteAheadLog] = None  # opened after the replay
        self._lsn = 0
        self._engine = _open_engine(program, shards, parallel, **engine_kwargs)
        if getattr(self._engine, "supervisor", None) is not None:
            # Before the replay below: a worker that dies in it is rebuilt
            # from this directory too, and no batch is held in memory.
            self._engine.supervisor.source = self.read_log
        self._lsn = _replay_directory(
            self._engine, self.directory, self.fingerprint, self._replay_frame
        )
        self._wal = WriteAheadLog(self.directory, fsync=fsync, probe=probe)
        # A lost tail (crash under fsync="batch"/"none" after a snapshot)
        # must not re-issue LSNs the snapshot already covers.
        self._wal.ensure_lsn(self._lsn)
        self._lsn = max(self._lsn, self._wal.last_lsn)
        self._since_snapshot = 0
        self._closed = False
        self._log = self._engine._log = self._append

    # -- event processing ---------------------------------------------------

    @property
    def engine(self):
        """The wrapped :class:`DeltaEngine` / :class:`ShardedEngine`."""
        return self._engine

    @property
    def _stream_started(self) -> bool:
        """Whether the engine that admits this one's batches has started
        its stream (the static-table rule reads it)."""
        return self._engine._stream_started

    @property
    def lsn(self) -> int:
        """The LSN of the last logged batch, applied or in flight (0
        before any event)."""
        return self._lsn

    def tap_lsn(self) -> int:
        """The WAL tip: every batch is appended immediately before it is
        applied, so at tap time the log's last LSN is the applied batch's
        — served deltas carry the sequence numbers recovery replays."""
        return self._wal.last_lsn

    def _process_batch(self, batch: EventBatch) -> int:
        """Apply one batch through the wrapped engine, which admits it
        and logs it (:meth:`_append`) before any trigger runs; then fire
        the tap and take a due snapshot."""
        if self._closed:
            raise DurabilityError("DurableEngine is closed")
        applied = self._engine._process_batch(batch)
        if self._probe is not None:
            self._probe("engine.after_apply")
        if applied and self._batch_listeners:
            self._notify_listeners(batch)
        self._since_snapshot += batch._length
        if (
            self._snapshot_every is not None
            and self._since_snapshot >= self._snapshot_every
        ):
            self.snapshot()
        return applied

    # Defined here, not inherited: the ledger times a logged batch by
    # patching ``vars(DurableEngine)["process_batch_columns"]``.
    def process_batch_columns(
        self, relation: str, sign, columns: Sequence[Sequence]
    ) -> int:
        return self._process_batch(EventBatch.from_columns(relation, sign, columns))

    # -- durability control -------------------------------------------------

    def sync(self) -> None:
        """Durability barrier: every logged batch reaches disk (and every
        shard worker drains) before return."""
        self._engine.sync()
        self._wal.sync()

    def oldest_replayable_lsn(self) -> Optional[int]:
        """The oldest LSN the WAL can still replay (see
        :meth:`WriteAheadLog.oldest_replayable_lsn`); a subscriber cannot
        resume from below it without a snapshot basis."""
        return self._wal.oldest_replayable_lsn()

    def _append(self, batch: EventBatch) -> None:
        """The log step: an admitted batch, its values checked
        (:func:`~repro.runtime.engine.check_values`), is the next frame."""
        self._lsn = self._wal.append_batch(batch)
        if self._probe is not None:
            self._probe("engine.after_append")

    def _replay_frame(self, lsn: int, batch: EventBatch) -> None:
        """Apply one frame of the opening replay, marking it in flight."""
        self._lsn = lsn
        self._engine._process_batch(batch)

    def read_log(self, max_lsn: Optional[int] = None) -> tuple[dict, Iterator]:
        """This engine's log (:func:`read_log`) up to the batch in flight,
        every logged batch on disk first — what a supervised rebuild and
        a server's resume replay."""
        if self._wal is not None:  # None only in the opening replay
            self._wal.sync()
        snapshot, frames = read_log(self.directory, max_lsn)
        return snapshot, takewhile(lambda frame: frame[0] <= self._lsn, frames)

    def snapshot(self) -> Path:
        """Checkpoint the whole engine state at the current LSN.

        Syncs the WAL first so the snapshot never claims a watermark the
        log has not durably reached, then writes atomically via
        :class:`SnapshotStore`.  Restart replays only frames past this
        watermark.
        """
        if self._closed:
            raise DurabilityError("DurableEngine is closed")
        self._wal.sync()
        state = dict(engine_state(self._engine), fingerprint=self.fingerprint)
        path = self._snapshots.save(self._lsn, state)
        self._since_snapshot = 0
        # Snapshots retire log prefixes: segments recovery can no longer
        # replay (fully covered by the oldest *retained* snapshot, so the
        # corrupt-newest fallback path keeps working) are removed.
        watermark = self._snapshots.retained_watermark()
        if watermark is not None:
            self._wal.truncate_before(watermark)
        return path

    def close(self) -> None:
        """Flush the WAL and release resources (idempotent).  The wrapped
        engine closes too — a sharded engine's contract is
        close-discards; the durable state is on disk."""
        if self._closed:
            return
        self._closed = True
        self._wal.close()
        self._engine.close()

    def abandon(self) -> None:
        """Simulate a crash: drop all in-memory state without flushing.

        On-disk files are left exactly as a SIGKILL at this moment would
        leave them — used by the in-process half of the fault-injection
        suite, where a real SIGKILL would take the test runner with it.
        """
        self._closed = True
        self._wal.abandon()
        self._engine.close()

    # -- reads --------------------------------------------------------------

    def watch_results(self, views) -> dict[str, tuple]:
        """The wrapped engine's maps are the ones batches write."""
        return self._engine.watch_results(views)

    def unwatch_results(self, watch: dict[str, tuple]) -> None:
        self._engine.unwatch_results(watch)

    def _unshown(self) -> None:
        self._engine._unshown()

    def __getattr__(self, name: str):
        # The read primitives the shared core derives from (current_maps,
        # index_sizes) and whatever else is specific to the wrapped engine
        # (maps, events_processed, events_skipped, restore_state,
        # supervisor, native_note...) delegate to it.  Only called for
        # names not defined here or on the shared core.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.__dict__["_engine"], name)
