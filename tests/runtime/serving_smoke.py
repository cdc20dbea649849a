"""CI serving smoke: a live server must stream exactly the offline answer.

For fixed-seed finance workload streams this script starts a real
:class:`~repro.runtime.serving.ViewServer` (thread-hosted, loopback
socket), connects framed-protocol subscribers — one from the start, one
joining mid-stream — pushes the stream through the serving ingest path,
and asserts every subscriber's accumulated state (catch-up snapshot plus
streamed deltas) equals a reference engine's offline
``query_results``.  One scenario runs over a
:class:`~repro.runtime.durability.DurableEngine`, checking that served
LSNs are the WAL's; another is a network publisher that writes the
whole stream as one burst of single-event frames, the path on which the
server reads, applies and acknowledges many frames per wakeup; the last
serves a 2,000-group view and bounds the groups rendered per one-row
frame — a delta must cost what changed, not what the view holds.

Run ``python tests/runtime/serving_smoke.py`` (with ``PYTHONPATH=src``).
Exit status 0 = every scenario in parity.  A watchdog alarm aborts the
run if anything wedges (the CI job adds its own hard timeout as well).
"""

from __future__ import annotations

import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.algebra.translate import translate_sql  # noqa: E402
from repro.compiler import compile_queries  # noqa: E402
from repro.runtime import DeltaEngine  # noqa: E402
from repro.runtime.durability import DurableEngine  # noqa: E402
from repro.runtime.serving import (  # noqa: E402
    ServerThread,
    SubscriberClient,
    apply_changes,
    encode_frame,
    rows_from_snapshot,
)
from repro.runtime.views import GroupRenderer  # noqa: E402

#: (query, durable?) scenarios; every one must reach exact parity.
SCENARIOS = [
    ("vwap", False),
    ("bsp", False),
    ("bsp", True),
]

EVENTS = 600
SEED = 2009
BATCH_SIZE = 32
WATCHDOG_SECONDS = 180


def _program(query_name: str):
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    catalog = finance_catalog()
    translated = translate_sql(
        FINANCE_QUERIES[query_name], catalog, name=query_name
    )
    return compile_queries([translated], catalog)


def _stream():
    from repro.workloads.orderbook import OrderBookGenerator

    return list(OrderBookGenerator(seed=SEED).events(EVENTS))


def run_scenario(query_name: str, durable: bool, stream) -> list[str]:
    """Run one serve/subscribe/stream/compare cycle; returns failures."""
    program = _program(query_name)
    reference = DeltaEngine(program)
    reference.process_stream(stream, batch_size=BATCH_SIZE)
    offline = Counter(reference.results(query_name))

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        if durable:
            engine = DurableEngine(program, tmp, fsync="batch")
        else:
            engine = DeltaEngine(program)
        half = len(stream) // 2
        with ServerThread(engine) as handle:
            early = SubscriberClient(handle.host, handle.port)
            early_rows = rows_from_snapshot(early.subscribe(query_name))
            handle.publish_stream(stream[:half], batch_size=BATCH_SIZE)
            # The mid-stream joiner catches up from its snapshot alone.
            late = SubscriberClient(handle.host, handle.port)
            late_rows = rows_from_snapshot(late.subscribe(query_name))
            handle.publish_stream(stream[half:], batch_size=BATCH_SIZE)
            barrier = early.ping()
            for name, client, rows in [
                ("early", early, early_rows),
                ("late", late, late_rows),
            ]:
                for frame in client.drain_deltas(query_name, barrier):
                    if durable and frame["lsn"] > engine._wal.last_lsn:
                        failures.append(
                            f"{query_name}/{name}: delta LSN {frame['lsn']} "
                            f"beyond WAL tail {engine._wal.last_lsn}"
                        )
                    apply_changes(rows, frame["changes"])
                if rows != offline:
                    failures.append(
                        f"{query_name}/{name}: accumulated state diverges "
                        f"from offline query_results "
                        f"({len(rows)} vs {len(offline)} rows)"
                    )
            live = Counter(engine.results(query_name))
            if live != offline:
                failures.append(
                    f"{query_name}: served engine diverges from reference"
                )
            early.close()
            late.close()
        if durable:
            engine.close()
    return failures


def run_burst_scenario(query_name: str, stream) -> list[str]:
    """One ``sendall`` of a publish frame per event; returns failures."""
    program = _program(query_name)
    reference = DeltaEngine(program)
    for event in stream:
        reference.process(event)
    offline = Counter(reference.results(query_name))
    burst = b"".join(
        encode_frame({
            "op": "publish", "relation": event.relation, "sign": event.sign,
            "rows": [list(event.values)],
        })
        for event in stream
    )

    failures: list[str] = []
    with ServerThread(DeltaEngine(program)) as handle:
        with SubscriberClient(handle.host, handle.port) as subscriber:
            rows = rows_from_snapshot(subscriber.subscribe(query_name))
            with SubscriberClient(handle.host, handle.port) as publisher:
                publisher._sock.sendall(burst)
                lsns = [publisher._wait_for("ack")["lsn"] for _ in stream]
            if lsns != sorted(set(lsns)):
                failures.append(f"{query_name}/burst: ack LSNs out of order")
            for frame in subscriber.drain_deltas(query_name, lsns[-1]):
                apply_changes(rows, frame["changes"])
            if rows != offline:
                failures.append(
                    f"{query_name}/burst: accumulated state diverges from "
                    f"offline query_results ({len(rows)} vs {len(offline)} rows)"
                )
    return failures


WIDE_GROUPS = 2_000
WIDE_FRAMES = 300


def run_wide_view_scenario() -> list[str]:
    """One-row frames against a ``WIDE_GROUPS``-group view, a mid-stream
    joiner, and a count of the groups the tap rendered; returns failures."""
    import random

    from repro.compiler import compile_sql
    from repro.workloads.finance import finance_catalog

    program = compile_sql(
        "SELECT price, sum(volume) FROM bids GROUP BY price",
        finance_catalog(),
        name="wide",
    )
    rng = random.Random(SEED)
    book = [(0, i, i % 10, 10_000 + i, 5) for i in range(WIDE_GROUPS)]
    frames = []  # (sign, row): cancel a standing order or place a new one
    for i in range(WIDE_FRAMES):
        if i % 3 == 0:
            frames.append((-1, book.pop(rng.randrange(len(book)))))
        else:
            row = (1, WIDE_GROUPS + i, i % 10, 10_000 + rng.randrange(3_000), 7)
            book.append(row)
            frames.append((1, row))
    reference = DeltaEngine(program)
    reference.process_batch("bids", 1, book)
    offline = Counter(reference.results("wide"))

    rendered = []
    render = GroupRenderer.row

    def counting(self, group):
        rendered.append(group)
        return render(self, group)

    failures: list[str] = []
    engine = DeltaEngine(program)
    engine.process_batch(
        "bids", 1, [(0, i, i % 10, 10_000 + i, 5) for i in range(WIDE_GROUPS)]
    )
    GroupRenderer.row = counting
    try:
        with ServerThread(engine) as handle:
            if handle.server.tap.incremental != {"wide": True}:
                failures.append("wide: the tap is not on touched groups")
            early = SubscriberClient(handle.host, handle.port)
            early_rows = rows_from_snapshot(early.subscribe("wide"))
            if len(early_rows) != WIDE_GROUPS:
                failures.append(f"wide: snapshot of {len(early_rows)} groups")
            del rendered[:]
            for sign, row in frames[: WIDE_FRAMES // 2]:
                handle.publish("bids", sign, [row])
            late = SubscriberClient(handle.host, handle.port)
            late_rows = rows_from_snapshot(late.subscribe("wide"))
            for sign, row in frames[WIDE_FRAMES // 2 :]:
                handle.publish("bids", sign, [row])
            if len(rendered) > 2 * WIDE_FRAMES:
                failures.append(
                    f"wide: {len(rendered)} groups rendered for "
                    f"{WIDE_FRAMES} one-row frames (bound {2 * WIDE_FRAMES})"
                )
            barrier = early.ping()
            for name, client, rows in [
                ("early", early, early_rows),
                ("late", late, late_rows),
            ]:
                for frame in client.drain_deltas("wide", barrier):
                    apply_changes(rows, frame["changes"])
                if rows != offline:
                    failures.append(
                        f"wide/{name}: accumulated state diverges from "
                        f"offline query_results ({len(rows)} vs "
                        f"{len(offline)} rows)"
                    )
            early.close()
            late.close()
    finally:
        GroupRenderer.row = render
    return failures


def main() -> int:
    signal.signal(signal.SIGALRM, lambda *_: sys.exit("serving smoke wedged"))
    signal.alarm(WATCHDOG_SECONDS)
    stream = _stream()
    failures: list[str] = []
    for query_name, durable in SCENARIOS:
        scenario_failures = run_scenario(query_name, durable, stream)
        mode = "durable" if durable else "in-memory"
        if scenario_failures:
            failures.extend(scenario_failures)
            for line in scenario_failures:
                print(f"FAIL {line}")
        else:
            print(
                f"ok   {query_name:<6} {mode:<9} {EVENTS} events, "
                "early + mid-stream subscribers in parity"
            )
    burst_failures = run_burst_scenario("bsp", stream)
    failures.extend(burst_failures)
    for line in burst_failures:
        print(f"FAIL {line}")
    if not burst_failures:
        print(
            f"ok   bsp    burst     {EVENTS} publish frames in one sendall, "
            "acked in order, subscriber in parity"
        )
    wide_failures = run_wide_view_scenario()
    failures.extend(wide_failures)
    for line in wide_failures:
        print(f"FAIL {line}")
    if not wide_failures:
        print(
            f"ok   wide   in-memory {WIDE_FRAMES} one-row frames over "
            f"{WIDE_GROUPS} groups, <= 2 groups rendered per frame, early + "
            "mid-stream subscribers in parity"
        )
    if failures:
        print(f"{len(failures)} serving-smoke check(s) FAILED")
        return 1
    print(
        f"all {len(SCENARIOS) + 2} serving scenarios streamed the offline answer"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
