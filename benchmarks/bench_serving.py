"""Serving cost: delta fan-out throughput and delivery latency.

The view-subscription server (:mod:`repro.runtime.serving`) renders one
result delta per applied batch and fans it out to every subscriber over
the framed protocol, so the deployment questions are:

* **sustained throughput vs fan-out** — events/second through the
  serving ingest path with N live subscribers (each a real socket client
  accumulating deltas), on the finance ``bsp`` workload at batch 100,
  unpaced.  The acceptance gate: >= 1000 events/second sustained with 8
  subscribers;
* **delivery latency** — per-delta wall time from server fan-out
  (the frame's ``ts`` stamp) to client receipt, reported as p50/p99
  across all subscribers, from a second pass *paced* at the gate's own
  1000 events/second.  At saturation a server faster than its in-process
  Python subscribers just fills their 256-frame queues and the kernel's
  socket buffers, so unpaced latency measures that buffering, not the
  server.  The regression gate tracks the *inverse* p99
  (deliveries/second), keeping every committed metric higher-is-better;
* **tap cost vs view width** — what the delta tap
  (:class:`~repro.runtime.serving.ViewDeltaTap`) spends per one-row
  batch on ``SELECT price, sum(volume) FROM bids GROUP BY price`` holding
  10 / 100 / 1k / 10k groups; no server, no sockets: the tap is called by
  hand after each batch and only that call is timed.  A delta costs what
  changed, not what the view holds — the tap renders the groups the
  batch touched, so the column is flat.  Same host, this script against
  the parent's ``src`` (whole-view re-render and diff per batch) and
  this one's, µs per batch:

  ======  ========  ======
  groups    parent  change
  ======  ========  ======
      10      21.7     4.0
     100     147.5     4.0
   1,000   1,521.9     3.7
  10,000  16,967.5     4.0
  ======  ========  ======

Subscribers hold their snapshot before either pass's clock starts, so
every row delivers exactly ``subscribers x (deltas of the stream)``.
Every subscriber must finish in exact parity with the engine's offline
``query_results`` — a benchmark run that drops or corrupts a delta
fails outright.

Run::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]
        [--events N] [--json PATH]
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import bench_metadata, write_bench_json  # noqa: E402

QUERY = "bsp"

#: Subscriber fan-outs measured (the gate applies to the largest).
FANOUTS = (1, 4, 8)

#: The acceptance gate: sustained events/second with 8 subscribers.
SUSTAINED_TARGET = 1_000

BATCH_SIZE = 100

#: Length of the paced pass the delivery latencies come from.
PACED_SECONDS = 4.0


def _program():
    from repro.compiler import compile_sql
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    return compile_sql(FINANCE_QUERIES[QUERY], finance_catalog(), name=QUERY)


def _finance_events(event_count: int, seed: int = 11) -> list:
    from repro.workloads.orderbook import OrderBookGenerator

    return list(OrderBookGenerator(seed=seed).events(event_count))


def _run_subscriber(client, rows, stop, output):
    """One subscriber: fold deltas into ``rows`` until the sentinel.

    ``stop["lsn"]`` is set (before the sentinel batches are published)
    to the last LSN of the measured stream; the first delta past it is
    the sentinel's, so accumulation stops there with the measured stream
    fully applied.  Only the stream's own deltas are timed.
    """
    from repro.runtime.serving import apply_changes

    latencies: list[float] = []
    while True:
        frame = client.recv()
        if frame.get("type") != "delta":
            continue
        received = time.time()
        apply_changes(rows, frame["changes"])
        if stop["lsn"] is not None and frame["lsn"] > stop["lsn"]:
            break
        latencies.append(received - frame["ts"])
    output["rows"] = rows
    output["latencies"] = latencies
    output["finished"] = time.time()


def _publish_paced(handle, events: list, rate: float) -> None:
    """Open loop: each batch is published when its first event is due at
    ``rate`` events/second, however the previous ones fared."""
    from repro.runtime.events import batches

    start = time.time()
    sent = 0
    for batch in batches(events, BATCH_SIZE):
        wait = start + sent / rate - time.time()
        if wait > 0:
            time.sleep(wait)
        handle.publish(batch.relation, batch.sign, batch.rows)
        sent += len(batch)


def _serve(
    program, events: list, subscribers: int, rate=None
) -> tuple[float, list[float]]:
    """Serve the stream to N live subscribers, unpaced or at ``rate``;
    returns ``(wall seconds, every delivery latency, sorted)``.

    Every subscriber holds its snapshot before the clock starts.  Wall
    time runs from the first published batch until the *slowest*
    subscriber has applied the whole stream — sustained delivery rate,
    not just ingest rate.
    """
    from repro.runtime import DeltaEngine
    from repro.runtime.serving import (
        ServerThread,
        SubscriberClient,
        rows_from_snapshot,
    )

    engine = DeltaEngine(program)
    stop: dict = {"lsn": None}
    outputs = [dict() for _ in range(subscribers)]
    with ServerThread(engine) as handle:
        clients = [
            SubscriberClient(handle.host, handle.port) for _ in range(subscribers)
        ]
        threads = [
            threading.Thread(
                target=_run_subscriber,
                args=(
                    client, rows_from_snapshot(client.subscribe(QUERY)),
                    stop, output,
                ),
                daemon=True,
            )
            for client, output in zip(clients, outputs)
        ]
        for thread in threads:
            thread.start()
        start = time.time()
        if rate is None:
            handle.publish_stream(events, batch_size=BATCH_SIZE)
        else:
            _publish_paced(handle, events, rate)
        stop["lsn"] = handle.server.tap.lsn
        stream_deltas = handle.server.deltas_sent // subscribers
        # The sentinel: a broker id the generator never emits, asks first
        # then bids, so the final batch provably changes the bsp view and
        # every subscriber sees one delta past the stop LSN.
        handle.publish("asks", 1, [(0, 10**9, 10**6, 1, 1)])
        handle.publish("bids", 1, [(0, 10**9 + 1, 10**6, 1, 1)])
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("subscriber wedged; serving bench failed")
        wall = max(output["finished"] for output in outputs) - start
        for client in clients:
            client.close()
        # Parity oracle: every subscriber converged on the live result,
        # having been sent every delta of the stream, none in a snapshot.
        expected = Counter(engine.results(QUERY))
        for index, output in enumerate(outputs):
            if output["rows"] != expected:
                raise RuntimeError(
                    f"subscriber {index} diverged from query_results "
                    f"({len(output['rows'])} vs {len(expected)} rows)"
                )
            if len(output["latencies"]) != stream_deltas:
                raise RuntimeError(
                    f"subscriber {index} received {len(output['latencies'])} "
                    f"of the stream's {stream_deltas} deltas"
                )
    return wall, sorted(
        value for output in outputs for value in output["latencies"]
    )


def measure_fanout(program, events: list, subscribers: int) -> dict:
    """Throughput from an unpaced pass over the whole stream, delivery
    latency from a pass over its first ``PACED_SECONDS`` paced at
    ``SUSTAINED_TARGET`` events/second."""
    wall, delivered = _serve(program, events, subscribers)
    paced_events = events[: int(SUSTAINED_TARGET * PACED_SECONDS)]
    _, latencies = _serve(program, paced_events, subscribers, SUSTAINED_TARGET)
    return {
        "subscribers": subscribers,
        "events_per_sec": len(events) / wall,
        "deltas_delivered": len(delivered),
        "p50_ms": latencies[len(latencies) // 2] * 1000,
        "p99_ms": latencies[int(0.99 * (len(latencies) - 1))] * 1000,
    }


#: View widths of the tap-cost leg, and one-row batches timed at each.
WIDE_VIEW_GROUPS = (10, 100, 1_000, 10_000)
WIDE_VIEW_BATCHES = 400


def measure_wide_view(group_counts=WIDE_VIEW_GROUPS) -> list[dict]:
    """Tap microseconds per one-row batch against views of growing
    width (median of ``WIDE_VIEW_BATCHES`` timed ``on_batch`` calls;
    every batch moves one existing group, so each emits one retraction
    and one assertion).  Metadata only: informative, not gated."""
    from repro.compiler import compile_sql
    from repro.runtime import DeltaEngine
    from repro.runtime.events import EventBatch
    from repro.runtime.serving import ViewDeltaTap, apply_changes
    from repro.workloads.finance import finance_catalog

    program = compile_sql(
        "SELECT price, sum(volume) FROM bids GROUP BY price",
        finance_catalog(),
        name="wide",
    )
    results = []
    for groups in group_counts:
        engine = DeltaEngine(program)
        engine.process_batch(
            "bids", 1, [(0, i, i % 10, 10_000 + i, 5) for i in range(groups)]
        )
        tap = ViewDeltaTap(engine)
        rows = Counter(dict(tap.snapshot("wide")[1]))
        spent = []
        for step in range(WIDE_VIEW_BATCHES):
            row = (1, groups + step, 0, 10_000 + (step * 7) % groups, 1)
            engine.process_batch("bids", 1, [row])
            batch = EventBatch("bids", 1, [row])
            started = time.perf_counter()
            deltas = tap.on_batch(step, batch)
            spent.append(time.perf_counter() - started)
            apply_changes(rows, deltas["wide"])
        if rows != Counter(engine.results("wide")):
            raise RuntimeError(f"wide view of {groups} groups lost parity")
        spent.sort()
        results.append(
            {"groups": groups, "tap_us": 1e6 * spent[len(spent) // 2]}
        )
    return results


def print_wide_view_table(rows: list[dict]) -> None:
    header = f"{'groups':>8}{'tap per batch':>16}"
    print("tap cost vs view width — one-row batches, tap called by hand")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['groups']:>8,}{row['tap_us']:>14.1f}us")
    print()


def measure_fault_recovery(suffix_lengths) -> list[dict]:
    """Supervisor restart overhead as a function of WAL suffix length.

    For each configuration: a supervised durable sharded engine takes a
    checkpoint, appends ``suffix`` more batches to the WAL, loses one
    forked worker to SIGKILL, and the next send triggers the rebuild
    (snapshot restore + WAL-suffix replay).  The reported seconds are
    the supervisor's own recovery stopwatch — expected linear in the
    suffix length.  Metadata only: informative, not gated.
    """
    import os
    import signal as _signal
    import tempfile

    from repro.compiler import compile_sql
    from repro.runtime.durability import DurableEngine
    from repro.sql.catalog import Catalog

    program = compile_sql(
        "SELECT A, sum(B) FROM R GROUP BY A",
        Catalog.from_script("CREATE STREAM R (A int, B int);"),
        name="recovery",
    )
    results = []
    for suffix in suffix_lengths:
        with tempfile.TemporaryDirectory() as directory:
            engine = DurableEngine(
                program, directory, fsync="none",
                shards=2, parallel=True, supervise=True,
            )
            for i in range(20):
                engine.process_batch("R", 1, [(i % 8, i)])
            engine.snapshot()
            for i in range(suffix):
                engine.process_batch("R", 1, [(i % 8, i)])
            engine.sync()
            lane = engine.engine._lanes[0]
            os.kill(lane._proc.pid, _signal.SIGKILL)
            lane._proc.join(timeout=10)
            engine.process_batch("R", 1, [(0, 1)])  # triggers the rebuild
            engine.sync()
            (recovery,) = engine.engine.supervisor.recoveries
            results.append(
                {
                    "suffix_batches": suffix,
                    "replayed": recovery["replayed"],
                    "recovery_s": recovery["seconds"],
                }
            )
            engine.close()
    return results


def print_recovery_table(rows: list[dict]) -> None:
    header = f"{'WAL suffix':>11}{'replayed':>10}{'recovery':>11}"
    print("supervisor fault recovery — durable rebuild after worker SIGKILL")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['suffix_batches']:>11,}{row['replayed']:>10,}"
            f"{row['recovery_s'] * 1000:>9.1f}ms"
        )
    print()


def print_table(rows: list[dict], event_count: int) -> None:
    header = (
        f"{'subs':>5}{'events/s':>12}{'deltas':>9}"
        f"{'p50 deliver':>13}{'p99 deliver':>13}"
    )
    print(
        f"serving fan-out — finance {QUERY}, {event_count} events, "
        f"batch {BATCH_SIZE}; delivery latency paced at "
        f"{SUSTAINED_TARGET:,} events/s"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['subscribers']:>5}{row['events_per_sec']:>12,.0f}"
            f"{row['deltas_delivered']:>9,}"
            f"{row['p50_ms']:>11.2f}ms{row['p99_ms']:>11.2f}ms"
        )
    print()


def check_target(rows: list[dict]) -> bool:
    widest = max(rows, key=lambda row: row["subscribers"])
    rate = widest["events_per_sec"]
    if rate < SUSTAINED_TARGET:
        print(
            f"!! serving target MISSED: {rate:,.0f} events/s with "
            f"{widest['subscribers']} subscribers (target "
            f"{SUSTAINED_TARGET:,})"
        )
        return False
    print(
        f"serving target met: {rate:,.0f} events/s sustained with "
        f"{widest['subscribers']} subscribers "
        f"(p99 delivery {widest['p99_ms']:.2f}ms at the target "
        f"{SUSTAINED_TARGET:,} events/s)"
    )
    print()
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast configuration (CI)")
    parser.add_argument("--events", type=int, default=None,
                        help="order-book events to serve (default "
                        "6000 smoke / 30000 full)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write metrics JSON (uploaded as a CI artifact)")
    args = parser.parse_args(argv)

    event_count = args.events or (6_000 if args.smoke else 30_000)
    events = _finance_events(event_count)
    program = _program()

    rows = [measure_fanout(program, events, fanout) for fanout in FANOUTS]
    print_table(rows, event_count)
    ok = check_target(rows)

    wide_rows = measure_wide_view()
    print_wide_view_table(wide_rows)

    import os as _os

    recovery_rows: list[dict] = []
    if hasattr(_os, "fork"):
        suffixes = (50, 200) if args.smoke else (100, 500, 2000)
        recovery_rows = measure_fault_recovery(suffixes)
        print_recovery_table(recovery_rows)
    else:
        print("fault recovery skipped: platform lacks os.fork\n")

    if args.json:
        metrics: dict[str, float] = {}
        for row in rows:
            prefix = f"serving/{QUERY}/subs={row['subscribers']}"
            metrics[f"{prefix}/events_per_sec"] = row["events_per_sec"]
            # The regression gate treats every metric as higher-is-better,
            # so latency is committed inverted (deliveries/second at p99);
            # the raw milliseconds live in metadata for humans.
            metrics[f"{prefix}/p99_inv_per_sec"] = 1000.0 / row["p99_ms"]
        write_bench_json(
            args.json, "serving", metrics,
            metadata={
                **bench_metadata(),
                "events": event_count,
                "batch_size": BATCH_SIZE,
                "query": QUERY,
                "fanouts": list(FANOUTS),
                "sustained_target": SUSTAINED_TARGET,
                "p99_ms": {
                    str(row["subscribers"]): row["p99_ms"] for row in rows
                },
                "p50_ms": {
                    str(row["subscribers"]): row["p50_ms"] for row in rows
                },
                # Informative, not gated: rebuild cost is linear in the
                # replayed WAL suffix, so a gate would just measure I/O.
                "fault_recovery": recovery_rows,
                # Informative, not gated: serving_smoke.py and the tier-1
                # suite pin the O(|delta|) property by count, not by clock.
                "wide_view_tap_us": {
                    str(row["groups"]): row["tap_us"] for row in wide_rows
                },
            },
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
