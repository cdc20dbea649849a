"""Standalone mode: a command-line query processor.

The paper's runtime "may be used as a standalone query processor accepting
input over a network interface or archived stream".  The CLI covers the
archived-stream path:

* ``compile``  — show the compilation trace / IR / generated code;
* ``run``      — maintain queries over a CSV event stream, print results;
* ``serve``    — the network interface: a reactive view-subscription
  server (:mod:`repro.runtime.serving`) — clients subscribe to the
  standing query and receive incremental result deltas as events arrive;
* ``recover``  — rebuild engine state from a durable directory and print
  the recovered results;
* ``bench``    — quick throughput measurement on a built-in workload.

Usage examples::

    python -m repro.tools.cli compile --ddl schema.sql --query "SELECT ..."
    python -m repro.tools.cli compile --schema "CREATE ..." \
        --query "SELECT ..." --dump-ir
    python -m repro.tools.cli run --ddl schema.sql --query "SELECT ..." \
        --stream events.csv --every 1000
    python -m repro.tools.cli run --ddl schema.sql --query "SELECT ..." \
        --stream events.csv --durable state/ --fsync batch \
        --snapshot-every 100000
    python -m repro.tools.cli serve --ddl schema.sql --query "SELECT ..." \
        --port 8765 --backpressure coalesce
    python -m repro.tools.cli serve --ddl schema.sql --query "SELECT ..." \
        --stream events.csv --oneshot
    python -m repro.tools.cli recover --ddl schema.sql --query "SELECT ..." \
        --durable state/
    python -m repro.tools.cli bench --workload finance --events 20000
    python -m repro.tools.cli bench --workload finance --query bsp \
        --events 50000 --shards 4

``--durable DIR`` (run) makes processing crash-durable: every batch is
appended to an LSN-stamped write-ahead log in DIR before it is applied
(:mod:`repro.runtime.durability`), with optional periodic snapshots
(``--snapshot-every N``) bounding the suffix a restart replays.  Running
again with the same DIR *resumes*: the engine recovers the logged state
first, then continues with the new stream.  ``recover`` performs just the
recovery half — useful after a crash to inspect where the state landed.

``--shards N`` (run/bench) processes the stream on a
:class:`~repro.runtime.engine.ShardedEngine`: batches are hash-routed by
the compiler's partition columns to N parallel lanes, with a serial
fallback when the program is not partitionable.  ``--dump-ir`` prints the
typed imperative IR all back ends share (see :mod:`repro.ir`), including
the per-statement *batch sink* report (direct / buffered / accumulator /
second-order / grouped, with each group's columns and sums) showing how
each trigger absorbs batches and the per-map
type proofs (``columnar[int|float|object]`` / ``dict``, see
:mod:`repro.compiler.storage`); ``compile`` also prints the storage
layout every executor mode gives each map, with the reason.  ``--no-opt``
disables the optimisation pipeline (compile, run and bench).  ``--mode``
(run/serve/bench) picks the executor: ``compiled`` (the default),
``interpreted``, or ``native`` (the compiled triggers, with the maps they
scan whole handed to the C kernel).  Every other map is a plain dict.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

from repro.codegen.pygen import generate_module
from repro.compiler import analyze_partitioning, analyze_storage, compile_sql
from repro.ir.lower import lower_program, router_folds
from repro.runtime.durability import (
    FSYNC_POLICIES,
    DurableEngine,
    _open_engine,
    program_fingerprint,
    recover_engine,
)
from repro.runtime.sources import csv_source
from repro.sql.catalog import Catalog
from repro.tools.trace import compilation_table, ir_summary, recursion_summary

#: The executor ``--mode`` values of run / serve / bench.
MODES = ("compiled", "interpreted", "native")
MODE_HELP = (
    "executor (default: compiled); native runs the compiled triggers over "
    "the C column kernel, pure Python without a toolchain"
)

def _native_banner(engine) -> None:
    """One status line saying whether the C kernel actually loaded."""
    if engine.native_note is None:
        return
    state = "active" if engine.native_active else "fallback"
    print(f"-- native kernel {state}: {engine.native_note} --")


def _engine_options(p, durable: bool = True) -> None:
    """Declare the options :func:`_make_engine` reads: the executor, the
    shard lanes and their supervisor, and (``durable``) the durable
    directory."""
    p.add_argument("--mode", choices=MODES, default="compiled", help=MODE_HELP)
    p.add_argument("--shards", type=int, default=1,
                   help="hash-partitioned parallel shard lanes "
                   "(1 = single engine)")
    p.add_argument("--no-opt", action="store_true",
                   help="disable the IR optimisation pipeline")
    if durable:
        p.add_argument("--durable", metavar="DIR",
                       help="crash-durable processing: write-ahead log + "
                       "snapshots in DIR (resumes existing state)")
        p.add_argument("--fsync", choices=FSYNC_POLICIES, default="batch",
                       help="WAL fsync policy with --durable (default: batch)")
        p.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                       help="with --durable, checkpoint every N events "
                       "(bounds the WAL suffix a restart replays)")
    p.add_argument("--supervise", action="store_true",
                   help="with --shards N > 1, respawn and rebuild dead "
                   "worker processes instead of failing the stream")
    p.add_argument("--max-worker-restarts", type=int, default=3, metavar="N",
                   help="supervisor restart budget per window (default: 3)")
    p.add_argument("--restart-window", type=float, default=60.0,
                   metavar="SECONDS",
                   help="sliding window the restart budget covers "
                   "(default: 60)")


def _make_engine(program, args):
    """The engine the engine options (:func:`_engine_options`) ask for: a
    DeltaEngine, or a ShardedEngine when ``--shards N`` (N > 1) asks for
    hash-partitioned parallel lanes (worker processes where ``fork`` is
    available; non-partitionable programs fall back to serial), wrapped
    in a :class:`~repro.runtime.durability.DurableEngine` under
    ``--durable DIR`` (recovering whatever state DIR already holds).
    ``--mode native`` selects the C column-kernel executor lane
    (gracefully falling back to pure Python when no toolchain exists)."""
    kwargs = dict(
        mode=args.mode, optimize=not args.no_opt, supervise=args.supervise,
        max_worker_restarts=args.max_worker_restarts,
        restart_window=args.restart_window,
    )
    if getattr(args, "durable", None):
        return DurableEngine(
            program, args.durable, shards=args.shards, parallel=True,
            fsync=args.fsync, snapshot_every=args.snapshot_every, **kwargs,
        )
    return _open_engine(program, args.shards, parallel=True, **kwargs)


def _open_query_engine(args):
    """Compile ``--query`` and build its engine, saying what it resumed:
    ``(catalog, engine)``."""
    catalog = _load_catalog(args)
    engine = _make_engine(compile_sql(args.query, catalog, name="q"), args)
    _native_banner(engine)
    if isinstance(engine, DurableEngine) and engine.lsn:
        print(f"-- resumed durable state at LSN {engine.lsn} "
              f"({engine.events_processed} events) --")
    return catalog, engine


def _load_catalog(args) -> Catalog:
    if args.ddl:
        return Catalog.from_script(Path(args.ddl).read_text())
    if args.schema:
        return Catalog.from_script(args.schema)
    raise SystemExit("either --ddl FILE or --schema 'CREATE ...' is required")


def cmd_compile(args) -> int:
    catalog = _load_catalog(args)
    program = compile_sql(args.query, catalog, name="q")
    optimize = not args.no_opt
    print(program.describe())
    # The durable-directory stamp: recovery only accepts a WAL written by
    # a program with this fingerprint.
    print(f"durability fingerprint: {program_fingerprint(program)}\n")
    ir = lower_program(program, optimize=optimize)
    print(analyze_partitioning(program).describe(router_folds(program, ir)))
    print(analyze_storage(program).describe())
    from repro.codegen.native import (
        describe_layouts,
        describe_native,
        kernel_source,
    )

    print(describe_layouts(program, optimize=optimize))
    print(describe_native(program))
    print()
    print(ir_summary(program, optimize=optimize))
    print()
    print("== Figure 2 trace ==\n")
    print(compilation_table(program))
    print("\nmaps per recursion level:", recursion_summary(program))
    if args.dump_ir:
        from repro.ir import program_str

        print("\n== trigger IR ==\n")
        print(program_str(ir))
    if args.emit == "python":
        print("\n" + generate_module(program, optimize=optimize))
    elif args.emit == "c":
        print("\n" + (kernel_source(program)
                      or "/* no native-eligible map: no C kernel is built */"))
    return 0


def cmd_run(args) -> int:
    catalog, engine = _open_query_engine(args)
    count = 0
    start = time.perf_counter()
    # Events flow through the batched stream path (chunked at --every so
    # intermediate results can print); per-event dispatch would forfeit
    # batching and, with --shards, pay one worker round-trip per event.
    source = csv_source(args.stream, catalog)
    chunk_size = args.every or None
    while True:
        chunk = list(itertools.islice(source, chunk_size)) if chunk_size else None
        consumed = engine.process_stream(chunk if chunk is not None else source)
        count += consumed
        engine.sync()
        if chunk_size and consumed:
            print(f"-- after {count} events --")
            for row in engine.results("q"):
                print("  ", row)
        if not chunk_size or consumed < chunk_size:
            break
    elapsed = time.perf_counter() - start
    print(f"== final result ({count} events, "
          f"{count / elapsed if elapsed else 0:,.0f} events/s) ==")
    for row in engine.results("q"):
        print("  ", row)
    if isinstance(engine, DurableEngine):
        engine.snapshot()
        print(f"-- durable state at LSN {engine.lsn} in {engine.directory}, "
              f"{_rows_per_frame(engine, engine.lsn)} --")
    engine.close()
    return 0


def _rows_per_frame(engine, lsn: int) -> str:
    """Events per logged WAL frame: the batch unit the log was written in
    (one frame per batch, inserts and deletes of a relation together)."""
    if not lsn:
        return "no logged frames"
    events = engine.events_processed + engine.events_skipped
    return f"{events / lsn:.2f} rows per logged frame"


def cmd_serve(args) -> int:
    import asyncio

    from repro.runtime.serving import ViewServer

    catalog, engine = _open_query_engine(args)

    async def _serve() -> None:
        server = ViewServer(
            engine, host=args.host, port=args.port,
            backpressure=args.backpressure, queue_frames=args.queue_frames,
            history_frames=args.history_frames,
            idle_timeout=args.idle_timeout,
        )
        await server.start()
        # What a delta costs on this engine: the groups a batch touched —
        # read off its rows, or recorded by the result maps — or (sharded
        # lanes, kernel-held result maps) the whole view.
        candidates = {
            "event": "event-keyed groups",
            "recorded": "recorded groups",
            "whole": "whole view",
        }[server.tap.candidates["q"]]
        print(f"-- serving view 'q' on {server.host}:{server.port} "
              f"(backpressure={args.backpressure}, "
              f"delta candidates: {candidates}) --", flush=True)
        try:
            if args.stream:
                consumed = await server.publish_stream(
                    csv_source(args.stream, catalog)
                )
                print(f"-- streamed {consumed} events from {args.stream}, "
                      f"now at LSN {server.tap.lsn} --", flush=True)
            if not args.oneshot:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\n-- server stopped --")
    print("== final result ==")
    for row in engine.results("q"):
        print("  ", row)
    if isinstance(engine, DurableEngine):
        engine.snapshot()
        print(f"-- durable state at LSN {engine.lsn} in {engine.directory} --")
    engine.close()
    return 0


def cmd_recover(args) -> int:
    catalog = _load_catalog(args)
    program = compile_sql(args.query, catalog, name="q")
    engine, lsn = recover_engine(program, args.durable, shards=args.shards)
    print(f"== recovered {args.durable} at LSN {lsn} "
          f"({engine.events_processed} events) ==")
    for row in engine.results("q"):
        print("  ", row)
    print(f"-- {_rows_per_frame(engine, lsn)} --")
    engine.close()
    return 0


def _batch_kwargs(args) -> dict:
    """Pass --batch-size through only when given (engine default otherwise)."""
    if args.batch_size is None:
        return {}
    return {"batch_size": args.batch_size}


def cmd_bench(args) -> int:
    if args.workload == "finance":
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
        from repro.workloads.orderbook import OrderBookGenerator

        sql = FINANCE_QUERIES[args.query or "bsp"]
        engine = _make_engine(compile_sql(sql, finance_catalog(), name="q"), args)
        stream = OrderBookGenerator(seed=1).events(args.events)
    elif args.workload == "warehouse":
        from repro.workloads.ssb import (
            SSB_Q41_COMBINED,
            load_static_tables,
            ssb_catalog,
            warehouse_stream,
        )
        from repro.workloads.tpch import TpchGenerator

        generator = TpchGenerator(sf=args.events / 7_500_000)
        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="q")
        engine = _make_engine(program, args)
        load_static_tables(engine, generator)
        stream = warehouse_stream(generator)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    _native_banner(engine)
    start = time.perf_counter()
    count = engine.process_stream(stream, **_batch_kwargs(args))
    engine.sync()
    elapsed = time.perf_counter() - start
    sharding = f", shards={args.shards}" if args.shards > 1 else ""
    print(f"{args.workload}: {count} events in {elapsed:.2f}s "
          f"({count / elapsed:,.0f} events/s, mode={args.mode}"
          f"{sharding})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DBToaster-repro standalone query processor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ddl", help="file of CREATE TABLE/STREAM statements")
        p.add_argument("--schema", help="inline DDL string")
        p.add_argument("--query", required=True, help="the standing SQL query")

    p_compile = sub.add_parser("compile", help="show compilation artifacts")
    common(p_compile)
    p_compile.add_argument(
        "--emit", choices=["none", "python", "c"], default="none",
        help="also print generated code (c: the native kernel source)",
    )
    p_compile.add_argument(
        "--dump-ir", action="store_true",
        help="print the typed imperative trigger IR",
    )
    p_compile.add_argument(
        "--no-opt", action="store_true",
        help="disable the IR optimisation pipeline",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="process an archived CSV stream")
    common(p_run)
    p_run.add_argument("--stream", required=True, help="CSV event file")
    p_run.add_argument("--every", type=int, default=0,
                       help="print results every N events")
    _engine_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve", help="reactive view-subscription server (push deltas)"
    )
    common(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="listen address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = pick a free port)")
    p_serve.add_argument("--backpressure",
                         choices=["block", "drop", "coalesce"],
                         default="block",
                         help="slow-subscriber policy (default: block)")
    p_serve.add_argument("--queue-frames", type=int, default=256,
                         help="per-subscriber send-queue bound in frames")
    p_serve.add_argument("--stream", help="CSV event file to stream through "
                         "the server before (or instead of) live traffic")
    p_serve.add_argument("--oneshot", action="store_true",
                         help="exit after streaming --stream instead of "
                         "serving forever")
    p_serve.add_argument("--history-frames", type=int, default=1024,
                         metavar="N",
                         help="per-view delta history retained for "
                         "resume-from-LSN reconnects (0 disables the "
                         "in-memory ring; default: 1024)")
    p_serve.add_argument("--idle-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="evict subscribers that neither read nor "
                         "ping within this window (default: off)")
    _engine_options(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_recover = sub.add_parser(
        "recover", help="rebuild engine state from a durable directory"
    )
    common(p_recover)
    p_recover.add_argument("--durable", metavar="DIR", required=True,
                           help="the directory --durable wrote")
    p_recover.add_argument("--shards", type=int, default=1,
                           help="recover into N hash-partitioned shard "
                           "lanes (1 = single engine)")
    p_recover.set_defaults(func=cmd_recover)

    p_bench = sub.add_parser("bench", help="built-in workload throughput")
    p_bench.add_argument("--workload", choices=["finance", "warehouse"],
                         default="finance")
    p_bench.add_argument("--query", help="finance query name (vwap/axf/...)")
    p_bench.add_argument("--events", type=int, default=20_000)
    p_bench.add_argument("--batch-size", type=int, default=None,
                         help="events per window, applied as one batch "
                         "per relation (default: the engine's bounded default)")
    _engine_options(p_bench, durable=False)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
