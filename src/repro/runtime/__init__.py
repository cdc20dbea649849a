"""Runtime: event model, map storage, engines, views, sources and tooling.

The runtime executes a :class:`~repro.compiler.program.CompiledProgram`:

* :class:`~repro.runtime.engine.DeltaEngine` — the main-memory engine: it
  owns the maps and calls the trigger table an executor bound to them, in
  *compiled* mode (generated Python trigger functions, the stand-in for
  the paper's C++ path), *native* mode (the same functions over a C
  column kernel for whole-map scans) or *interpreted* mode (the IR
  walker, used as the interpreter-overhead ablation);
* :class:`~repro.runtime.engine.ShardedEngine` — N-way sharded parallel
  execution: batches hash-routed by the compiler's partition columns to
  shard lanes (in-process engines or forked worker processes) that all
  bind one executor compiled once, with key-wise merged results;
* :mod:`~repro.runtime.views` — renders SQL-visible results from the
  maintained maps (avg division, min/max extraction, group existence);
* :mod:`~repro.runtime.sources` — archived CSV streams for standalone
  mode (any iterable of events is a source too);
* :mod:`~repro.runtime.durability` — crash durability: the LSN-stamped
  write-ahead log, atomic engine snapshots, recovery
  (:class:`~repro.runtime.durability.DurableEngine`) and the
  fault-injection probe points;
* :mod:`~repro.runtime.serving` — the reactive view-subscription server:
  clients subscribe to named views and receive LSN-stamped incremental
  result deltas as triggers fire (snapshot-then-stream catch-up, bounded
  per-client queues with configurable backpressure);
* :mod:`~repro.runtime.debugger` / :mod:`~repro.runtime.profiler` — the
  demo's step-tracing tool (per-statement, per-map updates) and profiler
  (a flush-path listener counting events per trigger, map memory,
  compile times).
"""

from repro.runtime.events import (
    EventBatch,
    StreamEvent,
    batches,
    insert,
    delete,
    partition_columns,
    partition_rows,
    update,
)
from repro.runtime.engine import DeltaEngine, ShardSupervisor, ShardedEngine
from repro.runtime.durability import (
    CrashPoint,
    DurableEngine,
    SnapshotStore,
    WriteAheadLog,
    program_fingerprint,
    recover_engine,
)
from repro.runtime.serving import (
    ReconnectingSubscriber,
    ServerThread,
    SubscriberClient,
    ViewDeltaTap,
    ViewServer,
)
from repro.runtime.storage import ColumnarMap
from repro.runtime.views import query_results, result_delta, result_rows_to_dicts

__all__ = [
    "ColumnarMap",
    "CrashPoint",
    "DurableEngine",
    "EventBatch",
    "ReconnectingSubscriber",
    "ServerThread",
    "ShardSupervisor",
    "SnapshotStore",
    "StreamEvent",
    "SubscriberClient",
    "ViewDeltaTap",
    "ViewServer",
    "WriteAheadLog",
    "batches",
    "insert",
    "delete",
    "partition_columns",
    "partition_rows",
    "program_fingerprint",
    "recover_engine",
    "result_delta",
    "update",
    "DeltaEngine",
    "ShardedEngine",
    "query_results",
    "result_rows_to_dicts",
]
