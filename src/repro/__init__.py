"""DBToaster reproduction: recursive SQL delta compilation for main-memory IVM.

The public API in three lines::

    catalog = Catalog.from_script("CREATE STREAM R (A int, B int); ...")
    engine = DeltaEngine(compile_sql("SELECT sum(...) FROM ...", catalog))
    engine.insert("R", 1, 2); engine.results()

See README.md for the full pipeline tour (SQL -> calculus -> delta ->
materialise -> trigger IR -> {pygen, interpreter}) and CLI usage.
"""

from repro.sql.catalog import Catalog
from repro.compiler import (
    CompileOptions,
    PartitionSpec,
    StoragePlan,
    analyze_partitioning,
    analyze_storage,
    compile_queries,
    compile_sql,
)
from repro.algebra.translate import translate_sql
from repro.runtime import (
    ColumnarMap,
    DeltaEngine,
    DurableEngine,
    EventBatch,
    ShardedEngine,
    StreamEvent,
    batches,
    insert,
    delete,
    recover_engine,
    update,
)

__version__ = "0.4.0"

__all__ = [
    "Catalog",
    "ColumnarMap",
    "CompileOptions",
    "PartitionSpec",
    "StoragePlan",
    "analyze_partitioning",
    "analyze_storage",
    "compile_queries",
    "compile_sql",
    "translate_sql",
    "DeltaEngine",
    "DurableEngine",
    "EventBatch",
    "ShardedEngine",
    "StreamEvent",
    "batches",
    "insert",
    "delete",
    "recover_engine",
    "update",
    "__version__",
]
