"""Top-level public API tests (the README quickstart must work verbatim)."""

import repro
from repro import (
    Catalog,
    CompileOptions,
    DeltaEngine,
    compile_sql,
    delete,
    insert,
    update,
)


def test_readme_quickstart():
    catalog = Catalog.from_script(
        """
        CREATE STREAM R (A int, B int);
        CREATE STREAM S (B int, C int);
        CREATE STREAM T (C int, D int);
        """
    )
    program = compile_sql(
        "SELECT sum(r.A * t.D) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C",
        catalog,
    )
    engine = DeltaEngine(program)
    engine.insert("R", 2, 10)
    engine.insert("S", 10, 100)
    engine.insert("T", 100, 7)
    assert engine.result_scalar() == 14
    engine.delete("R", 2, 10)
    assert engine.result_scalar() == 0


def test_version_exported():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_event_helpers_roundtrip():
    removal, addition = update("R", (1, 2), (1, 3))
    assert removal == delete("R", 1, 2)
    assert addition == insert("R", 1, 3)


def test_compile_options_flow_through():
    catalog = Catalog.from_script(
        "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C int)"
    )
    program = compile_sql(
        "SELECT sum(R.A * S.C) FROM R, S WHERE R.B = S.B",
        catalog,
        options=CompileOptions(derived_maps=False),
    )
    # First-order IVM: the root plus whole-row occurrence maps, no
    # derived aggregate maps.
    assert sorted(m.role for m in program.maps.values()) == [
        "occurrence", "occurrence", "root"
    ]
    engine = DeltaEngine(program)
    engine.insert("R", 5, 1)
    engine.insert("S", 1, 3)
    engine.insert("R", 2, 1)
    engine.delete("R", 5, 1)
    assert engine.result_scalar() == 6


def test_layers_import_nothing_above_them():
    """sql -> algebra -> compiler never import the layers built on them
    (ir, codegen, runtime), and ir / codegen never import the runtime that
    drives them — not even lazily inside a function."""
    import ast
    from pathlib import Path

    upper = {
        "sql": ("repro.ir", "repro.codegen", "repro.runtime"),
        "algebra": ("repro.ir", "repro.codegen", "repro.runtime"),
        "compiler": ("repro.ir", "repro.codegen", "repro.runtime"),
        "ir": ("repro.codegen", "repro.runtime"),
        "codegen": ("repro.runtime",),
    }
    allowed = {
        # MapStorage.create() builds the packed map class it plans for.
        ("compiler/storage.py", "repro.runtime.storage"),
        # KernelLib.attach() re-homes that class onto the C kernel.
        ("codegen/native.py", "repro.runtime.storage"),
    }
    root = Path(repro.__file__).parent
    offenders = []
    for layer, above in upper.items():
        for path in sorted((root / layer).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                offenders += [
                    (relative, module)
                    for module in modules
                    if module.startswith(above)
                    and (relative, module) not in allowed
                ]
    assert not offenders


def test_module_imports_come_first():
    """Ruff's E402, which CI selects (``E4``) and the dev container cannot
    run: no module under ``src/`` has a top-level import after a
    non-import statement (the module docstring aside)."""
    import ast
    from pathlib import Path

    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        code_seen = False
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if code_seen:
                    offenders.append((path.name, node.lineno))
            elif not isinstance(node, ast.Expr):  # a docstring
                code_seen = True
    assert not offenders


def test_modules_use_every_name_they_import():
    """Ruff's F401, which CI selects and the dev container cannot run: no
    module under ``src/`` imports a name it never reads.  A name counts
    as read when code, an annotation (quoted ones included) or the
    module's ``__all__`` names it; a ``# noqa`` import is exempt."""
    import ast
    from pathlib import Path

    def quoted(annotation):
        """The names a quoted annotation such as ``"Optional[Lane]"`` reads."""
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for inner in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(inner, ast.Name):
                        yield inner.id

    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read, imports = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.append(node)
            elif isinstance(node, ast.arg) and node.annotation:
                read.update(quoted(node.annotation))
            elif isinstance(node, ast.FunctionDef) and node.returns:
                read.update(quoted(node.returns))
            elif isinstance(node, ast.AnnAssign):
                read.update(quoted(node.annotation))
        for node in tree.body:  # names a module re-exports through __all__
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    offenders.append((path.name, node.lineno, bound))
    assert not offenders


def test_every_setting_has_a_production_caller():
    """A setting only tests changed is a module constant: the supervisor's
    checkpoint interval (``engine._CHECKPOINT_EVERY``), the snapshots kept
    (``durability._SNAPSHOTS_KEPT``), the WAL segment size
    (``durability._SEGMENT_BYTES``), a subscriber's reconnect budget and
    backoff (``serving._MAX_RECONNECTS``, ``_BACKOFF_BASE``,
    ``_BACKOFF_MAX``), the views a server serves (all of them) and the
    first-order engine's compile options and mode.  A setting nothing
    read is gone: ``map_sizes``/``total_entries`` count map entries only
    (``index_sizes()`` counts the rest), a debugger step's trace is
    returned, not sent to a sink, and ``csv_source`` reads its columns by
    position.  A WAL frame is written one way, by ``append_batch``, and
    no second spelling of another name is public."""
    import inspect

    from repro.baselines import FirstOrderIVMEngine
    from repro.runtime import ShardedEngine, ShardSupervisor, durability, sources
    from repro.runtime.debugger import Debugger
    from repro.runtime.durability import DurableEngine, SnapshotStore, WriteAheadLog
    from repro.runtime.engine import Engine
    from repro.runtime.serving import ReconnectingSubscriber, ViewServer
    from repro.workloads import orderbook, tpch

    def parameters(callable_):
        return list(inspect.signature(callable_).parameters)

    assert parameters(ShardedEngine) == [
        "program", "shards", "mode", "parallel", "strict", "use_indexes",
        "optimize", "supervise", "max_worker_restarts", "restart_window",
    ]
    assert parameters(ShardSupervisor) == ["engine", "max_restarts", "window"]
    assert parameters(SnapshotStore) == ["directory", "probe"]
    assert parameters(ViewServer) == [
        "engine", "host", "port", "backpressure", "queue_frames",
        "history_frames", "idle_timeout",
    ]
    assert parameters(FirstOrderIVMEngine) == ["queries", "catalog"]
    assert parameters(WriteAheadLog) == ["directory", "fsync", "probe"]
    assert parameters(DurableEngine) == [
        "program", "directory", "shards", "parallel", "fsync",
        "snapshot_every", "probe", "engine_kwargs",
    ]
    assert parameters(ReconnectingSubscriber) == [
        "host", "port", "view", "timeout", "rng",
    ]
    assert parameters(sources.csv_source) == ["path", "catalog"]
    assert parameters(Engine.map_sizes) == ["self"]
    assert parameters(Engine.total_entries) == ["self"]
    assert parameters(Debugger) == ["program"]
    assert not hasattr(WriteAheadLog, "append")
    assert not hasattr(durability, "DEFAULT_SEGMENT_BYTES")
    for module, name in [
        (sources, "list_source"),  # the list itself is a source
        (sources, "relation_loader"),  # engine.load
        (sources, "write_csv"),  # no caller outside the tests
        (tpch, "tpch_catalog"),  # ssb_catalog
        (orderbook, "order_book_catalog"),  # finance_catalog
    ]:
        assert not hasattr(module, name), name
