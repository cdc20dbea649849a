"""The executor seam: one immutable executor per engine, bound per map set.

An executor (compiled / native / interpreted) is the compiled form of a
program; ``bind(maps)`` closes its triggers over one
engine's maps and returns the table the engine dispatches through.
Sharing one executor between lanes, copies and forked workers is only
sound if two bindings never alias — which is what these tests pin.
"""

import copy
import os
from functools import lru_cache

import pytest

from repro.algebra.translate import translate_sql
from repro.codegen import pygen
from repro.compiler import compile_queries
from repro.compiler.program import ExecutorOptions
from repro.runtime import DeltaEngine, ShardedEngine
from repro.runtime.engine import _build_executor, engine_state
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from tests.lanes import executors, order_book, shipped_program


@lru_cache(maxsize=None)
def _program(*names):
    catalog = finance_catalog()
    return compile_queries(
        [translate_sql(FINANCE_QUERIES[n], catalog, name=n) for n in names],
        catalog,
    )


def _events(seed, n=300):
    return order_book(seed, n)


def _plain(maps):
    return {name: dict(contents.items()) for name, contents in maps.items()}


@pytest.mark.parametrize("mode", executors(_program("vwap", "bbo")))
def test_bind_covers_every_trigger(mode):
    program = _program("vwap", "bbo")
    executor = _build_executor(program, ExecutorOptions(mode))
    table = executor.bind(executor.layout.create_maps())
    assert set(table.per_event) == set(table.batch) == set(program.triggers)
    assert all(map(callable, (*table.per_event.values(), *table.batch.values())))
    assert isinstance(table.index_entry_counts(), dict)
    assert isinstance(executor.native_active, bool)
    assert (executor.source is None) == (mode == "interpreted")


@pytest.mark.parametrize("mode", executors(_program("vwap", "bbo")))
def test_two_bindings_of_one_executor_are_independent(mode):
    """vwap + bbo: secondary indexes on the bbo maps, and (with a C
    toolchain) a kernel-attached vwap map — the state a shared executor
    must not share."""
    program = _program("vwap", "bbo")
    first = DeltaEngine(program, mode=mode)
    first.process_stream(_events(1), batch_size=None)
    second = copy.deepcopy(first)  # binds first's executor to second's maps
    assert second._executor is first._executor
    assert all(
        second.maps[name] is not contents for name, contents in first.maps.items()
    )
    first.process_stream(_events(2), batch_size=7)
    second.process_stream(_events(3), batch_size=1)

    for engine, seeds, size in ((first, (1, 2), 7), (second, (1, 3), 1)):
        fresh = DeltaEngine(program, mode=mode)
        fresh.process_stream(_events(seeds[0]), batch_size=None)
        fresh.process_stream(_events(seeds[1]), batch_size=size)
        assert _plain(engine.maps) == _plain(fresh.maps)
        assert engine.index_sizes() == fresh.index_sizes()
        assert engine.storage_classes() == fresh.storage_classes()
        for name in ("vwap", "bbo"):
            assert engine.results(name) == fresh.results(name)
    assert _plain(first.maps) != _plain(second.maps)
    if mode != "interpreted":
        assert sum(first.index_sizes().values()) > 0
    if first.native_active:
        assert "kernel" in second.storage_classes().values()


@pytest.mark.parametrize("mode", executors(_program("bbo")))
def test_restore_state_rebinds_without_rendering(mode, monkeypatch):
    program = _program("bbo")
    source = DeltaEngine(program, mode=mode)
    source.process_stream(_events(4))
    target = DeltaEngine(program, mode=mode)
    monkeypatch.setattr(pygen, "generate_module", None)  # any render raises
    monkeypatch.setattr(pygen, "compile", None, raising=False)
    target.restore_state(engine_state(source))
    clone = copy.deepcopy(target)
    for engine in (source, target, clone):
        engine.process_stream(_events(5))
    assert source.results() == target.results() == clone.results()
    assert source.index_sizes() == target.index_sizes() == clone.index_sizes()


@pytest.mark.parametrize("mode", executors(shipped_program("bsp", "bsp")))
@pytest.mark.parametrize("parallel", (False, True))
def test_sharded_engine_compiles_once(mode, parallel, monkeypatch):
    if parallel and not hasattr(os, "fork"):
        pytest.skip("process lanes require POSIX fork")
    rendered, compiled = [], []
    render = pygen.generate_module

    def counting_render(*args, **kwargs):
        rendered.append(1)
        return render(*args, **kwargs)

    def counting_compile(*args, **kwargs):
        compiled.append(1)
        return compile(*args, **kwargs)

    monkeypatch.setattr(pygen, "generate_module", counting_render)
    monkeypatch.setattr(pygen, "compile", counting_compile, raising=False)
    program = shipped_program("bsp", "bsp")
    events = _events(6, 400)
    with ShardedEngine(program, shards=4, mode=mode, parallel=parallel) as sharded:
        assert len(sharded._lanes) == 4
        expected = 0 if mode == "interpreted" else 1
        assert (len(rendered), len(compiled)) == (expected, expected)
        sharded.process_stream(events, batch_size=50)
        single = DeltaEngine(program, mode=mode)
        single.process_stream(events, batch_size=50)
        assert sharded.results() == single.results()
        assert sharded.events_processed == single.events_processed
