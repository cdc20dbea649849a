"""compile-suite: the query's whole life, SQL text to a bound executor.

Every shipped query (7 finance + 4 SSB) is compiled cold, each into its
own program: ``DeltaEngine(compile_sql(sql, catalog))`` runs lex, parse,
bind, translate, the recursive delta compiler, storage and partition
analysis, IR lowering and optimisation, Python rendering and ``exec``.
The runtime does nothing, so an IR pass that buys run time with compile
time shows on both sides: here as ``events_per_s`` (queries compiled per
second) going down, on finance-event as ``events_per_s`` going up.

The seed picks the compile order and generates the small streams the
compiled engines are checked with (against sqlite) once timing is over.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass

import repro.algebra.translate as translate_module
import repro.codegen.native as native_module
import repro.codegen.pygen as pygen_module
import repro.compiler.compile as compile_module
import repro.compiler.partition as partition_module
import repro.compiler.storage as storage_module
import repro.ir.lower as lower_module
import repro.ir.optimize as optimize_module
import repro.sql.binder as binder_module
import repro.sql.lexer as lexer_module
import repro.sql.parser as parser_module
from repro import DeltaEngine, compile_sql
from repro.codegen.pygen import CompiledExecutor, generate_module
from repro.ir import lower_program
from repro.ir.nodes import walk_stmts
from repro.runtime.events import StreamEvent
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator
from repro.workloads.ssb import SSB_FLIGHT, load_static_tables, ssb_catalog
from repro.workloads.tpch import TpchGenerator

from benchmarks.ledger.common import (
    NATIVE,
    WORK,
    Outcome,
    note_host,
    peak_rss_mb,
    reference_seconds,
    rounds,
    summarize,
    traced_section,
)
from benchmarks.ledger.oracle import SqliteOracle, mismatches, net_live_rows
from benchmarks.ledger.spans import SpanRecorder, patched

NAME = "compile-suite"

CHECK_EVENTS = 400  # order-book events each compiled finance engine is fed
CHECK_SCALE_FACTOR = 0.0004  # TPC-H size each compiled SSB engine is fed

_clock = time.perf_counter


@dataclass
class State:
    suite: list  # (name, sql, catalog), in this seed's order
    seed: int
    smoke: bool


def _compile_all(suite) -> dict:
    return {
        name: DeltaEngine(compile_sql(sql, catalog, name=name))
        for name, sql, catalog in suite
    }


def setup(seed: int, smoke: bool) -> State:
    finance, ssb = finance_catalog(), ssb_catalog()
    suite = [(name, sql, finance) for name, sql in FINANCE_QUERIES.items()]
    suite += [(name, sql, ssb) for name, sql in SSB_FLIGHT.items()]
    random.Random(seed).shuffle(suite)
    _compile_all(suite)  # prefill: imports, regex caches and code paths warm
    return State(suite, seed, smoke)


def teardown(state: State) -> None:
    pass


def _check(state: State, engines: dict, outcome: Outcome) -> None:
    """The compiler's output is a program: run each one over a small
    seeded stream and compare its rows with sqlite's."""
    feed = list(OrderBookGenerator(seed=state.seed).events(CHECK_EVENTS))
    generator = TpchGenerator(sf=CHECK_SCALE_FACTOR, seed=state.seed)
    facts = [
        StreamEvent(relation, 1, row)
        for relation, row in generator.orders_and_lineitems()
    ]
    finance = SqliteOracle(finance_catalog())
    finance.load_live(net_live_rows(feed))
    ssb = SqliteOracle(ssb_catalog())
    for relation, rows in generator.static_tables().items():
        ssb.load(relation, rows)
    ssb.load_live(net_live_rows(facts))
    for name, sql, _catalog in state.suite:
        engine = engines[name]
        if name in FINANCE_QUERIES:
            engine.process_stream(feed)
            expected = finance.rows(sql)
        else:
            load_static_tables(engine, generator)
            engine.process_stream(facts)
            expected = ssb.rows(sql)
        outcome.attempted += 1
        outcome.fail(
            mismatches(engine.results(name), expected),
            f"compiled {name} differs from sqlite",
        )
    finance.close()
    ssb.close()


def measure(state: State, seconds: float, minimum: int = 3) -> Outcome:
    outcome = Outcome()
    last: dict = {}

    def one_round() -> dict:
        started = _clock()
        last["engines"] = _compile_all(state.suite)
        elapsed = _clock() - started
        outcome.attempted += len(state.suite)
        return {"suite_s": elapsed}

    samples, factors = rounds(one_round, seconds, minimum)
    suite_s = summarize(
        outcome, "whole-suite compile",
        reference_seconds(samples["suite_s"], factors), " s",
    )
    note_host(outcome, factors)
    outcome.metrics["e2e.compile_s"] = suite_s
    outcome.metrics["events_per_s"] = len(state.suite) / suite_s
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    _check(state, last["engines"], outcome)
    return outcome


def _targets():
    return [
        (lexer_module, "tokenize", "sql.lex"),
        (parser_module, "parse_query", "sql.parse"),
        (binder_module, "bind_query", "sql.bind"),
        (translate_module, "translate_query", "algebra.translate"),
        (compile_module, "compile_queries", "compiler.compile"),
        (partition_module, "analyze_partitioning", "compiler.analyze"),
        (storage_module, "analyze_storage", "compiler.analyze"),
        (lower_module, "lower_program", "ir.lower"),
        (optimize_module, "optimize_program", "ir.optimize"),
        (pygen_module, "generate_module", "codegen.render"),
        (CompiledExecutor, "bind", "codegen.exec"),
    ]


def _ir_nodes(program, optimize: bool) -> int:
    ir = lower_program(program, optimize=optimize)
    bodies = list(ir.triggers.values()) + list(ir.batch_triggers.values())
    return sum(1 for trigger in bodies for _ in walk_stmts(trigger.body))


def _native_build_ms(engines: dict) -> float:
    """Build the C kernels of the natively-eligible queries from an empty
    cache: gcc time, once per distinct kernel signature set.  Timed with a
    recorder of its own: a one-off build is no part of a suite compile's
    shares."""
    recorder = SpanRecorder()
    cache = WORK / "native-cold"
    shutil.rmtree(cache, ignore_errors=True)
    previous = os.environ["REPRO_NATIVE_CACHE"]
    os.environ["REPRO_NATIVE_CACHE"] = str(cache)
    native_module._KERNEL_CACHE.clear()  # forget this process's loaded kernels
    try:
        with patched(recorder, [(native_module, "load_kernel", "codegen.native_build")]):
            for name in NATIVE:
                DeltaEngine(engines[name].program, mode="native")
    finally:
        os.environ["REPRO_NATIVE_CACHE"] = previous
        native_module._KERNEL_CACHE.clear()
        shutil.rmtree(cache, ignore_errors=True)
    return 1e3 * sum(recorder.durations("codegen.native_build"))


def trace(state: State, seconds: float, recorder) -> Outcome:
    outcome = measure(state, seconds / 3, minimum=1)

    started = _clock()
    _compile_all(state.suite)
    untraced_one = _clock() - started

    traced_rounds = 0
    budget = _clock() + seconds / 3
    with patched(recorder, _targets()):
        while traced_rounds < 2 or _clock() < budget:
            with traced_section(recorder, outcome):
                for name, sql, catalog in state.suite:
                    recorder.new_trace()
                    DeltaEngine(compile_sql(sql, catalog, name=name))
            traced_rounds += 1
    outcome.untraced_wall += untraced_one * traced_rounds
    outcome.attempted += traced_rounds * len(state.suite)

    # Mean self time per whole-suite compile, per stage.
    own = recorder.self_by_name()
    metrics = outcome.metrics
    for metric, span in (
        ("sql.lex_ms", "sql.lex"),
        ("sql.parse_ms", "sql.parse"),
        ("sql.bind_ms", "sql.bind"),
        ("algebra.translate_ms", "algebra.translate"),
        ("compiler.compile_ms", "compiler.compile"),
        ("compiler.analyze_ms", "compiler.analyze"),
        ("ir.lower_ms", "ir.lower"),
        ("ir.optimize_ms", "ir.optimize"),
        ("codegen.render_ms", "codegen.render"),
        ("codegen.exec_ms", "codegen.exec"),
    ):
        metrics[metric] = 1e3 * own.get(span, 0.0) / traced_rounds

    engines = _compile_all(state.suite)
    programs = [engines[name].program for name, _sql, _catalog in state.suite]
    metrics["compiler.maps"] = float(sum(len(p.maps) for p in programs))
    metrics["compiler.statements"] = float(
        sum(p.statements_count() for p in programs)
    )
    metrics["ir.nodes_lowered"] = float(
        sum(_ir_nodes(p, optimize=False) for p in programs)
    )
    metrics["ir.nodes_optimized"] = float(
        sum(_ir_nodes(p, optimize=True) for p in programs)
    )
    metrics["codegen.source_bytes"] = float(
        sum(len(generate_module(p, columnar=True).encode()) for p in programs)
    )
    metrics["codegen.native_build_ms"] = _native_build_ms(engines)
    return outcome
