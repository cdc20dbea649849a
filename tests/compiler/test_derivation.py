"""Derivation pins: one program's deltas are simplified once.

Every call of :func:`repro.algebra.simplify.simplify` made while the
shipped queries (and the 4-view SSB program) compile and lower is
recorded.  The compiler simplifies each distinct ``(expr, bound)`` once and
classifies its deltas for the batch planner while it holds them, so
lowering re-derives nothing; and nothing is remembered from one compile to
the next.
"""

import importlib
import sys
from contextlib import contextmanager

import pytest

from repro.algebra.delta import Event, delta
from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries, compile_sql
from repro.ir import lower_program
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog

simplify_module = importlib.import_module("repro.algebra.simplify")


def _builds():
    finance, ssb = finance_catalog(), ssb_catalog()
    builds = {
        name: (lambda sql=sql, name=name: compile_sql(sql, finance, name=name))
        for name, sql in FINANCE_QUERIES.items()
    }
    builds.update(
        {
            name: (lambda sql=sql, name=name: compile_sql(sql, ssb, name=name))
            for name, sql in SSB_FLIGHT.items()
        }
    )
    builds["ssb4"] = lambda: compile_queries(
        [translate_sql(sql, ssb, name=name) for name, sql in SSB_FLIGHT.items()],
        ssb,
    )
    return builds


BUILDS = _builds()


@contextmanager
def recorded_simplify():
    """Record ``(expr, bound)`` of every ``simplify`` call, wherever in
    ``repro`` the function is called from."""
    original = simplify_module.simplify
    calls: list = []

    def recording(expr, bound=(), memo=None):
        calls.append((expr, frozenset(bound)))
        return original(expr, bound, memo)

    sites = [
        (module, attribute)
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
        for attribute, value in list(vars(module).items())
        if value is original
    ]
    for module, attribute in sites:
        setattr(module, attribute, recording)
    try:
        yield calls
    finally:
        for module, attribute in sites:
            setattr(module, attribute, original)


def _derive(build):
    """The program, and the simplify calls its compile and its lowering
    (optimised and not) made."""
    with recorded_simplify() as calls:
        program = build()
        compiled = list(calls)
        calls.clear()
        lower_program(program)
        lower_program(program, optimize=False)
        lowered = list(calls)
    return program, compiled, lowered


@pytest.fixture(scope="module")
def derivations():
    return {name: _derive(build) for name, build in BUILDS.items()}


def test_no_pair_is_simplified_twice(derivations):
    for name, (_program, compiled, lowered) in derivations.items():
        calls = compiled + lowered
        assert len(set(calls)) == len(calls), name


def test_lowering_simplifies_no_first_order_delta(derivations):
    for name, (program, _compiled, lowered) in derivations.items():
        first_order = {
            delta(program.maps[s.target].defn, Event(relation, sign, trigger.params))
            for (relation, sign), trigger in program.triggers.items()
            for s in trigger.statements
        }
        assert first_order, name
        assert not any(expr in first_order for expr, _bound in lowered), name


def test_the_program_keeps_orders_not_deltas(derivations):
    """What the planner reads from the compiler is one integer per
    trigger and written map, not the delta it was classified from."""
    for name, (program, _compiled, _lowered) in derivations.items():
        orders = [o for by_map in program.delta_orders.values() for o in by_map.values()]
        assert orders and all(o in (1, 2) for o in orders), name


def test_a_second_compile_repeats_every_call(derivations):
    """Nothing outlives one compile: the same SQL costs the same calls."""
    for name, build in BUILDS.items():
        again = _derive(build)
        assert len(again[1]) == len(derivations[name][1]), name
        assert len(again[2]) == len(derivations[name][2]), name
