"""Classical first-order incremental view maintenance.

This is the "today's VM algorithms" comparator from the paper's
introduction: the view's *first-order* delta query is derived once, but it
is evaluated against the (materialised) base relations on every event — no
recursive materialisation of the delta queries themselves.  Implemented by
compiling with ``derived_maps=False``: the only maintained maps are the
roots and the base-relation occurrence maps, so every trigger re-joins base
state, exactly like classical IVM.
"""

from __future__ import annotations

from repro.compiler import CompileOptions, compile_queries
from repro.algebra.translate import translate_sql
from repro.sql.catalog import Catalog
from repro.runtime.engine import DeltaEngine


class FirstOrderIVMEngine(DeltaEngine):
    """A :class:`DeltaEngine` restricted to first-order delta processing."""

    name = "ivm_first_order"

    def __init__(self, queries: dict[str, str], catalog: Catalog) -> None:
        translated = [
            translate_sql(sql, catalog, name=name) for name, sql in queries.items()
        ]
        program = compile_queries(
            translated, catalog, CompileOptions(derived_maps=False)
        )
        super().__init__(program)
