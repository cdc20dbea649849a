"""Quickstart: the paper's running example, end to end.

Compiles ``SELECT sum(A*D) FROM R, S, T WHERE R.B = S.B AND S.C = T.C`` into
delta-processing triggers (Section 3 / Figure 2 of the paper), shows the
materialised maps and the generated code, then feeds inserts and deletes and
watches the standing result update incrementally.

Run:  python examples/quickstart.py

The same flow, in doctest form (CI runs ``python -m doctest`` on this
file, so the session below is guaranteed accurate):

>>> from repro import Catalog, DeltaEngine, compile_sql
>>> catalog = Catalog.from_script(DDL)
>>> engine = DeltaEngine(compile_sql(QUERY, catalog, name="q"))
>>> engine.insert("R", 2, 10)
>>> engine.insert("S", 10, 100)
>>> engine.result_scalar()       # no complete join row yet
0
>>> engine.insert("T", 100, 7)   # completes the chain: 2 * 7
>>> engine.result_scalar()
14
>>> engine.delete("R", 2, 10)    # deletions are strict negations
>>> engine.result_scalar()
0
>>> engine.events_processed, engine.total_entries()
(4, 3)

Maps are plain dicts by default — CPython's own hash table is the
fastest probe generated Python can reach.  ``columnar=True`` is the
memory mode: the maps the compiler's storage plan proves packable move
into packed columns, 2-4x smaller and slower to probe (``mode="native"``
instead hands the maps a trigger scans whole to a C kernel — see
docs/STORAGE.md):

>>> set(engine.storage_classes().values())
{'dict'}
>>> packed = DeltaEngine(engine.program, columnar=True)
>>> from repro import analyze_storage
>>> sorted(analyze_storage(engine.program).columnar_maps) == \
sorted(n for n, c in packed.storage_classes().items() if c == "packed")
True
"""

from repro.codegen.pygen import generate_module
from repro.compiler import compile_sql
from repro.runtime import DeltaEngine
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""

QUERY = "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"


def main() -> None:
    catalog = Catalog.from_script(DDL)

    print("== recursive compilation (the paper's Figure 2) ==\n")
    program = compile_sql(QUERY, catalog, name="q")
    print(program.describe())

    print("== generated Python handlers (stand-in for the paper's C++) ==\n")
    source = generate_module(program)
    # Show the insert handlers only; the module also contains deletes.
    for chunk in source.split("\n\n"):
        if chunk.startswith("def on_insert"):
            print(chunk)
            print()

    print("== incremental execution ==\n")
    engine = DeltaEngine(program, mode="compiled")

    def show(label: str) -> None:
        print(f"{label:<28} q = {engine.result_scalar()}")

    engine.insert("R", 2, 10)
    show("insert R(2, 10)")
    engine.insert("S", 10, 100)
    show("insert S(10, 100)")
    engine.insert("T", 100, 7)
    show("insert T(100, 7)")  # first complete join row: 2 * 7 = 14
    engine.insert("R", 3, 10)
    show("insert R(3, 10)")  # second row joins instantly: + 3*7
    engine.delete("R", 2, 10)
    show("delete R(2, 10)")  # deletions are strict negations
    engine.insert("T", 100, 1)
    show("insert T(100, 1)")

    print("\nmaintained maps:")
    for name, size in sorted(engine.map_sizes().items()):
        print(f"  {name}: {size} entries")


if __name__ == "__main__":
    main()
