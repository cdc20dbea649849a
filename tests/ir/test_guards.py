"""The ``guards`` pass groups statements on any condition they share, an
explicit guard's or a zero factor's, and tests it once.

The synthetic bodies pin the grouping rule itself: identical guards merge
across statements they commute with, comment blocks included, and do not
merge when a member changes what the condition reads, and a member
takes the key binding it reads along past the block that leads with it.
The shipped queries pin where the tests land: q31's year test leaves
the supplier scan it does not depend on but stays in the loop binding
the year, q11's merged chain keeps its order, and the four-view
program's lineitem row runs that chain once.
"""

from repro.ir import lower_program
from repro.ir.nodes import (
    AddTo,
    Assign,
    Block,
    Compare,
    Const,
    ForEachMap,
    IfCond,
    KeyTuple,
    Lookup,
    Name,
    Slot,
    TriggerIR,
    walk_stmts,
)
from repro.ir.optimize import optimize_trigger
from tests.lanes import shipped_program


def _guarded(body):
    trigger = TriggerIR("R", "on_R", ("__w", "x"), tuple(body))
    return optimize_trigger(trigger, ("guards",), frozenset()).body


def _write(slot: str, value=Name("x")) -> AddTo:
    return AddTo(Slot(slot), (), value)


def _block(comment: str, *stmts) -> Block:
    return Block((comment,), stmts)


def _guards(body) -> list[IfCond]:
    return [stmt for stmt in walk_stmts(body) if isinstance(stmt, IfCond)]


POSITIVE = Compare(">", Name("x"), Const(0))


def test_identical_guards_merge_across_a_statement_they_commute_with():
    """Like vwap's two threshold tests: each guard is wrapped in its
    statement's comment block, and a write to another map sits between
    them."""
    body = _guarded(
        [
            _block("a", IfCond(POSITIVE, (_write("m1"),))),
            _block("b", _write("m2")),
            _block("c", IfCond(POSITIVE, (_write("m3"),))),
        ]
    )
    (guard,) = _guards(body)
    assert guard.cond == POSITIVE
    assert [s.comments for s in guard.body] == [("a",), ("c",)]
    written = {s.slot.name for s in walk_stmts(guard.body) if isinstance(s, AddTo)}
    assert written == {"m1", "m3"}
    assert body.index(guard) == 0 and body[1].comments == ("b",)


def test_guards_do_not_merge_when_a_member_changes_the_condition():
    """A member writing a map the condition reads, or rebinding a name it
    reads, would change the test the later member makes."""
    reads_m1 = Compare(">", Lookup(Slot("m1"), ()), Const(0))
    writes_other_map = [
        _block("a", IfCond(reads_m1, (_write("m3"),))),
        _block("b", IfCond(reads_m1, (_write("m2"),))),
    ]
    assert len(_guards(_guarded(writes_other_map))) == 1
    writes_read_map = [
        _block("a", IfCond(reads_m1, (_write("m1"),))),
        _block("b", IfCond(reads_m1, (_write("m2"),))),
    ]
    assert len(_guards(_guarded(writes_read_map))) == 2
    reads_y = Compare(">", Name("y"), Const(0))
    rebinds_read_name = [
        Assign("y", Name("x")),
        _block("a", IfCond(reads_y, (Assign("y", Const(1)), _write("m1")))),
        _block("b", IfCond(reads_y, (_write("m2"),))),
    ]
    assert len(_guards(_guarded(rebinds_read_name))) == 2


def test_q31_tests_the_year_before_the_supplier_scan():
    """``{__k2 <= 1997}`` reads the order-side loop's year only: the
    guard runs once per order entry, before the supplier scan instead of
    inside it, and stays in the loop that binds the year."""
    body = lower_program(shipped_program("q31", "q31")).triggers["lineitem", 0].body
    (orders,) = [
        s
        for s in walk_stmts(body)
        if isinstance(s, ForEachMap)
        and s.slot.name == "m1_customer_ddate_nation_orders_region"
    ]
    year = Name(dict(orders.binds)[2])
    tests = [s for s in _guards(body) if s.cond == Compare("<=", year, Const(1997))]
    (guard,) = tests
    assert guard in walk_stmts(orders.body)
    (suppliers,) = [
        s
        for s in walk_stmts(guard.body)
        if isinstance(s, ForEachMap) and s.slot.name == "m2_nation_region_supplier"
    ]
    assert all(g.cond != guard.cond for g in _guards(suppliers.body))


def test_q11_merged_chain_keeps_its_order():
    """The two lineitem writes share the guard chain ``discount <= 3``,
    ``discount >= 1``, ``quantity < 25``: it runs once, outermost test
    first."""
    body = lower_program(shipped_program("q11", "q11")).triggers["lineitem", 0].body
    (outer,) = [s for s in body if isinstance(s, IfCond)]
    chain = []
    guard = outer
    while isinstance(guard, IfCond):
        chain.append(guard.cond)
        guard = guard.body[0]
    expected = [
        Compare("<=", Name("ev_lineitem_l_discount"), Const(3)),
        Compare(">=", Name("ev_lineitem_l_discount"), Const(1)),
        Compare("<", Name("ev_lineitem_l_quantity"), Const(25)),
    ]
    assert chain == expected
    assert [g.cond for g in _guards(body) if g.cond in expected] == expected
    written = {s.slot.name for s in walk_stmts(body) if isinstance(s, AddTo)}
    assert written == {"q_q11_sum_0", "m3_lineitem"}


def test_a_member_takes_its_key_binding_along():
    """A statement reading a key local that a block between binds at its
    head (``share-locals`` binds it before its first reader) joins the
    guard: the binding moves up before the guard, the block keeps the
    rest.  A binding over a name the body binds stays, and so does the
    member."""
    key = Assign("__key1", KeyTuple((Name("x"),)))

    def keyed(slot: str) -> AddTo:
        return AddTo(Slot(slot), (Name("x"),), Name("x"), key_locals=(((0,), "__key1"),))

    body = _guarded(
        [
            _block("a", IfCond(POSITIVE, (_write("m1"),))),
            _block("b", key, keyed("m2")),
            _block("c", IfCond(POSITIVE, (keyed("m3"),))),
        ]
    )
    (guard,) = _guards(body)
    assert body[0] == key and body[1] == guard
    assert [s.comments for s in guard.body] == [("a",), ("c",)]
    assert body[2].comments == ("b",) and key not in body[2].stmts

    rebound = Assign("__key1", KeyTuple((Name("y"),)))
    body = _guarded(
        [
            Assign("y", Name("x")),
            _block("a", IfCond(POSITIVE, (_write("m1"),))),
            _block("b", rebound, keyed("m2")),
            _block("c", IfCond(POSITIVE, (keyed("m3"),))),
        ]
    )
    assert len(_guards(body)) == 2


def test_four_view_lineitem_runs_the_discount_chain_once():
    """In the four-view program the ``m3_lineitem`` write reads the key
    ``(orderkey,)`` that ``share-locals`` binds at the head of q21's
    block, after q11's guard chain: it takes the binding along, so a
    lineitem row tests ``discount <= 3`` once, per event and in a batch,
    and both writes sit under the one chain."""
    ir = lower_program(shipped_program("warehouse"))
    discount = Compare("<=", Name("ev_lineitem_l_discount"), Const(3))
    for trigger_ir in (ir.triggers, ir.batch_triggers):
        body = trigger_ir["lineitem", 0].body
        (guard,) = [g for g in _guards(body) if g.cond == discount]
    (guard,) = [
        g for g in _guards(ir.triggers["lineitem", 0].body) if g.cond == discount
    ]
    written = {s.slot.name for s in walk_stmts(guard.body) if isinstance(s, AddTo)}
    assert written == {"q_q11_sum_0", "m3_lineitem"}
