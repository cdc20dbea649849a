"""The main-memory delta engine (the DBToaster runtime).

``DeltaEngine`` owns the maintained maps and calls the trigger table an
*executor* bound to them.  An executor is a program compiled under one
:class:`~repro.compiler.program.ExecutorOptions` value — immutable, with
``layout``, ``source``, ``native_active``, ``native_note`` and
``bind(maps)``, which returns one relation's per-event
``(weight, *values)`` and ``*_batch`` ``(columns, weights)`` callables,
keyed by ``(relation, 0)`` — one trigger serves both signs:

* ``mode="compiled"`` — generated Python functions
  (:class:`repro.codegen.pygen.CompiledExecutor`), the reproduction of the
  paper's compiled C++ executors;
* ``mode="native"`` — the same functions over a C column kernel for the
  maps a trigger scans whole on every event
  (:class:`repro.codegen.native.NativeExecutor`; exactly the compiled
  lane without a toolchain);
* ``mode="interpreted"`` — the lowered trigger IR walked block by block
  (:class:`repro.ir.interp.InterpretedExecutor`), retaining exactly the
  interpretation overhead the paper's compilation eliminates (a baseline).

It is built **once per engine** and bound per map set: shard lanes, forked
workers (through ``fork``, like the program), deep copies and restored
engines re-``bind`` — nothing is rendered or ``compile()``d again.

The engine is *embeddable* (construct it in-process and call ``insert`` /
``delete``) and also serves standalone use via
:mod:`repro.runtime.sources` adapters.  A read-only view of the internal
maps supports ad-hoc client queries, per the paper's system model.

Events are accepted one at a time (:meth:`DeltaEngine.process`) or in
*batches* (:meth:`DeltaEngine.process_batch`): a batch is rows of one
relation, admitted, logged and routed once, and applied by one trigger
call — the generated ``*_batch`` trigger over its columns and weight
column, inserts and deletes mixed (or the per-event trigger for a single
row) — so the Python call per event is paid once per batch.
:meth:`DeltaEngine.process_stream` cuts a stream into windows and applies
each as one such batch per relation (stream-order runs for a program
whose maps are not all exact integers).  Per-event processing admits a
relation once: its first event takes the one-row batch path, and once its
admission is settled (the stream has started) :meth:`DeltaEngine.process`
keeps the relation's sign-indexed triggers —
or "skip" — in a route table, so every later event, and every one-row
:meth:`DeltaEngine.process_batch`, costs one dict probe and one trigger
call.  While batch listeners are attached a route's entries call the
trigger and then the listeners with the one-row batch.  A ``*_batch``
trigger is the per-event body in a row loop, its writes to accumulating
targets staged and merged once after the loop
(:func:`repro.ir.lower.lower_trigger_batch`), so it is exact across
signs: maps end as per event, insertion order included (see
``AddTo.acc``); only a FLOAT sum a batch groups otherwise may differ in
its last bits.

On top of the single engine, :class:`ShardedEngine` runs *sharded parallel*
delta processing: the compiler's partitioning analysis
(:func:`repro.compiler.partition.analyze_partitioning`) determines which
event column every map access of a trigger is keyed on, batches are
hash-routed by that column to N shard lanes (plus a serial lane for
non-partitionable triggers; a short run's rows go one by one to their
in-process lane's per-event trigger), and ``results()`` / ``map_view()``
merge the lane maps key-wise.  A lane is a :class:`_LocalLane` (a
:class:`DeltaEngine` in this process) or, with ``parallel=True``, a
:class:`_ProcessLane` (a forked worker running one, fed over a pipe, so
trigger execution overlaps across cores); supervision hooks into the pipe
lane's ``_post`` and ``_round_trip``, the two calls that can meet a dead
worker.  A long run of a relation whose batch trigger folds on its
partition column is folded once, by the router, and its groups are
routed instead of its rows.

Both — and :class:`~repro.runtime.durability.DurableEngine` — are layers
over one :class:`Engine` core: a layer supplies ``_process_batch``,
``current_maps`` and ``index_sizes``; the ingest surface, the derived
reads, the flush-path tap and the lifecycle are written once on the base,
and admission is the one :func:`admit` rule.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict, deque
from functools import partial
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import EventError, UnknownStreamError
from repro.compiler.partition import analyze_partitioning
from repro.compiler.program import CompiledProgram, ExecutorOptions, Trigger
from repro.compiler.storage import exact_int_maps
from repro.ir.interp import InterpretedExecutor, run_finalize
from repro.ir.lower import lower_for
from repro.runtime.events import (
    EventBatch,
    StreamEvent,
    _windows,
    batch_sign,
    columns_from_rows,
    partition_columns,
    partition_rows,
)
from repro.runtime.storage import RecordingDict, storage_class
from repro.runtime.views import (
    ScalarResult,
    _find_query,
    event_group_columns,
    query_results,
    result_map_names,
    result_rows_to_dicts,
)

#: Default window for ``process_stream``, in events: large enough to
#: amortise dispatch, small enough that regrouping an archived stream stays
#: O(window) in memory instead of buffering the whole stream.
DEFAULT_BATCH_SIZE = 1024

#: The longest run :class:`ShardedEngine` routes as rows.  Up to this
#: length an in-process lane gets each row as one call of its per-event
#: trigger (a forked lane, one ``partition_rows`` slice); a longer run is
#: cut into per-lane column gathers for the ``*_batch`` trigger.  The
#: batch body loses to per-row calls on short runs (bsp 1.2-2.1x, axf
#: ~4x slower up to 8 rows; see CHANGES.md for the table).
_ROW_ROUTE_THRESHOLD = 8

#: A :class:`ShardSupervisor`'s in-memory log re-bases onto a merged
#: checkpoint once it holds this many admitted batches, bounding both the
#: log and the replay a rebuilt lane pays.
_CHECKPOINT_EVERY = 64

#: :meth:`DeltaEngine.process`'s route for a relation no query reads: falsy,
#: unlike a relation's sign-indexed triggers, and not ``None`` (no route).
_SKIP = ()


def admit(engine, batch: EventBatch) -> Optional[Trigger]:
    """The one admission rule: may the rows of ``batch`` enter
    ``engine``, and which trigger runs them.

    Every row of a relation some query reads holds one value per column
    (the trigger's parameters): a short row would fail part-way through
    the batch, and a long one would bind the generated trigger's map
    defaults; a batch the engine logs is held to :func:`check_values`,
    which covers the width, since a replay runs it.  Static tables must
    be fully loaded before the first stream event — mixed static/stream
    maps carry no static-table triggers, which is only sound while all
    streams are empty — and only take inserts.  A relation no standing
    query reads raises in ``strict`` mode and is counted into
    ``events_skipped`` otherwise.  Returns the relation's trigger, which
    every sign runs, or ``None`` for a skipped relation, whose rows drop.

    ``sign`` is the batch's: ``+1``/``-1``, or a mixed batch's weight
    column, judged whole before any row applies: a static table refuses
    anything but ``+1`` (a weight column holds deletes) and a skipped
    relation counts every row.  A batch that passes goes to the log step
    (:attr:`Engine._log`) before any state moves or trigger runs.
    """
    program = engine.program
    relation = batch.relation
    trigger = _check_rows(engine, batch)
    log = engine._log
    static = relation in program.static_relations
    if static:
        _check_static(relation, batch.sign, engine._stream_started)
    if trigger is None and engine.strict:
        # Say what *would* have been accepted.
        known = program.relations
        raise UnknownStreamError(
            f"no standing query reads relation {relation!r}; "
            "known relations: " + (", ".join(known) if known else "(none)")
        )
    if log is not None:
        log(batch)
    if trigger is None:
        engine.events_skipped += batch._length
    elif not static:
        engine._stream_started = True
    return trigger


def _check_rows(engine, batch: EventBatch) -> Optional[Trigger]:
    """:func:`admit`'s row rule: ``batch``'s rows hold one value per
    column of the trigger that runs them, and every value fits its
    column when ``engine`` logs the batch (:func:`check_values`).
    Returns that trigger (``None`` when no query reads the relation)."""
    relation = batch.relation
    trigger = engine.program.triggers.get((relation, 0))
    if trigger is None:
        return None
    if engine._log is not None:
        long_run = batch._rows is None and batch._length > _ROW_ROUTE_THRESHOLD
        check_values(
            engine.program, relation,
            zip(*batch._columns) if long_run else batch.rows,
        )
        return trigger
    width = len(trigger.params)
    rows = batch._rows
    # A columnar batch is as wide as its tuple of columns.
    for row in (batch._columns,) if rows is None else rows:
        if len(row) != width:
            raise _width_error(relation, width, len(row))
    return trigger


def _check_static(relation: str, sign, started: bool) -> None:
    """The static-table rule: a static table takes only inserts, and
    only before the stream starts."""
    if started:
        raise EventError(
            f"static table {relation!r} cannot change after "
            "stream processing has started; declare it as a STREAM "
            "if it receives online updates"
        )
    if sign != 1:
        raise EventError(
            f"static table {relation!r} only supports bulk-load inserts"
        )


def _stream_windows(engine, events: Iterable, batch_size: Optional[int]):
    """The windows ``engine`` applies a stream in (see
    :func:`~repro.runtime.events.batches`): one batch per relation of
    each ``batch_size``-event window when every ring map of the program is
    an exact integer (:func:`~repro.compiler.storage.exact_int_maps`),
    else stream-order runs, so a FLOAT sum adds in the stream's order at
    every batch size.  A window is judged by :func:`admit`'s row and
    static-table rules whole before it is yielded, in its batches' order:
    a row of the wrong width (or, on a logged engine, a value its column
    cannot take) in any batch, or a static table's rows after the
    window's first stream batch, raise ``EventError`` before any of the
    window is logged or applies.
    """
    program = engine.program
    exact = exact_int_maps(program)
    regroup = all(
        name in exact
        for name, map_def in program.maps.items()
        if map_def.role != "auxiliary"
    )
    static = program.static_relations
    for window in _windows(events, batch_size, regroup):
        if len(window) > 1:
            started = engine._stream_started
            for index, batch in enumerate(window):
                # admit checks the first batch's rows before it is logged.
                if index:
                    _check_rows(engine, batch)
                if batch.relation in static:
                    _check_static(batch.relation, batch.sign, started)
                elif (batch.relation, 0) in program.triggers:
                    started = True
        yield window


def check_values(program: CompiledProgram, relation: str, rows) -> None:
    """The value-type rule: every one of ``rows`` passes ``relation``'s
    :attr:`~repro.compiler.program.CompiledProgram.misfits`, or an
    :class:`~repro.errors.EventError` names the relation and the column
    (or the width)."""
    misfit = program.misfits.get(relation)
    row = None if misfit is None else misfit(rows)
    if row is None:
        return
    declared = program.columns[relation]
    if len(row) != len(declared):
        raise _width_error(relation, len(declared), len(row))
    column, value = next(
        (column, value) for column, value in zip(declared, row)
        if type(value) not in column.type.python_types
    )
    raise EventError(
        f"relation {relation!r} column {column.name!r} is "
        f"{column.type.name}; got {value!r}"
    )


#: The snapshot of an engine no batch reached.
EMPTY_STATE = MappingProxyType(dict(
    maps=MappingProxyType({}), events_processed=0, events_skipped=0,
    stream_started=False,
))


def engine_state(engine) -> dict:
    """The one snapshot shape, which ``restore_state`` reads whole: the
    maps as plain dicts (kernel maps restore into a dict engine and vice
    versa), the two counters and whether the stream has started."""
    return {
        "maps": {name: dict(rows) for name, rows in engine.current_maps().items()},
        "events_processed": engine.events_processed,
        "events_skipped": engine.events_skipped,
        "stream_started": engine._stream_started,
    }


def _width_error(relation: str, width: int, got: int) -> EventError:
    return EventError(
        f"relation {relation!r} has {width} columns; got a row of {got} values"
    )


def _build_executor(program: CompiledProgram, options: ExecutorOptions):
    """The executor for ``options.mode`` — built once per engine, shared
    by every lane; its ``layout`` is what the maps are created from."""
    if options.mode == "interpreted":
        return InterpretedExecutor(program, options)
    if options.mode == "compiled":
        from repro.codegen.pygen import CompiledExecutor as executor
    else:
        from repro.codegen.native import NativeExecutor as executor
    return executor(program, options)


class Engine(ScalarResult):
    """The engine core: everything the single, sharded and durable
    engines share, written once.

    A concrete engine supplies three primitives — ``_process_batch(batch)``
    (apply one :class:`EventBatch`), ``current_maps()`` (the
    maintained maps as of now) and ``index_sizes()`` — and inherits the
    ingest surface, the derived reads, the flush-path tap and the
    lifecycle from here.  The layers differ only in what their
    ``_process_batch`` does: :class:`DeltaEngine` runs the trigger,
    :class:`ShardedEngine` routes to lanes,
    :class:`~repro.runtime.durability.DurableEngine` applies through the
    engine it wraps, whose log step it supplies.
    """

    #: The log step :func:`admit` hands every batch it passes: a wrapping
    #: :class:`~repro.runtime.durability.DurableEngine`'s WAL append (the
    #: durable engine carries it too), or a supervised
    #: :class:`ShardedEngine`'s journal (:meth:`ShardSupervisor.log`).
    _log: Optional[Callable[[EventBatch], None]] = None

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program
        # The flush-path delta tap (see repro.runtime.serving): listeners
        # observe every batch that reached a trigger, stamped with a
        # monotonic LSN (:meth:`tap_lsn`).
        self._batch_listeners: list = []
        self._tap_clock = 0

    def _init_admission(self, strict: bool) -> None:
        """The state :func:`admit` reads and advances (the durable engine
        has none of its own: it admits against the engine it wraps)."""
        self.strict = strict
        self._stream_started = False
        self.events_skipped = 0

    # -- event processing -------------------------------------------------

    def process(self, event: StreamEvent) -> None:
        """Apply one insert/delete event (a one-row batch)."""
        self._process_batch(
            EventBatch(event.relation, event.sign, [event.values])
        )

    def process_batch(self, relation: str, sign, rows: Sequence[Sequence]) -> int:
        """Apply a run of rows of one relation as one batch.

        ``sign`` is ``+1``/``-1`` for a run of inserts/deletes, or the
        per-row weight column (a list of ``+1``/``-1``) of a mixed run.
        Semantically identical to ``process``-ing each row in order, but
        the Python call per event (and the tap, when one is attached) is
        paid once per run; a multi-row run is transposed into the columnar
        batch layout and run through the ``*_batch`` trigger with its
        weight column.

        Returns the number of rows that reached a trigger (0 when the
        relation is unsubscribed and the rows were skipped).
        """
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return 0
        return self._process_batch(EventBatch(relation, sign, rows))

    def process_batch_columns(
        self, relation: str, sign, columns: Sequence[Sequence]
    ) -> int:
        """Apply one *columnar* batch (parallel per-column lists; ``sign``
        as for :meth:`process_batch`).

        The native batch entry point — :class:`EventBatch` storage flows
        here without any row materialisation; in compiled mode the
        generated ``*_batch`` trigger iterates exactly the column lists its
        body reads.
        """
        return self._process_batch(
            EventBatch.from_columns(relation, sign, columns)
        )

    def process_stream(
        self, events: Iterable, batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    ) -> int:
        """Apply a sequence of events (update pairs are flattened).

        The stream is cut into windows of ``batch_size`` events (default
        ``DEFAULT_BATCH_SIZE``, keeping memory bounded on endless feeds;
        ``None`` makes the whole stream one window — only safe for finite
        streams), and each window is applied as one batch per relation,
        inserts and deletes together (:func:`_stream_windows`): a one-row
        batch takes the per-event trigger directly, a longer one the
        columnar ``*_batch`` trigger.  A program with a map that is not an
        exact integer (a FLOAT sum) takes stream-order runs of at most
        ``batch_size`` events instead, so its sums add in the stream's
        order at every batch size.

        Returns the number of events *consumed from the stream*, which
        includes events the engine skipped because no standing query reads
        their relation — see ``events_processed`` / ``events_skipped`` for
        the split.
        """
        count = 0
        for window in _stream_windows(self, events, batch_size):
            for batch in window:
                self._process_batch(batch)
                count += len(batch)
        return count

    def insert(self, relation: str, *values) -> None:
        """Apply one hand-typed insert; a value its column cannot take
        raises :class:`~repro.errors.EventError` before any write (a log
        step checks the values itself)."""
        if self._log is None:
            check_values(self.program, relation, (values,))
        self.process(StreamEvent(relation, 1, values))

    def delete(self, relation: str, *values) -> None:
        """Apply one hand-typed delete, checked as :meth:`insert` is."""
        if self._log is None:
            check_values(self.program, relation, (values,))
        self.process(StreamEvent(relation, -1, values))

    def load(self, relation: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load a (static) table through the batch path.

        Returns the number of rows consumed (like :meth:`process_stream`,
        rows for unsubscribed relations count even though they are skipped).
        """
        rows = [tuple(row) for row in rows]
        self.process_batch(relation, 1, rows)
        return len(rows)

    # -- the flush-path tap -------------------------------------------------

    def add_batch_listener(self, listener) -> None:
        """Register a flush-path tap: ``listener(lsn, batch)`` runs after
        every batch that reached a trigger (skipped relations never fire).
        LSNs are monotonic; a :class:`~repro.runtime.durability.DurableEngine`
        substitutes the WAL LSN of the logged batch.  Sharded routing is
        fire-and-forget, so a listener that reads state must go through
        the synchronising reads (``results`` / ``current_maps``)."""
        self._batch_listeners.append(listener)

    def remove_batch_listener(self, listener) -> None:
        self._batch_listeners.remove(listener)

    def tap_lsn(self) -> int:
        """The LSN of the last batch the tap stamped (the WAL tip on a
        durable engine) — where a tap attached now starts counting."""
        return self._tap_clock

    def _notify_listeners(self, batch: EventBatch) -> None:
        """Fire the flush-path tap: the batch just applied, LSN-stamped.

        Listener errors propagate — a tap that cannot keep up (or raises)
        must surface to the caller rather than silently drop deltas.
        """
        self._tap_clock += 1
        lsn = self.tap_lsn()
        try:
            for listener in list(self._batch_listeners):
                listener(lsn, batch)
        except BaseException:
            self._unshown()  # the listeners after it never saw the batch
            raise

    def _unshown(self) -> None:
        """The maps changed in a way no listener was shown (a batch or a
        listener raised, a restore): an event-keyed watch
        (:meth:`watch_results`) must look at its views whole once.  Here
        there are no watches."""

    def watch_results(self, views: Iterable[str]) -> dict[str, tuple]:
        """Start noting which groups batches write, for a delta tap.
        Returns ``{view: (touched, columns)}`` for the views this engine
        can say that about; a view left out (here: all of them — the
        maps live in lanes, or nowhere in particular) has to be looked
        at whole.

        ``columns`` is ``None`` for a *recorded* view: the engine adds
        every written key of its result maps to ``touched``, a set the
        caller reads and clears.  For an *event-keyed* view it is
        :func:`~repro.runtime.views.event_group_columns`'s ``{relation:
        positions}``: the caller reads the written groups off each
        batch's rows, and ``touched`` is only non-empty after a write no
        batch shows (:meth:`_unshown`), when the view must be looked at
        whole."""
        return {}

    def unwatch_results(self, watch: dict[str, tuple]) -> None:
        """Release a watch :meth:`watch_results` returned."""

    # -- results ------------------------------------------------------------

    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        """Current rows of a standing query."""
        return query_results(self.program, self.current_maps(), query_name)

    def results_dict(self, query_name: Optional[str] = None) -> list[dict]:
        """Current rows of a standing query, keyed by output column."""
        query = _find_query(self.program, query_name)
        return result_rows_to_dicts(query, self.results(query.name))

    # -- introspection (the read-only client interface) --------------------

    def map_view(self, name: str) -> Mapping:
        """Read-only view of one internal map, for ad-hoc client queries."""
        return MappingProxyType(self.current_maps()[name])

    def map_sizes(self) -> dict[str, int]:
        """Entries per map (:meth:`index_sizes` counts the secondary-index
        entries beside them)."""
        return {
            name: len(contents) for name, contents in self.current_maps().items()
        }

    def total_entries(self) -> int:
        return sum(self.map_sizes().values())

    # -- lifecycle ----------------------------------------------------------

    def sync(self) -> None:
        """Barrier: everything accepted so far is applied (and, on a
        durable engine, on disk).  Nothing to wait for on a single
        in-process engine."""

    def close(self) -> None:
        """Release what the engine holds (idempotent).  A single
        in-process engine holds nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


class DeltaEngine(Engine):
    """A standing-query engine over a compiled delta program.

    The engine owns one storage object per maintained map and dispatches
    stream events to the trigger executor (generated Python functions in
    ``mode="compiled"``, the IR tree-walker in ``mode="interpreted"``).
    Typical embedded use::

        engine = DeltaEngine(compile_sql(query, catalog))
        engine.insert("bids", 1, 7, 100, 50)   # one event
        engine.process_stream(events)           # a whole (batched) feed
        engine.results()                        # current standing rows

    Map storage follows the one layout decision
    (:func:`repro.compiler.storage.storage_layout`, taken by the
    executor): every map is a plain ``dict`` under the Python executors;
    ``mode="native"`` hands the maps its triggers scan whole to the C
    kernel.  Contents are bit-identical whatever the layout;
    :meth:`storage_classes` reports what each map is right now.
    """

    def __init__(
        self,
        program: CompiledProgram,
        mode: str = "compiled",
        strict: bool = False,
        use_indexes: bool = True,
        optimize: bool = True,
    ) -> None:
        """``strict=True`` raises on events for relations no standing query
        reads; the default silently skips them (a feed usually carries more
        streams than one query subscribes to).  ``use_indexes=False``
        disables secondary-index generation in compiled mode (the
        access-pattern ablation); ``optimize=False`` disables the IR
        optimisation pipeline in both modes (the loop-optimisation
        ablation, also the bench harness's ``--no-opt``)."""
        options = ExecutorOptions(mode, use_indexes, optimize)
        self._attach(_build_executor(program, options), strict)

    def _attach(
        self, executor, strict: bool, maps: Optional[dict[str, dict]] = None
    ) -> None:
        """Become an engine over ``executor`` (shared, immutable) with
        maps of its own: fresh from the executor's layout, or ``maps``."""
        super().__init__(executor.program)
        self._init_admission(strict)
        self._executor = executor
        self.maps: dict[str, dict] = (
            executor.layout.create_maps() if maps is None else maps
        )
        self._bind()
        self._watches: list[dict[str, tuple]] = []
        self.events_processed = 0

    def _bind(self) -> None:
        """Bind the executor to ``self.maps``, and each relation's trigger
        to either sign for the per-event path, indexed by the sign
        (``signed[relation][sign]``): ``partial`` prepends the weight in
        C, where ``trigger(sign, *values)`` builds a tuple.  Entry 0 is
        the relation's width, which a route checks each row against.  The
        routes held the old triggers, so they go too."""
        self._triggers = self._executor.bind(self.maps)
        self._signed = {
            relation: (
                len(self.program.trigger_for(relation).params),
                partial(trigger, 1),
                partial(trigger, -1),
            )
            for (relation, _), trigger in self._triggers.per_event.items()
        }
        # Admission settled per relation (:meth:`_route` fills it).
        self._routes: dict = {}

    def __deepcopy__(self, memo: dict) -> "DeltaEngine":
        """Snapshot support (used by the benchmark harness).

        The bound triggers close over the map objects, so a naive
        deepcopy would leave the copied engine's triggers writing to the
        *original* maps; instead the copy binds the shared executor to
        copied maps (the immutable program and executor are shared —
        nothing is rendered or compiled).
        """
        clone = type(self).__new__(type(self))  # a copied lane stays a lane
        clone._attach(
            self._executor,
            self.strict,
            maps={
                # dict.copy / ColumnarMap.copy both preserve the storage
                # layout and insertion order of the snapshot.
                name: contents.copy()
                for name, contents in self.maps.items()
            },
        )
        clone.events_processed = self.events_processed
        clone.events_skipped = self.events_skipped
        clone._stream_started = self._stream_started
        memo[id(self)] = clone
        return clone

    # -- event processing -------------------------------------------------

    def process(self, event: StreamEvent) -> None:
        """Apply one insert/delete event.

        A relation with a route costs one dict probe and a call of the
        route's entry for the sign (or a skip count); any other takes the
        generic one-row batch path — :func:`admit`, :meth:`_apply`, the
        tap — and gets a route once its admission is settled
        (:meth:`_route`).
        """
        route = self._routes.get(event.relation)
        if route:
            values = event.values
            if len(values) != route[0]:
                raise _width_error(event.relation, route[0], len(values))
            route[event.sign](*values)
            self.events_processed += 1
        elif route is None:
            super().process(event)
            self._route(event.relation)
        else:
            self.events_skipped += 1

    def process_batch(self, relation: str, sign, rows: Sequence[Sequence]) -> int:
        """See :meth:`Engine.process_batch`.  One row in a ``list`` with
        the ``int`` sign ``1`` or ``-1`` takes :meth:`process`'s route;
        only such a sign may index it (a route's ``[-2]`` is the insert
        trigger, its ``[0]`` the width).  Anything else takes the batch
        path, and a relation with no route gets one once the batch
        settled its admission."""
        route = self._routes.get(relation)
        if (
            route is not None
            and type(sign) is int
            and (sign == 1 or sign == -1)
            and type(rows) is list
            and len(rows) == 1
        ):
            if route:
                row = rows[0]
                if len(row) != route[0]:
                    raise _width_error(relation, route[0], len(row))
                route[sign](*row)
                self.events_processed += 1
                return 1
            self.events_skipped += 1
            return 0
        count = super().process_batch(relation, sign, rows)
        if route is None:
            self._route(relation)
        return count

    def _route(self, relation: str) -> None:
        """Cache the admission of ``relation``, whose event just passed
        :func:`admit`, for :meth:`process`: its sign-indexed entries, or
        :data:`_SKIP` when no query reads it (a strict engine raised
        instead).  Admission is settled by then — the event started the
        stream, or no query reads the relation and the stream never
        matters — except for a static table, which takes no deletes and
        gets no route.  An entry is the bound trigger, or, while batch
        listeners are attached, :meth:`_observed`'s; :meth:`_bind` drops
        the table and attaching or removing a listener rebuilds it."""
        signed = self._signed.get(relation)
        if signed is None:
            self._routes[relation] = _SKIP
        elif relation not in self.program.static_relations:
            self._routes[relation] = (
                self._observed(relation, signed)
                if self._batch_listeners
                else signed
            )

    def _observed(self, relation: str, signed: tuple) -> tuple:
        """The route entries of an observed relation: the bound trigger,
        then the listeners with the one-row batch — no :func:`admit`, no
        :meth:`_apply` — and :meth:`_unshown` when the trigger raised
        (it may have written part of the event).  (The caller counts the
        event after its entry returned, so a listener sees it not yet in
        ``events_processed``.)"""
        notify = self._notify_listeners
        unshown = self._unshown
        adopt = EventBatch._adopt

        def entry(sign: int) -> Callable[..., None]:
            trigger = signed[sign]

            def observed(*values) -> None:
                try:
                    trigger(*values)
                except BaseException:
                    unshown()
                    raise
                notify(adopt(relation, sign, [values]))

            return observed

        return (signed[0], entry(1), entry(-1))

    def add_batch_listener(self, listener) -> None:
        super().add_batch_listener(listener)
        self._reroute()

    def remove_batch_listener(self, listener) -> None:
        super().remove_batch_listener(listener)
        self._reroute()

    def _reroute(self) -> None:
        """Rebuild every route's entries for the listeners attached now."""
        for relation in list(self._routes):
            self._route(relation)

    def _process_batch(self, batch: EventBatch) -> int:
        """Admit one batch, log it (:attr:`_log`), apply it
        (:meth:`_apply`) and fire the tap."""
        count = batch._length
        if not count:
            return 0
        relation, sign = batch.relation, batch.sign
        if admit(self, batch) is None:
            return 0
        try:
            applied = self._apply(relation, sign, batch._rows, batch._columns)
        except BaseException:
            self._unshown()  # the trigger may have written part of it
            raise
        if self._batch_listeners:
            self._notify_listeners(batch)
        return applied

    def _apply(self, relation: str, sign, rows, columns) -> int:
        """Run admitted rows through the relation's trigger; returns how
        many reached it.  ``rows`` (row tuples) or ``columns`` (per-column
        lists) carries them — whichever is not ``None``, both when both
        are at hand — and ``sign`` is their sign or weight column.

        One row takes the per-event trigger (no loop setup, no transpose,
        and a second-order flush would restate whole maps for one row's
        change); more take the columnar ``*_batch`` trigger with the
        weight column, in one call whatever the signs.
        """
        if rows is not None and len(rows) <= 1:
            if not rows:
                return 0
            self._signed[relation][sign](*rows[0])  # one row: one sign
            count = 1
        else:
            if columns is None:
                columns = columns_from_rows(rows)
            count = len(columns[0]) if columns else len(rows)
            if count == 1:
                self._signed[relation][sign](*[column[0] for column in columns])
            else:
                weights = sign if isinstance(sign, list) else [sign] * count
                self._triggers.batch[relation, 0](columns, weights)
        self.events_processed += count
        return count

    # -- result watches ---------------------------------------------------

    def watch_results(self, views: Iterable[str]) -> dict[str, tuple]:
        """See :meth:`Engine.watch_results`.  A view can be watched when
        every one of its result maps is a ``dict`` right now (a kernel-held
        map cannot record its writes).  It is event-keyed
        when :func:`~repro.runtime.views.event_group_columns` finds every
        written group on the rows of the IR the executor runs, and its
        maps stay as they are.  The maps of a recorded view become
        :class:`~repro.runtime.storage.RecordingDict` objects and the
        shared executor is bound to them — nothing is rendered or
        compiled, and references to the replaced map objects (an earlier
        ``map_view``) go stale."""
        ir = lower_for(self.program, self._executor.options)
        watch = {
            view: (set(), event_group_columns(ir, self.program, view))
            for view in views
            if all(
                isinstance(self.maps[name], dict)
                for name in result_map_names(self.program, view)
            )
        }
        self._watches.append(watch)
        self._apply_watches()
        return watch

    def unwatch_results(self, watch: dict[str, tuple]) -> None:
        """Stop recording into ``watch``; with the last watch on a map
        gone it is a plain ``dict`` again."""
        self._watches = [held for held in self._watches if held is not watch]
        self._apply_watches()

    def _apply_watches(self) -> None:
        """Make the maps what ``_watches`` asks for: a map some recorded
        view reads records into those views' touched sets, every other
        map is plain; re-bind when a map object was swapped (and tell
        the event-keyed watches, whose renderers may read the old one)."""
        sinks: dict[str, list[set]] = defaultdict(list)
        for watch in self._watches:
            for view, (touched, columns) in watch.items():
                if columns is None:
                    for name in result_map_names(self.program, view):
                        sinks[name].append(touched)
        swapped = False
        for name, contents in self.maps.items():
            recording = type(contents) is RecordingDict
            if name in sinks:
                if recording:
                    contents.record_into(sinks[name])
                else:
                    self.maps[name] = RecordingDict(contents, sinks[name])
            elif recording:
                self.maps[name] = dict(contents)
            swapped = swapped or self.maps[name] is not contents
        if swapped:
            self._bind()
            self._unshown()

    def _unshown(self) -> None:
        """See :meth:`Engine._unshown`: mark every event-keyed watch (its
        ``touched`` set gets ``None``)."""
        for watch in self._watches:
            for touched, columns in watch.values():
                if columns is not None:
                    touched.add(None)

    # -- durability ---------------------------------------------------------

    def restore_state(self, snapshot: Mapping) -> None:
        """Replace the engine's state with a snapshot (:func:`engine_state`).

        Maps are updated *in place*, then the executor is bound to them
        again so secondary indexes are rebuilt over the restored contents
        (an ``exec`` of the kept code object — nothing is rendered or
        compiled).
        """
        maps = snapshot["maps"]
        unknown = set(maps) - set(self.maps)
        if unknown:
            raise EventError(
                f"cannot restore unknown maps {sorted(unknown)}; this "
                f"program maintains: {sorted(self.maps)}"
            )
        for name, target in self.maps.items():
            target.clear()
            contents = maps.get(name)
            if contents:
                target.update(contents)
        self._bind()
        self._unshown()
        self.events_processed = snapshot["events_processed"]
        self.events_skipped = snapshot["events_skipped"]
        self._stream_started = snapshot["stream_started"]

    # -- results ------------------------------------------------------------

    def current_maps(self) -> dict[str, dict]:
        return self.maps

    # Defined here, not inherited: the ledger times this call by patching
    # ``vars(DeltaEngine)["results"]``.
    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        """Current rows of a standing query."""
        return query_results(self.program, self.maps, query_name)

    # -- introspection (the read-only client interface) --------------------

    @property
    def native_active(self) -> bool:
        """True when the C column kernel is loaded and attached
        (``mode="native"`` with a working toolchain)."""
        return self._executor.native_active

    @property
    def native_note(self) -> Optional[str]:
        """The toolchain probe result the native lane ran under (or the
        fallback reason); ``None`` outside ``mode="native"``."""
        return self._executor.native_note

    def storage_classes(self) -> dict[str, str]:
        """What each map is stored as *right now*, read from the live
        objects: ``dict``, ``kernel``, ``recording`` (a result map a delta
        tap watches), or — after a mid-stream degrade — ``ejected`` (a
        kernel map back in pure packed columns) / ``spilled`` (an ejected
        map fallen back to a dict)."""
        kernel_maps = self._executor.layout.kernel_maps
        classes = {}
        for name, contents in self.maps.items():
            current = storage_class(contents)
            if current == "packed" and name in kernel_maps:
                current = "ejected"
            classes[name] = current
        return classes

    def index_sizes(self) -> dict[str, int]:
        """Secondary-index entries currently held, per indexed map.

        Compiled mode maintains one index dict per access pattern; their
        entries are real memory the plain ``map_sizes`` view does not show.
        Interpreted mode (and ``use_indexes=False``) holds none.
        """
        return self._triggers.index_entry_counts()


# ---------------------------------------------------------------------------
# Sharded parallel delta processing
# ---------------------------------------------------------------------------


class _LocalLane(DeltaEngine):
    """An in-process shard lane — also the serial lane, and what a forked
    worker runs: a :class:`DeltaEngine` that takes lane messages.

    The lane interface the router talks to is the engine surface itself
    (``sync``, ``events_processed``, ``current_maps``, ``index_sizes``,
    ``restore_state``, ``close``) plus two messages: ``send(relation,
    sign, rows, columns)`` — one slice of rows the router admitted, as
    row tuples or per-column lists — and ``send_groups(relation, keys,
    entries)`` — the slice of a long run the router folded
    (:attr:`~repro.compiler.program.TriggerTable.folds`), one entry
    ``[sums..., rows]`` per group key.  Lanes never admit: admission is
    enforced once, globally, by the router, so a local lane's ``send``
    *is* :meth:`DeltaEngine._apply` — the bound triggers run directly —
    its ``send_groups`` runs the trigger's group body and counts the rows
    the entries stand for, and a short run's rows reach its ``_signed``
    per-event triggers with no message at all.
    """

    def __init__(self, executor) -> None:
        self._attach(executor, strict=False)

    send = DeltaEngine._apply

    def send_groups(self, relation: str, keys: list, entries: list) -> None:
        # The group body returns the rows its groups stand for.
        self.events_processed += self._triggers.groups[relation, 0](
            zip(keys, entries)
        )


def _shard_worker_main(conn, executor) -> None:
    """One shard worker: a private :class:`_LocalLane` fed over a pipe,
    bound to the coordinator's executor (inherited through ``fork``).

    Batches apply fire-and-forget; the first trigger failure is
    remembered and surfaced on the next ``sync``/``collect`` round-trip
    (subsequent batches are dropped, as the shard state is no longer
    trustworthy).
    """
    engine = _LocalLane(executor)
    failure = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        if op in ("apply", "groups"):
            if failure is None:
                try:
                    if op == "apply":
                        engine.send(*message[1:])
                    else:
                        engine.send_groups(*message[1:])
                except Exception as exc:  # surfaced on the next sync
                    failure = f"{type(exc).__name__}: {exc}"
        elif op in ("sync", "collect", "stats") and failure is not None:
            conn.send(("error", failure))
        elif op == "sync":
            conn.send(("ok", engine.events_processed))
        elif op == "collect":
            conn.send(("maps", engine.maps, engine.events_processed))
        elif op == "stats":
            conn.send(
                ("stats", engine.index_sizes(), engine.storage_classes())
            )
        elif op == "restore":
            # Snapshot recovery scatters a state slice into this lane; a
            # successful restore also clears any remembered failure — the
            # lane state is authoritative again.
            try:
                engine.restore_state(message[1])
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
                conn.send(("error", failure))
            else:
                failure = None
                conn.send(("ok", None))
        else:  # "stop"
            break
    conn.close()


class _BatchReplayed(Exception):
    """Internal control flow: a supervised rebuild replayed the in-flight
    batch with the rest of the log (it was logged before it was routed),
    so the router must not send its remaining lane slices."""


class _ProcessLane:
    """Coordinator-side handle of one forked shard worker: the lane
    interface over a pipe, written in terms of :meth:`_post` (both lane
    messages) and :meth:`_round_trip` — the two operations that can meet
    a dead worker.

    Unsupervised, both raise the dead-worker
    :class:`~repro.errors.EventError`.  With a ``supervisor`` they hand
    the death to :meth:`ShardSupervisor._recover` (respawn + rebuild)
    and carry on, so the router sees a lane that merely answered late.
    """

    #: Seconds between liveness checks while waiting on a worker reply.  A
    #: healthy worker replies as soon as it drains its queued batches, so
    #: the poll loop only spins when the pipe is genuinely idle.
    _POLL_INTERVAL = 0.2

    def __init__(
        self,
        ctx,
        executor,
        index: int = 0,
        supervisor: Optional["ShardSupervisor"] = None,
    ) -> None:
        self.index = index
        self.supervisor = supervisor
        self._ctx = ctx
        self._executor = executor
        self._spawn()

    def _spawn(self) -> None:
        self._conn, child = self._ctx.Pipe()
        self._proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child, self._executor),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def respawn(self) -> None:
        """Swap the (dead) worker for a fresh fork with empty maps; its
        state is the supervisor's to rebuild."""
        try:
            self.close()
        except Exception:
            pass
        self._spawn()

    def _guard(self) -> Optional["ShardSupervisor"]:
        """The supervisor, when it is to act on this lane's operations:
        not on an unsupervised lane, and not mid-rebuild — a rebuild's own
        restore and replay run raw, so a second death there propagates."""
        supervisor = self.supervisor
        if supervisor is None or supervisor._rebuilding:
            return None
        return supervisor

    def send(self, relation: str, sign, rows, columns) -> None:
        """Queue one lane slice (see :class:`_LocalLane`)."""
        self._post(("apply", relation, sign, rows, columns))

    def send_groups(self, relation: str, keys: list, entries: list) -> None:
        """Queue one slice of folded groups (see :class:`_LocalLane`)."""
        self._post(("groups", relation, keys, entries))

    def _post(self, message: tuple) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            error = self._dead_worker_error()
            supervisor = self._guard()
            if supervisor is None:
                raise error from exc
            supervisor._recover(self, error)
            # The rebuild replayed the whole in-flight batch, every lane's
            # slice: abort the router's remaining sends.
            raise _BatchReplayed() from None

    def _round_trip(self, request: tuple, retry: bool = True) -> tuple:
        """Send one request and wait for its reply, watching for death.

        A worker killed mid-operation (OOM, SIGKILL, crash) can leave the
        pipe open-but-silent, so a bare ``recv()`` would hang forever.
        Instead the wait polls the pipe and checks the process between
        polls: a reply already in flight when the worker dies is still
        delivered (poll is checked first), and a dead worker with an empty
        pipe raises a clear :class:`~repro.errors.EventError` naming the
        shard and how it exited — or, supervised, is rebuilt and asked
        once more.
        """
        try:
            self._conn.send(request)
            while not self._conn.poll(self._POLL_INTERVAL):
                if not self._proc.is_alive():
                    raise EOFError("worker exited with the pipe idle")
            reply = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            error = self._dead_worker_error()
            supervisor = self._guard() if retry else None
            if supervisor is None:
                raise error from exc
            supervisor._recover(self, error)
            return self._round_trip(request, retry=False)
        if reply[0] == "error":
            # A trigger failure, not a death: the worker is alive and
            # answering, and restarting it would only mask the bug.
            raise EventError(
                f"shard worker {self.index} failed: {reply[1]}"
            )
        return reply

    def _dead_worker_error(self) -> EventError:
        exitcode, pid = None, "?"
        if self._proc is not None:
            exitcode, pid = self._proc.exitcode, self._proc.pid
        if exitcode is None:
            how = "exit status unknown"
        elif exitcode < 0:
            try:
                name = signal.Signals(-exitcode).name
            except ValueError:
                name = f"signal {-exitcode}"
            how = f"killed by {name}"
        else:
            how = f"exit code {exitcode}"
        return EventError(
            f"shard worker {self.index} (pid {pid}) died "
            f"mid-operation ({how}); its lane state is lost — rebuild the "
            "engine, or recover from a durable directory"
        )

    def sync(self) -> None:
        self._round_trip(("sync",))

    @property
    def events_processed(self) -> int:
        return self._round_trip(("sync",))[1]

    def current_maps(self) -> dict[str, dict]:
        return self._round_trip(("collect",))[1]

    def index_sizes(self) -> dict[str, int]:
        return self._round_trip(("stats",))[1]

    def storage_classes(self) -> dict[str, str]:
        return self._round_trip(("stats",))[2]

    def restore_state(self, snapshot: dict) -> None:
        self._round_trip(("restore", snapshot))

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            self._conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5)
        self._conn.close()
        self._proc = None


class ShardSupervisor:
    """Respawns dead shard workers and rebuilds the engine's state.

    Without supervision a forked worker that dies (OOM kill, crash,
    SIGKILL) permanently poisons its :class:`ShardedEngine`: every later
    operation raises the dead-worker :class:`~repro.errors.EventError`.
    Under a supervisor (``ShardedEngine(..., parallel=True,
    supervise=True)``) a :class:`_ProcessLane` that meets a dead worker
    calls :meth:`_recover` instead, and the interrupted operation resumes
    — the stream sees one identical delta sequence, just delivered later.

    A lost lane is rebuilt the way a crash is recovered, since a
    maintained view is a function of the update stream's prefix: respawn
    every dead worker, reset every lane from a whole-engine snapshot
    (:meth:`ShardedEngine.restore_state`) and replay the batches logged
    since through the recovery loop
    (:func:`~repro.runtime.durability.restore_and_replay`).  Only the
    log's source differs, and ``recoveries[i]["mode"]`` names it:

    * ``"journal"`` (a plain sharded engine) — the in-memory log its log
      step (:meth:`log`) keeps: a merged-state checkpoint taken every
      :data:`_CHECKPOINT_EVERY` logged batches, and a copy of each since.
    * ``"durable"`` (a :class:`~repro.runtime.durability.DurableEngine`
      wrapping this engine) — the snapshot store plus the WAL, which the
      durable engine's :meth:`~repro.runtime.durability.DurableEngine.read_log`
      reads, installed as :attr:`source` before it replays its
      directory, so no batch is ever held in memory.

    Either log holds the batch in flight, so the replay applies it in
    full and the router sends no more of its slices.  Restarts are
    budgeted: more than ``max_restarts`` inside a sliding ``window``
    (seconds) re-raises the loud dead-worker error — a crash loop should
    page an operator, not spin silently.  Only *death* is supervised; a
    worker that answers ``("error", ...)`` (a trigger failure) raises
    immediately, restarting would just mask the bug.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        max_restarts: int = 3,
        window: float = 60.0,
    ) -> None:
        if max_restarts < 1:
            raise EventError(
                f"supervisor max_restarts must be >= 1, got {max_restarts!r}"
            )
        if window <= 0:
            raise EventError(
                f"supervisor window must be positive, got {window!r}"
            )
        self.engine = engine
        self.max_restarts = max_restarts
        self.window = window
        self.restarts = 0
        self.last_recovery_seconds: Optional[float] = None
        #: One entry per rebuild: the lane that met the death, the log's
        #: source, number of batches replayed, wall-clock seconds.
        self.recoveries: list[dict] = []
        #: The durable log: a callable returning ``(snapshot, frames)``;
        #: ``None`` rebuilds from the in-memory log below.
        self.source: Optional[Callable[[], tuple]] = None
        self._restart_times: deque = deque()
        self._rebuilding = False
        # The in-memory log: a snapshot-shaped checkpoint (the empty state
        # until the first one) and the ``(lsn, relation, sign, columns)``
        # frames of every batch logged since.
        self._snapshot: dict = dict(EMPTY_STATE)
        self._frames: list = []

    def log(self, batch: EventBatch) -> None:
        """The journal's log step (:attr:`Engine._log`): copy a batch,
        unless it is skipped (its count is live)."""
        if (batch.relation, 0) not in self.engine.program.triggers:
            return
        if len(self._frames) >= _CHECKPOINT_EVERY:
            self.rebase(engine_state(self.engine))
        sign = batch.sign  # copied with the columns: a caller may reuse its lists
        self._frames.append((
            len(self._frames) + 1, batch.relation,
            list(sign) if isinstance(sign, list) else sign,
            tuple(map(list, batch.columns)),
        ))

    def rebase(self, snapshot: Mapping) -> None:
        """Adopt ``snapshot`` (merged maps; copied here) as the in-memory
        log's checkpoint: everything logged before it is moot."""
        self._snapshot = dict(snapshot, maps={
            name: dict(contents) for name, contents in snapshot["maps"].items()
        })
        self._frames = []

    def _recover(self, lane: _ProcessLane, cause: EventError) -> None:
        """Respawn ``lane``'s worker (and any other dead one) and rebuild
        the whole engine from the log.

        Raises the budget-exhausted :class:`~repro.errors.EventError`
        without restarting when the window is spent.
        """
        from repro.runtime.durability import restore_and_replay

        started = time.perf_counter()
        for dead in [lane] + [
            other for other in self.engine._lanes
            if other is not lane and not other._proc.is_alive()
        ]:
            now = time.monotonic()
            while self._restart_times and now - self._restart_times[0] > self.window:
                self._restart_times.popleft()
            if len(self._restart_times) >= self.max_restarts:
                raise EventError(
                    f"shard worker {dead.index} died and the supervisor's "
                    f"restart budget is exhausted ({self.max_restarts} "
                    f"restarts in {self.window:g}s); giving up: {cause}"
                ) from cause
            self._restart_times.append(now)
            self.restarts += 1
            dead.respawn()
        if self.source is None:
            # The journal keeps no skipped batch: the live count is current.
            snapshot = dict(
                self._snapshot, events_skipped=self.engine.events_skipped
            )
            frames, mode = self._frames, "journal"
        else:
            (snapshot, frames), mode = self.source(), "durable"
        self._rebuilding = True  # the lanes run raw until the state is back
        try:
            replayed = restore_and_replay(self.engine, snapshot, frames)[1]
        finally:
            self._rebuilding = False
        elapsed = time.perf_counter() - started
        self.last_recovery_seconds = elapsed
        self.recoveries.append(
            {
                "lane": lane.index,
                "mode": mode,
                "replayed": replayed,
                "seconds": elapsed,
            }
        )


def _merge_lane_maps(
    program: CompiledProgram, lane_maps: Iterable[Mapping[str, Mapping]]
) -> dict[str, dict]:
    """Key-wise sum of per-lane maps, dropping zeros.

    Correct uniformly across the three ownership classes of the partition
    spec: sharded read maps hold disjoint key slices per lane (sum ==
    disjoint union), serial-lane maps are empty everywhere else, and
    additive maps accumulate genuine partial sums.
    """
    merged: dict[str, dict] = {name: {} for name in program.maps}
    for maps in lane_maps:
        for name, contents in maps.items():
            if not contents:
                continue
            target = merged[name]
            for key, value in contents.items():
                total = target.get(key, 0) + value
                if total == 0:
                    target.pop(key, None)
                else:
                    target[key] = total
    # MIN/MAX/DISTINCT auxiliary caches are not additive — a lane's
    # cache reflects only its local occurrence slice (summing two lanes'
    # per-group minima would add the values).  Rebuild each cache from
    # its merged occurrence map instead.
    for occ_name, specs in program.finalizers.items():
        for spec in specs:
            target = merged[spec.aux] = {}
            run_finalize(target, merged[occ_name], spec.kind, spec.group_arity)
    return merged


class ShardedEngine(Engine):
    """N-way sharded parallel execution of a compiled delta program.

    Batches are hash-routed by each relation's partition column (from
    :func:`repro.compiler.partition.analyze_partitioning`) to per-shard
    :class:`DeltaEngine` lanes; relations the analysis cannot partition run
    on a built-in serial lane.  Lane maps are disjoint by construction, so
    :meth:`results` / :meth:`map_view` merge them key-wise and equal a
    single-engine run over the same stream.

    ``parallel=True`` forks one worker process per shard (POSIX only;
    silently falls back to in-process lanes where ``fork`` is unavailable)
    and overlaps trigger execution across cores — the engine-side
    realisation of the ROADMAP's "parallel shards" follow-up.  Reads
    (``results``, ``map_view``, ``events_processed``...) synchronise with
    the workers first, so they always observe a consistent merged state.

    A program with no partitionable relation degrades gracefully: every
    batch runs on the serial lane and the engine behaves exactly like a
    single :class:`DeltaEngine`.
    """

    def __init__(
        self,
        program: CompiledProgram,
        shards: int = 2,
        mode: str = "compiled",
        parallel: bool = False,
        strict: bool = False,
        use_indexes: bool = True,
        optimize: bool = True,
        supervise: bool = False,
        max_worker_restarts: int = 3,
        restart_window: float = 60.0,
    ) -> None:
        """``supervise=True`` (with ``parallel=True``) puts the forked
        worker lanes under a :class:`ShardSupervisor`, which respawns
        dead workers and rebuilds the engine from its log, at most
        ``max_worker_restarts`` times per sliding ``restart_window``
        seconds.  In-process lanes cannot die, so ``supervise`` is a
        no-op without forked workers."""
        if shards < 1:
            raise EventError(f"shard count must be >= 1, got {shards!r}")
        super().__init__(program)
        # Admission is enforced here, globally: lane-local stream state is
        # only a partial view.
        self._init_admission(strict)
        self.spec = analyze_partitioning(program)
        self.shards = shards
        # One executor for the whole engine: the serial lane, every shard
        # lane and (through fork) every worker bind the same compiled code.
        executor = _build_executor(
            program,
            ExecutorOptions(mode, use_indexes, optimize),
        )
        self._serial = _LocalLane(executor)
        # The folds a long run takes at the router (a routed trigger groups
        # on its relation's partition column): they read no map, so the
        # serial lane's binding serves every lane.
        self._folds = {
            relation: fold
            for (relation, _), fold in self._serial._triggers.folds.items()
        }
        self.parallel = False
        self._closed = False
        self._lanes: list = []
        self.supervisor: Optional[ShardSupervisor] = None
        if self.spec.partitionable and shards > 1:
            ctx = None
            if parallel:
                import multiprocessing

                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:
                    pass  # no fork on this platform: in-process lanes
            if ctx is not None:
                if supervise:
                    self.supervisor = ShardSupervisor(
                        self,
                        max_restarts=max_worker_restarts,
                        window=restart_window,
                    )
                    self._log = self.supervisor.log
                self._lanes = [
                    _ProcessLane(ctx, executor, index, self.supervisor)
                    for index in range(shards)
                ]
                self.parallel = True
            else:
                self._lanes = [_LocalLane(executor) for _ in range(shards)]

    def __getstate__(self) -> dict:
        """Copying/pickling support: in-process lanes copy like any
        object; forked lanes own a process and a pipe, which cannot."""
        if self.parallel:
            raise EventError(
                "a ShardedEngine with forked worker lanes cannot be copied: "
                "its shard state lives in other processes; build a second "
                "engine, or copy one with parallel=False"
            )
        return self.__dict__

    # -- event processing -------------------------------------------------

    def _process_batch(self, batch: EventBatch) -> int:
        """Admit one batch, log it (:attr:`_log`) and route it.

        Semantics match :meth:`DeltaEngine._process_batch`.  Which path a
        run takes:

        * a serial-lane relation's batch flows through
          :meth:`DeltaEngine._apply` untouched;
        * a run longer than :data:`_ROW_ROUTE_THRESHOLD` whose trigger
          folds on the routing column (a routed
          :class:`~repro.ir.nodes.ForEachGroup`) is folded once, here,
          into one entry per group — its sums and the rows it stands for
          — and the groups are routed as a columnar batch of keys and
          entries; each lane runs the trigger's group body on its slice
          and counts its rows.  A group's key is its rows' routing value,
          so it lands on the lane of every row it stands for, and each
          lane's groups keep their order of first appearance: the lane
          maps equal the column route's, insertion order included;
        * any other long run hashes its routing column list into per-lane
          column gathers, each one ``*_batch`` call;
        * a shorter run is rows: an in-process lane takes each row as one
          call of its per-event trigger with the row's weight — no
          partition lists, no transpose, no batch body, which loses to
          per-row calls at these lengths; a forked lane takes one
          ``partition_rows`` slice, since each message crosses a pipe.

        Every path hashes ``value % lanes`` for a row's (or group's)
        routing value, so a row's lane does not depend on its run's length.
        """
        self._check_open()
        count = batch._length
        if not count:
            return 0
        relation, sign = batch.relation, batch.sign
        weights = sign if isinstance(sign, list) else None
        if admit(self, batch) is None:
            return 0
        column = self.spec.relation_columns.get(relation)
        lanes = self._lanes
        try:
            if column is None or not lanes:
                self._serial._apply(relation, sign, batch._rows, batch._columns)
            elif count > _ROW_ROUTE_THRESHOLD:
                fold = self._folds.get(relation)
                if fold is not None:
                    groups = fold(batch.columns, weights or [sign] * count)
                    parts = partition_columns(
                        (list(groups), list(groups.values())), 0, len(lanes)
                    )
                    for lane, (keys, entries) in zip(lanes, parts):
                        if keys:
                            lane.send_groups(relation, keys, entries)
                else:
                    self._scatter(relation, sign, partition_columns(
                        batch.columns, column, len(lanes), weights
                    ), columnar=True)
            elif self.parallel:
                self._scatter(relation, sign, partition_rows(
                    batch.rows, column, len(lanes), weights
                ), columnar=False)
            else:
                shards = len(lanes)
                for row, weight in zip(batch.rows, weights or repeat(sign)):
                    lane = lanes[hash(row[column]) % shards]
                    lane._signed[relation][weight](*row)
                    lane.events_processed += 1
        except _BatchReplayed:
            # A supervised rebuild replayed the log, which holds this
            # batch in full — the unsent lane slices were applied by the
            # replay, so routing must not resume.
            pass
        if self._batch_listeners:
            self._notify_listeners(batch)
        return count

    def _scatter(self, relation: str, sign, slices, columnar: bool) -> None:
        """Send each lane its slice of one routed run — column tuples
        when ``columnar`` (a long run), else row lists (a short run for
        forked lanes) — paired, for a mixed run (``sign`` is its weight
        column), with the slice's weights.  Lanes that drew no rows get
        no message."""
        mixed = isinstance(sign, list)
        for lane, part in zip(self._lanes, slices):
            if mixed:
                part, weights = part
                part_sign = batch_sign(weights) if weights else None
            else:
                part_sign = sign if (part[0] if columnar else part) else None
            if part_sign is not None:
                lane.send(relation, part_sign, *(
                    (None, part) if columnar else (part, None)
                ))

    def sync(self) -> None:
        """Barrier: wait until every shard worker has drained its pipe.

        Raises :class:`~repro.errors.EventError` if any worker's trigger
        execution failed.  A no-op for in-process lanes.
        """
        for lane in self._lanes:
            lane.sync()

    @property
    def events_processed(self) -> int:
        """Events that reached a trigger, across all lanes (synchronises)."""
        self._check_open()
        return self._serial.events_processed + sum(
            lane.events_processed for lane in self._lanes
        )

    # -- durability ---------------------------------------------------------

    def restore_state(self, snapshot: Mapping) -> None:
        """Scatter a snapshot (:func:`engine_state`) across the shard lanes.

        A snapshot holds *merged* maps, so restoring must undo the merge:
        each sharded read map is split by hashing the partition value in
        its key — exactly the router's placement, so post-restore deltas
        land on the lane that owns the restored slice.  Serial-lane maps,
        additive (sum-merged) maps and anything unsharded restore whole
        into the serial engine: the merge sums lanes key-wise, and every
        other lane starts its slice empty.  The event counter also lives
        on the serial engine (``events_processed`` sums all lanes).  The
        journal, while it is the log step (no replay suspended it, no
        durable log replaced it), re-bases onto the restored state first,
        so a worker that dies mid-restore is rebuilt to it.
        """
        self._check_open()
        if self.supervisor is not None and self._log == self.supervisor.log:
            self.supervisor.rebase(snapshot)
        self.events_skipped = snapshot["events_skipped"]
        self._stream_started = started = snapshot["stream_started"]
        n_lanes = len(self._lanes)
        serial_maps: dict[str, dict] = {}
        lane_maps: list[dict[str, dict]] = [{} for _ in range(n_lanes)]
        for name, contents in snapshot["maps"].items():
            position = self.spec.map_positions.get(name)
            if not n_lanes or position is None or name in self.spec.serial_maps:
                serial_maps[name] = contents
                continue
            slices = [lane.setdefault(name, {}) for lane in lane_maps]
            for key, value in contents.items():
                slices[hash(key[position]) % n_lanes][key] = value
        self._serial.restore_state(dict(snapshot, maps=serial_maps))
        for lane, shard_maps in zip(self._lanes, lane_maps):
            lane.restore_state(
                dict(EMPTY_STATE, maps=shard_maps, stream_started=started)
            )

    # -- results ------------------------------------------------------------

    def current_maps(self) -> dict[str, dict]:
        """The key-wise merge of all lane maps.  A worker's ``collect``
        reply follows every batch queued to it, so this synchronises."""
        self._check_open()
        lane_maps = [self._serial.maps] + [
            lane.current_maps() for lane in self._lanes
        ]
        return _merge_lane_maps(self.program, lane_maps)

    # -- introspection ------------------------------------------------------

    @property
    def native_active(self) -> bool:
        """True when the lanes run the C column kernel — one shared
        executor, so the serial lane answers for all of them (forked
        workers inherit the loaded kernel)."""
        return self._serial.native_active

    @property
    def native_note(self) -> Optional[str]:
        return self._serial.native_note

    def storage_classes(self) -> dict[str, str]:
        """Per-map storage class across the lanes (see
        :meth:`DeltaEngine.storage_classes`).  Every lane builds the same
        layout, so lanes only ever differ by a degrade: a map ``spilled``
        or ``ejected`` on any lane reports as such."""
        self._check_open()
        classes = self._serial.storage_classes()
        for lane in self._lanes:
            for name, current in lane.storage_classes().items():
                if current in ("spilled", "ejected") and (
                    classes[name] != "spilled"
                ):
                    classes[name] = current
        return classes

    def index_sizes(self) -> dict[str, int]:
        """Secondary-index entries summed across every lane.

        Indexes are lane-local (each shard indexes its own key slice), so
        the *sum* — not the merged-map view — is the real shard-local
        memory footprint.  The per-lane stats round-trip drains each
        worker's queued batches (pipe messages apply in order) and
        surfaces remembered failures, so no separate sync is needed.
        """
        self._check_open()
        totals = dict(self._serial.index_sizes())
        for lane in self._lanes:
            for name, entries in lane.index_sizes().items():
                totals[name] = totals.get(name, 0) + entries
        return totals

    # -- lifecycle ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EventError(
                "ShardedEngine is closed: shard state was discarded; "
                "read results before close() / leaving the with-block"
            )

    def close(self) -> None:
        """Stop worker processes and discard lane state (idempotent).

        A closed engine rejects further event processing and reads: its
        shard lanes (and their maps) are gone, so answering from the
        remaining serial lane alone would silently return partial state.
        """
        for lane in self._lanes:
            lane.close()
        self._lanes = []
        self._closed = True
