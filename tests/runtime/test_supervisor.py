"""Units for the shard-worker supervisor (``ShardSupervisor``).

A supervised :class:`~repro.runtime.engine.ShardedEngine` respawns a
SIGKILLed forked worker and rebuilds the engine the way a crash is
recovered — restore a whole-engine snapshot into every lane, replay the
batches logged since — under a max-restarts-per-window budget.  The log
has two sources: the journal the engine's log step keeps (checkpoint +
batch copies) on a plain engine, the snapshot store + WAL when wrapped in a
:class:`~repro.runtime.durability.DurableEngine`.  These tests pin result
parity after a kill for both sources (between batches, between two
lanes' slices of one batch, and under a caller that reuses its rows
list), that reopening a durable directory logs nothing in memory, budget
exhaustion, and that worker *errors* (as opposed to deaths) still surface
loudly.  The randomized fault-schedule composition lives in
``tests/integration/test_chaos_property.py``.
"""

import os
import signal
import time
from collections import Counter

import pytest

from repro.compiler import compile_sql
from repro.errors import EventError
from repro.runtime import DeltaEngine, ShardedEngine, ShardSupervisor
from repro.runtime.durability import DurableEngine
from repro.runtime import engine as engine_module
from repro.runtime.engine import _ProcessLane, engine_state
from repro.sql.catalog import Catalog

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
"""

GROUPED = "SELECT A, sum(B) FROM R GROUP BY A"

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process lanes require POSIX fork"
)


def _program(query=GROUPED):
    return compile_sql(query, Catalog.from_script(CATALOG_DDL), name="q")


def _kill_worker(engine, lane_index: int) -> None:
    """SIGKILL one forked shard worker and wait for the corpse."""
    proc = engine._lanes[lane_index]._proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


def _reference_rows(program, batches):
    reference = DeltaEngine(program)
    for relation, sign, rows in batches:
        reference.process_batch(relation, sign, rows)
    return Counter(reference.results("q"))


def test_supervisor_rejects_bad_options():
    program = _program()
    engine = DeltaEngine(program)
    with pytest.raises(EventError, match="max_restarts"):
        ShardSupervisor(engine, max_restarts=0)
    with pytest.raises(EventError, match="window"):
        ShardSupervisor(engine, window=0)


def test_supervise_without_parallel_lanes_is_inert():
    engine = ShardedEngine(_program(), shards=2, supervise=True)
    assert engine.supervisor is None  # nothing to supervise in-process
    engine.process_batch("R", 1, [(1, 10)])
    assert engine.results("q")
    engine.close()


@needs_fork
class TestSupervisedLanes:
    @pytest.mark.parametrize(
        "interrupt", ["between_batches", "between_slices", "reused_rows"]
    )
    @pytest.mark.parametrize("source", ["journal", "durable"])
    def test_rebuild_parity_after_sigkill(
        self, source, interrupt, tmp_path, monkeypatch
    ):
        """Batch 28's keys 0, 1, 2 route to lanes 0, 1 and 2, in that
        order.  ``between_slices`` kills lane 1 after lane 0 took its
        slice: the in-flight batch must still apply exactly once, lane
        2's slice included.
        ``reused_rows`` refills one ``rows`` list for every batch: a
        rebuild must replay what was processed, not what the list holds
        now."""
        program = _program()
        batches = [("R", 1, [(i % 4, i) for i in range(j, j + 3)])
                   for j in range(0, 120, 3)]
        if source == "durable":
            engine = DurableEngine(
                program, tmp_path, fsync="none",
                shards=3, parallel=True, supervise=True,
            )
            sharded = engine.engine
        else:
            monkeypatch.setattr(engine_module, "_CHECKPOINT_EVERY", 8)
            engine = sharded = ShardedEngine(
                program, shards=3, parallel=True, supervise=True,
            )
        supervisor = sharded.supervisor
        assert supervisor is not None
        assert (supervisor.source is None) == (source == "journal")
        if interrupt == "between_slices":
            send = _ProcessLane.send

            def send_then_kill(lane, *args):
                send(lane, *args)
                if lane.index == 0 and len(sent) == 28 and not supervisor.restarts:
                    _kill_worker(sharded, 1)

            monkeypatch.setattr(_ProcessLane, "send", send_then_kill)
        sent, reused = [], []
        for index, (relation, sign, rows) in enumerate(batches):
            if index == 28 and interrupt != "between_slices":
                _kill_worker(sharded, 1)
            if interrupt == "reused_rows":
                reused[:] = rows
                rows = reused
            engine.process_batch(relation, sign, rows)
            sent.append(index)
        engine.sync()
        assert Counter(engine.results("q")) == _reference_rows(program, batches)
        assert engine.events_processed == 3 * len(batches)
        assert supervisor.restarts == 1
        (recovery,) = supervisor.recoveries
        assert recovery["mode"] == source
        assert recovery["lane"] == 1
        assert recovery["seconds"] >= 0
        # The whole WAL (batch 28 is LSN 29), or batches 24-28 past the
        # checkpoint taken before batch 24 was logged.
        assert recovery["replayed"] == (29 if source == "durable" else 5)
        engine.close()

    @pytest.mark.parametrize("kill_in_replay", [False, True])
    def test_reopen_logs_nothing_in_memory(
        self, kill_in_replay, tmp_path, monkeypatch
    ):
        """Reopening a supervised durable sharded engine replays its WAL
        with the durable log installed: no checkpoint ``collect`` round
        trip and no in-memory log entry — yet a worker SIGKILLed after
        the reopen still rebuilds to the reference rows.
        ``kill_in_replay`` kills lane 1 after lane 0 took frame 51's
        slice: the rebuild replays the WAL up to that frame in flight,
        and the reopen goes on from there, so no frame applies twice."""
        program = _program()
        batches = [("R", 1, [(i % 4, i), ((i + 1) % 4, i)]) for i in range(400)]
        options = dict(fsync="none", shards=2, parallel=True, supervise=True)
        with DurableEngine(program, tmp_path, **options) as engine:
            for relation, sign, rows in batches:
                engine.process_batch(relation, sign, rows)
        requests, logged = [], []
        round_trip, send = _ProcessLane._round_trip, _ProcessLane.send

        def spy_round_trip(lane, request, retry=True):
            requests.append(request[0])
            return round_trip(lane, request, retry)

        def spy_send(lane, *args):
            logged.append(len(lane.supervisor._frames))
            send(lane, *args)
            if kill_in_replay and len(logged) == 101:
                _kill_worker(lane.supervisor.engine, 1)

        monkeypatch.setattr(_ProcessLane, "_round_trip", spy_round_trip)
        monkeypatch.setattr(_ProcessLane, "send", spy_send)
        engine = DurableEngine(program, tmp_path, **options)
        assert engine.lsn == 400
        assert "collect" not in requests
        # Two slices a frame, and frames 1-51 once more in the rebuild.
        assert len(logged) == 800 + 102 * kill_in_replay
        assert set(logged) == {0}
        assert Counter(engine.results("q")) == _reference_rows(program, batches)
        monkeypatch.undo()
        _kill_worker(engine.engine, 0)
        more = [("R", 1, [(i % 4, -i)]) for i in range(10)]
        for relation, sign, rows in more:
            engine.process_batch(relation, sign, rows)
        engine.sync()
        assert Counter(engine.results("q")) == _reference_rows(
            program, batches + more
        )
        recoveries = engine.supervisor.recoveries
        assert [recovery["mode"] for recovery in recoveries] == (
            ["durable"] * (1 + kill_in_replay)
        )
        if kill_in_replay:
            assert (recoveries[0]["lane"], recoveries[0]["replayed"]) == (1, 51)
        assert engine.supervisor._frames == []
        engine.close()

    def test_kill_every_lane_over_the_run(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_CHECKPOINT_EVERY", 4)
        program = _program()
        engine = ShardedEngine(
            program, shards=2, parallel=True,
            supervise=True, max_worker_restarts=4,
        )
        batches = [("R", 1, [(i % 4, i)]) for i in range(30)]
        for index, (relation, sign, rows) in enumerate(batches):
            if index in (8, 16):
                _kill_worker(engine, index % 2)
            engine.process_batch(relation, sign, rows)
        engine.sync()
        assert Counter(engine.results("q")) == _reference_rows(program, batches)
        assert engine.supervisor.restarts == 2
        engine.close()

    def test_restart_budget_exhaustion_degrades_loudly(self):
        engine = ShardedEngine(
            _program(), shards=2, parallel=True,
            supervise=True, max_worker_restarts=1, restart_window=60.0,
        )
        with pytest.raises(EventError, match="restart budget is exhausted"):
            for i in range(40):
                if i in (5, 10, 15, 20):
                    _kill_worker(engine, 0)
                    _kill_worker(engine, 1)
                engine.process_batch("R", 1, [(i % 4, i)])
                engine.sync()
        engine.close()

    def test_window_expiry_replenishes_the_budget(self):
        engine = ShardedEngine(
            _program(), shards=2, parallel=True,
            supervise=True, max_worker_restarts=1, restart_window=0.2,
        )
        for i in range(2):
            _kill_worker(engine, 0)
            engine.process_batch("R", 1, [(0, i)])
            engine.sync()
            time.sleep(0.3)  # let the previous restart age out
        assert engine.supervisor.restarts == 2
        engine.close()

    def test_worker_errors_still_surface(self):
        # Supervision covers worker *death*, not trigger failures: a
        # value the trigger cannot add must still raise, without a restart.
        # Admission checks a logged batch's values at the coordinator, so
        # the slice goes to a worker directly.
        engine = ShardedEngine(
            _program(), shards=2, parallel=True, supervise=True,
        )
        with pytest.raises(EventError, match="column 'B' is INT; got None"):
            engine.process_batch("R", 1, [(1, None)])
        engine._lanes[0].send("R", 1, [(1, None)], None)
        with pytest.raises(EventError, match=r"shard worker \d+ failed"):
            engine.sync()
        assert engine.supervisor.restarts == 0
        engine.close()

    def test_skipped_batches_count_once_across_a_rebuild(self, monkeypatch):
        """A relation no query reads (``S``) is counted live and never
        journaled: a rebuild that replayed its batches would count them
        again, one checkpoint interval at a time."""
        monkeypatch.setattr(engine_module, "_CHECKPOINT_EVERY", 3)
        program = _program()
        engine = ShardedEngine(program, shards=2, parallel=True, supervise=True)
        reference = DeltaEngine(program)
        for i in range(20):
            if i == 10:
                _kill_worker(engine, 0)
            for target in (engine, reference):
                target.process_batch("R", 1, [(i % 4, i), ((i + 1) % 4, i)])
                target.insert("S", i, i)
        engine.sync()
        assert engine.supervisor.restarts == 1
        assert engine.events_skipped == reference.events_skipped == 20
        assert engine.events_processed == reference.events_processed
        assert Counter(engine.results("q")) == Counter(reference.results("q"))
        engine.close()

    def test_restore_state_resets_checkpoints(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_CHECKPOINT_EVERY", 4)
        program = _program()
        engine = ShardedEngine(
            program, shards=2, parallel=True, supervise=True,
        )
        primer = DeltaEngine(program)
        primer.process_batch("R", 1, [(1, 10), (2, 20)])
        engine.restore_state(engine_state(primer))
        _kill_worker(engine, 0)
        engine.process_batch("R", 1, [(3, 30)])
        engine.sync()
        primer.process_batch("R", 1, [(3, 30)])
        assert Counter(engine.results("q")) == Counter(primer.results("q"))
        assert engine.supervisor.restarts == 1
        engine.close()

    def test_restore_state_under_a_durable_log_keeps_no_journal(self, tmp_path):
        """Under a ``DurableEngine`` the WAL append is the log step, so a
        restore re-bases nothing: the journal holds no copy of the maps."""
        program = _program()
        primer = DeltaEngine(program)
        primer.process_batch("R", 1, [(1, 10), (2, 20)])
        with DurableEngine(
            program, tmp_path, shards=2, parallel=True, supervise=True
        ) as engine:
            engine.restore_state(engine_state(primer))
            assert engine.supervisor._snapshot["maps"] == {}
            assert engine.supervisor._frames == []
            assert Counter(engine.results("q")) == Counter(primer.results("q"))
