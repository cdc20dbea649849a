"""Tests for the demonstration tooling: trace table and CLI."""

import pytest

from repro.compiler import compile_sql
from repro.sql.catalog import Catalog
from repro.tools.trace import (
    compilation_rows,
    compilation_table,
    ir_summary,
    recursion_summary,
)
from repro.tools.cli import build_parser, main as cli_main

DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""
PAPER_SQL = "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"


@pytest.fixture(scope="module")
def program():
    return compile_sql(PAPER_SQL, Catalog.from_script(DDL))


class TestTrace:
    def test_three_recursion_levels(self, program):
        """Figure 2 has levels 1-3 for the example query."""
        rows = compilation_rows(program)
        assert {r["level"] for r in rows} == {1, 2, 3}

    def test_level3_is_the_count_map(self, program):
        rows = [r for r in compilation_rows(program) if r["level"] == 3]
        assert rows
        assert all("S(__k0,__k1)" in r["query"] for r in rows)
        # q1[b,c] maintenance is the constant +-1, using no maps.
        assert all(not r["maps_used"] for r in rows)

    def test_insert_s_row_shows_join_elimination(self, program):
        rows = [
            r
            for r in compilation_rows(program)
            if r["level"] == 1 and r["event"] == "±S"
        ]
        assert len(rows) == 1
        assert len(rows[0]["maps_used"]) == 2  # qA[b] * qD[c]

    def test_table_renders(self, program):
        table = compilation_table(program)
        assert "lvl" in table and "±R" in table and "±T" in table
        assert "+R" not in table and "-T" not in table  # one trigger each
        assert len(table.splitlines()) == 2 + len(compilation_rows(program))

    def test_recursion_summary(self, program):
        summary = recursion_summary(program)
        assert summary[0] == 1  # the root map
        assert sum(summary.values()) == len(program.maps)

    def test_ir_summary_line(self, program):
        line = ir_summary(program)
        assert line.startswith("IR: ")
        assert "map loops" in line
        assert "passes:" in line
        assert "fuse-loops (" in line and " nodes)" in line  # per-pass yield
        assert "hoisted temps, " in line and " shared keys across " in line
        assert "share-keys (" in line
        assert "; event sinks: " in line and "; batch sinks: " in line
        assert "disabled" in ir_summary(program, optimize=False)

    def test_ir_summary_counts_per_event_accumulators(self):
        """axf's six grouped loop sums (3 per trigger) accumulate per
        event; the base-map writes apply directly."""
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        axf = compile_sql(FINANCE_QUERIES["axf"], finance_catalog())
        assert "event sinks: 6 accumulator, 2 direct;" in ir_summary(axf)


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_command(self, capsys):
        rc = cli_main(
            [
                "compile",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 2 trace" in out
        assert "maps per recursion level" in out
        assert "IR: " in out  # the IR lowering is part of the trace
        # The storage plan section: type proofs, then each mode's layout
        # with the reason every map got it.
        assert "== storage plan ==" in out
        assert "layout, compiled / interpreted:" in out
        assert "layout, native (" in out
        assert "dict (probed from Python" in out

    def test_compile_dump_ir(self, capsys):
        rc = cli_main(
            ["compile", "--schema", DDL, "--query", PAPER_SQL, "--dump-ir"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== trigger IR ==" in out
        assert "trigger on_r(__w, " in out
        assert "trigger on_r_batch(" in out
        assert "on_delete_" not in out and "on_insert_" not in out
        assert "foreach (" in out  # the T-side foreach survives lowering
        # Both sink reports, per event first.
        assert 0 < out.index("== event sinks ==") < out.index("== batch sinks ==")

    def test_compile_dump_ir_names_event_sinks(self, capsys):
        from repro.workloads.finance import FINANCE_QUERIES
        from repro.workloads.orderbook import ORDER_BOOK_DDL

        rc = cli_main(
            [
                "compile", "--schema", ORDER_BOOK_DDL,
                "--query", FINANCE_QUERIES["axf"], "--dump-ir",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        sinks = out.split("== event sinks ==\n")[1].split("\n\n")[0]
        assert sinks.startswith("on_asks:\n")
        # One trigger per relation, one line per statement.
        program = compile_sql(
            FINANCE_QUERIES["axf"], Catalog.from_script(ORDER_BOOK_DDL)
        )
        assert sinks.count("\n  [") == program.statements_count()
        assert [line for line in sinks.splitlines() if line.startswith("on_")] == [
            "on_asks:", "on_bids:"
        ]
        assert "  [ accumulator] q_q_column_1[ev_asks_broker_id] += " in sinks
        assert "  [      direct] m2_asks[" in sinks

    def test_compile_dump_ir_no_opt(self, capsys):
        rc = cli_main(
            [
                "compile",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
                "--dump-ir",
                "--no-opt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "== IR passes ==\n(none)" in out

    @pytest.mark.parametrize(
        "emit, expected",
        # c: the kernel source the native lane builds, entry points and all.
        [("python", "def on_r(__w, "), ("c", "int cm_add_1_q(CM *m,")],
    )
    def test_compile_emit(self, capsys, emit, expected):
        rc = cli_main(
            ["compile", "--schema", DDL, "--query", PAPER_SQL, "--emit", emit]
        )
        assert rc == 0
        assert expected in capsys.readouterr().out

    def test_run_command_over_csv(self, tmp_path, capsys):
        stream = tmp_path / "events.csv"
        stream.write_text(
            "op,relation,values...\n"
            "+,R,2,10\n+,S,10,100\n+,T,100,7\n-,R,2,10\n+,R,5,10\n"
        )
        rc = cli_main(
            [
                "run",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
                "--stream",
                str(stream),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(35,)" in out  # 5 * 7

    def test_run_command_sharded(self, tmp_path, capsys):
        """--shards routes the stream through a ShardedEngine and still
        prints the exact final result."""
        stream = tmp_path / "events.csv"
        stream.write_text(
            "op,relation,values...\n"
            "+,R,2,10\n+,S,10,100\n+,T,100,7\n-,R,2,10\n+,R,5,10\n"
        )
        rc = cli_main(
            [
                "run",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
                "--stream",
                str(stream),
                "--shards",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(35,)" in out  # 5 * 7, identical to the single-engine run

    def test_durable_run_and_recover_report_rows_per_logged_frame(
        self, tmp_path, capsys
    ):
        """The batch unit is visible: R's insert, delete and insert are one
        mixed frame, S and T one each — 5 events in 3 frames."""
        stream = tmp_path / "events.csv"
        stream.write_text(
            "op,relation,values...\n"
            "+,R,2,10\n-,R,2,10\n+,R,5,10\n+,S,10,100\n+,T,100,7\n"
        )
        state = str(tmp_path / "state")
        query = ["--schema", DDL, "--query", PAPER_SQL, "--durable", state]
        assert cli_main(["run", *query, "--stream", str(stream)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("-- durable state at LSN 3 ")
        assert last.endswith(", 1.67 rows per logged frame --")
        assert cli_main(["recover", *query]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "(35,)" in lines[1]
        assert lines[-1] == "-- 1.67 rows per logged frame --"

    def test_run_command_no_opt(self, tmp_path, capsys):
        stream = tmp_path / "events.csv"
        stream.write_text("op,relation,values...\n+,R,2,10\n")
        rc = cli_main(
            [
                "run",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
                "--stream",
                str(stream),
                "--no-opt",
            ]
        )
        assert rc == 0
        assert "final result" in capsys.readouterr().out

    def test_serve_oneshot_streams_and_prints_result(self, tmp_path, capsys):
        """serve --oneshot binds a live server, streams the CSV through
        the serving ingest path, and prints the same final result as
        run."""
        stream = tmp_path / "events.csv"
        stream.write_text(
            "op,relation,values...\n"
            "+,R,2,10\n+,S,10,100\n+,T,100,7\n-,R,2,10\n+,R,5,10\n"
        )
        rc = cli_main(
            [
                "serve",
                "--schema",
                DDL,
                "--query",
                PAPER_SQL,
                "--stream",
                str(stream),
                "--oneshot",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving view 'q'" in out
        assert "delta candidates: event-keyed groups" in out
        assert "streamed 5 events" in out
        assert "(35,)" in out  # 5 * 7, identical to the run command

    @pytest.mark.parametrize(
        "flags",
        [[], ["--mode", "native"], ["--batch-size", "100"], ["--shards", "2"]],
        ids=["default", "native", "batched", "sharded"],
    )
    def test_bench_command(self, capsys, flags):
        """The per-event, native, batched and sharded benches all run."""
        rc = cli_main(
            ["bench", "--workload", "finance", "--query", "bsp",
             "--events", "2000", *flags]
        )
        assert rc == 0
        assert "events/s" in capsys.readouterr().out

    def test_bench_command_no_opt(self, capsys):
        rc = cli_main(
            [
                "bench",
                "--workload",
                "finance",
                "--query",
                "psp",
                "--events",
                "2000",
                "--no-opt",
            ]
        )
        assert rc == 0
        assert "events/s" in capsys.readouterr().out

    def test_missing_schema_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["compile", "--query", PAPER_SQL])

    @pytest.mark.parametrize(
        "argv",
        [["run", "--query", "q", "--stream", "s.csv"], ["serve", "--query", "q"],
         ["bench"]],
        ids=["run", "serve", "bench"],
    )
    def test_native_is_a_mode_not_a_flag(self, argv, capsys):
        assert build_parser().parse_args([*argv, "--mode", "native"]).mode == "native"
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--native"])
        assert "unrecognized arguments: --native" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--query", "q", "--stream", "s.csv"], ["serve", "--query", "q"],
         ["bench"]],
        ids=["run", "serve", "bench"],
    )
    def test_there_is_no_columnar_flag(self, argv, capsys):
        """Maps are dicts (or kernel-held under ``--mode native``); the
        packed memory mode is not an option."""
        with pytest.raises(SystemExit) as exit_:
            cli_main([*argv, "--columnar"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --columnar" in capsys.readouterr().err
