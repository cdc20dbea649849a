"""Unit tests for the shard-partitioning analysis.

The analysis must find the per-group independence the finance group-by
queries expose (every map access keyed on ``broker_id``), reject programs
whose triggers read scalar or differently-keyed state (psp, vwap, the SSB
star join), and keep the serial and sharded lanes map-disjoint when a
program mixes both kinds of query.
"""

import pytest

from repro.algebra.translate import translate_sql
from repro.compiler import analyze_partitioning, compile_queries, compile_sql
from repro.sql.catalog import Catalog

RST_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""


def _compile(sql: str, ddl: str = RST_DDL, name: str = "q"):
    return compile_sql(sql, Catalog.from_script(ddl), name=name)


class TestGroupedQueries:
    def test_grouped_single_relation(self):
        spec = analyze_partitioning(
            _compile("SELECT A, sum(B) FROM R GROUP BY A")
        )
        assert spec.relation_columns == {"R": 0}
        assert spec.partitionable
        assert not spec.serial_relations

    def test_bsp_partitions_both_books_by_broker(self):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        program = compile_sql(FINANCE_QUERIES["bsp"], finance_catalog())
        spec = analyze_partitioning(program)
        # broker_id is column 2 of both bids and asks.
        assert spec.relation_columns == {"asks": 2, "bids": 2}
        # Every derived map is keyed by broker at position 0 and read by
        # the opposite book's triggers, so all are shard-owned.
        assert set(spec.map_positions.values()) == {0}
        assert not spec.serial_maps

    def test_axf_base_maps_sharded_on_broker_position(self):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        program = compile_sql(FINANCE_QUERIES["axf"], finance_catalog())
        spec = analyze_partitioning(program)
        assert spec.relation_columns == {"asks": 2, "bids": 2}
        # The base maps key on [broker_id, price, volume]: broker first.
        assert set(spec.map_positions) == {
            base.name for base in program.base_maps.values()
        }
        assert set(spec.map_positions.values()) == {0}

    def test_join_key_co_partitioning(self):
        # R and S co-partition on the join column B (different positions).
        spec = analyze_partitioning(
            _compile(
                "SELECT r.B, sum(r.A * s.C) FROM R r, S s "
                "WHERE r.B = s.B GROUP BY r.B"
            )
        )
        assert spec.relation_columns == {"R": 1, "S": 0}


class TestSerialFallback:
    @pytest.mark.parametrize("query_name", ["psp", "vwap", "mst"])
    def test_scalar_and_inequality_queries_are_serial(self, query_name):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        program = compile_sql(FINANCE_QUERIES[query_name], finance_catalog())
        spec = analyze_partitioning(program)
        assert not spec.partitionable
        assert not spec.relation_columns

    def test_float_cross_shard_sum_is_serial(self):
        # A scalar SUM over floats would merge by re-associated float
        # addition across shards; the exactness guard keeps it serial.
        ddl = "CREATE STREAM R (A int, B float);"
        spec = analyze_partitioning(_compile("SELECT sum(B) FROM R", ddl))
        assert not spec.partitionable
        # The integer twin is free to shard (addition is exact).
        spec_int = analyze_partitioning(
            _compile("SELECT sum(B) FROM R", "CREATE STREAM R (A int, B int);")
        )
        assert spec_int.partitionable

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT sum(0.1 * B) FROM R",
            # Grouped on B; R would route on column 0 (A), so every shard
            # would hold a partial of every group.
            "SELECT B, sum(0.1 * A) FROM R GROUP BY B",
        ],
    )
    def test_float_literal_sum_is_not_additive(self, sql):
        # A float literal in value position makes the ring values inexact
        # just like a FLOAT column does (one proof: exact_int_maps).
        int_ddl = "CREATE STREAM R (A int, B int);"
        spec = analyze_partitioning(_compile(sql, int_ddl))
        assert not spec.additive_maps
        assert spec.serial_relations == {"R"}
        # Only the float-valued slot demotes: an integer literal shards,
        # and a count over a FLOAT relation is still an exact sum.
        assert analyze_partitioning(
            _compile(sql.replace("0.1", "10"), int_ddl)
        ).additive_maps
        count = analyze_partitioning(
            _compile("SELECT count(*) FROM R", "CREATE STREAM R (A int, B float);")
        )
        assert count.partitionable and count.additive_maps

    def test_float_grouped_query_still_shards(self):
        # Grouped writes key on the partition column: shard key sets stay
        # disjoint, no re-association, so floats are fine here.
        ddl = "CREATE STREAM R (A int, B float);"
        spec = analyze_partitioning(
            _compile("SELECT A, sum(B) FROM R GROUP BY A", ddl)
        )
        assert spec.relation_columns == {"R": 0}

    def test_ssb_star_join_is_serial(self):
        from repro.workloads.ssb import SSB_Q41_COMBINED, ssb_catalog

        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41")
        spec = analyze_partitioning(program)
        # The fact trigger joins four dimensions on four different
        # columns; no single routing column satisfies all reads.
        assert not spec.partitionable

    def test_scalar_aggregate_is_serial(self):
        spec = analyze_partitioning(_compile("SELECT sum(A) FROM R"))
        # The root map is written, never read: additive, but with no key
        # to route on the single relation R has no feasible column --
        # unless its trigger touches no read map at all, in which case
        # any column works.  sum(A) compiles to straight additive writes,
        # so R is partitionable by every column; accept either outcome
        # but require correctness-critical invariants.
        assert spec.serial_maps == frozenset()
        for name in spec.additive_maps:
            assert name.startswith("q_")


class TestLaneDisjointness:
    def test_mixed_program_demotes_shared_maps(self):
        catalog = Catalog.from_script(RST_DDL)
        # Alone, the grouped join shards R and S on the join key B.
        grouped = translate_sql(
            "SELECT r.B, sum(r.A * s.C) FROM R r, S s WHERE r.B = s.B "
            "GROUP BY r.B",
            catalog,
            name="grouped",
        )
        # The S*T cross product reads zero-key running sums, forcing S
        # serial -- and S's trigger maintains the join maps the grouped
        # query reads, so the demotion fixpoint must pull R serial too.
        scalar = translate_sql(
            "SELECT sum(s.C * t.D) FROM S s, T t", catalog, name="scalar"
        )
        program = compile_queries([grouped, scalar], catalog)
        spec = analyze_partitioning(program)
        assert not spec.partitionable
        assert {"R", "S", "T"} <= set(spec.serial_relations)
        # No map may be owned by both lanes.
        assert not set(spec.map_positions) & spec.serial_maps

    def test_spec_describe_mentions_lanes(self):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        spec = analyze_partitioning(
            compile_sql(FINANCE_QUERIES["bsp"], finance_catalog())
        )
        text = spec.describe()
        assert "hash-route" in text
        assert "bids" in text and "asks" in text

    def test_column_for(self):
        spec = analyze_partitioning(
            _compile("SELECT A, sum(B) FROM R GROUP BY A")
        )
        assert spec.column_for("R") == 0
        assert spec.column_for("unknown") is None


class TestGeneratedModuleMetadata:
    def test_partitioning_stamped_into_header(self):
        from repro.codegen.pygen import generate_module
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        program = compile_sql(FINANCE_QUERIES["bsp"], finance_catalog())
        source = generate_module(program)
        assert "== partitioning ==" in source
        assert "hash-route by column 2" in source
        compile(source, "<test>", "exec")  # header must stay valid Python
