"""Baseline engines for the paper's DBMS bakeoff (Section 4.2).

Stand-ins for the systems the demo compares against, per DESIGN.md:

* :class:`~repro.baselines.reeval.ReevalEngine` — re-executes the standing
  query in an in-memory sqlite3 database on every update (PostgreSQL /
  HSQLDB / commercial DBMS 'A' model).  The same sqlite mirror is the test
  suites' oracle, so the bakeoff's ratios are against sqlite;
* :class:`~repro.baselines.ivm.FirstOrderIVMEngine` — classical first-order
  incremental view maintenance: delta queries evaluated over base-relation
  state per event ("today's VM algorithms" from the introduction);
* :class:`~repro.baselines.streamops.StreamOpEngine` — an interpreted
  incremental operator network with materialised join state (Stanford
  STREAM / commercial stream processor 'B' model);
* the DBToaster *interpreted* mode (``DeltaEngine(mode="interpreted")``)
  rounds out the ablation: recursive compilation without code generation.

All engines share the event/result API, so the bakeoff harness treats them
uniformly (see :func:`repro.baselines.common.make_engine`).
"""

from repro.errors import UnsupportedQueryError
from repro.baselines.common import make_engine, ENGINE_KINDS
from repro.baselines.reeval import ReevalEngine
from repro.baselines.ivm import FirstOrderIVMEngine
from repro.baselines.streamops import StreamOpEngine

__all__ = [
    "make_engine",
    "ENGINE_KINDS",
    "ReevalEngine",
    "FirstOrderIVMEngine",
    "StreamOpEngine",
    "UnsupportedQueryError",
]
