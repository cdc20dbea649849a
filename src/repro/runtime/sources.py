"""Stream sources for standalone mode.

The paper's runtime accepts input "over a network interface or archived
stream"; here an archived stream is a CSV file (:func:`csv_source`), and
any iterable of :class:`~repro.runtime.events.StreamEvent` objects works
as a source too, so ``engine.process_stream(source)`` works uniformly —
grouping into per-relation batches (inserts and deletes together) is
``process_stream``'s job (:func:`repro.runtime.events.batches`), shard routing
:class:`~repro.runtime.engine.ShardedEngine`'s.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import EventError
from repro.sql.catalog import Catalog, Relation, SqlType
from repro.runtime.events import StreamEvent


def csv_source(path: str | Path, catalog: Catalog) -> Iterator[StreamEvent]:
    """An archived update stream in CSV form.

    The first line is a header and is skipped.  Every other line reads
    ``op,relation,<value0>,<value1>,...`` by position, where ``op`` is
    ``+``/``insert`` or ``-``/``delete``.  Values are coerced using the
    relation's catalog schema.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            op, relation_name, *values = row
            relation = catalog.get(relation_name)
            if len(values) < relation.arity:
                raise EventError(
                    f"{path}:{line_number}: expected {relation.arity} values "
                    f"for {relation.name}, got {len(values)}"
                )
            yield StreamEvent(
                relation.name,
                _op_sign(op, f"{path}:{line_number}"),
                coerce_row(relation, values[: relation.arity]),
            )


def coerce_row(relation: Relation, values: Sequence) -> tuple:
    """Coerce raw (string) values to the relation's column types."""
    out = []
    for column, value in zip(relation.columns, values):
        if isinstance(value, str):
            if column.type is SqlType.INT:
                out.append(int(value))
            elif column.type is SqlType.FLOAT:
                out.append(float(value))
            else:
                out.append(value)
        else:
            out.append(value)
    return tuple(out)


def _op_sign(op: str, where: str) -> int:
    normalized = op.strip().lower()
    if normalized in ("+", "insert", "i", "1"):
        return 1
    if normalized in ("-", "delete", "d", "-1"):
        return -1
    raise EventError(f"{where}: unknown operation {op!r}")
