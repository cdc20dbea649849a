"""Stream sources for standalone mode.

The paper's runtime accepts input "over a network interface or archived
stream"; here the equivalents are iterables, CSV files and generator
adapters.  Every source yields :class:`~repro.runtime.events.StreamEvent`
objects, so ``engine.process_stream(source)`` works uniformly — grouping
into per-relation batches (inserts and deletes together) is
``process_stream``'s job (:func:`repro.runtime.events.batches`), shard routing
:class:`~repro.runtime.engine.ShardedEngine`'s.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import EventError
from repro.sql.catalog import Catalog, Relation, SqlType
from repro.runtime.events import StreamEvent


def list_source(events: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
    """A trivial adapter over an in-memory event list."""
    yield from events


def relation_loader(relation: str, rows: Iterable[Sequence]) -> Iterator[StreamEvent]:
    """Bulk inserts for loading a static table."""
    for row in rows:
        yield StreamEvent(relation, 1, tuple(row))


def csv_source(
    path: str | Path,
    catalog: Catalog,
    relation_column: str = "relation",
    op_column: str = "op",
) -> Iterator[StreamEvent]:
    """An archived update stream in CSV form.

    Expected header: ``op,relation,<value0>,<value1>,...`` where ``op`` is
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


def write_csv(path: str | Path, events: Iterable[StreamEvent]) -> int:
    """Archive an event stream to CSV (the inverse of :func:`csv_source`)."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["op", "relation", "values..."])
        for event in events:
            writer.writerow(
                ["+" if event.sign == 1 else "-", event.relation, *event.values]
            )
            count += 1
    return count


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
