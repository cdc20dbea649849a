"""In-memory multiset tables for the interpreted engines."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import EventError
from repro.sql.catalog import Catalog, Relation
from repro.runtime.events import StreamEvent


class Table:
    """A bag of tuples (tuple -> multiplicity >= 1)."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.rows: dict[tuple, int] = {}

    def insert(self, values: tuple) -> None:
        if len(values) != self.relation.arity:
            raise EventError(
                f"arity mismatch inserting into {self.relation.name}: {values!r}"
            )
        self.rows[values] = self.rows.get(values, 0) + 1

    def delete(self, values: tuple) -> None:
        current = self.rows.get(values, 0)
        if current <= 0:
            raise EventError(
                f"delete of absent tuple from {self.relation.name}: {values!r}"
            )
        if current == 1:
            del self.rows[values]
        else:
            self.rows[values] = current - 1

    def scan(self) -> Iterator[tuple[tuple, int]]:
        return iter(self.rows.items())

    def __len__(self) -> int:
        return sum(self.rows.values())

    def distinct_count(self) -> int:
        return len(self.rows)


class Database:
    """A set of tables driven by the same event stream as the delta engine."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.tables: dict[str, Table] = {
            relation.name: Table(relation) for relation in catalog
        }

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            try:
                relation = self.catalog.get(name)
            except Exception:
                raise EventError(f"unknown relation {name!r}") from None
            return self.tables[relation.name]

    def apply(self, event: StreamEvent) -> None:
        table = self.table(event.relation)
        if event.sign == 1:
            table.insert(event.values)
        else:
            table.delete(event.values)

    def load(self, relation: str, rows: Iterable[Sequence]) -> int:
        table = self.table(relation)
        count = 0
        for row in rows:
            table.insert(tuple(row))
            count += 1
        return count

    def as_gmrs(self) -> dict[str, dict[tuple, int]]:
        """The database as GMRs, for the calculus evaluator."""
        return {name: table.rows for name, table in self.tables.items()}

    def total_rows(self) -> int:
        return sum(len(table) for table in self.tables.values())
