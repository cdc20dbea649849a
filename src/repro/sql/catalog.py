"""Schema catalog: relations, columns and SQL-to-storage type mapping."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from repro.errors import CatalogError
from repro.sql.ast import CreateRelation


class SqlType(Enum):
    """Storage types.

    ``DATE`` values are stored as integer date keys (``yyyymmdd``), the SSB
    convention, so every type is either numeric or string at runtime.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INT, SqlType.FLOAT)

    @property
    def python_types(self) -> tuple[type, ...]:
        """The Python types a value of this type is: INT takes ``int``,
        FLOAT ``int`` or ``float``, STRING ``str``.  ``bool`` is an
        ``int`` to Python but not to a map, and ``None`` is no value: no
        column takes either."""
        if self is SqlType.STRING:
            return (str,)
        return (int, float) if self is SqlType.FLOAT else (int,)


_TYPE_MAP = {
    "INT": SqlType.INT,
    "INTEGER": SqlType.INT,
    "BIGINT": SqlType.INT,
    "DATE": SqlType.INT,
    "FLOAT": SqlType.FLOAT,
    "DOUBLE": SqlType.FLOAT,
    "DECIMAL": SqlType.FLOAT,
    "VARCHAR": SqlType.STRING,
    "CHAR": SqlType.STRING,
    "TEXT": SqlType.STRING,
    "STRING": SqlType.STRING,
}


def sql_type_from_name(type_name: str) -> SqlType:
    try:
        return _TYPE_MAP[type_name.upper()]
    except KeyError:
        raise CatalogError(f"unknown SQL type {type_name!r}") from None


@dataclass(frozen=True)
class Column:
    name: str
    type: SqlType


@dataclass(frozen=True)
class Relation:
    """A base relation: a named schema that is either a stream or a table.

    Both kinds receive insert/delete events at runtime; the distinction is
    informational (tables are bulk-loaded once, streams update continuously).
    """

    name: str
    columns: tuple[Column, ...]
    is_stream: bool = True

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"duplicate column {col.name!r} in relation {self.name!r}"
                )
            seen.add(lowered)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        raise CatalogError(f"relation {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.name.lower() == lowered for c in self.columns)


class Catalog:
    """A case-insensitive registry of relations."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: dict[str, Relation] = {}
        for relation in relations:
            self.define(relation)

    def define(self, relation: Relation) -> Relation:
        key = relation.name.lower()
        if key in self._relations:
            raise CatalogError(f"relation {relation.name!r} already defined")
        self._relations[key] = relation
        return relation

    def define_from_ddl(self, statement: CreateRelation) -> Relation:
        columns = tuple(
            Column(c.name, sql_type_from_name(c.type_name)) for c in statement.columns
        )
        return self.define(
            Relation(name=statement.name, columns=columns, is_stream=statement.is_stream)
        )

    @classmethod
    def from_script(cls, ddl: str) -> "Catalog":
        """Build a catalog from a script of CREATE statements."""
        from repro.sql.parser import parse_script

        catalog = cls()
        for statement in parse_script(ddl):
            if not isinstance(statement, CreateRelation):
                raise CatalogError("catalog scripts may only contain CREATE statements")
            catalog.define_from_ddl(statement)
        return catalog

    def get(self, name: str) -> Relation:
        try:
            return self._relations[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)
