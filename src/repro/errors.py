"""Exception hierarchy for the repro (DBToaster reproduction) library.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the engine can catch one root type.  Sub-hierarchies
mirror the pipeline stages: SQL front end, algebraic compilation, code
generation and runtime execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every exception raised by the repro library."""


class SQLError(ReproError):
    """Problem in the SQL front end (lexing, parsing or binding)."""


class LexerError(SQLError):
    """Invalid character sequence in the SQL input."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(SQLError):
    """SQL input does not match the grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindError(SQLError):
    """Name resolution or type checking failed on a parsed query."""


class CatalogError(SQLError):
    """Unknown or inconsistent schema objects (relations, columns)."""


class AlgebraError(ReproError):
    """Malformed calculus expression or unsupported algebraic operation."""


class SchemaError(AlgebraError):
    """Expression violates the input/output variable discipline."""


class TranslationError(AlgebraError):
    """SQL construct that cannot be translated to the map algebra."""


class CompilationError(ReproError):
    """Recursive delta compilation failed or hit an unsupported shape."""


class UnsupportedQueryError(ReproError):
    """A baseline engine cannot run this query (a stream operator
    network and subqueries, sqlite re-evaluation and division)."""


class CodegenError(ReproError):
    """Code generation produced invalid source or hit an unsupported IR."""


class RuntimeEngineError(ReproError):
    """Errors raised while the compiled engine is processing events."""


class UnknownStreamError(RuntimeEngineError):
    """An event referenced a relation the engine does not know about."""


class EventError(RuntimeEngineError):
    """Malformed event (wrong arity, wrong types, bad operation)."""


class ServingError(RuntimeEngineError):
    """Problem in the view-subscription serving layer (bad protocol
    frame, unknown view, a dropped or misbehaving peer)."""


class DurabilityError(RuntimeEngineError):
    """Problem in the durability layer (WAL, snapshots, recovery)."""


class WalCorruptionError(DurabilityError):
    """A write-ahead log frame or segment failed validation.

    Raised only for *interior* corruption — a bad frame followed by good
    data, which no crash can produce.  A torn tail (the partial frame a
    crash leaves at the end of the log) is expected damage and is
    truncated silently on open instead.
    """


class RecoveryError(DurabilityError):
    """A durable directory cannot be recovered into this engine
    (fingerprint mismatch, unreadable metadata, snapshot/log conflict)."""


class ResumeGapError(DurabilityError):
    """A requested WAL replay position predates the log's oldest
    replayable frame (checkpoint truncation, or an ``ensure_lsn``
    forward gap at the start of a fresh log).

    Raised instead of silently returning an empty or incomplete suffix:
    a reader asking for ``lsn > requested_lsn`` cannot be served from
    this log alone and must fall back to a snapshot (a resuming
    subscriber re-snapshots; recovery needs a valid snapshot covering
    the missing prefix).
    """

    def __init__(self, requested_lsn: int, oldest_lsn: int) -> None:
        super().__init__(
            f"cannot replay from LSN {requested_lsn}: the log's oldest "
            f"replayable frame is LSN {oldest_lsn} (earlier frames were "
            "truncated at a checkpoint or never logged); start from a "
            "snapshot at or below the requested LSN instead"
        )
        self.requested_lsn = requested_lsn
        self.oldest_lsn = oldest_lsn
