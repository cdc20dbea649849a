"""Recursive-descent parser for the supported SQL dialect."""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast import (
    AggregateCall,
    Arith,
    BetweenExpr,
    BoolOp,
    ColumnDef,
    ColumnRef,
    Comparison,
    CreateRelation,
    ExistsExpr,
    InExpr,
    Literal,
    Not,
    ScalarSubquery,
    SelectItem,
    SelectQuery,
    SqlExpr,
    Star,
    Statement,
    TableRef,
    UnaryMinus,
)
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

_AGG_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
#: The user-facing supported-aggregate list quoted by every unsupported-
#: aggregate error (satisfying "name the aggregate, list the set").
_SUPPORTED_AGGS = "SUM, COUNT, AVG, MIN, MAX and COUNT(DISTINCT ...)"
_TYPE_KEYWORDS = (
    "INT",
    "INTEGER",
    "BIGINT",
    "FLOAT",
    "DOUBLE",
    "DECIMAL",
    "VARCHAR",
    "CHAR",
    "TEXT",
    "STRING",
    "DATE",
)


def parse_query(text: str) -> SelectQuery:
    """Parse a single SELECT query."""
    statement = parse_statement(text)
    if not isinstance(statement, SelectQuery):
        raise ParseError("expected a SELECT query")
    return statement


def parse_statement(text: str) -> Statement:
    """Parse a single statement (SELECT or CREATE)."""
    statements = parse_script(text)
    if len(statements) != 1:
        raise ParseError(f"expected exactly one statement, found {len(statements)}")
    return statements[0]


def parse_script(text: str) -> list[Statement]:
    """Parse a ``;``-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    return parser.script()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        tok = self._current
        return ParseError(f"{message}, found {tok.value!r}", tok.line, tok.column)

    def _expect(self, token_type: TokenType, what: str) -> Token:
        if self._current.type is not token_type:
            raise self._error(f"expected {what}")
        return self._advance()

    def _expect_keyword(self, *words: str) -> Token:
        if not self._current.is_keyword(*words):
            raise self._error(f"expected {' or '.join(words)}")
        return self._advance()

    def _accept_keyword(self, *words: str) -> bool:
        if self._current.is_keyword(*words):
            self._advance()
            return True
        return False

    def _identifier(self, what: str = "identifier") -> str:
        token = self._expect(TokenType.IDENTIFIER, what)
        return token.value  # type: ignore[return-value]

    # -- grammar ------------------------------------------------------------

    def script(self) -> list[Statement]:
        statements: list[Statement] = []
        while self._current.type is not TokenType.EOF:
            if self._current.type is TokenType.SEMICOLON:
                self._advance()
                continue
            statements.append(self.statement())
        return statements

    def statement(self) -> Statement:
        if self._current.is_keyword("CREATE"):
            return self.create_relation()
        if self._current.is_keyword("SELECT"):
            return self.select_query()
        raise self._error("expected SELECT or CREATE")

    def create_relation(self) -> CreateRelation:
        self._expect_keyword("CREATE")
        kind = self._expect_keyword("TABLE", "STREAM")
        name = self._identifier("relation name")
        self._expect(TokenType.LPAREN, "'('")
        columns = [self.column_def()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            columns.append(self.column_def())
        self._expect(TokenType.RPAREN, "')'")
        return CreateRelation(
            name=name, columns=tuple(columns), is_stream=(kind.value == "STREAM")
        )

    def column_def(self) -> ColumnDef:
        name = self._identifier("column name")
        if not self._current.is_keyword(*_TYPE_KEYWORDS):
            raise self._error("expected a column type")
        type_name = self._advance().value
        # Optional precision/length arguments, e.g. VARCHAR(25), DECIMAL(12,2).
        if self._current.type is TokenType.LPAREN:
            self._advance()
            self._expect(TokenType.INTEGER, "type length")
            if self._current.type is TokenType.COMMA:
                self._advance()
                self._expect(TokenType.INTEGER, "type scale")
            self._expect(TokenType.RPAREN, "')'")
        return ColumnDef(name=name, type_name=str(type_name))

    def select_query(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self.select_item()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            items.append(self.select_item())

        self._expect_keyword("FROM")
        tables = [self.table_ref()]
        join_predicates: list[SqlExpr] = []
        while True:
            if self._current.type is TokenType.COMMA:
                self._advance()
                tables.append(self.table_ref())
                continue
            if self._current.is_keyword("INNER", "JOIN"):
                self._accept_keyword("INNER")
                self._expect_keyword("JOIN")
                tables.append(self.table_ref())
                self._expect_keyword("ON")
                join_predicates.append(self.expression())
                continue
            break

        where = None
        if self._accept_keyword("WHERE"):
            where = self.expression()
        if join_predicates:
            conjuncts = list(join_predicates)
            if where is not None:
                conjuncts.append(where)
            where = conjuncts[0] if len(conjuncts) == 1 else BoolOp("AND", tuple(conjuncts))

        group_by: list[ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.column_ref())
            while self._current.type is TokenType.COMMA:
                self._advance()
                group_by.append(self.column_ref())

        if self._current.is_keyword("HAVING"):
            raise self._error("HAVING is not supported")

        return SelectQuery(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            distinct=distinct,
        )

    def select_item(self) -> SelectItem:
        expr = self.expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("select alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._identifier()
        return SelectItem(expr=expr, alias=alias)

    def table_ref(self) -> TableRef:
        name = self._identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("table alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._identifier()
        return TableRef(name=name, alias=alias)

    def column_ref(self) -> ColumnRef:
        first = self._identifier("column name")
        if self._current.type is TokenType.DOT:
            self._advance()
            second = self._identifier("column name")
            return ColumnRef(table=first, column=second)
        return ColumnRef(table=None, column=first)

    # -- expressions (precedence: OR < AND < NOT < predicate < + - < * /) ----

    def expression(self) -> SqlExpr:
        return self.or_expr()

    def or_expr(self) -> SqlExpr:
        operands = [self.and_expr()]
        while self._accept_keyword("OR"):
            operands.append(self.and_expr())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("OR", tuple(operands))

    def and_expr(self) -> SqlExpr:
        operands = [self.not_expr()]
        while self._accept_keyword("AND"):
            operands.append(self.not_expr())
        if len(operands) == 1:
            return operands[0]
        return BoolOp("AND", tuple(operands))

    def not_expr(self) -> SqlExpr:
        if self._accept_keyword("NOT"):
            return Not(self.not_expr())
        return self.predicate()

    def predicate(self) -> SqlExpr:
        if self._current.is_keyword("EXISTS"):
            self._advance()
            self._expect(TokenType.LPAREN, "'('")
            query = self.select_query()
            self._expect(TokenType.RPAREN, "')'")
            return ExistsExpr(query)

        left = self.add_expr()

        if self._current.type is TokenType.OPERATOR and self._current.value in (
            "=",
            "<>",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            op = self._advance().value
            right = self.add_expr()
            normalized = "!=" if op == "<>" else op
            return Comparison(str(normalized), left, right)

        if self._current.is_keyword("BETWEEN"):
            self._advance()
            low = self.add_expr()
            self._expect_keyword("AND")
            high = self.add_expr()
            return BetweenExpr(left, low, high)

        negated = False
        if self._current.is_keyword("NOT") and self._peek(1).is_keyword("IN"):
            self._advance()
            negated = True
        if self._current.is_keyword("IN"):
            self._advance()
            self._expect(TokenType.LPAREN, "'('")
            if not self._current.is_keyword("SELECT"):
                return self._in_list(left, negated)
            query = self.select_query()
            self._expect(TokenType.RPAREN, "')'")
            membership = InExpr(left, query)
            return Not(membership) if negated else membership

        return left

    def _in_list(self, left: SqlExpr, negated: bool) -> SqlExpr:
        """``left [NOT] IN (e1, e2, ...)`` past its ``(``: an ``OR`` of
        equalities, or for ``NOT IN`` an ``AND`` of ``<>``."""
        items = [self.add_expr()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            items.append(self.add_expr())
        self._expect(TokenType.RPAREN, "')'")
        op = "!=" if negated else "="
        tests = tuple(Comparison(op, left, item) for item in items)
        if len(tests) == 1:
            return tests[0]
        return BoolOp("AND" if negated else "OR", tests)

    def add_expr(self) -> SqlExpr:
        left = self.mul_expr()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in ("+", "-")
        ):
            op = self._advance().value
            right = self.mul_expr()
            left = Arith(str(op), left, right)
        return left

    def mul_expr(self) -> SqlExpr:
        left = self.unary_expr()
        while (
            self._current.type is TokenType.OPERATOR
            and self._current.value in ("*", "/")
        ):
            op = self._advance().value
            right = self.unary_expr()
            left = Arith(str(op), left, right)
        return left

    def unary_expr(self) -> SqlExpr:
        if self._current.type is TokenType.OPERATOR and self._current.value == "-":
            self._advance()
            return UnaryMinus(self.unary_expr())
        if self._current.type is TokenType.OPERATOR and self._current.value == "+":
            self._advance()
            return self.unary_expr()
        return self.primary()

    def primary(self) -> SqlExpr:
        token = self._current

        if token.type in (TokenType.INTEGER, TokenType.FLOAT, TokenType.STRING):
            self._advance()
            return Literal(token.value)  # type: ignore[arg-type]

        if token.is_keyword(*_AGG_FUNCS):
            func = str(self._advance().value)
            self._expect(TokenType.LPAREN, "'('")
            distinct = False
            if (
                self._current.type is TokenType.OPERATOR
                and self._current.value == "*"
            ):
                self._advance()
                argument: SqlExpr = Star()
            else:
                if self._current.is_keyword("DISTINCT"):
                    if func != "COUNT":
                        raise self._error(
                            f"unsupported aggregate {func}(DISTINCT ...); "
                            f"supported aggregates are {_SUPPORTED_AGGS}"
                        )
                    self._advance()
                    distinct = True
                argument = self.expression()
            self._expect(TokenType.RPAREN, "')'")
            return AggregateCall(func=func, argument=argument, distinct=distinct)

        if token.type is TokenType.LPAREN:
            self._advance()
            if self._current.is_keyword("SELECT"):
                query = self.select_query()
                self._expect(TokenType.RPAREN, "')'")
                return ScalarSubquery(query)
            inner = self.expression()
            self._expect(TokenType.RPAREN, "')'")
            return inner

        if token.type is TokenType.IDENTIFIER:
            # Reject unknown function calls here, where the name is still
            # in hand — letting `f(x)` parse as a column reference used to
            # surface much later as a confusing translation error.
            if self._peek(1).type is TokenType.LPAREN:
                raise self._error(
                    f"unsupported aggregate or function "
                    f"{str(token.value).upper()}(...); supported aggregates "
                    f"are {_SUPPORTED_AGGS}"
                )
            return self.column_ref()

        raise self._error("expected an expression")
