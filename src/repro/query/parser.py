"""A small parser for the paper's SQL-ish aggregate syntax.

Supports exactly the query shapes the paper writes::

    SELECT SUM(units) FROM D
    SELECT store, SUM(g(item)*h(date)) FROM D GROUP BY store
    SELECT class, SUM(units*price) FROM D GROUP BY class
    SELECT SUM(1), SUM(Y), SUM(Y*Y) FROM D WHERE X <= 3 AND Z == 1

i.e. a SELECT list of group-by attributes and ``SUM`` terms, the join ``D``,
an optional WHERE conjunction of comparisons, and an optional GROUP BY whose
attributes must match the non-aggregate SELECT items.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from repro.query.aggregates import Aggregate, Factor
from repro.query.functions import FunctionRegistry, identity
from repro.query.predicates import Op, Predicate
from repro.query.query import Query
from repro.util.errors import ParseError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym><=|>=|!=|<>|==|[(),*=<>]))"
)

_KEYWORDS = {"select", "from", "where", "group", "by", "and", "sum"}


class _Token(NamedTuple):
    kind: str  # "num" | "id" | "sym" | "kw" | "end"
    text: str


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"cannot tokenise at: {text[pos:pos + 20]!r}")
            break
        pos = match.end()
        if match.lastgroup == "num":
            tokens.append(_Token("num", match.group("num")))
        elif match.lastgroup == "id":
            word = match.group("id")
            kind = "kw" if word.lower() in _KEYWORDS else "id"
            tokens.append(_Token(kind, word.lower() if kind == "kw" else word))
        else:
            tokens.append(_Token("sym", match.group("sym")))
    tokens.append(_Token("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], functions: FunctionRegistry) -> None:
        self._tokens = tokens
        self._pos = 0
        self._functions = functions

    # ------------------------------------------------------------- primitives
    def _lookahead(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, got {token.text!r}")
        return token

    def _accept(self, kind: str, text: str | None = None) -> bool:
        token = self._lookahead()
        if token.kind == kind and (text is None or token.text == text):
            self._pos += 1
            return True
        return False

    # ---------------------------------------------------------------- grammar
    def parse(self, name: str) -> Query:
        self._expect("kw", "select")
        select_attrs: list[str] = []
        aggregates: list[Aggregate] = []
        while True:
            if self._lookahead() == _Token("kw", "sum"):
                aggregates.append(self._aggregate())
            else:
                select_attrs.append(self._expect("id").text)
            if not self._accept("sym", ","):
                break
        self._expect("kw", "from")
        self._expect("id")  # the join name, conventionally D
        where: list[Predicate] = []
        if self._accept("kw", "where"):
            where.append(self._comparison())
            while self._accept("kw", "and"):
                where.append(self._comparison())
        group_by: list[str] = []
        if self._accept("kw", "group"):
            self._expect("kw", "by")
            group_by.append(self._expect("id").text)
            while self._accept("sym", ","):
                group_by.append(self._expect("id").text)
        self._expect("end")

        if set(select_attrs) != set(group_by):
            raise ParseError(
                f"SELECT attributes {select_attrs} must equal GROUP BY {group_by}"
            )
        if not aggregates:
            raise ParseError("query must contain at least one SUM(...)")
        return Query(
            name=name,
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
            where=tuple(where),
        )

    def _aggregate(self) -> Aggregate:
        self._expect("kw", "sum")
        self._expect("sym", "(")
        factors: list[Factor] = []
        while True:
            token = self._next()
            if token.kind == "num":
                if float(token.text) != 1.0:
                    raise ParseError("only the literal 1 is allowed inside SUM")
            elif token.kind == "id":
                if self._accept("sym", "("):
                    inner = self._expect("id").text
                    self._expect("sym", ")")
                    factors.append(Factor(inner, self._functions.get(token.text)))
                else:
                    factors.append(Factor(token.text, identity))
            else:
                raise ParseError(f"unexpected {token.text!r} inside SUM")
            if not self._accept("sym", "*"):
                break
        self._expect("sym", ")")
        return Aggregate(tuple(factors))

    def _comparison(self) -> Predicate:
        attr = self._expect("id").text
        op_token = self._next()
        if op_token.kind != "sym":
            raise ParseError(f"expected comparison operator, got {op_token.text!r}")
        value_token = self._next()
        if value_token.kind != "num":
            raise ParseError(f"expected numeric constant, got {value_token.text!r}")
        return Predicate(attr, Op.parse(op_token.text), float(value_token.text))


def parse_query(
    text: str,
    name: str = "Q",
    functions: FunctionRegistry | None = None,
) -> Query:
    """Parse one SQL-ish aggregate query into a :class:`Query`.

    ``functions`` supplies user-defined functions referenced as ``g(attr)``;
    the built-ins (``id``, ``one``, ``sq``) are always available.
    """
    registry = functions if functions is not None else FunctionRegistry()
    return _Parser(_tokenize(text), registry).parse(name)
