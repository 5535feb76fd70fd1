"""Parser for the textual constraint syntax.

Grammar (see :mod:`repro.constraints.printer` for the correspondence with
the paper's notation)::

    constraint := implies
    implies    := iff ("implies" implies)?           # right associative
    iff        := xor ("iff" xor)*                   # left associative
    xor        := or_ ("xor" or_)*                   # left associative
    or_        := and_ ("or" and_)*
    and_       := unary ("and" unary)*
    unary      := "not" unary | primary
    primary    := "true" | "false"
                | "one" "(" constraint ("," constraint)* ")"
                | "(" constraint ")"
                | atom
    atom       := IDENT "->" IDENT ("->" IDENT)*     # path atom
                | IDENT "." IDENT "." IDENT          # through atom
                | IDENT "." IDENT "=" constant      # equality atom
                | IDENT "." IDENT CMP NUMBER         # comparison atom
                | IDENT "." IDENT                    # rolls-up atom
                | IDENT "=" constant                 # self equality atom
                | IDENT CMP NUMBER                   # self comparison atom
    constant   := "'" chars "'" | IDENT | NUMBER
    CMP        := "<" | "<=" | ">" | ">=" | "!="     # Section 6 extension

Keywords (``and or not implies iff xor one true false``) are reserved and
may not be used as category names in the textual syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.constraints.ast import (
    FALSE,
    TRUE,
    And,
    ComparisonAtom,
    EqualityAtom,
    ExactlyOne,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    Xor,
)
from repro.errors import ConstraintSyntaxError

_KEYWORDS = {"and", "or", "not", "implies", "iff", "xor", "one", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<dot>\.)
  | (?P<cmp><=|>=|!=|<|>)
  | (?P<eq>=)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ConstraintSyntaxError(
                f"unexpected character {text[position]!r}", text, position
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing -------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ConstraintSyntaxError(
                f"expected {kind}, found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text == word

    def eat_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse(self) -> Node:
        node = self.parse_implies()
        token = self.peek()
        if token.kind != "eof":
            raise ConstraintSyntaxError(
                f"trailing input starting at {token.text!r}", self.text, token.position
            )
        return node

    def parse_implies(self) -> Node:
        left = self.parse_iff()
        if self.eat_keyword("implies"):
            right = self.parse_implies()
            return Implies(left, right)
        return left

    def parse_iff(self) -> Node:
        node = self.parse_xor()
        while self.eat_keyword("iff"):
            node = Iff(node, self.parse_xor())
        return node

    def parse_xor(self) -> Node:
        node = self.parse_or()
        while self.eat_keyword("xor"):
            node = Xor(node, self.parse_or())
        return node

    def parse_or(self) -> Node:
        operands = [self.parse_and()]
        while self.eat_keyword("or"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def parse_and(self) -> Node:
        operands = [self.parse_unary()]
        while self.eat_keyword("and"):
            operands.append(self.parse_unary())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def parse_unary(self) -> Node:
        if self.eat_keyword("not"):
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Node:
        token = self.peek()
        if token.kind == "lparen":
            self.advance()
            node = self.parse_implies()
            self.expect("rparen")
            return node
        if token.kind == "ident":
            if token.text == "true":
                self.advance()
                return TRUE
            if token.text == "false":
                self.advance()
                return FALSE
            if token.text == "one":
                return self.parse_exactly_one()
            return self.parse_atom()
        raise ConstraintSyntaxError(
            f"expected an atom, found {token.text or 'end of input'!r}",
            self.text,
            token.position,
        )

    def parse_exactly_one(self) -> Node:
        self.expect("ident")  # the keyword 'one'
        self.expect("lparen")
        operands = [self.parse_implies()]
        while self.peek().kind == "comma":
            self.advance()
            operands.append(self.parse_implies())
        self.expect("rparen")
        return ExactlyOne(tuple(operands))

    def parse_atom(self) -> Node:
        root = self.parse_category_name()
        token = self.peek()
        if token.kind == "arrow":
            path: List[str] = []
            while self.peek().kind == "arrow":
                self.advance()
                path.append(self.parse_category_name())
            return PathAtom(root, tuple(path))
        if token.kind == "eq":
            self.advance()
            constant = self.parse_constant()
            return EqualityAtom(root, root, constant)
        if token.kind == "cmp":
            op = self.advance().text
            constant = self.parse_numeric_constant()
            return ComparisonAtom(root, root, op, constant)
        if token.kind == "dot":
            self.advance()
            second = self.parse_category_name()
            token = self.peek()
            if token.kind == "dot":
                self.advance()
                third = self.parse_category_name()
                if self.peek().kind == "eq":
                    raise ConstraintSyntaxError(
                        "equality atoms take a single category "
                        "(write root.category = 'constant')",
                        self.text,
                        self.peek().position,
                    )
                return ThroughAtom(root, second, third)
            if token.kind == "eq":
                self.advance()
                constant = self.parse_constant()
                return EqualityAtom(root, second, constant)
            if token.kind == "cmp":
                op = self.advance().text
                constant = self.parse_numeric_constant()
                return ComparisonAtom(root, second, op, constant)
            return RollsUpAtom(root, second)
        raise ConstraintSyntaxError(
            f"expected '->', '.', or '=' after category {root!r}",
            self.text,
            token.position,
        )

    def parse_category_name(self) -> str:
        token = self.expect("ident")
        if token.text in _KEYWORDS:
            raise ConstraintSyntaxError(
                f"keyword {token.text!r} cannot be used as a category name",
                self.text,
                token.position,
            )
        return token.text

    def parse_numeric_constant(self) -> str:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return token.text
        raise ConstraintSyntaxError(
            "comparison atoms need a numeric constant",
            self.text,
            token.position,
        )

    def parse_constant(self) -> str:
        token = self.peek()
        if token.kind == "string":
            self.advance()
            return token.text[1:-1].replace("''", "'")
        if token.kind == "ident" and token.text not in _KEYWORDS:
            self.advance()
            return token.text
        if token.kind == "number":
            self.advance()
            return token.text
        raise ConstraintSyntaxError(
            "expected a constant (quoted string, identifier, or number)",
            self.text,
            token.position,
        )


def parse(text: str) -> Node:
    """Parse a constraint expression.

    >>> parse("Store -> City")
    Store -> City
    >>> parse("City = 'Washington' iff City.Country")
    City = 'Washington' iff City.Country
    """
    return _Parser(text).parse()


def parse_many(text: str) -> List[Node]:
    """Parse a whole constraint set: one constraint per non-blank line,
    ``#`` comments allowed."""
    constraints: List[Node] = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            constraints.append(parse(stripped))
    return constraints
