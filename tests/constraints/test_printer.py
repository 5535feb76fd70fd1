"""Printer tests: rendering of every node type and the parse/unparse
round trip on hand-written constraints."""

from __future__ import annotations

import pytest

from repro.constraints import (
    FALSE,
    TRUE,
    And,
    EqualityAtom,
    ExactlyOne,
    Implies,
    Not,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    parse,
    unparse,
)


class TestRendering:
    def test_path_atom(self):
        assert unparse(PathAtom("Store", ("City", "Province"))) == (
            "Store -> City -> Province"
        )

    def test_rolls_up(self):
        assert unparse(RollsUpAtom("Store", "SaleRegion")) == "Store.SaleRegion"

    def test_through(self):
        assert unparse(ThroughAtom("Store", "City", "Country")) == "Store.City.Country"

    def test_equality_qualified(self):
        assert unparse(EqualityAtom("Store", "Country", "Canada")) == (
            "Store.Country = 'Canada'"
        )

    def test_equality_self(self):
        assert unparse(EqualityAtom("City", "City", "Washington")) == (
            "City = 'Washington'"
        )

    def test_equality_escapes_quotes(self):
        assert unparse(EqualityAtom("City", "City", "O'Brien")) == "City = 'O''Brien'"

    def test_constants(self):
        assert unparse(TRUE) == "true"
        assert unparse(FALSE) == "false"

    def test_not(self):
        a = PathAtom("A", ("B",))
        assert unparse(Not(a)) == "not A -> B"

    def test_nested_or_in_and_gets_parens(self):
        a, b, c = (PathAtom("A", (x,)) for x in ("B", "C", "D"))
        assert unparse(And((a, Or((b, c))))) == "A -> B and (A -> C or A -> D)"

    def test_and_in_or_needs_no_parens(self):
        a, b, c = (PathAtom("A", (x,)) for x in ("B", "C", "D"))
        assert unparse(Or((a, And((b, c))))) == "A -> B or A -> C and A -> D"

    def test_exactly_one(self):
        a, b = PathAtom("A", ("B",)), PathAtom("A", ("C",))
        assert unparse(ExactlyOne((a, b))) == "one(A -> B, A -> C)"

    def test_implies(self):
        a, b = PathAtom("A", ("B",)), PathAtom("A", ("C",))
        assert unparse(Implies(a, b)) == "A -> B implies A -> C"

    def test_repr_delegates_to_unparse(self):
        node = parse("A -> B or A -> C")
        assert repr(node) == "A -> B or A -> C"


ROUND_TRIP_CASES = [
    "Store -> City",
    "Store -> City -> Province",
    "Store.SaleRegion",
    "Store.City.Country",
    "Store.Country = 'Canada'",
    "City = 'Washington'",
    "not Store -> City",
    "not not Store -> City",
    "A -> B and A -> C",
    "A -> B or A -> C and A -> D",
    "A -> B and (A -> C or A -> D)",
    "A -> B implies A -> C implies A -> D",
    "A -> B iff A -> C",
    "A -> B xor A -> C xor A -> D",
    "one(A -> B, A -> C, A -> D)",
    "City = 'Washington' iff City -> Country",
    "City = 'Washington' implies City.Country = 'USA'",
    "State.Country = 'Mexico' or State.Country = 'USA'",
    "State.Country = 'Mexico' iff State -> SaleRegion",
    "not (A -> B and A -> C)",
    "one(A -> B and A -> C, not A -> D)",
    "true",
    "false",
    "A -> B implies (A -> C implies A -> D) and A -> E",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_parse_unparse_parse_fixpoint(self, text):
        node = parse(text)
        rendered = unparse(node)
        assert parse(rendered) == node

    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_unparse_is_canonical(self, text):
        node = parse(text)
        rendered = unparse(node)
        assert unparse(parse(rendered)) == rendered
