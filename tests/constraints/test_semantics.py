"""Definition 4 semantics over the paper's instance: every atom type and
connective, plus violating-member diagnostics."""

from __future__ import annotations

import pytest

from repro.constraints import (
    FALSE,
    TRUE,
    parse,
    satisfies,
    satisfies_all,
    satisfies_at,
    violating_members,
)
from repro.errors import ConstraintError


class TestPathAtoms:
    def test_direct_chain_holds(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("Store -> City"))

    def test_long_chain_holds(self, loc_instance):
        node = parse("Store -> City -> Province -> SaleRegion")
        assert satisfies_at(loc_instance, "s1", node)

    def test_chain_requires_direct_edges(self, loc_instance):
        # s1 reaches Country, but not via a direct Store -> Country chain
        # of length 1 through City only: Store -> City -> Country needs a
        # direct City -> Country edge, which Toronto lacks.
        assert not satisfies_at(loc_instance, "s1", parse("Store -> City -> Country"))

    def test_washington_chain(self, loc_instance):
        assert satisfies_at(loc_instance, "s5", parse("Store -> City -> Country"))

    def test_quantifies_over_all_members(self, loc_instance):
        assert satisfies(loc_instance, parse("Store -> City"))
        assert not satisfies(loc_instance, parse("Store -> SaleRegion"))


class TestEqualityAtoms:
    def test_ancestor_name_matches(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("Store.Country = 'Canada'"))

    def test_ancestor_name_mismatch(self, loc_instance):
        assert not satisfies_at(loc_instance, "s1", parse("Store.Country = 'USA'"))

    def test_no_ancestor_in_category(self, loc_instance):
        # s1 is Canadian: no State ancestor at all.
        assert not satisfies_at(loc_instance, "s1", parse("Store.State = 'Texas'"))

    def test_self_name(self, loc_instance):
        assert satisfies_at(loc_instance, "Washington", parse("City = 'Washington'"))
        assert not satisfies_at(loc_instance, "Toronto", parse("City = 'Washington'"))


class TestComposedAtoms:
    def test_rolls_up(self, loc_instance):
        assert satisfies(loc_instance, parse("Store.SaleRegion"))
        assert satisfies(loc_instance, parse("Store.Country"))

    def test_rolls_up_to_own_category_is_true(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("Store.Store"))

    def test_through_positive(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("Store.City.Country"))
        assert satisfies_at(loc_instance, "s1", parse("Store.Province.Country"))

    def test_through_negative(self, loc_instance):
        assert not satisfies_at(loc_instance, "s1", parse("Store.State.Country"))
        # Washington's store reaches Country but not through State.
        assert not satisfies_at(loc_instance, "s5", parse("Store.State.Country"))

    def test_through_degenerate_cases(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("Store.Store.Store"))
        assert not satisfies_at(loc_instance, "s1", parse("Store.City.Store"))
        assert satisfies_at(loc_instance, "s1", parse("Store.Store.Country"))
        assert satisfies_at(loc_instance, "s1", parse("Store.City.City"))


class TestConnectives:
    def test_constants(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", TRUE)
        assert not satisfies_at(loc_instance, "s1", FALSE)

    def test_not(self, loc_instance):
        assert satisfies_at(loc_instance, "s1", parse("not Store -> SaleRegion"))

    def test_and_or(self, loc_instance):
        assert satisfies_at(
            loc_instance, "s1", parse("Store -> City and Store.Country")
        )
        assert satisfies_at(
            loc_instance, "s1", parse("Store -> SaleRegion or Store -> City")
        )

    def test_implies(self, loc_instance):
        node = parse("Store.Country = 'Canada' implies Store.Province.Country")
        assert satisfies(loc_instance, node)

    def test_iff(self, loc_instance):
        node = parse("City = 'Washington' iff City -> Country")
        assert satisfies(loc_instance, node)

    def test_xor(self, loc_instance):
        node = parse("Store.State.Country xor Store.Province.Country")
        # True for Canadian and Mexican/Texan stores, false for Washington.
        assert satisfies_at(loc_instance, "s1", node)
        assert satisfies_at(loc_instance, "s3", node)
        assert not satisfies_at(loc_instance, "s5", node)

    def test_exactly_one(self, loc_instance):
        node = parse("one(Store.State.Country, Store.Province.Country)")
        assert satisfies_at(loc_instance, "s1", node)
        assert not satisfies_at(loc_instance, "s5", node)

    def test_exactly_one_rejects_two_true(self, loc_instance):
        node = parse("one(Store.City, Store.Country)")
        assert not satisfies_at(loc_instance, "s1", node)


class TestSchemaSatisfaction:
    def test_location_satisfies_its_schema(self, loc_instance, loc_schema):
        assert satisfies_all(loc_instance, loc_schema.constraints)

    def test_violating_members_empty_when_satisfied(self, loc_instance):
        assert violating_members(loc_instance, parse("Store -> City")) == []

    def test_violating_members_lists_offenders(self, loc_instance):
        bad = violating_members(loc_instance, parse("Store -> SaleRegion"))
        assert set(bad) == {"s1", "s2", "s3", "s6"}

    def test_vacuous_on_empty_category(self, loc_schema):
        from repro.core import DimensionInstance

        empty = DimensionInstance(loc_schema.hierarchy, {}, [])
        assert satisfies(empty, parse("Store -> SaleRegion"))

    def test_constant_without_root_needs_root_for_violations(self, loc_instance):
        with pytest.raises(ConstraintError):
            violating_members(loc_instance, TRUE)

    def test_unknown_node_type_rejected(self, loc_instance):
        class Alien:
            pass

        with pytest.raises(ConstraintError):
            satisfies_at(loc_instance, "s1", Alien())  # type: ignore[arg-type]
