"""Composed-atom expansion (Section 3.1 / 3.3) and Definition 3
validation."""

from __future__ import annotations

import pytest

from repro.constraints import (
    FALSE,
    TRUE,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    expand,
    parse,
    validate_constraint,
)
from repro.errors import ConstraintError


class TestRollsUpExpansion:
    def test_same_category_is_true(self, loc_hierarchy):
        assert expand(RollsUpAtom("Store", "Store"), loc_hierarchy) == TRUE

    def test_no_path_is_false(self, loc_hierarchy):
        assert expand(RollsUpAtom("Country", "Store"), loc_hierarchy) == FALSE

    def test_single_path_is_bare_atom(self, loc_hierarchy):
        node = expand(RollsUpAtom("Province", "SaleRegion"), loc_hierarchy)
        assert node == PathAtom("Province", ("SaleRegion",))

    def test_multiple_paths_disjoined(self, loc_hierarchy):
        node = expand(RollsUpAtom("Store", "SaleRegion"), loc_hierarchy)
        assert isinstance(node, Or)
        paths = {atom.full_path for atom in node.atoms()}
        assert ("Store", "SaleRegion") in paths
        assert ("Store", "City", "Province", "SaleRegion") in paths
        assert ("Store", "City", "State", "SaleRegion") in paths
        assert len(paths) == 3

    def test_country_expansion_counts_paths(self, loc_hierarchy):
        node = expand(RollsUpAtom("Store", "Country"), loc_hierarchy)
        paths = {atom.full_path for atom in node.atoms()}
        # Store -> City -> Country, Store -> City -> State -> Country,
        # Store -> City -> {State, Province} -> SaleRegion -> Country,
        # Store -> SaleRegion -> Country.
        assert len(paths) == 5


class TestThroughExpansion:
    def test_all_equal_true(self, loc_hierarchy):
        assert expand(ThroughAtom("Store", "Store", "Store"), loc_hierarchy) == TRUE

    def test_target_is_root_false(self, loc_hierarchy):
        assert expand(ThroughAtom("Store", "City", "Store"), loc_hierarchy) == FALSE

    def test_via_is_root_reduces_to_rollsup(self, loc_hierarchy):
        direct = expand(ThroughAtom("Store", "Store", "Country"), loc_hierarchy)
        rolls = expand(RollsUpAtom("Store", "Country"), loc_hierarchy)
        assert direct == rolls

    def test_via_equals_target(self, loc_hierarchy):
        via = expand(ThroughAtom("Store", "City", "City"), loc_hierarchy)
        rolls = expand(RollsUpAtom("Store", "City"), loc_hierarchy)
        assert via == rolls

    def test_distinct_keeps_only_paths_through_via(self, loc_hierarchy):
        node = expand(ThroughAtom("Store", "State", "Country"), loc_hierarchy)
        paths = {atom.full_path for atom in node.atoms()}
        assert all("State" in p[1:-1] for p in paths)
        assert ("Store", "City", "State", "Country") in paths
        assert ("Store", "City", "State", "SaleRegion", "Country") in paths
        assert len(paths) == 2

    def test_no_qualifying_path_is_false(self, loc_hierarchy):
        # No path from Province to Country through Store.
        assert (
            expand(ThroughAtom("Province", "Store", "Country"), loc_hierarchy) == FALSE
        )


class TestExpandTraversal:
    def test_expansion_recurses_into_connectives(self, loc_hierarchy):
        node = parse("Store.SaleRegion implies not Store.Country")
        expanded = expand(node, loc_hierarchy)
        for atom in expanded.atoms():
            assert isinstance(atom, PathAtom)

    def test_plain_atoms_unchanged(self, loc_hierarchy):
        node = parse("Store -> City and Store.Country = 'Canada'")
        assert expand(node, loc_hierarchy) == node


class TestValidation:
    def test_valid_constraint_returns_root(self, loc_hierarchy):
        assert validate_constraint(loc_hierarchy, parse("Store -> City")) == "Store"

    def test_rejects_root_all(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("All -> Store"))

    def test_rejects_unknown_category_in_path(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store -> Galaxy"))

    def test_rejects_non_edge_path(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store -> Country"))

    def test_rejects_non_simple_path(self, loc_hierarchy):
        node = PathAtom("Store", ("City", "State", "City"))
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, node)

    def test_rejects_mixed_roots(self, loc_hierarchy):
        node = parse("Store -> City and City -> State")
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, node)

    def test_constant_needs_explicit_root(self, loc_hierarchy):
        from repro.constraints import TRUE

        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, TRUE)
        assert validate_constraint(loc_hierarchy, TRUE, root="Store") == "Store"

    def test_explicit_root_must_match(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store -> City"), root="City")

    def test_rejects_unknown_equality_category(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store.Galaxy = 'x'"))

    def test_rejects_unknown_composed_categories(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store.Galaxy"))
        with pytest.raises(ConstraintError):
            validate_constraint(loc_hierarchy, parse("Store.Galaxy.Country"))
