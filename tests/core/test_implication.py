"""Implication tests (Theorem 2): verdicts, counterexamples, and the
schema audit."""

from __future__ import annotations

import pytest

from repro.constraints import parse, satisfies, satisfies_all
from repro.core import (
    ALL,
    DimensionSchema,
    HierarchySchema,
    equivalent,
    implies,
    is_category_satisfiable,
    is_implied,
    prune_unsatisfiable,
    satisfiability_report,
    unsatisfiable_categories,
)
from repro.errors import ConstraintError


class TestImplication:
    def test_sigma_members_are_implied(self, loc_schema):
        for node in loc_schema.constraints:
            assert is_implied(loc_schema, node), str(node)

    def test_example2_country_through_city(self, loc_schema):
        # Country is reachable only through City in every instance.
        assert is_implied(loc_schema, "Store.Country implies Store.City.Country")

    def test_composed_consequences(self, loc_schema):
        assert is_implied(loc_schema, "Store.Country")
        assert is_implied(loc_schema, "Store.City")
        assert is_implied(loc_schema, "City.Country")

    def test_non_implications(self, loc_schema):
        assert not is_implied(loc_schema, "Store -> SaleRegion")
        assert not is_implied(loc_schema, "Store.Province.Country")
        assert not is_implied(loc_schema, "City -> Province")

    def test_accepts_ast_nodes(self, loc_schema):
        node = parse("Store -> City")
        assert implies(loc_schema, node).implied

    def test_rejects_constraint_over_unknown_category(self, loc_schema):
        with pytest.raises(ConstraintError):
            implies(loc_schema, "Store -> Galaxy")

    def test_rejects_constant_constraint(self, loc_schema):
        with pytest.raises(ConstraintError):
            implies(loc_schema, "true")


class TestCounterexamples:
    def test_counterexample_violates_constraint(self, loc_schema):
        target = parse("Store.Province.Country")
        result = implies(loc_schema, target)
        assert not result.implied
        instance = result.counterexample_instance(loc_schema)
        assert instance is not None
        assert instance.is_valid()
        assert satisfies_all(instance, loc_schema.constraints)
        assert not satisfies(instance, target)

    def test_no_counterexample_when_implied(self, loc_schema):
        result = implies(loc_schema, "Store -> City")
        assert result.implied
        assert result.counterexample is None
        assert result.counterexample_instance(loc_schema) is None

    def test_counterexample_for_example10(self, loc_schema):
        # Country is NOT summarizable from {State, Province}: the witness
        # must be the Washington structure.
        target = parse(
            "Store.Country implies "
            "one(Store.State.Country, Store.Province.Country)"
        )
        result = implies(loc_schema, target)
        assert not result.implied
        assert result.counterexample.name_of("City") == "Washington"


class TestEquivalence:
    def test_constraint_equivalent_to_itself(self, loc_schema):
        assert equivalent(loc_schema, "Store -> City", "Store -> City")

    def test_equivalence_uses_sigma(self, loc_schema):
        # Under locationSch, every store reaches SaleRegion and Country,
        # so the two composed atoms are both always true, hence equivalent.
        assert equivalent(loc_schema, "Store.SaleRegion", "Store.Country")

    def test_non_equivalence(self, loc_schema):
        assert not equivalent(
            loc_schema, "Store -> SaleRegion", "Store -> City"
        )


class TestAudit:
    def test_location_schema_fully_satisfiable(self, loc_schema):
        assert unsatisfiable_categories(loc_schema) == []

    def test_example11_detects_saleregion(self, loc_schema):
        extended = loc_schema.with_constraints(["not SaleRegion -> Country"])
        bad = unsatisfiable_categories(extended)
        assert "SaleRegion" in bad

    def test_unsatisfiability_propagates_to_dependents(self):
        # If B is unsatisfiable and A's only route up needs B, A dies too.
        g = HierarchySchema(["A", "B"], [("A", "B"), ("B", ALL)])
        ds = DimensionSchema(g, ["not B -> All"])
        assert set(unsatisfiable_categories(ds)) == {"A", "B"}

    def test_satisfiability_report_shape(self, loc_schema):
        report = satisfiability_report(loc_schema)
        assert report[ALL] is True
        assert set(report) == set(loc_schema.hierarchy.categories)
        assert all(report.values())

    def test_prune_noop_when_clean(self, loc_schema):
        pruned, dropped = prune_unsatisfiable(loc_schema)
        assert dropped == []
        assert pruned is loc_schema

    def test_prune_drops_category_and_its_constraints(self):
        g = HierarchySchema(
            ["A", "B", "C"],
            [("A", "B"), ("A", "C"), ("B", ALL), ("C", ALL)],
        )
        ds = DimensionSchema(
            g,
            [
                "not B -> All",        # kills B
                "B.All = 'x'",         # rooted at the dead category: dropped
                "A -> C",              # stays
                "A -> B or A -> C",    # mentions B: dropped
            ],
        )
        pruned, dropped = prune_unsatisfiable(ds)
        assert dropped == ["B"]
        assert not pruned.hierarchy.has_category("B")
        assert [str(n) for n in pruned.constraints] == ["A -> C"]
        # A survives: its route through C remains.
        assert is_category_satisfiable(pruned, "A")
