"""Summarizability tests (Theorem 1) at instance and schema level."""

from __future__ import annotations

import pytest

from repro.constraints import FALSE, ExactlyOne, Implies, RollsUpAtom, unparse
from repro.core import (
    HierarchySchema,
    is_summarizable_in_instance,
    is_summarizable_in_schema,
    summarizability_constraint,
    summarizability_constraints,
    summarizability_matrix,
    summarizable_sets,
)
from repro.errors import SchemaError


class TestConstraintConstruction:
    def test_shape(self):
        node = summarizability_constraint("Store", "Country", ["City"])
        assert isinstance(node, Implies)
        assert isinstance(node.antecedent, RollsUpAtom)
        assert isinstance(node.consequent, ExactlyOne)

    def test_rendering_matches_paper(self):
        node = summarizability_constraint("Store", "Country", ["State", "Province"])
        assert unparse(node) == (
            "Store.Country implies "
            "one(Store.Province.Country, Store.State.Country)"
        )

    def test_empty_sources_forbid_reaching(self):
        node = summarizability_constraint("Store", "Country", [])
        assert node.consequent == FALSE

    def test_one_constraint_per_bottom_category(self, loc_hierarchy):
        pairs = summarizability_constraints(loc_hierarchy, "Country", ["City"])
        assert [bottom for bottom, _ in pairs] == ["Store"]

    def test_multiple_bottoms(self):
        g = HierarchySchema(
            ["A", "B", "C"], [("A", "C"), ("B", "C"), ("C", "All")]
        )
        pairs = summarizability_constraints(g, "C", ["A"])
        assert [bottom for bottom, _ in pairs] == ["A", "B"]


class TestInstanceLevel:
    def test_example10_positive(self, loc_instance):
        assert is_summarizable_in_instance(loc_instance, "Country", ["City"])

    def test_example10_negative(self, loc_instance):
        assert not is_summarizable_in_instance(
            loc_instance, "Country", ["State", "Province"]
        )

    def test_saleregion_source(self, loc_instance):
        # Every store in the figure reaches Country through a sale region.
        assert is_summarizable_in_instance(loc_instance, "Country", ["SaleRegion"])

    def test_overlapping_sources_fail_exactly_one(self, loc_instance):
        # City and SaleRegion both lie on paths for every store: two of the
        # through-atoms hold, violating the exactly-one condition.
        assert not is_summarizable_in_instance(
            loc_instance, "Country", ["City", "SaleRegion"]
        )

    def test_target_from_itself_is_degenerate(self, loc_instance):
        # c_b.c with S = {c}: through-atom Store.Country.Country reduces to
        # Store.Country, so the implication holds.
        assert is_summarizable_in_instance(loc_instance, "Country", ["Country"])

    def test_unknown_categories_rejected(self, loc_instance):
        with pytest.raises(SchemaError):
            is_summarizable_in_instance(loc_instance, "Galaxy", ["City"])
        with pytest.raises(SchemaError):
            is_summarizable_in_instance(loc_instance, "Country", ["Galaxy"])

    def test_empty_sources(self, loc_instance):
        assert not is_summarizable_in_instance(loc_instance, "Country", [])


class TestSchemaLevel:
    def test_example10_positive(self, loc_schema):
        assert is_summarizable_in_schema(loc_schema, "Country", ["City"])

    def test_example10_negative(self, loc_schema):
        assert not is_summarizable_in_schema(
            loc_schema, "Country", ["State", "Province"]
        )

    def test_saleregion_safe_by_constraint_b(self, loc_schema):
        # Constraint (b) forces every store through a sale region, and sale
        # regions only ascend to Country, so SaleRegion is a safe source.
        assert is_summarizable_in_schema(loc_schema, "Country", ["SaleRegion"])

    def test_schema_level_stronger_than_instance_level(self, loc_schema):
        # SaleRegion is summarizable from {State, Province} in no schema
        # sense (a USA frozen dimension reaches SaleRegion straight from
        # the store), even though some instances may satisfy it.
        assert not is_summarizable_in_schema(
            loc_schema, "SaleRegion", ["State", "Province"]
        )

    def test_instance_follows_schema(self, loc_schema, loc_instance):
        # Schema-level summarizability must hold in any valid instance.
        for target, sources in [
            ("Country", ["City"]),
            ("Country", ["SaleRegion"]),
            ("SaleRegion", ["Store"]),
        ]:
            if is_summarizable_in_schema(loc_schema, target, sources):
                assert is_summarizable_in_instance(loc_instance, target, sources)


class TestSearch:
    def test_minimal_sets_for_country(self, loc_schema):
        found = summarizable_sets(loc_schema, "Country", max_size=2)
        assert frozenset({"City"}) in found
        assert frozenset({"SaleRegion"}) in found
        assert frozenset({"Store"}) in found
        # Minimality: no returned set contains another.
        for left in found:
            for right in found:
                assert left == right or not left < right

    def test_search_respects_candidates(self, loc_schema):
        found = summarizable_sets(
            loc_schema, "Country", candidates=["State", "Province"], max_size=2
        )
        assert found == []

    def test_matrix_rows(self, loc_instance):
        rows = summarizability_matrix(
            loc_instance, targets=["Country"], singletons=["City", "State"]
        )
        verdicts = {(s, t): v for s, t, v in rows}
        assert verdicts[("City", "Country")] is True
        assert verdicts[("State", "Country")] is False

    def test_matrix_skips_unreachable_pairs(self, loc_instance):
        rows = summarizability_matrix(loc_instance, targets=["Store"])
        assert rows == []
