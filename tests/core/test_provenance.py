"""Verdict provenance: dependency cones, schema deltas, and the survival
rules that make provenance-scoped invalidation sound."""

from __future__ import annotations

import pytest

from repro.constraints.parser import parse
from repro.core import (
    DimensionSchema,
    HierarchySchema,
    mentioned_categories,
    provenance_for_key,
    schema_delta,
)
from repro.core.dimsat import decision_provenance
from repro.core.implication import implication_provenance
from repro.core.summarizability import summarizability_provenance


@pytest.fixture()
def hierarchy() -> HierarchySchema:
    """Two independent branches joined only at All:
    Base -> {A, C} -> T -> All and X -> Y -> All."""
    return HierarchySchema(
        ["Base", "A", "C", "T", "X", "Y"],
        [
            ("Base", "A"),
            ("Base", "C"),
            ("A", "T"),
            ("C", "T"),
            ("T", "All"),
            ("X", "Y"),
            ("Y", "All"),
        ],
    )


@pytest.fixture()
def schema(hierarchy) -> DimensionSchema:
    return DimensionSchema(hierarchy, ["Base -> C", "C -> T", "X -> Y"])


class TestMentionedCategories:
    def test_all_atom_attributes_contribute(self):
        node = parse("Base.A.T and C = 'x' or T < 5")
        assert mentioned_categories(node) == {"Base", "A", "T", "C"}


class TestConeProvenance:
    def test_dimsat_cone_is_the_upward_closure(self, schema):
        provenance = decision_provenance(schema, "C")
        assert provenance.kind == "dimsat"
        assert provenance.categories == {"C", "T", "All"}
        assert provenance.bottoms is None

    def test_implication_widens_by_the_query(self, schema):
        provenance = implication_provenance(schema, "C -> T")
        assert provenance.kind == "implies"
        assert {"C", "T"} <= provenance.categories
        assert "Base" not in provenance.categories
        assert "X" not in provenance.categories

    def test_summarizability_records_bottoms(self, schema):
        provenance = summarizability_provenance(schema, "T", ("C",))
        assert provenance.kind == "summarizable"
        assert provenance.bottoms == {"Base", "X"}
        # Quantifying over every bottom pulls in both branches.
        assert {"Base", "X", "T", "C"} <= provenance.categories


class TestSchemaDelta:
    def test_constraint_edit_footprint(self, schema):
        edited = schema.with_constraints(["Base -> A"])
        delta = schema_delta(schema, edited)
        assert delta.added_constraints == {"Base -> A"}
        assert delta.constraint_footprint == {"Base", "A"}
        assert not delta.bottoms_changed
        assert not delta.empty

    def test_textual_duplicate_is_semantically_empty(self, schema):
        duplicated = DimensionSchema(
            schema.hierarchy, list(schema.constraints) + [parse("C -> T")]
        )
        delta = schema_delta(schema, duplicated)
        assert delta.empty

    def test_edge_edit_records_child_endpoints(self, schema):
        edited = DimensionSchema(
            schema.hierarchy.without_edge("Base", "A"), ["Base -> C", "C -> T", "X -> Y"]
        )
        delta = schema_delta(schema, edited)
        assert delta.removed_edges == {("Base", "A")}
        assert delta.changed_edge_children == {"Base"}

    def test_bottom_set_change_is_flagged(self, schema):
        edited = DimensionSchema(
            schema.hierarchy.with_category("Z", parents=["T"]),
            schema.constraints,
        )
        delta = schema_delta(schema, edited)
        assert delta.bottoms_changed


class TestSurvival:
    def test_disjoint_branch_edit_survives(self, schema):
        provenance = decision_provenance(schema, "C")
        edited = schema.with_constraints(["X -> Y implies X -> Y"])
        assert provenance.survives(schema_delta(schema, edited))

    def test_cone_constraint_edit_kills(self, schema):
        provenance = decision_provenance(schema, "C")
        edited = DimensionSchema(schema.hierarchy, ["Base -> C", "X -> Y"])
        assert not provenance.survives(schema_delta(schema, edited))

    def test_cone_edge_edit_kills(self, schema):
        provenance = decision_provenance(schema, "C")
        edited = DimensionSchema(
            schema.hierarchy.with_category("Z", parents=["All"], children=["C"]),
            schema.constraints,
        )
        assert not provenance.survives(schema_delta(schema, edited))

    def test_summarizable_dies_with_the_bottom_set(self, schema):
        provenance = summarizability_provenance(schema, "T", ("C",))
        edited = DimensionSchema(
            schema.hierarchy.with_category("Z", parents=["X"]),
            schema.constraints,
        )
        assert not provenance.survives(schema_delta(schema, edited))

    def test_empty_delta_always_survives(self, schema):
        provenance = decision_provenance(schema, "Base")
        assert provenance.survives(schema_delta(schema, schema))


class TestProvenanceForKey:
    def test_dispatch_matches_the_kernel_hooks(self, schema):
        assert provenance_for_key(
            schema, ("dimsat", "C")
        ) == decision_provenance(schema, "C")
        assert provenance_for_key(
            schema, ("implies", "C -> T")
        ) == implication_provenance(schema, "C -> T")
        assert provenance_for_key(
            schema, ("summarizable", "T", ("C",))
        ) == summarizability_provenance(schema, "T", ("C",))

    def test_unknown_kind_is_conservative(self, schema):
        assert provenance_for_key(schema, ("mystery", "C")) is None
