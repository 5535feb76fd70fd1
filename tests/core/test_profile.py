"""Schema profiling tests."""

from __future__ import annotations

from repro.core.profile import (
    profile_report,
    reasoning_profile,
    schema_profile,
)


class TestSchemaProfile:
    def test_location_metrics(self, loc_schema):
        profile = schema_profile(loc_schema)
        assert profile.categories == 6
        assert profile.edges == 10
        assert profile.bottom_categories == ("Store",)
        # City->Country, State->Country, Store->SaleRegion
        assert profile.shortcuts == 3
        assert not profile.cyclic
        assert "City" in profile.heterogeneous_categories
        assert profile.constraints == 7
        assert profile.max_constants == 3
        assert profile.numeric_categories == ()
        assert 0.0 < profile.into_coverage < 1.0

    def test_atom_census(self, loc_schema):
        profile = schema_profile(loc_schema)
        assert profile.atom_counts["path"] >= 3
        assert profile.atom_counts["equality"] >= 6
        assert profile.atom_counts["rolls-up"] >= 1

    def test_numeric_categories_reported(self):
        from repro.core import DimensionSchema, HierarchySchema

        g = HierarchySchema(["A", "B"], [("A", "B"), ("B", "All")])
        ds = DimensionSchema(g, ["A.B < 10 implies A -> B"])
        profile = schema_profile(ds)
        assert profile.numeric_categories == ("B",)
        assert profile.atom_counts["comparison"] == 1

    def test_render_mentions_every_axis(self, loc_schema):
        text = schema_profile(loc_schema).render()
        for needle in ("categories (N)", "max constants (N_K)",
                       "into coverage", "heterogeneous"):
            assert needle in text


class TestReasoningProfile:
    def test_effort_below_raw_spaces(self, loc_schema):
        profile = reasoning_profile(loc_schema, "Store")
        assert profile.satisfiable
        assert profile.expand_calls < profile.raw_edge_subsets
        assert profile.raw_edge_subsets == 2 ** 10
        assert profile.raw_assignment_space > 0

    def test_unsatisfiable_reported(self, loc_schema):
        hostile = loc_schema.with_constraints(["not Store -> City"])
        profile = reasoning_profile(hostile, "Store")
        assert not profile.satisfiable
        assert "UNSATISFIABLE" in profile.render()

    def test_report_covers_bottoms(self, loc_schema):
        text = profile_report(loc_schema)
        assert "Store: satisfiable" in text
