"""Schema-normalization tests: redundancy, minimization, implied intos."""

from __future__ import annotations

from repro.core import (
    DimensionSchema,
    HierarchySchema,
    dimsat,
    enumerate_frozen_dimensions,
)
from repro.core.normalize import (
    implied_into_edges,
    minimize,
    redundant_constraints,
    strengthen_with_intos,
)


class TestRedundancy:
    def test_duplicate_constraint_detected(self, loc_schema):
        doubled = loc_schema.with_constraints(["Store -> City"])
        redundant = redundant_constraints(doubled)
        # Both copies of (a) are implied by "the rest" individually.
        assert 0 in redundant
        assert len(loc_schema.constraints) in redundant

    def test_weaker_constraint_detected(self, loc_schema):
        extended = loc_schema.with_constraints(["Store.City"])  # weaker than (a)
        redundant = redundant_constraints(extended)
        assert len(loc_schema.constraints) in redundant

    def test_location_schema_has_no_redundancy(self, loc_schema):
        assert redundant_constraints(loc_schema) == []


class TestMinimize:
    def test_drops_duplicates_keeps_semantics(self, loc_schema):
        doubled = loc_schema.with_constraints(
            ["Store -> City", "Store.SaleRegion", "Province.Country = 'Canada'"]
        )
        minimized, dropped = minimize(doubled)
        assert len(dropped) == 3
        assert len(minimized.constraints) == len(loc_schema.constraints)
        # Same models: the frozen-dimension sets coincide.
        before = {f.subhierarchy for f in enumerate_frozen_dimensions(doubled, "Store")}
        after = {
            f.subhierarchy for f in enumerate_frozen_dimensions(minimized, "Store")
        }
        assert before == after

    def test_mutually_implying_pair_keeps_one(self):
        g = HierarchySchema(["A", "B"], [("A", "B"), ("B", "All")])
        # A -> B is forced by (C7) anyway (B is A's only parent), so both
        # copies are individually redundant - but one formulation of the
        # fact must... actually (C7) alone implies it, so both may go.
        ds = DimensionSchema(g, ["A -> B", "A.B"])
        minimized, dropped = minimize(ds)
        assert len(dropped) == 2
        assert minimized.constraints == ()

    def test_minimize_idempotent(self, loc_schema):
        minimized, dropped = minimize(loc_schema)
        assert dropped == []
        again, dropped_again = minimize(minimized)
        assert dropped_again == []


class TestImpliedIntos:
    def test_structural_intos_found(self, loc_schema):
        edges = implied_into_edges(loc_schema)
        # SaleRegion's and Country's only routes up are forced by (C7).
        assert ("SaleRegion", "Country") in edges
        assert ("Country", "All") in edges
        # Province -> SaleRegion likewise (sole parent category).
        assert ("Province", "SaleRegion") in edges

    def test_heterogeneous_edges_not_intos(self, loc_schema):
        edges = implied_into_edges(loc_schema)
        assert ("Store", "SaleRegion") not in edges
        assert ("City", "State") not in edges
        assert ("City", "Country") not in edges

    def test_declared_intos_not_reported(self, loc_schema):
        assert ("Store", "City") not in implied_into_edges(loc_schema)

    def test_unsatisfiable_children_skipped(self, loc_schema):
        hostile = loc_schema.with_constraints(["not Store -> City"])
        edges = implied_into_edges(hostile)
        assert all(child != "Store" for child, _parent in edges)


class TestStrengthen:
    def test_preserves_semantics(self, loc_schema):
        strengthened, added = strengthen_with_intos(loc_schema)
        assert added
        before = {
            f.subhierarchy for f in enumerate_frozen_dimensions(loc_schema, "Store")
        }
        after = {
            f.subhierarchy
            for f in enumerate_frozen_dimensions(strengthened, "Store")
        }
        assert before == after

    def test_speeds_up_the_exhaustive_case(self, loc_schema):
        strengthened, _added = strengthen_with_intos(loc_schema)
        hostile_plain = loc_schema.with_constraints(["not Store.SaleRegion"])
        hostile_strong = strengthened.with_constraints(["not Store.SaleRegion"])
        plain = dimsat(hostile_plain, "Store").stats.expand_calls
        strong = dimsat(hostile_strong, "Store").stats.expand_calls
        assert strong <= plain

    def test_noop_when_everything_declared(self, loc_schema):
        strengthened, _ = strengthen_with_intos(loc_schema)
        again, added = strengthen_with_intos(strengthened)
        assert added == []
        assert again is strengthened


class TestSchemaEquivalence:
    def test_reflexive(self, loc_schema):
        from repro.core.normalize import schemas_equivalent

        assert schemas_equivalent(loc_schema, loc_schema)

    def test_minimize_preserves_equivalence(self, loc_schema):
        from repro.core.normalize import minimize, schemas_equivalent

        doubled = loc_schema.with_constraints(["Store -> City", "Store.City"])
        minimized, _dropped = minimize(doubled)
        assert schemas_equivalent(doubled, minimized)
        assert schemas_equivalent(minimized, loc_schema)

    def test_strengthen_preserves_equivalence(self, loc_schema):
        from repro.core.normalize import (
            schemas_equivalent,
            strengthen_with_intos,
        )

        strengthened, added = strengthen_with_intos(loc_schema)
        assert added
        assert schemas_equivalent(loc_schema, strengthened)

    def test_detects_strict_strengthening(self, loc_schema):
        from repro.core.normalize import schemas_equivalent

        stronger = loc_schema.with_constraints(["Store -> SaleRegion"])
        assert not schemas_equivalent(loc_schema, stronger)

    def test_different_hierarchies_never_equivalent(self, loc_schema):
        from repro.core import DimensionSchema, HierarchySchema
        from repro.core.normalize import schemas_equivalent

        other = DimensionSchema(
            HierarchySchema(["A"], [("A", "All")]), []
        )
        assert not schemas_equivalent(loc_schema, other)
