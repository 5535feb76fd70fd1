"""DimensionSchema tests: constraint validation, Const_ds, into
constraints, and SIGMA(ds, c)."""

from __future__ import annotations

import pytest

from repro.constraints import PathAtom
from repro.core import DimensionSchema, NK
from repro.errors import ConstraintError


class TestConstruction:
    def test_accepts_text_and_ast(self, loc_hierarchy):
        ds = DimensionSchema(
            loc_hierarchy,
            ["Store -> City", PathAtom("Store", ("SaleRegion",))],
        )
        assert len(ds.constraints) == 2

    def test_rejects_invalid_constraint(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            DimensionSchema(loc_hierarchy, ["Store -> Country"])  # not an edge

    def test_rejects_constraint_rooted_at_all(self, loc_hierarchy):
        with pytest.raises(ConstraintError):
            DimensionSchema(loc_hierarchy, ["All = 'x'"])

    def test_roots_aligned_with_constraints(self, loc_schema):
        roots = loc_schema.roots()
        assert roots == ("Store", "Store", "City", "City", "State", "State", "Province")


class TestConstants:
    def test_const_map_by_target_category(self, loc_schema):
        assert loc_schema.constants("Country") == frozenset(
            {"Canada", "Mexico", "USA"}
        )
        assert loc_schema.constants("City") == frozenset({"Washington"})
        assert loc_schema.constants("Store") == frozenset()

    def test_constant_domain_order_and_nk(self, loc_schema):
        domain = loc_schema.constant_domain("Country")
        assert domain == ("Canada", "Mexico", "USA", NK)
        assert loc_schema.constant_domain("Store") == (NK,)

    def test_max_constants(self, loc_schema):
        assert loc_schema.max_constants() == 3


class TestIntoConstraints:
    def test_into_targets(self, loc_schema):
        assert loc_schema.into_targets("Store") == frozenset({"City"})
        assert loc_schema.into_targets("City") == frozenset()

    def test_into_requires_whole_constraint(self, loc_hierarchy):
        # A path atom inside a bigger formula is not an into constraint.
        ds = DimensionSchema(
            loc_hierarchy, ["Store -> City or Store -> SaleRegion"]
        )
        assert ds.into_targets("Store") == frozenset()

    def test_into_must_be_single_step(self, loc_hierarchy):
        ds = DimensionSchema(loc_hierarchy, ["Store -> City -> Province"])
        assert ds.into_targets("Store") == frozenset()


class TestRelevantConstraints:
    def test_sigma_ds_store_is_everything(self, loc_schema):
        # Every constraint root is reachable from Store (Figure 5 left).
        assert len(loc_schema.relevant_constraints("Store")) == 7

    def test_sigma_ds_province(self, loc_schema):
        relevant = loc_schema.relevant_constraints("Province")
        assert [str(n) for n in relevant] == ["Province.Country = 'Canada'"]

    def test_sigma_ds_country_empty(self, loc_schema):
        assert loc_schema.relevant_constraints("Country") == ()


class TestDerivation:
    def test_with_constraints(self, loc_schema):
        bigger = loc_schema.with_constraints(["Store -> SaleRegion"])
        assert len(bigger.constraints) == 8
        assert len(loc_schema.constraints) == 7

    def test_size_counts_nodes(self, loc_hierarchy):
        small = DimensionSchema(loc_hierarchy, ["Store -> City"])
        large = DimensionSchema(
            loc_hierarchy, ["Store -> City and Store -> SaleRegion"]
        )
        assert small.size() == 1
        assert large.size() == 3

    def test_repr(self, loc_schema):
        assert "7 constraints" in repr(loc_schema)
