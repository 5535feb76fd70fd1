"""Frozen dimension and subhierarchy tests (Definitions 5 and 7)."""

from __future__ import annotations

import pytest

from repro.constraints import satisfies_all
from repro.core import (
    ALL,
    DimensionSchema,
    FrozenDimension,
    HierarchySchema,
    NK,
    Subhierarchy,
    phi,
    subhierarchy_from_edges,
)
from repro.errors import SchemaError
from repro.generators.location import paper_frozen_structures


class TestSubhierarchyStructure:
    def test_parents_children_in(self):
        sub = paper_frozen_structures()["Canada"]
        assert sub.parents_in("City") == frozenset({"Province"})
        assert sub.children_in("SaleRegion") == frozenset({"Province"})

    def test_reaches(self):
        sub = paper_frozen_structures()["Canada"]
        assert sub.reaches("Store", "Country")
        assert sub.reaches("Store", "Store")
        assert not sub.reaches("Country", "Store")

    def test_has_edge_path(self):
        sub = paper_frozen_structures()["Canada"]
        assert sub.has_edge_path(("Store", "City", "Province"))
        assert not sub.has_edge_path(("Store", "City", "State"))

    def test_acyclic_and_shortcut_free(self):
        for sub in paper_frozen_structures().values():
            assert sub.is_acyclic()
            assert sub.shortcut_edges() == frozenset()

    def test_shortcut_detection(self):
        sub = subhierarchy_from_edges(
            "A",
            [("A", "B"), ("B", "C"), ("A", "C"), ("C", ALL)],
        )
        assert sub.shortcut_edges() == frozenset({("A", "C")})

    def test_cycle_detection(self):
        sub = Subhierarchy(
            "A",
            frozenset({"A", "B", "C", ALL}),
            frozenset([("A", "B"), ("B", "C"), ("C", "B"), ("C", ALL)]),
        )
        assert not sub.is_acyclic()

    def test_str_is_canonical(self):
        sub = paper_frozen_structures()["Mexico"]
        assert str(sub).startswith("Subhierarchy[Store:")

    def test_reachability_table_stays_out_of_identity_and_pickles(
        self, loc_hierarchy
    ):
        """Witnesses are cached and persisted: computing the reachability
        table changes neither equality, hash nor the pickled bytes."""
        import pickle

        sub = paper_frozen_structures()["Canada"]
        before = pickle.dumps(sub)
        sub.validate(loc_hierarchy)
        assert sub.reaches("Store", ALL) and sub.is_acyclic()
        assert pickle.dumps(sub) == before
        copy = pickle.loads(before)
        assert copy == sub and hash(copy) == hash(sub)
        assert copy.reaches("Store", "Country")
        assert not copy.reaches("Country", "Store")


class TestSubhierarchyValidation:
    def test_paper_structures_validate(self, loc_hierarchy):
        for sub in paper_frozen_structures().values():
            sub.validate(loc_hierarchy)

    def test_must_contain_root_and_all(self, loc_hierarchy):
        bad = Subhierarchy("Store", frozenset({"Store"}), frozenset())
        with pytest.raises(SchemaError):
            bad.validate(loc_hierarchy)

    def test_edges_must_exist_in_g(self, loc_hierarchy):
        bad = subhierarchy_from_edges(
            "Store", [("Store", "Country"), ("Country", ALL)]
        )
        with pytest.raises(SchemaError):
            bad.validate(loc_hierarchy)

    def test_categories_between_root_and_all(self, loc_hierarchy):
        # Province is not reachable from the root here.
        bad = Subhierarchy(
            "Store",
            frozenset({"Store", "City", "Province", "Country", ALL}),
            frozenset([("Store", "City"), ("City", "Country"), ("Country", ALL)]),
        )
        with pytest.raises(SchemaError):
            bad.validate(loc_hierarchy)

    def test_every_category_must_reach_all(self, loc_hierarchy):
        bad = Subhierarchy(
            "Store",
            frozenset({"Store", "City", ALL}),
            frozenset([("Store", "City")]),
        )
        with pytest.raises(SchemaError):
            bad.validate(loc_hierarchy)


class TestFrozenDimension:
    def test_phi_is_stable(self):
        assert phi("Store") == "phi(Store)"
        assert phi(ALL) == "all"

    def test_name_of_defaults_to_nk(self):
        frozen = FrozenDimension(paper_frozen_structures()["Canada"], {})
        assert frozen.name_of("Country") == NK

    def test_to_instance_is_valid_and_satisfies_sigma(self, loc_schema):
        sub = paper_frozen_structures()["Canada"]
        frozen = FrozenDimension(sub, {"Country": "Canada"})
        instance = frozen.to_instance(loc_schema)
        assert instance.is_valid()
        assert satisfies_all(instance, loc_schema.constraints)

    def test_to_instance_one_member_per_category(self, loc_schema):
        sub = paper_frozen_structures()["Mexico"]
        frozen = FrozenDimension(sub, {"Country": "Mexico"})
        instance = frozen.to_instance(loc_schema)
        for category in sub.categories:
            assert len(instance.members(category)) == 1
        assert len(instance.members("Province")) == 0

    def test_nk_materializes_to_fresh_constant(self, loc_schema):
        sub = paper_frozen_structures()["Canada"]
        frozen = FrozenDimension(sub, {"Country": "Canada"})
        instance = frozen.to_instance(loc_schema)
        city_name = instance.name(phi("City"))
        assert city_name not in {"Washington", "Canada", "Mexico", "USA"}

    def test_fresh_constant_avoids_mentions(self):
        g = HierarchySchema(["A", "B"], [("A", "B"), ("B", ALL)])
        ds = DimensionSchema(g, ["A.B = 'nk' or A.B = 'nk_1'"])
        sub = subhierarchy_from_edges("A", [("A", "B"), ("B", ALL)])
        frozen = FrozenDimension(sub, {})
        instance = frozen.to_instance(ds)
        assert instance.name(phi("B")) == "nk_2"

    def test_explicit_fresh_constant(self, loc_schema):
        sub = paper_frozen_structures()["Mexico"]
        frozen = FrozenDimension(sub, {"Country": "Mexico"})
        instance = frozen.to_instance(loc_schema, fresh_constant="OTHER")
        assert instance.name(phi("City")) == "OTHER"

    def test_describe_mentions_pinned_names(self):
        frozen = FrozenDimension(
            paper_frozen_structures()["USA-Washington"],
            {"City": "Washington", "Country": "USA"},
        )
        text = frozen.describe()
        assert "City=Washington" in text
        assert "Country=USA" in text
