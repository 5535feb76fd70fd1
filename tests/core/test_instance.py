"""DimensionInstance tests: accessors, rollup structure, and each of the
seven conditions of Figure 2."""

from __future__ import annotations

import pytest

from repro.core import ALL, DimensionInstance, HierarchySchema, TOP_MEMBER
from repro.errors import InstanceError, SchemaError


class TestConstruction:
    def test_top_member_added_automatically(self, chain_instance):
        assert TOP_MEMBER in chain_instance
        assert chain_instance.category_of(TOP_MEMBER) == ALL

    def test_rejects_unknown_category(self, chain_hierarchy):
        with pytest.raises(SchemaError):
            DimensionInstance(chain_hierarchy, {"x": "Galaxy"}, [])

    def test_rejects_edge_with_unknown_member(self, chain_hierarchy):
        with pytest.raises(SchemaError):
            DimensionInstance(chain_hierarchy, {"d": "Day"}, [("d", "ghost")])

    def test_auto_link_to_all_only_for_parentless(self):
        g = HierarchySchema(
            ["A", "B"], [("A", "B"), ("A", ALL), ("B", ALL)]
        )
        d = DimensionInstance(g, {"a1": "A", "a2": "A", "b": "B"}, [("a1", "b")])
        assert d.parents_of("a1") == frozenset({"b"})
        assert d.parents_of("a2") == frozenset({TOP_MEMBER})

    def test_validation_can_be_deferred(self, chain_hierarchy):
        d = DimensionInstance(
            chain_hierarchy, {"d1": "Day"}, [], validate=False
        )
        assert not d.is_valid()  # d1 has no parent (C7)


class TestAccessors:
    def test_members_by_category(self, loc_instance):
        assert loc_instance.members("Country") == frozenset(
            {"Canada", "Mexico", "USA"}
        )

    def test_members_unknown_category(self, loc_instance):
        with pytest.raises(SchemaError):
            loc_instance.members("Galaxy")

    def test_category_of_unknown_member(self, loc_instance):
        with pytest.raises(SchemaError):
            loc_instance.category_of("ghost")

    def test_name_defaults_to_identity(self, loc_instance):
        assert loc_instance.name("Toronto") == "Toronto"

    def test_parents_children(self, loc_instance):
        assert loc_instance.parents_of("s1") == frozenset({"Toronto"})
        assert "s1" in loc_instance.children_of("Toronto")

    def test_len_and_contains(self, loc_instance):
        assert "s1" in loc_instance
        assert "ghost" not in loc_instance
        assert len(loc_instance) == 23  # 22 members + 'all'

    def test_member_edges_iterates_child_parent(self, loc_instance):
        assert ("s1", "Toronto") in set(loc_instance.member_edges())


class TestRollup:
    def test_ancestors_transitive(self, loc_instance):
        assert loc_instance.ancestors_of("s1") == frozenset(
            {"Toronto", "Ontario", "SR-North", "Canada", TOP_MEMBER}
        )

    def test_leq(self, loc_instance):
        assert loc_instance.leq("s1", "s1")
        assert loc_instance.leq("s1", "Canada")
        assert not loc_instance.leq("Canada", "s1")

    def test_rolls_up_to_category(self, loc_instance):
        assert loc_instance.rolls_up_to_category("s1", "Country")
        assert not loc_instance.rolls_up_to_category("s1", "State")
        assert loc_instance.rolls_up_to_category("s1", "Store")  # itself

    def test_ancestor_in(self, loc_instance):
        assert loc_instance.ancestor_in("s1", "Country") == "Canada"
        assert loc_instance.ancestor_in("s1", "State") is None
        assert loc_instance.ancestor_in("s1", "Store") == "s1"

    def test_rollup_mapping_partial(self, loc_instance):
        gamma = loc_instance.rollup_mapping("City", "State")
        assert gamma == {"MexicoCity": "DF", "Austin": "Texas"}

    def test_rollup_mapping_total(self, loc_instance):
        gamma = loc_instance.rollup_mapping("Store", "Country")
        assert len(gamma) == 6

    def test_base_members(self, loc_instance):
        assert loc_instance.base_members() == frozenset(
            {"s1", "s2", "s3", "s4", "s5", "s6"}
        )
        assert loc_instance.base_members() is loc_instance.base_members()

    def test_rollup_to_agrees_with_ancestor_in(self, loc_instance):
        for category in loc_instance.hierarchy.categories:
            table = loc_instance.rollup_to(category)
            assert set(table) == set(loc_instance.all_members())
            for member, target in table.items():
                assert target == loc_instance.ancestor_in(member, category)

    def test_rollup_to_unknown_category_reaches_nothing(self, loc_instance):
        assert set(loc_instance.rollup_to("Galaxy").values()) == {None}
        assert loc_instance.rollup_mapping("Store", "Galaxy") == {}

    def test_rollup_to_stops_on_a_cycle(self, chain_hierarchy):
        # Invalid (C6): a and b are each other's parent.
        cyclic = build(
            chain_hierarchy, {"a": "Month", "b": "Month"}, [("a", "b"), ("b", "a")]
        )
        assert set(cyclic.rollup_to("Year").values()) == {None}
        assert cyclic.rollup_to("Month")["a"] == "a"

    def test_equal_parent_sets_are_shared(self, loc_instance):
        assert loc_instance.children_of("s1") is loc_instance.children_of("s2")


class TestRollupGroups:
    def test_inverse_of_rollup_mapping(self, loc_instance):
        categories = sorted(loc_instance.hierarchy.categories)
        for lower in categories:
            for upper in categories:
                gamma = loc_instance.rollup_mapping(lower, upper)
                groups = loc_instance.rollup_groups(lower, upper)
                assert all(groups.values())  # no empty group
                assert set(groups) == set(gamma.values())
                assert sorted(m for group in groups.values() for m in group) == sorted(gamma)
                for target, group in groups.items():
                    assert all(gamma[member] == target for member in group)

    def test_partial_mapping_groups_only_reaching_members(self, loc_instance):
        assert loc_instance.rollup_groups("City", "State") == {
            "DF": ("MexicoCity",),
            "Texas": ("Austin",),
        }

    def test_read_only(self, loc_instance):
        groups = loc_instance.rollup_groups("Store", "Country")
        with pytest.raises(TypeError):
            groups["Canada"] = ()  # type: ignore[index]
        assert len(loc_instance.rollup_groups("Store", "Country")["Canada"]) == 3

    def test_second_call_returns_the_same_object(self, loc_instance):
        groups = loc_instance.rollup_groups("City", "Country")
        assert loc_instance.rollup_groups("City", "Country") is groups

    def test_follows_declaration_order(self, chain_hierarchy):
        # Declared out of name order: the groups, and the members in each,
        # come back in declaration order, not sorted or hash order.
        d = DimensionInstance(
            chain_hierarchy,
            members={
                "d9": "Day",
                "d2": "Day",
                "d5": "Day",
                "d1": "Day",
                "mar": "Month",
                "jan": "Month",
                "y2020": "Year",
            },
            child_parent=[
                ("d9", "jan"),
                ("d2", "mar"),
                ("d5", "jan"),
                ("d1", "mar"),
                ("mar", "y2020"),
                ("jan", "y2020"),
            ],
        )
        groups = d.rollup_groups("Day", "Month")
        assert list(groups.items()) == [("mar", ("d2", "d1")), ("jan", ("d9", "d5"))]
        assert d.rollup_groups("Day", "Year") == {"y2020": ("d9", "d2", "d5", "d1")}

    def test_unknown_categories(self, loc_instance):
        assert loc_instance.rollup_groups("Store", "Galaxy") == {}
        with pytest.raises(SchemaError):
            loc_instance.rollup_groups("Galaxy", "Country")


def build(hierarchy, members, edges, **kw):
    return DimensionInstance(hierarchy, members, edges, validate=False, **kw)


class TestConditions:
    def test_c1_connectivity(self, chain_hierarchy):
        d = build(
            chain_hierarchy,
            {"d1": "Day", "y": "Year"},
            [("d1", "y")],  # no Day -> Year edge in the schema
        )
        conditions = {v.condition for v in d.violations()}
        assert "(C1) connectivity" in conditions

    def test_c2_partitioning(self, diamond_hierarchy):
        d = build(
            diamond_hierarchy,
            {"a": "A", "b": "B", "c": "C", "d1": "D", "d2": "D"},
            [("a", "b"), ("a", "c"), ("b", "d1"), ("c", "d2")],
        )
        conditions = {v.condition for v in d.violations()}
        assert "(C2) partitioning" in conditions

    def test_c2_satisfied_when_paths_converge(self, diamond_hierarchy):
        d = DimensionInstance(
            diamond_hierarchy,
            {"a": "A", "b": "B", "c": "C", "d1": "D"},
            [("a", "b"), ("a", "c"), ("b", "d1"), ("c", "d1")],
        )
        assert d.is_valid()

    def test_c4_top_category(self, chain_hierarchy):
        d = build(
            chain_hierarchy,
            {"rogue": ALL},
            [],
        )
        conditions = {v.condition for v in d.violations()}
        assert "(C4) top category" in conditions

    def test_c5_shortcuts(self):
        g = HierarchySchema(
            ["A", "B", "C"],
            [("A", "B"), ("B", "C"), ("A", "C"), ("C", ALL)],
        )
        d = build(
            g,
            {"a": "A", "b": "B", "c": "C"},
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        conditions = {v.condition for v in d.violations()}
        assert "(C5) shortcuts" in conditions

    def test_c6_stratification_same_category_ancestor(self):
        g = HierarchySchema(
            ["A", "B"],
            [("A", "B"), ("B", "A"), ("A", ALL), ("B", ALL)],
        )
        d = build(
            g,
            {"a1": "A", "a2": "A", "b": "B"},
            [("a1", "b"), ("b", "a2"), ("a2", TOP_MEMBER)],
        )
        conditions = {v.condition for v in d.violations()}
        assert "(C6) stratification" in conditions

    def test_c7_up_connectivity(self, chain_hierarchy):
        d = build(chain_hierarchy, {"d1": "Day"}, [])
        conditions = {v.condition for v in d.violations()}
        assert "(C7) up connectivity" in conditions

    def test_validate_raises_first_violation(self, chain_hierarchy):
        d = build(chain_hierarchy, {"d1": "Day"}, [])
        with pytest.raises(InstanceError):
            d.validate()

    def test_location_instance_is_fully_valid(self, loc_instance):
        assert loc_instance.violations() == []
