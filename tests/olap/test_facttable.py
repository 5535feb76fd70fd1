"""Fact table tests: construction checks, accessors, grouping."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import OlapError
from repro.olap import SUM, FactTable, cube_view
from repro.olap.facttable import Fact


class TestConstruction:
    def test_accepts_base_members(self, loc_instance):
        facts = FactTable(loc_instance, [("s1", {"sales": 1.0})])
        assert len(facts) == 1
        assert facts.measures == frozenset({"sales"})

    def test_rejects_non_base_member(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(loc_instance, [("Toronto", {"sales": 1.0})])

    def test_rejects_unknown_member(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(loc_instance, [("ghost", {"sales": 1.0})])

    def test_rejects_inconsistent_measures(self, loc_instance):
        with pytest.raises(OlapError):
            FactTable(
                loc_instance,
                [("s1", {"sales": 1.0}), ("s2", {"profit": 1.0})],
            )

    def test_empty_table(self, loc_instance):
        facts = FactTable(loc_instance, [])
        assert len(facts) == 0
        assert facts.measures == frozenset()


class TestAccessors:
    @pytest.fixture()
    def facts(self, loc_instance):
        return FactTable(
            loc_instance,
            [
                ("s1", {"sales": 1.0, "profit": 0.1}),
                ("s1", {"sales": 2.0, "profit": 0.2}),
                ("s4", {"sales": 3.0, "profit": 0.3}),
            ],
        )

    def test_members_with_multiplicity(self, facts):
        assert facts.members() == ["s1", "s1", "s4"]

    def test_values_in_row_order(self, facts):
        assert facts.values("sales") == [1.0, 2.0, 3.0]

    def test_missing_measure_raises(self, facts):
        with pytest.raises(OlapError):
            facts.values("weight")

    def test_group_by_member(self, facts):
        grouped = facts.group_by_member("sales")
        assert grouped == {"s1": [1.0, 2.0], "s4": [3.0]}

    def test_restrict(self, facts):
        smaller = facts.restrict(["s1"])
        assert len(smaller) == 2
        assert smaller.members() == ["s1", "s1"]

    def test_repr(self, facts):
        assert "3 facts" in repr(facts)


class TestExtended:
    @pytest.fixture()
    def facts(self, loc_instance):
        return FactTable(loc_instance, [("s1", {"sales": 1.0}), ("s3", {"sales": 2.0})])

    def delta(self, loc_instance, *members):
        return FactTable(loc_instance, [(m, {"sales": 9.0}) for m in members])

    def test_earlier_handle_keeps_its_prefix(self, loc_instance, facts):
        grown = facts.extended(self.delta(loc_instance, "s4", "s5"))
        assert grown.members() == ["s1", "s3", "s4", "s5"]
        assert len(facts) == 2
        assert facts.members() == ["s1", "s3"]
        assert grown.measures == facts.measures

    def test_branches_do_not_leak_rows(self, loc_instance, facts):
        left = facts.extended(self.delta(loc_instance, "s4"))
        right = facts.extended(self.delta(loc_instance, "s5"))
        left_again = left.extended(self.delta(loc_instance, "s6"))
        assert facts.members() == ["s1", "s3"]
        assert left.members() == ["s1", "s3", "s4"]
        assert right.members() == ["s1", "s3", "s5"]
        assert left_again.members() == ["s1", "s3", "s4", "s6"]

    def test_tip_grows_its_columns_in_place(self, loc_instance, facts):
        """Extending the tip copies no history: the new table shares the
        member column, grown by exactly the delta, and still iterates
        its rows in order."""
        column = facts._members
        grown = facts.extended(self.delta(loc_instance, "s4", "s5"))
        assert grown._members is column
        assert len(column) == len(facts) + 2
        assert [(f.member, f.value("sales")) for f in grown] == [
            ("s1", 1.0), ("s3", 2.0), ("s4", 9.0), ("s5", 9.0),
        ]

    def test_tip_grows_its_grouping_in_place(self, loc_instance, facts):
        grouping = facts.grouping("sales")
        grown = facts.extended(self.delta(loc_instance, "s1", "s4"))
        assert grown.grouping("sales") is grouping
        assert grouping == {"s1": [1.0, 9.0], "s3": [2.0], "s4": [9.0]}
        # The older handle regroups its own prefix.
        assert facts.grouping("sales") == {"s1": [1.0], "s3": [2.0]}

    def test_branch_regroups_its_own_rows(self, loc_instance, facts):
        facts.grouping("sales")
        left = facts.extended(self.delta(loc_instance, "s4"))
        right = facts.extended(self.delta(loc_instance, "s1"))
        assert left.grouping("sales") == {"s1": [1.0], "s3": [2.0], "s4": [9.0]}
        assert right.grouping("sales") == {"s1": [1.0, 9.0], "s3": [2.0]}
        assert facts.group_by_member("sales") == {"s1": [1.0], "s3": [2.0]}

    def test_empty_delta_returns_the_same_table(self, loc_instance, facts):
        assert facts.extended(FactTable(loc_instance, [])) is facts

    def test_empty_table_takes_the_delta_measures(self, loc_instance):
        grown = FactTable(loc_instance, []).extended(self.delta(loc_instance, "s1"))
        assert grown.measures == frozenset({"sales"})

    def test_mismatched_measures_rejected(self, loc_instance, facts):
        other = FactTable(loc_instance, [("s4", {"profit": 1.0})])
        with pytest.raises(OlapError):
            facts.extended(other)
        assert facts.extended(self.delta(loc_instance, "s4")).members() == [
            "s1", "s3", "s4",
        ]

    def test_member_outside_the_instance_rejected(self, loc_instance, chain_instance, facts):
        foreign = FactTable(chain_instance, [("d1", {"sales": 1.0})])
        with pytest.raises(OlapError):
            facts.extended(foreign)
        assert len(facts) == 2


class TestColumnarScan:
    @pytest.fixture()
    def facts(self, loc_instance):
        rows = [("s1", {"sales": 1.0}), ("s3", {"sales": 2.0}), ("s1", {"sales": 3.0})]
        return FactTable(loc_instance, rows * 20)

    def test_one_rollup_lookup_per_distinct_member(self, loc_instance, facts, monkeypatch):
        lookups = []

        class Counting(dict):
            def __getitem__(self, member):
                lookups.append(member)
                return super().__getitem__(member)

        rollup_to = type(loc_instance).rollup_to
        monkeypatch.setattr(
            type(loc_instance),
            "rollup_to",
            lambda self, category: Counting(rollup_to(self, category)),
        )
        view = cube_view(facts, "Country", SUM, "sales")
        assert sorted(lookups) == ["s1", "s3"]
        assert view.cells == {"Canada": 80.0, "Mexico": 40.0}
        assert view.rows_scanned == len(facts) == 60

    def test_group_by_member_is_a_copy(self, facts):
        copy = facts.group_by_member("sales")
        copy["s1"].append(99.0)
        assert facts.grouping("sales")["s1"][-1] == 3.0

    def test_unknown_measure_raises_on_a_scan(self, facts):
        with pytest.raises(OlapError):
            cube_view(facts, "Country", SUM, "weight")

    def test_iteration_builds_facts_in_row_order(self, loc_instance):
        rows = [("s1", {"sales": 1.0, "profit": 0.5}), ("s4", {"sales": 2.0, "profit": 0.1})]
        assert list(FactTable(loc_instance, rows)) == [Fact(m, v) for m, v in rows]


class TestFactLayout:
    def test_fact_has_no_dict(self):
        fact = Fact("s1", {"sales": 1.0})
        assert not hasattr(fact, "__dict__")
        with pytest.raises(AttributeError):
            fact.member = "s2"  # type: ignore[misc]

    def test_fact_pickles(self):
        fact = Fact("s1", {"sales": 1.0})
        assert pickle.loads(pickle.dumps(fact)) == fact

    def test_table_pickles_after_a_scan(self, loc_instance):
        rows = [("s1", {"sales": 1.0}), ("s5", {"sales": 2.5})]
        facts = FactTable(loc_instance, rows)
        view = cube_view(facts, "Country", SUM, "sales")  # fills the rollup memo
        loaded = pickle.loads(pickle.dumps(facts))
        assert loaded.members() == facts.members()
        assert loaded.measures == facts.measures
        assert list(loaded) == list(facts)
        assert cube_view(loaded, "Country", SUM, "sales").cells == view.cells
