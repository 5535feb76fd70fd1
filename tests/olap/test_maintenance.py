"""Incremental view maintenance tests: delta merges equal full rebuilds
for every distributive aggregate."""

from __future__ import annotations

import pytest

from repro.errors import OlapError
from repro.olap import FactTable, all_aggregates, cube_view, views_equal
from repro.olap.maintenance import MaintainedNavigator, apply_delta

BASE_ROWS = [
    ("s1", {"sales": 10.0}),
    ("s3", {"sales": 4.0}),
    ("s4", {"sales": 9.0}),
]
DELTA_ROWS = [
    ("s1", {"sales": 2.0}),   # existing cell grows
    ("s5", {"sales": 7.0}),   # new cells appear (Washington chain)
    ("s6", {"sales": 1.0}),
]


class TestApplyDelta:
    @pytest.mark.parametrize("aggregate", all_aggregates(), ids=lambda a: a.name)
    def test_delta_equals_rebuild(self, loc_instance, aggregate):
        base = FactTable(loc_instance, BASE_ROWS)
        delta = FactTable(loc_instance, DELTA_ROWS)
        full = FactTable(loc_instance, BASE_ROWS + DELTA_ROWS)
        for category in ("Store", "City", "State", "Country"):
            stale = cube_view(base, category, aggregate, "sales")
            patched = apply_delta(loc_instance, stale, delta)
            rebuilt = cube_view(full, category, aggregate, "sales")
            assert views_equal(patched, rebuilt), (aggregate.name, category)

    def test_empty_delta_is_identity(self, loc_instance):
        from repro.olap import SUM

        base = FactTable(loc_instance, BASE_ROWS)
        view = cube_view(base, "Country", SUM, "sales")
        patched = apply_delta(loc_instance, view, FactTable(loc_instance, []))
        assert views_equal(view, patched)

    def test_foreign_dimension_rejected(self, loc_instance, chain_instance):
        from repro.olap import SUM

        base = FactTable(loc_instance, BASE_ROWS)
        view = cube_view(base, "Country", SUM, "sales")
        foreign = FactTable(chain_instance, [("d1", {"sales": 1.0})])
        with pytest.raises(OlapError):
            apply_delta(loc_instance, view, foreign)

    def test_rebuilt_equal_instance_accepted(self, loc_instance):
        """A structurally equal reload of the same dimension is fine -
        the guard must not over-reject the nightly-rebuild case."""
        from repro.generators.location import location_instance
        from repro.olap import SUM

        base = FactTable(loc_instance, BASE_ROWS)
        view = cube_view(base, "Country", SUM, "sales")
        rebuilt = location_instance()
        assert rebuilt is not loc_instance
        delta = FactTable(rebuilt, DELTA_ROWS)
        patched = apply_delta(loc_instance, view, delta)
        full = FactTable(loc_instance, BASE_ROWS + DELTA_ROWS)
        assert views_equal(patched, cube_view(full, "Country", SUM, "sales"))

    def test_unknown_delta_member_rejected(self, loc_instance, chain_hierarchy):
        """Regression: the guard used to compare only hierarchies, so a
        delta over a same-hierarchy instance with *different members*
        slipped through and merged cells under the wrong ancestors."""
        from repro.core.instance import DimensionInstance
        from repro.olap import SUM

        a = DimensionInstance(
            chain_hierarchy,
            members={"d1": "Day", "jan": "Month", "y": "Year"},
            child_parent=[("d1", "jan"), ("jan", "y")],
        )
        b = DimensionInstance(
            chain_hierarchy,
            members={"d9": "Day", "jan": "Month", "y": "Year"},
            child_parent=[("d9", "jan"), ("jan", "y")],
        )
        view = cube_view(FactTable(a, [("d1", {"sales": 1.0})]), "Month", SUM, "sales")
        delta = FactTable(b, [("d9", {"sales": 2.0})])
        with pytest.raises(OlapError, match="d9"):
            apply_delta(a, view, delta)

    def test_divergent_rollup_rejected(self, chain_hierarchy):
        """Regression: a shared member that rolls up *differently* in the
        delta's instance would merge its measures into the wrong cells."""
        from repro.core.instance import DimensionInstance
        from repro.olap import SUM

        a = DimensionInstance(
            chain_hierarchy,
            members={"d1": "Day", "jan": "Month", "feb": "Month", "y": "Year"},
            child_parent=[("d1", "jan"), ("jan", "y"), ("feb", "y")],
        )
        b = DimensionInstance(
            chain_hierarchy,
            members={"d1": "Day", "jan": "Month", "feb": "Month", "y": "Year"},
            child_parent=[("d1", "feb"), ("jan", "y"), ("feb", "y")],
        )
        view = cube_view(FactTable(a, [("d1", {"sales": 1.0})]), "Month", SUM, "sales")
        delta = FactTable(b, [("d1", {"sales": 2.0})])
        with pytest.raises(OlapError, match="d1"):
            apply_delta(a, view, delta)

    def test_divergent_category_rejected(self, chain_hierarchy):
        """A member that is a Day in the delta but a Month in the view's
        instance is named in the error."""
        from repro.core.instance import DimensionInstance
        from repro.olap import SUM

        a = DimensionInstance(
            chain_hierarchy,
            members={"d1": "Day", "x": "Month", "y": "Year"},
            child_parent=[("d1", "x"), ("x", "y")],
        )
        b = DimensionInstance(
            chain_hierarchy,
            members={"x": "Day", "jan": "Month", "y": "Year"},
            child_parent=[("x", "jan"), ("jan", "y")],
        )
        view = cube_view(FactTable(a, [("d1", {"sales": 1.0})]), "Month", SUM, "sales")
        delta = FactTable(b, [("x", {"sales": 2.0})])
        with pytest.raises(OlapError, match="'x'"):
            apply_delta(a, view, delta)


class TestMaintainedNavigator:
    def test_views_follow_appends(self, loc_instance, loc_schema):
        from repro.olap import SUM

        navigator = MaintainedNavigator(
            FactTable(loc_instance, BASE_ROWS), schema=loc_schema
        )
        navigator.materialize("City", SUM, "sales")
        navigator.materialize("Country", SUM, "sales")
        appended = navigator.append(DELTA_ROWS)
        assert appended == 3

        full = FactTable(loc_instance, BASE_ROWS + DELTA_ROWS)
        for category in ("City", "Country"):
            stored, plan = navigator.answer(category, SUM, "sales")
            assert plan.kind == "materialized"
            rebuilt = cube_view(full, category, SUM, "sales")
            assert views_equal(stored, rebuilt), category

    def test_rewrites_after_append_stay_correct(self, loc_instance, loc_schema):
        from repro.olap import SUM

        navigator = MaintainedNavigator(
            FactTable(loc_instance, BASE_ROWS), schema=loc_schema
        )
        navigator.materialize("City", SUM, "sales")
        navigator.append(DELTA_ROWS)
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        full = FactTable(loc_instance, BASE_ROWS + DELTA_ROWS)
        assert views_equal(view, cube_view(full, "Country", SUM, "sales"))

    def test_base_scans_see_new_facts(self, loc_instance, loc_schema):
        from repro.olap import SUM

        navigator = MaintainedNavigator(
            FactTable(loc_instance, BASE_ROWS), schema=loc_schema
        )
        navigator.append(DELTA_ROWS)
        view, plan = navigator.answer("Province", SUM, "sales")
        assert plan.kind == "base-scan"
        assert view.cells["BritishColumbia"] == 1.0

    def test_empty_append(self, loc_instance, loc_schema):
        navigator = MaintainedNavigator(
            FactTable(loc_instance, BASE_ROWS), schema=loc_schema
        )
        assert navigator.append([]) == 0
        assert len(navigator.facts) == len(BASE_ROWS)

    @pytest.mark.parametrize(
        "bad_rows",
        [
            [("s5", {"sales": 1.0}), ("s6", {"profit": 1.0})],  # mixed in the batch
            [("s5", {"profit": 1.0})],                          # not the table's
            [("s5", {"sales": 1.0, "profit": 1.0})],            # a superset
            [("s5", {"sales": 1.0}), ("Toronto", {"sales": 1.0})],  # non-base
            [("ghost", {"sales": 1.0})],                        # unknown
        ],
        ids=["mixed", "other-measure", "superset", "non-base", "unknown"],
    )
    @pytest.mark.parametrize("with_views", [False, True])
    def test_rejected_append_changes_nothing(
        self, loc_instance, loc_schema, bad_rows, with_views
    ):
        from repro.olap import SUM

        navigator = MaintainedNavigator(
            FactTable(loc_instance, BASE_ROWS), schema=loc_schema
        )
        if with_views:
            navigator.materialize("City", SUM, "sales")
            navigator.materialize("Country", SUM, "sales")
        facts = navigator.facts
        views = dict(navigator._views)
        with pytest.raises(OlapError):
            navigator.append(bad_rows)
        assert navigator.facts is facts
        assert len(navigator.facts) == len(BASE_ROWS)
        assert navigator._views == views
        # The table is still the log's tip: the next good batch extends it.
        navigator.append(DELTA_ROWS)
        assert [f.member for f in navigator.facts] == [
            m for m, _ in BASE_ROWS + DELTA_ROWS
        ]

    def test_rejected_view_delta_changes_nothing(self, loc_instance):
        """A view over a measure the (then empty) table never carried
        fails its delta; the table must not grow either."""
        from repro.olap import SUM

        navigator = MaintainedNavigator(FactTable(loc_instance, []))
        navigator.materialize("City", SUM, "profit")
        views = dict(navigator._views)
        with pytest.raises(OlapError):
            navigator.append(DELTA_ROWS)
        assert len(navigator.facts) == 0
        assert navigator._views == views

    def test_append_constructs_only_the_delta(
        self, loc_instance, loc_schema, monkeypatch
    ):
        """Work bound: an append builds no Fact and grows the tip's
        columns and grouping by exactly the new rows, never a copy of the
        history."""
        from repro.olap import SUM, facttable

        history = [("s1", {"sales": float(i)}) for i in range(50)]
        navigator = MaintainedNavigator(
            FactTable(loc_instance, history), schema=loc_schema
        )
        navigator.materialize("City", SUM, "sales")
        built = []

        class CountingFact(facttable.Fact):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(facttable, "Fact", CountingFact)
        members = navigator.facts._members
        sales = navigator.facts._columns["sales"]
        grouping = navigator.facts.grouping("sales")
        for appended in range(1, 4):
            assert navigator.append(DELTA_ROWS) == len(DELTA_ROWS)
            grown = len(history) + appended * len(DELTA_ROWS)
            assert navigator.facts._members is members and len(members) == grown
            assert navigator.facts._columns["sales"] is sales and len(sales) == grown
            assert navigator.facts.grouping("sales") is grouping
            assert sum(map(len, grouping.values())) == grown
        assert built == []
        assert len(navigator.facts) == len(history) + 3 * len(DELTA_ROWS)
