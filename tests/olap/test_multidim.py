"""Multi-dimensional cube tests: location x time, per-dimension
summarizability guards, navigation plans."""

from __future__ import annotations

import pytest

from repro.errors import NavigationError, OlapError
from repro.generators.location import location_instance, location_schema
from repro.generators.suite import time_instance, time_schema
from repro.olap import SUM, COUNT
from repro.olap.multidim import Cube, MultiNavigator, multi_views_equal


def make_cube(with_schemas: bool = True) -> Cube:
    dimensions = {"location": location_instance(), "time": time_instance()}
    schemas = (
        {"location": location_schema(), "time": time_schema()}
        if with_schemas
        else None
    )
    cube = Cube(dimensions, schemas)
    rows = [
        ({"location": "s1", "time": "2021-12-20"}, {"sales": 10.0}),
        ({"location": "s1", "time": "2022-01-05"}, {"sales": 6.0}),
        ({"location": "s3", "time": "2021-12-31"}, {"sales": 4.0}),
        ({"location": "s4", "time": "2022-01-01"}, {"sales": 9.0}),
        ({"location": "s5", "time": "2022-01-05"}, {"sales": 2.0}),
        ({"location": "s6", "time": "2021-12-31"}, {"sales": 1.0}),
    ]
    return cube.load(rows)


class TestConstruction:
    def test_needs_dimensions(self):
        with pytest.raises(OlapError):
            Cube({})

    def test_schema_hierarchy_must_match(self):
        with pytest.raises(OlapError):
            Cube(
                {"location": location_instance()},
                {"location": time_schema()},
            )

    def test_schema_for_unknown_dimension(self):
        with pytest.raises(OlapError):
            Cube(
                {"location": location_instance()},
                {"time": time_schema()},
            )

    def test_facts_must_cover_all_dimensions(self):
        cube = Cube({"location": location_instance(), "time": time_instance()})
        with pytest.raises(OlapError):
            cube.load([({"location": "s1"}, {"sales": 1.0})])

    def test_facts_must_use_base_members(self):
        cube = Cube({"location": location_instance(), "time": time_instance()})
        with pytest.raises(OlapError):
            cube.load(
                [({"location": "Toronto", "time": "2021-12-20"}, {"sales": 1.0})]
            )


class TestViews:
    def test_country_by_year(self):
        cube = make_cube()
        view = cube.view(
            {"location": "Country", "time": "Year"}, SUM, "sales"
        )
        assert view.value(location="Canada", time="2021") == 11.0
        assert view.value(location="Canada", time="2022") == 6.0
        assert view.value(location="Mexico", time="2021") == 4.0
        assert view.value(location="USA", time="2022") == 11.0

    def test_partial_rollup_drops_facts(self):
        cube = make_cube()
        # Week level: the boundary week has no Year, but weeks themselves
        # exist for every fact; State level drops Canadian stores.
        view = cube.view(
            {"location": "State", "time": "Year"}, SUM, "sales"
        )
        keys = set(view.cells)
        assert all(state in ("DF", "Texas") for state, _year in keys)

    def test_count_aggregate(self):
        cube = make_cube()
        view = cube.view(
            {"location": "Country", "time": "Year"}, COUNT, "sales"
        )
        assert view.value(location="Canada", time="2021") == 2.0

    def test_missing_measure(self):
        cube = make_cube()
        with pytest.raises(OlapError):
            cube.view({"location": "Country", "time": "Year"}, SUM, "profit")

    def test_undefined_sum_names_the_cell(self):
        # +inf and -inf meet in Canada in December 2021: the scan names
        # the (Country, Year) cell, and the roll-up from (City, Month),
        # location first, the (Country, Month) cell.
        cube = Cube(
            {"location": location_instance(), "time": time_instance()},
            {"location": location_schema(), "time": time_schema()},
        ).load([
            ({"location": "s1", "time": "2021-12-20"}, {"sales": float("inf")}),
            ({"location": "s6", "time": "2021-12-31"}, {"sales": float("-inf")}),
        ])
        coarse = {"location": "Country", "time": "Year"}
        with pytest.raises(OlapError, match=r"SUM of cell \('Canada', '2021'\)"):
            cube.view(coarse, SUM, "sales")
        fine = cube.view({"location": "City", "time": "Month"}, SUM, "sales")
        with pytest.raises(OlapError, match=r"SUM of cell \('Canada', '2021-12'\)"):
            cube.rollup(fine, coarse)

    def test_cells_match_per_fact_rollup(self):
        cube = make_cube()
        order = cube.dimension_order
        for location in cube.dimensions["location"].hierarchy.categories:
            for time in cube.dimensions["time"].hierarchy.categories:
                levels = {"location": location, "time": time}
                groups = {}
                for fact in cube._facts:
                    key = tuple(
                        cube.dimensions[name].ancestor_in(
                            fact.coordinates[name], levels[name]
                        )
                        for name in order
                    )
                    if None not in key:
                        groups.setdefault(key, []).append(fact.measures["sales"])
                view = cube.view(levels, SUM, "sales")
                assert view.cells == {k: SUM.aggregate(v) for k, v in groups.items()}
                assert view.rows_scanned == len(cube)

    def test_base_members_built_once(self):
        instance = make_cube().dimensions["location"]
        assert instance.base_members() is instance.base_members()

    def test_bad_levels(self):
        cube = make_cube()
        with pytest.raises(OlapError):
            cube.view({"location": "Country"}, SUM, "sales")
        with pytest.raises(OlapError):
            cube.view({"location": "Country", "time": "Galaxy"}, SUM, "sales")


class TestRollup:
    def test_safe_rollup_matches_direct(self):
        cube = make_cube()
        fine = cube.view({"location": "City", "time": "Month"}, SUM, "sales")
        rolled = cube.rollup(fine, {"location": "Country", "time": "Year"})
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(rolled, direct)

    def test_single_dimension_step(self):
        cube = make_cube()
        fine = cube.view({"location": "City", "time": "Year"}, SUM, "sales")
        rolled = cube.rollup(fine, {"location": "Country", "time": "Year"})
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(rolled, direct)

    def test_unsafe_time_step_refused(self):
        cube = make_cube()
        fine = cube.view({"location": "Country", "time": "Week"}, SUM, "sales")
        with pytest.raises(NavigationError):
            cube.rollup(fine, {"location": "Country", "time": "Year"})

    def test_unsafe_location_step_refused(self):
        cube = make_cube()
        fine = cube.view({"location": "State", "time": "Year"}, SUM, "sales")
        with pytest.raises(NavigationError):
            cube.rollup(fine, {"location": "Country", "time": "Year"})

    def test_unreachable_levels_refused(self):
        cube = make_cube()
        fine = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert not cube.rollup_is_safe(
            fine.levels, {"location": "City", "time": "Year"}
        )

    def test_week_view_would_be_wrong(self):
        """Why the time step is refused: the boundary week's facts vanish."""
        cube = make_cube()
        week = cube.view({"location": "Country", "time": "Week"}, SUM, "sales")
        year = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        total_week = sum(week.cells.values())
        total_year = sum(year.cells.values())
        # The week view still holds every fact (weeks always exist)...
        assert total_week == total_year
        # ...but the boundary week's cells cannot map to any year.
        boundary_cells = [
            key for key in week.cells if key[1] == "2021-W52"
        ]
        assert boundary_cells

    def test_instance_level_mode(self):
        cube = make_cube(with_schemas=False)
        fine = cube.view({"location": "City", "time": "Month"}, SUM, "sales")
        rolled = cube.rollup(fine, {"location": "Country", "time": "Year"})
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(rolled, direct)


class TestNavigator:
    def test_materialized_hit(self):
        cube = make_cube()
        navigator = MultiNavigator(cube)
        levels = {"location": "Country", "time": "Year"}
        navigator.materialize(levels, SUM, "sales")
        _view, plan = navigator.answer(levels, SUM, "sales")
        assert plan == "materialized"

    def test_rolled_up_plan(self):
        cube = make_cube()
        navigator = MultiNavigator(cube)
        navigator.materialize(
            {"location": "City", "time": "Month"}, SUM, "sales"
        )
        view, plan = navigator.answer(
            {"location": "Country", "time": "Year"}, SUM, "sales"
        )
        assert plan == "rolled-up"
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(view, direct)

    def test_base_scan_when_unsafe(self):
        cube = make_cube()
        navigator = MultiNavigator(cube)
        navigator.materialize(
            {"location": "Country", "time": "Week"}, SUM, "sales"
        )
        view, plan = navigator.answer(
            {"location": "Country", "time": "Year"}, SUM, "sales"
        )
        assert plan == "base-scan"
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(view, direct)

    def test_cheapest_safe_view_chosen(self):
        cube = make_cube()
        navigator = MultiNavigator(cube)
        navigator.materialize(
            {"location": "City", "time": "Month"}, SUM, "sales"
        )
        navigator.materialize(
            {"location": "SaleRegion", "time": "Quarter"}, SUM, "sales"
        )
        view, plan = navigator.answer(
            {"location": "Country", "time": "Year"}, SUM, "sales"
        )
        assert plan == "rolled-up"
        direct = cube.view({"location": "Country", "time": "Year"}, SUM, "sales")
        assert multi_views_equal(view, direct)
