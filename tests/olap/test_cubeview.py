"""Cube view tests: Definition 6 both sides, partial rollups, and the
loss/double-count failure modes that motivate summarizability."""

from __future__ import annotations

import math

import pytest

from repro.errors import OlapError
from repro.olap import (
    COUNT,
    MAX,
    MIN,
    SUM,
    CubeView,
    FactTable,
    cube_view,
    recombine,
    views_equal,
)

ROWS = [
    ("s1", {"sales": 10.0}),
    ("s2", {"sales": 7.0}),
    ("s3", {"sales": 4.0}),
    ("s4", {"sales": 9.0}),
    ("s5", {"sales": 2.0}),
    ("s6", {"sales": 1.0}),
]


@pytest.fixture()
def facts(loc_instance):
    return FactTable(loc_instance, ROWS)


class TestDirectViews:
    def test_country_totals(self, facts):
        view = cube_view(facts, "Country", SUM, "sales")
        assert view.cells == {"Canada": 18.0, "Mexico": 4.0, "USA": 11.0}

    def test_city_totals(self, facts):
        view = cube_view(facts, "City", SUM, "sales")
        assert view.cells["Toronto"] == 10.0
        assert view.cells["Washington"] == 2.0

    def test_count(self, facts):
        view = cube_view(facts, "Country", COUNT, "sales")
        assert view.cells == {"Canada": 3.0, "Mexico": 1.0, "USA": 2.0}

    def test_min_max(self, facts):
        assert cube_view(facts, "Country", MIN, "sales").cells["Canada"] == 1.0
        assert cube_view(facts, "Country", MAX, "sales").cells["Canada"] == 10.0

    def test_partial_rollup_drops_facts(self, facts):
        # Only the Mexican and Texan stores reach State.
        view = cube_view(facts, "State", SUM, "sales")
        assert view.cells == {"DF": 4.0, "Texas": 9.0}

    def test_rows_scanned_is_fact_count(self, facts):
        view = cube_view(facts, "Country", SUM, "sales")
        assert view.rows_scanned == len(ROWS)

    def test_duplicate_base_members_accumulate(self, loc_instance):
        facts = FactTable(
            loc_instance, [("s1", {"sales": 1.0}), ("s1", {"sales": 2.0})]
        )
        view = cube_view(facts, "Store", SUM, "sales")
        assert view.cells == {"s1": 3.0}

    def test_view_value_accessor(self, facts):
        view = cube_view(facts, "Country", SUM, "sales")
        assert view.value("Canada") == 18.0
        with pytest.raises(OlapError):
            view.value("Atlantis")


class TestRecombination:
    def test_safe_source_matches_direct(self, facts, loc_instance):
        direct = cube_view(facts, "Country", SUM, "sales")
        city = cube_view(facts, "City", SUM, "sales")
        derived = recombine(loc_instance, "Country", [city], SUM)
        assert views_equal(direct, derived)

    def test_safe_source_for_every_aggregate(self, facts, loc_instance):
        for agg in (SUM, COUNT, MIN, MAX):
            direct = cube_view(facts, "Country", agg, "sales")
            city = cube_view(facts, "City", agg, "sales")
            derived = recombine(loc_instance, "Country", [city], agg)
            assert views_equal(direct, derived), agg.name

    def test_unsafe_sources_lose_washington(self, facts, loc_instance):
        direct = cube_view(facts, "Country", SUM, "sales")
        state = cube_view(facts, "State", SUM, "sales")
        province = cube_view(facts, "Province", SUM, "sales")
        derived = recombine(loc_instance, "Country", [state, province], SUM)
        assert derived.cells["USA"] == 9.0  # s5's 2.0 lost
        assert not views_equal(direct, derived)

    def test_overlapping_sources_double_count(self, facts, loc_instance):
        direct = cube_view(facts, "Country", SUM, "sales")
        city = cube_view(facts, "City", SUM, "sales")
        sr = cube_view(facts, "SaleRegion", SUM, "sales")
        derived = recombine(loc_instance, "Country", [city, sr], SUM)
        # Every fact counted twice: once through City, once through SR.
        assert derived.cells["Canada"] == 2 * direct.cells["Canada"]

    def test_aggregate_mismatch_rejected(self, facts, loc_instance):
        city = cube_view(facts, "City", SUM, "sales")
        with pytest.raises(OlapError):
            recombine(loc_instance, "Country", [city], COUNT)

    def test_measure_mismatch_rejected(self, loc_instance):
        facts2 = FactTable(
            loc_instance,
            [("s1", {"sales": 1.0, "profit": 0.5}), ("s2", {"sales": 2.0, "profit": 1.0})],
        )
        a = cube_view(facts2, "City", SUM, "sales")
        b = cube_view(facts2, "Province", SUM, "profit")
        with pytest.raises(OlapError):
            recombine(loc_instance, "Country", [a, b], SUM)

    def test_empty_sources_rejected(self, loc_instance):
        with pytest.raises(OlapError):
            recombine(loc_instance, "Country", [], SUM)

    def test_cells_outside_the_source_category_are_dropped(self, facts, loc_instance):
        # A cell is read only at a member of its view's category: a store,
        # a province or an unknown member in a City view counts nothing.
        city = cube_view(facts, "City", SUM, "sales")
        stray = CubeView(
            "City", SUM, "sales",
            {**city.cells, "s1": 100.0, "Ontario": 50.0, "ghost": 1.0},
        )
        derived = recombine(loc_instance, "Country", [stray], SUM)
        assert derived.cells == recombine(loc_instance, "Country", [city], SUM).cells
        assert derived.rows_scanned == len(city) + 3

    def test_partial_source_view_skips_missing_cells(self, loc_instance):
        # Only Toronto and Austin have facts: Canada folds one partial and
        # Mexico, with no cell below it, gets none.
        facts = FactTable(loc_instance, [("s1", {"sales": 1.5}), ("s4", {"sales": 2.0})])
        city = cube_view(facts, "City", MIN, "sales")
        derived = recombine(loc_instance, "Country", [city], MIN)
        assert derived.cells == {"Canada": 1.5, "USA": 2.0}
        assert derived.rows_scanned == 2


class TestNonFiniteSums:
    """``math.fsum`` has no value for ``+inf`` and ``-inf`` together, nor
    past the float range: both folds raise a typed error naming the cell."""

    @pytest.mark.parametrize(
        "values", [(math.inf, -math.inf), (1e308, 1e308)], ids=["inf-inf", "overflow"]
    )
    def test_base_scan_names_the_cell(self, loc_instance, values):
        rows = [("s1", {"sales": values[0]}), ("s2", {"sales": values[1]})]
        rows.append(("s3", {"sales": 1.0}))
        facts = FactTable(loc_instance, rows)
        with pytest.raises(OlapError, match="SUM of cell 'Canada' at 'Country'"):
            cube_view(facts, "Country", SUM, "sales")
        assert cube_view(facts, "Country", MAX, "sales").cells["Mexico"] == 1.0

    @pytest.mark.parametrize(
        "values", [(math.inf, -math.inf), (1e308, 1e308)], ids=["inf-inf", "overflow"]
    )
    def test_recombination_names_the_cell(self, loc_instance, values):
        # Toronto and Ottawa each hold one finite-or-infinite partial; only
        # their fold into Canada is undefined.
        rows = [("s1", {"sales": values[0]}), ("s2", {"sales": values[1]})]
        city = cube_view(FactTable(loc_instance, rows), "City", SUM, "sales")
        with pytest.raises(OlapError, match="SUM of cell 'Canada' at 'Country'"):
            recombine(loc_instance, "Country", [city], SUM)


class TestViewsEqual:
    def test_tolerance(self, facts):
        left = cube_view(facts, "Country", SUM, "sales")
        cells = dict(left.cells)
        cells["Canada"] += 1e-12
        from repro.olap import CubeView

        right = CubeView("Country", SUM, "sales", cells)
        assert views_equal(left, right)
        cells["Canada"] += 1.0
        assert not views_equal(left, CubeView("Country", SUM, "sales", cells))

    def test_cell_set_must_match(self, facts):
        from repro.olap import CubeView

        left = cube_view(facts, "Country", SUM, "sales")
        right = CubeView("Country", SUM, "sales", {"Canada": 18.0})
        assert not views_equal(left, right)
