"""The scan layer against the per-fact rollup it replaced.

``cube_view``, ``recombine``, ``apply_delta`` and
``AggregateNavigator.answer`` read rollups from the instance's memoized
mappings.  The references below resolve every fact and every cell with
:meth:`DimensionInstance.ancestor_in` instead, one call each, as the
scan did before the mappings were memoized.  Cells must be exactly
equal.  The scan of a fact table groups facts by base member, not in
fact order, and the references fold in fact order; they still agree bit
for bit because SUM's base function, ``math.fsum``, is correctly rounded
and MIN, MAX and COUNT ignore order.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core import ALL, DimensionInstance, HierarchySchema
from repro.errors import SchemaError
from repro.generators.adversarial import census_product_instance
from repro.generators.location import location_instance, location_schema
from repro.olap import (
    SUM,
    AggregateNavigator,
    CubeView,
    FactTable,
    all_aggregates,
    cube_view,
    recombine,
)
from repro.olap.maintenance import apply_delta


def orders_instance() -> DimensionInstance:
    """Two bottom categories; in-store orders may skip the center."""
    hierarchy = HierarchySchema(
        ["OnlineOrder", "StoreOrder", "Center", "Region"],
        [
            ("OnlineOrder", "Center"),
            ("StoreOrder", "Center"),
            ("StoreOrder", "Region"),
            ("Center", "Region"),
            ("Region", ALL),
        ],
    )
    members = {
        "web-1": "OnlineOrder",
        "web-2": "OnlineOrder",
        "pos-1": "StoreOrder",
        "pos-2": "StoreOrder",
        "center-east": "Center",
        "east": "Region",
    }
    edges = [
        ("web-1", "center-east"),
        ("web-2", "center-east"),
        ("pos-1", "center-east"),
        ("pos-2", "east"),
        ("center-east", "east"),
    ]
    return DimensionInstance(hierarchy, members, edges)


INSTANCES = {
    "location": location_instance,
    "census-product": lambda: census_product_instance(n_skus=300, seed=3),
    "multi-bottom": orders_instance,
}


Rows = List[Tuple[str, Dict[str, float]]]


def rows_for(instance: DimensionInstance, n: int, seed: int) -> Rows:
    rng = random.Random(seed)
    base = sorted(instance.base_members())
    return [(rng.choice(base), {"v": rng.uniform(-50.0, 50.0)}) for _ in range(n)]


def reference_cells(facts, category, aggregate, measure="v"):
    """The per-fact scan: one ``ancestor_in`` call per fact."""
    instance = facts.instance
    groups: Dict[str, List[float]] = {}
    scanned = 0
    for fact in facts:
        scanned += 1
        target = instance.ancestor_in(fact.member, category)
        if target is not None:
            groups.setdefault(target, []).append(fact.value(measure))
    return {m: aggregate.aggregate(vs) for m, vs in groups.items()}, scanned


def reference_recombine(instance, target, views, aggregate):
    """Definition 6 RHS with ``GAMMA`` rebuilt per call from ``ancestor_in``."""
    partials: Dict[str, List[float]] = {}
    scanned = 0
    for view in views:
        lower = instance.members(view.category)
        for member, value in view.cells.items():
            scanned += 1
            up = instance.ancestor_in(member, target) if member in lower else None
            if up is not None:
                partials.setdefault(up, []).append(value)
    return {m: aggregate.recombine(vs) for m, vs in partials.items()}, scanned


def categories(instance: DimensionInstance) -> List[str]:
    return sorted(instance.hierarchy.categories)


@pytest.fixture(params=sorted(INSTANCES))
def instance(request) -> DimensionInstance:
    return INSTANCES[request.param]()


class _Rows:
    """A plain iterable of facts that carries ``.instance``."""

    def __init__(self, facts: FactTable) -> None:
        self.instance = facts.instance
        self._facts = list(facts)

    def __iter__(self):
        return iter(self._facts)


class TestCubeView:
    @pytest.mark.parametrize("aggregate", all_aggregates(), ids=lambda a: a.name)
    def test_matches_per_fact_scan(self, instance, aggregate):
        facts = FactTable(instance, rows_for(instance, 400, seed=1))
        for category in categories(instance):
            view = cube_view(facts, category, aggregate, "v")
            cells, scanned = reference_cells(facts, category, aggregate)
            assert view.cells == cells, category
            assert view.rows_scanned == scanned == len(facts)

    def test_plain_iterable_with_instance(self, instance):
        rows = _Rows(FactTable(instance, rows_for(instance, 200, seed=2)))
        for category in categories(instance):
            view = cube_view(rows, category, SUM, "v")
            cells, scanned = reference_cells(rows, category, SUM)
            assert view.cells == cells
            assert view.rows_scanned == scanned

    def test_census_product_has_non_reaching_skus(self):
        instance = INSTANCES["census-product"]()
        rollup = instance.rollup_to("Brand")
        assert None in {rollup[member] for member in instance.base_members()}
        facts = FactTable(instance, rows_for(instance, 500, seed=4))
        view = cube_view(facts, "Brand", SUM, "v")
        assert view.cells == reference_cells(facts, "Brand", SUM)[0]

    def test_unknown_category_raises(self, loc_instance):
        # rollup_to maps every member to None at such a category; the
        # scan must not read that as an empty view.
        facts = FactTable(loc_instance, [("s1", {"v": 1.0})])
        with pytest.raises(SchemaError, match="unknown category 'Galaxy'"):
            cube_view(facts, "Galaxy", SUM, "v")
        with pytest.raises(SchemaError, match="unknown category 'Galaxy'"):
            cube_view(_Rows(facts), "Galaxy", SUM, "v")


class TestRecombine:
    @pytest.mark.parametrize("aggregate", all_aggregates(), ids=lambda a: a.name)
    def test_matches_per_cell_rollup(self, instance, aggregate):
        facts = FactTable(instance, rows_for(instance, 400, seed=5))
        names = categories(instance)
        for target in names:
            for source in names:
                views = [cube_view(facts, source, aggregate, "v")]
                if source != names[0]:
                    views.append(cube_view(facts, names[0], aggregate, "v"))
                result = recombine(instance, target, views, aggregate)
                cells, scanned = reference_recombine(instance, target, views, aggregate)
                assert result.cells == cells, (target, source)
                assert result.rows_scanned == scanned


class TestApplyDelta:
    @pytest.mark.parametrize("aggregate", all_aggregates(), ids=lambda a: a.name)
    def test_matches_reference_merge(self, instance, aggregate):
        base = FactTable(instance, rows_for(instance, 300, seed=6))
        delta = FactTable(instance, rows_for(instance, 100, seed=7))
        for category in categories(instance):
            stale = cube_view(base, category, aggregate, "v")
            patched = apply_delta(instance, stale, delta)
            cells = dict(reference_cells(base, category, aggregate)[0])
            for member, value in reference_cells(delta, category, aggregate)[0].items():
                if member in cells:
                    value = aggregate.recombine([cells[member], value])
                cells[member] = value
            assert patched.cells == cells, category
            assert patched.rows_scanned == len(base) + len(delta)


class TestNavigatorAnswer:
    @pytest.mark.parametrize("aggregate", all_aggregates(), ids=lambda a: a.name)
    def test_every_plan_matches_reference(self, instance, aggregate):
        facts = FactTable(instance, rows_for(instance, 400, seed=8))
        bottoms = sorted(instance.hierarchy.bottom_categories())
        kinds = set()
        # With the bottoms stored every query is rewritten or stored;
        # with nothing stored every query is a base scan.
        for stored_categories in (bottoms, []):
            navigator = AggregateNavigator(facts)
            for category in stored_categories:
                navigator.materialize(category, aggregate, "v")
            for category in categories(instance):
                kinds.add(self._check(navigator, facts, category, aggregate))
        assert kinds == {"materialized", "rewritten", "base-scan"}

    @staticmethod
    def _check(navigator, facts, category, aggregate):
        instance = facts.instance
        view, plan = navigator.answer(category, aggregate, "v")
        if plan.kind == "rewritten":
            stored = [
                CubeView(s, aggregate, "v", reference_cells(facts, s, aggregate)[0])
                for s in plan.sources
            ]
            cells, scanned = reference_recombine(instance, category, stored, aggregate)
        else:
            cells, scanned = reference_cells(facts, category, aggregate)
        assert view.cells == cells, (category, plan.kind)
        assert view.rows_scanned == scanned
        return plan.kind


class TestMemoIsPerInstance:
    def test_reload_with_rebuilt_instance_matches_fresh_navigator(self):
        old = location_instance()
        rows = rows_for(old, 200, seed=9)
        navigator = AggregateNavigator(FactTable(old, rows), schema=location_schema())
        for category in ("Store", "City"):
            navigator.materialize(category, SUM, "v")
        for category in categories(old):
            navigator.answer(category, SUM, "v")

        rebuilt = location_instance()
        assert rebuilt is not old
        more = rows + rows_for(rebuilt, 100, seed=10)
        navigator.reload_facts(FactTable(rebuilt, more))
        fresh = AggregateNavigator(FactTable(rebuilt, more), schema=location_schema())
        for category in ("Store", "City"):
            fresh.materialize(category, SUM, "v")
        for category in categories(rebuilt):
            got, got_plan = navigator.answer(category, SUM, "v")
            want, want_plan = fresh.answer(category, SUM, "v")
            assert got.cells == want.cells, category
            assert got.rows_scanned == want.rows_scanned
            assert got_plan == want_plan


class TestSharedMappingsAreReadOnly:
    def test_rollup_mapping_rejects_writes(self, loc_instance):
        mapping = loc_instance.rollup_mapping("Store", "Country")
        with pytest.raises(TypeError):
            mapping["s1"] = "Mexico"  # type: ignore[index]
        assert loc_instance.rollup_mapping("Store", "Country")["s1"] == "Canada"

    def test_rollup_to_rejects_writes(self, loc_instance):
        facts = FactTable(loc_instance, [("s1", {"v": 1.0})])
        rollup = loc_instance.rollup_to("Country")
        with pytest.raises(TypeError):
            rollup["s1"] = "Mexico"  # type: ignore[index]
        assert cube_view(facts, "Country", SUM, "v").cells == {"Canada": 1.0}

    def test_mappings_are_computed_once(self, loc_instance, monkeypatch):
        rollup = loc_instance.rollup_to("City")
        first = loc_instance.rollup_mapping("Store", "City")

        def recomputed(self, *args):
            raise AssertionError("rollup recomputed")

        monkeypatch.setattr(DimensionInstance, "_resolve", recomputed)
        assert loc_instance.rollup_to("City") == rollup
        monkeypatch.setattr(DimensionInstance, "rollup_to", recomputed)
        assert loc_instance.rollup_mapping("Store", "City") == first
