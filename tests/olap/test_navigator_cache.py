"""Navigator verdict caching: fingerprint-keyed entries that survive
fact-table reloads, and the superset short-circuit in the rewriting
search."""

from __future__ import annotations

import pytest

from repro.core import (
    DecisionCache,
    DimensionInstance,
    DimensionSchema,
    HierarchySchema,
    build_engine,
)
from repro.errors import OlapError
from repro.olap import SUM, AggregateNavigator, FactTable


@pytest.fixture()
def hierarchy() -> HierarchySchema:
    return HierarchySchema(
        ["Base", "A", "C", "T"],
        [("Base", "A"), ("Base", "C"), ("A", "T"), ("C", "T"), ("T", "All")],
    )


def make_instance(hierarchy) -> DimensionInstance:
    """Two base members via C; A has a member but no base child, so the
    cube view at A is empty (its zero size orders superset candidates
    ahead of their subsets in the rewriting search)."""
    return DimensionInstance(
        hierarchy,
        members={
            "b1": "Base",
            "b2": "Base",
            "a1": "A",
            "c1": "C",
            "c2": "C",
            "t1": "T",
        },
        child_parent=[
            ("b1", "c1"),
            ("b2", "c2"),
            ("a1", "t1"),
            ("c1", "t1"),
            ("c2", "t1"),
        ],
    )


ROWS = [("b1", {"x": 1.0}), ("b2", {"x": 2.0})]


@pytest.fixture()
def schema(hierarchy) -> DimensionSchema:
    return DimensionSchema(hierarchy, ["Base -> C", "C -> T"])


@pytest.fixture()
def navigator(hierarchy, schema) -> AggregateNavigator:
    facts = FactTable(make_instance(hierarchy), ROWS)
    nav = AggregateNavigator(facts, schema=schema, engine=build_engine(cache=DecisionCache()))
    nav.materialize("C", SUM, "x")
    nav.materialize("A", SUM, "x")
    return nav


class TestReloadFacts:
    def test_schema_verdicts_survive_a_reload(self, hierarchy, navigator):
        _view, plan = navigator.answer("T", SUM, "x")
        assert plan.kind == "rewritten"
        checks = navigator.stats.summarizability_checks
        assert checks > 0
        # Nightly reload: a structurally equal but rebuilt instance.
        navigator.reload_facts(FactTable(make_instance(hierarchy), ROWS))
        _view, again = navigator.answer("T", SUM, "x")
        assert again.kind == "rewritten"
        assert again.sources == plan.sources
        assert navigator.stats.summarizability_checks == checks

    def test_views_are_rebuilt_over_the_new_facts(self, hierarchy, navigator):
        grown = ROWS + [("b1", {"x": 10.0})]
        navigator.reload_facts(FactTable(make_instance(hierarchy), grown))
        view, plan = navigator.answer("T", SUM, "x")
        assert view.cells == {"t1": 13.0}
        assert plan.kind == "rewritten"

    def test_instance_verdicts_die_with_the_instance(self, hierarchy):
        facts = FactTable(make_instance(hierarchy), ROWS)
        nav = AggregateNavigator(facts, schema=None)  # instance-level checks
        nav.materialize("C", SUM, "x")
        nav.answer("T", SUM, "x")
        checks = nav.stats.summarizability_checks
        nav.reload_facts(FactTable(make_instance(hierarchy), ROWS))
        nav.answer("T", SUM, "x")
        assert nav.stats.summarizability_checks > checks

    def test_foreign_dimension_is_rejected(self, navigator):
        other = HierarchySchema(["X"], [("X", "All")])
        instance = DimensionInstance(other, members={"x1": "X"}, child_parent=[])
        with pytest.raises(OlapError):
            navigator.reload_facts(FactTable(instance, [("x1", {"x": 1.0})]))


class TestSupersetShortCircuit:
    def test_supersets_of_a_proven_set_are_skipped(self, navigator):
        # Candidate order by total view size: {A} (empty view, size 0),
        # then {A, C} and {C} tied - and ("A", "C") sorts before ("C",).
        _view, first = navigator.answer("T", SUM, "x")
        assert first.kind == "rewritten" and first.sources == ("C",)
        assert navigator.stats.supersets_skipped == 0
        checks = navigator.stats.summarizability_checks
        # Second query: {C} is proven, so the tied-but-earlier superset
        # {A, C} is pruned without a summarizability check.
        _view, second = navigator.answer("T", SUM, "x")
        assert second.sources == ("C",)
        assert navigator.stats.supersets_skipped == 1
        assert navigator.stats.summarizability_checks == checks

    def test_pruning_never_changes_the_plan(self, hierarchy, schema):
        facts = FactTable(make_instance(hierarchy), ROWS)
        pruned = AggregateNavigator(facts, schema=schema, engine=build_engine(cache=DecisionCache()))
        blind = AggregateNavigator(facts, schema=schema, engine=build_engine(cache=DecisionCache()))
        blind._proven_sources = {}  # never consulted below
        for nav in (pruned, blind):
            nav.materialize("C", SUM, "x")
            nav.materialize("A", SUM, "x")
        for _ in range(3):
            view_p, plan_p = pruned.answer("T", SUM, "x")
            blind._proven_sources.clear()  # disable the short-circuit
            view_b, plan_b = blind.answer("T", SUM, "x")
            assert plan_p.sources == plan_b.sources
            assert view_p.cells == view_b.cells
