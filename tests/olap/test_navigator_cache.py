"""Navigator verdict memo: schema-level entries that survive fact-table
reloads, and the rewriting search's rule for a tie in rows read."""

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
    cube view at A is empty (its zero size ties {C} with {A, C} in rows
    read in the rewriting search)."""
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


class _Recording:
    """An engine wrapper that records every summarizability check."""

    def __init__(self, engine):
        self.engine = engine
        self.checks = []

    def is_summarizable(self, schema, target, sources):
        self.checks.append((target, sources))
        return self.engine.is_summarizable(schema, target, sources)


class TestSupersetShortCircuit:
    def test_supersets_of_a_proven_set_are_skipped(self, hierarchy, schema):
        engine = _Recording(build_engine(cache=DecisionCache()))
        facts = FactTable(make_instance(hierarchy), ROWS)
        navigator = AggregateNavigator(facts, schema=schema, engine=engine)
        navigator.materialize("C", SUM, "x")
        navigator.materialize("A", SUM, "x")
        # Candidate order by (rows read, set size, names): {A} (empty
        # view, 0 rows), then {C} and {A, C} tied at 2 rows - the smaller
        # set first.  A proven set sorts before its supersets, so once {C}
        # is proven, {A, C} is never checked.
        _view, first = navigator.answer("T", SUM, "x")
        assert first.kind == "rewritten" and first.sources == ("C",)
        assert engine.checks == [("T", frozenset({"A"})), ("T", frozenset({"C"}))]
        # A repeat query reads both verdicts from the memo.
        view, second = navigator.answer("T", SUM, "x")
        assert second.sources == ("C",)
        assert view.cells == {"t1": 3.0}
        assert len(engine.checks) == 2
        assert navigator.stats.summarizability_checks == 2
