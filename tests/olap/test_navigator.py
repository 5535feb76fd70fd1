"""Aggregate navigator tests: plan selection, correctness of rewrites,
cost accounting, the rewrites-only mode, and unknown categories."""

from __future__ import annotations

import pytest

from repro.errors import NavigationError, SchemaError
from repro.olap import (
    SUM,
    AggregateNavigator,
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


@pytest.fixture()
def navigator(facts, loc_schema):
    return AggregateNavigator(facts, schema=loc_schema)


class TestPlans:
    def test_materialized_hit(self, navigator):
        navigator.materialize("Country", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "materialized"
        assert plan.cost == 0
        assert navigator.stats.materialized_hits == 1

    def test_rewrite_from_city(self, navigator, facts):
        navigator.materialize("City", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        assert plan.sources == ("City",)
        direct = cube_view(facts, "Country", SUM, "sales")
        assert views_equal(view, direct)

    def test_unsafe_views_not_used(self, navigator, facts):
        navigator.materialize("State", SUM, "sales")
        navigator.materialize("Province", SUM, "sales")
        view, plan = navigator.answer("Country", SUM, "sales")
        # {State, Province} is not summarizable: must fall back to a scan.
        assert plan.kind == "base-scan"
        direct = cube_view(facts, "Country", SUM, "sales")
        assert views_equal(view, direct)

    def test_cheapest_correct_rewrite_preferred(self, navigator):
        navigator.materialize("City", SUM, "sales")       # 6 cells
        navigator.materialize("SaleRegion", SUM, "sales") # 3 cells
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        assert plan.sources == ("SaleRegion",)

    def test_base_scan_when_nothing_materialized(self, navigator):
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "base-scan"
        assert navigator.stats.base_scans == 1

    def test_rewrites_only_raises(self, facts, loc_schema):
        navigator = AggregateNavigator(facts, schema=loc_schema, rewrites_only=True)
        with pytest.raises(NavigationError):
            navigator.answer("Country", SUM, "sales")

    def test_drop_forgets_view(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.drop("City", SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "base-scan"


class TestInstanceLevelNavigation:
    def test_instance_mode_allows_instance_safe_rewrites(self, facts):
        # Without a schema, the navigator trusts the current instance; in
        # the figure every store reaches Country through a sale region.
        navigator = AggregateNavigator(facts, schema=None)
        navigator.materialize("SaleRegion", SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"


class TestResilientEngine:
    def test_unknown_degrades_to_base_scan_then_recovers(self, facts, loc_schema):
        from repro.core.decisioncache import DecisionCache
        from repro.core.faults import inject_faults
        from repro.core.resilience import ResilientDecisionEngine, RetryPolicy

        engine = ResilientDecisionEngine(
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0),
            cache=DecisionCache(),
        )
        try:
            navigator = AggregateNavigator(
                facts, schema=loc_schema, engine=engine
            )
            navigator.materialize("City", SUM, "sales")
            # Every summarizability probe degrades to UNKNOWN: the
            # navigator must fall back to the always-correct base scan
            # rather than guess or crash.
            with inject_faults("worker-crash:p=1.0;seed=3"):
                view, plan = navigator.answer("Country", SUM, "sales")
            assert plan.kind == "base-scan"
            assert navigator.stats.unknown_verdicts > 0
            assert views_equal(view, cube_view(facts, "Country", SUM, "sales"))
            assert navigator._verdicts == {}
            # The abstention was not cached: the next healthy query
            # proves City -> Country summarizable, keeps that verdict and
            # rewrites.
            _view, plan = navigator.answer("Country", SUM, "sales")
            assert plan.kind == "rewritten"
            assert navigator._verdicts == {("Country", frozenset({"City"})): True}
        finally:
            engine.shutdown()


class TestStats:
    def test_counters_accumulate(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        navigator.answer("Province", SUM, "sales")
        stats = navigator.stats
        assert stats.queries == 2
        assert stats.rewrites >= 1
        assert stats.rows_read > 0

    def test_summarizability_checks_cached(self, navigator):
        navigator.materialize("City", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        first = navigator.stats.summarizability_checks
        navigator.drop("Country", SUM, "sales")
        navigator.answer("Country", SUM, "sales")
        assert navigator.stats.summarizability_checks == first

    def test_materialized_categories_filtered(self, navigator):
        from repro.olap import COUNT

        navigator.materialize("City", SUM, "sales")
        navigator.materialize("City", COUNT, "sales")
        assert navigator.materialized_categories(SUM, "sales") == ["City"]


class TestBareEngineFailures:
    @pytest.mark.parametrize("name", ["compiled", "sequential"])
    def test_budget_abort_raises_from_the_batch(self, facts, loc_schema, name):
        from repro.core import DecisionBudget, DecisionCache, build_engine
        from repro.errors import BudgetExceeded

        engine = build_engine(
            name, budget=DecisionBudget(max_nodes=0), cache=DecisionCache()
        )
        navigator = AggregateNavigator(facts, schema=loc_schema, engine=engine)
        navigator.materialize("City", SUM, "sales")
        with pytest.raises(BudgetExceeded):
            navigator.answer("Country", SUM, "sales")
        # Nothing was cached for the aborted check.
        assert navigator._verdicts == {}
        assert len(engine.cache) == 0


class _Recording:
    """An engine wrapper that records every summarizability check it is
    asked."""

    def __init__(self, engine):
        self.engine = engine
        self.checks = []

    @property
    def cache(self):
        return self.engine.cache

    def is_summarizable(self, schema, target, sources):
        self.checks.append((target, sources))
        return self.engine.is_summarizable(schema, target, sources)


class TestOneCheckAtATime:
    def test_checks_stop_at_the_first_proven_candidate(self, facts, loc_schema):
        """Each check is asked on its own, in cost order, and the search
        asks nothing past the first proven candidate."""
        from repro.core import DecisionCache, build_engine

        engine = _Recording(build_engine(cache=DecisionCache()))
        navigator = AggregateNavigator(facts, schema=loc_schema, engine=engine)
        for category in ("State", "Province", "City", "SaleRegion"):
            navigator.materialize(category, SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.sources == ("SaleRegion",)
        # View sizes: Province 2, State 2, SaleRegion 3, City 6.  Neither
        # two-row view proves Country; SaleRegion does, so none of the
        # eleven dearer candidates is asked.
        assert engine.checks == [
            ("Country", frozenset({"Province"})),
            ("Country", frozenset({"State"})),
            ("Country", frozenset({"SaleRegion"})),
        ]
        assert navigator.stats.summarizability_checks == 3


class TestUnknownCategory:
    """A category the hierarchy lacks raises ``SchemaError`` at every
    entry point; a rejected view is never stored, so it cannot break
    later rewritings."""

    def test_cube_view_and_recombine_raise(self, facts, loc_instance):
        city = cube_view(facts, "City", SUM, "sales")
        with pytest.raises(SchemaError, match="unknown category 'Cty'"):
            cube_view(facts, "Cty", SUM, "sales")
        with pytest.raises(SchemaError, match="unknown category 'Cty'"):
            recombine(loc_instance, "Cty", [city], SUM)

    def test_a_mistyped_view_leaves_the_navigator_working(self, navigator, facts):
        navigator.materialize("City", SUM, "sales")
        _view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten"
        with pytest.raises(SchemaError, match="unknown category 'Cty'"):
            navigator.materialize("Cty", SUM, "sales")
        assert navigator.materialized_categories(SUM, "sales") == ["City"]
        view, plan = navigator.answer("Country", SUM, "sales")
        assert plan.kind == "rewritten" and plan.sources == ("City",)
        assert views_equal(view, cube_view(facts, "Country", SUM, "sales"))

    def test_answer_raises_with_and_without_stored_views(self, navigator):
        with pytest.raises(SchemaError, match="unknown category 'Nope'"):
            navigator.answer("Nope", SUM, "sales")
        navigator.materialize("City", SUM, "sales")
        with pytest.raises(SchemaError, match="unknown category 'Nope'"):
            navigator.answer("Nope", SUM, "sales")
