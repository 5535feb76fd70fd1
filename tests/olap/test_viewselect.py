"""View-selection tests (Section 6 application, experiment E16)."""

from __future__ import annotations

import pytest

from repro.errors import OlapError
from repro.olap.viewselect import (
    ViewSelectionProblem,
    coverage,
    evaluate_selection,
    exhaustive_select,
    greedy_select,
    is_sufficient,
    naive_lattice_coverage,
)

SIZES = {
    "Store": 1000,
    "City": 120,
    "State": 20,
    "Province": 15,
    "SaleRegion": 12,
    "Country": 3,
}


@pytest.fixture()
def problem(loc_schema):
    return ViewSelectionProblem(
        schema=loc_schema,
        targets={"Country": 5.0, "SaleRegion": 2.0, "City": 1.0},
        view_sizes=SIZES,
        base_size=100_000,
    )


class TestConstruction:
    def test_rejects_unknown_category(self, loc_schema):
        with pytest.raises(OlapError):
            ViewSelectionProblem(loc_schema, {"Galaxy": 1.0}, SIZES, 10)

    def test_rejects_bad_weights(self, loc_schema):
        with pytest.raises(OlapError):
            ViewSelectionProblem(loc_schema, {"Country": 0.0}, SIZES, 10)
        with pytest.raises(OlapError):
            ViewSelectionProblem(loc_schema, {"Country": 1.0}, SIZES, 0)

    def test_missing_size_estimate(self, problem):
        with pytest.raises(OlapError):
            problem.size_of("All")


class TestEvaluation:
    def test_empty_selection_scans_base(self, problem):
        evaluation = evaluate_selection(problem, [])
        assert evaluation.storage == 0
        assert evaluation.query_cost == 8.0 * 100_000
        assert evaluation.covered == frozenset()

    def test_materialized_target_answers_itself(self, problem):
        evaluation = evaluate_selection(problem, ["Country"])
        assert evaluation.answerable["Country"] == ("Country",)

    def test_city_view_covers_everything(self, problem):
        # City is summarizable to SaleRegion?  No - but to Country yes.
        evaluation = evaluate_selection(problem, ["City"])
        assert evaluation.answerable["Country"] == ("City",)
        assert evaluation.answerable["City"] == ("City",)

    def test_unsafe_sources_not_used(self, problem):
        evaluation = evaluate_selection(problem, ["State", "Province"])
        assert evaluation.answerable["Country"] == ()

    def test_cheapest_proven_plan_wins(self, problem):
        evaluation = evaluate_selection(problem, ["City", "SaleRegion"])
        # SaleRegion (12 cells) beats City (120 cells) for Country.
        assert evaluation.answerable["Country"] == ("SaleRegion",)

    def test_sufficiency(self, problem):
        assert is_sufficient(problem, ["City", "SaleRegion"])
        assert not is_sufficient(problem, ["State", "Province"])

    def test_coverage_shape(self, problem):
        verdicts = coverage(problem, ["City"])
        assert verdicts == {"Country": True, "SaleRegion": False, "City": True}


class TestSelectors:
    def test_greedy_respects_budget(self, problem):
        selection = greedy_select(problem, storage_budget=140)
        assert selection.storage <= 140

    def test_greedy_improves_over_empty(self, problem):
        empty = evaluate_selection(problem, [])
        selection = greedy_select(problem, storage_budget=200)
        assert selection.query_cost < empty.query_cost

    def test_exhaustive_at_least_as_good_as_greedy(self, problem):
        for budget in (50, 140, 400, 1200):
            greedy = greedy_select(problem, budget)
            optimal = exhaustive_select(problem, budget)
            assert optimal.query_cost <= greedy.query_cost + 1e-9, budget

    def test_exhaustive_with_huge_budget_covers_all(self, problem):
        selection = exhaustive_select(problem, storage_budget=10_000)
        assert selection.covered == frozenset({"Country", "SaleRegion", "City"})

    def test_zero_budget_selects_nothing(self, problem):
        assert greedy_select(problem, 0).categories == frozenset()
        assert exhaustive_select(problem, 0).categories == frozenset()

    def test_exhaustive_candidate_limit(self):
        from repro.core import DimensionSchema, HierarchySchema

        wide = HierarchySchema(
            [f"c{i}" for i in range(17)] + ["Top"],
            [(f"c{i}", "Top") for i in range(17)] + [("Top", "All")],
        )
        schema = DimensionSchema(wide, [])
        problem = ViewSelectionProblem(
            schema,
            {"Top": 1.0},
            {f"c{i}": 1 for i in range(17)},
            100,
        )
        with pytest.raises(OlapError, match="16 candidates"):
            exhaustive_select(problem, storage_budget=100)


class TestNaiveLatticeComparison:
    def test_naive_overpromises_on_heterogeneous_schema(self, problem):
        """E16: the constraint-blind lattice assumption claims {State,
        Province} can answer Country; the constraint-aware test refuses -
        and the OLAP layer (test_cubeview) shows the naive rewriting is
        numerically wrong."""
        naive = naive_lattice_coverage(problem, ["State", "Province"])
        aware = coverage(problem, ["State", "Province"])
        assert naive["Country"] is True
        assert aware["Country"] is False

    def test_naive_and_aware_agree_on_safe_sets(self, problem):
        naive = naive_lattice_coverage(problem, ["City"])
        aware = coverage(problem, ["City"])
        assert naive["Country"] == aware["Country"] is True


class TestResilientEngine:
    @pytest.fixture()
    def engine(self):
        from repro.core.decisioncache import DecisionCache
        from repro.core.parallel import ParallelDecisionEngine
        from repro.core.resilience import ResilientDecisionEngine, RetryPolicy

        return ResilientDecisionEngine(
            ParallelDecisionEngine(cache=DecisionCache()),
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0),
        )

    def test_unknown_checks_stay_out_of_the_local_dict(self, loc_schema, engine):
        """View selection keeps no verdict dict of its own: its checks go
        through ``ask_summarizable``, and the engine's decision cache is
        the only store they reach.  UNKNOWN stays out of it."""
        from repro.core.faults import inject_faults
        from repro.olap.navigator import ask_summarizable

        pairs = [
            ("Country", frozenset({"City"})),
            ("Country", frozenset({"State", "Province"})),
        ]
        with inject_faults("worker-crash:p=1.0;seed=3"):
            faulted = [ask_summarizable(engine, loc_schema, t, s) for t, s in pairs]
        assert faulted == [None, None]
        assert len(engine.cache) == 0
        assert engine.stats.unknown_verdicts == 2
        # A healthy check decides each and only then keeps it.
        healthy = [ask_summarizable(engine, loc_schema, t, s) for t, s in pairs]
        assert healthy == [True, False]
        kept = len(engine.cache)
        assert kept > 0
        assert [ask_summarizable(engine, loc_schema, t, s) for t, s in pairs] == healthy
        assert len(engine.cache) == kept

    def test_faulted_evaluation_claims_nothing_the_healthy_one_lacks(
        self, problem, engine
    ):
        """UNKNOWN is not proven: every target that needs a check falls
        back to the base scan, and nothing of the abstention is kept."""
        from repro.core import DecisionCache, build_engine
        from repro.core.faults import inject_faults

        selected = ["City", "SaleRegion"]
        healthy = evaluate_selection(
            problem, selected, engine=build_engine(cache=DecisionCache())
        )
        with inject_faults("worker-crash:p=1.0;seed=3"):
            faulted = evaluate_selection(problem, selected, engine=engine)
        assert engine.stats.unknown_verdicts > 0
        for target, plan in faulted.answerable.items():
            if target in selected:
                assert plan == healthy.answerable[target]
            else:
                assert plan == () != healthy.answerable[target]
        assert faulted.query_cost > healthy.query_cost
        assert len(engine.cache) == 0
        assert evaluate_selection(problem, selected, engine=engine) == healthy
