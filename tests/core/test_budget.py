"""Budget exhaustion semantics.

The contract under test: a blown budget raises the typed
:class:`~repro.errors.BudgetExceeded` - it never produces a wrong verdict
- and an aborted decision leaves every cache verdict-clean, so re-asking
without (or with a larger) budget returns the correct answer.
"""

from __future__ import annotations

import pytest

from repro.core.budget import DecisionBudget
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.implication import implies, is_implied
from repro.core.parallel import ParallelDecisionEngine, _decide, ask, decide_many
from repro.core.request import resolve_request
from repro.core.resilience import ENGINE_NAMES, build_engine
from repro.core.summarizability import decide, is_summarizable_in_schema
from repro.errors import BudgetExceeded, ReproError
from repro.generators.location import location_schema


@pytest.fixture()
def schema():
    return location_schema()


class TestDecisionBudget:
    def test_zero_node_budget_raises_on_first_charge(self):
        budget = DecisionBudget(max_nodes=0)
        with pytest.raises(BudgetExceeded):
            budget.charge()

    def test_node_ceiling_counts_across_charges(self):
        budget = DecisionBudget(max_nodes=3)
        budget.charge()
        budget.charge(2)
        with pytest.raises(BudgetExceeded):
            budget.charge()
        assert budget.nodes_charged == 4

    def test_expired_deadline_raises(self):
        budget = DecisionBudget(time_ms=0.0)
        with pytest.raises(BudgetExceeded):
            budget.charge()

    def test_unbounded_budget_never_raises(self):
        budget = DecisionBudget()
        for _ in range(1000):
            budget.charge()
        assert budget.nodes_charged == 1000

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            DecisionBudget(max_nodes=-1)
        with pytest.raises(ValueError):
            DecisionBudget(time_ms=-1.0)

    def test_fresh_copies_ceilings_not_state(self):
        budget = DecisionBudget(max_nodes=5, time_ms=60_000.0)
        budget.charge(5)
        copy = budget.fresh()
        assert copy.max_nodes == 5 and copy.time_ms == 60_000.0
        assert copy.nodes_charged == 0
        copy.charge(5)


class TestKernelBudgets:
    """Budgets threaded through the sequential decision procedures."""

    def test_dimsat_zero_budget_raises_never_wrong(self, schema):
        with pytest.raises(BudgetExceeded):
            dimsat(schema, "Store", budget=DecisionBudget(max_nodes=0))

    def test_implication_zero_budget_raises(self, schema):
        with pytest.raises(BudgetExceeded):
            implies(
                schema,
                "Store.City.Country",
                cache=None,
                budget=DecisionBudget(max_nodes=0),
            )

    def test_summarizability_zero_budget_raises(self, schema):
        with pytest.raises(BudgetExceeded):
            is_summarizable_in_schema(
                schema,
                "Country",
                ["City"],
                cache=None,
                budget=DecisionBudget(max_nodes=0),
            )

    def test_budget_exceeded_is_typed_and_catchable(self, schema):
        try:
            dimsat(schema, "Store", budget=DecisionBudget(max_nodes=0))
        except BudgetExceeded as error:
            assert isinstance(error, ReproError)
        else:  # pragma: no cover
            pytest.fail("expected BudgetExceeded")

    def test_generous_budget_changes_nothing(self, schema):
        generous = DecisionBudget(max_nodes=1_000_000, time_ms=60_000.0)
        assert dimsat(schema, "Store", budget=generous).satisfiable
        assert is_implied(schema, "Store.City.Country", cache=None, budget=generous.fresh())
        assert is_summarizable_in_schema(
            schema, "Country", ["City"], cache=None, budget=generous.fresh()
        )

    def test_node_ceiling_counts_expand_calls(self, schema):
        """The kernel charges one node per EXPAND call: a ceiling of
        exactly the calls an unbounded search makes is enough, and one
        less raises the typed error."""
        calls = dimsat(schema, "Store").stats.expand_calls
        exact = dimsat(schema, "Store", budget=DecisionBudget(max_nodes=calls))
        assert exact.satisfiable and exact.stats.expand_calls == calls
        with pytest.raises(BudgetExceeded):
            dimsat(schema, "Store", budget=DecisionBudget(max_nodes=calls - 1))


class TestCachesStayVerdictClean:
    """An aborted decision must not leave a wrong (or any) cache entry."""

    def test_aborted_dimsat_not_cached(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            decide(
                schema, ("dimsat", "Store"), cache=cache,
                budget=DecisionBudget(max_nodes=0),
            )
        assert len(cache) == 0
        # Re-query without a budget: correct verdict, computed fresh.
        assert decide(schema, ("dimsat", "Store"), cache=cache).satisfiable
        assert cache.stats.misses == 2  # the abort counted as a miss too
        assert cache.stats.hits == 0

    def test_aborted_implication_then_correct_verdict(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            is_implied(
                schema, "Store.City.Country", cache=cache,
                budget=DecisionBudget(max_nodes=0),
            )
        assert is_implied(schema, "Store.City.Country", cache=cache) is True

    def test_aborted_summarizability_then_correct_verdict(self, schema):
        cache = DecisionCache()
        with pytest.raises(BudgetExceeded):
            is_summarizable_in_schema(
                schema, "Country", ["City"], cache=cache,
                budget=DecisionBudget(max_nodes=0),
            )
        assert is_summarizable_in_schema(schema, "Country", ["City"], cache=cache)
        assert not is_summarizable_in_schema(
            schema, "Country", ["State", "Province"], cache=cache
        )

    def test_engine_abort_leaves_cache_clean(self, schema):
        """A budget abort inside the engine's single-decision path must
        leave the shared cache verdict-clean."""
        cache = DecisionCache()
        engine = ParallelDecisionEngine(
            budget=DecisionBudget(max_nodes=0), cache=cache
        )
        with pytest.raises(BudgetExceeded):
            engine.dimsat(schema, "Store")
        with pytest.raises(BudgetExceeded):
            engine.is_summarizable(schema, "Country", ["City"])
        assert len(cache) == 0
        engine = ParallelDecisionEngine(cache=cache)
        assert engine.dimsat(schema, "Store").satisfiable is True
        assert engine.is_summarizable(schema, "Country", ["City"]) is True

    def test_engine_batch_budget_abort_propagates(self, schema):
        cache = DecisionCache()
        engine = ParallelDecisionEngine(
            budget=DecisionBudget(max_nodes=0), cache=cache
        )
        with pytest.raises(BudgetExceeded):
            decide_many(
                engine,
                [(schema, ("dimsat", "Store")), (schema, ("dimsat", "City"))],
            )
        assert len(cache) == 0


class TestPublishedBudgetUse:
    """Every computed decision publishes its budget use once, on every
    engine and on the ladder's sequential rung; a cached verdict
    publishes nothing."""

    REQUESTS = [
        ("dimsat", "Store"),
        ("implies", "Store.City.Country"),
        ("summarizable", "Country", ["City"]),
    ]

    @pytest.fixture()
    def published(self, monkeypatch):
        calls = []
        publish = DecisionBudget.publish

        def counting(budget):
            calls.append(budget.nodes_charged)
            publish(budget)

        monkeypatch.setattr(DecisionBudget, "publish", counting)
        return calls

    @staticmethod
    def _engine(name, cache):
        return build_engine(
            name, budget=DecisionBudget(max_nodes=1_000_000), cache=cache
        )

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_engine_publishes_each_computed_decision(
        self, schema, published, name
    ):
        engine = self._engine(name, DecisionCache())
        for request in self.REQUESTS:
            ask(engine, schema, request)
        assert len(published) == len(self.REQUESTS)
        for request in self.REQUESTS:  # every one a hit now
            ask(engine, schema, request)
        assert len(published) == len(self.REQUESTS)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_uncached_engine_publishes_every_decision(
        self, schema, published, name
    ):
        engine = self._engine(name, None)
        for _ in range(2):
            for request in self.REQUESTS:
                ask(engine, schema, request)
        assert len(published) == 2 * len(self.REQUESTS)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_sequential_rung_publishes_each_computed_decision(
        self, schema, published, name
    ):
        engine = self._engine(name, DecisionCache())
        for _ in range(2):
            for request in self.REQUESTS:
                _decide(engine, schema, resolve_request(request))
        assert len(published) == len(self.REQUESTS)
