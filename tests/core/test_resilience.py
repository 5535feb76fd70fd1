"""The resilient decision engine: retry, breaker, degradation ladder."""

from __future__ import annotations

import pytest

from repro._types import ALL
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.faults import inject_faults
from repro.core.parallel import ParallelDecisionEngine, decide_many, try_decide_many
from repro.core.resilience import (
    AttemptRecord,
    CircuitBreaker,
    DecisionOutcome,
    ResilientDecisionEngine,
    ENGINE_NAMES,
    RetryPolicy,
    build_engine,
    classify_failure,
)
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError
from repro.core.budget import DecisionBudget
from repro.generators.location import location_schema

#: Tiny backoff so faulted tests stay fast.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_ms=0.0, max_delay_ms=0.0)


@pytest.fixture()
def schema():
    return location_schema()


@pytest.fixture()
def engine():
    return ResilientDecisionEngine(
        ParallelDecisionEngine(cache=DecisionCache()), retry=FAST_RETRY
    )


class TestClassification:
    def test_retryable(self):
        assert classify_failure(OSError("flaky")) == "retryable"
        assert classify_failure(TimeoutError()) == "retryable"

    def test_degradable(self):
        assert classify_failure(BudgetExceeded("over")) == "degradable"

    def test_fatal(self):
        assert classify_failure(ReproError("bad input")) == "fatal"
        assert classify_failure(ValueError()) == "fatal"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay_ms=-1)

    def test_deterministic_backoff(self):
        policy = RetryPolicy(base_delay_ms=2.0, max_delay_ms=10.0, jitter=0.5)
        assert policy.delay_ms(1, token=9) == policy.delay_ms(1, token=9)
        assert 2.0 <= policy.delay_ms(0, token=0) <= 3.0
        assert policy.delay_ms(5, token=0) <= 15.0  # clamped then jittered


class TestCircuitBreaker:
    def test_opens_at_threshold_and_recovers(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=0.0)
        assert breaker.allow("fp")
        breaker.record_failure("fp")
        assert breaker.state("fp") == "closed"
        breaker.record_failure("fp")
        # cooldown_ms=0: the circuit half-opens immediately, so allow()
        # lets a probe through.
        assert breaker.allow("fp")
        breaker.record_success("fp")
        assert breaker.state("fp") == "closed"

    def test_open_blocks_until_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=60_000.0)
        breaker.record_failure("fp")
        assert breaker.state("fp") == "open"
        assert not breaker.allow("fp")
        assert breaker.allow("other")  # per-key isolation

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(failure_threshold=0)


class TestNoFaultEquivalence:
    def test_single_decisions_match_sequential(self, engine, schema):
        categories = sorted(schema.hierarchy.categories - {ALL})
        for category in categories:
            expected = dimsat(schema, category).satisfiable
            assert engine.dimsat(schema, category).satisfiable == expected
        assert engine.is_summarizable(schema, "SaleRegion", ["Store"]) is True
        assert engine.is_summarizable(schema, "SaleRegion", ["City"]) is False
        assert engine.stats.unknown_verdicts == 0
        assert engine.stats.degraded_sequential == 0

    def test_batch_outcomes_all_parallel_rung(self, engine, schema):
        items = [
            (schema, ("dimsat", "City")),
            (schema, ("summarizable", "SaleRegion", ("Store",))),
            (schema, ("implies", "Store -> City")),
        ]
        outcomes = engine.decide_many_outcomes(items)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert [o.rung for o in outcomes] == ["parallel"] * 3
        assert [o.verdict for o in outcomes] == [True, True, True]
        assert decide_many(engine, items) == [True, True, True]

    def test_decide_single(self, engine, schema):
        outcome = engine.decide(schema, ("dimsat", "City"))
        assert isinstance(outcome, DecisionOutcome)
        assert outcome.ok and outcome.verdict is True
        assert outcome.as_dict()["status"] == "ok"

    def test_malformed_request_still_raises(self, engine, schema):
        with pytest.raises(ReproError):
            decide_many(engine, [(schema, ("nonsense", "City"))])


class TestRetries:
    def test_transient_fault_retried_to_success(self, engine, schema):
        # Two guaranteed fires, then quiet: attempt 3 succeeds in-rung.
        with inject_faults("oserror:p=1.0,times=2;seed=5"):
            outcomes = engine.decide_many_outcomes([(schema, ("dimsat", "City"))])
        (outcome,) = outcomes
        assert outcome.ok and outcome.verdict is True
        assert outcome.rung == "parallel"
        assert outcome.attempts == 3
        assert [f.error_type for f in outcome.failures] == ["InjectedFault"] * 2
        assert engine.stats.retries >= 2

    def test_single_decision_retries(self, engine, schema):
        with inject_faults("oserror:p=1.0,times=2;seed=5"):
            assert engine.dimsat(schema, "City").satisfiable is True


class TestDegradation:
    def test_worker_crash_walks_single_decisions_to_unknown(self, engine, schema):
        requests = [
            lambda: engine.dimsat(schema, "City"),
            lambda: engine.implies(schema, "Store.City.Country"),
            lambda: engine.is_summarizable(schema, "Country", ["City"]),
        ]
        for decide in requests:
            with inject_faults("worker-crash:p=1.0;seed=3") as injector:
                with pytest.raises(DecisionUnavailable) as info:
                    decide()
            rungs = [f.rung for f in info.value.failures]
            assert rungs == ["parallel"] * 3 + ["sequential"] * 3
            assert {f.error_type for f in info.value.failures} == {"InjectedFault"}
            # Each attempt passes the worker fault checkpoint exactly once.
            assert injector.opportunities() == {"worker-crash": 6}
        assert engine.stats.unknown_verdicts == 3

    def test_persistent_fault_degrades_to_unknown(self, engine, schema):
        with inject_faults("worker-crash:p=1.0;seed=3"):
            outcomes = engine.decide_many_outcomes(
                [(schema, ("dimsat", "City")), (schema, ("dimsat", "State"))]
            )
        for outcome in outcomes:
            assert outcome.unknown
            assert outcome.verdict is None
            assert outcome.rung == "unknown"
            rungs = {f.rung for f in outcome.failures}
            assert rungs == {"parallel", "sequential"}
            assert all(isinstance(f, AttemptRecord) for f in outcome.failures)
        assert engine.stats.unknown_verdicts == 2

    def test_decide_many_raises_decision_unavailable(self, engine, schema):
        with inject_faults("worker-crash:p=1.0;seed=3"):
            with pytest.raises(DecisionUnavailable) as info:
                decide_many(engine, [(schema, ("dimsat", "City"))])
        assert info.value.failures  # provenance travels with the error

    def test_single_decision_raises_decision_unavailable(self, engine, schema):
        with inject_faults("worker-crash:p=1.0;seed=3"):
            with pytest.raises(DecisionUnavailable):
                engine.is_summarizable(schema, "SaleRegion", ["Store"])

    def test_budget_exceeded_degrades_not_retries(self, schema):
        # A 0-node budget aborts every rung deterministically; retrying
        # would burn attempts on a certainty, so the ladder degrades
        # straight through to UNKNOWN with BudgetExceeded provenance.
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(budget=DecisionBudget(max_nodes=0), cache=None),
            retry=FAST_RETRY,
        )
        outcome = engine.decide(schema, ("dimsat", "City"))
        assert outcome.unknown
        error_types = {f.error_type for f in outcome.failures}
        assert error_types == {"BudgetExceeded"}
        # one attempt per rung, no retries
        assert outcome.attempts == 2


class TestBreaker:
    def test_breaker_opens_and_skips_parallel_rung(self, schema):
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(cache=DecisionCache()),
            retry=RetryPolicy(max_attempts=1, base_delay_ms=0.0),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_ms=60000.0),
        )
        # Crash the worker site only for the first two decisions; the
        # sequential rung passes through the same site, so give it
        # enough quiet fires... easiest: crash everything for 2
        # decisions' worth of attempts (parallel + sequential = 2
        # opportunities per decision at max_attempts=1).
        with inject_faults("worker-crash:p=1.0,times=4;seed=2"):
            for _ in range(2):
                outcome = engine.decide(schema, ("dimsat", "City"))
                assert outcome.unknown
        assert engine.breaker.state(schema.fingerprint()) == "open"
        # Faults gone, circuit open: the parallel rung is skipped and
        # the sequential rung answers correctly.
        outcome = engine.decide(schema, ("dimsat", "City"))
        assert outcome.ok and outcome.verdict is True
        assert outcome.rung == "sequential"
        assert outcome.failures[0].error_type == "CircuitOpen"
        assert engine.stats.breaker_open_skips >= 1


class TestCacheCleanliness:
    def test_no_faulted_entry_ever_cached(self, schema):
        cache = DecisionCache()
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(cache=cache),
            retry=FAST_RETRY,
        )
        with inject_faults("worker-crash:p=1.0;seed=3"):
            outcomes = engine.decide_many_outcomes(
                [(schema, ("dimsat", c)) for c in ("City", "State", "Store")]
            )
        assert all(o.unknown for o in outcomes)
        assert len(cache) == 0  # caches stay verdict-clean: UNKNOWN != verdict

    def test_cache_store_fault_returns_verdict_stores_nothing(self, schema):
        cache = DecisionCache()
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(cache=cache),
            retry=FAST_RETRY,
        )
        with inject_faults("cache-store:p=1.0;seed=1"):
            outcome = engine.decide(schema, ("dimsat", "City"))
        assert outcome.ok and outcome.verdict is True
        assert len(cache) == 0
        assert cache.stats.store_failures >= 1
        # Healthy again: the verdict lands on the next decision.
        assert engine.decide(schema, ("dimsat", "City")).verdict is True
        assert len(cache) > 0


class TestConstruction:
    def test_wraps_prebuilt_engine(self, schema):
        inner = ParallelDecisionEngine(cache=DecisionCache())
        engine = ResilientDecisionEngine(inner, retry=FAST_RETRY)
        assert engine.engine is inner
        assert engine.dimsat(schema, "City").satisfiable is True

    def test_report(self, engine, schema):
        engine.decide(schema, ("dimsat", "City"))
        text = engine.report()
        assert "decisions" in text and "unknown verdicts" in text


class TestWarmSingleDecisions:
    def _warm(self, engine, schema):
        engine.dimsat(schema, "Store")
        engine.implies(schema, "Store.City.Country")
        engine.is_summarizable(schema, "Country", ["City"])

    def test_warm_hits_skip_kernel_and_fault_checkpoint(
        self, engine, schema, monkeypatch
    ):
        self._warm(engine, schema)

        def boom(*_args, **_kwargs):
            raise AssertionError("warm hit left the cache")

        for name in ("_dimsat_fanout", "_implies_fanout", "_summarizable_fanout"):
            monkeypatch.setattr(ParallelDecisionEngine, name, boom)
        with inject_faults("worker-crash:p=1.0;seed=1") as injector:
            assert engine.dimsat(schema, "Store").satisfiable
            assert engine.implies(schema, "Store.City.Country").implied
            assert engine.is_summarizable(schema, "Country", ["City"]) is True
        assert injector.opportunities() == {"worker-crash": 0}
        assert engine.stats.degraded_sequential == 0

    def test_warm_decide_serves_cached_verdict_on_parallel_rung(
        self, engine, schema
    ):
        """``decide`` (the served ``decide`` op) asks the wrapped engine,
        which memoizes first: a cached verdict is served on the parallel
        rung, past an armed crash, with no failure."""
        self._warm(engine, schema)
        requests = [
            ("dimsat", "Store"),
            ("implies", "Store.City.Country"),
            ("summarizable", "Country", ["City"]),
        ]
        with inject_faults("worker-crash:p=1.0;seed=1") as injector:
            outcomes = [engine.decide(schema, request) for request in requests]
        for outcome in outcomes:
            assert outcome.ok and outcome.verdict is True
            assert outcome.rung == "parallel"
            assert outcome.failures == ()
        assert injector.opportunities() == {"worker-crash": 0}

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_warm_decide_parses_its_constraint_once(
        self, name, schema, monkeypatch
    ):
        """``decide`` hands the engine the node it parsed while
        resolving the request, so the engine does not parse the text
        again."""
        from repro.constraints import parser

        engine = ResilientDecisionEngine(
            build_engine(name, cache=DecisionCache()), retry=FAST_RETRY
        )
        request = ("implies", "Store.City.Country")
        assert engine.decide(schema, request).verdict is True
        parses = []
        init = parser._Parser.__init__

        def counting_init(self, text):
            parses.append(text)
            init(self, text)

        monkeypatch.setattr(parser._Parser, "__init__", counting_init)
        outcome = engine.decide(schema, request)
        assert outcome.ok and outcome.verdict is True
        assert parses == ["Store.City.Country"]

    def test_warm_implies_parses_once(self, engine, schema, monkeypatch):
        from repro.constraints import parser

        self._warm(engine, schema)
        parses = []
        init = parser._Parser.__init__

        def counting_init(self, text):
            parses.append(text)
            init(self, text)

        monkeypatch.setattr(parser._Parser, "__init__", counting_init)
        assert engine.implies(schema, "Store.City.Country").implied
        assert len(parses) <= 1


#: One request of each kind, asked through the single-decision method it
#: maps onto.
SINGLE_CALLS = {
    ("dimsat", "City"): lambda engine, schema: engine.dimsat(schema, "City"),
    ("implies", "Store.City.Country"): lambda engine, schema: engine.implies(
        schema, "Store.City.Country"
    ),
    ("summarizable", "Country", ("City",)): lambda engine, schema: (
        engine.is_summarizable(schema, "Country", ["City"])
    ),
}


class TestOneLadder:
    """Single methods, ``decide`` and batches walk one ladder."""

    @staticmethod
    def _single(engine, schema, request):
        """The single method's outcome, read off the ladder it walks."""
        seen = []
        ladder = engine._ladder

        def spy(*args):
            value, outcome = ladder(*args)
            seen.append(outcome)
            return value, outcome

        engine._ladder = spy
        try:
            SINGLE_CALLS[request](engine, schema)
        except DecisionUnavailable as error:
            assert error.failures == seen[0].failures
        (outcome,) = seen
        return outcome

    @pytest.mark.parametrize("spec", [
        "oserror:p=1.0,times=2;seed=5", "worker-crash:p=1.0;seed=3",
    ])
    @pytest.mark.parametrize("request_", list(SINGLE_CALLS), ids=str)
    def test_every_surface_reports_the_same_walk(self, schema, spec, request_):
        surfaces = {
            "single": lambda e: self._single(e, schema, request_),
            "decide": lambda e: e.decide(schema, request_),
            "batch": lambda e: e.decide_many_outcomes([(schema, request_)])[0],
        }
        walks = {}
        for name, surface in surfaces.items():
            engine = ResilientDecisionEngine(
                ParallelDecisionEngine(cache=DecisionCache()),
                retry=FAST_RETRY,
            )
            with inject_faults(spec) as injector:
                outcome = surface(engine)
            walks[name] = (
                outcome.rung,
                outcome.attempts,
                outcome.failures,
                injector.opportunities(),
            )
        assert walks["single"] == walks["decide"] == walks["batch"]
        rung, attempts, failures, opportunities = walks["single"]
        if spec.startswith("oserror"):
            assert (rung, attempts, len(failures)) == ("parallel", 3, 2)
        else:
            assert (rung, attempts) == ("unknown", 6)
            assert opportunities == {"worker-crash": 6}

    def test_duplicates_share_one_outcome_and_one_walk(self, engine, schema):
        request = (schema, ("summarizable", "Country", ["City"]))
        same = (schema, ("summarizable", "Country", ("City", "City")))
        with inject_faults("worker-crash:p=1.0;seed=3") as injector:
            outcomes = engine.decide_many_outcomes([request, same, request])
        assert outcomes[0].unknown
        assert outcomes[0] is outcomes[1] is outcomes[2]
        assert injector.opportunities() == {"worker-crash": 6}
        assert engine.stats.unknown_verdicts == 1
        assert engine.stats.decisions == 3

    def test_breaker_opening_mid_batch_diverts_later_requests(self, schema):
        other = location_schema().with_constraints(["City -> Country"])
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(cache=DecisionCache()),
            retry=RetryPolicy(max_attempts=1, base_delay_ms=0.0),
            breaker=CircuitBreaker(failure_threshold=1, cooldown_ms=60000.0),
        )
        # One fire: the first request's parallel attempt crashes, which
        # opens its schema's circuit; nothing fails after that.
        with inject_faults("worker-crash:p=1.0,times=1;seed=2"):
            first, second, elsewhere = engine.decide_many_outcomes([
                (schema, ("dimsat", "City")),
                (schema, ("dimsat", "State")),
                (other, ("dimsat", "State")),
            ])
        assert first.rung == "sequential"
        assert [f.error_type for f in first.failures] == ["InjectedFault"]
        assert second.ok and second.rung == "sequential"
        assert [f.error_type for f in second.failures] == ["CircuitOpen"]
        assert elsewhere.ok and elsewhere.rung == "parallel"
        assert elsewhere.failures == ()
        assert engine.stats.breaker_open_skips == 1

    def test_try_decide_many_aligns_verdicts_and_unavailable(
        self, engine, schema
    ):
        # A cached verdict answers on the parallel rung past an armed
        # crash; the computed one degrades to UNKNOWN.
        assert engine.dimsat(schema, "City").satisfiable
        items = [
            (schema, ("dimsat", "City")),
            (schema, ("dimsat", "State")),
            (schema, ("dimsat", "City")),
        ]
        with inject_faults("worker-crash:p=1.0;seed=3"):
            results = try_decide_many(engine, items)
        assert results[0] is True and results[2] is True
        assert isinstance(results[1], DecisionUnavailable)
        assert {f.rung for f in results[1].failures} == {
            "parallel", "sequential",
        }
        with inject_faults("worker-crash:p=1.0;seed=3"):
            with pytest.raises(DecisionUnavailable):
                decide_many(engine, items)
