"""Differential tests for the resilience layer.

Two obligations from the ladder's contract:

* **fault-free transparency** - with no faults injected, the
  :class:`~repro.core.resilience.ResilientDecisionEngine` is
  observationally identical to the sequential kernel and the brute-force
  oracle on hypothesis-generated random schemas (the same three-way
  agreement ``tests/test_differential.py`` proves for the plain parallel
  engine);
* **never wrong under faults** - the cache-poisoning hammer injects
  worker-crash and cache-store faults (fixed seed) into a 200-decision
  batch and asserts that every decision completes as either a *correct*
  verdict or a typed UNKNOWN - never a wrong answer, never an unhandled
  exception - and that the :class:`~repro.core.decisioncache.DecisionCache`
  afterwards holds only entries that match a fresh fault-free recompute.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import ALL
from repro.baselines.bruteforce import brute_force_satisfiable
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.faults import inject_faults
from repro.core.implication import is_implied
from repro.core.parallel import ParallelDecisionEngine, decide_many
from repro.core.resilience import ResilientDecisionEngine, RetryPolicy
from repro.core.summarizability import is_summarizable_in_schema
from repro.generators.location import LOCATION_CONSTRAINTS, location_schema
from repro.generators.random_schema import RandomSchemaConfig, random_schema

SETTINGS = settings(max_examples=25, deadline=None)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_ms=0.0, max_delay_ms=0.0)

#: The hammer's fixed fault schedule: ~30% worker crashes and ~30% cache
#: store failures, with crashes starting after a short healthy warm-up so
#: the batch fails mid-flight.  (The engine dedups the 200 requests down
#: to ~19 unique decisions, so worker opportunities are scarce - the
#: warm-up must stay well below that.)  Fixed seed, so CI replays the
#: exact same schedule (CRC32 draws, no process-randomized hashing).
HAMMER_SPEC = "worker-crash:p=0.3,after=5;cache-store:p=0.3;seed=20020601"


@st.composite
def small_schemas(draw):
    config = RandomSchemaConfig(
        n_categories=draw(st.integers(min_value=3, max_value=6)),
        n_layers=draw(st.integers(min_value=2, max_value=3)),
        extra_edge_prob=draw(st.sampled_from([0.0, 0.3, 0.6])),
        skip_edge_prob=draw(st.sampled_from([0.0, 0.2])),
        into_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        choice_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        n_constants=draw(st.integers(min_value=1, max_value=2)),
        attributed_fraction=draw(st.sampled_from([0.0, 0.5])),
        equality_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return random_schema(config)


@pytest.fixture(scope="module")
def resilient():
    return ResilientDecisionEngine(
        ParallelDecisionEngine(cache=DecisionCache()), retry=FAST_RETRY
    )


@SETTINGS
@given(small_schemas())
def test_fault_free_dimsat_three_way(resilient, schema):
    """resilient == sequential == brute force, and nothing ever degrades."""
    categories = sorted(schema.hierarchy.categories - {ALL})
    oracle = [brute_force_satisfiable(schema, c) for c in categories]
    sequential = [dimsat(schema, c).satisfiable for c in categories]
    assert sequential == oracle
    items = [(schema, ("dimsat", c)) for c in categories]
    outcomes = resilient.decide_many_outcomes(items)
    assert [o.status for o in outcomes] == ["ok"] * len(categories)
    assert [o.verdict for o in outcomes] == oracle
    assert decide_many(resilient, items) == oracle
    for category, expected in zip(categories, oracle):
        assert resilient.dimsat(schema, category).satisfiable == expected
    assert resilient.stats.unknown_verdicts == 0
    assert resilient.stats.degraded_sequential == 0


@SETTINGS
@given(small_schemas())
def test_fault_free_summarizability_matches_sequential(resilient, schema):
    categories = sorted(schema.hierarchy.categories - {ALL})
    cases = [
        (target, (source,))
        for target in categories
        for source in categories
        if source != target
    ][:6]
    if not cases:
        return
    expected = [
        is_summarizable_in_schema(schema, t, s, cache=None) for t, s in cases
    ]
    outcomes = resilient.decide_many_outcomes(
        [(schema, ("summarizable", t, s)) for t, s in cases]
    )
    assert [o.verdict for o in outcomes] == expected
    for (target, sources), want in zip(cases, expected):
        assert resilient.is_summarizable(schema, target, sources) == want


def _sequential_oracle(schema, key):
    """A fresh fault-free sequential decision (no cache, no engine)."""
    if key[0] == "dimsat":
        return dimsat(schema, key[1]).satisfiable
    if key[0] == "implies":
        return is_implied(schema, key[1], cache=None)
    return is_summarizable_in_schema(schema, key[1], key[2], cache=None)


def test_cache_poisoning_hammer():
    """200 faulted decisions: every verdict correct or UNKNOWN, cache clean.

    Worker crashes start firing after 20 opportunities (the batch starts
    healthy and fails mid-flight) while cache stores fail ~30% of the
    time throughout; afterwards every ok verdict must equal the
    sequential oracle and every cache entry must equal a fresh fault-free
    recompute.
    """
    schema = location_schema()
    categories = sorted(schema.hierarchy.categories - {ALL})
    constraints = sorted(LOCATION_CONSTRAINTS.values())
    items = []
    index = 0
    while len(items) < 200:
        category = categories[index % len(categories)]
        kind = index % 3
        if kind == 0:
            items.append((schema, ("dimsat", category)))
        elif kind == 1:
            items.append((schema, ("summarizable", "SaleRegion", (category,))))
        else:
            items.append(
                (schema, ("implies", constraints[index % len(constraints)]))
            )
        index += 1
    assert len(items) == 200

    cache = DecisionCache()
    engine = ResilientDecisionEngine(
        ParallelDecisionEngine(cache=cache),
        retry=FAST_RETRY,
    )
    with inject_faults(HAMMER_SPEC) as injector:
        outcomes = engine.decide_many_outcomes(items)
    fired = injector.fired()
    assert fired["worker-crash"] > 0, "hammer never hit the workers"
    assert fired["cache-store"] > 0, "hammer never hit the cache store"

    # Every decision completed: correct verdict or typed UNKNOWN.
    assert len(outcomes) == 200
    from repro.core.request import normalize_request

    wrong = []
    unknown = 0
    for (schema_i, request), outcome in zip(items, outcomes):
        if outcome.unknown:
            unknown += 1
            assert outcome.verdict is None
            assert outcome.failures, "UNKNOWN without provenance"
            continue
        key = normalize_request(request)
        if outcome.verdict != _sequential_oracle(schema_i, key):
            wrong.append((request, outcome.verdict))
    assert not wrong, f"faulted batch returned wrong verdicts: {wrong}"

    # The cache holds zero faulted entries: every stored verdict
    # matches a fresh fault-free recompute.
    for full_key, stored in list(cache._data.items()):
        fingerprint, key = full_key[0], full_key[1:]
        assert fingerprint == schema.fingerprint()
        recomputed = _sequential_oracle(schema, key[:-1])
        stored_verdict = (
            stored if isinstance(stored, bool)
            else getattr(stored, "satisfiable", getattr(stored, "implied", None))
        )
        assert stored_verdict == recomputed, f"poisoned cache entry {key}"


def test_hammer_is_deterministic():
    """The same seed replays the same fault schedule (fire counts)."""
    schema = location_schema()
    items = [(schema, ("dimsat", c))
             for c in sorted(schema.hierarchy.categories - {ALL})] * 10

    def run():
        engine = ResilientDecisionEngine(
            ParallelDecisionEngine(cache=DecisionCache()),
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.0),
        )
        with inject_faults("worker-crash:p=0.5;seed=99") as injector:
            outcomes = engine.decide_many_outcomes(items)
        return (
            injector.fired(),
            [o.status for o in outcomes],
            [o.verdict for o in outcomes],
        )

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
