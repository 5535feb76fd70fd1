"""Unit tests for the :class:`~repro.core.parallel.ParallelDecisionEngine`.

The differential harness (:mod:`tests.test_differential`) covers verdict
agreement on random schemas; this file pins down the engine's mechanics -
request normalization, batch dedup accounting, the lifecycle, the
inline mode (no pool threads, warm hits that never reach the kernel,
single or batched), witness validity, and the DimsatStats regression
(concurrent CHECK totals must equal the sequential run's).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.faults import inject_faults
from repro.core.parallel import ParallelDecisionEngine
from repro.core.request import normalize_request, resolve_request
from repro.errors import ReproError, SchemaError
from repro.generators.location import location_schema
from repro.generators.random_schema import make_unsatisfiable


@pytest.fixture()
def schema():
    return location_schema()


class TestNormalizeRequest:
    def test_dimsat(self):
        assert normalize_request(("dimsat", "Store")) == ("dimsat", "Store")

    def test_implies_canonicalizes_text(self):
        from repro.constraints.parser import parse

        text_key = normalize_request(("implies", "Store.City.Country"))
        node_key = normalize_request(("implies", parse("Store.City.Country")))
        assert text_key == node_key
        assert text_key[0] == "implies" and isinstance(text_key[1], str)

    def test_summarizable_sorts_and_dedups_sources(self):
        a = normalize_request(("summarizable", "Country", ["State", "City", "City"]))
        b = normalize_request(("summarizable", "Country", ("City", "State")))
        assert a == b == ("summarizable", "Country", ("City", "State"))

    def test_rejects_malformed_requests(self):
        for bad in [(), ("dimsat",), ("implies",), ("summarizable", "X"), ("nope", 1)]:
            with pytest.raises(ReproError):
                normalize_request(bad)

    @pytest.mark.parametrize(
        "bad, expected",
        [
            (("summarizable", "Country", "City"), "sources a collection"),
            (("implies", 5), "constraint as text or a constraint node"),
        ],
    )
    def test_rejects_misshapen_queries_naming_the_form(self, bad, expected):
        """A source set given as one string is not split into characters,
        and a constraint that is neither text nor a node does not reach
        the printer: both are rejected with the expected form."""
        with pytest.raises(ReproError, match=expected):
            resolve_request(bad)

    def test_engine_rejects_a_string_source_set(self, schema):
        engine = ParallelDecisionEngine(cache=None)
        with pytest.raises(ReproError, match="sources a collection"):
            engine.is_summarizable(schema, "Country", "City")


class TestBatchAPI:
    def test_dedup_counts_and_alignment(self, schema):
        batch = [
            (schema, ("dimsat", "Store")),
            (schema, ("dimsat", "City")),
            (schema, ("dimsat", "Store")),
            (schema, ("summarizable", "Country", ["City"])),
            (schema, ("summarizable", "Country", ("City",))),
        ]
        with ParallelDecisionEngine(cache=DecisionCache()) as engine:
            verdicts = engine.decide_many(batch)
            assert verdicts == [True, True, True, True, True]
            assert engine.stats.batch_requests == 5
            assert engine.stats.batch_deduped == 2
            # Each unique request is one decision.
            assert engine.stats.decisions == 3

    def test_cross_batch_dedup_via_cache(self, schema):
        cache = DecisionCache()
        with ParallelDecisionEngine(cache=cache) as engine:
            batch = [(schema, ("dimsat", "Store")), (schema, ("implies", "Store.City"))]
            engine.decide_many(batch)
            before = cache.stats.misses
            engine.decide_many(batch)
            # Second batch hits the decision cache: no new misses.
            assert cache.stats.misses == before
            assert cache.stats.hits >= 2

    def test_rebuilt_equal_schema_shares_verdicts(self, schema):
        from repro.io.json_io import schema_from_json, schema_to_json

        rebuilt = schema_from_json(schema_to_json(schema))
        assert rebuilt is not schema
        with ParallelDecisionEngine(cache=DecisionCache()) as engine:
            batch = [
                (schema, ("dimsat", "Store")),
                (rebuilt, ("dimsat", "Store")),
            ]
            assert engine.decide_many(batch) == [True, True]
            # Equal fingerprints dedupe across distinct schema objects.
            assert engine.stats.batch_deduped == 1

    def test_empty_batch(self, schema):
        with ParallelDecisionEngine() as engine:
            assert engine.decide_many([]) == []

    def test_uncached_engine(self, schema):
        with ParallelDecisionEngine(cache=None) as engine:
            assert engine.is_satisfiable(schema, "Store") is True
            assert engine.decide_many([(schema, ("dimsat", "Store"))]) == [True]


class TestFallbackAndLifecycle:
    def test_shutdown_is_idempotent_and_degrades_gracefully(self, schema):
        engine = ParallelDecisionEngine(cache=DecisionCache())
        assert engine.decide_many([(schema, ("dimsat", "Store"))]) == [True]
        engine.shutdown()
        engine.shutdown()
        # A shut-down engine still answers: it owns nothing to release.
        assert engine.decide_many([(schema, ("dimsat", "City"))]) == [True]

    def test_unknown_category_raises_in_parallel_path(self, schema):
        with ParallelDecisionEngine(cache=None) as engine:
            with pytest.raises(SchemaError):
                engine.is_satisfiable(schema, "Galaxy")


class TestInlineThreadMode:
    def test_no_decision_threads_start(self, schema):
        """Thread mode decides on the caller's thread: no pool thread ever
        starts, for single decisions or batches."""
        before = {t.ident for t in threading.enumerate()}
        with ParallelDecisionEngine(cache=None) as engine:
            assert engine._get_executor() is None
            assert engine.is_satisfiable(schema, "Store") is True
            assert engine.is_implied(schema, "Store.City.Country") is True
            assert engine.is_summarizable(schema, "Country", ["City"]) is True
            batch = [(schema, ("dimsat", c)) for c in ("Store", "City", "State")]
            assert engine.decide_many(batch) == [True, True, True]
            started = [
                t.name for t in threading.enumerate() if t.ident not in before
            ]
        assert not any(name.startswith("repro-decide") for name in started)
        assert started == []

    def test_warm_single_decision_skips_kernel_and_fault_checkpoint(
        self, schema, monkeypatch
    ):
        engine = ParallelDecisionEngine(cache=DecisionCache())
        engine.dimsat(schema, "Store")
        engine.implies(schema, "Store.City.Country")
        engine.is_summarizable(schema, "Country", ["City"])

        def boom(*_args, **_kwargs):
            raise AssertionError("warm hit left the cache")

        monkeypatch.setattr(ParallelDecisionEngine, "_dimsat_fanout", boom)
        monkeypatch.setattr(ParallelDecisionEngine, "_summarizable_fanout", boom)
        # A crash armed on every worker checkpoint: a warm hit must never
        # reach one.
        with inject_faults("worker-crash:p=1.0;seed=1") as injector:
            assert engine.dimsat(schema, "Store").satisfiable
            assert engine.implies(schema, "Store.City.Country").implied
            assert engine.is_summarizable(schema, "Country", ["City"]) is True
        assert injector.opportunities() == {"worker-crash": 0}

    def test_warm_batch_skips_fault_checkpoint(self, schema):
        """The batch path is the single path: a cached verdict asked
        through ``decide_many`` never reaches the fault checkpoint."""
        engine = ParallelDecisionEngine(cache=DecisionCache())
        batch = [
            (schema, ("dimsat", "Store")),
            (schema, ("implies", "Store.City.Country")),
            (schema, ("summarizable", "Country", ["City"])),
        ]
        assert engine.decide_many(batch) == [True, True, True]
        with inject_faults("worker-crash:p=1.0;seed=1") as injector:
            assert engine.decide_many(batch) == [True, True, True]
        assert injector.opportunities() == {"worker-crash": 0}


class TestWitnessValidity:
    def test_parallel_witness_materializes(self, schema):
        """The engine's witness must be a real frozen dimension whose
        instance conforms to the schema, every time it is recomputed."""
        from repro.constraints.semantics import satisfies_all

        with ParallelDecisionEngine(cache=None) as engine:
            for _ in range(5):
                result = engine.dimsat(schema, "Store")
                assert result.satisfiable
                instance = result.witness.to_instance(schema)
                assert satisfies_all(instance, schema.constraints)


class TestStatsRegression:
    def test_concurrent_check_totals_match_sequential(self, schema):
        """On an unsatisfiable category the search runs to exhaustion, so
        each of several concurrent uncached decisions (the decision
        server's executor runs requests side by side, sharing the circle
        cache) must count exactly what the sequential search counts."""
        doomed = make_unsatisfiable(schema, "Store")
        sequential = dimsat(doomed, "Store")
        assert not sequential.satisfiable
        with ParallelDecisionEngine(cache=None) as engine, ThreadPoolExecutor(
            max_workers=8
        ) as pool:
            results = list(
                pool.map(lambda _: engine.dimsat(doomed, "Store"), range(8))
            )
            for result in results:
                assert not result.satisfiable
                assert result.stats.expand_calls == sequential.stats.expand_calls
                assert result.stats.check_calls == sequential.stats.check_calls
                assert (
                    result.stats.subhierarchies_completed
                    == sequential.stats.subhierarchies_completed
                )
