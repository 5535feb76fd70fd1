"""Sweep every tool over every suite schema.

The realistic schema suite is the diversity harness: every high-level
facility must run crash-free and self-consistently over all of them.
This is where a new schema shape would first expose an unhandled case.
"""

from __future__ import annotations

import pytest

from repro.core import (
    dimsat,
    enumerate_frozen_dimensions,
    satisfiability_report,
)
from repro.core.explain import explain_summarizability_in_schema
from repro.core.normalize import (
    minimize,
    schemas_equivalent,
    strengthen_with_intos,
)
from repro.core.profile import profile_report, schema_profile
from repro.core.budget import DecisionBudget
from repro.core.parallel import ParallelDecisionEngine, try_decide_many
from repro.generators.adversarial import adversarial_corpus
from repro.generators.suite import suite_schemas
from repro.io import schema_from_json, schema_report, schema_to_json
from repro.io.dot import frozen_set_to_dot, hierarchy_to_dot
from repro.io.ascii import hierarchy_tree

SCHEMAS = sorted(suite_schemas().items())


@pytest.mark.parametrize("name,schema", SCHEMAS, ids=[n for n, _ in SCHEMAS])
class TestSuiteSweep:
    def test_profile(self, name, schema):
        profile = schema_profile(schema)
        assert profile.categories >= 4
        assert profile.constraints >= 4
        assert "categories (N)" in profile.render()
        assert name  # parametrization sanity

    def test_profile_report_runs(self, name, schema):
        text = profile_report(schema)
        assert "satisfiable" in text

    def test_markdown_report(self, name, schema):
        text = schema_report(schema)
        assert "## Frozen dimensions" in text
        assert "## Safe aggregation" in text
        assert "**NO**" in text or "yes" in text

    def test_normalization_round(self, name, schema):
        minimized, _dropped = minimize(schema)
        strengthened, _added = strengthen_with_intos(minimized)
        assert schemas_equivalent(schema, strengthened)

    def test_json_round_trip_preserves_reasoning(self, name, schema):
        rebuilt = schema_from_json(schema_to_json(schema))
        assert satisfiability_report(rebuilt) == satisfiability_report(schema)

    def test_frozen_enumeration_and_rendering(self, name, schema):
        bottom = sorted(schema.hierarchy.bottom_categories())[0]
        frozen = enumerate_frozen_dimensions(schema, bottom)
        assert frozen
        dot = frozen_set_to_dot(frozen)
        assert dot.count("subgraph cluster_") == len(frozen)

    def test_text_renderings(self, name, schema):
        assert hierarchy_tree(schema.hierarchy).startswith("All")
        assert hierarchy_to_dot(schema.hierarchy).startswith("digraph")

    def test_explanations_over_all_reachable_pairs(self, name, schema):
        hierarchy = schema.hierarchy
        bottom = sorted(hierarchy.bottom_categories())[0]
        for target in sorted(hierarchy.ancestors(bottom) - {"All"}):
            for source in sorted(hierarchy.categories - {"All", target}):
                if not hierarchy.reaches(source, target):
                    continue
                explanation = explain_summarizability_in_schema(
                    schema, target, [source]
                )
                rendered = explanation.render()
                if explanation.summarizable:
                    assert "NOT" not in rendered
                else:
                    assert explanation.counterexample is not None

    def test_witnesses_for_every_category(self, name, schema):
        from repro.constraints import satisfies_all

        for category in sorted(schema.hierarchy.categories - {"All"}):
            result = dimsat(schema, category)
            assert result.satisfiable, (name, category)
            instance = result.witness.to_instance(schema)
            assert instance.is_valid()
            assert satisfies_all(instance, schema.constraints)


ADVERSARIAL_CORPUS = adversarial_corpus(seed=0)


@pytest.mark.parametrize(
    "case", ADVERSARIAL_CORPUS, ids=[c.name for c in ADVERSARIAL_CORPUS]
)
class TestAdversarialSweep:
    """The same crash-free bar, over the adversarial corpus, but with a
    small decision budget: the stress shapes are exactly the ones where
    an unbounded sweep would stop being a smoke test."""

    BUDGET = DecisionBudget(max_nodes=20_000, time_ms=2_000.0)

    def test_profile_and_report(self, case):
        profile = schema_profile(case.schema)
        assert profile.categories >= 2
        assert "categories (N)" in profile.render()

    def test_json_round_trip(self, case):
        rebuilt = schema_from_json(schema_to_json(case.schema))
        assert rebuilt.fingerprint() == case.schema.fingerprint()

    def test_budgeted_engine_agrees_or_degrades(self, case):
        engine = ParallelDecisionEngine(budget=self.BUDGET)
        (outcome,) = try_decide_many(
            engine, [(case.schema, ("dimsat", case.root))]
        )
        if not isinstance(outcome, BaseException):
            assert outcome == dimsat(case.schema, case.root).satisfiable

    def test_root_witness_is_valid(self, case):
        result = dimsat(case.schema, case.root)
        assert result.satisfiable
        instance = result.witness.to_instance(case.schema)
        assert instance.is_valid()

    def test_text_renderings(self, case):
        assert hierarchy_tree(case.schema.hierarchy).startswith("All")
        assert hierarchy_to_dot(case.schema.hierarchy).startswith("digraph")
