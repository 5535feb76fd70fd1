"""Property-based tests of DIMSAT against the brute-force oracle.

On random small schemas (every knob randomized), DIMSAT and the exhaustive
baseline must return the same satisfiability verdict for every category,
and the same set of frozen-dimension skeletons; the ablated configurations
must agree too.  On hierarchies whose names do not follow their
topological order (cycles included), the kernel's EXPAND, the compiled
tier's structural CNF and brute force admit the same skeletons, and both
engines give brute force's verdicts with witnesses that materialize.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_frozen_dimensions, brute_force_satisfiable
from repro.constraints import satisfies_all
from repro.core import (
    ALL,
    CompiledArtifactStore,
    CompiledDecisionEngine,
    DimsatOptions,
    dimsat,
    enumerate_frozen_dimensions,
)
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from tests.property.strategies import shuffled_schemas
from tests.skeletons import (
    brute_skeletons,
    compiled_skeletons,
    kernel_skeletons,
    late_shortcut_schema,
)

SETTINGS = settings(max_examples=25, deadline=None)


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


@SETTINGS
@given(small_schemas())
def test_dimsat_agrees_with_brute_force(schema):
    for category in sorted(schema.hierarchy.categories):
        assert (
            dimsat(schema, category).satisfiable
            == brute_force_satisfiable(schema, category)
        ), category


@SETTINGS
@given(small_schemas())
def test_enumeration_matches_brute_force_skeletons(schema):
    bottom = sorted(schema.hierarchy.bottom_categories())[0]
    fast = {f.subhierarchy for f in enumerate_frozen_dimensions(schema, bottom)}
    brute = {
        f.subhierarchy for f in brute_force_frozen_dimensions(schema, bottom)
    }
    assert fast == brute


@SETTINGS
@given(small_schemas())
def test_ablations_agree(schema):
    ablated = DimsatOptions(
        into_pruning=False, shortcut_pruning=False, cycle_pruning=False
    )
    for category in sorted(schema.hierarchy.categories):
        assert (
            dimsat(schema, category).satisfiable
            == dimsat(schema, category, ablated).satisfiable
        ), category


@SETTINGS
@given(small_schemas())
def test_witnesses_materialize_to_conforming_instances(schema):
    for category in sorted(schema.hierarchy.categories):
        result = dimsat(schema, category)
        if not result.satisfiable:
            continue
        instance = result.witness.to_instance(schema)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)


@SETTINGS
@example(late_shortcut_schema())
@given(shuffled_schemas())
def test_shuffled_skeletons_match_brute_force(schema):
    for root in sorted(schema.hierarchy.categories - {ALL}):
        brute = brute_skeletons(schema, root)
        assert kernel_skeletons(schema, root) == brute, root
        assert compiled_skeletons(schema, root) == brute, root


@SETTINGS
@example(late_shortcut_schema())
@given(shuffled_schemas())
def test_shuffled_verdicts_and_witnesses_match_brute_force(schema):
    engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
    for category in sorted(schema.hierarchy.categories):
        expected = brute_force_satisfiable(schema, category)
        for result in (dimsat(schema, category), engine.dimsat(schema, category)):
            assert result.satisfiable == expected, category
            if expected:
                instance = result.witness.to_instance(schema)
                assert instance.is_valid()
                assert satisfies_all(instance, schema.constraints)
    assert engine.stats.fallbacks == 0


@st.composite
def numeric_schemas(draw):
    config = RandomSchemaConfig(
        n_categories=draw(st.integers(min_value=3, max_value=6)),
        n_layers=draw(st.integers(min_value=2, max_value=3)),
        extra_edge_prob=draw(st.sampled_from([0.0, 0.4])),
        into_fraction=draw(st.sampled_from([0.0, 0.7])),
        choice_constraint_prob=draw(st.sampled_from([0.0, 0.7])),
        n_constants=draw(st.integers(min_value=1, max_value=3)),
        attributed_fraction=1.0,
        equality_constraint_prob=0.8,
        numeric_fraction=1.0,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return random_schema(config)


@SETTINGS
@given(numeric_schemas())
def test_dimsat_agrees_with_brute_force_on_numeric_schemas(schema):
    """The order-predicate extension against the oracle: the interval
    representatives must agree with exhaustive materialization."""
    for category in sorted(schema.hierarchy.categories):
        assert (
            dimsat(schema, category).satisfiable
            == brute_force_satisfiable(schema, category)
        ), category


@SETTINGS
@given(numeric_schemas())
def test_numeric_witnesses_conform(schema):
    for category in sorted(schema.hierarchy.categories):
        result = dimsat(schema, category)
        if result.satisfiable and category != "All":
            instance = result.witness.to_instance(schema)
            assert instance.is_valid()
            assert satisfies_all(instance, schema.constraints)
