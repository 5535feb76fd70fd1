"""The adversarial generator corpus: every family builds valid schemas,
stays deterministic per seed, and agrees with the paper's machinery.

The differential tests here are the corpus's reason to exist: compiled
and sequential engines must agree on every corpus schema, the Theorem 4
encodings must decide exactly like the formulas they encode, and the
census instances must actually satisfy their schemas (they are the
ground the soak harness's aggregate invariants stand on).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import ALL
from repro.core.compile import CompilationError, CompiledDecisionEngine
from repro.core.dimsat import dimsat
from repro.constraints.semantics import satisfies_all
from repro.errors import SchemaError
from repro.generators.adversarial import (
    FAMILIES,
    adversarial_corpus,
    census_org_instance,
    census_org_schema,
    census_product_instance,
    census_product_schema,
    census_time_instance,
    census_time_schema,
    deep_chain_schema,
    many_bottoms_schema,
    np_boundary_schema,
    shortcut_lattice_schema,
    wide_fanout_schema,
)
from repro.io.json_io import schema_from_json, schema_to_json


class TestFamilies:
    def test_registry_has_at_least_five_families(self):
        assert len(FAMILIES) >= 5

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_case_builds_and_is_wellformed(self, family):
        case = FAMILIES[family](seed=0)
        assert case.family == family
        assert case.root in case.schema.hierarchy.categories
        assert not case.schema.hierarchy.is_cyclic()
        assert case.describe()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_case_is_deterministic_per_seed(self, family):
        one = FAMILIES[family](seed=3)
        two = FAMILIES[family](seed=3)
        assert schema_to_json(one.schema) == schema_to_json(two.schema)
        assert one.schema.fingerprint() == two.schema.fingerprint()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_root_is_satisfiable(self, family):
        case = FAMILIES[family](seed=0)
        assert dimsat(case.schema, case.root).satisfiable

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_schema_round_trips_through_json(self, family):
        case = FAMILIES[family](seed=1)
        reloaded = schema_from_json(schema_to_json(case.schema))
        assert reloaded.fingerprint() == case.schema.fingerprint()


class TestCorpus:
    def test_corpus_covers_all_families(self):
        corpus = adversarial_corpus(seed=0)
        assert {case.family for case in corpus} == set(FAMILIES)

    def test_corpus_is_deterministic(self):
        one = adversarial_corpus(seed=5, per_family=2)
        two = adversarial_corpus(seed=5, per_family=2)
        assert [c.name for c in one] == [c.name for c in two]
        assert [c.schema.fingerprint() for c in one] == [
            c.schema.fingerprint() for c in two
        ]

    def test_family_subset_and_unknown_family(self):
        corpus = adversarial_corpus(seed=0, families=["deep-chain"])
        assert [c.family for c in corpus] == ["deep-chain"]
        with pytest.raises(SchemaError):
            adversarial_corpus(seed=0, families=["no-such-family"])

    def test_compiled_matches_sequential_on_whole_corpus(self):
        engine = CompiledDecisionEngine(cache=None)
        for case in adversarial_corpus(seed=0):
            for category in sorted(case.schema.hierarchy.categories - {ALL}):
                expected = dimsat(case.schema, category).satisfiable
                try:
                    got = engine.dimsat(case.schema, category).satisfiable
                except CompilationError:
                    pytest.skip(f"{case.name} not compilable")
                assert got == expected, (case.name, category)


class TestStructuredFamilies:
    def test_deep_chain_depth_validation(self):
        with pytest.raises(SchemaError):
            deep_chain_schema(depth=1)

    def test_deep_chain_has_skip_choices(self):
        schema = deep_chain_schema(depth=9, skip_every=3, seed=0)
        assert ("d0", "d2") in schema.hierarchy.edges
        assert dimsat(schema, "d0").satisfiable

    def test_wide_fanout_width(self):
        schema = wide_fanout_schema(width=6, seed=0)
        parents = schema.hierarchy.parents("b")
        assert len(parents) == 6
        assert dimsat(schema, "b").satisfiable

    def test_many_bottoms_all_satisfiable(self):
        schema = many_bottoms_schema(n_bottoms=4, seed=0)
        for i in range(4):
            assert dimsat(schema, f"b{i}").satisfiable

    def test_shortcut_lattice_is_dense(self):
        schema = shortcut_lattice_schema(levels=3, width=2, seed=0)
        # Complete bipartite between adjacent levels: every level-0
        # category sees every level-1 category as a parent.
        assert schema.hierarchy.parents("l0_0") >= {"l1_0", "l1_1"}


class TestNpBoundary:
    def test_planted_formula_is_satisfiable(self):
        schema = np_boundary_schema(n_vars=4, seed=0, planted=True)
        assert dimsat(schema, "v").satisfiable

    def test_unsat_variant_is_unsatisfiable(self):
        schema = np_boundary_schema(n_vars=3, seed=0, unsat=True)
        assert not dimsat(schema, "v").satisfiable

    def test_clause_count_defaults_to_critical_ratio(self):
        schema = np_boundary_schema(n_vars=4, seed=0, planted=True)
        # 4 one() constraints (one per variable) + round(4.3 * 4) clauses.
        assert len(schema.constraints) == 4 + 17

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_planted_always_satisfiable_compiled_agrees(self, seed):
        schema = np_boundary_schema(n_vars=3, seed=seed, planted=True)
        sequential = dimsat(schema, "v").satisfiable
        assert sequential is True
        engine = CompiledDecisionEngine(cache=None)
        assert engine.dimsat(schema, "v").satisfiable is True


class TestCensusDomains:
    def test_time_instance_satisfies_schema(self):
        schema = census_time_schema()
        instance = census_time_instance(years=1, start_year=2022, seed=0)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)

    def test_time_instance_has_boundary_weeks(self):
        instance = census_time_instance(years=1, start_year=2022, seed=0)
        boundary = [
            m
            for m in instance.all_members()
            if instance.category_of(m) == "Week"
            and instance.name(m) == "boundary"
        ]
        assert boundary, "a real calendar year always spans ISO years"

    def test_product_instance_satisfies_schema(self):
        schema = census_product_schema()
        instance = census_product_instance(n_skus=40, seed=0)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)

    def test_org_instance_satisfies_schema(self):
        schema = census_org_schema()
        instance = census_org_instance(n_employees=40, seed=0)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)

    def test_census_instances_are_deterministic(self):
        a = census_product_instance(n_skus=30, seed=9)
        b = census_product_instance(n_skus=30, seed=9)
        assert sorted(map(repr, a.all_members())) == sorted(
            map(repr, b.all_members())
        )
        assert sorted(a.member_edges()) == sorted(b.member_edges())


@pytest.mark.slow
class TestCorpusSweep:
    """Wider seeded sweep - deselected from tier-1, run by soak-smoke."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_family_stays_sound(self, seed):
        engine = CompiledDecisionEngine(cache=None)
        for case in adversarial_corpus(seed=seed):
            expected = dimsat(case.schema, case.root).satisfiable
            assert expected, case.name
            try:
                assert engine.dimsat(case.schema, case.root).satisfiable
            except CompilationError:
                continue
            if case.instance is not None:
                assert satisfies_all(case.instance, case.schema.constraints)
