"""Tests for the compiled decision tier (artifact, store, engine).

Correctness anchors:

* verdict parity with the sequential kernel on every suite schema (the
  hot schemas the compiled tier exists for);
* witnesses materialize into valid, SIGMA-satisfying instances (the
  interpreted CHECK agrees with the real semantics), and a planted
  encoding defect is caught by that CHECK and costs only a fallback;
* the root CNF's models are exactly the complete subhierarchies the
  kernel's EXPAND and brute force admit, on every adversarial family,
  and roots with tens of thousands of them compile without a fallback;
* a query whose atoms SIGMA already uses is encoded in a number of
  clauses independent of the root's subhierarchy count, and each atom
  maps to the skeleton's own literals without changing a verdict;
* compile failures (numeric categories, comparison-atom queries) fall
  back to the interpreted kernel, never a wrong or missing verdict;
* the engine's cache keys and audit records are byte-compatible with the
  sequential path, so ``audit-verify`` can replay a compiled run;
* the per-decision budget bounds the root build, every solve and the
  kernel fallback, and an aborted decision leaves the artifact sound;
* ``build_engine`` builds the compiled engine by default.
"""

from __future__ import annotations

import pytest

from repro.constraints import satisfies_all
from repro.constraints.ast import Not
from repro.constraints.parser import parse
from repro.core import (
    ALL,
    CircuitBreaker,
    CompilationError,
    CompiledArtifactStore,
    CompiledDecisionEngine,
    DecisionBudget,
    DimensionSchema,
    HierarchySchema,
    ParallelDecisionEngine,
    ResilientDecisionEngine,
    build_engine,
    compiled_artifact_store,
    decide,
    dimsat,
    implies,
    is_category_satisfiable,
    is_summarizable_in_schema,
    resolve_engine,
)
from repro.core.compile import _RootCompilation
from repro.core.decisioncache import DecisionCache, default_decision_cache
from repro.core.dimsat import DimsatOptions
from repro.core.parallel import ask, decide_many, try_decide_many
from repro.core.resilience import ENGINE_NAMES
from repro.errors import BudgetExceeded, ReproError, SchemaError
from repro.generators.adversarial import (
    FAMILIES,
    shortcut_lattice_schema,
    wide_fanout_schema,
)
from repro.generators.location import location_schema
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.sat_encoding import phase_transition_cnf
from repro.generators.suite import suite_schemas
from tests.skeletons import (
    brute_skeletons,
    compiled_skeletons,
    kernel_skeletons,
    late_shortcut_schema,
)


def _named_3cnf(cnf):
    """A 3-CNF formula as a schema over member names: the chain ``Q ->
    V0 -> ... -> All`` (one subhierarchy) and per clause the
    disjunction of ``Q.Vi = 't'`` or its negation."""
    categories = ["Q"] + [f"V{i}" for i in range(cnf.n_vars)]
    edges = list(zip(categories, categories[1:])) + [(categories[-1], ALL)]
    clauses = [
        " or ".join(
            ("" if polarity else "not ") + f"Q.V{var} = 't'"
            for var, polarity in clause
        )
        for clause in cnf.clauses
    ]
    return DimensionSchema(HierarchySchema(categories, edges), clauses)


def _planted_check_defect(monkeypatch):
    """A schema whose one constraint the encoding drops (a planted
    defect): the solver then finds witnesses that violate it."""
    hierarchy = HierarchySchema(
        ["Base", "A", "B"],
        [("Base", "A"), ("Base", "B"), ("A", ALL), ("B", ALL)],
    )
    schema = DimensionSchema(hierarchy, ["Base -> B implies Base = 'x'"])
    planted = schema.constraints[0]
    clauses = _RootCompilation._clauses

    def dropping(self, node, holds=True):
        return [] if node is planted else clauses(self, node, holds)

    monkeypatch.setattr(_RootCompilation, "_clauses", dropping)
    return schema


@pytest.fixture()
def engine():
    """A compiled engine with a private store and no decision cache, so
    every test decision really exercises the artifact."""
    return CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())


@pytest.fixture(scope="module")
def schemas():
    return suite_schemas()


def _kernel_entry_point(schema, request, cache, _store):
    kind = request[0]
    if kind == "dimsat":
        return is_category_satisfiable(schema, request[1], cache=cache)
    if kind == "implies":
        return implies(schema, request[1], cache=cache)
    return is_summarizable_in_schema(schema, request[1], request[2], cache=cache)


def _sequential_rung(schema, request, cache, store):
    """The resilience ladder with its breaker forced open: the request
    goes straight to the sequential rung."""
    breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=60_000.0)
    breaker.record_failure(schema.fingerprint())
    ladder = ResilientDecisionEngine(
        CompiledDecisionEngine(cache=cache, store=store), breaker=breaker
    )
    outcome = ladder.decide(schema, request)
    assert outcome.rung == "sequential"
    return outcome.verdict


#: One question per way of asking it: the request, and the memo key
#: (without its fingerprint) every surface must file it under.
KEY_QUESTIONS = {
    "dimsat": (("dimsat", "State"), ("dimsat", "State")),
    "implies-text": (
        ("implies", "Store.City.Country"),
        ("implies", "Store.City.Country"),
    ),
    "implies-node": (
        ("implies", parse("Store.City.Country")),
        ("implies", "Store.City.Country"),
    ),
    "implies-spaced": (
        ("implies", "Store . City . Country"),
        ("implies", "Store.City.Country"),
    ),
    "summarizable": (
        ("summarizable", "Country", ["State", "City", "City"]),
        ("summarizable", "Country", ("City", "State")),
    ),
}

#: Every surface a decision can be asked through, over one shared cache.
KEY_SURFACES = {
    "kernel": _kernel_entry_point,
    "decide": lambda schema, request, cache, _store: decide(
        schema, request, cache=cache
    ),
    "sequential": lambda schema, request, cache, _store: ask(
        ParallelDecisionEngine(cache=cache), schema, request
    ),
    "compiled": lambda schema, request, cache, store: ask(
        CompiledDecisionEngine(cache=cache, store=store), schema, request
    ),
    "rung": _sequential_rung,
    "decide_many": lambda schema, request, cache, store: decide_many(
        CompiledDecisionEngine(cache=cache, store=store), [(schema, request)]
    )[0],
}


class TestVerdictParity:
    def test_dimsat_matches_sequential_on_suite(self, engine, schemas):
        for name, schema in schemas.items():
            for category in sorted(schema.hierarchy.categories):
                assert (
                    engine.dimsat(schema, category).satisfiable
                    == dimsat(schema, category).satisfiable
                ), (name, category)
        assert engine.stats.fallbacks == 0

    def test_implies_matches_sequential_on_suite(self, engine, schemas):
        for name, schema in schemas.items():
            for node in schema.constraints:
                assert (
                    engine.implies(schema, node).implied
                    == implies(schema, node).implied
                ), (name, node)
        assert engine.stats.fallbacks == 0

    def test_summarizable_matches_sequential(self, engine, schemas):
        schema = schemas["retail"]
        categories = sorted(schema.hierarchy.categories - {ALL})
        for target in categories:
            for source in categories:
                assert engine.is_summarizable(
                    schema, target, [source]
                ) == is_summarizable_in_schema(
                    schema, target, [source], cache=None
                ), (target, source)

    def test_textual_constraint_accepted(self, engine, schemas):
        schema = schemas["retail"]
        node = schema.constraints[0]
        from repro.constraints.printer import unparse

        text = unparse(node)
        assert engine.implies(schema, text).implied == implies(schema, text).implied


class TestWitnesses:
    def test_dimsat_witness_materializes(self, engine, schemas):
        for name, schema in schemas.items():
            for category in sorted(schema.hierarchy.categories - {ALL}):
                result = engine.dimsat(schema, category)
                if not result.satisfiable:
                    continue
                assert result.witness is not None
                assert result.witness.root == category
                instance = result.witness.to_instance(schema)
                assert instance.is_valid(), (name, category)
                assert satisfies_all(instance, schema.constraints), (name, category)

    def test_implication_counterexample_violates_query(self, engine, schemas):
        """A refuted implication's counterexample satisfies SIGMA but not
        the query (Theorem 2's witness contract)."""
        schema = schemas["retail"]
        query = parse("Store -> SaleRegion")
        result = engine.implies(schema, query)
        sequential = implies(schema, query)
        assert result.implied == sequential.implied
        assert not result.implied, "expected a refutable query for this test"
        instance = result.counterexample.to_instance(schema)
        assert instance.is_valid()
        assert satisfies_all(instance, schema.constraints)
        assert not satisfies_all(instance, [query])

    def test_check_catches_a_planted_encoding_defect(self, monkeypatch):
        """An encoding that drops a SIGMA constraint yields a witness that
        violates it; CHECK rejects that witness, the decision falls back
        and is counted, and the served verdict stays the kernel's."""
        schema = _planted_check_defect(monkeypatch)
        engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        query = parse("not (Base -> B and Base = 'y')")
        assert engine.implies(schema, query).implied == implies(schema, query).implied
        assert implies(schema, query).implied
        assert engine.stats.fallbacks == 1
        assert engine.stats.compiled_decisions == 0


    def test_check_rejects_a_wrong_skeleton(self):
        """CHECK re-verifies the decoded skeleton too: with every edge
        literal of ``Store``'s root reading true, the model decodes to
        every edge of the closure, shortcuts included, and the decision
        falls back with the kernel's verdict."""
        schema = location_schema()
        store = CompiledArtifactStore()
        root = store.get(schema).root("Store")
        root.edges = dict.fromkeys(root.edges, root._true)
        engine = CompiledDecisionEngine(cache=None, store=store)
        assert engine.dimsat(schema, "Store").satisfiable
        assert engine.stats.fallbacks == 1
        assert engine.stats.compiled_decisions == 0


class TestLiftedEncoding:
    def test_query_over_known_atoms_costs_clauses_independent_of_subhierarchies(
        self,
    ):
        """On wide-fanout roots the subhierarchy count grows as
        ``2^width`` (``width`` of them alive under the ``one``
        constraint), the encoding as its ``2 * width + 1`` edges.  A
        query over atoms that an encoded SIGMA constraint already uses
        is encoded once, so it adds the same number of clauses at every
        width, where a per-subhierarchy encoding adds one per
        subhierarchy the query refutes."""
        added = {}
        for width in (3, 5, 7):
            schema = wide_fanout_schema(width=width, seed=1).with_constraints(
                ["b -> p0 or b -> p1 implies b = 'x'"]
            )
            root = CompiledArtifactStore().get(schema).root("b")
            assert len(root.edges) == 2 * width + 1
            query = parse("not (b -> p0 or b -> p1)")
            before = root.solver.num_clauses
            root.assume_query(query)
            added[width] = root.solver.num_clauses - before
            engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
            verdict = engine.implies(schema, query).implied
            assert verdict == implies(schema, query).implied
        assert len(set(added.values())) == 1, added
        assert added[3] <= 1, added

    def test_shared_literals_and_foreign_roots_match_the_kernel(self):
        """SIGMA rooted at three categories, two of them missing from
        some of ``Base``'s frozen dimensions (their constraints then
        hold vacuously); each atom maps straight to the skeleton's
        literals - ``Base -> A`` to its edge, and ``Base.A`` to the same
        edge, the one way ``Base`` reaches ``A`` - and every verdict is
        the kernel's, with no witness falling back."""
        hierarchy = HierarchySchema(
            ["Base", "A", "B", "C"],
            [("Base", "A"), ("Base", "B"), ("Base", "C"), ("A", "C"),
             ("B", "C"), ("A", ALL), ("C", ALL)],
        )
        schema = DimensionSchema(
            hierarchy,
            [
                "A.C = 'c1' or A = 'a'",
                "B.C = 'c2' or B = 'b'",
                "Base.A implies Base = 'x'",
                "Base -> A xor Base -> B",
            ],
        )
        root = CompiledArtifactStore().get(schema).root("Base")
        assert root.solver.solve([-root._in("A")])
        assert root.solver.solve([-root._in("B")])
        root.assume_query(parse("Base -> A or Base -> B or Base.A"))
        assert root._gates[parse("Base -> A")] == root.edges["Base", "A"]
        assert root._gates[parse("Base.A")] == root.edges["Base", "A"]
        assert root._gates[parse("Base -> B")] == root.edges["Base", "B"]
        engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        for category in sorted(hierarchy.categories):
            assert engine.dimsat(schema, category).satisfiable == dimsat(
                schema, category
            ).satisfiable, category
        for text in (
            "Base -> A implies Base = 'x'",
            "Base -> A or Base -> B",
            "Base.C = 'c1'",
            "Base.C = 'c2'",
            "Base -> B or Base = 'x'",
            "Base -> A -> C implies Base.C = 'c1'",
            "Base -> A -> All implies Base.A = 'a'",
            "Base -> B implies Base.C = 'c2' or Base.B = 'b'",
            "Base -> A and Base -> B implies Base.C = 'c1'",
            "not (Base.A and Base.B)",
            "A.C = 'c1' or A = 'a'",
            "B.C = 'c2'",
        ):
            assert engine.implies(schema, text).implied == implies(
                schema, text
            ).implied, text
        for target in ("A", "B", "C"):
            for sources in (["A"], ["B"], ["A", "B"]):
                assert engine.is_summarizable(
                    schema, target, sources
                ) == is_summarizable_in_schema(
                    schema, target, sources, cache=None
                ), (target, sources)
        assert engine.stats.fallbacks == 0


class TestStructuralEncoding:
    """The structural side, (C1)-(C7), is encoded, not listed: over each
    root's upward closure the models of the CNF are the complete
    subhierarchies, whatever their number."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_models_are_the_complete_subhierarchies(self, family):
        schema = FAMILIES[family](0).schema
        hierarchy = schema.hierarchy
        for root in sorted(hierarchy.categories - {ALL}):
            models = compiled_skeletons(schema, root)
            assert models == kernel_skeletons(schema, root), root
            closure = {root} | hierarchy.ancestors(root)
            # Brute force tries every subset of the closure's edges.
            if sum(len(hierarchy.parents(c)) for c in closure) <= 12:
                assert models == brute_skeletons(schema, root), root

    def test_late_shortcut_is_no_model(self):
        schema = late_shortcut_schema()
        for root in sorted(schema.hierarchy.categories - {ALL}):
            models = compiled_skeletons(schema, root)
            assert models == brute_skeletons(schema, root), root
            assert models == kernel_skeletons(schema, root), root
        assert compiled_skeletons(schema, "B") == set()

    @pytest.mark.parametrize(
        "schema",
        [
            wide_fanout_schema(width=16, seed=1),
            shortcut_lattice_schema(levels=5, seed=1),
        ],
        ids=["wide-fanout-16", "shortcut-lattice-5"],
    )
    def test_explosive_roots_compile_without_fallback(self, engine, schema):
        """Wide-fanout at width 16 has 2^16 - 1 complete subhierarchies at
        its bottom, the 5-level shortcut lattice thousands at several
        roots; each root's CNF stays within ``2 |closure|^3`` clauses."""
        for category in sorted(schema.hierarchy.categories):
            assert (
                engine.dimsat(schema, category).satisfiable
                == dimsat(schema, category).satisfiable
            ), category
        assert engine.stats.fallbacks == 0
        for root in engine.store.get(schema)._roots.values():
            assert root.solver.num_clauses <= 2 * len(root.closure) ** 3


class TestDegradation:
    def test_numeric_schema_falls_back(self):
        config = RandomSchemaConfig(
            n_categories=5,
            numeric_fraction=1.0,
            attributed_fraction=1.0,
            equality_constraint_prob=1.0,
            seed=7,
        )
        schema = random_schema(config)
        engine = CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        for category in sorted(schema.hierarchy.categories):
            assert (
                engine.dimsat(schema, category).satisfiable
                == dimsat(schema, category).satisfiable
            )
        assert engine.stats.fallbacks > 0
        assert engine.store.stats.compile_failures >= 1

    def test_failure_is_cached(self):
        config = RandomSchemaConfig(
            n_categories=4, numeric_fraction=1.0, attributed_fraction=1.0, seed=3
        )
        schema = random_schema(config)
        store = CompiledArtifactStore()
        with pytest.raises(CompilationError):
            store.get(schema)
        assert store.stats.compile_failures == 1
        with pytest.raises(CompilationError):
            store.get(schema)
        # Second rejection is a cache hit, not a re-compilation attempt.
        assert store.stats.compile_failures == 1
        assert store.stats.hits == 1

    def test_unknown_category_raises(self, engine, schemas):
        with pytest.raises(SchemaError):
            engine.dimsat(schemas["retail"], "Nope")

    def test_all_category_is_trivial(self, engine, schemas):
        result = engine.dimsat(schemas["retail"], ALL)
        assert result.satisfiable
        assert result.witness.root == ALL


class TestBudget:
    """The compiled tier charges the per-decision budget: one unit for a
    root's build, one on entry to every solve and one per conflict, and
    the kernel fallback continues on the same budget."""

    @pytest.mark.parametrize(
        "budget",
        [DecisionBudget(max_nodes=0), DecisionBudget(time_ms=1e-7)],
        ids=["0-nodes", "1e-7-ms"],
    )
    @pytest.mark.parametrize("built", [False, True], ids=["cold", "built"])
    def test_exhausted_budget_raises(self, schemas, budget, built):
        schema = schemas["retail"]
        store = CompiledArtifactStore()
        if built:
            # The roots already exist, so the solve itself must charge.
            plain = CompiledDecisionEngine(cache=None, store=store)
            for category in ("Store", "City"):
                plain.dimsat(schema, category)
        engine = CompiledDecisionEngine(cache=None, budget=budget, store=store)
        with pytest.raises(BudgetExceeded):
            engine.dimsat(schema, "Store")
        with pytest.raises(BudgetExceeded):
            engine.implies(schema, schema.constraints[0])
        with pytest.raises(BudgetExceeded):
            engine.is_summarizable(schema, "Country", ["City"])
        assert engine.stats.compiled_decisions == 0

    def test_solve_charges_through_a_one_argument_wrapper(
        self, schemas, monkeypatch
    ):
        """The budget rides on the solver, so a wrapper that forwards only
        ``(self, assumptions)`` - as a profiling hook does - still sees a
        budgeted solve charge and abort."""
        from repro.core.satsolver import Solver

        schema = schemas["retail"]
        store = CompiledArtifactStore()
        CompiledDecisionEngine(cache=None, store=store).dimsat(schema, "Store")
        solve = Solver.solve

        def forwarding(self, assumptions=()):
            return solve(self, assumptions)

        monkeypatch.setattr(Solver, "solve", forwarding)
        engine = CompiledDecisionEngine(
            cache=None, budget=DecisionBudget(max_nodes=0), store=store
        )
        with pytest.raises(BudgetExceeded):
            engine.implies(schema, "Store.City")

    def test_exhausted_budget_caches_nothing(self, schemas):
        schema = schemas["retail"]
        cache = DecisionCache()
        engine = CompiledDecisionEngine(
            cache=cache,
            budget=DecisionBudget(max_nodes=0),
            store=CompiledArtifactStore(),
        )
        with pytest.raises(BudgetExceeded):
            engine.implies(schema, "Store.City")
        assert len(cache) == 0

    def test_root_answers_correctly_after_aborted_solves(self):
        """A one-node budget pays the solve's entry charge and aborts at
        the first conflict; the clauses learned before the abort stay
        sound, so the same root then agrees with the kernel everywhere.

        The inputs are 3-CNF formulas (the first one unsatisfiable)
        written over member names: their queries need conflicts, where
        the suite schemas' and the path-encoded formulas' queries
        propagate without one.  The roots are built without solving, so
        the aborted solves are the first each root sees."""
        schemas = {
            f"3cnf-{n_vars}-{seed}": _named_3cnf(phase_transition_cnf(n_vars, seed))
            for n_vars, seed in [(4, 0), (4, 1), (6, 2)]
        }
        for name, schema in schemas.items():
            store = CompiledArtifactStore()
            plain = CompiledDecisionEngine(cache=None, store=store)
            categories = sorted(schema.hierarchy.categories - {ALL})
            artifact = store.get(schema)
            for category in categories:
                artifact.root(category)
            roots = dict(artifact._roots)
            queries = list(schema.constraints) + [
                Not(node) for node in schema.constraints
            ]
            tight = CompiledDecisionEngine(
                cache=None, budget=DecisionBudget(max_nodes=1), store=store
            )
            aborted = 0
            for node in queries:
                try:
                    tight.implies(schema, node)
                except BudgetExceeded:
                    aborted += 1
            assert aborted, name
            for category in categories:
                assert (
                    plain.dimsat(schema, category).satisfiable
                    == dimsat(schema, category).satisfiable
                ), (name, category)
            for node in queries:
                assert (
                    plain.implies(schema, node).implied
                    == implies(schema, node).implied
                ), (name, node)
            # Every answer came from the roots the aborted solves used.
            assert all(artifact._roots[c] is r for c, r in roots.items())
            assert plain.stats.fallbacks == 0

    def test_aborted_build_is_neither_stored_nor_a_failure(self, schemas):
        schema = schemas["retail"]
        store = CompiledArtifactStore()
        engine = CompiledDecisionEngine(
            cache=None, budget=DecisionBudget(max_nodes=0), store=store
        )
        with pytest.raises(BudgetExceeded):
            engine.dimsat(schema, "Store")
        assert store.get(schema).describe()["roots_compiled"] == 0
        assert store.stats.compile_failures == 0
        assert engine.stats.fallbacks == 0
        # An unbudgeted decision then builds and keeps the root.
        plain = CompiledDecisionEngine(cache=None, store=store)
        assert plain.dimsat(schema, "Store").satisfiable
        assert "Store" in store.get(schema).describe()["roots"]

    def test_fallback_continues_under_the_same_budget(self, monkeypatch):
        """A decision whose witness fails CHECK has already charged the
        budget for the build and the solve, and the kernel fallback
        charges that same budget: a node ceiling the kernel alone fits
        in is exceeded by build, solve and fallback together."""
        schema = _planted_check_defect(monkeypatch)
        query = parse("not (Base -> B and Base = 'y')")
        alone = DecisionBudget()
        implies(schema, query, cache=None, budget=alone)
        limit = alone.nodes_charged
        store = CompiledArtifactStore()
        engine = CompiledDecisionEngine(
            cache=None, budget=DecisionBudget(max_nodes=limit), store=store
        )
        with pytest.raises(BudgetExceeded):
            engine.implies(schema, query)
        assert engine.stats.fallbacks == 1
        roomy = CompiledDecisionEngine(
            cache=None, budget=DecisionBudget(max_nodes=limit * 10), store=store
        )
        assert roomy.implies(schema, query).implied
        assert roomy.stats.fallbacks == 1


class TestFaultCheckpoint:
    def test_computed_decisions_pass_the_checkpoint_once(self, schemas):
        """Like the interpreted engine, each computed decision passes the
        worker checkpoint once (a summarizability decision once, not once
        per bottom), and a cached verdict not at all."""
        from repro.core.faults import inject_faults

        schema = schemas["retail"]
        engine = CompiledDecisionEngine(
            cache=DecisionCache(), store=CompiledArtifactStore()
        )
        with inject_faults("slow-worker:delay_ms=0") as injector:
            engine.dimsat(schema, "Store")
            engine.implies(schema, "Store.City")
            engine.is_summarizable(schema, "Country", ["City", "Province"])
            engine.dimsat(schema, "Store")
        assert injector.opportunities() == {"slow-worker": 3}

    def test_worker_crash_fails_a_computed_decision(self, schemas):
        from repro.core.faults import InjectedFault, inject_faults

        schema = schemas["retail"]
        cache = DecisionCache()
        engine = CompiledDecisionEngine(cache=cache, store=CompiledArtifactStore())
        with inject_faults("worker-crash:p=1.0;seed=1"):
            with pytest.raises(InjectedFault):
                engine.implies(schema, "Store.City")
        assert len(cache) == 0


class TestDefaultEngine:
    def test_build_engine_defaults_to_compiled(self):
        assert isinstance(build_engine(), CompiledDecisionEngine)
        wrapped = build_engine(retries=2)
        assert isinstance(wrapped, ResilientDecisionEngine)
        assert isinstance(wrapped.engine, CompiledDecisionEngine)


class TestArtifactStore:
    def test_hit_miss_counters(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        store.get(schema)
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_invalidate_drops_artifact(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert len(store) == 1
        assert store.invalidate(schema) == 1
        assert len(store) == 0
        assert store.stats.invalidations == 1
        # Idempotent on a missing fingerprint.
        assert store.invalidate(schema) == 0
        assert store.stats.invalidations == 1

    def test_invalidate_accepts_fingerprint(self, schemas):
        store = CompiledArtifactStore()
        schema = schemas["time"]
        store.get(schema)
        assert store.invalidate(schema.fingerprint()) == 1

    def test_bounded_entries(self, schemas):
        store = CompiledArtifactStore(max_entries=2)
        for schema in list(schemas.values())[:3]:
            store.get(schema)
        assert len(store) == 2

    def test_report_lines(self, schemas):
        store = CompiledArtifactStore()
        store.get(schemas["time"])
        text = "\n".join(store.report_lines())
        assert "compiled artifacts:" in text
        assert "misses         1" in text

    def test_learned_clause_state_is_reused(self, schemas):
        """The same engine deciding the whole implication family of one
        schema funnels every query into one persistent per-root solver."""
        schema = schemas["retail"]
        store = CompiledArtifactStore()
        engine = CompiledDecisionEngine(cache=None, store=store)
        for node in schema.constraints:
            engine.implies(schema, node)
        artifact = store.get(schema)
        description = artifact.describe()
        assert description["roots_compiled"] >= 1
        total_queries = sum(
            root["queries"] for root in description["roots"].values()
        )
        assert total_queries >= 1

    def test_default_store_is_process_wide(self):
        assert compiled_artifact_store() is compiled_artifact_store()


class TestEngineIntegration:
    def test_decide_many_alignment(self, engine, schemas):
        schema = schemas["retail"]
        categories = sorted(schema.hierarchy.categories - {ALL})
        requests = [(schema, ("dimsat", c)) for c in categories]
        doubled = requests + list(reversed(requests))
        expected = [dimsat(schema, c).satisfiable for c in categories]
        assert decide_many(engine, doubled) == expected + list(reversed(expected))

    def test_try_decide_many_contains_errors(self, engine, schemas):
        schema = schemas["retail"]
        results = try_decide_many(
            engine,
            [(schema, ("dimsat", "Store")), (schema, ("dimsat", "Nope"))],
        )
        assert results[0] == dimsat(schema, "Store").satisfiable
        assert isinstance(results[1], SchemaError)

    @pytest.mark.parametrize("first", sorted(KEY_SURFACES))
    @pytest.mark.parametrize("question", sorted(KEY_QUESTIONS))
    def test_shares_decision_cache_keys_with_sequential(self, question, first):
        """Every surface keys a question the same way: whichever surface
        asks first leaves exactly one entry for it in the shared cache,
        and every other surface then hits that entry - the compiled tier
        changes the computation, not the cache identity."""
        from repro.core.auditlog import _verdict_of

        schema = location_schema()
        request, key = KEY_QUESTIONS[question]
        cache = DecisionCache()
        store = CompiledArtifactStore()
        order = [first] + sorted(set(KEY_SURFACES) - {first})
        verdicts = []
        for position, surface in enumerate(order):
            hits, misses = cache.stats.hits, cache.stats.misses
            verdicts.append(
                _verdict_of(KEY_SURFACES[surface](schema, request, cache, store))
            )
            if position:
                assert (cache.stats.hits, cache.stats.misses) == (
                    hits + 1,
                    misses,
                ), surface
            same_kind = [
                entry
                for entry in cache.entries_for(schema.fingerprint())
                if entry[1] == key[0]
            ]
            assert same_kind == [(schema.fingerprint(), *key)], surface
        assert len(set(verdicts)) == 1
        if first not in ("compiled", "decide_many"):
            # No artifact was ever needed for a warm decision.
            assert store.stats.misses == 0

    def test_resilient_wrapping(self, schemas):
        schema = schemas["retail"]
        engine = ResilientDecisionEngine(
            CompiledDecisionEngine(cache=None, store=CompiledArtifactStore())
        )
        assert (
            engine.dimsat(schema, "Store").satisfiable
            == dimsat(schema, "Store").satisfiable
        )
        outcomes = engine.decide_many_outcomes(
            [(schema, ("dimsat", "Store")), (schema, ("dimsat", "City"))]
        )
        assert [o.verdict for o in outcomes] == [
            dimsat(schema, "Store").satisfiable,
            dimsat(schema, "City").satisfiable,
        ]

    def test_warm_implies_skips_validation(self, schemas, monkeypatch):
        """A cached verdict is served before any validation: only a
        constraint that passed validation was ever cached."""
        import repro.core.compile as compile_module

        schema = schemas["retail"]
        engine = CompiledDecisionEngine(
            cache=DecisionCache(), store=CompiledArtifactStore()
        )
        expected = engine.implies(schema, "Store.City").implied

        def refuse(*_args):
            raise AssertionError("a warm hit validated its constraint")

        monkeypatch.setattr(compile_module, "validate_constraint", refuse)
        assert engine.implies(schema, "Store.City").implied == expected
        with pytest.raises(AssertionError):
            engine.implies(schema, "Store.Country")

    def test_resolve_engine_strings(self):
        from repro.core.parallel import ParallelDecisionEngine

        assert isinstance(resolve_engine("compiled"), CompiledDecisionEngine)
        assert isinstance(resolve_engine("sequential"), ParallelDecisionEngine)
        with pytest.raises(ReproError):
            resolve_engine("quantum")
        assert isinstance(resolve_engine(None), CompiledDecisionEngine)
        assert resolve_engine(None).cache is default_decision_cache()
        sentinel = object()
        assert resolve_engine(sentinel) is sentinel

    def test_audit_records_are_replayable(self, schemas, tmp_path):
        """Compiled verdicts audit as ``(kind, query...)`` records, so
        ``verify_audit_log`` replays every one of them against the
        sequential kernel with zero divergences."""
        import json

        from repro.core.auditlog import AUDIT, verify_audit_log
        from repro.io.json_io import schema_to_json

        class CollectingSink:
            def __init__(self):
                self.records = []
                self.schemas = []

            def export_audit(self, record):
                self.records.append(record)

            def export_schema(self, fingerprint, schema_json):
                self.schemas.append((fingerprint, schema_json))

        schema = schemas["time"]
        sink = CollectingSink()
        AUDIT.attach(sink)
        try:
            engine = CompiledDecisionEngine(
                cache=None, store=CompiledArtifactStore()
            )
            for category in sorted(schema.hierarchy.categories - {ALL}):
                engine.dimsat(schema, category)
            engine.implies(schema, schema.constraints[0])
        finally:
            AUDIT.detach()
        assert sink.records
        assert all("options" not in record for record in sink.records)
        (tmp_path / "audit.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in sink.records)
        )
        (tmp_path / "schemas.jsonl").write_text(
            json.dumps(
                {
                    "fingerprint": schema.fingerprint(),
                    "schema_json": schema_to_json(schema),
                }
            )
            + "\n"
        )
        report = verify_audit_log(str(tmp_path))
        assert report.ok
        assert report.divergences == []
        assert report.verified == len(sink.records)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_engines_take_no_options(self, name):
        """Every engine decides under default options: none accepts an
        ``options`` argument, and every key it files is ``(fingerprint,
        kind, query...)`` with no options slot."""
        from repro.core.resilience import _ENGINES

        with pytest.raises(TypeError):
            _ENGINES[name](options=DimsatOptions())
        schema = location_schema()
        cache = DecisionCache()
        engine = build_engine(name, cache=cache)
        engine.dimsat(schema, "Store")
        engine.implies(schema, "Store.City.Country")
        engine.is_summarizable(schema, "Country", ["City"])
        fingerprint = schema.fingerprint()
        keys = set(cache.entries_for(fingerprint))
        assert {
            (fingerprint, "dimsat", "Store"),
            (fingerprint, "implies", "Store.City.Country"),
            (fingerprint, "summarizable", "Country", ("City",)),
        } <= keys
        arity = {"dimsat": 3, "implies": 3, "summarizable": 4}
        assert all(len(key) == arity[key[1]] for key in keys)


class TestNavigatorViewselect:
    def test_navigator_accepts_compiled_string(self, schemas):
        from repro.olap.facttable import FactTable
        from repro.olap.navigator import AggregateNavigator
        from repro.generators.location import location_instance

        instance = location_instance()
        facts = FactTable(
            instance,
            [(m, {"amount": 1.0}) for m in instance.members("Store")],
        )
        navigator = AggregateNavigator(
            facts, schema=schemas["retail"], engine="compiled"
        )
        assert isinstance(navigator.engine, CompiledDecisionEngine)
        default = AggregateNavigator(facts, schema=schemas["retail"])
        assert isinstance(default.engine, CompiledDecisionEngine)

    def test_viewselect_accepts_compiled_string(self, schemas):
        from repro.olap.viewselect import ViewSelectionProblem, evaluate_selection

        schema = schemas["retail"]
        problem = ViewSelectionProblem(
            schema=schema,
            targets={"SaleRegion": 1.0, "Country": 1.0},
            view_sizes={"Store": 100, "City": 20, "SaleRegion": 5, "Country": 3},
            base_size=100,
        )
        compiled = evaluate_selection(problem, {"City"}, engine="compiled")
        kernel = evaluate_selection(
            problem, {"City"}, engine=build_engine("sequential", cache=None)
        )
        assert compiled.answerable == kernel.answerable
        assert compiled.query_cost == kernel.query_cost
