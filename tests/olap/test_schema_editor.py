"""Schema maintenance: every edit op must re-key the decision cache so no
stale verdict survives an add/drop of an edge, category, or constraint."""

from __future__ import annotations

import pytest

from repro.constraints.printer import unparse
from repro.core import (
    DecisionCache,
    compiled_artifact_store,
    default_decision_cache,
    DimensionSchema,
    DimensionInstance,
    HierarchySchema,
    build_engine,
    decide,
    implies,
    is_implied,
    is_summarizable_in_schema,
)
from repro.errors import OlapError, SchemaError
from repro.olap import SUM, FactTable, MaintainedNavigator, SchemaEditor


@pytest.fixture()
def cache() -> DecisionCache:
    return DecisionCache()


@pytest.fixture()
def hierarchy() -> HierarchySchema:
    """Base -> {A, C} -> T -> All: two routes to the target."""
    return HierarchySchema(
        ["Base", "A", "C", "T"],
        [("Base", "A"), ("Base", "C"), ("A", "T"), ("C", "T"), ("T", "All")],
    )


@pytest.fixture()
def schema(hierarchy) -> DimensionSchema:
    return DimensionSchema(hierarchy, ["Base -> C", "C -> T"])


class TestConstraintEdits:
    def test_add_constraint_verdict_is_fresh(self, hierarchy, cache):
        editor = SchemaEditor(DimensionSchema(hierarchy, []), cache)
        assert not is_implied(editor.schema, "Base -> C", cache=cache)
        edited = editor.add_constraint("Base -> C")
        assert is_implied(edited, "Base -> C", cache=cache)
        assert cache.stats.invalidations >= 1

    def test_drop_constraint_verdict_is_fresh(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        assert is_implied(editor.schema, "Base -> C", cache=cache)
        edited = editor.drop_constraint("Base -> C")
        assert not is_implied(edited, "Base -> C", cache=cache)

    def test_drop_constraint_accepts_ast_and_text(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        editor.drop_constraint(schema.constraints[0])
        assert len(editor.schema.constraints) == 1

    def test_drop_unknown_constraint_raises(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        with pytest.raises(SchemaError):
            editor.drop_constraint("Base -> A")
        assert editor.schema is schema  # untouched

    def test_drop_removes_only_the_last_copy(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        editor.add_constraint("C -> T")
        editor.add_constraint("Base -> A")
        editor.drop_constraint("C -> T")
        assert [unparse(n) for n in editor.schema.constraints] == [
            "Base -> C",
            "C -> T",
            "Base -> A",
        ]

    def test_mixed_trace_edits_replay_verbatim(self, cache):
        """Regression: the trace adds the same weakening twice (seed 2
        adds ``Store -> City or Store -> City`` while a copy is pending),
        and dropping the first copy used to remove both, so the second
        drop raised.  Every drop must restore SIGMA as it was before the
        add it undoes."""
        from repro.generators.location import location_schema
        from repro.generators.workloads import mixed_trace

        start = location_schema()
        trace = mixed_trace(start, n_ops=120, seed=2, weights={"edit": 1.0})
        editor = SchemaEditor(start, cache)
        pending = []
        duplicated = False
        for op in trace:
            if op[1] == "add-implied":
                texts = [unparse(n) for n in editor.schema.constraints]
                duplicated |= unparse(op[2]) in texts
                pending.append((op[2], texts))
                editor.add_constraint(op[2])
            else:
                node, before = pending.pop()
                editor.drop_constraint(node)
                assert [unparse(n) for n in editor.schema.constraints] == before
        assert duplicated


class TestHierarchyEdits:
    def test_drop_edge_verdict_is_fresh(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        assert is_summarizable_in_schema(editor.schema, "T", ("C",), cache=cache)
        # A loses its child edge and becomes a bottom that reaches T
        # outside {C}, so the verdict must flip.
        edited = editor.drop_edge("Base", "A")
        assert not is_summarizable_in_schema(edited, "T", ("C",), cache=cache)

    def test_add_edge_verdict_is_fresh(self, hierarchy, cache):
        start = DimensionSchema(
            hierarchy.without_edge("Base", "A"), ["Base -> C", "C -> T"]
        )
        editor = SchemaEditor(start, cache)
        assert not is_summarizable_in_schema(editor.schema, "T", ("C",), cache=cache)
        edited = editor.add_edge("Base", "A")
        assert is_summarizable_in_schema(edited, "T", ("C",), cache=cache)

    def test_add_existing_edge_raises(self, schema, cache):
        with pytest.raises(SchemaError):
            SchemaEditor(schema, cache).add_edge("Base", "A")

    def test_add_category_verdict_is_fresh(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        assert is_summarizable_in_schema(editor.schema, "T", ("C",), cache=cache)
        # Z is a new bottom category under T, reaching it outside {C}.
        edited = editor.add_category("Z", parents=["T"])
        assert not is_summarizable_in_schema(edited, "T", ("C",), cache=cache)

    def test_drop_category_verdict_is_fresh(self, schema, cache):
        editor = SchemaEditor(schema, cache)
        editor.add_category("Z", parents=["T"])
        assert not is_summarizable_in_schema(editor.schema, "T", ("C",), cache=cache)
        edited = editor.drop_category("Z")
        assert is_summarizable_in_schema(edited, "T", ("C",), cache=cache)

    def test_drop_category_removes_its_constraints(self, hierarchy, cache):
        editor = SchemaEditor(
            DimensionSchema(hierarchy, ["Base -> A", "A -> T", "Base -> C"]),
            cache,
        )
        edited = editor.drop_category("A")
        assert "A" not in edited.hierarchy.categories
        assert len(edited.constraints) == 1  # only Base -> C survives


class TestCacheHygiene:
    OPS = {
        "add_edge": lambda e: e.add_edge("Base", "A"),
        "drop_edge": lambda e: e.drop_edge("Base", "A"),
        "add_category": lambda e: e.add_category("Z", parents=["T"]),
        "drop_category": lambda e: e.drop_category("A"),
        "add_constraint": lambda e: e.add_constraint("Base -> A"),
        "add_constraint_in_cone": lambda e: e.add_constraint("C.T = 't1'"),
        "drop_constraint": lambda e: e.drop_constraint("C -> T"),
    }
    #: The warmed verdict is ``ds |= C -> T``, whose dependency cone is
    #: {C, T, All}.  The hierarchy and ``add_constraint`` ops edit
    #: outside that cone (the Base/A branch), so the verdict is *rekeyed*
    #: to the new fingerprint by the syntactic delta.
    #: ``add_constraint_in_cone`` adds a constraint SIGMA does not imply
    #: inside the cone, so the delta evicts the verdict.  Dropping
    #: ``C -> T`` touches the cone too, but C's only parent is T, so the
    #: bare hierarchy implies ``C -> T``: the drop keeps the instances
    #: and every verdict moves.
    SURVIVES = {
        "add_edge": True,
        "drop_edge": True,
        "add_category": True,
        "drop_category": True,
        "add_constraint": True,
        "add_constraint_in_cone": False,
        "drop_constraint": True,
    }
    #: The ops proven to keep the set of instances.
    PRESERVES_MODELS = {"drop_constraint"}

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_op_rekeys_or_evicts(self, hierarchy, cache, op):
        base = (
            DimensionSchema(hierarchy.without_edge("Base", "A"), ["C -> T"])
            if op == "add_edge"
            else DimensionSchema(hierarchy, ["C -> T"])
        )
        editor = SchemaEditor(base, cache)
        warm = implies(base, "C -> T", cache=cache)
        assert len(cache) == 1
        # Held, as a compiled-engine server holds it: the editor decides
        # whether an edit keeps the instances only through it.
        compiled_artifact_store().get(base)
        edited = self.OPS[op](editor)
        assert edited.fingerprint() != base.fingerprint()
        assert editor.history == [base.fingerprint(), edited.fingerprint()]
        # The replaced fingerprint never retains entries, either way.
        assert not cache.holds(base.fingerprint())
        assert editor.last_edit_preserved_models == (op in self.PRESERVES_MODELS)
        if self.SURVIVES[op]:
            # After the drop, the edit's own verdict ``SIGMA_new |= C -> T``
            # shares the warm verdict's key, so one entry remains.
            assert len(cache) == 1
            assert cache.stats.rekeyed == 1
            # The survivor answers under the new fingerprint as a hit and
            # is byte-identical to a fresh uncached recomputation.
            hits_before = cache.stats.hits
            survived = implies(edited, "C -> T", cache=cache)
            assert cache.stats.hits == hits_before + 1
            assert survived is warm
            fresh = implies(edited, "C -> T", cache=DecisionCache())
            assert survived.implied == fresh.implied
            assert repr(survived.counterexample) == repr(fresh.counterexample)
        else:
            assert len(cache) == 0
            assert cache.stats.rekeyed == 0
            assert cache.stats.invalidations >= 1

    def test_no_registered_store_retains_replaced_fingerprint(
        self, hierarchy, cache
    ):
        """The dual-store hazard the `invalidate_everywhere` helper
        closes: after any edit, neither process-wide fingerprint store
        nor the editor's cache still holds the replaced version."""

        for op in sorted(self.OPS):
            base = (
                DimensionSchema(hierarchy.without_edge("Base", "A"), ["C -> T"])
                if op == "add_edge"
                else DimensionSchema(hierarchy, ["C -> T"])
            )
            editor = SchemaEditor(base, cache)
            implies(base, "C -> T", cache=cache)
            compiled_artifact_store().get(base)
            self.OPS[op](editor)
            stale = [
                type(store).__name__
                for store in (
                    default_decision_cache(), compiled_artifact_store(), cache
                )
                if store.holds(base.fingerprint())
            ]
            assert stale == [], f"{op}: stale stores {stale}"

    def test_editor_without_cache_still_edits(self, schema):
        editor = SchemaEditor(schema, cache=None)
        edited = editor.add_constraint("Base -> A")
        assert len(edited.constraints) == 3


class TestCompiledArtifactHygiene:
    """Edits must also drop the compiled decision artifact keyed by the
    replaced schema's fingerprint - or, after an edit that keeps the
    instances, move it to the new one."""

    @pytest.mark.parametrize("op", sorted(TestCacheHygiene.OPS))
    def test_every_op_invalidates_the_artifact(self, hierarchy, op):
        base = (
            DimensionSchema(hierarchy.without_edge("Base", "A"), ["C -> T"])
            if op == "add_edge"
            else DimensionSchema(hierarchy, ["C -> T"])
        )
        store = compiled_artifact_store()
        store.invalidate(base)
        artifact = store.get(base)  # compile the pre-edit version
        invalidations_before = store.stats.invalidations
        editor = SchemaEditor(base, cache=None)
        edited = TestCacheHygiene.OPS[op](editor)
        assert store.invalidate(base) == 0  # already gone
        if op in TestCacheHygiene.PRESERVES_MODELS:
            assert store.stats.invalidations == invalidations_before
            assert store.holds(edited.fingerprint())
        else:
            assert store.stats.invalidations == invalidations_before + 1
            assert store.peek(edited.fingerprint()) is not artifact

    def test_implied_add_moves_the_artifact_itself(self, hierarchy):
        """An implied add hands the very artifact - roots, solvers and
        learned clauses - to the new fingerprint, and a drop back to a
        schema whose constraints include the artifact's own decides
        nothing."""
        store = compiled_artifact_store()
        base = DimensionSchema(hierarchy, ["C -> T"])
        store.invalidate(base)
        artifact = store.get(base)
        editor = SchemaEditor(base, cache=DecisionCache())
        added = editor.add_constraint("Base -> C or Base -> A")
        assert editor.last_edit_preserved_models
        assert store.peek(added.fingerprint()) is artifact
        assert not store.holds(base.fingerprint())
        misses = editor._cache.stats.misses
        dropped = editor.drop_constraint("Base -> C or Base -> A")
        assert editor.last_edit_preserved_models
        assert editor._cache.stats.misses == misses  # nothing decided
        assert store.peek(dropped.fingerprint()) is artifact

    def test_stale_artifact_never_serves_a_post_edit_decision(self, hierarchy):
        """The sharper guarantee behind the eviction hook: even when the
        hook is absent, fingerprint keying makes the old artifact
        unreachable - the post-edit decision compiles (and answers from)
        the new schema, so a stale verdict is impossible."""
        from repro.core import CompiledArtifactStore, CompiledDecisionEngine

        base = DimensionSchema(hierarchy, [])
        store = CompiledArtifactStore()
        engine = CompiledDecisionEngine(cache=None, store=store)
        assert engine.implies(base, "Base -> A").implied is False
        # Edit WITHOUT the eviction hook: the old artifact stays resident.
        edited = base.with_constraints(["Base -> A"])
        assert len(store) == 1
        assert engine.implies(edited, "Base -> A").implied is True
        # The post-edit decision compiled a second artifact; the stale one
        # was never consulted.
        assert len(store) == 2
        # And with the editor's hook, the replaced artifact is dropped too.
        shared = compiled_artifact_store()
        shared.get(base)
        editor = SchemaEditor(base, cache=None)
        editor.add_constraint("Base -> A")
        assert shared.invalidate(base) == 0


class TestMaintainedNavigatorEdits:
    @pytest.fixture()
    def navigator(self, hierarchy, cache):
        instance = DimensionInstance(
            hierarchy,
            members={
                "b1": "Base",
                "b2": "Base",
                "a1": "A",
                "c1": "C",
                "c2": "C",
                "t1": "T",
            },
            child_parent=[
                ("b1", "c1"),
                ("b2", "c2"),
                ("a1", "t1"),
                ("c1", "t1"),
                ("c2", "t1"),
            ],
        )
        facts = FactTable(instance, [("b1", {"x": 1.0}), ("b2", {"x": 2.0})])
        nav = MaintainedNavigator(
            facts,
            schema=DimensionSchema(hierarchy, []),
            engine=build_engine(cache=cache),
        )
        nav.materialize("C", SUM, "x")
        return nav

    def test_add_constraint_enables_a_rewriting(self, navigator):
        _view, before = navigator.answer("T", SUM, "x")
        assert before.kind == "base-scan"
        navigator.add_constraint("Base -> C")
        view, after = navigator.answer("T", SUM, "x")
        assert after.kind == "rewritten"
        assert after.sources == ("C",)
        assert view.cells == {"t1": 3.0}

    def test_drop_constraint_revokes_the_proof(self, navigator):
        navigator.add_constraint("Base -> C")
        _view, plan = navigator.answer("T", SUM, "x")
        assert plan.kind == "rewritten"
        navigator.drop_constraint("Base -> C")
        _view, after = navigator.answer("T", SUM, "x")
        assert after.kind == "base-scan"
        # The drop cleared the memo; it holds only the new schema's verdict.
        assert navigator._verdicts == {("T", frozenset({"C"})): False}

    def test_implied_add_keeps_the_proof_a_cache_hit(self, navigator, cache):
        """The edit runs on the engine's cache, and the navigator's first
        answer built the compiled artifact the edit's decision needs: an
        implied add moves every verdict, so re-proving the rewriting
        under the new schema decides nothing."""
        navigator.add_constraint("Base -> C")
        _view, plan = navigator.answer("T", SUM, "x")
        assert plan.kind == "rewritten"
        navigator.add_constraint(TestModelPreservingEdits.IMPLIED)
        assert cache.stats.rekeyed > 0
        hits, misses = cache.stats.hits, cache.stats.misses
        _view, again = navigator.answer("T", SUM, "x")
        assert again.sources == plan.sources
        assert cache.stats.misses == misses
        assert cache.stats.hits == hits + 1

    def test_edit_without_schema_raises(self, navigator):
        navigator.schema = None
        with pytest.raises(OlapError):
            navigator.add_constraint("Base -> C")


class TestModelPreservingEdits:
    """An edit that keeps the set of instances moves every verdict; the
    decision that proves it never makes the edit fail."""

    IMPLIED = "Base -> C or Base -> A"  # Base's only parents are A and C

    def test_implied_add_moves_every_verdict(self, schema, cache):
        for edge in ("Base -> A", "Base -> C", "A -> T", "C -> T"):
            is_implied(schema, edge, cache=cache)
        compiled_artifact_store().get(schema)
        warm = cache.entries_for(schema.fingerprint())
        editor = SchemaEditor(schema, cache)
        edited = editor.add_constraint(self.IMPLIED)
        assert editor.last_edit_preserved_models
        moved = set(cache.entries_for(edited.fingerprint()))
        own = (edited.fingerprint(), "implies", self.IMPLIED, ())
        assert moved == {(edited.fingerprint(),) + key[1:] for key in warm} | {own}
        for key in moved:
            fresh = implies(edited, key[2], cache=None)
            assert cache.peek(key).implied == fresh.implied
            assert repr(cache.peek(key).counterexample) == repr(fresh.counterexample)

    def test_faulted_decision_falls_back_to_the_syntactic_path(self, schema, cache):
        from repro.core.faults import inject_faults
        from repro.core.metrics import METRICS

        fallbacks = METRICS.counter_value("maintenance.edit_decision_fallbacks")
        compiled_artifact_store().get(schema)
        editor = SchemaEditor(schema, cache)
        with inject_faults("worker-crash:p=1"):
            edited = editor.add_constraint(self.IMPLIED)
        # The edit committed and returned the new schema...
        assert editor.schema is edited
        assert edited.fingerprint() != schema.fingerprint()
        assert editor.history[-1] == edited.fingerprint()
        # ...through the syntactic path, and the fallback was counted.
        assert not editor.last_edit_preserved_models
        assert (
            METRICS.counter_value("maintenance.edit_decision_fallbacks")
            == fallbacks + 1
        )

    def test_over_budget_decision_falls_back_to_the_syntactic_path(
        self, schema, cache, monkeypatch
    ):
        """The edit's own decision is bounded: one that runs out of its
        budget commits the edit through the syntactic path, counted, and
        caches nothing."""
        from repro.core import DecisionBudget
        from repro.core.metrics import METRICS
        from repro.olap import maintenance

        monkeypatch.setattr(
            maintenance, "_EDIT_DECISION_BUDGET", DecisionBudget(max_nodes=0)
        )
        fallbacks = METRICS.counter_value("maintenance.edit_decision_fallbacks")
        compiled_artifact_store().get(schema)
        editor = SchemaEditor(schema, cache)
        edited = editor.add_constraint(self.IMPLIED)
        assert editor.schema is edited
        assert editor.history[-1] == edited.fingerprint()
        assert not editor.last_edit_preserved_models
        assert (
            METRICS.counter_value("maintenance.edit_decision_fallbacks")
            == fallbacks + 1
        )
        assert len(cache) == 0

    def test_without_a_held_artifact_nothing_is_decided(self, schema, cache):
        """A schema never decided through the compiled tier has no
        artifact to carry over: the editor compiles none just to find
        out, and the edit takes the syntactic path."""
        store = compiled_artifact_store()
        store.invalidate(schema)
        store.invalidate(schema.with_constraints([self.IMPLIED]))
        decide(schema, ("dimsat", "T"), cache=cache)  # cone: T, All
        misses = cache.stats.misses
        editor = SchemaEditor(schema, cache)
        edited = editor.add_constraint(self.IMPLIED)
        assert not editor.last_edit_preserved_models
        assert cache.stats.misses == misses
        assert not store.holds(schema.fingerprint())
        assert not store.holds(edited.fingerprint())
        # The syntactic delta still spares the cone the edit left alone.
        assert cache.holds(edited.fingerprint())

    def test_moved_entries_persist_and_replay_clean(self, schema, cache, tmp_path):
        from repro.core import load_cache, save_cache

        for edge in ("Base -> A", "Base -> C", "A -> T", "C -> T"):
            is_implied(schema, edge, cache=cache)
        compiled_artifact_store().get(schema)
        editor = SchemaEditor(schema, cache)
        editor.add_constraint(self.IMPLIED)
        edited = editor.drop_constraint("C -> T")  # still implied by G
        assert editor.last_edit_preserved_models
        assert cache.holds(edited.fingerprint())
        save_cache(cache, str(tmp_path))
        reloaded = DecisionCache()
        report = load_cache(reloaded, str(tmp_path), verify_replay=True)
        assert report.clean and not report.dropped_divergent
        assert report.replayed == report.loaded == len(cache)
