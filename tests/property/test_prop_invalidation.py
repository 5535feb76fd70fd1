"""Property-based soundness of edit-time cache rekeying.

Over random schemas and `mixed_trace` constraint edits: after every
`SchemaEditor` edit, the verdicts the rekey carried over to the new
fingerprint must be byte-identical to a fresh sequential recomputation,
and the replaced fingerprint must retain nothing.  Which verdicts move
follows the two rules of `DecisionCache.rekey`:

* the trace's edits keep the set of instances (an implied weakening is
  added, or an added one dropped), so every warm verdict moves, together
  with the edit's own implication verdict when one was decided;
* one closing non-implied add takes the syntactic path: only the
  verdicts whose dependency cone it left untouched move, the invariant
  the module docstring of `repro.core.provenance` argues for.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import Not
from repro.constraints.printer import unparse
from repro.core import ALL, DecisionCache, compiled_artifact_store, schema_delta
from repro.core.dimsat import dimsat
from repro.core.implication import implies as run_implies
from repro.core.summarizability import decide
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.workloads import mixed_trace
from repro.olap.maintenance import SchemaEditor

SETTINGS = settings(max_examples=12, deadline=None)


def _canonical(value: object) -> str:
    """Byte-comparable verdict content.

    Work counters (circle-cache hits/misses) depend on process-wide
    state, so canonicalization covers the verdict and its witness /
    counterexample - the bytes a caller can observe.
    """
    if isinstance(value, bool):
        return json.dumps(value)
    satisfiable = getattr(value, "satisfiable", None)
    if satisfiable is not None:
        return json.dumps([satisfiable, repr(value.witness)])
    return json.dumps([value.implied, repr(value.counterexample)])


def _fresh(schema, key) -> str:
    """Sequential uncached recomputation of one cache key."""
    kind = key[0]
    if kind == "dimsat":
        return _canonical(dimsat(schema, key[1]))
    if kind == "implies":
        return _canonical(run_implies(schema, key[1], cache=None))
    raise AssertionError(f"unexpected kind {kind!r}")


def _warm(schema, cache):
    """One dimsat per category plus one implies per (leading) constraint,
    so every edit has entries to split, and the schema's compiled
    artifact held, as a compiled-engine server holds it (the editor
    decides whether an edit keeps the instances only through a held
    artifact); returns the warm keys with their values and provenance."""
    compiled_artifact_store().get(schema)
    for category in sorted(schema.hierarchy.categories - {ALL}):
        decide(schema, ("dimsat", category), cache=cache)
    for node in schema.constraints[:4]:
        run_implies(schema, node, cache=cache)
    warm_keys = cache.entries_for(schema.fingerprint())
    warm = {key: cache.peek(key) for key in warm_keys}
    provenance = {key: cache.provenance_of(key) for key in warm_keys}
    assert all(p is not None for p in provenance.values())
    return warm, provenance


def _texts(schema):
    return {unparse(node) for node in schema.constraints}


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_every_edit_splits_the_cache_soundly(seed):
    schema = random_schema(
        RandomSchemaConfig(
            n_categories=seed % 3 + 5,
            n_layers=3,
            choice_constraint_prob=0.6,
            equality_constraint_prob=0.4,
            seed=seed,
        )
    )
    cache = DecisionCache()
    editor = SchemaEditor(schema, cache)

    edits = [
        op
        for op in mixed_trace(schema, n_ops=60, seed=seed)
        if op[0] == "edit"
    ][:4]
    added = []

    for op in edits:
        current = editor.schema
        warm, _provenance = _warm(current, cache)
        held = compiled_artifact_store().peek(current.fingerprint())
        assert held is not None

        if op[1] == "drop-added":
            if not added:
                continue
            node = added.pop()
            edited = editor.drop_constraint(node)
            # The drop decides nothing when the artifact held under the
            # old fingerprint was built from constraints all still
            # present; otherwise it decides SIGMA_new |= alpha.
            decided = not _texts(held.schema) <= _texts(edited)
        else:
            node = op[2]
            if node in current.constraints:
                continue
            edited = editor.add_constraint(node)
            added.append(node)
            decided = True

        # Every trace edit keeps the instances: all verdicts move, and
        # so does the artifact.
        assert editor.last_edit_preserved_models
        assert not cache.holds(current.fingerprint())
        assert not compiled_artifact_store().holds(current.fingerprint())

        own = (edited.fingerprint(), "implies", unparse(node))
        expected = {(edited.fingerprint(),) + key[1:] for key in warm}
        if decided:
            expected.add(own)
            assert cache.peek(own).implied
        assert set(cache.entries_for(edited.fingerprint())) == expected

        for new_key in expected:
            # Byte-identical to a fresh sequential recomputation on the
            # edited schema.
            assert _canonical(cache.peek(new_key)) == _fresh(edited, new_key[1:])
        for key, value in warm.items():
            assert cache.peek((edited.fingerprint(),) + key[1:]) is value

    # One non-implied add: the syntactic delta must still drop every
    # cone it touches, the edit's own "not implied" verdict included.
    current = editor.schema
    candidates = [
        Not(node)
        for node in sorted(current.constraints, key=unparse)
        if Not(node) not in current.constraints
        and not run_implies(current, Not(node), cache=None).implied
    ]
    if not candidates:
        return
    node = candidates[0]
    warm, provenance = _warm(current, cache)
    edited = editor.add_constraint(node)
    assert not editor.last_edit_preserved_models
    assert not cache.holds(current.fingerprint())
    delta = schema_delta(current, edited)
    survivors = {key for key in warm if provenance[key].survives(delta)}
    assert set(cache.entries_for(edited.fingerprint())) == {
        (edited.fingerprint(),) + key[1:] for key in survivors
    }
    for key in warm:
        new_key = (edited.fingerprint(),) + key[1:]
        if key in survivors:
            assert cache.peek(new_key) is warm[key]
            assert _canonical(warm[key]) == _fresh(edited, key[1:])
        else:
            # Touched verdicts are gone - the next ask recomputes.
            assert cache.peek(new_key) is None
