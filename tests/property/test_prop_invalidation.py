"""Property-based soundness of provenance-scoped invalidation.

Over random schemas and `mixed_trace` constraint edits: after every
`SchemaEditor` edit, the verdicts the rekey carried over to the new
fingerprint must be byte-identical to a fresh sequential recomputation,
the verdicts whose dependency cone the edit touched must be gone, and
the replaced fingerprint must retain nothing - the invariant the module
docstring of `repro.core.provenance` argues for.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALL, DecisionCache, schema_delta
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
        # Re-warm under the current schema so every edit has entries to
        # split: one dimsat per category plus one implies per constraint.
        current = editor.schema
        for category in sorted(current.hierarchy.categories - {ALL}):
            decide(current, ("dimsat", category), cache=cache)
        for node in current.constraints[:4]:
            run_implies(current, node, cache=cache)

        warm_keys = cache.entries_for(current.fingerprint())
        warm = {key: cache.peek(key) for key in warm_keys}
        provenance = {key: cache.provenance_of(key) for key in warm_keys}
        assert all(p is not None for p in provenance.values())

        if op[1] == "drop-added":
            if not added:
                continue
            node = added.pop()
            edited = editor.drop_constraint(node)
        else:
            node = op[2]
            if node in current.constraints:
                continue
            edited = editor.add_constraint(node)
            added.append(node)

        delta = schema_delta(current, edited)
        expected_survivors = {
            key
            for key in warm_keys
            if provenance[key].survives(delta)
        }

        # Nothing remains under the replaced fingerprint.
        assert not cache.holds(current.fingerprint())

        new_keys = set(cache.entries_for(edited.fingerprint()))
        rekeyed_expected = {
            (edited.fingerprint(),) + key[1:] for key in expected_survivors
        }
        assert new_keys == rekeyed_expected

        for key in warm_keys:
            new_key = (edited.fingerprint(),) + key[1:]
            if key in expected_survivors:
                # Byte-identical to a fresh sequential recomputation on
                # the edited schema.
                survived = cache.peek(new_key)
                assert survived is warm[key]
                assert _canonical(survived) == _fresh(edited, key[1:])
            else:
                # Touched verdicts are gone - the next ask recomputes.
                assert cache.peek(new_key) is None
