"""The skeletons of a root - the ``(categories, edges)`` pairs of the
complete subhierarchies (Definition 7) a decision procedure admits - as
three independent procedures produce them.

* brute force: every edge subset, kept when it is a subhierarchy,
  acyclic, shortcut free and has every into edge it must;
* the kernel's EXPAND: the frozen dimensions of the into-only schema,
  one per skeleton;
* the compiled tier's root CNF over the into-only schema: every model,
  each blocked by a clause over the edge variables once found.

The compiled tier encodes the skeleton instead of listing it, so these
sets are how the tests tell that its models are exactly EXPAND's and
brute force's.
"""

from __future__ import annotations

from pathlib import Path

from repro.baselines.bruteforce import candidate_subhierarchies
from repro.constraints.ast import PathAtom
from repro.core import DimensionSchema, enumerate_frozen_dimensions
from repro.core.compile import _RootCompilation
from repro.io.json_io import schema_from_json

#: The schema whose root ``R`` EXPAND once admitted through a late
#: shortcut (see ``tests/regressions/test_pinned_falsifiers.py``).
LATE_SHORTCUT = Path(__file__).parent / "regressions" / "data" / "late_shortcut.json"


def late_shortcut_schema() -> DimensionSchema:
    return schema_from_json(LATE_SHORTCUT.read_text())


def into_only(schema: DimensionSchema) -> DimensionSchema:
    """The schema's hierarchy under its into constraints alone."""
    return DimensionSchema(
        schema.hierarchy,
        [
            node
            for node in schema.constraints
            if isinstance(node, PathAtom) and len(node.path) == 1
        ],
    )


def brute_skeletons(schema: DimensionSchema, root: str) -> set:
    return {
        (sub.categories, sub.edges)
        for sub in candidate_subhierarchies(schema, root)
        if all(
            schema.into_targets(category) <= sub.parents_in(category)
            for category in sub.categories
        )
    }


def kernel_skeletons(schema: DimensionSchema, root: str) -> set:
    return {
        (frozen.categories, frozen.subhierarchy.edges)
        for frozen in enumerate_frozen_dimensions(into_only(schema), root)
    }


def compiled_skeletons(schema: DimensionSchema, root: str) -> set:
    compiled = _RootCompilation(into_only(schema), root)
    solver = compiled.solver
    found = set()
    while solver.solve():
        value = solver.model_value
        edges = frozenset(e for e, var in compiled.edges.items() if value(var))
        categories = frozenset(
            c for c in compiled.closure if value(compiled._in(c))
        )
        found.add((categories, edges))
        solver.add_clause(
            [-var if e in edges else var for e, var in compiled.edges.items()]
        )
    return found
