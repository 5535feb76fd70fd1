"""Synthetic dimension schemas for the scaling benchmarks (E9, E10).

Proposition 4 bounds DIMSAT's running time in three parameters: the number
of categories ``N``, the largest per-category constant set ``N_K``, and
the constraint-set size ``N_SIGMA``.  The generator here produces layered,
acyclic hierarchy schemas whose knobs map one-to-one onto those
parameters, plus an ``into_fraction`` knob that controls how much of the
schema is pinned down by *into* constraints - the quantity the paper's
Section 5 conjecture ("heterogeneity arises as an exception") is about.

Layout: categories are spread over layers; every category has at least
one parent in the next layer (so Definition 1 holds and the schema is
acyclic), plus random extra same-layer-up and skip-layer edges that create
genuine heterogeneity for DIMSAT to explore.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro._types import ALL, Category, Edge
from repro.constraints.ast import Node, Not, Or, PathAtom
from repro.constraints.builder import compare, eq, into, one, path
from repro.core.hierarchy import HierarchySchema
from repro.core.schema import DimensionSchema
from repro.errors import SchemaError


@dataclass(frozen=True)
class RandomSchemaConfig:
    """Knobs of the synthetic schema generator.

    ``n_categories`` excludes ``All``; ``into_fraction`` is the probability
    that a category's primary (spanning) edge is declared an *into*
    constraint; ``n_constants`` is the size of each attributed category's
    constant pool (the paper's ``N_K``).
    """

    n_categories: int = 10
    n_layers: int = 4
    extra_edge_prob: float = 0.25
    skip_edge_prob: float = 0.10
    into_fraction: float = 0.8
    choice_constraint_prob: float = 0.5
    n_constants: int = 2
    attributed_fraction: float = 0.3
    equality_constraint_prob: float = 0.4
    #: Probability that an attributed category is *numeric*: its
    #: constraints use order predicates (the Section 6 extension) with
    #: numeric constants instead of symbolic equality atoms.
    numeric_fraction: float = 0.0
    seed: int = 0


def _layered_categories(config: RandomSchemaConfig) -> List[List[Category]]:
    """Spread ``c0 .. cN-1`` over the layers, bottom layer first."""
    layers: List[List[Category]] = [[] for _ in range(config.n_layers)]
    for index in range(config.n_categories):
        layers[index % config.n_layers].append(f"c{index}")
    return [layer for layer in layers if layer]


def random_hierarchy(config: RandomSchemaConfig) -> Tuple[HierarchySchema, List[Edge]]:
    """A layered hierarchy schema plus the list of primary (spanning)
    edges, which are the candidates for *into* constraints."""
    rng = random.Random(config.seed)
    layers = _layered_categories(config)
    layers.append([ALL])

    # Edges are accumulated in insertion order (with a seen-set for
    # dedup) rather than in a bare set, so the value handed to
    # HierarchySchema is bit-for-bit reproducible for a given seed even
    # across interpreters with different hash randomization.
    edges: List[Edge] = []
    seen: Set[Edge] = set()

    def add_edge(edge: Edge) -> None:
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)

    primary: List[Edge] = []
    for depth, layer in enumerate(layers[:-1]):
        above = layers[depth + 1]
        for category in layer:
            target = rng.choice(above)
            add_edge((category, target))
            primary.append((category, target))
            for other in above:
                if other != target and rng.random() < config.extra_edge_prob:
                    add_edge((category, other))
            if depth + 2 < len(layers) and rng.random() < config.skip_edge_prob:
                add_edge((category, rng.choice(layers[depth + 2])))

    categories = [c for layer in layers for c in layer]
    return HierarchySchema(categories, edges), primary


def random_schema(config: RandomSchemaConfig) -> DimensionSchema:
    """A random dimension schema driven by the config knobs.

    The constraint set mixes the three shapes the paper discusses:

    * *into* constraints on primary edges (``into_fraction`` of them);
    * choice constraints ``one(c -> p1, c -> p2, ...)`` on heterogeneous
      categories (several parents), which force DIMSAT to branch;
    * equality-conditioned structure ``c.u = 'k' implies c -> p`` on
      attributed categories, which exercises the c-assignment search.
    """
    rng = random.Random(config.seed + 1)
    hierarchy, primary = random_hierarchy(config)
    constraints: List[Node] = []

    for child, parent in primary:
        if rng.random() < config.into_fraction:
            constraints.append(into(child, parent))

    for category in sorted(hierarchy.categories - {ALL}):
        parents = sorted(hierarchy.parents(category))
        if len(parents) >= 2 and rng.random() < config.choice_constraint_prob:
            atoms = tuple(path(category, parent) for parent in parents)
            if rng.random() < 0.5:
                constraints.append(one(*atoms))
            else:
                constraints.append(Or(atoms))

    attributed = [
        category
        for category in sorted(hierarchy.categories - {ALL})
        if rng.random() < config.attributed_fraction
    ]
    for category in attributed:
        ancestors = sorted(hierarchy.ancestors(category) - {ALL})
        parents = sorted(hierarchy.parents(category) - {ALL})
        if not ancestors or not parents:
            continue
        upper = rng.choice(ancestors)
        numeric = rng.random() < config.numeric_fraction
        for index in range(config.n_constants):
            if rng.random() < config.equality_constraint_prob:
                parent = rng.choice(parents)
                if numeric:
                    op = rng.choice(("<", "<=", ">", ">=", "!="))
                    threshold = (index + 1) * 10
                    antecedent: Node = compare(category, upper, op, threshold)
                else:
                    antecedent = eq(category, upper, f"k{index}")
                constraints.append(antecedent.implies(path(category, parent)))

    return DimensionSchema(hierarchy, constraints)


def make_unsatisfiable(
    schema: DimensionSchema, category: Category
) -> DimensionSchema:
    """Extend the schema so ``category`` becomes unsatisfiable.

    Adds ``not (c -> p)`` for every parent ``p``; condition (C7) then
    leaves the category's members nowhere to roll up.  This is the worst
    case for DIMSAT (and the common case in implication testing, where a
    *positive* answer requires exhausting the search space).
    """
    parents = schema.hierarchy.parents(category)
    extra = [Not(PathAtom(category, (parent,))) for parent in sorted(parents)]
    return schema.with_constraints(extra)


def schemas_by_size(
    sizes: Sequence[int], base: RandomSchemaConfig = RandomSchemaConfig()
) -> Dict[int, DimensionSchema]:
    """One random schema per requested category count (benchmark E9)."""
    result: Dict[int, DimensionSchema] = {}
    for size in sizes:
        config = RandomSchemaConfig(
            n_categories=size,
            n_layers=max(2, min(base.n_layers, size)),
            extra_edge_prob=base.extra_edge_prob,
            skip_edge_prob=base.skip_edge_prob,
            into_fraction=base.into_fraction,
            choice_constraint_prob=base.choice_constraint_prob,
            n_constants=base.n_constants,
            attributed_fraction=base.attributed_fraction,
            equality_constraint_prob=base.equality_constraint_prob,
            seed=base.seed + size,
        )
        result[size] = random_schema(config)
    return result


def bottom_category(schema: DimensionSchema) -> Category:
    """A deterministic bottom category to run DIMSAT against."""
    return sorted(schema.hierarchy.bottom_categories())[0]


# ----------------------------------------------------------------------
# Reproducible shrinking
# ----------------------------------------------------------------------


def _mentions(node: Node, category: Category) -> bool:
    """Whether a constraint mentions ``category`` in any of its atoms."""
    from repro.core.provenance import mentioned_categories

    return category in mentioned_categories(node)


def _without_category(
    schema: DimensionSchema, category: Category
) -> DimensionSchema:
    """The schema with ``category``, its edges, and every constraint that
    mentions it removed.  Raises if the result is not a valid schema."""
    hierarchy = schema.hierarchy
    categories = [c for c in sorted(hierarchy.categories) if c != category]
    edges = [
        edge
        for edge in sorted(hierarchy.edges)
        if category not in edge
    ]
    constraints = [
        node for node in schema.constraints if not _mentions(node, category)
    ]
    return DimensionSchema(HierarchySchema(categories, edges), constraints)


def _without_edge(schema: DimensionSchema, edge: Edge) -> DimensionSchema:
    """The schema with one hierarchy edge removed (constraints kept)."""
    hierarchy = schema.hierarchy
    edges = [e for e in sorted(hierarchy.edges) if e != edge]
    return DimensionSchema(
        HierarchySchema(sorted(hierarchy.categories), edges),
        list(schema.constraints),
    )


def shrink_schema(
    schema: DimensionSchema,
    predicate: Callable[[DimensionSchema], bool],
    max_rounds: int = 10,
) -> DimensionSchema:
    """Greedily minimize a failing schema while ``predicate`` stays true.

    ``predicate(candidate)`` must return ``True`` when the candidate still
    exhibits the failure being chased.  Candidates are tried in a fixed
    deterministic order - drop one constraint, then one category (with
    its edges and the constraints that mention it), then one edge - and
    every accepted removal restarts the scan, until a full round removes
    nothing or ``max_rounds`` is hit.  Candidates that produce an invalid
    schema, or on which the predicate itself raises, are skipped; the
    result is the smallest schema reached, never the empty one the
    predicate rejected.

    The shrinker is pure and deterministic: the same schema and the same
    (deterministic) predicate always yield the same minimal schema, which
    is what makes the emitted falsifier files stable enough to pin as
    regression tests.
    """
    if not predicate(schema):
        raise SchemaError(
            "shrink_schema needs a failing schema: the predicate returned "
            "False for the starting point"
        )

    def still_fails(candidate: DimensionSchema) -> bool:
        try:
            return predicate(candidate)
        except Exception:
            return False

    current = schema
    for _ in range(max_rounds):
        progressed = False

        for node in list(current.constraints):
            candidate_constraints = [
                other for other in current.constraints if other is not node
            ]
            try:
                candidate = DimensionSchema(
                    current.hierarchy, candidate_constraints
                )
            except Exception:
                continue
            if still_fails(candidate):
                current = candidate
                progressed = True

        for category in sorted(current.hierarchy.categories - {ALL}):
            try:
                candidate = _without_category(current, category)
            except Exception:
                continue
            if still_fails(candidate):
                current = candidate
                progressed = True

        for edge in sorted(current.hierarchy.edges):
            if edge not in current.hierarchy.edges:
                continue
            try:
                candidate = _without_edge(current, edge)
            except Exception:
                continue
            if still_fails(candidate):
                current = candidate
                progressed = True

        if not progressed:
            break
    return current


def write_falsifier(
    schema: DimensionSchema,
    path: str,
    note: str = "",
) -> str:
    """Write a shrunk failing schema as a ``repro-olap`` loadable file.

    The emitted document is the plain :mod:`repro.io.json_io` schema
    format (categories/edges/constraints), so the falsifier can be fed
    straight back to ``repro-olap dimsat FILE CATEGORY`` or loaded with
    :func:`repro.io.json_io.schema_from_json` inside a pinned regression
    test.  ``note`` (what failed, which seed found it) is stored under a
    ``"_falsifier"`` key that the loader ignores.  Returns ``path``.
    """
    import json
    import os

    from repro.io.json_io import schema_to_dict

    document = schema_to_dict(schema)
    if note:
        document["_falsifier"] = note
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
