"""Workload generators: instances from schemas, fact tables, and query
mixes for the benchmarks.

The key tool is :func:`instance_from_frozen`: a schema's frozen dimensions
(Theorem 3's minimal models) are exactly the structural "templates" its
data can exhibit, so stamping out ``k`` copies of each and sharing the
members whose names the constraints pin down yields realistic instances of
any size that are guaranteed to satisfy the schema - no rejection
sampling needed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._types import ALL, Category, Member
from repro.constraints.ast import Node, Not
from repro.constraints.printer import unparse
from repro.core.dimsat import enumerate_frozen_dimensions
from repro.core.frozen import FrozenDimension
from repro.core.instance import TOP_MEMBER, DimensionInstance
from repro.core.schema import NK, DimensionSchema
from repro.errors import SchemaError
from repro.olap.facttable import FactTable


def instance_from_frozen(
    schema: DimensionSchema,
    root: Category,
    copies: int = 3,
    seed: int = 0,
    fan_out: int = 2,
) -> DimensionInstance:
    """Build a populated instance by stamping out frozen dimensions.

    For each frozen dimension of ``schema`` with the given root, ``copies``
    chains are instantiated.  Members of categories whose name the frozen
    dimension pins to a constant are *shared* across copies (all Canadian
    chains meet in the one member named ``Canada``), members with free
    (``nk``) names are distinct per copy, and each bottom member is
    replicated ``fan_out`` times to give fact tables something to
    aggregate.

    The result satisfies every constraint of the schema by construction
    (each chain is a materialized frozen dimension), which the integration
    tests verify.
    """
    frozen = enumerate_frozen_dimensions(schema, root)
    if not frozen:
        raise SchemaError(f"category {root!r} is unsatisfiable; no instance exists")

    rng = random.Random(seed)
    members: Dict[Member, Category] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []

    def shareable_categories(frozen_dim: FrozenDimension) -> frozenset:
        """Categories safe to share across copies: their name is pinned
        and so is every category above them in the template, so the whole
        shared chain coincides and partitioning (C2) is preserved."""
        sub = frozen_dim.subhierarchy
        safe = set()
        for category in sub.categories:
            if category == ALL:
                continue
            if frozen_dim.name_of(category) == NK:
                continue
            above = [
                c
                for c in sub.categories
                if c not in (category, ALL) and sub.reaches(category, c)
            ]
            if all(frozen_dim.name_of(c) != NK for c in above):
                safe.add(category)
        return frozenset(safe)

    shareable: Dict[int, frozenset] = {}

    def member_for(
        template_index: int,
        copy_index: int,
        leaf_index: int,
        frozen_dim: FrozenDimension,
        category: Category,
    ) -> Member:
        if category == ALL:
            return TOP_MEMBER
        pinned = frozen_dim.name_of(category)
        if pinned != NK and category in shareable[template_index]:
            # Shared member: one per (category, constant) across the
            # whole instance.
            member = f"{category}:{pinned}"
            members[member] = category
            names[member] = pinned
            return member
        if category == root:
            member = f"{category}:{template_index}.{copy_index}.{leaf_index}"
        else:
            member = f"{category}:{template_index}.{copy_index}"
        members[member] = category
        names[member] = pinned if pinned != NK else f"{member}-name"
        return member

    for template_index, frozen_dim in enumerate(frozen):
        sub = frozen_dim.subhierarchy
        shareable[template_index] = shareable_categories(frozen_dim)
        for copy_index in range(copies):
            leaves = fan_out if fan_out > 0 else 1
            for child_cat, parent_cat in sorted(sub.edges):
                if child_cat == root:
                    for leaf_index in range(leaves):
                        child = member_for(
                            template_index, copy_index, leaf_index, frozen_dim, child_cat
                        )
                        parent = member_for(
                            template_index, copy_index, 0, frozen_dim, parent_cat
                        )
                        edges.append((child, parent))
                else:
                    child = member_for(
                        template_index, copy_index, 0, frozen_dim, child_cat
                    )
                    parent = member_for(
                        template_index, copy_index, 0, frozen_dim, parent_cat
                    )
                    edges.append((child, parent))

    unique_edges = sorted(set(edges))
    rng.shuffle(unique_edges)
    return DimensionInstance(schema.hierarchy, members, unique_edges, names=names)


def random_fact_table(
    instance: DimensionInstance,
    n_facts: int,
    measures: Sequence[str] = ("amount",),
    seed: int = 0,
    low: float = 1.0,
    high: float = 100.0,
) -> FactTable:
    """A fact table with ``n_facts`` rows over random base members."""
    rng = random.Random(seed)
    base = sorted(instance.base_members(), key=repr)
    if not base:
        raise SchemaError("the instance has no base members to attach facts to")
    rows = []
    for _ in range(n_facts):
        member = rng.choice(base)
        values = {m: round(rng.uniform(low, high), 2) for m in measures}
        rows.append((member, values))
    return FactTable(instance, rows)


def implication_workload(
    schema: DimensionSchema,
    n_queries: int = 20,
    seed: int = 0,
) -> List[Node]:
    """A mix of constraints to feed the implication tester.

    Half the queries are constraints already in SIGMA (trivially implied,
    answered fast), half are negations of SIGMA members or random path
    atoms (usually not implied, requiring search).  The mix mirrors what
    an aggregate navigator generates: mostly positive checks with some
    refutations.
    """
    rng = random.Random(seed)
    pool = list(schema.constraints)
    if not pool:
        raise SchemaError("the schema has no constraints to build a workload from")
    queries: List[Node] = []
    for index in range(n_queries):
        template = rng.choice(pool)
        if index % 2 == 0:
            queries.append(template)
        else:
            queries.append(Not(template))
    return queries


def summarizability_workload(
    schema: DimensionSchema,
    n_queries: int = 20,
    seed: int = 0,
    max_sources: int = 2,
) -> List[Tuple[Category, Tuple[Category, ...]]]:
    """Random ``(target, sources)`` summarizability questions.

    Sources are drawn from the categories strictly below the target, the
    situation an aggregate navigator actually queries.
    """
    rng = random.Random(seed)
    hierarchy = schema.hierarchy
    targets = sorted(
        c
        for c in hierarchy.categories
        if c != ALL and hierarchy.descendants(c)
    )
    if not targets:
        raise SchemaError("the hierarchy has no aggregable categories")
    queries: List[Tuple[Category, Tuple[Category, ...]]] = []
    for _ in range(n_queries):
        target = rng.choice(targets)
        below = sorted(hierarchy.descendants(target) - {ALL})
        size = rng.randint(1, min(max_sources, len(below)))
        sources = tuple(sorted(rng.sample(below, size)))
        queries.append((target, sources))
    return queries


#: The operation kinds a mixed trace may contain, with their default
#: frequency weights.  ``decide`` traffic dominates (as it does for a
#: navigator under load), edits are rare but regular - the realistic
#: shape of a dimension under continuous administration.
DEFAULT_TRACE_WEIGHTS: Mapping[str, float] = {
    "dimsat": 0.30,
    "implies": 0.25,
    "summarizable": 0.20,
    "navigate": 0.15,
    "edit": 0.10,
}


def _implied_weakening(schema: DimensionSchema, rng: random.Random) -> Node:
    """A constraint implied by SIGMA but (usually) not textually in it.

    ``alpha or beta`` for ``alpha`` in SIGMA and a random path atom
    ``beta`` is implied by ``alpha`` alone, so adding it must never flip
    any verdict - the core metamorphic edit of the soak harness.  All
    atoms of one constraint must share a root (Definition 4), so ``beta``
    is a path atom rooted at ``alpha``'s own root category.
    """
    from repro.constraints.ast import Or
    from repro.constraints.builder import path

    alpha = rng.choice(sorted(schema.constraints, key=unparse))
    root = next(alpha.atoms()).root
    parents = sorted(schema.hierarchy.parents(root))
    if not parents:
        return alpha
    beta = path(root, rng.choice(parents))
    return Or((alpha, beta))


def mixed_trace(
    schema: DimensionSchema,
    n_ops: int = 50,
    seed: int = 0,
    weights: Optional[Mapping[str, float]] = None,
) -> List[Tuple[object, ...]]:
    """A seeded mixed decide/navigate/edit operation trace.

    Returns a list of tagged tuples ready for a service loop to replay:

    * ``("dimsat", category)``
    * ``("implies", node)`` - half from SIGMA (implied), half negations
      or weakenings;
    * ``("summarizable", target, sources)``
    * ``("navigate", target, sources)`` - an aggregate-navigation query
      (the consumer aggregates facts at ``target`` and cross-checks the
      Definition 6 recombination from ``sources``);
    * ``("edit", "add-implied", node)`` - add a constraint SIGMA already
      implies (a metamorphic no-op for every verdict);
    * ``("edit", "drop-added",)`` - retract the most recently added
      constraint (the trace keeps adds/drops balanced, never dropping
      below the original SIGMA).

    Edits are constraint-level only, so instances valid for ``schema``
    stay valid across the whole trace.  Identical arguments produce
    identical traces - the soak harness leans on this for replay.
    """
    if n_ops < 0:
        raise SchemaError("n_ops must be non-negative")
    rng = random.Random(seed)
    table = dict(DEFAULT_TRACE_WEIGHTS if weights is None else weights)
    unknown = set(table) - set(DEFAULT_TRACE_WEIGHTS)
    if unknown:
        raise SchemaError(
            f"unknown trace ops {sorted(unknown)}; expected a subset of "
            f"{sorted(DEFAULT_TRACE_WEIGHTS)}"
        )
    hierarchy = schema.hierarchy
    categories = sorted(hierarchy.categories - {ALL})
    targets = [c for c in categories if hierarchy.descendants(c) - {c}]
    has_constraints = bool(schema.constraints)
    ops = sorted(op for op, w in table.items() if w > 0)
    if not ops:
        raise SchemaError("the trace weights enable no operations")
    cumulative: List[Tuple[float, str]] = []
    total = 0.0
    for op in ops:
        total += table[op]
        cumulative.append((total, op))

    def pick_op() -> str:
        draw = rng.random() * total
        for bound, op in cumulative:
            if draw < bound:
                return op
        return cumulative[-1][1]

    trace: List[Tuple[object, ...]] = []
    pending_adds = 0
    for _ in range(n_ops):
        op = pick_op()
        if op in ("implies", "edit") and not has_constraints:
            op = "dimsat"
        if op in ("summarizable", "navigate") and not targets:
            op = "dimsat"
        if op == "dimsat":
            trace.append(("dimsat", rng.choice(categories)))
        elif op == "implies":
            template = rng.choice(sorted(schema.constraints, key=unparse))
            kind = rng.randrange(3)
            if kind == 0:
                trace.append(("implies", template))
            elif kind == 1:
                trace.append(("implies", Not(template)))
            else:
                trace.append(("implies", _implied_weakening(schema, rng)))
        elif op in ("summarizable", "navigate"):
            target = rng.choice(targets)
            below = sorted(hierarchy.descendants(target) - {ALL, target})
            size = rng.randint(1, min(2, len(below)))
            sources = tuple(sorted(rng.sample(below, size)))
            trace.append((op, target, sources))
        else:  # edit
            if pending_adds and rng.random() < 0.5:
                trace.append(("edit", "drop-added"))
                pending_adds -= 1
            else:
                trace.append(
                    ("edit", "add-implied", _implied_weakening(schema, rng))
                )
                pending_adds += 1
    return trace


def replicated_instance(
    instance: DimensionInstance, copies: int, separator: str = "#"
) -> DimensionInstance:
    """``copies`` disjoint replicas of an instance, sharing only ``all``.

    Member identifiers gain a ``#i`` suffix while *names* are preserved,
    so name-based constraints (``City = 'Washington'``) keep holding in
    every replica.  Useful for scaling studies that need bigger data with
    the exact structural mix of a reference instance.
    """
    if copies < 1:
        raise SchemaError("need at least one copy")

    def clone(member: Member, index: int) -> Member:
        if member == TOP_MEMBER:
            return TOP_MEMBER
        return f"{member}{separator}{index}"

    members: Dict[Member, Category] = {}
    names: Dict[Member, object] = {}
    edges: List[Tuple[Member, Member]] = []
    for index in range(copies):
        for member in instance.all_members():
            if member == TOP_MEMBER:
                continue
            members[clone(member, index)] = instance.category_of(member)
            names[clone(member, index)] = instance.name(member)
        for child, parent in instance.member_edges():
            edges.append((clone(child, index), clone(parent, index)))
    return DimensionInstance(instance.hierarchy, members, edges, names=names)
