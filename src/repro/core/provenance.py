"""Verdict provenance: what a decision proof actually depends on.

Every verdict the kernel produces - category satisfiability (Theorem 3),
constraint implication (Theorem 2), schema-level summarizability
(Theorem 1) - is a pure function of the dimension schema ``(G, SIGMA)``.
But each *individual* proof only ever consults a fraction of the schema:
DIMSAT rooted at ``c`` explores subhierarchies built from the categories
reachable from ``c`` and evaluates only ``SIGMA(ds, c)`` (the constraints
whose root is reachable from ``c``, Section 5).  This module captures
that dependency cone as a :class:`VerdictProvenance`, diffs two schema
versions into a :class:`SchemaDelta`, and decides - soundly - which
cached verdicts *survive* an edit unchanged.

Soundness argument (the invariant the invalidation property test pins):

* The DIMSAT search for root ``c`` is a function of the *restriction* of
  ``(G, SIGMA)`` to the upward closure of ``c``: the categories reachable
  from ``c``, the edges whose child endpoint is reachable from ``c``, and
  every constraint that mentions a category in that closure (mentioned
  constraints contribute ``Const_ds`` constants, order thresholds, and
  into-edges even when rooted elsewhere).  If an edit leaves that
  restriction untouched, the search - and hence the verdict, its witness,
  and its work counters - is byte-identical by construction.
* An added edge ``(x, y)`` can enter the closure only when ``x`` was
  already reachable from ``c`` (a path from ``c`` over the new edge must
  first reach ``x`` over old edges), so checking the *child* endpoint of
  every changed edge against the recorded category cone is exact.
* An added category arrives with its incident edges; the edge rule covers
  the only way it can become reachable.
* Theorem 2 reduces ``ds |= alpha`` to DIMSAT over ``(G, SIGMA | {NOT
  alpha})`` rooted at ``root(alpha)``; the query constraint travels in
  the cache key, so the dependency cone is the same upward closure taken
  in ``G``.
* Theorem 1 additionally quantifies over the hierarchy's bottom
  categories, so summarizability verdicts also record the bottom set and
  die whenever it changes.

This is the "unsat-core" of the decision at the granularity the edit
workload needs: a constraint edit in one branch of a wide hierarchy
leaves every other branch's verdicts provably untouched, and the
:class:`~repro.core.decisioncache.DecisionCache` re-keys them to the new
fingerprint instead of discarding them (``SchemaEditor`` in
:mod:`repro.olap.maintenance`).

A second, semantic rule comes first and reads no cone: **models
preserved means every verdict moves.**  Adding ``alpha`` when
``SIGMA |= alpha``, or dropping it when ``SIGMA - {alpha} |= alpha``,
leaves the set of instances unchanged (Theorem 2), and every verdict is
a function of that set.  ``SchemaEditor`` decides that implication and,
when it holds, moves every entry by passing ``DecisionCache.rekey`` an
empty delta (which every provenance survives).  A moved entry keeps its
provenance unchanged, which stays exact: a provenance records only the
cone's categories and the bottom set, both functions of the hierarchy,
which such an edit leaves alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro._types import Category
from repro.constraints.ast import Node
from repro.constraints.printer import unparse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schema import DimensionSchema

__all__ = [
    "SchemaDelta",
    "VerdictProvenance",
    "mentioned_categories",
    "provenance_for_key",
    "schema_delta",
]


def mentioned_categories(node: Node) -> FrozenSet[Category]:
    """Every category an atom of ``node`` refers to.

    This is the footprint through which a constraint can influence a
    decision it is not rooted in: equality atoms contribute
    ``Const_ds`` constants, comparison atoms contribute thresholds, and
    path atoms contribute into-edges - all keyed by the categories the
    atoms mention.
    """
    mentioned: Set[Category] = set()
    for atom in node.atoms():
        mentioned.add(atom.root)
        for attribute in ("category", "target", "via"):
            value = getattr(atom, attribute, None)
            if value is not None:
                mentioned.add(value)
        if hasattr(atom, "path"):
            mentioned.update(atom.path)
    return frozenset(mentioned)


@dataclass(frozen=True)
class SchemaDelta:
    """The structural difference between two schema versions.

    Constraint changes are tracked as canonical-text *sets* (a duplicate
    add or drop of a textually identical constraint is a semantic no-op
    even though it changes the fingerprint), and the union of their
    mentioned categories is precomputed because the survival test only
    needs the footprint, not the individual constraints.
    """

    added_categories: FrozenSet[Category]
    removed_categories: FrozenSet[Category]
    added_edges: FrozenSet[Tuple[Category, Category]]
    removed_edges: FrozenSet[Tuple[Category, Category]]
    added_constraints: FrozenSet[str]
    removed_constraints: FrozenSet[str]
    #: Union of :func:`mentioned_categories` over every added or removed
    #: constraint - the categories through which the constraint edit can
    #: influence other decisions.
    constraint_footprint: FrozenSet[Category]
    #: Child endpoints of every added or removed edge - the only side
    #: through which an edge change can enter a decision's upward cone.
    changed_edge_children: FrozenSet[Category]
    #: Whether the hierarchy's bottom-category set changed (Theorem 1
    #: quantifies over it, so summarizability verdicts cannot survive).
    bottoms_changed: bool

    @property
    def empty(self) -> bool:
        """A fingerprint-changing but semantically empty edit (e.g.
        adding a textual duplicate of an existing constraint)."""
        return not (
            self.added_categories
            or self.removed_categories
            or self.added_edges
            or self.removed_edges
            or self.added_constraints
            or self.removed_constraints
        )


def schema_delta(old: "DimensionSchema", new: "DimensionSchema") -> SchemaDelta:
    """Diff two schema versions into the sets :meth:`VerdictProvenance.
    survives` consults."""
    old_categories = old.hierarchy.categories
    new_categories = new.hierarchy.categories
    old_edges = frozenset(old.hierarchy.edges)
    new_edges = frozenset(new.hierarchy.edges)

    old_texts = {unparse(node): node for node in old.constraints}
    new_texts = {unparse(node): node for node in new.constraints}
    added_texts = frozenset(new_texts) - frozenset(old_texts)
    removed_texts = frozenset(old_texts) - frozenset(new_texts)

    footprint: Set[Category] = set()
    for text in added_texts:
        footprint |= mentioned_categories(new_texts[text])
    for text in removed_texts:
        footprint |= mentioned_categories(old_texts[text])

    added_edges = new_edges - old_edges
    removed_edges = old_edges - new_edges
    return SchemaDelta(
        added_categories=frozenset(new_categories - old_categories),
        removed_categories=frozenset(old_categories - new_categories),
        added_edges=added_edges,
        removed_edges=removed_edges,
        added_constraints=added_texts,
        removed_constraints=removed_texts,
        constraint_footprint=frozenset(footprint),
        changed_edge_children=frozenset(
            child for child, _parent in added_edges | removed_edges
        ),
        bottoms_changed=(
            old.hierarchy.bottom_categories() != new.hierarchy.bottom_categories()
        ),
    )


@dataclass(frozen=True)
class VerdictProvenance:
    """The dependency set of one cached verdict: what
    :meth:`survives` reads.

    ``categories`` is the upward closure of the decision's root(s) in the
    hierarchy the verdict was decided against; ``bottoms`` the
    hierarchy's bottom set for summarizability verdicts (Theorem 1
    quantifies over it), ``None`` otherwise.  The edges and constraints
    a proof consults are the ones its cone selects (see the module
    docstring), so the survival rules read only the categories.
    """

    kind: str
    categories: FrozenSet[Category]
    bottoms: Optional[FrozenSet[Category]] = None

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Stores saved while provenance also recorded ``edges`` and
        # ``constraints`` pickled them; keep only the declared fields, so
        # the next save writes the entry without them.
        self.__dict__.update({f.name: state[f.name] for f in fields(self)})

    def survives(self, delta: SchemaDelta) -> bool:
        """Whether a verdict with this dependency set is byte-identical
        under the edited schema (see the module docstring for why each
        rule is sound)."""
        if delta.empty:
            return True
        if self.bottoms is not None and delta.bottoms_changed:
            return False
        if delta.constraint_footprint & self.categories:
            return False
        if delta.changed_edge_children & self.categories:
            return False
        if delta.removed_categories & self.categories:
            return False
        return True


def cone_provenance(
    schema: "DimensionSchema",
    kind: str,
    roots: Iterable[Category],
    bottoms: Optional[FrozenSet[Category]] = None,
) -> VerdictProvenance:
    """The provenance of a decision whose search is confined to the
    upward closure of ``roots`` (every kernel decision is)."""
    hierarchy = schema.hierarchy
    categories: Set[Category] = set()
    for root in roots:
        categories.add(root)
        categories |= hierarchy.ancestors(root)
    return VerdictProvenance(
        kind=kind, categories=frozenset(categories), bottoms=bottoms
    )


def provenance_for_key(
    schema: "DimensionSchema", key: Tuple[object, ...]
) -> Optional[VerdictProvenance]:
    """Derive provenance from a canonical decision-cache key.

    Keys have the shape ``(kind, query...)`` shared by the
    sequential wrappers, the parallel engine, and the compiled tier, so
    every store site gets provenance without threading extra arguments.
    Unknown kinds return ``None`` (the entry is then invalidated on any
    edit - conservative, never wrong).
    """
    kind = key[0]
    if kind == "dimsat":
        from repro.core.dimsat import decision_provenance

        return decision_provenance(schema, key[1])  # type: ignore[arg-type]
    if kind == "implies":
        from repro.core.implication import implication_provenance

        return implication_provenance(schema, key[1])
    if kind == "summarizable":
        from repro.core.summarizability import summarizability_provenance

        return summarizability_provenance(schema, key[1], key[2])  # type: ignore[arg-type]
    return None
