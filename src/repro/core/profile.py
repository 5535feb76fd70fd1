"""Schema profiling: the complexity parameters of Proposition 4, measured.

``schema_profile`` summarizes a dimension schema along every axis the
paper's analysis names - ``N`` (categories), ``N_K`` (constants),
``N_SIGMA`` (constraint size) - plus the structural features that drive
DIMSAT's actual behaviour: heterogeneous categories (several parents),
shortcuts, cycles, into coverage ("heterogeneity as an exception" is
into coverage near 1).  ``reasoning_profile`` runs DIMSAT and reports the
realized search effort next to the theoretical raw spaces.

Exposed on the command line as ``repro-olap stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._types import ALL, Category
from repro.constraints.ast import (
    ComparisonAtom,
    EqualityAtom,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
)
from repro.core.dimsat import dimsat
from repro.core.schema import DimensionSchema


@dataclass(frozen=True)
class SchemaProfile:
    """Structural and constraint metrics of one dimension schema."""

    categories: int                    # the paper's N (excluding All)
    edges: int
    bottom_categories: Tuple[Category, ...]
    shortcuts: int
    cyclic: bool
    heterogeneous_categories: Tuple[Category, ...]  # several parents
    constraints: int
    constraint_size: int               # the paper's N_SIGMA (node count)
    max_constants: int                 # the paper's N_K
    numeric_categories: Tuple[Category, ...]
    atom_counts: Dict[str, int]
    into_coverage: float               # fraction of edges pinned by intos

    def render(self) -> str:
        lines = [
            f"categories (N):        {self.categories}",
            f"edges:                 {self.edges}",
            f"bottom categories:     {', '.join(self.bottom_categories) or '-'}",
            f"shortcut edges:        {self.shortcuts}",
            f"cyclic:                {'yes' if self.cyclic else 'no'}",
            f"heterogeneous:         {', '.join(self.heterogeneous_categories) or '-'}",
            f"constraints:           {self.constraints}",
            f"constraint size (N_S): {self.constraint_size}",
            f"max constants (N_K):   {self.max_constants}",
            f"numeric categories:    {', '.join(self.numeric_categories) or '-'}",
            f"into coverage:         {self.into_coverage:.0%}",
            "atoms:                 "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.atom_counts.items())),
        ]
        return "\n".join(lines)


def schema_profile(schema: DimensionSchema) -> SchemaProfile:
    """Measure a schema along the Proposition 4 axes.

    >>> from repro.generators.location import location_schema
    >>> profile = schema_profile(location_schema())
    >>> profile.categories, profile.max_constants
    (6, 3)
    """
    hierarchy = schema.hierarchy
    atom_counts: Dict[str, int] = {}
    for node in schema.constraints:
        for atom in node.atoms():
            key = {
                PathAtom: "path",
                EqualityAtom: "equality",
                ComparisonAtom: "comparison",
                RollsUpAtom: "rolls-up",
                ThroughAtom: "through",
            }[type(atom)]
            atom_counts[key] = atom_counts.get(key, 0) + 1

    heterogeneous = tuple(
        sorted(
            c
            for c in hierarchy.categories
            if c != ALL and len(hierarchy.parents(c)) > 1
        )
    )
    non_all_edges = [e for e in hierarchy.edges]
    pinned = sum(
        1
        for child, parent in non_all_edges
        if parent in schema.into_targets(child)
    )
    numeric = tuple(
        sorted(c for c in hierarchy.categories if schema.is_numeric(c))
    )
    return SchemaProfile(
        categories=len(hierarchy.categories) - 1,
        edges=len(hierarchy.edges),
        bottom_categories=tuple(sorted(hierarchy.bottom_categories())),
        shortcuts=len(hierarchy.shortcuts()),
        cyclic=hierarchy.is_cyclic(),
        heterogeneous_categories=heterogeneous,
        constraints=len(schema.constraints),
        constraint_size=schema.size(),
        max_constants=schema.max_constants(),
        numeric_categories=numeric,
        atom_counts=atom_counts,
        into_coverage=pinned / len(non_all_edges) if non_all_edges else 0.0,
    )


@dataclass(frozen=True)
class ReasoningProfile:
    """Realized DIMSAT effort for one category, next to the raw spaces."""

    category: Category
    satisfiable: bool
    expand_calls: int
    check_calls: int
    assignments_tested: int
    raw_edge_subsets: int             # 2^|reachable edges|
    raw_assignment_space: int         # product of |domain| over categories

    def render(self) -> str:
        return (
            f"{self.category}: "
            f"{'satisfiable' if self.satisfiable else 'UNSATISFIABLE'}; "
            f"expand={self.expand_calls} check={self.check_calls} "
            f"assignments={self.assignments_tested} "
            f"(raw spaces: {self.raw_edge_subsets} subhierarchies x "
            f"{self.raw_assignment_space} assignments)"
        )


def reasoning_profile(schema: DimensionSchema, category: Category) -> ReasoningProfile:
    """Run DIMSAT and compare its effort with the unpruned spaces."""
    hierarchy = schema.hierarchy
    result = dimsat(schema, category)
    reachable_edges = sum(
        1 for child, _parent in hierarchy.edges if hierarchy.reaches(category, child)
    )
    assignment_space = 1
    for other in hierarchy.categories:
        if other != ALL and hierarchy.reaches(category, other):
            assignment_space *= len(schema.constant_domain(other))
    return ReasoningProfile(
        category=category,
        satisfiable=result.satisfiable,
        expand_calls=result.stats.expand_calls,
        check_calls=result.stats.check_calls,
        assignments_tested=result.stats.assignments_tested,
        raw_edge_subsets=2 ** reachable_edges,
        raw_assignment_space=assignment_space,
    )


def profile_report(schema: DimensionSchema) -> str:
    """The full ``repro-olap stats`` text: schema metrics plus a reasoning
    profile for every bottom category."""
    parts: List[str] = [schema_profile(schema).render(), ""]
    for bottom in sorted(schema.hierarchy.bottom_categories()):
        parts.append(reasoning_profile(schema, bottom).render())
    return "\n".join(parts)
