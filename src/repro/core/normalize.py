"""Schema normalization: redundancy removal and constraint strengthening.

Three maintenance operations a long-lived dimension schema needs, all
built on the implication engine:

* :func:`redundant_constraints` / :func:`minimize` - constraints already
  implied by the rest of SIGMA contribute nothing to the semantics, only
  to reasoning cost; the minimizer removes them greedily (front to back,
  so later duplicates fall before earlier originals are touched).
* :func:`implied_into_edges` - edges ``(c, c')`` for which ``c -> c'``
  is *implied* even though never declared.  Into constraints drive
  DIMSAT's strongest pruning (Section 5), so making them explicit speeds
  every subsequent query on the schema; :func:`strengthen_with_intos`
  does exactly that.  The transformation is semantics-preserving by
  construction: it only adds constraints that already hold in every
  instance.
"""

from __future__ import annotations

from typing import List, Tuple

from repro._types import ALL, Edge
from repro.constraints.ast import Node, PathAtom
from repro.core.implication import is_implied
from repro.core.schema import DimensionSchema


def redundant_constraints(schema: DimensionSchema) -> List[int]:
    """Indices of constraints implied by the *other* constraints.

    Note this is a per-constraint test against the rest of SIGMA; removing
    several "redundant" constraints at once is not always sound (two
    constraints can each imply the other), which is why :func:`minimize`
    removes them one at a time.
    """
    redundant: List[int] = []
    all_constraints = list(schema.constraints)
    for index, node in enumerate(all_constraints):
        rest = all_constraints[:index] + all_constraints[index + 1 :]
        reduced = DimensionSchema(schema.hierarchy, rest)
        if is_implied(reduced, node):
            redundant.append(index)
    return redundant


def minimize(schema: DimensionSchema) -> Tuple[DimensionSchema, List[Node]]:
    """A minimal equivalent subset of SIGMA (greedy, front to back).

    Returns the minimized schema and the constraints that were dropped.
    Every dropped constraint is implied by the surviving set, so
    ``I(minimized) == I(schema)``.
    """
    survivors = list(schema.constraints)
    dropped: List[Node] = []
    index = 0
    while index < len(survivors):
        candidate = survivors[index]
        rest = survivors[:index] + survivors[index + 1 :]
        reduced = DimensionSchema(schema.hierarchy, rest)
        if is_implied(reduced, candidate):
            dropped.append(candidate)
            survivors = rest
        else:
            index += 1
    return DimensionSchema(schema.hierarchy, survivors), dropped


def implied_into_edges(schema: DimensionSchema) -> List[Edge]:
    """Edges ``(c, c')`` whose into constraint is implied but not declared.

    Only satisfiable child categories are reported: over an unsatisfiable
    category every constraint is vacuously implied, and declaring intos
    there would be noise.
    """
    from repro.core.implication import is_category_satisfiable

    found: List[Edge] = []
    for child, parent in sorted(schema.hierarchy.edges):
        if child == ALL:
            continue
        if parent in schema.into_targets(child):
            continue
        if not is_category_satisfiable(schema, child):
            continue
        if is_implied(schema, PathAtom(child, (parent,))):
            found.append((child, parent))
    return found


def strengthen_with_intos(
    schema: DimensionSchema,
) -> Tuple[DimensionSchema, List[Edge]]:
    """Declare every implied into constraint explicitly.

    Semantics-preserving (the added constraints already hold everywhere)
    but performance-relevant: DIMSAT's EXPAND forces into edges instead of
    enumerating subsets around them (Section 5's heuristic), so downstream
    satisfiability, implication, and summarizability calls get faster on
    schemas whose intos were implicit.
    """
    edges = implied_into_edges(schema)
    if not edges:
        return schema, []
    extra = [PathAtom(child, (parent,)) for child, parent in edges]
    return schema.with_constraints(extra), edges


def schemas_equivalent(left: DimensionSchema, right: DimensionSchema) -> bool:
    """Whether two schemas over the same hierarchy admit the same
    instances (mutual implication of their constraint sets).

    This is the correctness criterion for every transformation in this
    module: ``minimize`` and ``strengthen_with_intos`` must both produce
    schemas equivalent to their input.
    """
    if left.hierarchy != right.hierarchy:
        return False
    for node in right.constraints:
        if not is_implied(left, node):
            return False
    for node in left.constraints:
        if not is_implied(right, node):
            return False
    return True
