"""Composed path atom expansion and constraint validation.

Section 3.1 defines the composed path atom ``c.ci`` and Section 3.3 the
triple form ``c.ci.cj`` as shorthands over the path atoms of a hierarchy
schema.  :func:`expand` rewrites an arbitrary constraint expression into one
mentioning only plain :class:`~repro.constraints.ast.PathAtom` and
:class:`~repro.constraints.ast.EqualityAtom` nodes, which is the form the
DIMSAT circle operator works on.

:func:`validate_constraint` enforces Definition 3: a single root distinct
from ``All``, categories drawn from the schema, and path atoms naming
simple paths of the schema.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.constraints.ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    ComparisonAtom,
    EqualityAtom,
    ExactlyOne,
    FalseConst,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
    TrueConst,
    Xor,
    constraint_root,
)
from repro._types import ALL, Category
from repro.errors import ConstraintError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.hierarchy import HierarchySchema


def expand_rolls_up(atom: RollsUpAtom, hierarchy: HierarchySchema) -> Node:
    """Expand ``c.ci`` per Section 3.1.

    ``c.c`` is ``TRUE``; otherwise the disjunction of all path atoms from
    ``c`` ending at ``ci`` (``FALSE`` when the schema has no such path).
    """
    if atom.root == atom.target:
        return TRUE
    options: List[Node] = [
        PathAtom(atom.root, path[1:])
        for path in hierarchy.simple_paths(atom.root, atom.target)
    ]
    return _disjoin(options)


def expand_through(atom: ThroughAtom, hierarchy: HierarchySchema) -> Node:
    """Expand ``c.ci.cj`` per the five cases of Section 3.3."""
    c, ci, cj = atom.root, atom.via, atom.target
    if c == ci == cj:
        return TRUE
    if c == cj and c != ci:
        # Rolling up to one's own category through another category would
        # need an ancestor in the member's category, forbidden by (C6).
        return FALSE
    if c == ci and c != cj:
        return expand_rolls_up(RollsUpAtom(c, cj), hierarchy)
    if ci == cj and c != ci:
        return expand_rolls_up(RollsUpAtom(c, ci), hierarchy)
    # All three categories distinct: simple paths from c to cj through ci.
    options: List[Node] = [
        PathAtom(c, path[1:])
        for path in hierarchy.simple_paths(c, cj)
        if ci in path[1:-1]
    ]
    return _disjoin(options)


def _disjoin(options: List[Node]) -> Node:
    if not options:
        return FALSE
    if len(options) == 1:
        return options[0]
    return Or(tuple(options))


def expand(node: Node, hierarchy: HierarchySchema) -> Node:
    """Rewrite ``node`` so it mentions only plain path and equality atoms.

    The result is logically equivalent over every instance of the schema
    (the disjunction semantics of composed atoms coincides with rollup
    reachability in valid instances; see DESIGN.md and the property tests).
    """
    def rewrite(n: Node) -> Node:
        if isinstance(n, RollsUpAtom):
            return expand_rolls_up(n, hierarchy)
        if isinstance(n, ThroughAtom):
            return expand_through(n, hierarchy)
        if isinstance(n, (PathAtom, EqualityAtom, ComparisonAtom, TrueConst, FalseConst)):
            return n
        if isinstance(n, Not):
            return Not(rewrite(n.child))
        if isinstance(n, And):
            return And(tuple(rewrite(op) for op in n.operands))
        if isinstance(n, Or):
            return Or(tuple(rewrite(op) for op in n.operands))
        if isinstance(n, Implies):
            return Implies(rewrite(n.antecedent), rewrite(n.consequent))
        if isinstance(n, Iff):
            return Iff(rewrite(n.left), rewrite(n.right))
        if isinstance(n, Xor):
            return Xor(rewrite(n.left), rewrite(n.right))
        if isinstance(n, ExactlyOne):
            return ExactlyOne(tuple(rewrite(op) for op in n.operands))
        raise ConstraintError(f"unknown constraint node {type(n).__name__}")

    return rewrite(node)


def validate_constraint(
    hierarchy: HierarchySchema, node: Node, root: Optional[Category] = None
) -> Category:
    """Check Definition 3 and return the constraint's root category.

    Parameters
    ----------
    hierarchy:
        The schema the constraint is declared over.
    node:
        The constraint expression.
    root:
        Optional expected root.  Constant expressions (no atoms) take this
        as their root; it is then required.

    Raises
    ------
    ConstraintError
        On mixed roots, a root of ``All``, unknown categories, or a path
        atom that is not a simple path of the schema.
    """
    try:
        found = constraint_root(node)
    except ValueError as exc:
        raise ConstraintError(str(exc)) from None
    if found is None:
        if root is None:
            raise ConstraintError(
                "constant constraint needs an explicit root category"
            )
        found = root
    elif root is not None and root != found:
        raise ConstraintError(
            f"constraint root is {found!r}, expected {root!r}"
        )
    if found == ALL:
        raise ConstraintError("constraints rooted at All are not allowed (Definition 3)")
    if not hierarchy.has_category(found):
        raise ConstraintError(f"root category {found!r} is not in the schema")

    for atom in node.atoms():
        _validate_atom(hierarchy, atom)
    return found


def _validate_atom(hierarchy: HierarchySchema, atom: Atom) -> None:
    if isinstance(atom, PathAtom):
        for category in atom.full_path:
            if not hierarchy.has_category(category):
                raise ConstraintError(
                    f"path atom mentions unknown category {category!r}"
                )
        if not hierarchy.is_simple_path(atom.full_path):
            raise ConstraintError(
                f"path atom {'_'.join(atom.full_path)} is not a simple path "
                f"of the hierarchy schema"
            )
    elif isinstance(atom, (EqualityAtom, ComparisonAtom)):
        for category in (atom.root, atom.category):
            if not hierarchy.has_category(category):
                raise ConstraintError(
                    f"equality atom mentions unknown category {category!r}"
                )
    elif isinstance(atom, RollsUpAtom):
        for category in (atom.root, atom.target):
            if not hierarchy.has_category(category):
                raise ConstraintError(
                    f"composed atom mentions unknown category {category!r}"
                )
    elif isinstance(atom, ThroughAtom):
        for category in (atom.root, atom.via, atom.target):
            if not hierarchy.has_category(category):
                raise ConstraintError(
                    f"composed atom mentions unknown category {category!r}"
                )
    else:  # pragma: no cover - defensive
        raise ConstraintError(f"unknown atom type {type(atom).__name__}")
