"""Dimension schemas ``ds = (G, SIGMA)`` (end of Section 3.1).

A dimension schema couples a hierarchy schema with a finite set of
dimension constraints.  The schema is the unit DIMSAT and the implication
tester operate on; this module also precomputes the two schema-level
artifacts the algorithm needs:

* ``Const_ds`` (Section 3.2) - for each category, the constants mentioned
  by equality atoms targeting it, which bound the c-assignment search;
* the *into* constraints (Section 5) - constraints of the exact form
  ``c_c'`` that EXPAND uses to prune the subhierarchy search.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.constraints.ast import (
    ComparisonAtom,
    EqualityAtom,
    Node,
    PathAtom,
    hash_cons,
)
from repro.errors import ConstraintError
from repro.constraints.atoms import validate_constraint
from repro.constraints.parser import parse
from repro.core.hierarchy import Category, HierarchySchema

#: The reserved pseudo-constant the paper calls ``nk``: it stands for any
#: constant *not* mentioned for the category in SIGMA.
NK = "<nk>"


class DimensionSchema:
    """An immutable dimension schema ``(G, SIGMA)``.

    Parameters
    ----------
    hierarchy:
        The hierarchy schema ``G``.
    constraints:
        The constraint set ``SIGMA``; each entry is an AST node or a string
        in the textual syntax (parsed on the spot).

    Every constraint is validated against Definition 3 at construction.

    Examples
    --------
    >>> g = HierarchySchema(["Store", "City"], [("Store", "City"), ("City", "All")])
    >>> ds = DimensionSchema(g, ["Store -> City"])
    >>> ds.into_targets("Store")
    frozenset({'City'})
    """

    __slots__ = (
        "hierarchy",
        "_constraints",
        "_roots",
        "_const_map",
        "_thresholds",
        "_fingerprint",
        "__weakref__",
    )

    def __init__(
        self,
        hierarchy: HierarchySchema,
        constraints: Iterable[object] = (),
    ) -> None:
        self.hierarchy = hierarchy
        parsed: List[Node] = []
        roots: List[Category] = []
        for entry in constraints:
            node = parse(entry) if isinstance(entry, str) else entry
            root = validate_constraint(hierarchy, node)  # type: ignore[arg-type]
            # Intern every constraint: schemas derived from one another
            # (implication extends SIGMA per query) then share node
            # objects, and the satisfiability kernel's memo tables hit by
            # identity.
            parsed.append(hash_cons(node))  # type: ignore[arg-type]
            roots.append(root)
        self._constraints: Tuple[Node, ...] = tuple(parsed)
        self._roots: Tuple[Category, ...] = tuple(roots)
        self._const_map = self._compute_const_map()
        self._thresholds = self._compute_thresholds()
        self._check_numeric_consistency()
        self._fingerprint: Optional[str] = None

    def _compute_const_map(self) -> Dict[Category, FrozenSet[str]]:
        found: Dict[Category, set] = {c: set() for c in self.hierarchy.categories}
        for node in self._constraints:
            for atom in node.atoms():
                if isinstance(atom, EqualityAtom):
                    found[atom.category].add(atom.constant)
        return {c: frozenset(s) for c, s in found.items()}

    def _compute_thresholds(self) -> Dict[Category, FrozenSet[float]]:
        found: Dict[Category, set] = {}
        for node in self._constraints:
            for atom in node.atoms():
                if isinstance(atom, ComparisonAtom):
                    found.setdefault(atom.category, set()).add(atom.threshold)
        return {c: frozenset(s) for c, s in found.items()}

    def _check_numeric_consistency(self) -> None:
        # A category constrained by order predicates is *numeric*: every
        # equality constant targeting it must parse as a number, otherwise
        # the finite-representative c-assignment search would be unsound.
        for category in self._thresholds:
            for constant in self._const_map.get(category, ()):
                try:
                    float(constant)
                except (TypeError, ValueError):
                    raise ConstraintError(
                        f"category {category!r} carries order predicates, so "
                        f"the equality constant {constant!r} must be numeric"
                    ) from None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def constraints(self) -> Tuple[Node, ...]:
        """The constraint set ``SIGMA`` in declaration order."""
        return self._constraints

    def roots(self) -> Tuple[Category, ...]:
        """The root category of each constraint, aligned with
        :attr:`constraints`."""
        return self._roots

    def constraints_with_roots(self) -> Iterable[Tuple[Category, Node]]:
        """``(root, constraint)`` pairs."""
        return zip(self._roots, self._constraints)

    def constants(self, category: Category) -> FrozenSet[str]:
        """``Const_ds(category)``: constants equality atoms mention for it."""
        return self._const_map.get(category, frozenset())

    def thresholds(self, category: Category) -> FrozenSet[float]:
        """Numbers order predicates compare the category's names against
        (Section 6 extension); empty for symbolic categories."""
        return self._thresholds.get(category, frozenset())

    def is_numeric(self, category: Category) -> bool:
        """Whether the category carries order predicates."""
        return category in self._thresholds

    def constant_domain(self, category: Category) -> Tuple[object, ...]:
        """The c-assignment domain for one category.

        Symbolic categories: ``Const_ds(category) | {nk}`` (mentioned
        constants sorted, then ``nk``).  Numeric categories (those with
        order predicates): a finite set of *representatives* - every
        mentioned number, a point inside each interval between consecutive
        mentioned numbers, and one point beyond each end - which covers
        every truth-value combination the category's atoms can realize,
        so the finite search stays sound and complete.
        """
        if category not in self._thresholds:
            return tuple(sorted(self.constants(category))) + (NK,)
        points = set(self._thresholds[category])
        points.update(float(k) for k in self.constants(category))
        ordered = sorted(points)
        domain = [ordered[0] - 1.0]
        for left, right in zip(ordered, ordered[1:]):
            domain.append(left)
            domain.append((left + right) / 2.0)
        domain.append(ordered[-1])
        domain.append(ordered[-1] + 1.0)
        return tuple(domain)

    def max_constants(self) -> int:
        """``N_K``: the largest constant set any category carries."""
        if not self._const_map:
            return 0
        return max(len(s) for s in self._const_map.values())

    def into_targets(self, category: Category) -> FrozenSet[Category]:
        """Parents ``c'`` of ``category`` with the into constraint
        ``category_c'`` in SIGMA (Figure 6, line 14)."""
        targets = set()
        for node in self._constraints:
            if (
                isinstance(node, PathAtom)
                and node.root == category
                and len(node.path) == 1
            ):
                targets.add(node.path[0])
        return frozenset(targets & self.hierarchy.parents(category))

    def relevant_constraints(self, category: Category) -> Tuple[Node, ...]:
        """``SIGMA(ds, c)``: constraints whose root is reachable from
        ``category`` in ``G`` (Section 5).

        Constraints rooted elsewhere can never be violated by a frozen
        dimension rooted at ``category``, so DIMSAT discards them up front.
        """
        return tuple(
            node
            for root, node in zip(self._roots, self._constraints)
            if self.hierarchy.reaches(category, root)
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_constraints(self, extra: Iterable[object]) -> "DimensionSchema":
        """A new schema with additional constraints."""
        return DimensionSchema(self.hierarchy, list(self._constraints) + list(extra))

    def fingerprint(self) -> str:
        """A canonical fingerprint of ``(G, SIGMA)``.

        Hashes the sorted category set, the sorted edge set, and the
        sorted multiset of constraints in their canonical textual form, so
        two structurally equal schemas - even built independently - share
        a fingerprint.  The schema-level decision cache
        (:mod:`repro.core.decisioncache`) keys every verdict on it, which
        makes cached decisions survive schema reconstruction (fact-table
        reloads, JSON round trips) and never survive schema *edits*.
        """
        if self._fingerprint is None:
            from repro.constraints.printer import unparse

            digest = hashlib.sha256()
            digest.update("\x1d".join(sorted(self.hierarchy.categories)).encode())
            digest.update(b"\x1e")
            digest.update(
                "\x1d".join(f"{a}\x1f{b}" for a, b in sorted(self.hierarchy.edges)).encode()
            )
            digest.update(b"\x1e")
            digest.update(
                "\x1d".join(sorted(unparse(node) for node in self._constraints)).encode()
            )
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def size(self) -> int:
        """``N_SIGMA``: total node count across the constraint set, a
        proxy for the paper's 'size of SIGMA'."""
        from repro.constraints.ast import walk

        return sum(1 for node in self._constraints for _ in walk(node))

    def __repr__(self) -> str:
        return (
            f"DimensionSchema({len(self.hierarchy.categories)} categories, "
            f"{len(self._constraints)} constraints)"
        )
