"""Abstract syntax of dimension constraints (Definition 3).

A dimension constraint over a hierarchy schema ``G`` with root category
``c`` is a Boolean combination of atoms rooted at ``c``:

* **path atoms** ``c_c1_..._cn`` - there is a direct child/parent chain from
  the member through categories ``c1 ... cn``;
* **equality atoms** ``c.ci ~ k`` - the member rolls up to a member of
  ``ci`` named ``k``;
* **composed path atoms** ``c.ci`` (rolls up to ``ci``) and ``c.ci.cj``
  (rolls up to ``cj`` passing through ``ci``), which the paper defines as
  shorthands for disjunctions of path atoms; we keep them as first-class
  nodes and expand them on demand (:mod:`repro.constraints.atoms`).

Connectives: negation, conjunction, disjunction, implication, equivalence,
exclusive disjunction, the constants ``TRUE``/``FALSE``, and the paper's
``(.)A`` operator :class:`ExactlyOne` ("there is exactly one true atom in
A").

All nodes are immutable and hashable; structural equality is definitional.
Structural hashes are computed once per node and cached, and
:func:`hash_cons` interns nodes so structurally equal expressions become
the *same* object - the satisfiability kernel keys its memo tables on
nodes, so repeated reductions of a shared constraint set cost dictionary
lookups instead of tree walks.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Tuple

from repro._types import Category


class Node:
    """Base class of constraint expression nodes."""

    __slots__ = ()

    def atoms(self) -> Iterator["Atom"]:
        """Yield every atom occurring in the expression, left to right."""
        raise NotImplementedError

    def children(self) -> Tuple["Node", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    # Operator sugar so tests and examples can write ``a & b | ~c``.
    def __and__(self, other: "Node") -> "And":
        return And((self, other))

    def __or__(self, other: "Node") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def implies(self, other: "Node") -> "Implies":
        """``self IMPLIES other`` (the paper's horseshoe)."""
        return Implies(self, other)

    def iff(self, other: "Node") -> "Iff":
        """``self IFF other`` (the paper's triple bar)."""
        return Iff(self, other)

    def xor(self, other: "Node") -> "Xor":
        """``self XOR other`` (the paper's circled plus)."""
        return Xor(self, other)

    def __repr__(self) -> str:  # pragma: no cover - delegated to printer
        from repro.constraints.printer import unparse

        return unparse(self)


class Atom(Node):
    """Base class of atoms.  Every atom has a root category."""

    __slots__ = ()
    root: Category

    def atoms(self) -> Iterator["Atom"]:
        yield self

    def children(self) -> Tuple[Node, ...]:
        return ()


@dataclass(frozen=True, repr=False)
class PathAtom(Atom):
    """``root_c1_..._cn``: a direct chain through ``path`` exists.

    ``path`` excludes the root; the full category sequence is
    ``(root,) + path`` and must be a simple path of the hierarchy schema.
    """

    root: Category
    path: Tuple[Category, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a path atom needs at least one category after the root")
        object.__setattr__(self, "path", tuple(self.path))

    @property
    def full_path(self) -> Tuple[Category, ...]:
        """The category sequence including the root."""
        return (self.root,) + self.path

    @property
    def target(self) -> Category:
        """The last category of the path."""
        return self.path[-1]


@dataclass(frozen=True, repr=False)
class EqualityAtom(Atom):
    """``root.category ~ constant``: the member rolls up to a member of
    ``category`` whose ``Name`` is ``constant``.

    When ``category == root`` the atom constrains the member's own name
    (the paper abbreviates this as ``c ~ k``).
    """

    root: Category
    category: Category
    constant: str


#: Operators allowed in comparison atoms (Section 6 extension).
COMPARISON_OPS = ("<", "<=", ">", ">=", "!=")


@dataclass(frozen=True, repr=False)
class ComparisonAtom(Atom):
    """``root.category OP constant`` with an order predicate.

    The Section 6 extension: "We could consider further built-in
    predicates over attributes, such as an order relation, to extend
    equality atoms."  The atom holds at a member ``x`` when ``x`` rolls up
    to a member of ``category`` whose (numeric) name satisfies the
    comparison.  ``constant`` is kept as written (a numeric literal);
    members with non-numeric names never satisfy a comparison.
    """

    root: Category
    category: Category
    op: str
    constant: str

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        try:
            float(self.constant)
        except (TypeError, ValueError):
            raise ValueError(
                f"comparison atoms need a numeric constant, got {self.constant!r}"
            ) from None

    @property
    def threshold(self) -> float:
        """The numeric value of the constant."""
        return float(self.constant)

    def compare(self, value: float) -> bool:
        """Apply the operator to a concrete numeric value."""
        if self.op == "<":
            return value < self.threshold
        if self.op == "<=":
            return value <= self.threshold
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        return value != self.threshold


@dataclass(frozen=True, repr=False)
class RollsUpAtom(Atom):
    """Composed path atom ``root.target``: the member rolls up to
    ``target``.  Shorthand for the disjunction of all simple path atoms
    from ``root`` ending at ``target`` (or ``TRUE`` when
    ``root == target``)."""

    root: Category
    target: Category


@dataclass(frozen=True, repr=False)
class ThroughAtom(Atom):
    """Composed path atom ``root.via.target``: the member rolls up to
    ``target`` passing through ``via`` (Section 3.3)."""

    root: Category
    via: Category
    target: Category


@dataclass(frozen=True, repr=False)
class TrueConst(Node):
    """The true proposition."""

    def atoms(self) -> Iterator[Atom]:
        return iter(())

    def children(self) -> Tuple[Node, ...]:
        return ()


@dataclass(frozen=True, repr=False)
class FalseConst(Node):
    """The false proposition."""

    def atoms(self) -> Iterator[Atom]:
        return iter(())

    def children(self) -> Tuple[Node, ...]:
        return ()


TRUE = TrueConst()
FALSE = FalseConst()


@dataclass(frozen=True, repr=False)
class Not(Node):
    """Negation."""

    child: Node

    def atoms(self) -> Iterator[Atom]:
        return self.child.atoms()

    def children(self) -> Tuple[Node, ...]:
        return (self.child,)


class _NaryNode(Node):
    """Shared behaviour of n-ary connectives."""

    __slots__ = ()
    operands: Tuple[Node, ...]

    def atoms(self) -> Iterator[Atom]:
        for operand in self.operands:
            yield from operand.atoms()

    def children(self) -> Tuple[Node, ...]:
        return self.operands


@dataclass(frozen=True, repr=False)
class And(_NaryNode):
    """Conjunction of two or more operands.

    Nested conjunctions are flattened (conjunction is associative), which
    gives a canonical shape: an ``And`` never directly contains an ``And``.
    """

    operands: Tuple[Node, ...]

    def __post_init__(self) -> None:
        flat: list = []
        for operand in self.operands:
            if isinstance(operand, And):
                flat.extend(operand.operands)
            else:
                flat.append(operand)
        object.__setattr__(self, "operands", tuple(flat))
        if len(self.operands) < 2:
            raise ValueError("And needs at least two operands")


@dataclass(frozen=True, repr=False)
class Or(_NaryNode):
    """Disjunction of two or more operands, flattened like :class:`And`."""

    operands: Tuple[Node, ...]

    def __post_init__(self) -> None:
        flat: list = []
        for operand in self.operands:
            if isinstance(operand, Or):
                flat.extend(operand.operands)
            else:
                flat.append(operand)
        object.__setattr__(self, "operands", tuple(flat))
        if len(self.operands) < 2:
            raise ValueError("Or needs at least two operands")


@dataclass(frozen=True, repr=False)
class Implies(Node):
    """Material implication ``antecedent IMPLIES consequent``."""

    antecedent: Node
    consequent: Node

    def atoms(self) -> Iterator[Atom]:
        yield from self.antecedent.atoms()
        yield from self.consequent.atoms()

    def children(self) -> Tuple[Node, ...]:
        return (self.antecedent, self.consequent)


@dataclass(frozen=True, repr=False)
class Iff(Node):
    """Equivalence."""

    left: Node
    right: Node

    def atoms(self) -> Iterator[Atom]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Xor(Node):
    """Exclusive disjunction."""

    left: Node
    right: Node

    def atoms(self) -> Iterator[Atom]:
        yield from self.left.atoms()
        yield from self.right.atoms()

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class ExactlyOne(_NaryNode):
    """The paper's ``(.)A`` operator: exactly one operand is true.

    With a single operand it degenerates to that operand; with none it is
    unsatisfiable.  We require at least one operand and keep the node n-ary
    because Theorem 1 produces it over arbitrary category sets.
    """

    operands: Tuple[Node, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))
        if not self.operands:
            raise ValueError("ExactlyOne needs at least one operand")


def constraint_root(node: Node) -> Optional[Category]:
    """The shared root category of the atoms in ``node``.

    Returns ``None`` for constant expressions (no atoms).  Raises
    ``ValueError`` if atoms with different roots are mixed, which
    Definition 3 forbids.
    """
    root: Optional[Category] = None
    for atom in node.atoms():
        if root is None:
            root = atom.root
        elif atom.root != root:
            raise ValueError(
                f"atoms with different roots in one constraint: "
                f"{root!r} and {atom.root!r}"
            )
    return root


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every sub-expression, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


# ----------------------------------------------------------------------
# Hash caching and hash-consing
# ----------------------------------------------------------------------
#
# The decision procedures (DIMSAT's circle operator, simplification, the
# schema-level decision cache) all use constraint nodes as dictionary
# keys.  The dataclass-generated ``__hash__`` rehashes the whole subtree
# on every lookup; here every node caches its structural hash after the
# first computation, and ``__eq__`` gets an identity fast path plus a
# cached-hash early exit, so interned nodes compare in O(1).

_NODE_CLASSES = (
    PathAtom,
    EqualityAtom,
    ComparisonAtom,
    RollsUpAtom,
    ThroughAtom,
    TrueConst,
    FalseConst,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Xor,
    ExactlyOne,
)


def _field_values(node: Node) -> Tuple[object, ...]:
    """The dataclass field values of a node, in declaration order."""
    return tuple(getattr(node, f.name) for f in fields(node))


def _install_fast_identity(cls: type) -> None:
    base_hash = cls.__hash__
    base_eq = cls.__eq__

    def cached_hash(self) -> int:
        try:
            return self._hash_cache
        except AttributeError:
            value = base_hash(self)
            object.__setattr__(self, "_hash_cache", value)
            return value

    def fast_eq(self, other: object):
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented
        if cached_hash(self) != cached_hash(other):
            return False
        return base_eq(self, other)

    cls.__hash__ = cached_hash  # type: ignore[assignment]
    cls.__eq__ = fast_eq  # type: ignore[assignment]


for _cls in _NODE_CLASSES:
    _install_fast_identity(_cls)
del _cls


#: Intern table for :func:`hash_cons`.  Keys are ``(class, *fields)``
#: tuples; values are the canonical nodes, held weakly so expressions of
#: discarded schemas can be collected.
_INTERN_TABLE: "weakref.WeakValueDictionary[Tuple[object, ...], Node]" = (
    weakref.WeakValueDictionary()
)

#: Guards the check-then-insert in :func:`_intern`.  Without it, two
#: threads interning equal nodes could each insert their own copy and
#: hand out *different* canonical objects, breaking every identity-keyed
#: memo downstream (circle cache, decision cache).
_INTERN_LOCK = threading.Lock()


def _intern(node: Node) -> Node:
    key = (node.__class__,) + _field_values(node)
    with _INTERN_LOCK:
        canonical = _INTERN_TABLE.get(key)
        if canonical is not None:
            return canonical
        _INTERN_TABLE[key] = node
        return node


def hash_cons(node: Node) -> Node:
    """Return the canonical representative of ``node``.

    Structurally equal expressions map to the identical object (bottom-up
    interning), so ``hash_cons(a) is hash_cons(b)`` exactly when
    ``a == b``.  :class:`~repro.core.schema.DimensionSchema` interns its
    constraint set at construction, which makes the circle-operator memo
    and the decision cache hit by object identity.
    """
    if isinstance(node, TrueConst):
        return TRUE
    if isinstance(node, FalseConst):
        return FALSE
    if isinstance(node, Atom):
        return _intern(node)
    if isinstance(node, Not):
        child = hash_cons(node.child)
        return _intern(node if child is node.child else Not(child))
    if isinstance(node, (And, Or, ExactlyOne)):
        operands = tuple(hash_cons(op) for op in node.operands)
        if all(a is b for a, b in zip(operands, node.operands)):
            return _intern(node)
        return _intern(node.__class__(operands))
    if isinstance(node, Implies):
        antecedent = hash_cons(node.antecedent)
        consequent = hash_cons(node.consequent)
        if antecedent is node.antecedent and consequent is node.consequent:
            return _intern(node)
        return _intern(Implies(antecedent, consequent))
    if isinstance(node, (Iff, Xor)):
        left = hash_cons(node.left)
        right = hash_cons(node.right)
        if left is node.left and right is node.right:
            return _intern(node)
        return _intern(node.__class__(left, right))
    raise TypeError(f"cannot intern node of type {type(node).__name__}")


def intern_table_size() -> int:
    """Number of live interned nodes (diagnostics / cache-stats report)."""
    return len(_INTERN_TABLE)
