"""Boolean manipulation of constraint expressions.

Three operations the rest of the system builds on:

* :func:`substitute` - replace atoms by other expressions (the circle
  operator of Definition 8 is a substitution of truth constants for path
  atoms);
* :func:`simplify` - constant folding and structural cleanup, so that after
  a substitution the expression shrinks to the fragment that still matters;
* :func:`evaluate` - truth-table evaluation under an atom assignment, the
  engine of DIMSAT's CHECK procedure;
* :func:`nnf` - negation normal form over ``and``/``or``/``not``, used by
  the brute-force baseline and the tests.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Mapping, Optional

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
)
from repro.errors import ConstraintError

_ATOM_TYPES = (PathAtom, EqualityAtom, ComparisonAtom, RollsUpAtom, ThroughAtom)


def substitute(node: Node, mapping: Callable[[Atom], Optional[Node]]) -> Node:
    """Replace atoms in ``node``.

    ``mapping`` receives each atom and returns a replacement expression or
    ``None`` to keep the atom unchanged.  The result is not simplified;
    compose with :func:`simplify` when constants were introduced.
    """
    if isinstance(node, _ATOM_TYPES):
        replacement = mapping(node)
        return node if replacement is None else replacement
    if isinstance(node, (TrueConst, FalseConst)):
        return node
    if isinstance(node, Not):
        return Not(substitute(node.child, mapping))
    if isinstance(node, And):
        return And(tuple(substitute(op, mapping) for op in node.operands))
    if isinstance(node, Or):
        return Or(tuple(substitute(op, mapping) for op in node.operands))
    if isinstance(node, Implies):
        return Implies(
            substitute(node.antecedent, mapping), substitute(node.consequent, mapping)
        )
    if isinstance(node, Iff):
        return Iff(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, Xor):
        return Xor(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, ExactlyOne):
        return ExactlyOne(tuple(substitute(op, mapping) for op in node.operands))
    raise ConstraintError(f"unknown node type {type(node).__name__}")


def simplify(node: Node) -> Node:
    """Constant-fold and flatten ``node``.

    The result is logically equivalent and contains ``TRUE``/``FALSE`` only
    if the whole expression is constant.  Simplification is syntactic (no
    SAT reasoning): it exists to shrink circle-operator results, not to
    decide them.
    """
    if isinstance(node, _ATOM_TYPES) or isinstance(node, (TrueConst, FalseConst)):
        return node
    if isinstance(node, Not):
        child = simplify(node.child)
        if isinstance(child, TrueConst):
            return FALSE
        if isinstance(child, FalseConst):
            return TRUE
        if isinstance(child, Not):
            return child.child
        return Not(child)
    if isinstance(node, And):
        operands: List[Node] = []
        for operand in node.operands:
            folded = simplify(operand)
            if isinstance(folded, FalseConst):
                return FALSE
            if isinstance(folded, TrueConst):
                continue
            operands.append(folded)
        if not operands:
            return TRUE
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))
    if isinstance(node, Or):
        operands = []
        for operand in node.operands:
            folded = simplify(operand)
            if isinstance(folded, TrueConst):
                return TRUE
            if isinstance(folded, FalseConst):
                continue
            operands.append(folded)
        if not operands:
            return FALSE
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))
    if isinstance(node, Implies):
        antecedent = simplify(node.antecedent)
        consequent = simplify(node.consequent)
        if isinstance(antecedent, FalseConst) or isinstance(consequent, TrueConst):
            return TRUE
        if isinstance(antecedent, TrueConst):
            return consequent
        if isinstance(consequent, FalseConst):
            return simplify(Not(antecedent))
        return Implies(antecedent, consequent)
    if isinstance(node, Iff):
        left = simplify(node.left)
        right = simplify(node.right)
        if isinstance(left, TrueConst):
            return right
        if isinstance(right, TrueConst):
            return left
        if isinstance(left, FalseConst):
            return simplify(Not(right))
        if isinstance(right, FalseConst):
            return simplify(Not(left))
        return Iff(left, right)
    if isinstance(node, Xor):
        left = simplify(node.left)
        right = simplify(node.right)
        if isinstance(left, FalseConst):
            return right
        if isinstance(right, FalseConst):
            return left
        if isinstance(left, TrueConst):
            return simplify(Not(right))
        if isinstance(right, TrueConst):
            return simplify(Not(left))
        return Xor(left, right)
    if isinstance(node, ExactlyOne):
        operands = []
        true_count = 0
        for operand in node.operands:
            folded = simplify(operand)
            if isinstance(folded, TrueConst):
                true_count += 1
                if true_count > 1:
                    return FALSE
            elif isinstance(folded, FalseConst):
                continue
            else:
                operands.append(folded)
        if true_count == 1:
            # Exactly one operand is already true: all others must be false.
            if not operands:
                return TRUE
            negated = [simplify(Not(op)) for op in operands]
            if len(negated) == 1:
                return negated[0]
            return And(tuple(negated))
        if not operands:
            return FALSE
        if len(operands) == 1:
            return operands[0]
        return ExactlyOne(tuple(operands))
    raise ConstraintError(f"unknown node type {type(node).__name__}")


def evaluate(node: Node, assignment: Callable[[Atom], bool]) -> bool:
    """Truth-table evaluation under an atom-level assignment.

    ``assignment`` must return the truth value of every atom the expression
    mentions; this is how CHECK tests a c-assignment against the reduced
    constraint set.
    """
    if isinstance(node, TrueConst):
        return True
    if isinstance(node, FalseConst):
        return False
    if isinstance(node, _ATOM_TYPES):
        return assignment(node)
    if isinstance(node, Not):
        return not evaluate(node.child, assignment)
    if isinstance(node, And):
        return all(evaluate(op, assignment) for op in node.operands)
    if isinstance(node, Or):
        return any(evaluate(op, assignment) for op in node.operands)
    if isinstance(node, Implies):
        return (not evaluate(node.antecedent, assignment)) or evaluate(
            node.consequent, assignment
        )
    if isinstance(node, Iff):
        return evaluate(node.left, assignment) == evaluate(node.right, assignment)
    if isinstance(node, Xor):
        return evaluate(node.left, assignment) != evaluate(node.right, assignment)
    if isinstance(node, ExactlyOne):
        return sum(1 for op in node.operands if evaluate(op, assignment)) == 1
    raise ConstraintError(f"unknown node type {type(node).__name__}")


def nnf(node: Node, negate: bool = False) -> Node:
    """Negation normal form over ``and``/``or``/``not``/atoms.

    ``Implies``, ``Iff``, ``Xor``, and ``ExactlyOne`` are expanded away.
    Negations end up directly above atoms.
    """
    if isinstance(node, TrueConst):
        return FALSE if negate else TRUE
    if isinstance(node, FalseConst):
        return TRUE if negate else FALSE
    if isinstance(node, _ATOM_TYPES):
        return Not(node) if negate else node
    if isinstance(node, Not):
        return nnf(node.child, not negate)
    if isinstance(node, And):
        parts = tuple(nnf(op, negate) for op in node.operands)
        return Or(parts) if negate else And(parts)
    if isinstance(node, Or):
        parts = tuple(nnf(op, negate) for op in node.operands)
        return And(parts) if negate else Or(parts)
    if isinstance(node, Implies):
        return nnf(Or((Not(node.antecedent), node.consequent)), negate)
    if isinstance(node, Iff):
        both = And((node.left, node.right))
        neither = And((Not(node.left), Not(node.right)))
        return nnf(Or((both, neither)), negate)
    if isinstance(node, Xor):
        return nnf(Not(Iff(node.left, node.right)), negate)
    if isinstance(node, ExactlyOne):
        return nnf(_exactly_one_expansion(node.operands), negate)
    raise ConstraintError(f"unknown node type {type(node).__name__}")


def _exactly_one_expansion(operands: Iterable[Node]) -> Node:
    """``one(a1..an)`` as a plain disjunction of 'ai and no other' terms."""
    ops = tuple(operands)
    terms: List[Node] = []
    for index, chosen in enumerate(ops):
        others = [Not(other) for j, other in enumerate(ops) if j != index]
        if others:
            terms.append(And((chosen, *others)))
        else:
            terms.append(chosen)
    if len(terms) == 1:
        return terms[0]
    return Or(tuple(terms))


def distinct_atoms(nodes: Iterable[Node]) -> FrozenSet[Atom]:
    """The set of distinct atoms mentioned across a constraint set."""
    found: set = set()
    for node in nodes:
        found.update(node.atoms())
    return frozenset(found)


def constant_substitution(truth: Mapping[Atom, bool]) -> Callable[[Atom], Optional[Node]]:
    """A :func:`substitute` mapping that pins atoms to given truth values."""

    def mapper(atom: Atom) -> Optional[Node]:
        if atom in truth:
            return TRUE if truth[atom] else FALSE
        return None

    return mapper
