"""Simplifier, substitution, evaluation, and NNF tests."""

from __future__ import annotations

import itertools

import pytest

from repro.constraints import (
    FALSE,
    TRUE,
    And,
    EqualityAtom,
    ExactlyOne,
    Iff,
    Implies,
    Not,
    Or,
    PathAtom,
    Xor,
    evaluate,
    nnf,
    parse,
    simplify,
    substitute,
)
from repro.constraints.simplify import constant_substitution, distinct_atoms

A = PathAtom("X", ("A",))
B = PathAtom("X", ("B",))
C = PathAtom("X", ("C",))


def all_assignments(atoms):
    atoms = sorted(set(atoms), key=repr)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def equivalent(left, right):
    atoms = set(left.atoms()) | set(right.atoms())
    for assignment in all_assignments(atoms):
        get = lambda atom: assignment[atom]
        if evaluate(left, get) != evaluate(right, get):
            return False
    return True


class TestSimplify:
    def test_constant_folding_not(self):
        assert simplify(Not(TRUE)) == FALSE
        assert simplify(Not(FALSE)) == TRUE
        assert simplify(Not(Not(A))) == A

    def test_and_folding(self):
        assert simplify(And((A, TRUE))) == A
        assert simplify(And((A, FALSE))) == FALSE
        assert simplify(And((TRUE, TRUE))) == TRUE

    def test_or_folding(self):
        assert simplify(Or((A, FALSE))) == A
        assert simplify(Or((A, TRUE))) == TRUE
        assert simplify(Or((FALSE, FALSE))) == FALSE

    def test_implies_folding(self):
        assert simplify(Implies(FALSE, A)) == TRUE
        assert simplify(Implies(TRUE, A)) == A
        assert simplify(Implies(A, TRUE)) == TRUE
        assert simplify(Implies(A, FALSE)) == Not(A)

    def test_iff_folding(self):
        assert simplify(Iff(A, TRUE)) == A
        assert simplify(Iff(A, FALSE)) == Not(A)
        assert simplify(Iff(TRUE, A)) == A
        assert simplify(Iff(FALSE, FALSE)) == TRUE

    def test_xor_folding(self):
        assert simplify(Xor(A, FALSE)) == A
        assert simplify(Xor(A, TRUE)) == Not(A)
        assert simplify(Xor(TRUE, TRUE)) == FALSE

    def test_exactly_one_folding(self):
        assert simplify(ExactlyOne((FALSE, A))) == A
        assert simplify(ExactlyOne((TRUE, FALSE))) == TRUE
        assert simplify(ExactlyOne((TRUE, TRUE))) == FALSE
        assert simplify(ExactlyOne((TRUE, A))) == Not(A)
        assert simplify(ExactlyOne((TRUE, A, B))) == And((Not(A), Not(B)))
        assert simplify(ExactlyOne((FALSE, FALSE))) == FALSE

    def test_nested_folding(self):
        node = Implies(And((A, TRUE)), Or((FALSE, B)))
        assert simplify(node) == Implies(A, B)

    def test_simplify_preserves_truth_tables(self):
        cases = [
            parse("(A -> B or false) and not false"),
            Implies(Or((A, FALSE)), And((B, TRUE))),
            ExactlyOne((A, FALSE, B, Not(TRUE))),
            Iff(Xor(A, FALSE), Not(Not(B))),
        ]
        for node in cases:
            folded = simplify(node)
            assert equivalent(node, folded)


class TestSubstitute:
    def test_pin_atom_to_constant(self):
        node = Implies(A, B)
        pinned = substitute(node, constant_substitution({A: True}))
        assert simplify(pinned) == B

    def test_substitution_is_deep(self):
        node = ExactlyOne((A, Not(B), Or((A, C))))
        pinned = substitute(node, constant_substitution({A: False}))
        assert A not in set(pinned.atoms())

    def test_none_keeps_atom(self):
        node = And((A, B))
        same = substitute(node, lambda atom: None)
        assert same == node

    def test_replace_atom_with_expression(self):
        node = Or((A, B))
        replaced = substitute(node, lambda atom: And((B, C)) if atom == A else None)
        assert replaced == Or((And((B, C)), B))


class TestEvaluate:
    def test_simple_truth_table(self):
        node = Implies(A, B)
        assert evaluate(node, {A: False, B: False}.__getitem__)
        assert not evaluate(node, {A: True, B: False}.__getitem__)

    def test_exactly_one_semantics(self):
        node = ExactlyOne((A, B, C))
        truths = {A: True, B: False, C: False}
        assert evaluate(node, truths.__getitem__)
        truths = {A: True, B: True, C: False}
        assert not evaluate(node, truths.__getitem__)
        truths = {A: False, B: False, C: False}
        assert not evaluate(node, truths.__getitem__)


class TestNnf:
    @pytest.mark.parametrize(
        "text",
        [
            "A -> B implies A -> C",
            "A -> B iff A -> C",
            "A -> B xor A -> C",
            "not (A -> B and A -> C)",
            "not (A -> B or not A -> C)",
            "one(A -> B, A -> C, A -> D)",
            "not one(A -> B, A -> C)",
            "A -> B implies (A -> C iff A -> D)",
        ],
    )
    def test_nnf_equivalent(self, text):
        node = parse(text)
        normal = nnf(node)
        assert equivalent(node, normal)

    def test_nnf_shape(self):
        node = parse("not (A -> B and A -> C)")
        normal = nnf(node)
        # Negations only directly above atoms.
        from repro.constraints import walk

        for sub in walk(normal):
            if isinstance(sub, Not):
                assert isinstance(sub.child, PathAtom)

    def test_nnf_of_constants(self):
        assert nnf(Not(TRUE)) == FALSE
        assert nnf(Not(FALSE)) == TRUE


class TestHelpers:
    def test_distinct_atoms(self):
        found = distinct_atoms([And((A, B)), Or((B, C))])
        assert found == frozenset({A, B, C})

    def test_distinct_atoms_includes_equalities(self):
        e = EqualityAtom("X", "Y", "k")
        assert distinct_atoms([Implies(A, e)]) == frozenset({A, e})
