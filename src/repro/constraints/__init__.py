"""The dimension constraint language (Section 3 of the paper).

Public surface:

* AST node types (:mod:`repro.constraints.ast`);
* :func:`parse` / :func:`unparse` for the textual syntax;
* :func:`satisfies` and friends for Definition 4 semantics;
* :func:`expand` for composed-atom elimination;
* builders (:mod:`repro.constraints.builder`) for programmatic use.
"""

from repro.constraints.ast import (
    COMPARISON_OPS,
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
    hash_cons,
    walk,
)
from repro.constraints.atoms import expand, validate_constraint
from repro.constraints.builder import compare, eq, into, name_is, one, path, rollsup, through
from repro.constraints.parser import parse, parse_many
from repro.constraints.printer import unparse
from repro.constraints.semantics import (
    failures,
    satisfies,
    satisfies_all,
    satisfies_at,
    violating_members,
)
from repro.constraints.simplify import evaluate, nnf, simplify, substitute

__all__ = [
    "COMPARISON_OPS",
    "ComparisonAtom",
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "EqualityAtom",
    "ExactlyOne",
    "FalseConst",
    "Iff",
    "Implies",
    "Node",
    "Not",
    "Or",
    "PathAtom",
    "RollsUpAtom",
    "ThroughAtom",
    "TrueConst",
    "Xor",
    "compare",
    "constraint_root",
    "eq",
    "evaluate",
    "expand",
    "failures",
    "hash_cons",
    "into",
    "name_is",
    "nnf",
    "one",
    "parse",
    "parse_many",
    "path",
    "rollsup",
    "satisfies",
    "satisfies_all",
    "satisfies_at",
    "simplify",
    "substitute",
    "through",
    "unparse",
    "validate_constraint",
    "violating_members",
    "walk",
]
