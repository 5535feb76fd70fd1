"""Hash-consing of constraint ASTs: interning, cached hashes, the
identity fast paths the decision cache relies on, and constant folding."""

from __future__ import annotations

import gc

from repro.constraints import parse
from repro.constraints.ast import (
    FALSE,
    TRUE,
    And,
    Not,
    RollsUpAtom,
    hash_cons,
    intern_table_size,
)
from repro.constraints.simplify import simplify


class TestInterning:
    def test_equal_constructions_intern_to_one_object(self):
        left = hash_cons(parse("Store -> City and City -> Country"))
        right = hash_cons(parse("Store -> City and City -> Country"))
        assert left is right

    def test_subterms_are_shared(self):
        a = hash_cons(parse("not (Store -> City)"))
        b = hash_cons(parse("Store -> City or Store -> SaleRegion"))
        assert a.child is b.operands[0]

    def test_constants_map_to_singletons(self):
        assert hash_cons(parse("Store -> City or true")).operands[1] is TRUE
        assert hash_cons(parse("Store -> City and false")).operands[1] is FALSE

    def test_different_constraints_stay_different(self):
        assert hash_cons(parse("Store -> City")) is not hash_cons(
            parse("Store -> SaleRegion")
        )
        assert hash_cons(parse("Store -> City")) != parse("Store -> SaleRegion")

    def test_interned_nodes_equal_plain_nodes(self):
        interned = hash_cons(parse("Store -> City and City -> Country"))
        plain = parse("Store -> City and City -> Country")
        assert interned == plain
        assert hash(interned) == hash(plain)

    def test_table_is_weak(self):
        gc.collect()
        before = intern_table_size()
        node = hash_cons(
            And((RollsUpAtom("Ephemeral1", "Ephemeral2"), TRUE))
        )
        assert intern_table_size() > before
        del node
        gc.collect()
        assert intern_table_size() <= before + 1  # TRUE may linger


class TestCachedHash:
    def test_hash_is_cached_on_first_use(self):
        node = parse("Store -> City and not City -> Country")
        assert not hasattr(node, "_hash_cache") or node._hash_cache is None
        first = hash(node)
        assert node._hash_cache == first
        assert hash(node) == first

    def test_equality_identity_fast_path(self):
        node = hash_cons(parse("Store -> City"))
        assert node == node

    def test_unequal_hash_early_exit(self):
        a = parse("Store -> City")
        b = Not(parse("Store -> City"))
        hash(a), hash(b)
        assert a != b


class TestSimplifyFolding:
    def test_constants_fold_away(self):
        node = hash_cons(parse("(Store -> City and true) or false"))
        assert simplify(node) == parse("Store -> City")

    def test_double_negation_folds(self):
        node = hash_cons(parse("not not Store -> City"))
        assert simplify(node) == parse("Store -> City")

    def test_true_conjunct_drops(self):
        node = hash_cons(parse("Store -> City and true"))
        assert simplify(node) == parse("Store -> City")
