"""Shared hypothesis strategies: constraint expressions over the location
hierarchy, random schema configurations, and small hierarchies whose
category names do not follow their topological order."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from repro.constraints import (
    And,
    ComparisonAtom,
    EqualityAtom,
    ExactlyOne,
    Iff,
    Implies,
    Not,
    Or,
    PathAtom,
    RollsUpAtom,
    ThroughAtom,
)
from repro.core import ALL, DimensionSchema, HierarchySchema
from repro.generators.location import location_hierarchy

_HIERARCHY = location_hierarchy()
_CATEGORIES = sorted(_HIERARCHY.categories)
_NON_ALL = [c for c in _CATEGORIES if c != "All"]
_CONSTANTS = ["Canada", "Mexico", "USA", "Washington", "Other"]
_NUMBERS = ["0", "1", "9.5", "100", "-3"]
_OPS = ["<", "<=", ">", ">=", "!="]

# Simple paths of the location hierarchy, grouped by their root - path
# atoms must name real simple paths (Definition 3).
_PATHS_BY_ROOT = {}
for _start in _NON_ALL:
    paths = []
    for _end in _CATEGORIES:
        if _end == _start:
            continue
        paths.extend(_HIERARCHY.simple_paths(_start, _end))
    _PATHS_BY_ROOT[_start] = paths
_ROOTS_WITH_PATHS = [c for c in _NON_ALL if _PATHS_BY_ROOT[c]]


@st.composite
def path_atoms(draw, root=None):
    root = root if root is not None else draw(st.sampled_from(_ROOTS_WITH_PATHS))
    path = draw(st.sampled_from(_PATHS_BY_ROOT[root]))
    return PathAtom(root, tuple(path[1:]))


@st.composite
def equality_atoms(draw, root=None):
    root = root if root is not None else draw(st.sampled_from(_NON_ALL))
    category = draw(st.sampled_from(_CATEGORIES))
    constant = draw(st.sampled_from(_CONSTANTS))
    return EqualityAtom(root, category, constant)


@st.composite
def rolls_up_atoms(draw, root=None):
    root = root if root is not None else draw(st.sampled_from(_NON_ALL))
    target = draw(st.sampled_from(_CATEGORIES))
    return RollsUpAtom(root, target)


@st.composite
def through_atoms(draw, root=None):
    root = root if root is not None else draw(st.sampled_from(_NON_ALL))
    via = draw(st.sampled_from(_CATEGORIES))
    target = draw(st.sampled_from(_CATEGORIES))
    return ThroughAtom(root, via, target)


@st.composite
def comparison_atoms(draw, root=None):
    root = root if root is not None else draw(st.sampled_from(_NON_ALL))
    category = draw(st.sampled_from(_CATEGORIES))
    op = draw(st.sampled_from(_OPS))
    constant = draw(st.sampled_from(_NUMBERS))
    return ComparisonAtom(root, category, op, constant)


def atoms(root=None):
    return st.one_of(
        path_atoms(root=root),
        equality_atoms(root=root),
        rolls_up_atoms(root=root),
        through_atoms(root=root),
        comparison_atoms(root=root),
    )


@st.composite
def constraints(draw, root=None, max_depth=3):
    """Well-formed single-root constraint expressions."""
    root = root if root is not None else draw(st.sampled_from(_ROOTS_WITH_PATHS))

    def build(depth):
        if depth <= 0:
            return atoms(root=root)
        sub = st.deferred(lambda: build(depth - 1))
        return st.one_of(
            atoms(root=root),
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(p)),
            st.tuples(sub, sub).map(lambda p: Or(p)),
            st.tuples(sub, sub).map(lambda p: Implies(*p)),
            st.tuples(sub, sub).map(lambda p: Iff(*p)),
            st.lists(sub, min_size=1, max_size=3).map(
                lambda ops: ExactlyOne(tuple(ops))
            ),
        )

    return draw(build(max_depth))


def location_roots():
    return st.sampled_from(_ROOTS_WITH_PATHS)


_SHUFFLED_NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def shuffled_schemas(draw):
    """A 4-5 category hierarchy whose topological order is a random
    permutation of the names, half the time with one or two back edges
    (cycles), under into and rolls-up constraints.

    The ``random_schema`` generators name categories in topological
    order, so EXPAND's sorted choice of the next category never meets
    one whose new parent is already expanded; here it does.  Every
    forward pair and every edge to ``All`` is drawn with probability one
    half (sparser graphs rarely build a late shortcut), and at most 11
    edges keep brute force over every edge subset cheap."""
    order = draw(st.permutations(_SHUFFLED_NAMES))[: draw(st.integers(4, 5))]
    pairs = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
    ]
    edges = {pair for pair in pairs if draw(st.booleans())}
    edges |= {(c, ALL) for c in order if draw(st.booleans())}
    edges |= {(c, ALL) for c in order if all(child != c for child, _ in edges)}
    if draw(st.booleans()):
        back = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=2))
        edges |= {(upper, lower) for lower, upper in back}
    assume(len(edges) <= 11)
    hierarchy = HierarchySchema(order, sorted(edges))
    texts = [
        f"{child} -> {parent}"
        for child, parent in draw(st.sets(st.sampled_from(sorted(edges)), max_size=3))
    ]
    rolls = [
        (c, upper)
        for c in order
        for upper in sorted(hierarchy.ancestors(c) - {c, ALL})
    ]
    if rolls:
        texts += [
            f"{c}.{upper}"
            for c, upper in draw(st.sets(st.sampled_from(rolls), max_size=2))
        ]
    return DimensionSchema(hierarchy, texts)
