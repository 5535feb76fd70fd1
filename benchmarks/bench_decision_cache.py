"""Decision-cache benchmark - the satisfiability kernel's acceptance gate.

Three claims, measured over the realistic schema suite:

* **speedup** - repeated implication and summarizability workloads (the
  aggregate navigator's access pattern: the same questions per query
  session) run at least 2x faster against a warm
  :class:`~repro.core.decisioncache.DecisionCache` than uncached;
* **hit rates** - the speedup is attributable: the decision cache reports
  its hit rate and a repeat DIMSAT run reports circle-operator hits in
  :class:`~repro.core.dimsat.DimsatStats`;
* **equivalence** - the DIMSAT search under every ablation configuration
  (the combinations of the E10 pruning flags and the circle cache)
  reaches the verdict the decision cache holds under the defaults, so
  the pruning rules and the cache layers are pure accelerators.
"""

from __future__ import annotations

import time
from itertools import product

import pytest
from conftest import print_table

from repro.constraints import Not, constraint_root, parse
from repro.core import (
    ALL,
    DecisionCache,
    DimsatOptions,
    dimsat,
    is_category_satisfiable,
    is_implied,
    is_summarizable_in_schema,
    summarizability_constraints,
    summarizable_sets,
)
from repro.generators.location import location_schema
from repro.generators.suite import suite_schemas
from repro.generators.workloads import implication_workload

SCHEMAS = suite_schemas()

#: Passes over the same workload; >1 is what makes caching pay.
REPEATS = 5


def _timed_implications(schema, queries, cache, repeats=REPEATS):
    verdicts = []
    start = time.perf_counter()
    for _ in range(repeats):
        verdicts = [is_implied(schema, q, cache=cache) for q in queries]
    return time.perf_counter() - start, verdicts


def _timed_summarizability(schema, pairs, cache, repeats=REPEATS):
    verdicts = []
    start = time.perf_counter()
    for _ in range(repeats):
        verdicts = [
            is_summarizable_in_schema(schema, target, sources, cache=cache)
            for target, sources in pairs
        ]
    return time.perf_counter() - start, verdicts


def _summarizability_pairs(schema, max_pairs=12):
    hierarchy = schema.hierarchy
    pairs = []
    for target in sorted(hierarchy.categories - {"All"}):
        below = sorted(
            c
            for c in hierarchy.categories
            if c not in ("All", target) and hierarchy.reaches(c, target)
        )
        for source in below[:2]:
            pairs.append((target, (source,)))
        if len(below) >= 2:
            pairs.append((target, tuple(below[:2])))
        if len(pairs) >= max_pairs:
            break
    return pairs[:max_pairs]


def test_repeated_implication_speedup():
    """The tentpole claim: >= 2x on a repeated implication workload."""
    rows = []
    total_uncached = total_cached = 0.0
    for name, schema in sorted(SCHEMAS.items()):
        queries = implication_workload(schema, n_queries=10, seed=3)
        uncached_time, uncached_verdicts = _timed_implications(
            schema, queries, cache=None
        )
        cache = DecisionCache()
        cached_time, cached_verdicts = _timed_implications(
            schema, queries, cache=cache
        )
        assert cached_verdicts == uncached_verdicts
        assert cache.stats.hits > 0
        total_uncached += uncached_time
        total_cached += cached_time
        rows.append(
            (
                name,
                f"{uncached_time * 1000:.1f} ms",
                f"{cached_time * 1000:.1f} ms",
                f"{uncached_time / cached_time:.1f}x",
                f"{cache.stats.hit_rate:.0%}",
            )
        )
    print_table(
        f"decision cache: {REPEATS}x repeated 10-query implication workload",
        ["schema", "uncached", "cached", "speedup", "hit rate"],
        rows,
    )
    assert total_uncached >= 2.0 * total_cached


def test_repeated_summarizability_speedup():
    """Same claim for the navigator's summarizability questions."""
    rows = []
    total_uncached = total_cached = 0.0
    for name, schema in sorted(SCHEMAS.items()):
        pairs = _summarizability_pairs(schema)
        if not pairs:
            continue
        uncached_time, uncached_verdicts = _timed_summarizability(
            schema, pairs, cache=None
        )
        cache = DecisionCache()
        cached_time, cached_verdicts = _timed_summarizability(
            schema, pairs, cache=cache
        )
        assert cached_verdicts == uncached_verdicts
        total_uncached += uncached_time
        total_cached += cached_time
        rows.append(
            (
                name,
                len(pairs),
                f"{uncached_time * 1000:.1f} ms",
                f"{cached_time * 1000:.1f} ms",
                f"{uncached_time / cached_time:.1f}x",
            )
        )
    print_table(
        f"decision cache: {REPEATS}x repeated summarizability workload",
        ["schema", "pairs", "uncached", "cached", "speedup"],
        rows,
    )
    assert total_uncached >= 2.0 * total_cached


def test_circle_hits_surface_in_dimsat_stats(loc_schema):
    """A DIMSAT run over a warm circle cache reports its hits."""
    warm = dimsat(loc_schema, "Store")  # warm the process-wide memo
    result = dimsat(loc_schema, "Store")
    stats = result.stats
    assert stats.circle_hits + stats.circle_misses > 0
    assert stats.circle_hits > 0
    assert stats.circle_hit_rate > 0.5
    # The ablation path never touches the memo.
    off = dimsat(loc_schema, "Store", DimsatOptions(circle_cache=False))
    assert off.stats.circle_hits == 0
    assert off.satisfiable == result.satisfiable == warm.satisfiable


#: The E10 ablation grid: every combination of the pruning heuristics.
ABLATIONS = [
    DimsatOptions(
        cycle_pruning=cycle,
        shortcut_pruning=shortcut,
        into_pruning=into,
        circle_cache=circle,
    )
    for cycle, shortcut, into, circle in product([True, False], repeat=4)
]


@pytest.mark.parametrize("options", ABLATIONS, ids=lambda o: (
    f"cyc{int(o.cycle_pruning)}-sc{int(o.shortcut_pruning)}"
    f"-into{int(o.into_pruning)}-circ{int(o.circle_cache)}"
))
def test_ablation_verdicts_identical_with_and_without_cache(options):
    """The DIMSAT search under any pruning configuration reaches the
    verdict cached under the defaults: category satisfiability directly,
    implication through Theorem 2's refutation search, summarizability
    through Theorem 1's per-bottom implications."""
    schema = location_schema()
    queries = implication_workload(schema, n_queries=8, seed=5)
    pairs = _summarizability_pairs(schema, max_pairs=6)
    cache = DecisionCache()

    def refuted(node):
        """Theorem 2 under ``options``: ``node`` is implied iff its root
        is unsatisfiable in the schema extended with its negation."""
        node = parse(node) if isinstance(node, str) else node
        extended = schema.with_constraints([Not(node)])
        return not dimsat(extended, constraint_root(node), options).satisfiable

    for category in sorted(schema.hierarchy.categories - {ALL}):
        cached = is_category_satisfiable(schema, category, cache=cache)
        assert dimsat(schema, category, options).satisfiable == cached
    for query in queries:
        assert refuted(query) == is_implied(schema, query, cache=cache)
    for target, sources in pairs:
        ablated = all(
            refuted(node)
            for bottom, node in summarizability_constraints(
                schema.hierarchy, target, sources
            )
            if bottom != ALL
        )
        cached = is_summarizable_in_schema(schema, target, sources, cache=cache)
        assert ablated == cached


def test_minimal_source_set_search_shares_implication_work():
    """``summarizable_sets`` asks overlapping per-bottom implication
    questions; routed through one cache they are answered once."""
    schema = location_schema()
    cache = DecisionCache()
    cold = summarizable_sets(schema, "Country", cache=cache)
    warm_hits = cache.stats.hits
    again = summarizable_sets(schema, "Country", cache=cache)
    assert cold == again
    assert cache.stats.hits > warm_hits  # second search is pure lookups
    uncached = summarizable_sets(schema, "Country", cache=None)
    assert uncached == cold
