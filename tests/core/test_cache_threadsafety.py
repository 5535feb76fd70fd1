"""Concurrency hammer for the kernel's shared mutable state.

Eight threads pound the hash-consing intern table, the interpreted
kernel, and the decision cache with *equal but independently rebuilt*
schemas (the worst case for interning: every thread parses its own copies
of the same constraints).  Afterwards:

* the intern table holds exactly one canonical node per distinct
  constraint (no duplicate interned nodes);
* the kernel's verdicts and witnesses equal a sequential run's;
* the decision cache lost no entries and corrupted none (every cached
  verdict equals a fresh sequential computation);
* the hit/miss counters sum to exactly the number of lookups made.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.constraints.ast import RollsUpAtom, hash_cons
from repro.constraints.parser import parse
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.implication import implies, is_implied
from repro.core.summarizability import decide, is_summarizable_in_schema
from repro.generators.location import location_schema
from repro.generators.suite import suite_schemas
from repro.generators.workloads import implication_workload
from repro.io.json_io import schema_from_json, schema_to_json

THREADS = 8
ROUNDS = 30

CONSTRAINT_TEXTS = [
    "Store.City",
    "Store.City.Country",
    "one(Store.City.Country, Store.SaleRegion.Country)",
    "Store.City implies not Store.SaleRegion",
    "City.Country and not City.All = 'x'",
]


def _run_in_threads(worker, n=THREADS):
    """Run ``worker(index)`` on ``n`` threads through a start barrier so
    they really contend, re-raising the first failure."""
    barrier = threading.Barrier(n)

    def wrapped(index):
        barrier.wait()
        return worker(index)

    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(wrapped, i) for i in range(n)]
        return [f.result() for f in futures]


def test_interning_no_duplicates_under_contention():
    """Equal constraints parsed on 8 threads at once intern to the *same*
    canonical node object - a lost intern-table race would hand different
    threads different canonical nodes and break identity-keyed memos."""
    results = _run_in_threads(
        lambda index: [
            hash_cons(parse(text))
            for _ in range(ROUNDS)
            for text in CONSTRAINT_TEXTS
        ]
    )
    for per_thread in results[1:]:
        for a, b in zip(results[0], per_thread):
            assert a is b


def test_interning_mixed_fresh_nodes():
    """Contending threads interning fresh (structurally equal) atom objects
    still converge on one canonical node per distinct atom."""
    def worker(index):
        return [
            hash_cons(RollsUpAtom("Store", f"C{i % 7}")) for i in range(ROUNDS * 8)
        ]

    results = _run_in_threads(worker)
    canonical = {}
    for per_thread in results:
        for node in per_thread:
            assert canonical.setdefault((node.root, node.target), node) is node


def _oracle_questions(schema):
    """Every category's satisfiability, a seeded implication mix and six
    single-source summarizability questions."""
    hierarchy = schema.hierarchy
    categories = sorted(hierarchy.categories - {"All"})
    summarizable = [
        (target, (source,))
        for target in categories
        for source in categories
        if source != target and hierarchy.reaches(source, target)
    ]
    return categories, implication_workload(schema, 6, seed=2), summarizable[:6]


def _oracle_answers(schema, questions):
    """The interpreted kernel's verdicts and witnesses, uncached."""
    categories, queries, summarizable = questions
    out = []
    for category in categories:
        result = dimsat(schema, category)
        out.append((result.satisfiable, result.witness))
    for query in queries:
        result = implies(schema, query, cache=None)
        out.append((is_implied(schema, query, cache=None), result.counterexample))
    for target, sources in summarizable:
        out.append(is_summarizable_in_schema(schema, target, sources, cache=None))
    return out


def test_memo_free_oracle_matches_sequential_under_threads():
    """The interpreted kernel keeps no memo, so 8 threads running its
    three decisions over the suite schemas (the location schema is its
    ``retail``) at once reach exactly the verdicts and witnesses of a
    sequential run."""
    schemas = list(suite_schemas().values())
    questions = [_oracle_questions(schema) for schema in schemas]
    expected = [
        _oracle_answers(schema, asked) for schema, asked in zip(schemas, questions)
    ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-reduction
    try:
        results = _run_in_threads(
            lambda index: [
                _oracle_answers(schema, asked)
                for schema, asked in zip(schemas, questions)
            ]
        )
    finally:
        sys.setswitchinterval(interval)
    for per_thread in results:
        assert per_thread == expected


def test_decision_cache_hammer_equal_rebuilt_schemas():
    """8 threads asking the same questions over independently rebuilt
    (equal-fingerprint) schemas: no lost entries, no corrupt verdicts,
    counters summing to the lookups made."""
    base = location_schema()
    text = schema_to_json(base)
    cache = DecisionCache()
    categories = sorted(base.hierarchy.categories)
    queries = [
        ("dimsat", category) for category in categories
    ] + [("implies", text_) for text_ in CONSTRAINT_TEXTS[:3]]

    def worker(index):
        # Each thread rebuilds its own schema object: equal fingerprint,
        # distinct identity - the cache must unify them.
        schema = schema_from_json(text)
        out = []
        for _ in range(ROUNDS):
            for kind, arg in queries:
                if kind == "dimsat":
                    verdict = decide(schema, (kind, arg), cache=cache).satisfiable
                else:
                    verdict = is_implied(schema, arg, cache=cache)
                out.append((kind, arg, verdict))
        return out

    results = _run_in_threads(worker)

    fresh = schema_from_json(text)
    expected = {}
    for kind, arg in queries:
        if kind == "dimsat":
            expected[(kind, arg)] = dimsat(fresh, arg).satisfiable
        else:
            expected[(kind, arg)] = is_implied(fresh, arg, cache=None)
    for per_thread in results:
        for kind, arg, verdict in per_thread:
            assert verdict == expected[(kind, arg)], (kind, arg)

    lookups = THREADS * ROUNDS * len(queries)
    stats = cache.stats
    assert stats.hits + stats.misses == lookups
    # Every distinct question computed at least once, and nothing vanished:
    # the table holds exactly the distinct keys (well under the FIFO bound).
    assert len(cache) == len(queries)
    assert stats.misses >= len(queries)
    assert stats.evictions == 0
