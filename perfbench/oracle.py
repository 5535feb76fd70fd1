"""The oracle: every distinct verdict against the uncached sequential
kernel.

Served verdicts are compared as booleans only (a dimsat witness depends
on search order).  A navigate plan is recomputed with the server's own
deterministic search order (subset size, then lexical) over uncached
verdicts.  Edit-churn edits only ever add implied constraints, which
change no verdict, so its verdicts are checked against the unedited
schema.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Tuple

from repro.core.dimsat import dimsat
from repro.core.implication import implies
from repro.core.schema import DimensionSchema
from repro.core.summarizability import is_summarizable_in_schema

from loadgen import Record

Key = Tuple[object, ...]


def served_answer(record: Record) -> object:
    """The comparable part of one ok decision reply."""
    reply = record.reply
    if record.op.op == "navigate":
        return (reply["plan"], tuple(reply["sources"]))
    return bool(reply["verdict"])


def expected_answer(schema: DimensionSchema, key: Key) -> object:
    kind = key[1]
    if kind == "dimsat":
        return dimsat(schema, key[2]).satisfiable
    if kind == "implies":
        return implies(schema, key[2], cache=None).implied
    if kind == "summarizable":
        return is_summarizable_in_schema(schema, key[2], key[3], cache=None)
    if kind == "navigate":
        return _navigate_plan(schema, key[2], key[3])
    raise ValueError(f"unknown verdict kind {kind!r}")


def _navigate_plan(
    schema: DimensionSchema, target: str, materialized: Iterable[str], max_sources: int = 3
) -> Tuple[str, Tuple[str, ...]]:
    materialized = list(materialized)
    if target in materialized:
        return ("materialized", (target,))
    reachable = sorted(
        c for c in set(materialized)
        if c != target and c in schema.hierarchy.categories
        and schema.hierarchy.reaches(c, target)
    )
    for size in range(1, min(max_sources, len(reachable)) + 1):
        for combo in combinations(reachable, size):
            if is_summarizable_in_schema(schema, target, combo, cache=None):
                return ("rewritten", combo)
    return ("base-scan", ())


def check(
    records: List[Record], schemas: Dict[str, DimensionSchema]
) -> Tuple[int, List[str]]:
    """Returns ``(diverging requests, descriptions)`` over the ok
    decision records; every distinct verdict is decided once."""
    answers: Dict[Key, List[object]] = {}
    for record in records:
        if record.status != "ok" or not record.op.is_decision:
            continue
        key = record.op.key
        assert key is not None
        answers.setdefault(key, []).append(served_answer(record))
    diverging = 0
    notes: List[str] = []
    for key, seen in answers.items():
        expected = expected_answer(schemas[key[0]], key)  # type: ignore[index]
        wrong = sum(1 for answer in seen if answer != expected)
        if wrong:
            diverging += wrong
            if len(notes) < 10:
                notes.append(f"{key!r}: expected {expected!r}, served {seen[0]!r}")
    return diverging, notes
