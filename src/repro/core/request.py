"""The decision request model: one canonical form, one memo key.

Every decision the system serves is one of three requests, mirroring
the paper's three procedures: ``("dimsat", category)`` (Theorem 3),
``("implies", constraint)`` (Theorem 2) and ``("summarizable", target,
sources)`` (Theorem 1).  :func:`resolve_request` is the one place a
request is validated and canonicalized (constraint text parsed, the
source set sorted), and :func:`request_key` the one place its memo key
``(kind, query...)`` is built - the key the
:class:`~repro.core.decisioncache.DecisionCache`, the audit log and the
on-disk cache store all share.  The key carries no DIMSAT tuning: the
pruning rules never change a verdict, so every stored verdict replays
on the plain kernel.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.constraints.ast import Node
from repro.constraints.parser import parse
from repro.constraints.printer import unparse
from repro.errors import ReproError

#: A normalized decision request: ``("dimsat", category)``,
#: ``("implies", canonical_constraint_text)``, or
#: ``("summarizable", target, sorted_source_tuple)``.  The tuple is
#: hashable and doubles as the dedup key alongside the schema fingerprint.
RequestKey = Tuple[Any, ...]

#: The request kinds, one per decision procedure.
REQUEST_KINDS = ("dimsat", "implies", "summarizable")


def resolve_request(request: Sequence[object]) -> Tuple[Any, ...]:
    """Validate and canonicalize a decision request.

    Accepts ``("dimsat", category)``, ``("implies", constraint)`` (text
    or an AST node) and ``("summarizable", target, sources)`` (any
    collection of categories).  Returns the request with an implication's
    constraint parsed to its node and the source set as a sorted tuple;
    resolving a resolved request returns an equal one.  Malformed
    requests raise :class:`~repro.errors.ReproError` - they are caller
    bugs, not service faults.
    """
    if not request:
        raise ReproError("empty decision request")
    kind = request[0]
    if kind == "dimsat":
        if len(request) != 2:
            raise ReproError("dimsat requests are ('dimsat', category)")
        return ("dimsat", request[1])
    if kind == "implies":
        if len(request) != 2:
            raise ReproError("implication requests are ('implies', constraint)")
        constraint = request[1]
        if isinstance(constraint, str):
            constraint = parse(constraint)
        elif not isinstance(constraint, Node):
            raise ReproError(
                "implication requests are ('implies', constraint) with the "
                "constraint as text or a constraint node, not "
                f"{type(constraint).__name__}"
            )
        return ("implies", constraint)
    if kind == "summarizable":
        if len(request) != 3:
            raise ReproError(
                "summarizability requests are ('summarizable', target, sources)"
            )
        target, sources = request[1], request[2]
        if isinstance(sources, str):
            raise ReproError(
                "summarizability requests are ('summarizable', target, "
                f"sources) with sources a collection of categories, not the "
                f"string {sources!r}"
            )
        return ("summarizable", target, tuple(sorted(set(sources))))  # type: ignore[call-overload]
    raise ReproError(
        f"unknown decision request kind {kind!r}; expected one of {REQUEST_KINDS}"
    )


def request_key(request: Sequence[object]) -> RequestKey:
    """The memo key of a resolved request: ``(kind, query...)``, with an
    implication's constraint printed back to its canonical text."""
    if request[0] == "implies":
        return ("implies", unparse(request[1]))  # type: ignore[arg-type]
    return tuple(request)


def normalize_request(request: Sequence[object]) -> RequestKey:
    """The canonical, hashable form of a request: two requests asking the
    same question normalize to the same key, the memo key."""
    return request_key(resolve_request(request))
