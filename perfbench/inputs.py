"""Seeded inputs for every workload.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical request streams.  The program under test only ever
sees the generated requests, never the seed.

A request is an :class:`Op`.  Its ``doc`` is the wire document, where a
``"fingerprint"`` value of ``"$<tenant>"`` is a placeholder the load
generator fills in with the fingerprint the server returned for that
tenant (``load-schema`` and ``edit`` replies set it).  ``key`` names the
verdict the oracle checks afterwards: ``(tenant, request...)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from itertools import cycle
from typing import Dict, Iterator, List, Optional, Tuple

from repro._types import ALL
from repro.constraints.ast import Not
from repro.constraints.printer import unparse
from repro.core.schema import DimensionSchema
from repro.generators import adversarial
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.generators.suite import suite_schemas
from repro.generators.workloads import _implied_weakening
from repro.io.json_io import schema_to_json

#: Decision ops: their latency is the decision latency.
DECISION_OPS = ("decide", "implies", "summarizable", "navigate")


@dataclass(frozen=True)
class Op:
    """One request of a stream."""

    op: str
    doc: Tuple[Tuple[str, object], ...]
    key: Optional[Tuple[object, ...]] = None
    tenant: Optional[str] = None

    @property
    def is_decision(self) -> bool:
        return self.op in DECISION_OPS

    def document(self) -> Dict[str, object]:
        return {"op": self.op, **dict(self.doc)}

    @property
    def cost_class(self) -> Tuple[str, str]:
        """Requests of one class cost alike: the op and its tenant's
        family (a cold-audit tenant ``c<conn>-<block>-<family>`` names its
        family last; a suite tenant is its own family)."""
        tenant = self.tenant if self.tenant is not None else str(self.key[0]) if self.key else ""
        return (self.op, tenant.split("-", 2)[-1])


def _fp(tenant: str) -> str:
    return f"${tenant}"


def load_op(tenant: str, schema_json: str) -> Op:
    return Op("load-schema", (("schema_json", schema_json),), tenant=tenant)


def decision_ops(
    tenant: str, schema: DimensionSchema, rng: random.Random
) -> List[Op]:
    """A few dozen distinct decide/implies/summarizable/navigate requests
    over one schema (the warm-mix and edit-churn request pool)."""
    hierarchy = schema.hierarchy
    categories = sorted(hierarchy.categories - {ALL})
    fp = ("fingerprint", _fp(tenant))
    ops: List[Op] = []
    for category in categories:
        ops.append(
            Op("decide", (fp, ("request", ["dimsat", category])),
               (tenant, "dimsat", category))
        )
    texts = set()
    for constraint in schema.constraints:
        texts.add(unparse(constraint))
        texts.add(unparse(Not(constraint)))
    for _ in range(len(schema.constraints)):
        texts.add(unparse(_implied_weakening(schema, rng)))
    for text in sorted(texts):
        ops.append(Op("implies", (fp, ("constraint", text)),
                      (tenant, "implies", text)))
    targets = [c for c in categories if hierarchy.descendants(c) - {c}]
    seen = set()
    for target in targets:
        below = sorted(hierarchy.descendants(target) - {ALL, target})
        for size in (1, 2):
            for sources in combinations(below, size):
                if rng.random() < 0.2 or (target, sources) in seen:
                    continue
                seen.add((target, sources))
                ops.append(Op(
                    "summarizable",
                    (fp, ("target", target), ("sources", list(sources))),
                    (tenant, "summarizable", target, sources),
                ))
        materialized = tuple(sorted(rng.sample(below, min(len(below), 3))))
        ops.append(Op(
            "navigate",
            (fp, ("target", target), ("materialized", list(materialized))),
            (tenant, "navigate", target, materialized),
        ))
    return ops


# ----------------------------------------------------------------------
# warm-mix
# ----------------------------------------------------------------------


@dataclass
class ServedInputs:
    """Everything a served workload replays."""

    #: tenant -> schema (the oracle decides against these).
    schemas: Dict[str, DimensionSchema]
    #: Per connection: ``load-schema`` ops sent (untimed) before the
    #: first timed request.
    preloads: List[List[Op]]
    #: Per connection: the endless op stream it replays.
    streams: List[Iterator[Op]]
    #: Distinct requests sent while priming the cache (warm-mix only).
    prime: List[Op]
    sizes: Dict[str, object]


def warm_mix(seed: int, connections: int = 2) -> ServedInputs:
    """Distinct decisions over the five suite schemas, replayed warm.

    Every 25th op re-registers a suite schema, round-robin: the write a
    planner sends when it reconnects (``load-schema`` is idempotent).
    Round-robin keeps the write mix the same for every seed.
    """
    rng = random.Random(seed)
    schemas = suite_schemas()
    names = sorted(schemas)
    jsons = {name: schema_to_json(s) for name, s in schemas.items()}
    pool: List[Op] = []
    for name in names:
        pool.extend(decision_ops(name, schemas[name], rng))
    streams: List[Iterator[Op]] = []
    for _ in range(connections):
        order = list(pool)
        rng.shuffle(order)
        stream: List[Op] = []
        for index, op in enumerate(order):
            if index % 25 == 24:
                name = names[(index // 25) % len(names)]
                stream.append(load_op(name, jsons[name]))
            stream.append(op)
        streams.append(cycle(stream))
    preload = [load_op(name, jsons[name]) for name in names]
    return ServedInputs(
        schemas=schemas,
        preloads=[preload] * connections,
        streams=streams,
        prime=pool,
        sizes={
            "schemas": len(schemas),
            "distinct_requests": len(pool),
            "cache_entries_cap": 100_000,
        },
    )


# ----------------------------------------------------------------------
# cold-audit
# ----------------------------------------------------------------------

#: (family, builder(rng) -> schema), rotated through by the stream.
def _cold_families() -> List[Tuple[str, object]]:
    def rand(n: int):
        def build(rng: random.Random) -> DimensionSchema:
            return random_schema(
                RandomSchemaConfig(n_categories=n, seed=rng.randrange(10**9))
            )
        return build

    return [
        ("random-8", rand(8)),
        ("deep-chain", lambda rng: adversarial.deep_chain_schema(
            depth=rng.randint(7, 10), seed=rng.randrange(10**9))),
        ("random-10", rand(10)),
        ("wide-fanout", lambda rng: adversarial.wide_fanout_schema(
            width=rng.randint(5, 6), seed=rng.randrange(10**9))),
        ("random-12", rand(12)),
        ("many-bottoms", lambda rng: adversarial.many_bottoms_schema(
            n_bottoms=rng.randint(4, 6), seed=rng.randrange(10**9))),
        ("shortcut-lattice", lambda rng: adversarial.shortcut_lattice_schema(
            levels=3, width=2, seed=rng.randrange(10**9))),
        ("np-boundary", lambda rng: adversarial.np_boundary_schema(
            n_vars=3, seed=rng.randrange(10**9))),
    ]


def audit_ops(tenant: str, schema: DimensionSchema, rng: random.Random) -> List[Op]:
    """Register one schema, then audit it: dimsat per category, the
    negation of each constraint plus one implied weakening, and each
    target from its children."""
    hierarchy = schema.hierarchy
    fp = ("fingerprint", _fp(tenant))
    ops = [load_op(tenant, schema_to_json(schema))]
    for category in sorted(hierarchy.categories - {ALL}):
        ops.append(Op("decide", (fp, ("request", ["dimsat", category])),
                      (tenant, "dimsat", category)))
    texts: List[str] = []
    for constraint in schema.constraints:
        text = unparse(Not(constraint))
        if text not in texts:
            texts.append(text)
    if schema.constraints:
        weakening = unparse(_implied_weakening(schema, rng))
        if weakening not in texts:
            texts.append(weakening)
    for text in texts:
        ops.append(Op("implies", (fp, ("constraint", text)),
                      (tenant, "implies", text)))
    for target in sorted(hierarchy.categories - {ALL}):
        children = tuple(sorted(hierarchy.children(target)))
        if children:
            ops.append(Op(
                "summarizable",
                (fp, ("target", target), ("sources", list(children))),
                (tenant, "summarizable", target, children),
            ))
    return ops


class ColdAuditStream:
    """Fresh schemas, one audit block each, generated on demand.

    Block ``i`` of connection ``c`` is a pure function of
    ``(seed, c, i)``; fingerprints already used in this stream are
    skipped, so every decision is a cold miss.  Each schema is added to
    ``schemas`` (shared by the connections) as its block is generated.
    """

    def __init__(
        self, seed: int, connection: int, connections: int,
        schemas: Dict[str, DimensionSchema],
    ) -> None:
        self.rng = random.Random(seed * 7919 + connection)
        self.families = _cold_families()
        self.connection = connection
        self.connections = connections
        self.blocks = 0
        self.seen: set = set()
        self.schemas = schemas

    def next_block(self) -> List[Op]:
        while True:
            index = self.blocks * self.connections + self.connection
            family, build = self.families[index % len(self.families)]
            self.blocks += 1
            schema = build(self.rng)  # type: ignore[operator]
            fingerprint = schema.fingerprint()
            if fingerprint in self.seen:
                continue
            self.seen.add(fingerprint)
            tenant = f"c{self.connection}-{self.blocks}-{family}"
            self.schemas[tenant] = schema
            return audit_ops(tenant, schema, self.rng)


def cold_audit(seed: int, connections: int = 2, prefill: int = 0) -> ServedInputs:
    """Endless fresh-schema audit streams, ``prefill`` blocks per
    connection generated up front (before any timing starts)."""
    schemas: Dict[str, DimensionSchema] = {}
    streams = []
    for connection in range(connections):
        source = ColdAuditStream(seed, connection, connections, schemas)
        ready = [source.next_block() for _ in range(prefill)]
        streams.append(_blocks(ready, source))
    return ServedInputs(
        schemas=schemas,
        preloads=[[] for _ in range(connections)],
        streams=streams,
        prime=[],
        sizes={
            "families": [name for name, _build in _cold_families()],
            "cache_entries_cap": 100_000,
        },
    )


def _blocks(ready: List[List[Op]], source: ColdAuditStream) -> Iterator[Op]:
    for block in ready:
        yield from block
    while True:
        yield from source.next_block()


# ----------------------------------------------------------------------
# edit-churn
# ----------------------------------------------------------------------


def edit_churn(
    seed: int, connections: int = 2, length: int = 4000, edit_every: int = 10
) -> ServedInputs:
    """Each connection owns a share of the suite schemas and replays a
    seeded decision mix in which about one op in ``edit_every`` edits.

    Edits add an implied weakening or drop one this stream added.  The
    generator tracks each tenant's constraint texts, so it never adds a
    constraint that is already present (``drop_constraint`` would remove
    every copy) and never drops one that is gone: every edit is valid.
    The stream ends with the drops that restore each schema, so cycling
    it stays valid.  Adding an implied constraint changes no verdict, so
    the oracle checks every verdict against the unedited schema.
    """
    rng = random.Random(seed)
    schemas = suite_schemas()
    names = sorted(schemas)
    owned = [names[i::connections] for i in range(connections)]
    pools = {n: decision_ops(n, schemas[n], rng) for n in names}
    streams: List[List[Op]] = []
    preloads: List[List[Op]] = []
    for share in owned:
        preloads.append([load_op(n, schema_to_json(schemas[n])) for n in share])
        present = {n: {unparse(c) for c in schemas[n].constraints} for n in share}
        added: Dict[str, List[str]] = {n: [] for n in share}
        stream: List[Op] = []
        for index in range(length):
            name = rng.choice(share)
            if index % edit_every != edit_every - 1:
                stream.append(rng.choice(pools[name]))
                continue
            if added[name] and rng.random() < 0.5:
                text = added[name].pop(rng.randrange(len(added[name])))
                present[name].discard(text)
                stream.append(_edit_op(name, "drop-constraint", text))
                continue
            text = unparse(_implied_weakening(schemas[name], rng))
            if text in present[name]:
                stream.append(rng.choice(pools[name]))
                continue
            present[name].add(text)
            added[name].append(text)
            stream.append(_edit_op(name, "add-constraint", text))
        for name in share:
            for text in reversed(added[name]):
                stream.append(_edit_op(name, "drop-constraint", text))
        streams.append(stream)
    return ServedInputs(
        schemas=schemas,
        preloads=preloads,
        streams=[cycle(stream) for stream in streams],
        prime=[],
        sizes={
            "schemas": len(schemas),
            "distinct_requests": sum(len(p) for p in pools.values()),
            "stream_ops_per_connection": [len(s) for s in streams],
            "edits_per_connection": [
                sum(1 for op in s if op.op == "edit") for s in streams
            ],
            "cache_entries_cap": 100_000,
        },
    )


def _edit_op(tenant: str, action: str, text: str) -> Op:
    return Op(
        "edit",
        (("fingerprint", _fp(tenant)), ("action", action), ("constraint", text)),
        tenant=tenant,
    )
