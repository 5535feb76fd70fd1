"""A schema-fingerprinted decision cache for the satisfiability kernel.

Every schema-level decision in the system - category satisfiability
(DIMSAT), constraint implication (Theorem 2), and schema-level
summarizability (Theorem 1) - is a pure function of the dimension schema
``(G, SIGMA)`` and the query.  The OLAP layers above ask the *same*
questions over and over: the aggregate navigator re-proves rewritings per
query, greedy view selection re-evaluates candidate sets, and maintenance
re-audits after every batch.  :class:`DecisionCache` memoizes those
verdicts keyed by a canonical schema fingerprint
(:meth:`~repro.core.schema.DimensionSchema.fingerprint`), so:

* repeated decisions over the same schema are dictionary lookups;
* cached verdicts survive schema *reconstruction* (fact-table reloads,
  JSON round trips) because equal schemas share a fingerprint;
* schema *edits* can never serve stale verdicts because an edited schema
  has a different fingerprint - and the maintenance layer
  (:mod:`repro.olap.maintenance`) moves the replaced version's entries
  that the edit cannot change to the new fingerprint (:meth:`DecisionCache.
  rekey`) and drops the rest on every mutation.

The cache is shared by the kernel's entry points
(:func:`~repro.core.summarizability.decide` and the
:mod:`~repro.core.implication` / :mod:`~repro.core.summarizability`
functions over it), the engines, :mod:`repro.olap.navigator`,
:mod:`repro.olap.viewselect`, and :mod:`repro.olap.maintenance`; pass
``cache=None`` to any of their entry points to force the uncached path
(the ablation the decision-cache benchmark measures).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.auditlog import AUDIT
from repro.core.faults import FAULTS, CacheStoreFault
from repro.core.metrics import METRICS
from repro.core.trace import TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.provenance import SchemaDelta, VerdictProvenance
    from repro.core.schema import DimensionSchema


#: Sentinel distinguishing "use the process-wide default cache" (the
#: argument default everywhere) from an explicit ``None`` (uncached).
USE_DEFAULT_CACHE: Any = object()


@dataclass
class DecisionCacheStats:
    """Cumulative counters for one :class:`DecisionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Store attempts that failed (e.g. an injected ``cache-store``
    #: fault).  The computed verdict was still returned - a failed store
    #: degrades throughput, never correctness.
    store_failures: int = 0
    #: Verdicts moved to a new fingerprint by provenance-scoped
    #: :meth:`DecisionCache.rekey` instead of being discarded.
    rekeyed: int = 0
    #: Evictions forced onto the fingerprint being stored because every
    #: resident entry already belonged to it (the hot schema filled the
    #: cache on its own).
    self_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


_STATS = METRICS.stats_family("decision_cache.", DecisionCacheStats)


class DecisionCache:
    """Memoized schema-level verdicts, keyed by schema fingerprint.

    Entries are ``(fingerprint, kind, query...) -> result``,
    the key :func:`~repro.core.request.request_key` builds.  The table
    only memoizes: every decision reaches it through :meth:`memoize`,
    from the kernel's dispatch
    (:func:`~repro.core.summarizability.decide`) or an engine.  Results
    are immutable (booleans, :class:`~repro.core.dimsat.DimsatResult`,
    :class:`~repro.core.implication.ImplicationResult`) and decisions
    are deterministic, so a cached result is indistinguishable from a
    fresh computation - the decision-cache benchmark asserts exactly
    that across every DIMSAT ablation configuration.

    The cache is safe to share across threads (a lock guards the table)
    and bounded (FIFO eviction at ``max_entries``).
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        self.max_entries = max_entries
        self.stats = _STATS.track(self, DecisionCacheStats())
        self._lock = threading.Lock()
        self._data: Dict[Tuple[object, ...], object] = {}
        #: Dependency set per entry (same full key); missing or ``None``
        #: means "invalidate on any edit" - conservative, never wrong.
        self._provenance: Dict[Tuple[object, ...], "Optional[VerdictProvenance]"] = {}
        #: The schema behind each resident fingerprint, kept so the disk
        #: store can persist a replayable sidecar per schema version.
        self._schemas: Dict[str, "DimensionSchema"] = {}

    # ------------------------------------------------------------------
    # Generic memoization
    # ------------------------------------------------------------------

    def memoize(
        self,
        schema: "DimensionSchema",
        key: Tuple[object, ...],
        compute: Callable[[], object],
    ) -> object:
        """Return the cached value for ``(schema.fingerprint(),) + key``,
        computing and storing it on a miss."""
        full_key = (schema.fingerprint(),) + key
        miss = object()
        with self._lock:
            hit_value = self._data.get(full_key, miss)
            if hit_value is not miss:
                self.stats.hits += 1
            else:
                # Count the miss before computing: hits + misses then
                # equals the number of lookups even when ``compute``
                # raises (a budget abort or cancellation), which also
                # guarantees the aborted decision leaves no entry behind.
                self.stats.misses += 1
        if TRACER.enabled:
            TRACER.event(
                "decision_cache.lookup", kind=str(key[0]), hit=hit_value is not miss
            )
        if hit_value is not miss:
            if AUDIT.enabled:
                # Cache hits are verdicts served too: the audit log must
                # show *every* answer the service gave, not only the ones
                # it computed.  ``key`` is ``(kind, query...)``.
                AUDIT.record_decision(schema, key, hit_value, 0.0, cache_hit=True)
            return hit_value
        value = memoize_or_audit(None, schema, key, compute)
        # Provenance is derived only after ``compute`` succeeded, and a
        # derivation failure degrades to ``None`` (= invalidate on any
        # edit) rather than failing the decision.
        try:
            from repro.core.provenance import provenance_for_key

            provenance: "Optional[VerdictProvenance]" = provenance_for_key(
                schema, key
            )
        except Exception:  # pragma: no cover - defensive degradation
            provenance = None
        try:
            FAULTS.cache_store()
            with self._lock:
                if full_key not in self._data:
                    if len(self._data) >= self.max_entries:
                        self._evict_for(full_key[0])
                    self._data[full_key] = value
                    self._provenance[full_key] = provenance
                    self._schemas.setdefault(full_key[0], schema)  # type: ignore[arg-type]
        except CacheStoreFault:
            # A failed store is pure degradation: the verdict was computed
            # and is correct, so serve it; the cache just stays cold for
            # this key.  Nothing partial is ever stored.
            with self._lock:
                self.stats.store_failures += 1
            if TRACER.enabled:
                TRACER.event("decision_cache.store_failed", kind=str(key[0]))
        return value

    def _evict_for(self, fingerprint: object) -> None:
        """Make room for an entry of ``fingerprint`` (lock held).

        FIFO, but the oldest entry belonging to *another* schema version
        goes first: a hot schema at capacity must not cannibalize its own
        warm verdicts while stale versions sit in the table.  Only when
        every resident entry already carries the incoming fingerprint is
        one of its own evicted (counted separately as a self-eviction).
        """
        victim = None
        for candidate in self._data:
            if candidate[0] != fingerprint:
                victim = candidate
                break
        if victim is None:
            victim = next(iter(self._data))
            self.stats.self_evictions += 1
        self._data.pop(victim)
        self._provenance.pop(victim, None)
        self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation and introspection
    # ------------------------------------------------------------------

    def invalidate(self, schema_or_fingerprint: object) -> int:
        """Evict every verdict cached for one schema version.

        Accepts a :class:`DimensionSchema` or a raw fingerprint string.
        Correctness never depends on calling this - an edited schema has a
        new fingerprint - but the maintenance layer calls it on every
        schema mutation so replaced versions stop occupying cache space.
        Returns the number of entries dropped.
        """
        fingerprint = (
            schema_or_fingerprint
            if isinstance(schema_or_fingerprint, str)
            else schema_or_fingerprint.fingerprint()  # type: ignore[union-attr]
        )
        with self._lock:
            doomed = [k for k in self._data if k[0] == fingerprint]
            for k in doomed:
                del self._data[k]
                self._provenance.pop(k, None)
            self._schemas.pop(fingerprint, None)  # type: ignore[arg-type]
            self.stats.invalidations += len(doomed)
        if TRACER.enabled:
            TRACER.event("decision_cache.invalidate", entries=len(doomed))
        return len(doomed)

    def rekey(
        self,
        old_schema: "DimensionSchema",
        new_schema: "DimensionSchema",
        delta: "Optional[SchemaDelta]" = None,
    ) -> Tuple[int, int]:
        """Provenance-scoped invalidation after a schema edit.

        Every verdict cached under ``old_schema``'s fingerprint whose
        dependency set (:class:`~repro.core.provenance.VerdictProvenance`)
        is untouched by ``delta`` is *moved* to ``new_schema``'s
        fingerprint - byte-identical by the soundness argument in
        :mod:`repro.core.provenance` - and the rest are dropped.  Entries
        without provenance are dropped unconditionally.

        An empty ``delta`` touches no cone, so every entry with
        provenance moves.  ``SchemaEditor._commit``
        (:mod:`repro.olap.maintenance`) passes one after proving the edit
        keeps the set of instances - the second, semantic rule.

        Returns ``(moved, dropped)``.  A surviving entry's provenance
        carries over unchanged: it records only the cone's categories
        and bottom set, which read identically off the edited schema
        after either kind of move.
        """
        from repro.core.provenance import schema_delta

        old_fingerprint = old_schema.fingerprint()
        new_fingerprint = new_schema.fingerprint()
        if old_fingerprint == new_fingerprint:
            return (0, 0)
        if delta is None:
            delta = schema_delta(old_schema, new_schema)
        moved = dropped = 0
        with self._lock:
            for k in [key for key in self._data if key[0] == old_fingerprint]:
                value = self._data.pop(k)
                provenance = self._provenance.pop(k, None)
                if provenance is not None and provenance.survives(delta):
                    new_key = (new_fingerprint,) + k[1:]
                    self._data[new_key] = value
                    self._provenance[new_key] = provenance
                    moved += 1
                else:
                    dropped += 1
            self._schemas.pop(old_fingerprint, None)
            if moved:
                self._schemas.setdefault(new_fingerprint, new_schema)
            self.stats.rekeyed += moved
            self.stats.invalidations += dropped
        if TRACER.enabled:
            TRACER.event("decision_cache.rekey", moved=moved, dropped=dropped)
        return moved, dropped

    def holds(self, fingerprint: str) -> bool:
        """Whether any entry is cached under ``fingerprint``."""
        with self._lock:
            return any(k[0] == fingerprint for k in self._data)

    def entries_for(self, fingerprint: str) -> List[Tuple[object, ...]]:
        """The full keys cached under ``fingerprint``."""
        with self._lock:
            return [k for k in self._data if k[0] == fingerprint]

    def peek(self, full_key: Tuple[object, ...]) -> Optional[object]:
        """The stored value for one full key without counting a hit
        (``None`` when absent).  The decision server asks it, through
        :meth:`~repro.core.resilience.ResilientDecisionEngine.would_hit`,
        whether a verdict can be answered on its event loop; the soak
        harness audits rekeyed entries against the oracle with it."""
        with self._lock:
            return self._data.get(full_key)

    def provenance_of(
        self, full_key: Tuple[object, ...]
    ) -> "Optional[VerdictProvenance]":
        """The dependency set recorded for one entry (``None`` when the
        entry is absent or was stored without provenance)."""
        with self._lock:
            return self._provenance.get(full_key)

    def snapshot(
        self,
    ) -> Tuple[
        Dict[Tuple[object, ...], object],
        Dict[Tuple[object, ...], "Optional[VerdictProvenance]"],
        Dict[str, "DimensionSchema"],
    ]:
        """A consistent ``(entries, provenance, schemas)`` copy for the
        disk store (:mod:`repro.core.cachestore`)."""
        with self._lock:
            return dict(self._data), dict(self._provenance), dict(self._schemas)

    def install(
        self,
        entries: Dict[Tuple[object, ...], object],
        provenance: Dict[Tuple[object, ...], "Optional[VerdictProvenance]"],
        schemas: Dict[str, "DimensionSchema"],
    ) -> int:
        """Merge a loaded snapshot into the cache (resident entries win);
        returns how many entries were installed."""
        installed = 0
        with self._lock:
            for key, value in entries.items():
                if key in self._data or len(self._data) >= self.max_entries:
                    continue
                self._data[key] = value
                self._provenance[key] = provenance.get(key)
                installed += 1
            for fingerprint, schema in schemas.items():
                self._schemas.setdefault(fingerprint, schema)
        return installed

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._provenance.clear()
            self._schemas.clear()
            _STATS.reset(self.stats)

    def __len__(self) -> int:
        return len(self._data)

    def report(self) -> str:
        """A human-readable stats block (the CLI's ``--cache-stats``)."""
        from repro.constraints.ast import intern_table_size
        from repro.core.compile import compiled_artifact_store
        from repro.core.dimsat import circle_cache

        circ = circle_cache()
        lines = [
            "decision cache:",
            f"  entries        {len(self)}",
            f"  hits           {self.stats.hits}",
            f"  misses         {self.stats.misses}",
            f"  hit rate       {self.stats.hit_rate:.1%}",
            f"  evictions      {self.stats.evictions}",
            f"  self-evictions {self.stats.self_evictions}",
            f"  invalidations  {self.stats.invalidations}",
            f"  rekeyed        {self.stats.rekeyed}",
            f"  store failures {self.stats.store_failures}",
            "circle-operator cache:",
            f"  entries        {len(circ)}",
            f"  hits           {circ.stats.hits}",
            f"  misses         {circ.stats.misses}",
            f"  hit rate       {circ.hit_rate:.1%}",
        ]
        lines.extend(compiled_artifact_store().report_lines())
        lines.extend(
            [
                "interned constraint nodes:",
                f"  live           {intern_table_size()}",
            ]
        )
        return "\n".join(lines)


def memoize_or_audit(
    cache: Optional[DecisionCache],
    schema: "DimensionSchema",
    key: Tuple[object, ...],
    compute: Callable[[], object],
) -> object:
    """Serve one decision through ``cache``, or compute it uncached.

    Every engine's single decisions end here, so a served verdict is
    audited exactly once either way: :meth:`DecisionCache.memoize`
    records hits and misses, and without a cache the computed verdict is
    recorded here.  ``key`` is ``(kind, query...)``.
    """
    if cache is not None:
        return cache.memoize(schema, key, compute)
    if not AUDIT.enabled:
        return compute()
    start = time.perf_counter()
    value = compute()
    AUDIT.record_decision(
        schema,
        key,
        value,
        (time.perf_counter() - start) * 1000.0,
        cache_hit=False,
    )
    return value


_DEFAULT_CACHE = DecisionCache()


def default_decision_cache() -> DecisionCache:
    """The process-wide decision cache every entry point defaults to."""
    return _DEFAULT_CACHE


def resolve_cache(cache: object) -> Optional[DecisionCache]:
    """Map an entry point's ``cache`` argument to a concrete cache.

    ``USE_DEFAULT_CACHE`` (the argument default) resolves to the global
    cache; ``None`` disables caching; anything else must be a
    :class:`DecisionCache` and is used as given.
    """
    if cache is USE_DEFAULT_CACHE:
        return _DEFAULT_CACHE
    return cache  # type: ignore[return-value]
