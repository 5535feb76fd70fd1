"""The benchmark's own span recorder, wrapped around each layer's public
entry points from outside the program.

Nothing under ``src/`` knows about this module.  The ``install_*``
functions replace entry points on the live classes and, for module-level
functions, in *every* ``repro`` module namespace that imported them
(callers bind ``dimsat`` / ``implies`` / ``is_summarizable_in_schema``
at import time).

A span is ``(id, name, layer, start, end, request id, parent id)`` on
the host's monotonic clock (``time.perf_counter``), the same clock the
load generator stamps requests with.  Spans stay in memory until
:meth:`Recorder.dump`.  The request id travels on a thread-local stack;
work handed to the parallel engine's pool carries its submitter's
context through an executor proxy, so a worker's kernel span still
knows its request and parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter

#: Parent id and request id of the innermost open span (or context).
Context = Tuple[Optional[int], Optional[int]]


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.snapshots: List[Dict[str, float]] = []
        #: request id -> (server.handle span id, its start)
        self.handles: Dict[int, Tuple[int, float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context --------------------------------------------------------

    def _stack(self) -> List[Context]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> Context:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "base", (None, None))

    def set_base(self, context: Context) -> None:
        self._local.base = context

    # -- spans ----------------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)

    def push(self, name: str, layer: str, request_id: Optional[int] = None):
        parent, inherited = self.context()
        rid = inherited if request_id is None else request_id
        sid = next(self._ids)
        self._stack().append((sid, rid))
        return (sid, name, layer, now(), rid, parent)

    def pop(self, token) -> None:
        end = now()
        self._stack().pop()
        sid, name, layer, start, rid, parent = token
        self.spans.append((sid, name, layer, start, end, rid, parent))

    def add(self, name, layer, start, end, rid, parent=None, sid=None) -> None:
        self.spans.append(
            (sid or next(self._ids), name, layer, start, end, rid, parent)
        )

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def snapshot(self, extra: Dict[str, float]) -> None:
        with self._lock:
            values = dict(self.counters)
        values.update(extra)
        self.snapshots.append(values)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "snapshots": self.snapshots,
                    "counters": dict(self.counters),
                },
                handle,
            )


REC = Recorder()


# ----------------------------------------------------------------------
# Wrapping helpers
# ----------------------------------------------------------------------


def span_wrapper(name: str, layer: str, on_result: Optional[Callable] = None):
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = REC.push(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                REC.pop(token)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    return decorate


def patch_method(cls: type, attr: str, name: str, layer: str, on_result=None) -> None:
    setattr(cls, attr, span_wrapper(name, layer, on_result)(cls.__dict__[attr]))


def patch_function(module, attr: str, name: str, layer: str, on_result=None) -> None:
    """Wrap a module-level function everywhere it was imported."""
    original = getattr(module, attr)
    wrapped = span_wrapper(name, layer, on_result)(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _dimsat_stats(result, _args) -> None:
    stats = result.stats
    REC.count("dimsat.calls")
    REC.count("dimsat.expand_calls", stats.expand_calls)
    REC.count("dimsat.check_calls", stats.check_calls)
    REC.count("dimsat.circle_hits", stats.circle_hits)
    REC.count("dimsat.circle_misses", stats.circle_misses)
    REC.count("dimsat.into_pruned", stats.into_pruned_branches)


def _load_report(report, _args) -> None:
    REC.count("cachestore.loads")
    REC.count("cachestore.entries_verified", report.replayed)
    REC.count(
        "cachestore.entries_dropped",
        report.dropped_divergent + report.dropped_missing_schema,
    )


class _ContextExecutor:
    """Executor proxy: tasks run under their submitter's span context,
    and their queue wait (submit to start) is counted."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def submit(self, fn, *args, **kwargs):
        context = REC.context()
        submitted = now()

        def run():
            started = now()
            REC.count("parallel.tasks")
            REC.count("parallel.queue_wait_ms", (started - submitted) * 1000.0)
            REC.set_base(context)
            try:
                return fn(*args, **kwargs)
            finally:
                REC.set_base((None, None))

        return self.inner.submit(run)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


# ----------------------------------------------------------------------
# The layers
# ----------------------------------------------------------------------


def install_kernel_and_engines() -> None:
    """Layers shared by the served and the in-process workloads."""
    # Import every caller first, so the scan below rebinds their copies.
    import repro.cli  # noqa: F401
    import repro.core.server  # noqa: F401
    import repro.olap  # noqa: F401
    # ``repro.core`` re-exports functions under some module names
    # (``dimsat``), so the modules are looked up by full name.
    cachestore, compiled, decisioncache, dimsat, implication, parallel, \
        provenance, resilience, satsolver, summarizability, maintenance = (
            importlib.import_module(name) for name in (
                "repro.core.cachestore", "repro.core.compile",
                "repro.core.decisioncache", "repro.core.dimsat",
                "repro.core.implication", "repro.core.parallel",
                "repro.core.provenance", "repro.core.resilience",
                "repro.core.satsolver", "repro.core.summarizability",
                "repro.olap.maintenance",
            )
        )

    for attr in ("dimsat", "implies", "is_summarizable", "decide_many_outcomes"):
        patch_method(resilience.ResilientDecisionEngine, attr, f"resilience.{attr}", "resilience")
    for attr in (
        "dimsat", "implies", "is_summarizable", "try_decide_many",
        "_implies_fanout", "_summarizable_fanout",
    ):
        patch_method(parallel.ParallelDecisionEngine, attr, f"parallel.{attr}", "parallel")
    patch_method(
        parallel.ParallelDecisionEngine, "_dimsat_fanout",
        "parallel._dimsat_fanout", "parallel", _dimsat_stats,
    )
    get_executor = parallel.ParallelDecisionEngine._get_executor
    proxies: Dict[int, _ContextExecutor] = {}

    def _get_executor(self):
        executor = get_executor(self)
        if executor is None:
            return None
        proxy = proxies.get(id(executor))
        if proxy is None or proxy.inner is not executor:
            proxy = proxies[id(executor)] = _ContextExecutor(executor)
        return proxy

    parallel.ParallelDecisionEngine._get_executor = _get_executor

    patch_method(decisioncache.DecisionCache, "memoize", "decisioncache.memoize", "decisioncache")
    patch_method(decisioncache.DecisionCache, "rekey", "decisioncache.rekey", "decisioncache")
    patch_function(cachestore, "load_cache", "cachestore.load", "cachestore", _load_report)

    patch_function(dimsat, "dimsat", "dimsat.dimsat", "dimsat", _dimsat_stats)
    expand_from = dimsat._Search.expand_from

    def _expand_from(self, job):
        generator = expand_from(self, job)
        while True:
            token = REC.push("dimsat.expand_from", "dimsat")
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                REC.pop(token)
            yield item

    dimsat._Search.expand_from = _expand_from
    patch_function(implication, "implies", "implication.implies", "implication")
    patch_function(implication, "is_implied", "implication.is_implied", "implication")
    patch_function(
        summarizability, "is_summarizable_in_schema",
        "summarizability.is_summarizable_in_schema", "summarizability",
    )
    patch_function(
        summarizability, "_is_summarizable_uncached",
        "summarizability.uncached", "summarizability",
    )

    engine = compiled.CompiledDecisionEngine
    for attr in (
        "dimsat", "implies", "is_summarizable",
        "_dimsat_uncached", "_implies_uncached", "_summarizable_uncached",
    ):
        patch_method(engine, attr, f"compile.{attr}", "compile")
    patch_method(compiled.CompiledArtifactStore, "get", "compile.store_get", "compile")
    patch_method(
        compiled.CompiledArtifact, "__init__", "compile.build", "compile",
        lambda _r, _a: REC.count("compile.artifacts_built"),
    )
    patch_method(compiled._RootCompilation, "__init__", "compile.build", "compile")
    patch_method(compiled._RootCompilation, "decide", "compile.decide", "compile")

    solve = satsolver.Solver.solve

    def _solve(self, assumptions=()):
        before = (self.stats.conflicts, self.stats.propagations, self.stats.learned_clauses)
        token = REC.push("satsolver.solve", "satsolver")
        try:
            return solve(self, assumptions)
        finally:
            REC.pop(token)
            REC.count("satsolver.solves")
            REC.count("satsolver.conflicts", self.stats.conflicts - before[0])
            REC.count("satsolver.propagations", self.stats.propagations - before[1])
            REC.count("satsolver.learned_clauses", self.stats.learned_clauses - before[2])

    satsolver.Solver.solve = _solve

    for attr in (
        "add_constraint", "drop_constraint", "add_edge", "drop_edge",
        "add_category", "drop_category",
    ):
        patch_method(maintenance.SchemaEditor, attr, "maintenance.edit", "maintenance")
    patch_function(provenance, "schema_delta", "provenance.schema_delta", "provenance")
    patch_function(provenance, "provenance_for_key", "provenance.for_key", "provenance")


def install_navigator() -> None:
    """The OLAP layers (the in-process workload)."""
    cubeview, maintenance, navigator = (
        importlib.import_module(f"repro.olap.{name}")
        for name in ("cubeview", "maintenance", "navigator")
    )

    patch_method(navigator.AggregateNavigator, "answer", "navigator.answer", "navigator")
    patch_method(maintenance.MaintainedNavigator, "append", "navigator.append", "navigator")
    patch_function(cubeview, "cube_view", "cubeview.scan", "cubeview")
    patch_function(cubeview, "recombine", "cubeview.recombine", "cubeview")
    patch_function(maintenance, "apply_delta", "cubeview.apply_delta", "cubeview")


def install_server() -> None:
    """Wire codec and server dispatch (the traced launcher)."""
    server, wire = (
        importlib.import_module(f"repro.core.{name}") for name in ("server", "wire")
    )

    decode_frame = wire.decode_frame
    encode_frame = wire.encode_frame

    def _decode(payload):
        start = now()
        document = decode_frame(payload)
        end = now()
        rid = document.get("id")
        REC.add("wire.decode", "wire", start, end, rid)
        REC.count("wire.bytes", len(payload) + 4)
        return document

    def _encode(document):
        start = now()
        frame = encode_frame(document)
        REC.add("wire.encode", "wire", start, now(), document.get("id"))
        REC.count("wire.bytes", len(frame))
        return frame

    wire.decode_frame = _decode
    wire.encode_frame = _encode

    cls = server.DecisionServer
    handle_request = cls._handle_request
    serve_sync = cls._serve_sync
    stats_payload = cls._stats_payload

    async def _handle_request(self, request):
        rid = request.get("id")
        sid = REC.new_id()
        start = now()
        REC.handles[rid] = (sid, start)
        try:
            return await handle_request(self, request)
        finally:
            REC.add("server.handle", "server", start, now(), rid, sid=sid)

    def _serve_sync(self, op, request):
        rid = request.get("id")
        handle_sid, handle_start = REC.handles.get(rid, (None, now()))
        REC.add("server.queue", "server", handle_start, now(), rid, parent=handle_sid)
        REC.set_base((handle_sid, rid))
        token = REC.push("server.serve", "server", rid)
        try:
            return serve_sync(self, op, request)
        finally:
            REC.pop(token)
            REC.set_base((None, None))

    def _stats(self):
        payload = stats_payload(self)
        REC.snapshot(server_snapshot(self))
        return payload

    cls._handle_request = _handle_request
    cls._serve_sync = _serve_sync
    cls._stats_payload = _stats


def server_snapshot(srv) -> Dict[str, float]:
    """The layers' own counters, read off the live server objects."""
    from repro.core.compile import compiled_artifact_store

    values: Dict[str, float] = {
        "server.requests": srv.stats.requests,
        "server.busy": srv.stats.busy_responses,
        "server.errors": srv.stats.errors,
    }
    values.update(engine_snapshot(srv.engine))
    store = compiled_artifact_store().stats
    values["compile.store_hits"] = store.hits
    values["compile.store_misses"] = store.misses
    return values


def engine_snapshot(resilient) -> Dict[str, float]:
    values: Dict[str, float] = {
        "resilience.retries": resilient.stats.retries,
        "resilience.degraded": resilient.stats.degraded_sequential,
        "resilience.unknown": resilient.stats.unknown_verdicts,
    }
    engine = resilient.engine
    stats = engine.stats
    values["parallel.tasks_dispatched"] = getattr(stats, "tasks_dispatched", 0)
    values["parallel.tasks_cancelled"] = getattr(stats, "tasks_cancelled", 0)
    values["compile.compiled_decisions"] = getattr(stats, "compiled_decisions", 0)
    values["compile.fallbacks"] = getattr(stats, "fallbacks", 0)
    values.update(cache_snapshot(engine.cache))
    return values


def cache_snapshot(cache) -> Dict[str, float]:
    if cache is None:
        return {}
    stats = cache.stats
    return {
        "decisioncache.hits": stats.hits,
        "decisioncache.misses": stats.misses,
        "decisioncache.evictions": stats.evictions,
        "decisioncache.rekeyed": stats.rekeyed,
        "decisioncache.invalidations": stats.invalidations,
    }
