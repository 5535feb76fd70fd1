"""The decision server under concurrency: many clients over one shared
engine, byte-identical to the sequential kernel; edits rekey warm state
mid-traffic without a stale verdict; BUSY is backpressure, never a wrong
answer; warm state survives a stop/start cycle through the cache dir.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.auditlog import AUDIT
from repro.core.budget import DecisionBudget
from repro.core.compile import CompiledArtifactStore, CompiledDecisionEngine
from repro.core.decisioncache import DecisionCache
from repro.core.dimsat import dimsat
from repro.core.faults import inject_faults
from repro.core.hierarchy import ALL
from repro.core.implication import is_implied
from repro.core.parallel import ParallelDecisionEngine
from repro.core.resilience import ResilientDecisionEngine
from repro.core.server import ALL_OPS, DECISION_OPS, DecisionServer
from repro.core.client import DecisionClient, ServerClosed
from repro.core.summarizability import is_summarizable_in_schema
from repro.core.trace import TRACER
from repro.core.wire import encode_frame
from repro.generators.location import location_schema
from repro.generators.random_schema import RandomSchemaConfig, random_schema
from repro.io.json_io import schema_to_json


def _engine() -> ResilientDecisionEngine:
    """A resilient engine over a private cache (no global-state bleed)."""
    return ResilientDecisionEngine(ParallelDecisionEngine(cache=DecisionCache()))


@contextmanager
def running_server(**kwargs):
    kwargs.setdefault("engine", _engine())
    server = DecisionServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.started.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server thread did not stop"


def _client(server: DecisionServer, **kwargs) -> DecisionClient:
    return DecisionClient(server.host, server.port, timeout=30.0, **kwargs)


@pytest.fixture()
def loc_schema():
    return location_schema()


# A mixed decision workload over the location schema.  Truth values are
# never hardcoded here - every test compares against the sequential
# kernel run with cache=None.
IMPLIES_WORKLOAD = [
    "Store.City",
    "City.State.Country",
    "Store.SaleRegion",
    "City.Country",
    "State.Country",
]
SUMMARIZABLE_WORKLOAD = [
    ("Country", ["City"]),
    ("Country", ["City", "SaleRegion"]),
    ("Country", ["State", "Province"]),
    ("State", ["City"]),
]


class TestWireOpsEndToEnd:
    def test_load_schema_and_every_decision_op(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert fp == loc_schema.fingerprint()

                for constraint in IMPLIES_WORKLOAD:
                    response = client.implies(fp, constraint)
                    assert response["status"] == "ok"
                    assert response["verdict"] == is_implied(
                        loc_schema, constraint, cache=None
                    )

                for target, sources in SUMMARIZABLE_WORKLOAD:
                    response = client.summarizable(fp, target, sources)
                    assert response["status"] == "ok"
                    assert response["verdict"] == is_summarizable_in_schema(
                        loc_schema, target, sources, cache=None
                    )

                response = client.decide(fp, ("dimsat", "Store"))
                assert response["status"] == "ok"
                assert response["verdict"] is True
                assert response["rung"] == "parallel"

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (["summarizable", "Country", "City"], "sources a collection"),
            (["implies", 5], "constraint as text or a constraint node"),
        ],
    )
    def test_malformed_decide_request_names_the_expected_form(
        self, loc_schema, raw, expected
    ):
        """A wire ``decide`` whose query has the wrong shape answers a
        typed error naming the expected form - not an unknown category
        spelled from the string's characters, nor a printer failure."""
        server = DecisionServer(engine=_engine())
        fp = server.register_schema(loc_schema)
        response = server._serve_sync("decide", {"fingerprint": fp, "request": raw})
        assert response["status"] == "error"
        assert response["error_type"] == "ReproError"
        assert expected in response["error"]

    def test_navigate_plans(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert client.navigate(fp, "City", ["City"])["plan"] == (
                    "materialized"
                )
                rewritten = client.navigate(
                    fp, "Country", ["City", "SaleRegion"]
                )
                assert rewritten["plan"] == "rewritten"
                for source in rewritten["sources"]:
                    assert loc_schema.hierarchy.reaches(source, "Country")
                assert is_summarizable_in_schema(
                    loc_schema, "Country", rewritten["sources"], cache=None
                )
                # Nothing materialized reaches the target: full base scan.
                assert client.navigate(fp, "Country", [])["plan"] == "base-scan"
                # A view outside the hierarchy is never a candidate; the
                # rest are checked by set size, then names: Province
                # fails, SaleRegion is proven.
                plan = client.navigate(
                    fp, "Country", ["State", "SaleRegion", "Province", "Galaxy"]
                )
                assert (plan["plan"], plan["sources"], plan["checked"]) == (
                    "rewritten",
                    ["SaleRegion"],
                    2,
                )
                # Province, State, then the pair: all three fail.
                plan = client.navigate(fp, "Country", ["Province", "State", "Galaxy"])
                assert (plan["plan"], plan["sources"], plan["checked"]) == (
                    "base-scan",
                    [],
                    3,
                )

    def test_unknown_fingerprint_is_typed_error(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                response = client.implies("0" * 64, "Store.City")
                assert response["status"] == "error"
                assert "load-schema" in response["error"]

    def test_unknown_op_is_typed_error(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                response = client.call("frobnicate")
                assert response["status"] == "error"
                for op in ALL_OPS:
                    assert op in response["error"]

    def test_request_id_is_echoed(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                response = client.call(
                    "implies", fingerprint=fp, constraint="Store.City", id=42
                )
                assert response["id"] == 42

    def test_malformed_frame_poisons_only_its_connection(self, loc_schema):
        with running_server() as server:
            raw = socket.create_connection(
                (server.host, server.port), timeout=10
            )
            try:
                raw.sendall(b"\x00\x00\x00\x05nope!")
                # The server answers once (best effort) then hangs up.
                raw.settimeout(10)
                assert raw.recv(4096)
                assert raw.recv(4096) == b""
            finally:
                raw.close()
            # A fresh connection is unharmed.
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                assert client.implies(fp, "Store.City")["status"] == "ok"

    def test_stats_op_reports_the_surface(self, loc_schema):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                client.implies(fp, "Store.City")
                stats = client.stats()
                assert stats["status"] == "ok"
                assert stats["requests"] >= 2
                assert stats["served"]["implies"] == 1
                assert stats["schemas"] == 1
                assert stats["connections_open"] >= 1
                assert stats["cache"]["entries"] >= 1
                assert stats["resilience"]["decisions"] >= 1
                assert stats["engine"] == {"name": "sequential"}

    def test_default_server_serves_the_compiled_engine(self):
        server = DecisionServer()
        assert isinstance(server.engine.engine, CompiledDecisionEngine)

    def test_blown_budget_is_budget_exceeded_on_the_compiled_engine(
        self, loc_schema
    ):
        """A budget that stops every rung is ``budget-exceeded``; a
        worker fault on top of it makes the decision ``unknown``."""
        cache = DecisionCache()
        engine = CompiledDecisionEngine(
            cache=cache,
            budget=DecisionBudget(max_nodes=0),
            store=CompiledArtifactStore(),
        )
        with running_server(engine=engine) as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                implied = client.implies(fp, "Store.City")
                decided = client.decide(fp, ["dimsat", "Store"])
                with inject_faults("worker-crash:p=1.0;seed=1"):
                    faulted = client.implies(fp, "Store.City")
        for response in (implied, decided):
            assert response["status"] == "budget-exceeded", response
            assert {f["error_type"] for f in response["failures"]} == {
                "BudgetExceeded"
            }
        assert faulted["status"] == "unknown", faulted
        assert len(cache) == 0

    def test_stats_op_reports_compiled_fallbacks_and_artifacts(
        self, loc_schema
    ):
        numeric = random_schema(
            RandomSchemaConfig(
                n_categories=5,
                numeric_fraction=1.0,
                attributed_fraction=1.0,
                equality_constraint_prob=1.0,
                seed=7,
            )
        )
        category = sorted(numeric.hierarchy.categories - {ALL})[0]
        engine = CompiledDecisionEngine(
            cache=DecisionCache(), store=CompiledArtifactStore()
        )
        with running_server(engine=engine) as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                for constraint in IMPLIES_WORKLOAD:
                    client.implies(fp, constraint)
                stats = client.stats()
                assert stats["engine"] == {
                    "name": "compiled",
                    "fallbacks": 0,
                    "artifacts": {
                        "hits": len(IMPLIES_WORKLOAD) - 1,
                        "misses": 1,
                        "compile_failures": 0,
                    },
                }
                numeric_fp = client.load_schema(numeric)
                response = client.decide(numeric_fp, ["dimsat", category])
                assert response["verdict"] == dimsat(numeric, category).satisfiable
                stats = client.stats()["engine"]
                assert stats["fallbacks"] == 1
                assert stats["artifacts"]["compile_failures"] == 1


class TestConcurrentClients:
    def test_concurrent_verdicts_byte_identical_to_sequential(
        self, loc_schema
    ):
        """N simultaneous clients must serve byte-for-byte the frames a
        fresh single-threaded server produces for the same requests."""

        def workload(client, fp):
            frames = []
            for constraint in IMPLIES_WORKLOAD:
                response = client.implies(fp, constraint)
                # The witness is a search-order artifact (parallel and
                # sequential refutation legitimately find different
                # frozen dimensions); the byte-identity contract is the
                # verdict and every other field.
                response.pop("counterexample", None)
                frames.append(encode_frame(response))
            for target, sources in SUMMARIZABLE_WORKLOAD:
                response = client.summarizable(fp, target, sources)
                frames.append(encode_frame(response))
            return frames

        # Reference: a fresh server, one client, strictly sequential.
        with running_server(engine=_engine()) as server:
            with _client(server) as client:
                reference = workload(client, client.load_schema(loc_schema))

        # Contender: 8 clients hammering one shared warm engine.
        with running_server() as server:
            results = [None] * 8
            errors = []

            def run(slot):
                try:
                    with _client(server) as client:
                        fp = client.load_schema(loc_schema)
                        results[slot] = workload(client, fp)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not errors
            for frames in results:
                assert frames == reference

    def test_shared_cache_serves_warm_hits_across_clients(self, loc_schema):
        with running_server() as server:
            with _client(server) as warmer:
                fp = warmer.load_schema(loc_schema)
                warmer.implies(fp, "Store.City")
            cache = server.cache
            hits_before = cache.stats.hits
            with _client(server) as reader:
                assert reader.implies(fp, "Store.City")["status"] == "ok"
            assert cache.stats.hits > hits_before

    def test_busy_is_never_a_wrong_verdict(self, loc_schema):
        """Saturate a max_inflight=1 server: some calls get BUSY, and
        every non-busy response still matches the sequential kernel."""
        engine = _engine()
        real_implies = engine.implies

        def slow_implies(schema, constraint):
            time.sleep(0.05)
            return real_implies(schema, constraint)

        engine.implies = slow_implies  # type: ignore[method-assign]
        with running_server(engine=engine, max_inflight=1) as server:
            with _client(server) as setup:
                fp = setup.load_schema(loc_schema)
            responses = []
            lock = threading.Lock()

            def hammer():
                # busy_retries=0: record raw BUSY responses instead of
                # retrying them away.
                with _client(server, busy_retries=0) as client:
                    for constraint in IMPLIES_WORKLOAD:
                        response = client.call(
                            "implies", fingerprint=fp, constraint=constraint
                        )
                        with lock:
                            responses.append((constraint, response))

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)

            busy = [r for _, r in responses if r["status"] == "busy"]
            served = [
                (c, r) for c, r in responses if r["status"] == "ok"
            ]
            assert busy, "saturation never triggered the BUSY gate"
            assert served, "every request was refused"
            for response in busy:
                # A BUSY carries backpressure data and no verdict.
                assert "verdict" not in response
                assert response["max_inflight"] == 1
            for constraint, response in served:
                assert response["verdict"] == is_implied(
                    loc_schema, constraint, cache=None
                )
            assert server.stats.busy_responses == len(busy)

    def test_mid_traffic_edit_rekeys_without_stale_verdict(self):
        """Readers hammer ``implies`` while an edit lands; afterwards the
        new fingerprint answers with the edited schema's truth, the old
        fingerprint still answers with the original truth, and a verdict
        whose dependency cone is disjoint from the delta survives the
        rekey as a warm hit."""
        from repro.core.hierarchy import HierarchySchema
        from repro.core.schema import DimensionSchema

        # Base -> {A, C} -> T -> All: the edit adds "Base -> A" (delta
        # cone on the Base/A branch); the warmed "C -> T" verdict lives
        # in the disjoint {C, T, All} cone, so it must be rekeyed.
        schema = DimensionSchema(
            HierarchySchema(
                ["Base", "A", "C", "T"],
                [
                    ("Base", "A"),
                    ("Base", "C"),
                    ("A", "T"),
                    ("C", "T"),
                    ("T", "All"),
                ],
            ),
            ["C -> T"],
        )
        flipping = "Base -> A"  # False originally...
        untouched = "C -> T"
        assert not is_implied(schema, flipping, cache=None)

        with running_server() as server:
            with _client(server) as editor:
                fp = editor.load_schema(schema)
                editor.implies(fp, flipping)
                editor.implies(fp, untouched)

                stop = threading.Event()
                observed = []
                errors = []

                def reader():
                    try:
                        with _client(server) as client:
                            while not stop.is_set():
                                response = client.implies(fp, flipping)
                                observed.append(response["verdict"])
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=reader) for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                time.sleep(0.05)
                edited = editor.edit(
                    fp, "add-constraint", constraint=flipping
                )
                assert edited["status"] == "ok"
                new_fp = edited["fingerprint"]
                assert new_fp != fp
                time.sleep(0.05)
                stop.set()
                for thread in threads:
                    thread.join(30)
                assert not errors

                # ...True under the edited schema; the readers queried
                # the OLD fingerprint throughout, so every observation
                # must be the old schema's verdict - an edit never makes
                # a registered fingerprint lie.
                assert observed and all(v is False for v in observed)
                assert editor.implies(new_fp, flipping)["verdict"] is True
                assert editor.implies(fp, flipping)["verdict"] is False

                # The delta-scoped rekey carried the untouched verdict
                # to the new fingerprint: warm hit, no recompute.
                cache = server.cache
                misses_before = cache.stats.misses
                response = editor.implies(new_fp, untouched)
                assert response["verdict"] is True
                assert cache.stats.misses == misses_before

    def test_implied_edit_keeps_the_tenant_warm_and_is_counted(self):
        """On the compiled engine (the ``serve`` default), an added
        constraint the schema implies keeps the instances: every warm
        verdict answers on the new fingerprint without a miss, and the
        stats op counts the edit; a non-implied add is not counted."""
        from repro.core.compile import CompiledDecisionEngine
        from repro.core.hierarchy import HierarchySchema
        from repro.core.schema import DimensionSchema

        schema = DimensionSchema(
            HierarchySchema(
                ["Base", "A", "C", "T"],
                [("Base", "A"), ("Base", "C"), ("A", "T"), ("C", "T"), ("T", "All")],
            ),
            ["C -> T"],
        )
        queries = ["Base -> A", "Base -> C", "A -> T", "C -> T"]
        engine = ResilientDecisionEngine(
            CompiledDecisionEngine(cache=DecisionCache())
        )
        with running_server(engine=engine) as server:
            with _client(server) as client:
                fp = client.load_schema(schema)
                for query in queries:
                    client.implies(fp, query)
                before = client.stats()["maintenance"]
                edited = client.edit(
                    fp, "add-constraint", constraint="Base -> C or Base -> A"
                )
                new_fp = edited["fingerprint"]
                misses = server.cache.stats.misses
                for query in queries:
                    truth = is_implied(
                        schema.with_constraints(["Base -> C or Base -> A"]),
                        query,
                        cache=None,
                    )
                    assert client.implies(new_fp, query)["verdict"] is truth
                assert server.cache.stats.misses == misses
                after = client.stats()["maintenance"]
                assert after["model_preserving_edits"] == (
                    before["model_preserving_edits"] + 1
                )
                assert after["edit_decision_fallbacks"] == (
                    before["edit_decision_fallbacks"]
                )
                client.edit(new_fp, "add-constraint", constraint="Base -> A")
                assert client.stats()["maintenance"] == after


class TestMetricsSurfaces:
    """One count per event: the stats op, ``DecisionCache.report()``,
    the registry snapshot and its Prometheus rendering read the same
    server, decision-cache, resilience and compiled-tier counts."""

    #: stats-op payload path -> registry counter.
    SURFACES = {
        ("requests",): "server.requests",
        ("busy_responses",): "server.busy_responses",
        ("errors",): "server.errors",
        ("inline_hits",): "server.inline_hits",
        ("connections_total",): "server.connections_opened",
        **{
            ("cache", field): f"decision_cache.{field}"
            for field in (
                "hits", "misses", "evictions", "invalidations",
                "store_failures", "rekeyed", "self_evictions",
            )
        },
        **{
            ("resilience", field): f"resilience.{field}"
            for field in (
                "decisions", "retries", "degraded_sequential", "unknown_verdicts",
            )
        },
        ("engine", "fallbacks"): "compiled.fallbacks",
        **{
            ("engine", "artifacts", field): f"compiled.artifact_{field}"
            for field in ("hits", "misses", "compile_failures")
        },
    }

    @staticmethod
    def _read(payload, path):
        for key in path:
            payload = payload[key]
        return payload

    @staticmethod
    def _prometheus(snapshot):
        from repro.core.telemetry import render_prometheus

        samples = {}
        for line in render_prometheus(snapshot).splitlines():
            if not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        return samples

    @staticmethod
    def _report_blocks(report):
        blocks, block = {}, None
        for line in report.splitlines():
            if not line.startswith(" "):
                block = blocks.setdefault(line.rstrip(":"), {})
                continue
            label, value = line.strip().rsplit(None, 1)
            if not value.endswith("%"):
                block[label] = int(value)
        return blocks

    def test_every_surface_reads_the_same_counts(self):
        from repro.core.hierarchy import HierarchySchema
        from repro.core.metrics import METRICS
        from repro.core.schema import DimensionSchema

        schema = DimensionSchema(
            HierarchySchema(
                ["Leaf", "P", "Q", "Top"],
                [("Leaf", "P"), ("Leaf", "Q"), ("P", "Top"), ("Q", "Top"),
                 ("Top", "All")],
            ),
            ["Q -> Top"],
        )
        queries = ["Leaf -> P", "Leaf -> Q", "P -> Top", "Q -> Top"]
        weakening = "Leaf -> Q or Leaf -> P"
        engine = ResilientDecisionEngine(
            CompiledDecisionEngine(cache=DecisionCache())
        )
        with running_server(engine=engine) as server, _client(server) as client:
            fp = client.load_schema(schema)
            first, registry_first = client.stats(), METRICS.snapshot()
            for _ in range(3):  # misses, then repeated hits
                for query in queries:
                    client.implies(fp, query)
            client.implies(fp, weakening)
            new_fp = client.edit(fp, "add-constraint", constraint=weakening)[
                "fingerprint"
            ]
            for query in queries:
                client.implies(new_fp, query)
            last, registry_last = client.stats(), METRICS.snapshot()
            report = self._report_blocks(server.cache.report())

        deltas = {
            path: self._read(last, path) - self._read(first, path)
            for path in self.SURFACES
        }
        assert deltas[("cache", "misses")] == len(queries) + 1
        assert deltas[("cache", "hits")] >= 3 * len(queries)
        assert deltas[("cache", "rekeyed")] == len(queries) + 1
        assert deltas[("inline_hits",)] > 0
        assert deltas[("engine", "artifacts", "misses")] == 1
        prom_first = self._prometheus(registry_first)
        prom_last = self._prometheus(registry_last)
        for path, name in self.SURFACES.items():
            registry = (
                registry_last["counters"][name]
                - registry_first["counters"][name]
            )
            prom = "repro_" + name.replace(".", "_")
            assert registry == deltas[path], name
            assert prom_last[prom] - prom_first[prom] == deltas[path], name
        for label, count in report["decision cache"].items():
            if label != "entries":
                field = label.replace("-", "_").replace(" ", "_")
                assert last["cache"][field] == count, label
        artifacts = report["compiled artifacts"]
        assert last["engine"]["artifacts"] == {
            "hits": artifacts["hits"],
            "misses": artifacts["misses"],
            "compile_failures": artifacts["compile fails"],
        }


class _AuditRecords:
    """An in-memory audit sink."""

    def __init__(self):
        self.records = []

    def export_audit(self, record):
        self.records.append(record)

    def export_schema(self, fingerprint, schema_json):
        pass


@contextmanager
def executor_submissions(server):
    """The ops ``server`` hands its executor while the block runs."""
    submitted = []
    submit = server._executor.submit

    def counting(fn, *args, **kwargs):
        submitted.append(args[0])
        return submit(fn, *args, **kwargs)

    server._executor.submit = counting
    try:
        yield submitted
    finally:
        del server._executor.submit


#: One request per single-decision op, as ``(op, payload)``.
SINGLE_DECISIONS = [
    ("implies", {"constraint": "Store.City"}),
    ("implies", {"constraint": "Store.SaleRegion"}),
    ("summarizable", {"target": "Country", "sources": ["SaleRegion", "City"]}),
    ("decide", {"request": ["dimsat", "Store"]}),
    ("decide", {"request": ["implies", "City.Country"]}),
]


class TestInlineHits:
    """A verdict the cache holds is answered on the event loop, by the
    same code an executor thread runs; everything else takes the
    executor."""

    @pytest.mark.parametrize("op, payload", SINGLE_DECISIONS)
    def test_primed_decision_is_answered_without_the_executor(
        self, loc_schema, op, payload
    ):
        sink = _AuditRecords()
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                cold = client.call(op, fingerprint=fp, **payload)
                assert cold["status"] == "ok", cold
                inline_before = client.stats()["inline_hits"]
                AUDIT.attach(sink)
                TRACER.enable()
                TRACER.clear()
                try:
                    with executor_submissions(server) as submitted:
                        warm = client.call(op, fingerprint=fp, **payload)
                    spans = [
                        s for s in TRACER.spans() if s["name"] == "server.request"
                    ]
                finally:
                    TRACER.disable()
                    TRACER.clear()
                    AUDIT.detach()
                inline_after = client.stats()["inline_hits"]
        assert submitted == []
        assert warm == cold
        assert [r["cache_hit"] for r in sink.records] == [True]
        assert [s["attrs"] for s in spans] == [{"op": op, "status": "ok"}]
        assert inline_after - inline_before == 1

    def test_misses_and_unanswerable_requests_take_the_executor(
        self, loc_schema
    ):
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                client.implies(fp, "Store.City")
                client.navigate(fp, "Country", ["City", "SaleRegion"])
                breaker = server.engine.breaker
                requests = [
                    ("implies", {"fingerprint": fp, "constraint": "State.Country"}),
                    ("navigate", {
                        "fingerprint": fp,
                        "target": "Country",
                        "materialized": ["City", "SaleRegion"],
                    }),
                    ("load-schema", {"schema_json": schema_to_json(loc_schema)}),
                    ("implies", {"fingerprint": fp, "constraint": "Store.("}),
                    ("implies", {"fingerprint": "0" * 64, "constraint": "Store.City"}),
                ]
                for op, payload in requests:
                    with executor_submissions(server) as submitted:
                        client.call(op, **payload)
                    assert submitted == [op], (op, payload)

                for _ in range(breaker.failure_threshold):
                    breaker.record_failure(fp)
                assert breaker.state(fp) == "open"
                with executor_submissions(server) as submitted:
                    response = client.implies(fp, "Store.City")
                assert submitted == ["implies"]
                assert response["verdict"] is True

                with executor_submissions(server) as submitted:
                    edited = client.edit(
                        fp, "add-constraint", constraint="Store.City"
                    )
                assert edited["status"] == "ok", edited
                assert submitted == ["edit"]

    @pytest.mark.parametrize(
        "op, payload",
        [
            ("implies", {"constraint": "City.State.Country"}),
            ("decide", {"request": ["implies", "City.State.Country"]}),
        ],
    )
    def test_served_implication_is_parsed_once(
        self, loc_schema, monkeypatch, op, payload
    ):
        import repro.core.request as request_module

        parses = []
        parse = request_module.parse

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                monkeypatch.setattr(request_module, "parse", counting_parse)
                for _ in ("miss", "hit"):
                    del parses[:]
                    response = client.call(op, fingerprint=fp, **payload)
                    assert response["status"] == "ok", response
                    assert parses == ["City.State.Country"]

    def test_key_cleared_after_the_check_is_computed_inline(self, loc_schema):
        """The check-to-lookup race: a key reported held but gone by the
        lookup is decided on the loop, and the verdict is still the
        uncached kernel's."""
        constraint = "Store.SaleRegion"
        with running_server() as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                cold = client.implies(fp, constraint)
                would_hit = server.engine.would_hit
                raced = []

                def evicted_after_the_check(schema, request):
                    held = would_hit(schema, request)
                    if held:
                        server.cache.clear()
                        raced.append(request)
                    return held

                server.engine.would_hit = evicted_after_the_check
                with executor_submissions(server) as submitted:
                    warm = client.implies(fp, constraint)
        assert raced and submitted == []
        assert warm == cold
        assert warm["verdict"] == is_implied(loc_schema, constraint, cache=None)
        assert len(server.cache) == 1


class TestLifecycleAndPersistence:
    def test_ephemeral_port_is_assigned(self):
        with running_server(port=0) as server:
            assert server.port and server.port > 0

    def test_shutdown_op_acks_then_stops(self, loc_schema):
        server = DecisionServer(engine=_engine())
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10)
        with _client(server) as client:
            ack = client.shutdown()
            assert ack["status"] == "ok" and ack["stopping"] is True
        thread.join(10)
        assert not thread.is_alive()
        with pytest.raises((ServerClosed, OSError)):
            DecisionClient(server.host, server.port, timeout=2).stats()

    def test_warm_state_survives_a_restart(self, loc_schema, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with running_server(cache_dir=cache_dir) as server:
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                for constraint in IMPLIES_WORKLOAD:
                    client.implies(fp, constraint)
        # running_server's exit path is the graceful stop: cache saved.

        with running_server(cache_dir=cache_dir) as server:
            cache = server.cache
            assert len(cache) >= len(IMPLIES_WORKLOAD)
            with _client(server) as client:
                fp = client.load_schema(loc_schema)
                misses_before = cache.stats.misses
                for constraint in IMPLIES_WORKLOAD:
                    response = client.implies(fp, constraint)
                    assert response["verdict"] == is_implied(
                        loc_schema, constraint, cache=None
                    )
                assert cache.stats.misses == misses_before

    def test_request_shutdown_from_another_thread_persists(
        self, loc_schema, tmp_path
    ):
        """The signal path: request_shutdown called off-loop (exactly
        what the SIGINT handler does) still lands the cache on disk."""
        cache_dir = str(tmp_path / "cache")
        server = DecisionServer(engine=_engine(), cache_dir=cache_dir)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10)
        with _client(server) as client:
            fp = client.load_schema(loc_schema)
            client.implies(fp, "Store.City")
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive()
        assert (tmp_path / "cache" / "decisions.cache").exists()

    def test_decision_ops_are_the_gated_subset(self):
        assert set(DECISION_OPS) < set(ALL_OPS)
        for op in ("load-schema", "edit", "stats", "shutdown"):
            assert op not in DECISION_OPS
