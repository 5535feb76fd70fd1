"""Executable mirror of docs/TUTORIAL.md - every claim the tutorial makes
is asserted here, so the documentation cannot rot silently."""

from __future__ import annotations

import pytest

from repro import (
    DimensionSchema,
    HierarchySchema,
    InstanceBuilder,
    dimsat,
    enumerate_frozen_dimensions,
    implies,
    is_summarizable_in_schema,
)
from repro.olap import OlapEngine


@pytest.fixture(scope="module")
def g():
    return HierarchySchema(
        ["Shipment", "Center", "Gateway", "Region"],
        [
            ("Shipment", "Center"),
            ("Shipment", "Gateway"),
            ("Shipment", "Region"),
            ("Center", "Region"),
            ("Gateway", "Region"),
            ("Region", "All"),
        ],
    )


@pytest.fixture(scope="module")
def ds(g):
    return DimensionSchema(
        g,
        [
            "one(Shipment -> Center, Shipment -> Gateway, Shipment -> Region)",
            "Center -> Region",
            "Gateway -> Region",
            "Shipment -> Region implies Shipment.Region = 'Metro'",
        ],
    )


@pytest.fixture()
def d(g):
    b = InstanceBuilder(g)
    b.member("metro", "Region", name="Metro").member("west", "Region")
    b.member("c1", "Center").link("c1", "west")
    b.member("g1", "Gateway").link("g1", "west")
    b.members("Shipment", "s1", "s2", "s3")
    b.link("s1", "c1").link("s2", "g1").link("s3", "metro")
    return b.freeze()


class TestSection4FrozenDimensions:
    def test_exactly_three_shapes(self, ds):
        frozen = enumerate_frozen_dimensions(ds, "Shipment")
        assert len(frozen) == 3

    def test_courier_shape_pins_metro(self, ds):
        frozen = enumerate_frozen_dimensions(ds, "Shipment")
        courier = [
            f
            for f in frozen
            if ("Shipment", "Region") in f.subhierarchy.edges
        ]
        assert len(courier) == 1
        assert courier[0].name_of("Region") == "Metro"


class TestSection5Questions:
    def test_satisfiability(self, ds):
        assert dimsat(ds, "Gateway").satisfiable

    def test_implications(self, ds):
        assert implies(ds, "Shipment.Region").implied
        assert not implies(ds, "Shipment -> Center").implied

    def test_summarizability_trap(self, ds):
        assert not is_summarizable_in_schema(ds, "Region", ["Center", "Gateway"])

    def test_counterexample_is_the_courier_shape(self, ds):
        result = implies(
            ds,
            "Shipment.Region implies "
            "one(Shipment.Center.Region, Shipment.Gateway.Region)",
        )
        assert not result.implied
        assert result.counterexample.name_of("Region") == "Metro"
        assert ("Shipment", "Region") in result.counterexample.subhierarchy.edges


class TestSection7Navigation:
    def test_navigator_refuses_the_lossy_rewrite(self, ds, d):
        engine = OlapEngine(
            ds,
            d,
            [("s1", {"kg": 12.0}), ("s2", {"kg": 30.0}), ("s3", {"kg": 2.0})],
        )
        assert engine.check_integrity() == []
        engine.materialize("Center", "SUM", "kg")
        engine.materialize("Gateway", "SUM", "kg")
        view, plan = engine.query("Region", "SUM", "kg")
        assert plan.kind == "base-scan"
        assert view.cells == {"west": 42.0, "metro": 2.0}

    def test_shipment_view_enables_rewrite(self, ds, d):
        engine = OlapEngine(
            ds,
            d,
            [("s1", {"kg": 12.0}), ("s2", {"kg": 30.0}), ("s3", {"kg": 2.0})],
        )
        engine.materialize("Shipment", "SUM", "kg")
        _view, plan = engine.query("Region", "SUM", "kg")
        assert plan.kind == "rewritten"


class TestSection10BatchedDecisions:
    def test_batch_dedups_and_decides_on_the_calling_thread(self, ds):
        """'requests are deduplicated by schema fingerprint and canonical
        query, each unique one is decided once' and 'The engine decides
        on the calling thread.'"""
        import threading

        from repro.core import (
            DecisionBudget,
            DecisionCache,
            ParallelDecisionEngine,
            decide_many,
        )

        before = {t.ident for t in threading.enumerate()}
        engine = ParallelDecisionEngine(
            budget=DecisionBudget(time_ms=500), cache=DecisionCache()
        )
        verdicts = decide_many(engine, [
            (ds, ("dimsat", "Shipment")),
            (ds, ("implies", "Shipment -> Region")),
            (ds, ("summarizable", "Region", ["Center", "Gateway"])),
            (ds, ("dimsat", "Shipment")),
        ])
        # Three unique requests, each decided once.
        assert engine.stats.decisions == 3
        assert verdicts == [
            True,
            implies(ds, "Shipment -> Region").implied,
            is_summarizable_in_schema(ds, "Region", ["Center", "Gateway"]),
            True,
        ]
        assert {t.ident for t in threading.enumerate()} <= before

    def test_compiled_is_the_default_and_budgets_bind_either_engine(self, ds):
        """'`--engine compiled` (the default) is the compiled tier of §14'
        and '`--budget-ms` caps each decision's wall clock on either
        engine'."""
        from repro.core import CompiledDecisionEngine, DecisionBudget, build_engine
        from repro.core.resilience import ENGINE_NAMES
        from repro.errors import BudgetExceeded

        assert isinstance(build_engine(), CompiledDecisionEngine)
        for name in ENGINE_NAMES:
            engine = build_engine(
                name, budget=DecisionBudget(time_ms=1e-7), cache=None
            )
            with pytest.raises(BudgetExceeded):
                engine.dimsat(ds, "Shipment")

    def test_metrics_table_names_live_metrics(self, ds):
        """The engine and budget rows of the Section 11 metrics table."""
        from repro.core import (
            DecisionBudget,
            DecisionCache,
            ParallelDecisionEngine,
            try_decide_many,
        )
        from repro.core.metrics import metrics_registry

        engine = ParallelDecisionEngine(
            budget=DecisionBudget(max_nodes=0), cache=DecisionCache()
        )
        try_decide_many(engine, [(ds, ("dimsat", "Shipment"))] * 2)
        counters = metrics_registry().snapshot()["counters"]
        for name in ("engine.batch_deduped", "budget.exceeded"):
            assert name in counters
        for gone in ("engine.tasks_cancelled", "engine.tasks_dispatched",
                     "budget.cancelled"):
            assert gone not in counters

    def test_every_counter_row_is_exported(self):
        """Every counter the Section 11 metrics table names is in the
        snapshot; ``.field`` / ``_field`` abbreviate the row's first
        name."""
        from pathlib import Path

        import repro.olap.navigator  # noqa: F401 - declares navigator.*
        from repro.core.metrics import metrics_registry

        tutorial = Path(__file__).resolve().parents[1] / "docs" / "TUTORIAL.md"
        names = []
        for line in tutorial.read_text().splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) != 3 or cells[1] != "counter":
                continue
            first = None
            for part in cells[0].replace(",", "/").split("/"):
                name = part.strip().strip("`")
                if first is None or name[0] not in "._":
                    first = name
                elif name[0] == ".":
                    name = first.rsplit(".", 1)[0] + name
                else:
                    name = first.rsplit("_", 1)[0] + name
                names.append(name)
        assert len(names) >= 40
        counters = metrics_registry().snapshot()["counters"]
        assert [name for name in names if name not in counters] == []


class TestSection11Observability:
    def test_traced_decision_records_the_documented_spans(self, ds):
        from repro.core.trace import tracer, tracing

        with tracing():
            assert dimsat(ds, "Shipment").satisfiable
            document = tracer().snapshot()
        names = {span["name"] for span in document["spans"]}
        assert "dimsat.decide" in names
        assert "dimsat.check" in names
        assert set(document) >= {"spans", "events", "summary"}
        summary = document["summary"]["dimsat.decide"]
        assert set(summary) == {"count", "total_ms", "max_ms"}

    def test_tracer_is_off_by_default_and_restored(self):
        from repro.core.trace import tracer, tracing

        assert tracer().enabled is False
        with tracing():
            assert tracer().enabled is True
        assert tracer().enabled is False

    def test_metrics_registry_snapshot_shape(self, ds):
        from repro.core.metrics import metrics_registry

        before = metrics_registry().counter("dimsat.decisions").value
        dimsat(ds, "Gateway")
        snapshot = metrics_registry().snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["dimsat.decisions"] == before + 1


class TestSection12Resilience:
    def test_the_ladder_snippet(self, ds):
        """The Section 12 snippet: `build_engine(retries=...)` wraps the
        default engine in the ladder, and a healthy decision answers on
        the parallel rung."""
        from repro.core import DecisionCache, ResilientDecisionEngine, build_engine

        engine = build_engine(retries=3, cache=DecisionCache())
        assert isinstance(engine, ResilientDecisionEngine)
        outcome = engine.decide(ds, ("dimsat", "Shipment"))
        assert (outcome.ok, outcome.verdict, outcome.rung) == (True, True, "parallel")

    def test_batch_functions_serve_the_resilient_engine(self, ds):
        """'the batch functions serve a resilient engine as they serve a
        bare one: `decide_many` raises it, and `try_decide_many` puts it
        in the failed request's slot.'"""
        from repro.core import (
            DecisionCache,
            build_engine,
            decide_many,
            inject_faults,
            try_decide_many,
        )
        from repro.errors import DecisionUnavailable

        engine = build_engine(retries=1, cache=DecisionCache())
        assert engine.dimsat(ds, "Shipment").satisfiable
        batch = [(ds, ("dimsat", "Shipment")), (ds, ("dimsat", "Center"))]
        with inject_faults("worker-crash:p=1"):
            cached, failed = try_decide_many(engine, batch)
            with pytest.raises(DecisionUnavailable):
                decide_many(engine, batch)
        assert cached is True
        assert isinstance(failed, DecisionUnavailable)


class TestSection9OrderPredicates:
    def test_weight_rule(self, g):
        ds2 = DimensionSchema(
            g,
            [
                "one(Shipment -> Center, Shipment -> Gateway, Shipment -> Region)",
                "Center -> Region",
                "Gateway -> Region",
                "Shipment >= 30 implies not Shipment -> Region",
            ],
        )
        assert implies(ds2, "Shipment -> Region implies Shipment < 30").implied
        assert not implies(ds2, "Shipment -> Center implies Shipment < 30").implied


class TestSection13AuditLog:
    def test_records_carry_the_documented_fields(self, ds):
        """The sample record: a served verdict is recorded under its
        request alone, with no options slot."""
        import json
        from pathlib import Path

        from repro.core import DecisionCache, decide
        from repro.core.auditlog import AUDIT

        text = (Path(__file__).parents[1] / "docs" / "TUTORIAL.md").read_text()
        start = text.index('{"seq": 1')
        documented = json.loads(text[start : text.index("}", start) + 1])

        records = []

        class Sink:
            def export_audit(self, record):
                records.append(record)

            def export_schema(self, fingerprint, schema_json):
                pass

        AUDIT.attach(Sink())
        try:
            decide(ds, ("implies", "Center -> Region"), cache=DecisionCache())
        finally:
            AUDIT.detach()
        (record,) = records
        assert set(record) == set(documented)
        assert record["request"] == ["implies", "Center -> Region"]


class TestSection15Soak:
    def test_soak_claims(self):
        from repro.core.soak import SoakConfig, run_soak
        from repro.generators.adversarial import adversarial_corpus

        # "adversarial_corpus(seed=0) rebuilds the exact same schemas
        # every time"
        one = adversarial_corpus(seed=0)
        two = adversarial_corpus(seed=0)
        assert [c.schema.fingerprint() for c in one] == [
            c.schema.fingerprint() for c in two
        ]
        # A short soak over the compiled engine stays clean: zero wrong
        # verdicts, zero invariant violations (UNKNOWN would be allowed).
        report = run_soak(
            SoakConfig(
                engine="compiled", seconds=600.0, max_steps=16, seed=0
            )
        )
        assert report.ok
        assert report.wrong_verdicts == 0


class TestSection16SurvivingEdits:
    def test_unrelated_edit_rekeys_instead_of_flushing(self, ds):
        """'An implied add or drop keeps the set of instances, so every
        verdict moves to the new fingerprint - same verdict object, zero
        recomputation - together with the edit's own implication
        verdict and the compiled artifact.'"""
        from repro.core import compiled_artifact_store, decide
        from repro.core.decisioncache import DecisionCache
        from repro.olap.maintenance import SchemaEditor

        cache = DecisionCache()
        warm = decide(ds, ("dimsat", "Center"), cache=cache)  # cone: Center, Region, All
        compiled_artifact_store().get(ds)  # held, as a server holds it
        editor = SchemaEditor(ds, cache)
        edited = editor.add_constraint(
            "Shipment -> Gateway implies Shipment -> Gateway"
        )
        assert editor.last_edit_preserved_models
        assert not cache.holds(ds.fingerprint())
        assert not compiled_artifact_store().holds(ds.fingerprint())
        assert compiled_artifact_store().holds(edited.fingerprint())
        # The warm verdict and the edit's own implication verdict.
        assert cache.stats.rekeyed == 2
        # The same object: a hit, not a redo.
        assert decide(edited, ("dimsat", "Center"), cache=cache) is warm

    def test_non_implied_edit_drops_only_touched_cones(self, ds):
        """'Any other edit moves only the verdicts whose dependency cone
        it never touched; the touched cones drop.'"""
        from repro.core import compiled_artifact_store, decide
        from repro.core.decisioncache import DecisionCache
        from repro.olap.maintenance import SchemaEditor

        cache = DecisionCache()
        warm = decide(ds, ("dimsat", "Center"), cache=cache)  # cone: Center, Region, All
        decide(ds, ("dimsat", "Shipment"), cache=cache)  # cone: every category
        compiled_artifact_store().get(ds)  # the edit decides, and hears "no"
        editor = SchemaEditor(ds, cache)
        edited = editor.add_constraint("Shipment -> Gateway")
        assert not editor.last_edit_preserved_models
        assert not cache.holds(ds.fingerprint())
        assert cache.stats.rekeyed == 1
        assert decide(edited, ("dimsat", "Center"), cache=cache) is warm
        hits = cache.stats.hits
        decide(edited, ("dimsat", "Shipment"), cache=cache)
        assert cache.stats.hits == hits  # recomputed

    def test_persistent_cache_round_trip_replays_clean(self, ds, tmp_path):
        """'On load every entry is replayed through the audit-verify
        machinery before it may serve.'"""
        from repro.core import decide, load_cache, save_cache
        from repro.core.decisioncache import DecisionCache

        cache = DecisionCache()
        decide(ds, ("dimsat", "Shipment"), cache=cache)
        decide(ds, ("implies", "Center -> Region"), cache=cache)
        save_cache(cache, str(tmp_path))

        reloaded = DecisionCache()
        report = load_cache(reloaded, str(tmp_path))
        assert report.found and report.clean
        assert report.replayed == report.loaded == len(cache)
        assert decide(ds, ("implies", "Center -> Region"), cache=reloaded).implied
        assert reloaded.stats.hits == 1


class TestSection17Serving:
    @pytest.fixture()
    def server(self):
        import threading

        from repro.core.decisioncache import DecisionCache
        from repro.core.parallel import ParallelDecisionEngine
        from repro.core.resilience import ResilientDecisionEngine
        from repro.core.server import DecisionServer

        server = DecisionServer(
            engine=ResilientDecisionEngine(
                ParallelDecisionEngine(cache=DecisionCache())
            )
        )
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10)
        yield server
        server.request_shutdown()
        thread.join(10)

    def test_every_client_sees_the_same_warm_cache(self, ds, server):
        """'the first `implies` from any connection pays the search,
        every later one - from *any* connection - is a hit.'"""
        from repro.core.client import DecisionClient

        with DecisionClient(server.host, server.port) as first:
            fp = first.load_schema(ds)
            assert first.implies(fp, "Center -> Region")["verdict"]
        misses_after_first = server.cache.stats.misses
        with DecisionClient(server.host, server.port) as second:
            assert second.implies(fp, "Center -> Region")["verdict"]
        assert server.cache.stats.misses == misses_after_first
        assert server.cache.stats.hits >= 1

    def test_edit_keeps_the_old_tenant_correct(self, ds, server):
        """'the old fingerprint stays registered and *correct* (schemas
        are immutable; an old tenant is served cold, never wrong).'"""
        from repro.core.client import DecisionClient

        with DecisionClient(server.host, server.port) as client:
            fp = client.load_schema(ds)
            assert not client.implies(fp, "Shipment -> Gateway")["verdict"]
            edited = client.edit(
                fp, "add-constraint", constraint="Shipment -> Gateway"
            )
            assert edited["status"] == "ok"
            assert edited["fingerprint"] != fp
            assert client.implies(
                edited["fingerprint"], "Shipment -> Gateway"
            )["verdict"]
            assert not client.implies(fp, "Shipment -> Gateway")["verdict"]

    def test_call_exit_codes_mirror_the_single_shot_commands(self):
        """'The exit code mirrors the single-shot commands: 0 for an
        ok/true verdict, 1 for a false one.'  (Asserted end-to-end in
        tests/test_cli.py and tests/core/test_server.py; here we pin the
        documented status set on the wire module.)"""
        from repro.core.wire import STATUSES

        assert STATUSES == (
            "ok", "busy", "unknown", "budget-exceeded", "error"
        )
