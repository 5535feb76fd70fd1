"""The fault-injection harness: spec grammar, determinism, the gate."""

from __future__ import annotations

import pytest

from repro.core.faults import (
    FAULTS,
    CacheStoreFault,
    FaultInjector,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    _draw,
    inject_faults,
    parse_fault_spec,
)


class TestSpecParsing:
    def test_single_clause(self):
        injector = parse_fault_spec("worker-crash")
        assert [r.kind for r in injector.rules] == ["worker-crash"]
        assert injector.rules[0].probability == 1.0
        assert injector.seed == 0

    def test_full_grammar(self):
        injector = parse_fault_spec(
            "worker-crash:p=0.3,after=10,times=5;"
            "slow-worker:delay_ms=2.5;cache-store:p=0.5;seed=42"
        )
        assert injector.seed == 42
        by_kind = {r.kind: r for r in injector.rules}
        assert by_kind["worker-crash"].probability == 0.3
        assert by_kind["worker-crash"].after == 10
        assert by_kind["worker-crash"].max_fires == 5
        assert by_kind["slow-worker"].delay_ms == 2.5
        assert by_kind["cache-store"].probability == 0.5

    def test_seed_as_clause_field(self):
        assert parse_fault_spec("oserror:p=1.0,seed=9").seed == 9

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            ";;",
            "meteor-strike",
            "worker-crash:p=2.0",
            "worker-crash:p=x",
            "worker-crash:bogus=1",
            "worker-crash:p",
            "worker-crash;worker-crash",
            "seed=nope;worker-crash",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_rule_validation(self):
        with pytest.raises(FaultSpecError):
            FaultRule("worker-crash", probability=-0.1)
        with pytest.raises(FaultSpecError):
            FaultRule("worker-crash", after=-1)
        with pytest.raises(FaultSpecError):
            FaultRule("nope")


class TestDeterminism:
    def test_draw_is_pure(self):
        assert _draw(7, "worker-crash", 3) == _draw(7, "worker-crash", 3)
        assert 0.0 <= _draw(7, "worker-crash", 3) < 1.0

    def test_same_seed_same_schedule(self):
        def schedule(seed):
            injector = parse_fault_spec(f"oserror:p=0.4;seed={seed}")
            fired = []
            for index in range(50):
                try:
                    injector.worker()
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)  # astronomically unlikely to tie
        assert any(schedule(11))
        assert not all(schedule(11))

    def test_after_and_times(self):
        injector = parse_fault_spec("worker-crash:p=1.0,after=3,times=2")
        outcomes = []
        for _ in range(10):
            try:
                injector.worker()
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("boom")
        assert outcomes == ["ok"] * 3 + ["boom"] * 2 + ["ok"] * 5
        assert injector.fired() == {"worker-crash": 2}
        assert injector.opportunities() == {"worker-crash": 10}


class TestSites:
    def test_cache_store_fault_type(self):
        injector = parse_fault_spec("cache-store:p=1.0")
        with pytest.raises(CacheStoreFault):
            injector.cache_store()
        injector.worker()  # worker site unaffected

    def test_slow_worker_sleeps_not_raises(self):
        injector = parse_fault_spec("slow-worker:p=1.0,delay_ms=1")
        injector.worker()  # must not raise
        assert injector.fired() == {"slow-worker": 1}


class TestGate:
    def test_gate_inactive_by_default(self):
        assert FAULTS.injector is None
        assert not FAULTS.active
        FAULTS.worker()
        FAULTS.cache_store()  # both no-ops

    def test_context_manager_arms_and_restores(self):
        assert FAULTS.injector is None
        with inject_faults("worker-crash:p=1.0") as injector:
            assert FAULTS.injector is injector
            with pytest.raises(InjectedFault):
                FAULTS.worker()
        assert FAULTS.injector is None

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with inject_faults("worker-crash:p=1.0"):
                raise RuntimeError("boom")
        assert FAULTS.injector is None

    def test_regions_nest(self):
        outer = parse_fault_spec("cache-store:p=1.0")
        inner = parse_fault_spec("worker-crash:p=1.0")
        with inject_faults(outer):
            with inject_faults(inner):
                assert FAULTS.injector is inner
            assert FAULTS.injector is outer
        assert FAULTS.injector is None

    def test_accepts_prebuilt_injector(self):
        injector = FaultInjector([FaultRule("oserror", probability=0.0)], seed=3)
        with inject_faults(injector) as armed:
            assert armed is injector
            FAULTS.worker()  # p=0: never fires
        assert injector.opportunities() == {"oserror": 1}
        assert injector.fired() == {"oserror": 0}
