"""Pinned falsifiers and seeded regression scenarios.

A falsifier hunt (compiled-vs-sequential differential over adversarial
corpus seeds 0-11, every category and constraint probe) found zero live
divergences, so the modules here pin the *scenarios the harness would
have shrunk to* if one appeared: a minimal unsatisfiable schema produced
by ``shrink_schema`` itself, the Theorem 4 unsat encoding, the census
boundary-week construction, and a byte-exact mixed-trace digest.  Each
test states the verdict the stack must keep giving; a fingerprint drift
here means a generator or shrinker changed behaviour under a pinned
seed, which is exactly the silent breakage this directory exists to
catch.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro._types import ALL
from repro.core import DimensionSchema
from repro.core.compile import CompiledDecisionEngine
from repro.core.dimsat import dimsat
from repro.constraints.semantics import satisfies_all
from repro.generators.adversarial import (
    FAMILIES,
    census_time_instance,
    census_time_schema,
    np_boundary_schema,
)
from repro.generators.workloads import mixed_trace
from repro.io.json_io import schema_from_json

DATA = Path(__file__).parent / "data"

#: sha-256 fingerprints pinned at the time the scenario was frozen.
SHRUNK_UNSAT_FINGERPRINT = (
    "74c2b90d73bf52770f06eb049ab731015c6b45ea70a68e5e8c99b3fff8c49891"
)
NP_UNSAT_FINGERPRINT = (
    "5d6e980be300d0b7ee36ed9436ddfb19316bccb0dfbc5e043b46c91aedc6419a"
)
TRACE_880_DIGEST = (
    "5927c57859f76276a90ba304d6554643a25457b42f3976adb1eabc5b6f264f56"
)


class TestShrunkUnsatSchema:
    """``shrink_schema`` output for the seed-42 unsatisfiable injection,
    written by ``write_falsifier`` - the exact artifact shape the soak
    harness emits on a divergence."""

    PATH = DATA / "unsat_bottom_seed42_shrunk.json"

    def _load(self):
        return schema_from_json(self.PATH.read_text())

    def test_artifact_is_pinned(self):
        schema = self._load()
        assert schema.fingerprint() == SHRUNK_UNSAT_FINGERPRINT
        assert len(schema.hierarchy.categories) == 4
        assert len(schema.constraints) == 1

    def test_bottom_stays_unsatisfiable_on_both_engines(self):
        schema = self._load()
        assert not dimsat(schema, "c0").satisfiable
        engine = CompiledDecisionEngine(cache=None)
        assert not engine.dimsat(schema, "c0").satisfiable

    def test_schema_is_one_minimal(self):
        # The shrinker's contract: dropping the single remaining
        # constraint loses the failure.
        schema = self._load()
        relaxed = DimensionSchema(schema.hierarchy, [])
        assert dimsat(relaxed, "c0").satisfiable

    def test_cli_audit_reports_the_dead_category(self, capsys):
        from repro.cli import main

        # Exit 1 is the contract: an unsatisfiable category fails audit.
        assert main(["audit", str(self.PATH)]) == 1
        out = capsys.readouterr().out
        assert "DEAD" in out and "c0" in out


class TestNpBoundaryUnsat:
    """The Theorem 4 encoding of an unsatisfiable 3-CNF: the one corpus
    family whose expected verdict is NO, pinned byte-for-byte."""

    def test_encoding_is_pinned(self):
        schema = np_boundary_schema(n_vars=3, seed=0, unsat=True)
        assert schema.fingerprint() == NP_UNSAT_FINGERPRINT

    def test_verdict_is_unsat_everywhere(self):
        schema = np_boundary_schema(n_vars=3, seed=0, unsat=True)
        assert not dimsat(schema, "v").satisfiable
        engine = CompiledDecisionEngine(cache=None)
        assert not engine.dimsat(schema, "v").satisfiable

    def test_other_categories_stay_alive(self):
        # Unsatisfiability is local to the encoding root: variable
        # categories themselves keep witnesses (Theorem 3 is per
        # category, not per schema).
        schema = np_boundary_schema(n_vars=3, seed=0, unsat=True)
        alive = [
            c
            for c in sorted(schema.hierarchy.categories - {ALL, "v"})
            if dimsat(schema, c).satisfiable
        ]
        assert alive


class TestCensusBoundaryWeek:
    """ISO week 1 of year N+1 starts inside December of year N: the
    time-hierarchy heterogeneity the census generator plants on purpose.
    A 'fix' that makes Week roll up into Month uniformly would pass most
    tests and silently delete the paper's motivating example."""

    def test_boundary_weeks_exist_and_instance_satisfies_schema(self):
        schema = census_time_schema()
        instance = census_time_instance(years=1, start_year=2022, seed=880)
        boundary = [
            m
            for m in instance.all_members()
            if instance.category_of(m) == "Week"
            and instance.name(m) == "boundary"
        ]
        assert boundary
        assert satisfies_all(instance, schema.constraints)


class TestMixedTraceSeed880:
    """Byte-exact pin of a mixed workload trace.  ``mixed_trace`` feeds
    the soak harness; if its op stream drifts under a fixed seed, every
    'deterministic soak' claim silently dies with it."""

    def _trace(self):
        case = FAMILIES["np-boundary"](seed=880)
        return mixed_trace(case.schema, n_ops=60, seed=880)

    def test_trace_digest_is_pinned(self):
        trace = self._trace()
        digest = hashlib.sha256(
            "\n".join(repr(op) for op in trace).encode()
        ).hexdigest()
        assert digest == TRACE_880_DIGEST

    def test_trace_exercises_every_op_kind(self):
        assert {op[0] for op in self._trace()} == {
            "dimsat",
            "implies",
            "summarizable",
            "navigate",
            "edit",
        }
