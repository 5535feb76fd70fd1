"""CLI tests: every subcommand, exit codes, and error paths."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.generators.location import location_instance, location_schema
from repro.io import instance_to_dict, schema_to_json


@pytest.fixture()
def schema_file(tmp_path):
    path = tmp_path / "location.json"
    path.write_text(schema_to_json(location_schema()))
    return str(path)


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_dict(location_instance())))
    return str(path)


class TestAudit:
    def test_clean_schema_exits_zero(self, schema_file, capsys):
        assert main(["audit", schema_file]) == 0
        out = capsys.readouterr().out
        assert "ok   Store" in out

    def test_dead_category_exits_one(self, tmp_path, capsys):
        schema = location_schema().with_constraints(
            ["not SaleRegion -> Country"]
        )
        path = tmp_path / "broken.json"
        path.write_text(schema_to_json(schema))
        assert main(["audit", str(path)]) == 1
        assert "DEAD" in capsys.readouterr().out

    def test_undecidable_categories_print_unkn_and_exit_four(
        self, schema_file, capsys
    ):
        from repro.core import default_decision_cache

        default_decision_cache().clear()
        argv = ["--retries", "2", "--inject-faults", "worker-crash:p=1.0;seed=1"]
        assert main([*argv, "audit", schema_file]) == 4
        lines = capsys.readouterr().out.splitlines()
        categories = sorted(location_schema().hierarchy.categories - {"All"})
        for category in categories:
            assert f"UNKN  {category}" in lines
        assert "ok   All" in lines
        assert f"{len(categories)} categories could not be decided" in lines[-1]

    def test_injected_fault_without_retries_raises_out_of_the_audit(
        self, schema_file, capsys
    ):
        from repro.core import default_decision_cache

        default_decision_cache().clear()
        argv = ["--inject-faults", "worker-crash:p=1.0;seed=1"]
        assert main([*argv, "audit", schema_file]) == 4
        captured = capsys.readouterr()
        assert "UNKN" not in captured.out
        assert "injected fault" in captured.err


class TestImplies:
    def test_implied(self, schema_file, capsys):
        assert main(["implies", schema_file, "Store -> City"]) == 0
        assert "implied" in capsys.readouterr().out

    def test_not_implied_shows_counterexample(self, schema_file, capsys):
        assert main(["implies", schema_file, "Store.Province.Country"]) == 1
        out = capsys.readouterr().out
        assert "not implied" in out
        assert "counterexample" in out

    def test_bad_constraint_is_an_error(self, schema_file, capsys):
        assert main(["implies", schema_file, "Store -> "]) == 2
        assert "error" in capsys.readouterr().err


class TestSummarizable:
    def test_yes(self, schema_file, capsys):
        code = main(["summarizable", schema_file, "Country", "City"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_no(self, schema_file, capsys):
        code = main(
            ["summarizable", schema_file, "Country", "State", "Province"]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "no"


class TestFrozen:
    def test_lists_four(self, schema_file, capsys):
        assert main(["frozen", schema_file, "Store"]) == 0
        out = capsys.readouterr().out
        assert out.count("f") >= 4
        assert "Country=Canada" in out

    def test_dot_output(self, schema_file, capsys):
        assert main(["frozen", schema_file, "Store", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_unsatisfiable_root(self, tmp_path, capsys):
        schema = location_schema().with_constraints(["not Store -> City"])
        path = tmp_path / "broken.json"
        path.write_text(schema_to_json(schema))
        assert main(["frozen", str(path), "Store"]) == 1


class TestValidate:
    def test_valid_instance(self, schema_file, instance_file, capsys):
        assert main(["validate", schema_file, instance_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_instance_without_hierarchy_uses_schema(
        self, schema_file, tmp_path, capsys
    ):
        document = instance_to_dict(location_instance())
        del document["hierarchy"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(document))
        assert main(["validate", schema_file, str(path)]) == 0

    def test_constraint_violation_reported(self, schema_file, tmp_path, capsys):
        document = instance_to_dict(location_instance())
        document["edges"] = [
            edge for edge in document["edges"] if edge != ["s1", "Toronto"]
        ]
        document["edges"].append(["s1", "SR-North"])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        assert main(["validate", schema_file, str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_structural_violation_reported(self, schema_file, tmp_path, capsys):
        document = instance_to_dict(location_instance())
        document["edges"] = [
            edge for edge in document["edges"] if edge[0] != "s1"
        ]  # s1 loses all parents: (C7)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        assert main(["validate", schema_file, str(path)]) == 1


class TestOther:
    def test_dot(self, schema_file, capsys):
        assert main(["dot", schema_file]) == 0
        assert '"Store" -> "City";' in capsys.readouterr().out

    def test_satisfiable(self, schema_file, capsys):
        assert main(["satisfiable", schema_file, "Store"]) == 0
        assert "satisfiable" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["audit", "/nonexistent/schema.json"]) == 2

    def test_module_entry_point(self, schema_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "audit", schema_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "Store" in proc.stdout


class TestExplain:
    def test_positive(self, schema_file, capsys):
        assert main(["explain", schema_file, "Country", "City"]) == 0
        assert "summarizable" in capsys.readouterr().out

    def test_negative_with_evidence(self, schema_file, capsys):
        code = main(["explain", schema_file, "Country", "State", "Province"])
        assert code == 1
        out = capsys.readouterr().out
        assert "NOT summarizable" in out
        assert "LOST" in out
        assert "Washington" in out


class TestShow:
    def test_schema_tree(self, schema_file, capsys):
        assert main(["show", schema_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("All")
        assert "constraints:" in out
        assert "Store -> City" in out

    def test_schema_and_instance(self, schema_file, instance_file, capsys):
        assert main(["show", schema_file, instance_file]) == 0
        out = capsys.readouterr().out
        assert "all [All]" in out
        assert "Toronto" in out


class TestStats:
    def test_stats_report(self, schema_file, capsys):
        assert main(["stats", schema_file]) == 0
        out = capsys.readouterr().out
        assert "categories (N):" in out
        assert "Store: satisfiable" in out


class TestNormalize:
    def test_emits_equivalent_schema(self, tmp_path, capsys):
        from repro.core.normalize import schemas_equivalent
        from repro.io import schema_from_json

        doubled = location_schema().with_constraints(["Store -> City"])
        path = tmp_path / "doubled.json"
        path.write_text(schema_to_json(doubled))
        assert main(["normalize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "dropped (redundant)" in captured.err
        assert "declared implied into" in captured.err
        rebuilt = schema_from_json(captured.out)
        assert schemas_equivalent(rebuilt, doubled)


class TestReport:
    def test_markdown_report(self, schema_file, capsys):
        assert main(["report", schema_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Dimension schema report")
        assert "## Safe aggregation" in out

    def test_report_with_explicit_root(self, schema_file, capsys):
        assert main(["report", schema_file, "--root", "City"]) == 0
        assert "root: City" in capsys.readouterr().out


class TestCacheStats:
    def test_stats_printed_to_stderr_after_command(self, schema_file, capsys):
        assert main(["--cache-stats", "implies", schema_file, "Store -> City"]) == 0
        captured = capsys.readouterr()
        assert "implied" in captured.out
        assert "decision cache:" in captured.err
        assert "circle-operator cache:" in captured.err
        assert "hit rate" in captured.err

    def test_flag_off_prints_nothing_extra(self, schema_file, capsys):
        assert main(["implies", schema_file, "Store -> City"]) == 0
        assert "decision cache:" not in capsys.readouterr().err

    def test_stats_printed_even_on_errors(self, schema_file, capsys):
        assert main(["--cache-stats", "implies", schema_file, "Store -> "]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "decision cache:" in captured.err


class TestCacheDir:
    @pytest.fixture(autouse=True)
    def _clean_default_cache(self):
        from repro.core import default_decision_cache

        default_decision_cache().clear()
        yield
        default_decision_cache().clear()

    def test_cache_persists_across_invocations(
        self, schema_file, tmp_path, capsys
    ):
        from repro.core import default_decision_cache

        cache_dir = str(tmp_path / "cache")
        assert (
            main(["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"])
            == 0
        )
        import os

        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))
        # Second process (simulated by clearing the in-memory cache):
        # the verdict loads from disk, replay-verifies, and serves as a
        # hit without recomputation.
        default_decision_cache().clear()
        capsys.readouterr()
        assert (
            main(["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"])
            == 0
        )
        captured = capsys.readouterr()
        assert "cache-load:" in captured.err
        assert default_decision_cache().stats.hits >= 1
        assert default_decision_cache().stats.misses == 0

    def test_corrupt_cache_warns_and_runs_cold(
        self, schema_file, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "decisions.cache").write_bytes(b"\x00garbage\n")
        assert (
            main(
                ["--cache-dir", str(cache_dir), "implies", schema_file, "Store -> City"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "warning: ignoring persistent cache" in captured.err
        assert "implied" in captured.out

    @pytest.mark.parametrize("engine", ["compiled", "sequential"])
    def test_round_trip_replays_every_entry(self, engine, schema_file, tmp_path):
        """Every entry an engine files - the per-bottom implications of a
        summarizability check included - replays on load."""
        from repro.core import DecisionCache, default_decision_cache, load_cache

        cache_dir = str(tmp_path / "cache")
        argv = ["--engine", engine, "--cache-dir", cache_dir]
        assert main([*argv, "audit", schema_file]) == 0
        assert main([*argv, "summarizable", schema_file, "Country", "State"]) == 1
        stored = len(default_decision_cache())
        report = load_cache(DecisionCache(), cache_dir)
        assert report.found and report.clean
        assert report.replayed == report.loaded == stored > 6

    def test_previous_format_version_cold_starts(
        self, schema_file, tmp_path, capsys, write_previous_version_store
    ):
        from repro.core import DecisionCache, is_implied, load_cache

        cache_dir = str(tmp_path / "cache")
        warm = DecisionCache()
        is_implied(location_schema(), "Store -> City", cache=warm)
        write_previous_version_store(warm, cache_dir)
        assert (
            main(["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"])
            == 0
        )
        captured = capsys.readouterr()
        assert "warning: ignoring persistent cache" in captured.err
        assert "version" in captured.err
        assert "implied" in captured.out
        # The run saved its verdict in the current format.
        report = load_cache(DecisionCache(), cache_dir)
        assert report.clean and report.replayed == report.loaded >= 1

    def test_missing_dir_is_a_cold_start(self, schema_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "never-created")
        assert (
            main(["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"])
            == 0
        )
        captured = capsys.readouterr()
        assert "cache-load:" not in captured.err  # nothing to load
        import os

        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))


    def test_serve_replays_each_persisted_entry_once(
        self, schema_file, tmp_path, capsys, monkeypatch
    ):
        """``--cache-dir serve`` loads the store once - the server owns the
        load - and still reports it and saves it back on stop."""
        import threading
        import time

        from repro.core import cachestore
        from repro.core.client import DecisionClient
        from repro.core.decisioncache import DecisionCache

        cache_dir = str(tmp_path / "cache")
        assert main(["--cache-dir", cache_dir, "audit", schema_file]) == 0
        stored = cachestore.load_cache(
            DecisionCache(), cache_dir, verify_replay=False
        ).loaded
        assert stored > 0

        loads = []
        load_cache = cachestore.load_cache

        def counting_load(*args, **kwargs):
            report = load_cache(*args, **kwargs)
            loads.append(report.replayed)
            return report

        monkeypatch.setattr(cachestore, "load_cache", counting_load)
        port_file = tmp_path / "port"
        exit_codes = []
        server = threading.Thread(
            target=lambda: exit_codes.append(
                main(
                    [
                        "--cache-dir", cache_dir, "serve", "--port", "0",
                        "--port-file", str(port_file),
                    ]
                )
            )
        )
        server.start()
        deadline = time.monotonic() + 30
        while not (port_file.exists() and port_file.read_text().strip()):
            assert time.monotonic() < deadline, "server never wrote its port"
            time.sleep(0.01)
        client = DecisionClient("127.0.0.1", int(port_file.read_text()))
        client.shutdown()
        client.close()
        server.join(timeout=30)
        assert exit_codes == [0]
        assert loads == [stored]
        assert "cache-load:" in capsys.readouterr().err


class TestExitPathPersistence:
    """Every exit path - Ctrl-C, uncaught exceptions, failing telemetry
    teardown - must still land the warm cache on disk."""

    @pytest.fixture(autouse=True)
    def _clean_default_cache(self):
        from repro.core import default_decision_cache

        default_decision_cache().clear()
        yield
        default_decision_cache().clear()

    def test_keyboard_interrupt_still_saves_cache(
        self, schema_file, tmp_path, capsys, monkeypatch
    ):
        import os

        import repro.cli as cli_module

        cache_dir = str(tmp_path / "cache")
        real = cli_module._cmd_implies

        def interrupted(args):
            real(args)  # warms the default cache ...
            raise KeyboardInterrupt  # ... then Ctrl-C lands

        monkeypatch.setattr(cli_module, "_cmd_implies", interrupted)
        code = main(
            ["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"]
        )
        assert code == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))
        # ... and the interrupted run's verdicts replay cleanly.
        from repro.core import DecisionCache, load_cache

        report = load_cache(DecisionCache(), cache_dir)
        assert report.found and report.clean and report.loaded >= 1

    def test_uncaught_exception_still_saves_cache(
        self, schema_file, tmp_path, monkeypatch
    ):
        import os

        import repro.cli as cli_module

        cache_dir = str(tmp_path / "cache")
        real = cli_module._cmd_implies

        def crashing(args):
            real(args)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "_cmd_implies", crashing)
        with pytest.raises(RuntimeError):
            main(
                ["--cache-dir", cache_dir, "implies", schema_file, "Store -> City"]
            )
        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))

    def test_failing_telemetry_finalize_does_not_skip_save(
        self, schema_file, tmp_path, capsys, monkeypatch
    ):
        import os

        import repro.core.telemetry as telemetry_module

        cache_dir = str(tmp_path / "cache")

        # Disk fills up while finalize renders the derived artifacts -
        # after the pipeline has detached from the global tracer, which
        # is where a real write failure lands.
        def failing_render(snapshot):
            raise OSError("disk full")

        monkeypatch.setattr(
            telemetry_module, "render_prometheus", failing_render
        )
        code = main(
            [
                "--cache-dir",
                cache_dir,
                "--telemetry-dir",
                str(tmp_path / "telemetry"),
                "implies",
                schema_file,
                "Store -> City",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "telemetry not finalized" in captured.err
        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))

    def test_real_sigint_subprocess_lands_cache(self, schema_file, tmp_path):
        """A genuine SIGINT delivered to a separate process mid-command:
        exit code 130, cache file on disk."""
        import os
        import signal
        import subprocess
        import sys
        import time

        cache_dir = str(tmp_path / "cache")
        marker = str(tmp_path / "warm.marker")
        # A driver that warms the cache, signals readiness, then idles
        # inside the command - where Ctrl-C arrives in real usage.
        code = (
            "import sys, time\n"
            "import repro.cli as cli\n"
            "schema, cache_dir, marker = sys.argv[1:4]\n"
            "real = cli._cmd_implies\n"
            "def slow(args):\n"
            "    real(args)\n"
            "    open(marker, 'w').write('warm')\n"
            "    time.sleep(30)\n"
            "    return 0\n"
            "cli._cmd_implies = slow\n"
            "sys.exit(cli.main(['--cache-dir', cache_dir, 'implies',"
            " schema, 'Store -> City']))\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, schema_file, cache_dir, marker],
            env=env,
            cwd="/root/repo",
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(marker):
                assert time.monotonic() < deadline, "driver never warmed up"
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.02)
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "interrupted" in err
        assert os.path.exists(os.path.join(cache_dir, "decisions.cache"))


class TestTrace:
    def test_trace_json_round_trips_the_snapshot(self, schema_file, capsys):
        assert (
            main(["trace", schema_file, "implies", "Store -> City", "--json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        # The document is the tracer snapshot plus the decision header:
        # same keys, JSON-clean spans, and the summary agrees with them.
        from repro.core.trace import tracer

        snapshot_keys = set(tracer().snapshot())
        assert snapshot_keys <= set(document)
        assert document["verdict"] is True
        assert document["decision"] == ["implies", "Store -> City"]
        assert document["dropped_spans"] == 0
        names = [span["name"] for span in document["spans"]]
        assert "implication.decide" in names
        for name, row in document["summary"].items():
            assert row["count"] == names.count(name)

    def test_trace_text_rendering(self, schema_file, capsys):
        assert main(["trace", schema_file, "implies", "Store -> City"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verdict: yes")
        assert "implication.decide" in out
        assert "summary:" in out


class TestTelemetryDir:
    def test_telemetry_dir_exports_and_audit_verify_replays(
        self, schema_file, tmp_path, capsys
    ):
        directory = tmp_path / "telemetry"
        assert (
            main(
                [
                    "--telemetry-dir",
                    str(directory),
                    "implies",
                    schema_file,
                    "Store -> City",
                ]
            )
            == 0
        )
        assert (directory / "MANIFEST.json").exists()
        assert (directory / "audit.jsonl").read_text().strip()
        capsys.readouterr()
        assert main(["audit-verify", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "divergences      0" in out

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--engine", "compiled"], 0),
            (["--engine", "sequential"], 0),
            (["--retries", "2", "--inject-faults", "worker-crash:p=1.0;seed=1"], 4),
        ],
        ids=["compiled", "sequential", "all-unknown"],
    )
    def test_audit_pass_replays_every_record(self, argv, code, schema_file, tmp_path):
        """Every record of an audit pass replays; only UNKNOWN, which
        carries no verdict, is skipped."""
        from repro.core import default_decision_cache
        from repro.core.auditlog import verify_audit_log

        default_decision_cache().clear()
        directory = str(tmp_path / "telemetry")
        assert main([*argv, "--telemetry-dir", directory, "audit", schema_file]) == code
        report = verify_audit_log(directory)
        assert report.ok and report.records > 0
        assert report.verified + report.skipped_unknown == report.records
        assert report.skipped_unknown == (6 if code == 4 else 0)

    def test_audit_verify_flags_a_tampered_log(
        self, schema_file, tmp_path, capsys
    ):
        directory = tmp_path / "telemetry"
        main(
            [
                "--telemetry-dir",
                str(directory),
                "implies",
                schema_file,
                "Store -> City",
            ]
        )
        audit_path = directory / "audit.jsonl"
        records = [
            json.loads(line)
            for line in audit_path.read_text().splitlines()
            if line
        ]
        records[0]["verdict"] = not records[0]["verdict"]
        audit_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        capsys.readouterr()
        assert main(["audit-verify", str(directory)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_audit_verify_refuses_the_active_telemetry_dir(
        self, schema_file, tmp_path, capsys
    ):
        directory = tmp_path / "telemetry"
        main(
            [
                "--telemetry-dir",
                str(directory),
                "implies",
                schema_file,
                "Store -> City",
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "--telemetry-dir",
                    str(directory),
                    "audit-verify",
                    str(directory),
                ]
            )
            == 2
        )
        assert "truncated" in capsys.readouterr().err
        # The guard really did protect the log: it still replays clean.
        assert main(["audit-verify", str(directory)]) == 0

    def test_report_telemetry_renders_the_operator_report(
        self, schema_file, tmp_path, capsys
    ):
        directory = tmp_path / "telemetry"
        main(
            [
                "--telemetry-dir",
                str(directory),
                "implies",
                schema_file,
                "Store -> City",
            ]
        )
        capsys.readouterr()
        assert main(["report", "--telemetry", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report:" in out
        assert "implies" in out

    def test_report_rejects_schema_and_telemetry_together(
        self, schema_file, tmp_path, capsys
    ):
        assert (
            main(["report", schema_file, "--telemetry", str(tmp_path)]) == 2
        )
        assert "not both" in capsys.readouterr().err


class TestWorkersAndBudget:
    """The ``*_with_workers`` cases decide through the batch engine
    (``--engine sequential``)."""

    def test_audit_with_workers(self, schema_file, capsys):
        assert main(["--engine", "sequential", "audit", schema_file]) == 0
        out = capsys.readouterr().out
        assert "ok   Store" in out
        assert "ok   All" in out

    def test_implies_with_workers(self, schema_file, capsys):
        assert (
            main(["--engine", "sequential", "implies", schema_file, "Store -> City"])
            == 0
        )
        assert "implied" in capsys.readouterr().out

    def test_summarizable_with_workers(self, schema_file, capsys):
        assert (
            main(
                [
                    "--engine", "sequential",
                    "summarizable", schema_file, "Country", "City",
                ]
            )
            == 0
        )
        assert "yes" in capsys.readouterr().out

    def test_exhausted_budget_exits_three(self, tmp_path, capsys):
        # A fresh constraint set gives a fresh fingerprint, so the verdict
        # cannot already sit in the process-wide decision cache (a cache
        # hit would legitimately bypass the budget).
        schema = location_schema().with_constraints(["City -> Province"])
        path = tmp_path / "fresh.json"
        path.write_text(schema_to_json(schema))
        assert (
            main(["--budget-ms", "1e-7", "satisfiable", str(path), "Store"]) == 3
        )
        assert "budget exceeded" in capsys.readouterr().err

    def test_exhausted_budget_exits_three_on_each_engine(self, tmp_path, capsys):
        schema = location_schema().with_constraints(["City -> State"])
        path = tmp_path / "fresh.json"
        path.write_text(schema_to_json(schema))
        for engine in ("compiled", "sequential"):
            argv = ["--engine", engine, "--budget-ms", "1e-7"]
            assert main([*argv, "implies", str(path), "Store.Country"]) == 3
            assert "budget exceeded" in capsys.readouterr().err

    def test_generous_budget_is_harmless(self, schema_file, capsys):
        assert (
            main(["--budget-ms", "60000", "satisfiable", schema_file, "Store"]) == 0
        )
        assert "satisfiable" in capsys.readouterr().out


class TestDefaultEngine:
    @pytest.fixture()
    def built(self, monkeypatch):
        """The engines the CLI builds during the test."""
        import repro.cli as cli

        engines = []

        def recording_build_engine(*args, **kwargs):
            engine = cli_build_engine(*args, **kwargs)
            engines.append(engine)
            return engine

        cli_build_engine = cli.build_engine
        monkeypatch.setattr(cli, "build_engine", recording_build_engine)
        return engines

    def test_decisions_default_to_the_compiled_engine(
        self, schema_file, built, capsys
    ):
        from repro.core import CompiledDecisionEngine

        assert main(["implies", schema_file, "Store -> City"]) == 0
        assert [type(e) for e in built] == [CompiledDecisionEngine]

    def test_injected_worker_fault_exits_four(self, tmp_path, capsys):
        """The fault drill holds on the default engine: a computed
        decision hits the worker checkpoint, and with nothing to absorb
        the fault the command exits with code 4."""
        schema = location_schema().with_constraints(["City -> Country"])
        path = tmp_path / "fresh.json"
        path.write_text(schema_to_json(schema))
        argv = ["--inject-faults", "worker-crash:p=1.0;seed=1"]
        assert main([*argv, "implies", str(path), "Store.Country"]) == 4
        assert "injected fault" in capsys.readouterr().err

    def test_numeric_schema_falls_back_and_audit_verify_replays(
        self, tmp_path, built, capsys
    ):
        from repro.core import ALL, default_decision_cache, dimsat
        from repro.generators.random_schema import (
            RandomSchemaConfig,
            random_schema,
        )

        schema = random_schema(
            RandomSchemaConfig(
                n_categories=5,
                numeric_fraction=1.0,
                attributed_fraction=1.0,
                equality_constraint_prob=1.0,
                seed=11,
            )
        )
        path = tmp_path / "numeric.json"
        path.write_text(schema_to_json(schema))
        category = sorted(schema.hierarchy.categories - {ALL})[-1]
        default_decision_cache().clear()
        directory = tmp_path / "telemetry"
        code = main(
            ["--telemetry-dir", str(directory), "satisfiable", str(path), category]
        )
        assert code == (0 if dimsat(schema, category).satisfiable else 1)
        (engine,) = built
        assert engine.stats.fallbacks == 1
        capsys.readouterr()
        assert main(["audit-verify", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "divergences      0" in out
