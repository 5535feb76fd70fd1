"""Command-line interface: schema reasoning without writing Python.

Installed as ``repro-olap`` (see pyproject); also runnable as
``python -m repro.cli``.  Schemas travel as JSON files (the
:mod:`repro.io.json_io` format), instances as JSON or the CSV dimension
format.

Subcommands
-----------

``audit SCHEMA``
    Satisfiability verdict for every category; exit code 1 when some
    category is unsatisfiable.
``implies SCHEMA CONSTRAINT``
    Test ``ds |= constraint``; prints the verdict and, when refuted, the
    counterexample frozen dimension.  Exit code 1 on "not implied".
``summarizable SCHEMA TARGET SOURCE [SOURCE ...]``
    Schema-level summarizability; exit code 1 on "no".
``frozen SCHEMA ROOT [--dot]``
    Enumerate the frozen dimensions with the given root.
``validate SCHEMA INSTANCE``
    Check an instance file against (C1)-(C7) and the schema's
    constraints; exit code 1 on any violation.
``explain SCHEMA TARGET SOURCE [SOURCE ...]``
    Summarizability verdict with evidence (lost / double-counted facts,
    counterexample shape).
``show SCHEMA [INSTANCE]``
    Render the hierarchy (and optionally an instance) as text trees.
``stats SCHEMA``
    Schema metrics (N, N_K, N_SIGMA, heterogeneity, into coverage) and
    realized DIMSAT effort per bottom category.
``normalize SCHEMA``
    Drop redundant constraints, declare implied intos, print the
    normalized schema JSON (diagnostics on stderr).
``satisfiable SCHEMA CATEGORY``
    Satisfiability of one category, with the witness frozen dimension.
``dot SCHEMA``
    Emit the hierarchy as Graphviz DOT.
``trace SCHEMA DECISION ARGS...``
    Re-run one decision (``satisfiable``, ``implies`` or
    ``summarizable``) with the trace layer enabled and print the verdict
    together with every recorded span and event; ``--json`` emits the
    raw trace document instead of the text rendering.
``compile SCHEMA``
    Build the schema's compiled decision artifact (per-root CNF plus the
    incremental SAT solver state) and print its shape; exit code 1 when
    the schema is not compilable (decisions then fall back to the
    interpreted kernel).
``audit-verify LOG``
    Replay a decision audit log (an ``audit.jsonl`` file or the
    telemetry directory containing one) against the sequential kernel
    and fail on any byte-level divergence between recorded and
    recomputed verdicts.  Exit code 1 on divergence.
``report --telemetry DIR``
    Operator report over a telemetry directory: p50/p95/p99 latency per
    decision kind, cache hit rates, resilience counters, top spans.
    (``report SCHEMA`` remains the markdown schema report.)
``soak [--seconds S] [--engine E] [--inject-faults SPEC]``
    Drive the resilient decision stack over the adversarial generator
    corpus (:mod:`repro.generators.adversarial`) with mixed
    decide/navigate/edit traffic, checking metamorphic invariants on
    every step; exit code 1 on any invariant violation or wrong verdict
    (UNKNOWN outcomes are allowed).  ``--falsifier-dir`` shrinks every
    schema-level violation to a minimal loadable falsifier file.

The global ``--emit-metrics PATH`` flag writes a JSON snapshot of the
process-wide metrics registry (counters, gauges, histograms) after any
command, successful or not.

The global ``--telemetry-dir DIR`` flag turns the full export pipeline
on for the command: spans/events stream to ``spans.jsonl`` /
``events.jsonl``, every decision appends to the durable
``audit.jsonl`` log (with the ``schemas.jsonl`` sidecar that makes it
replayable), and on exit the directory gains ``metrics.json``,
``metrics.prom`` (Prometheus text exposition), ``trace.json`` (Chrome
trace-event / Perfetto flamegraph), and a ``MANIFEST.json`` with the
drop counters.  Off, the instrumented hot paths cost one attribute
check.

Every decision subcommand goes through one engine, built by
:func:`~repro.core.resilience.build_engine`.  The default
``--engine compiled`` serves every decision through the per-schema
compiled tier (:mod:`repro.core.compile`): the first decision on a root
pays one compilation, later ones are SAT calls over the artifact with
all previously learned clauses in place, and a schema the tier cannot
compile (numeric categories) falls back to the interpreted kernel.
``--engine sequential`` runs the interpreted kernel on the calling
thread.  ``--budget-ms`` bounds every cold decision on either engine.

Resilience flags: ``--retries N`` serves decisions through the
:class:`~repro.core.resilience.ResilientDecisionEngine` (retry with
backoff, sequential degradation, typed UNKNOWN), and
``--inject-faults SPEC`` activates the deterministic fault harness for
the command (drills and testing; see :mod:`repro.core.faults` for the
spec grammar).  Exit codes: 0 yes/ok, 1 negative verdict, 2 usage or
input error, 3 budget exceeded, 4 decision unavailable (every rung of
the resilience ladder failed, or an injected fault hit an engine without
``--retries``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.constraints.semantics import failures
from repro.core import (
    ALL,
    CompilationError,
    DecisionBudget,
    InjectedFault,
    build_engine,
    compiled_artifact_store,
    dimsat,
    enumerate_frozen_dimensions,
    implies,
    inject_faults,
    is_summarizable_in_schema,
)
from repro.core.parallel import unknown_as_none
from repro.core.resilience import ENGINE_NAMES
from repro.core.schema import DimensionSchema
from repro.errors import BudgetExceeded, DecisionUnavailable, ReproError
from repro.io import (
    frozen_set_to_dot,
    hierarchy_to_dot,
    instance_from_json,
    schema_from_json,
)


def _load_schema(path: str) -> DimensionSchema:
    return schema_from_json(Path(path).read_text())


def _budget_from_args(args: argparse.Namespace) -> Optional[DecisionBudget]:
    ms = getattr(args, "budget_ms", None)
    if ms is None:
        return None
    return DecisionBudget(time_ms=ms)


def _engine_from_args(args: argparse.Namespace):
    """The decision engine ``--engine``/``--budget-ms``/``--retries`` ask
    for (see :func:`~repro.core.resilience.build_engine`).

    ``--retries`` wraps it in a
    :class:`~repro.core.resilience.ResilientDecisionEngine`: transient
    failures are retried with backoff, a persistently failing engine
    degrades to the sequential kernel, and a decision no rung can serve
    exits with code 4 instead of a traceback.  Without it the engine is
    bare, so a blown ``--budget-ms`` exits with code 3.  Without
    ``--engine``, ``build_engine`` picks its default.
    """
    name = getattr(args, "engine", None)
    return build_engine(
        **({} if name is None else {"name": name}),
        budget=_budget_from_args(args),
        retries=getattr(args, "retries", None),
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    categories = [c for c in sorted(schema.hierarchy.categories) if c != ALL]
    requests = [(schema, ("dimsat", c)) for c in categories]
    with _engine_from_args(args) as engine:
        # A category no resilience rung could decide shows as UNKN instead
        # of killing the audit; any other failure raises.
        verdicts = unknown_as_none(engine.try_decide_many(requests))
    report = dict(zip(categories, verdicts))
    report[ALL] = True
    bad = unknown = 0
    for category, satisfiable in sorted(report.items()):
        if satisfiable is None:
            marker = "UNKN"
            unknown += 1
        elif satisfiable:
            marker = "ok "
        else:
            marker = "DEAD"
            bad += 1
        print(f"{marker}  {category}")
    if bad:
        print(f"{bad} unsatisfiable categor{'y' if bad == 1 else 'ies'}")
    if unknown:
        print(
            f"{unknown} categor{'y' if unknown == 1 else 'ies'} could not "
            "be decided (see exit code 4)"
        )
        return 4
    return 1 if bad else 0


def _cmd_implies(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    with _engine_from_args(args) as engine:
        result = engine.implies(schema, args.constraint)
    if result.implied:
        print("implied")
        return 0
    print("not implied")
    if result.counterexample is not None:
        print(f"counterexample: {result.counterexample.describe()}")
    return 1


def _cmd_summarizable(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    with _engine_from_args(args) as engine:
        verdict = engine.is_summarizable(schema, args.target, args.sources)
    print("yes" if verdict else "no")
    return 0 if verdict else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain_summarizability_in_schema

    schema = _load_schema(args.schema)
    explanation = explain_summarizability_in_schema(
        schema, args.target, args.sources
    )
    print(explanation.render())
    return 0 if explanation.summarizable else 1


def _cmd_frozen(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    found = enumerate_frozen_dimensions(schema, args.root)
    if args.dot:
        print(frozen_set_to_dot(found))
        return 0
    if not found:
        print(f"category {args.root} is unsatisfiable")
        return 1
    for index, frozen in enumerate(found, start=1):
        print(f"f{index}: {frozen.describe()}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    document = json.loads(Path(args.instance).read_text())
    # Accept either a full instance document or one without a hierarchy
    # (then the schema's hierarchy is used).
    if "hierarchy" not in document:
        from repro.io import hierarchy_to_dict

        document["hierarchy"] = hierarchy_to_dict(schema.hierarchy)
    from repro.io import instance_from_dict

    try:
        instance = instance_from_dict(document)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    problems: List[str] = []
    for node, members in failures(instance, schema.constraints):
        rendered = ", ".join(str(m) for m in members[:5])
        problems.append(f"constraint {node!r} violated at: {rendered}")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    print(f"valid: {len(instance)} members satisfy (C1)-(C7) and all "
          f"{len(schema.constraints)} constraints")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    print(hierarchy_to_dot(schema.hierarchy))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.io import hierarchy_tree, instance_tree

    schema = _load_schema(args.schema)
    print(hierarchy_tree(schema.hierarchy))
    if schema.constraints:
        print("\nconstraints:")
        for node in schema.constraints:
            print(f"  {node}")
    if args.instance:
        instance = instance_from_json(Path(args.instance).read_text())
        print()
        print(instance_tree(instance))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.telemetry is not None:
        if args.schema is not None:
            raise ReproError(
                "report takes either a SCHEMA or --telemetry DIR, not both"
            )
        from repro.core.telemetry import render_report

        print(render_report(args.telemetry))
        return 0
    if args.schema is None:
        raise ReproError("report needs a SCHEMA (or --telemetry DIR)")
    from repro.io.markdown import schema_report

    schema = _load_schema(args.schema)
    print(schema_report(schema, root=args.root))
    return 0


def _cmd_audit_verify(args: argparse.Namespace) -> int:
    from repro.core.auditlog import verify_audit_log

    report = verify_audit_log(args.log, args.schemas)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_normalize(args: argparse.Namespace) -> int:
    from repro.core.normalize import minimize, strengthen_with_intos
    from repro.io import schema_to_json

    schema = _load_schema(args.schema)
    minimized, dropped = minimize(schema)
    strengthened, added = strengthen_with_intos(minimized)
    for node in dropped:
        print(f"dropped (redundant): {node}", file=sys.stderr)
    for child, parent in added:
        print(f"declared implied into: {child} -> {parent}", file=sys.stderr)
    print(schema_to_json(strengthened))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.profile import profile_report

    schema = _load_schema(args.schema)
    print(profile_report(schema))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Re-run one decision with tracing on and show what the kernel did.

    Caching is disabled for the traced run (``cache=None``) so the spans
    cover the actual decision procedure, not a dictionary lookup.
    """
    from repro.core.trace import tracer, tracing

    schema = _load_schema(args.schema)
    budget = _budget_from_args(args)
    with tracing():
        if args.decision == "satisfiable":
            if len(args.args) != 1:
                raise ReproError("trace satisfiable needs exactly one CATEGORY")
            result = dimsat(schema, args.args[0], budget=budget)
            verdict = result.satisfiable
        elif args.decision == "implies":
            if len(args.args) != 1:
                raise ReproError("trace implies needs exactly one CONSTRAINT")
            result = implies(schema, args.args[0], cache=None, budget=budget)
            verdict = result.implied
        elif args.decision == "summarizable":
            if len(args.args) < 2:
                raise ReproError(
                    "trace summarizable needs TARGET SOURCE [SOURCE ...]"
                )
            verdict = is_summarizable_in_schema(
                schema, args.args[0], args.args[1:], cache=None, budget=budget
            )
        else:  # pragma: no cover - argparse choices forbid this
            raise ReproError(f"unknown decision {args.decision!r}")
        document = tracer().snapshot()
    document["decision"] = [args.decision, *args.args]
    document["verdict"] = bool(verdict)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(f"verdict: {'yes' if verdict else 'no'}")
        for span in document["spans"]:
            indent = "  " * _span_depth(document["spans"], span)
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(span["attrs"].items())
            )
            print(
                f"{indent}{span['name']}  {span['duration_ms']:.3f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
        for name, stats in sorted(document["summary"].items()):
            print(
                f"summary: {name}  count={stats['count']} "
                f"total={stats['total_ms']:.3f} ms"
            )
    return 0 if verdict else 1


def _span_depth(spans: List[dict], span: dict) -> int:
    """Nesting depth of one span inside a snapshot's span list."""
    by_id = {s["span_id"]: s for s in spans}
    depth = 0
    parent = span.get("parent_id")
    while parent is not None and parent in by_id:
        depth += 1
        parent = by_id[parent].get("parent_id")
    return depth


def _cmd_satisfiable(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    with _engine_from_args(args) as engine:
        result = engine.dimsat(schema, args.category)
    if result.satisfiable:
        print(f"satisfiable: {result.witness.describe()}")
        return 0
    print("unsatisfiable")
    return 1


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile a schema into its decision artifact and report its shape."""
    schema = _load_schema(args.schema)
    store = compiled_artifact_store()
    try:
        artifact = store.get(schema)
        report = artifact.compile_all_roots()
    except CompilationError as error:
        print(f"not compilable: {error}")
        print("decisions for this schema fall back to the interpreted kernel")
        return 1
    if args.json:
        print(json.dumps(artifact.describe(), indent=2, sort_keys=True))
        return 0
    print(f"fingerprint {artifact.fingerprint}")
    header = f"{'root':<16} {'subs':>5} {'vars':>6} {'clauses':>8} {'learned':>8}"
    print(header)
    for root, info in report.items():
        print(
            f"{root:<16} {info['subhierarchies']:>5} {info['variables']:>6} "
            f"{info['clauses']:>8} {info['learned_clauses']:>8}"
        )
    total_subs = sum(info["subhierarchies"] for info in report.values())
    print(f"{len(report)} roots compiled, {total_subs} subhierarchies total")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.core.soak import SoakConfig, run_soak

    config = SoakConfig(
        engine=getattr(args, "engine", None) or "compiled",
        seconds=args.seconds,
        max_steps=args.max_steps,
        seed=args.seed,
        families=args.families,
        per_family=args.per_family,
        retries=getattr(args, "retries", None) or 3,
        budget_ms=getattr(args, "budget_ms", None),
        check_every=args.check_every,
        falsifier_dir=args.falsifier_dir,
    )
    report = run_soak(config)
    print(report.render())
    document = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(document + "\n")
    telemetry_dir = getattr(args, "telemetry_dir", None)
    if telemetry_dir:
        Path(telemetry_dir).mkdir(parents=True, exist_ok=True)
        (Path(telemetry_dir) / "soak_report.json").write_text(document + "\n")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.server import DecisionServer

    server = DecisionServer(
        engine=_engine_from_args(args),
        host=args.host,
        port=args.port,
        cache_dir=getattr(args, "cache_dir", None),
        max_inflight=args.max_inflight,
        verify_cache_on_load=not getattr(args, "no_cache_verify", False),
    )
    for path in args.schema or []:
        fingerprint = server.register_schema(_load_schema(path))
        print(f"registered {path}: {fingerprint}", file=sys.stderr)

    async def _run() -> None:
        await server.start()
        if server.load_report is not None and server.load_report.found:
            print(server.load_report.render(), file=sys.stderr)
        # The startup line is the contract scripts wait for; --port-file
        # carries the ephemeral port to clients that cannot parse stdout.
        print(f"listening on {server.host}:{server.port}", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n")
        try:
            await server.wait_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    finally:
        server.engine.shutdown()
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    from repro.core.client import DecisionClient

    port = args.port
    if port is None and args.port_file:
        port = int(Path(args.port_file).read_text().strip())
    if port is None:
        print("error: call needs --port or --port-file", file=sys.stderr)
        return 2
    payload = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"error: parameter {item!r} is not KEY=VALUE", file=sys.stderr)
            return 2
        try:
            # JSON values pass structured (lists, numbers, booleans);
            # anything unparsable is a bare string, so categories and
            # constraints need no quoting gymnastics.
            payload[key] = json.loads(value)
        except json.JSONDecodeError:
            payload[key] = value
    with DecisionClient(args.host, port) as client:
        if args.schema:
            text = Path(args.schema).read_text()
            if args.op == "load-schema":
                payload.setdefault("schema_json", text)
            else:
                payload.setdefault("fingerprint", client.load_schema(text))
        response = client.request(args.op, **payload)
    print(json.dumps(response, indent=2, sort_keys=True))
    status = response.get("status")
    if status == "ok":
        return 0 if response.get("verdict", True) else 1
    return {"busy": 4, "unknown": 4, "budget-exceeded": 3}.get(status, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-olap",
        description="Reason about OLAP dimension schemas with dimension "
        "constraints (Hurtado & Mendelzon, PODS 2002).",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="after the command, print satisfiability-kernel cache "
        "statistics (decision cache, circle-operator cache, interned "
        "nodes) to stderr",
    )
    parser.add_argument(
        "--emit-metrics",
        metavar="PATH",
        default=None,
        help="after the command, write a JSON snapshot of the process-wide "
        "metrics registry (counters, gauges, histograms) to PATH",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="turn the telemetry export pipeline on for the command: "
        "stream spans/events and the per-decision audit log (with its "
        "replayable schema sidecar) to DIR, and render metrics.json, "
        "metrics.prom (Prometheus), and trace.json (Chrome trace / "
        "Perfetto flamegraph) on exit",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the decision cache across processes: load a "
        "versioned, checksummed snapshot from DIR before the command "
        "(replay-verifying every entry against the sequential kernel and "
        "dropping divergences) and atomically save the warm cache back "
        "on exit; a missing or corrupt file degrades to a cold start",
    )
    parser.add_argument(
        "--no-cache-verify",
        action="store_true",
        help="with --cache-dir, skip the load-time replay verification "
        "(checksum and schema-fingerprint checks still apply)",
    )
    parser.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-decision wall-clock budget in milliseconds; a decision "
        "that exceeds it aborts with exit code 3 instead of returning a "
        "possibly-wrong verdict",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="serve decisions through the resilient engine: up to N "
        "attempts per ladder rung with exponential backoff, sequential "
        "degradation when the engine keeps failing, and exit code 4 when "
        "no rung could produce a verdict",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help="the engine every decision goes through: 'compiled' "
        "(default) serves verdicts from the per-schema compiled decision "
        "artifact (incremental SAT with learned-clause reuse, "
        "interpreted-kernel fallback for schemas it cannot compile); "
        "'sequential' runs the interpreted kernel on the calling thread, "
        "with batch dedup",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="activate the deterministic fault-injection harness for the "
        "command (testing/drills); SPEC is 'kind[:field=value,...];...' "
        "with kinds worker-crash, slow-worker, oserror, cache-store, "
        "e.g. 'worker-crash:p=0.3;seed=7'; worker faults fire on computed "
        "(not cached) decisions, and --retries absorbs them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="satisfiability of every category")
    audit.add_argument("schema")
    audit.set_defaults(handler=_cmd_audit)

    imp = sub.add_parser("implies", help="test ds |= constraint")
    imp.add_argument("schema")
    imp.add_argument("constraint")
    imp.set_defaults(handler=_cmd_implies)

    summ = sub.add_parser("summarizable", help="schema-level summarizability")
    summ.add_argument("schema")
    summ.add_argument("target")
    summ.add_argument("sources", nargs="+")
    summ.set_defaults(handler=_cmd_summarizable)

    expl = sub.add_parser(
        "explain", help="explain a summarizability verdict with evidence"
    )
    expl.add_argument("schema")
    expl.add_argument("target")
    expl.add_argument("sources", nargs="+")
    expl.set_defaults(handler=_cmd_explain)

    froz = sub.add_parser("frozen", help="enumerate frozen dimensions")
    froz.add_argument("schema")
    froz.add_argument("root")
    froz.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    froz.set_defaults(handler=_cmd_frozen)

    val = sub.add_parser("validate", help="validate an instance file")
    val.add_argument("schema")
    val.add_argument("instance")
    val.set_defaults(handler=_cmd_validate)

    dot = sub.add_parser("dot", help="hierarchy schema as Graphviz DOT")
    dot.add_argument("schema")
    dot.set_defaults(handler=_cmd_dot)

    show = sub.add_parser("show", help="render schema (and instance) as text")
    show.add_argument("schema")
    show.add_argument("instance", nargs="?", default=None)
    show.set_defaults(handler=_cmd_show)

    rep = sub.add_parser(
        "report", help="full markdown report for a SCHEMA (hierarchy, "
        "constraints, profile, frozen dimensions, summarizability "
        "matrix), or --telemetry DIR for the operator report over a "
        "telemetry directory (latency quantiles per decision kind, "
        "cache hit rates, resilience counters, top spans)"
    )
    rep.add_argument("schema", nargs="?", default=None)
    rep.add_argument("--root", default=None)
    rep.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="render the operator report over this telemetry directory "
        "instead of a schema report",
    )
    rep.set_defaults(handler=_cmd_report)

    norm = sub.add_parser(
        "normalize",
        help="drop redundant constraints, declare implied intos, "
        "emit the normalized schema JSON",
    )
    norm.add_argument("schema")
    norm.set_defaults(handler=_cmd_normalize)

    stats = sub.add_parser("stats", help="schema metrics and DIMSAT effort")
    stats.add_argument("schema")
    stats.set_defaults(handler=_cmd_stats)

    sat = sub.add_parser("satisfiable", help="satisfiability of one category")
    sat.add_argument("schema")
    sat.add_argument("category")
    sat.set_defaults(handler=_cmd_satisfiable)

    comp = sub.add_parser(
        "compile",
        help="compile a schema into its decision artifact (per-root CNF + "
        "incremental SAT state) and print the artifact shape",
    )
    comp.add_argument("schema")
    comp.add_argument(
        "--json", action="store_true", help="emit the artifact description as JSON"
    )
    comp.set_defaults(handler=_cmd_compile)

    trace = sub.add_parser(
        "trace",
        help="re-run one decision with tracing enabled and print the "
        "recorded spans and events",
    )
    trace.add_argument("schema")
    trace.add_argument(
        "decision", choices=("satisfiable", "implies", "summarizable")
    )
    trace.add_argument(
        "args",
        nargs="+",
        help="decision arguments: CATEGORY, CONSTRAINT, or "
        "TARGET SOURCE [SOURCE ...]",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the raw trace document as JSON instead of text",
    )
    trace.set_defaults(handler=_cmd_trace)

    soak = sub.add_parser(
        "soak",
        help="drive the resilient decision stack over the adversarial "
        "corpus with mixed decide/navigate/edit traffic, checking "
        "metamorphic invariants on every step (implied-constraint "
        "stability, Definition 6 aggregates, homogenize preservation, "
        "compiled == sequential, cache hygiene across edits); exit 1 on "
        "any violation or wrong verdict (UNKNOWN is allowed)",
    )
    soak.add_argument(
        "--seconds",
        type=float,
        default=5.0,
        help="wall-clock soak duration (default 5; every case still gets "
        "at least one operation)",
    )
    soak.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="hard step cap regardless of time (deterministic runs)",
    )
    soak.add_argument("--seed", type=int, default=0, help="corpus/trace seed")
    soak.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="restrict to these adversarial generator families "
        "(default: all)",
    )
    soak.add_argument(
        "--per-family",
        type=int,
        default=1,
        metavar="N",
        help="seeded cases per family (default 1)",
    )
    soak.add_argument(
        "--check-every",
        type=int,
        default=5,
        metavar="N",
        help="compiled-vs-sequential cross-check cadence (default 5)",
    )
    soak.add_argument(
        "--falsifier-dir",
        metavar="DIR",
        default=None,
        help="shrink every schema-level violation and write the minimal "
        "repro-olap loadable falsifier schema here",
    )
    soak.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the soak report as JSON to PATH",
    )
    # The acceptance-shaped invocation puts the engine/fault globals
    # *after* the subcommand; duplicate them here with SUPPRESS defaults
    # so the subparser only overrides what the user actually typed and
    # never clobbers values the parent parser already captured.
    soak.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=argparse.SUPPRESS,
        help="engine behind the resilience ladder (default compiled)",
    )
    soak.add_argument(
        "--inject-faults", metavar="SPEC", default=argparse.SUPPRESS,
        help="deterministic fault spec for the whole soak",
    )
    soak.add_argument(
        "--budget-ms", type=float, metavar="MS", default=argparse.SUPPRESS,
        help="per-decision budget inside the soak engine",
    )
    soak.add_argument(
        "--retries", type=int, metavar="N", default=argparse.SUPPRESS,
        help="attempts per resilience-ladder rung (default 3)",
    )
    soak.add_argument(
        "--telemetry-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="telemetry export directory (audit log is replayable by "
        "audit-verify; the soak report lands there too)",
    )
    soak.set_defaults(handler=_cmd_soak)

    verify = sub.add_parser(
        "audit-verify",
        help="replay a decision audit log against the sequential kernel "
        "and fail on any verdict divergence",
    )
    verify.add_argument(
        "log",
        help="the audit.jsonl file, or the telemetry directory "
        "containing audit.jsonl and schemas.jsonl",
    )
    verify.add_argument(
        "--schemas",
        metavar="PATH",
        default=None,
        help="the schema sidecar (default: schemas.jsonl next to the log)",
    )
    verify.set_defaults(handler=_cmd_audit_verify)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived asyncio decision server (length-prefixed "
        "JSON frames over TCP, warm cache shared by every client)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 (the default) picks an ephemeral port and "
        "prints it in the 'listening on HOST:PORT' startup line",
    )
    serve.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port here after startup (for scripts)",
    )
    serve.add_argument(
        "--schema", metavar="FILE", action="append", default=[],
        help="pre-register a schema JSON file (repeatable); clients can "
        "also register schemas over the wire with load-schema",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="decision requests evaluated concurrently off the event loop "
        "before new ones get a typed busy response (default 8); verdicts "
        "the cache already holds are answered on the loop and hold no slot",
    )
    serve.set_defaults(handler=_cmd_serve)

    call = sub.add_parser(
        "call",
        help="send one request to a running decision server and print "
        "the JSON response",
    )
    call.add_argument("--host", default="127.0.0.1", help="server address")
    call.add_argument(
        "--port", type=int, default=None, help="server port"
    )
    call.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="read the server port from a file written by serve --port-file",
    )
    call.add_argument(
        "--schema", metavar="FILE", default=None,
        help="schema JSON file: becomes the payload for load-schema, or "
        "is registered first and its fingerprint filled in for other ops",
    )
    call.add_argument(
        "op",
        choices=[
            "decide", "implies", "summarizable", "navigate",
            "load-schema", "edit", "stats", "shutdown",
        ],
        help="wire operation to invoke",
    )
    call.add_argument(
        "params", nargs="*", metavar="KEY=VALUE",
        help="request fields; VALUE is parsed as JSON when possible, "
        "kept as a string otherwise (e.g. constraint=Store.City)",
    )
    call.set_defaults(handler=_cmd_call)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pipeline = None
    telemetry_dir = getattr(args, "telemetry_dir", None)
    try:
        if telemetry_dir:
            if args.command == "audit-verify" and Path(args.log).resolve() in (
                Path(telemetry_dir).resolve(),
                Path(telemetry_dir).resolve() / "audit.jsonl",
            ):
                # Opening the pipeline truncates the very log the verify
                # would replay; make the foot-gun an error instead.
                print(
                    "error: audit-verify cannot replay the log inside the "
                    "active --telemetry-dir (it would be truncated); "
                    "point --telemetry-dir somewhere else",
                    file=sys.stderr,
                )
                return 2
            from repro.core.telemetry import TelemetryPipeline

            pipeline = TelemetryPipeline(telemetry_dir).install()
        cache_dir = getattr(args, "cache_dir", None)
        # ``serve`` hands the directory to the DecisionServer, which loads
        # and replay-verifies the store itself when it starts.
        if cache_dir and args.command != "serve":
            from repro.core.cachestore import CacheStoreError, load_cache
            from repro.core.decisioncache import default_decision_cache

            try:
                load_report = load_cache(
                    default_decision_cache(),
                    cache_dir,
                    verify_replay=not getattr(args, "no_cache_verify", False),
                )
                if load_report.found:
                    print(load_report.render(), file=sys.stderr)
            except CacheStoreError as error:
                # A bad cache file must never take the command down; warn
                # and run cold.
                print(
                    f"warning: ignoring persistent cache: {error}",
                    file=sys.stderr,
                )
        spec = getattr(args, "inject_faults", None)
        if spec:
            with inject_faults(spec):
                return args.handler(args)
        return args.handler(args)
    except DecisionUnavailable as error:
        # Must precede the ReproError arm: DecisionUnavailable is a
        # ReproError, but "no rung could answer" deserves its own exit
        # code so operators can tell degradation from bad input.
        print(f"decision unavailable: {error}", file=sys.stderr)
        return 4
    except InjectedFault as error:
        # Without --retries no ladder absorbs an injected worker fault.
        print(f"decision unavailable: {error}", file=sys.stderr)
        return 4
    except BudgetExceeded as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C mid-command: the finally below still persists the warm
        # cache and flushes telemetry; exit with the conventional
        # 128+SIGINT code instead of a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # Every step below runs on EVERY exit path - normal return,
        # error return, uncaught exception, KeyboardInterrupt - and each
        # is guarded independently, so a failing telemetry flush cannot
        # discard the warm cache the command just built (and vice versa).
        if getattr(args, "cache_dir", None):
            from repro.core.cachestore import save_cache
            from repro.core.decisioncache import default_decision_cache
            from repro.core.faults import CacheStoreFault

            try:
                save_cache(default_decision_cache(), args.cache_dir)
            except (CacheStoreFault, OSError) as error:
                # A failed save only costs the next run a cold start.
                print(
                    f"warning: persistent cache not saved: {error}",
                    file=sys.stderr,
                )
        if pipeline is not None:
            try:
                pipeline.finalize()
            except OSError as error:
                print(
                    f"warning: telemetry not finalized: {error}",
                    file=sys.stderr,
                )
        if getattr(args, "cache_stats", False):
            from repro.core.decisioncache import default_decision_cache

            print(default_decision_cache().report(), file=sys.stderr)
        if getattr(args, "emit_metrics", None):
            from repro.core.metrics import emit_metrics

            try:
                emit_metrics(args.emit_metrics)
            except OSError as error:
                print(
                    f"warning: metrics not emitted: {error}",
                    file=sys.stderr,
                )


if __name__ == "__main__":
    raise SystemExit(main())
