"""The in-process workload: aggregate navigation over census-scale facts.

Two analysts, one per vCPU, each run a
:class:`~repro.olap.maintenance.MaintainedNavigator` in their own child
process (no server; running this file is the analyst's entry point):
census time (facts on ``Day``) and census product (facts on ``SKU``),
5 * 10^4 facts each.  Each answers a seeded stream of cube-view
queries in a closed loop; every few ops it rotates a materialized view
(drops one, materializes another) and, less often, appends a batch of
facts (the write op).  Each analyst stays on its own vCPU and times the
host-speed probe there between slices, so its times are scaled by the
speed of the vCPU they ran on (see :class:`common.Placement`).

Answers are checked afterwards: a seeded sample of the distinct
non-base-scan answers - one per plan shape (plan, category, aggregate,
sources) and fact count, drawn from the whole run - is recomputed by a
base scan over the facts that existed when it was answered.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.decisioncache import default_decision_cache
from repro.core.dimsat import circle_cache
from repro.generators.adversarial import (
    census_product_instance,
    census_product_schema,
    census_time_instance,
    census_time_schema,
)
from repro.olap.aggregates import COUNT, MAX, MIN, SUM
from repro.olap.cubeview import CubeView, cube_view
from repro.olap.facttable import FactTable
from repro.olap.maintenance import MaintainedNavigator

import common

TABLES = ("time", "product")
AGGREGATES = (SUM, COUNT, MAX, MIN)
#: The aggregates of the queries of one block, in the proportions
#: 40/30/22/8; MIN queries are the base-scan candidates.
BLOCK_AGGREGATES = ("SUM",) * 10 + ("COUNT",) * 7 + ("MAX",) * 5 + ("MIN",) * 2
FACTS_PER_TABLE = 50_000
#: Every block of queries ends with a view rotation, every APPEND_EVERY-th
#: block with a fact append instead.
APPEND_EVERY = 4
APPEND_ROWS = 100
MAX_CHECKS = 60
MEASURE = "amount"
#: Traced request ids of analyst ``i`` start at ``1 + i * RID_STRIDE``.
RID_STRIDE = 10_000_000

_AGG = {agg.name: agg for agg in AGGREGATES}


@dataclass
class OlapInputs:
    name: str
    seed: int
    instance: object
    schema: object
    bottom: str
    rows: List[Tuple[str, Dict[str, float]]]
    #: ("query", category, aggregate) | ("rotate", drop, add)
    #: | ("append", rows); cycled by the loop.
    stream: List[Tuple[object, ...]]
    initial_views: List[Tuple[str, str]]
    sizes: Dict[str, object] = field(default_factory=dict)


def _rows(rng: random.Random, base: List[str], n: int) -> List[Tuple[str, Dict[str, float]]]:
    return [(rng.choice(base), {MEASURE: round(rng.uniform(1.0, 100.0), 2)}) for _ in range(n)]


def build_inputs(
    seed: int, table: str, facts: int = FACTS_PER_TABLE, blocks: int = 120
) -> OlapInputs:
    """One analyst's facts, initial views and op stream.

    The dimension instance is fixed reference data; the seed draws the
    facts, the appended rows and the order of the queries.  The
    navigator keeps a base-level view for SUM, COUNT and MAX (so those
    queries always have a rewriting) plus three rotating views at upper
    categories.  MIN has no base-level view: a MIN query with no
    rotating view below it is the base scan.  Queries ask for upper
    categories (a base-level query is a stored view).

    The stream is a run of blocks.  Block ``b`` holds the queries
    ``BLOCK_AGGREGATES`` paired with the categories in turn from offset
    ``b``, shuffled by the seed, and ends with a rotation (every
    ``APPEND_EVERY``-th block with an append).  Rotation walks a fixed
    schedule of every (category, aggregate) pair.  So every seed asks
    the same queries of the same views in each block, and a run's work
    does not hang on how many costly plans its draws happened to hit.
    """
    rng = random.Random(f"{seed}:{table}")
    if table == "time":
        instance, schema, bottom = (
            census_time_instance(years=8, start_year=2000), census_time_schema(), "Day"
        )
    else:
        instance, schema, bottom = (
            census_product_instance(n_skus=3000, n_brands=80, n_companies=12,
                                    n_classes=40, seed=0),
            census_product_schema(), "SKU",
        )
    base = sorted(instance.base_members(), key=repr)
    categories = sorted(instance.hierarchy.categories - {"All", bottom})
    schedule = [(c, agg.name) for agg in AGGREGATES for c in categories]
    held = schedule[:3]
    stream: List[Tuple[object, ...]] = []
    rotations = 0
    for block in range(1, blocks + 1):
        queries: List[Tuple[object, ...]] = [
            ("query", categories[(slot + block) % len(categories)], aggregate)
            for slot, aggregate in enumerate(BLOCK_AGGREGATES)
        ]
        rng.shuffle(queries)
        stream.extend(queries)
        if block % APPEND_EVERY == 0:
            stream.append(("append", _rows(rng, base, APPEND_ROWS)))
        else:
            added = schedule[(3 + rotations) % len(schedule)]
            rotations += 1
            stream.append(("rotate", held.pop(0), added))
            held.append(added)
    # Restore the initial rotating views so the stream cycles cleanly.
    for dropped, added in zip(list(held), schedule[:3]):
        stream.append(("rotate", dropped, added))
    return OlapInputs(
        name=table,
        seed=seed,
        instance=instance,
        schema=schema,
        bottom=bottom,
        rows=_rows(rng, base, facts),
        stream=stream,
        initial_views=[(bottom, agg) for agg in ("SUM", "COUNT", "MAX")] + schedule[:3],
        sizes={"facts": facts, "members": len(instance), "stream_ops": len(stream),
               "append_rows": APPEND_ROWS},
    )


def set_up(data: OlapInputs) -> MaintainedNavigator:
    """The fact table, the navigator and its initial views (timed)."""
    navigator = MaintainedNavigator(FactTable(data.instance, data.rows), data.schema)
    for category, agg in data.initial_views:
        navigator.materialize(category, _AGG[agg], MEASURE)
    return navigator


@dataclass
class OlapPass:
    setup_times: List[float]
    #: Every op of the timed phase; queries are the decisions and fact
    #: appends the writes.
    ops: List[common.TimedOp]
    #: The slices of the timed phase (CPU time is this process's).
    slices: List[common.Slice]
    ok: int
    timed_seconds: float
    #: (shape, view, facts at answer time), sampled over the whole run.
    checks: List[Tuple[Tuple[object, ...], CubeView, int]]
    navigator: MaintainedNavigator
    stats_before: Dict[str, float]
    stats_after: Dict[str, float]
    request_windows: List[Tuple[int, float, float]]


def _counters(navigator: MaintainedNavigator, traced: bool) -> Dict[str, float]:
    stats = navigator.stats
    values = {
        "navigator.queries": stats.queries,
        "navigator.rewrites": stats.rewrites,
        "navigator.base_scans": stats.base_scans,
        "navigator.rows_read": stats.rows_read,
        "navigator.checks": stats.summarizability_checks,
    }
    if traced:
        import tracer

        values.update(tracer.REC.counters)
        values.update(tracer.cache_snapshot(default_decision_cache()))
    return values


def run_pass(
    data: OlapInputs,
    seconds: float,
    setup_repeats: int,
    traced: bool = False,
    start_together=None,
    first_id: int = 1,
    cpu_index: int = 0,
) -> OlapPass:
    """Set up ``setup_repeats`` times, then replay the stream until the
    timed slices add up to ``seconds``, on vCPU ``cpu_index`` of a
    :class:`common.Placement` whose speed is probed around every set-up
    and between slices.  ``start_together`` (called after the set-ups)
    lines up the timed phases of concurrent analysts.

    Each distinct non-base-scan answer, by plan shape and fact count, is
    offered to a reservoir of ``MAX_CHECKS`` answers that :func:`verify`
    re-scans, so answers after the last append are as likely to be
    checked as those before the first.
    """
    default_decision_cache().clear()
    circle_cache().clear()
    placement = common.Placement()
    cpus = placement.cpus[cpu_index:cpu_index + 1]
    setup_times = []
    navigator = None
    for _ in range(setup_repeats):
        # Every set-up starts from the same heap: the last one's
        # navigator is garbage the collector would otherwise scan.
        navigator = None
        gc.collect()
        probe = placement.probe(cpus)
        start = time.perf_counter()
        navigator = set_up(data)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * common.speed_factor(probe, placement.probe(cpus), cpus))
    assert navigator is not None
    ops: List[common.TimedOp] = []
    slices: List[common.Slice] = []
    checks: List[Tuple[Tuple[object, ...], CubeView, int]] = []
    check_rng = random.Random(f"{data.seed}:{data.name}:checks")
    offered = set()
    windows: List[Tuple[int, float, float]] = []
    before = _counters(navigator, traced)
    if start_together is not None:
        start_together()
    probe = placement.probe(cpus)
    index = 0
    measured = 0.0
    while measured < seconds:
        slice_index = len(slices)
        cpu_start = time.process_time()
        start = end = time.perf_counter()
        stop = start + common.SLICE_SECONDS
        while end < stop:
            op = data.stream[index % len(data.stream)]
            request_id = first_id + index
            index += 1
            if traced:
                import tracer

                tracer.REC.set_base((None, request_id))
            sent = time.perf_counter()
            if op[0] == "query":
                view, plan = navigator.answer(op[1], _AGG[op[2]], MEASURE)  # type: ignore[arg-type,index]
                end = time.perf_counter()
                ops.append((slice_index, (end - sent) * 1000.0, "decision"))
                shape = (plan.kind, op[1], op[2], plan.sources)
                key = (shape, len(navigator.facts))
                if plan.kind != "base-scan" and key not in offered:
                    offered.add(key)
                    if len(checks) < MAX_CHECKS:
                        checks.append((shape, view, key[1]))
                    else:
                        slot = check_rng.randrange(len(offered))
                        if slot < MAX_CHECKS:
                            checks[slot] = (shape, view, key[1])
            elif op[0] == "rotate":
                dropped, added = op[1], op[2]  # type: ignore[misc]
                navigator.drop(dropped[0], _AGG[dropped[1]], MEASURE)
                navigator.materialize(added[0], _AGG[added[1]], MEASURE)
                end = time.perf_counter()
                ops.append((slice_index, (end - sent) * 1000.0, "other"))
            else:
                navigator.append(op[1])  # type: ignore[arg-type]
                end = time.perf_counter()
                ops.append((slice_index, (end - sent) * 1000.0, "write"))
            windows.append((request_id, sent, end))
        cpu_seconds = time.process_time() - cpu_start
        after = placement.probe(cpus)
        slices.append(common.Slice(start, end, cpu_seconds, common.speed_factor(probe, after, cpus)))
        probe = after
        measured += end - start
    placement.release()
    return OlapPass(
        setup_times=setup_times,
        ops=ops,
        slices=slices,
        ok=index,
        timed_seconds=measured,
        checks=checks,
        navigator=navigator,
        stats_before=before,
        stats_after=_counters(navigator, traced),
        request_windows=windows,
    )


class _Prefix:
    """The first ``n`` facts of a table, as ``cube_view`` reads them."""

    def __init__(self, facts: FactTable, n: int) -> None:
        self.instance = facts.instance
        self._facts = facts
        self._n = n

    def __iter__(self):
        return islice(iter(self._facts), self._n)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def verify(result: OlapPass) -> Tuple[int, List[str]]:
    """Base-scan every checked answer over the facts it saw."""
    wrong = 0
    notes: List[str] = []
    for shape, view, n_facts in result.checks:
        expected = cube_view(
            _Prefix(result.navigator.facts, n_facts), shape[1], _AGG[shape[2]], MEASURE  # type: ignore[arg-type,index]
        )
        same = set(expected.cells) == set(view.cells) and all(
            _close(expected.cells[m], view.cells[m]) for m in expected.cells
        )
        if not same:
            wrong += 1
            if len(notes) < 10:
                notes.append(f"{shape!r} at {n_facts} facts differs from a base scan")
    return wrong, notes


# ----------------------------------------------------------------------
# The two analysts
# ----------------------------------------------------------------------


def _summary(result: OlapPass) -> Dict[str, object]:
    wrong, notes = verify(result)
    return {
        "setup_times": result.setup_times,
        # peak_rss_mb is the parent's to fill in: it sums both analysts.
        "metrics": common.end_to_end_metrics(
            setup_times=result.setup_times, ops=result.ops, slices=result.slices, rss_mb=0.0
        ),
        "factors": [s.factor for s in result.slices],
        "queries": sum(1 for op in result.ops if op[2] == "decision"),
        "writes": sum(1 for op in result.ops if op[2] == "write"),
        "ok": result.ok,
        "timed_seconds": result.timed_seconds,
        "checked": len(result.checks),
        "wrong": wrong,
        "notes": notes,
    }


def _wait_for_go() -> None:
    """Tell the parent the set-up is done; block until both analysts are."""
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("analyst: parent went away")


def analyst(index: int, seed: int, seconds: float, setup_repeats: int, trace: bool) -> Dict[str, object]:
    """One analyst process: one pass, traced if ``trace``."""
    data = build_inputs(seed, TABLES[index])
    # The input rows are the benchmark's, not the program's: keep them
    # out of the collector's scans so they do not tax the program's GC.
    gc.collect()
    gc.freeze()
    if trace:
        import tracer

        tracer.install_kernel_and_engines()
        tracer.install_navigator()
    result = run_pass(data, seconds, setup_repeats, traced=trace, start_together=_wait_for_go,
                      first_id=1 + index * RID_STRIDE, cpu_index=index)
    out: Dict[str, object] = {"pass": _summary(result), "sizes": data.sizes}
    if trace:
        out["spans"] = tracer.REC.spans
        out["windows"] = result.request_windows
        out["before"], out["after"] = result.stats_before, result.stats_after
    out["rss_mb"] = common.peak_rss_mb(os.getpid())
    return out


def run_analysts(
    seed: int, seconds: float, setup_repeats: int, trace: bool, workdir: Path
) -> List[Dict[str, object]]:
    """Both analysts as child processes whose timed phases start
    together; their results, by index."""
    paths = [workdir / f"analyst-{index}.json" for index in range(len(TABLES))]
    children = [
        subprocess.Popen(
            [sys.executable, __file__, str(index), str(seed), str(seconds),
             str(setup_repeats), str(int(trace)), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=common.program_env(), cwd=str(common.ROOT),
        )
        for index, path in enumerate(paths)
    ]
    try:
        for child in children:
            if child.stdout.readline().strip() != b"ready":  # type: ignore[union-attr]
                raise RuntimeError("an analyst process failed during set-up")
        for child in children:
            child.stdin.write(b"go\n")  # type: ignore[union-attr]
            child.stdin.flush()  # type: ignore[union-attr]
        for child in children:
            if child.wait(timeout=170) != 0:
                raise RuntimeError(f"an analyst process exited {child.returncode}")
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            for stream in (child.stdin, child.stdout):
                stream.close()  # type: ignore[union-attr]
    return [json.loads(path.read_text()) for path in paths]


if __name__ == "__main__":
    index, seed, seconds, repeats, trace, result = sys.argv[1:]
    Path(result).write_text(json.dumps(
        analyst(int(index), int(seed), float(seconds), int(repeats), trace == "1")
    ))
