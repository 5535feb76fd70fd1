"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the workload traced with the same
seed and prints every per-layer metric (see ``ledger.py``), then
estimates the tracing overhead from alternating short untraced and
traced passes.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Other modes (not used by the metric contract):

    python3 perfbench/run.py --aa --workload edit-churn --runs 5
    python3 perfbench/run.py --predictions
    python3 perfbench/run.py --self-check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


#: Untraced/traced pairs of short passes behind ``trace.overhead_pct``.
OVERHEAD_PAIRS = 4


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _overhead(rate: Callable[[bool, float], float], seconds: float) -> Tuple[float, List[str]]:
    """Tracing overhead, in percent: the median over :data:`OVERHEAD_PAIRS`
    pairs of an untraced and a traced pass, run back to back (which goes
    first alternates), of the untraced throughput over the traced one,
    minus one.  Pairing keeps slow host drift out of each ratio and the
    median keeps out a pair that straddled a jump.  ``rate(traced,
    seconds)`` runs one pass and returns its throughput."""
    length = max(1.0, seconds / 5)
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        rates = {traced: rate(traced, length) for traced in order}
        ratios.append(100.0 * (rates[False] / rates[True] - 1.0))
    value = statistics.median(ratios)
    line = (f"trace overhead: median {value:.2f}% over {OVERHEAD_PAIRS} pairs of "
            f"{length:.1f} s passes; pairs " + ", ".join(f"{r:.2f}%" for r in ratios))
    return value, [line]


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------


def _factor_note(factors: List[float]) -> str:
    q1, median, q3 = common.quartiles(factors)
    return (
        f"host-speed factor (reference / measured) over {len(factors)} slices: median "
        f"{median:.3f}, quartiles [{q1:.3f}, {q3:.3f}], range [{min(factors):.3f}, {max(factors):.3f}]"
    )


def _served_metrics(result) -> Dict[str, Dict[str, float]]:
    return common.end_to_end_metrics(
        setup_times=result.setup_times,
        ops=[(r.slice, r.latency_ms, "decision" if r.op.is_decision else "write")
             for r in result.records if r.status == "ok"],
        slices=result.slices,
        rss_mb=result.rss_mb,
    )


def _served_summary(result, diverging: int) -> Tuple[int, int, Dict[str, Dict[str, float]], List[str]]:
    records = result.records
    ok = _ok(records)
    failed = (len(records) - ok) + diverging
    metrics = _served_metrics(result)
    decisions = sum(1 for r in records if r.status == "ok" and r.op.is_decision)
    distinct = len({r.op.key for r in records if r.op.is_decision})
    notes = [
        f"samples: {decisions} decisions, {ok - decisions} writes (load-schema/edit) of "
        f"{len(records)} requests in {result.timed_seconds:.3f} s timed",
        _factor_note([s.factor for s in result.slices]),
        f"inputs: {distinct} distinct decisions timed; {json.dumps(result.sizes)}",
    ]
    metrics["failed_pct"] = {"value": 100.0 * failed / max(1, len(records)), "unit": "%"}
    return len(records), failed, metrics, notes


def run_served(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import ledger
    import oracle
    import served

    workdir = served.fresh_workdir(workload)
    try:
        if not trace:
            result = served.run_pass(workload, seed, seconds, workdir, False, common.SETUP_REPEATS)
            diverging, notes = oracle.check(result.records, result.schemas)
            attempted, failed, metrics, lines = _served_summary(result, diverging)
            return _report(attempted, failed, metrics, lines + notes)
        traced = served.run_pass(workload, seed, seconds, workdir, True, 1)
        passes = {False: [], True: [traced]}

        def rate(with_trace: bool, length: float) -> float:
            result = served.run_pass(workload, seed, length, workdir, with_trace, 1)
            passes[with_trace].append(result)
            return _ok(result.records) / result.timed_seconds

        overhead, overhead_lines = _overhead(rate, seconds)
    finally:
        served.remove_workdir(workdir)
    plain_records = [r for result in passes[False] for r in result.records]
    traced_records = [r for result in passes[True] for r in result.records]
    schemas = {k: v for result in passes[False] + passes[True] for k, v in result.schemas.items()}
    diverging, notes = oracle.check(plain_records + traced_records, schemas)
    mismatches = _compare_verdicts(plain_records, traced_records)
    attempted, failed, _metrics, lines = _served_summary(traced, 0)
    others = plain_records + traced_records[len(traced.records):]
    book = traced.ledger
    assert book is not None
    spans = book["spans"]
    timed = [(r.request_id, r.sent, r.replied) for r in traced.records]
    before, after = book["snapshots"][-2], book["snapshots"][-1]
    result = ledger.breakdown(timed, spans)
    # The first snapshot holds the launch's counters (the cache load).
    metrics = ledger.per_layer_metrics(result, before, after, book["snapshots"][0], spans)
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.verdict_mismatches"] = (float(mismatches), "count")
    lines += _ledger_lines(result) + overhead_lines
    return _report(
        attempted + len(others),
        failed + diverging + mismatches + (len(others) - _ok(others)),
        {name: _metric(v, u) for name, (v, u) in metrics.items()},
        lines + notes,
    )


def _ok(records) -> int:
    return sum(1 for r in records if r.status == "ok")


def _compare_verdicts(left, right) -> int:
    """Requests answered differently by the untraced and traced passes."""
    import oracle

    answers = {}
    for record in left:
        if record.status == "ok" and record.op.is_decision:
            answers[record.op.key] = oracle.served_answer(record)
    return sum(
        1 for record in right
        if record.status == "ok" and record.op.is_decision
        and record.op.key in answers
        and answers[record.op.key] != oracle.served_answer(record)
    )


def _ledger_lines(result: Dict[str, object]) -> List[str]:
    band: Dict[str, float] = result["median_band_ms"]  # type: ignore[assignment]
    lines = [
        f"ledger: {result['requests']} requests, median latency "
        f"{result['median_latency_ms']:.4f} ms, mean {result['mean_latency_ms']:.4f} ms; "
        f"rows of the {result['median_band_requests']} requests at the median:"
    ]
    for layer, ms in sorted(band.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:16s} {ms:9.4f} ms")
    lines.append(f"  {'sum':16s} {sum(band.values()):9.4f} ms")
    return lines


# ----------------------------------------------------------------------
# The in-process workload
# ----------------------------------------------------------------------


def _olap_metrics(parts: List[Dict[str, object]], rss_mb: float) -> Dict[str, Dict[str, float]]:
    """End-to-end metrics of the two analysts taken together.

    Set-up is the slower analyst's and throughput the sum of both closed
    loops.  Latency and CPU per op are the mean of each analyst's own
    figure: the analysts' queries cost different amounts, so pooling
    their samples would let the share each contributes, which follows
    the host's speed on each vCPU, move the percentiles.
    """
    each: List[Dict[str, Dict[str, float]]] = [p["metrics"] for p in parts]  # type: ignore[misc]
    metrics = {
        name: {"value": statistics.mean(m[name]["value"] for m in each), "unit": unit["unit"]}
        for name, unit in each[0].items()
    }
    metrics["setup_s"]["value"] = statistics.median(
        max(times) for times in zip(*(p["setup_times"] for p in parts))  # type: ignore[call-overload]
    )
    metrics["throughput_rps"]["value"] = sum(m["throughput_rps"]["value"] for m in each)
    metrics["peak_rss_mb"]["value"] = rss_mb
    return metrics


def _olap_rate(workers: List[Dict[str, object]]) -> float:
    return sum(w["pass"]["ok"] / w["pass"]["timed_seconds"] for w in workers)  # type: ignore[index]


def run_olap(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import olap_answer

    import served

    workdir = served.fresh_workdir("olap-answer")
    try:
        workers = olap_answer.run_analysts(
            seed, seconds, 1 if trace else common.SETUP_REPEATS, trace, workdir
        )
        others: List[Dict[str, object]] = []
        if trace:
            def rate(with_trace: bool, length: float) -> float:
                short = olap_answer.run_analysts(seed, length, 1, with_trace, workdir)
                others.extend(short)
                return _olap_rate(short)

            overhead, overhead_lines = _overhead(rate, seconds)
    finally:
        served.remove_workdir(workdir)
    rss = sum(w["rss_mb"] for w in workers)  # type: ignore[misc]
    timed = [w["pass"] for w in workers]
    ops = sum(p["ok"] for p in timed)  # type: ignore[misc]
    wrong = sum(p["wrong"] for p in timed)  # type: ignore[misc]
    notes = [n for p in timed for n in p["notes"]]  # type: ignore[attr-defined]
    if not trace:
        metrics = _olap_metrics(timed, rss)  # type: ignore[arg-type]
        lines = [
            f"samples: {sum(p['queries'] for p in timed)} queries, "  # type: ignore[misc]
            f"{sum(p['writes'] for p in timed)} writes (fact appends) of {ops} ops "  # type: ignore[misc]
            f"by {len(timed)} analysts, {seconds:.0f} s timed each; "
            f"{sum(p['checked'] for p in timed)} answers base-scan checked",  # type: ignore[misc]
            _factor_note([f for p in timed for f in p["factors"]]),  # type: ignore[attr-defined]
            f"inputs: {json.dumps([w['sizes'] for w in workers])}",
        ]
        metrics["failed_pct"] = {"value": 100.0 * wrong / max(1, ops), "unit": "%"}
        return _report(ops, wrong, metrics, lines + notes)  # type: ignore[arg-type]
    import ledger

    extra = [w["pass"] for w in others]
    wrong += sum(p["wrong"] for p in extra)  # type: ignore[misc]
    notes += [n for p in extra for n in p["notes"]]  # type: ignore[attr-defined]
    windows = [window for w in workers for window in w["windows"]]  # type: ignore[attr-defined]
    spans = [span for w in workers for span in w["spans"]]  # type: ignore[attr-defined]
    before, after = ({key: sum(w[side].get(key, 0.0) for w in workers)  # type: ignore[attr-defined]
                      for key in workers[0][side]} for side in ("before", "after"))  # type: ignore[index]
    result = ledger.breakdown(windows, spans, loop_layer=None)
    metrics = ledger.per_layer_metrics(result, before, after, {}, [])
    metrics["trace.overhead_pct"] = (overhead, "%")
    # Answers are checked against base scans in every pass, traced or not.
    metrics["trace.verdict_mismatches"] = (0.0, "count")
    return _report(
        ops + sum(p["ok"] for p in extra),  # type: ignore[misc]
        wrong,
        {name: _metric(v, u) for name, (v, u) in metrics.items()},
        _ledger_lines(result) + overhead_lines + notes,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _report(attempted: int, failed: int, metrics, lines: List[str]) -> Dict[str, object]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    common.OUT.mkdir(exist_ok=True)
    probe_before = common.host_probe()
    if workload == "olap-answer":
        report = run_olap(seed, seconds, trace)
    else:
        report = run_served(workload, seed, seconds, trace)
    probe_after = common.host_probe()
    report["probe"] = [probe_before, probe_after]
    return report


def print_report(workload: str, seed: int, trace: bool, report: Dict[str, object]) -> None:
    """Every metric as a table, then the contract's metrics as one JSON
    line (``end_to_end`` untraced, ``per_layer`` traced)."""
    print(f"workload {workload} seed {seed}: correct={report['correct']} "
          f"attempted={report['attempted']} failed={report['failed']}")
    for line in report["lines"]:  # type: ignore[union-attr]
        print(f"  {line}")
    before, after = report["probe"]  # type: ignore[misc]
    print(f"  host probe: cpu {before['cpu_ms']:.3f} ms / handoff {before['handoff_us']:.2f} us "
          f"before, cpu {after['cpu_ms']:.3f} ms / handoff {after['handoff_us']:.2f} us after")
    for name, metric in sorted(report["metrics"].items()):  # type: ignore[union-attr]
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    metrics: Dict[str, object] = report["metrics"]  # type: ignore[assignment]
    wanted = [m["name"] for m in common.load_spec()["per_layer" if trace else "end_to_end"]]
    final = {key: report[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(final))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(common.load_spec()["run_seconds"]))  # type: ignore[arg-type]
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="run two interleaved sets of the same code and compare them")
    parser.add_argument("--runs", type=int, default=5, help="runs per set in --aa mode")
    parser.add_argument("--self-check", action="store_true",
                        help="tiny-size proof that metrics, the oracle and tracing work")
    parser.add_argument("--predictions", action="store_true",
                        help="trace every workload and check the per-layer predictions")
    args = parser.parse_args(argv)
    common.require_program()
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.predictions:
        import predictions

        return predictions.main(args.seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.aa:
        import aa

        return aa.main(args.workload, args.runs, args.seconds, args.seed)
    report = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, bool(args.trace), report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
