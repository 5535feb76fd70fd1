"""Self-check at tiny sizes.

Proves three things, each printed as PASS/FAIL:

1. every workload prints every end-to-end metric (``--trace 0``) and
   every per-layer metric (``--trace 1``) named in ``BENCHMARK.json``,
   with its unit;
2. a planted wrong verdict is caught - a flipped served verdict by the
   oracle, a corrupted cube view by the base-scan check;
3. traced verdicts equal untraced ones (``trace.verdict_mismatches`` is
   0 and both passes satisfy the oracle).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from typing import Dict, List

import common

SECONDS = "1"


def _run(workload: str, trace: int) -> Dict[str, object]:
    done = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(common.ROOT), timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr[-1500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _check_metrics(spec, workload: str, trace: int, result) -> List[str]:
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    problems = []
    if set(got) != set(expected):
        problems.append(
            f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}"
        )
    problems += [f"{n}: unit {got[n]!r} != {u!r}" for n, u in expected.items() if n in got and got[n] != u]
    if not result["correct"] or result["failed"]:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if trace and result["metrics"].get("trace.verdict_mismatches", {}).get("value"):
        problems.append("traced verdicts differ from untraced ones")
    return problems


def _planted_served() -> List[str]:
    """Answer a handful of warm-mix requests correctly, then flip one."""
    import inputs
    import oracle
    from loadgen import Record

    data = inputs.warm_mix(7)
    rng = random.Random(7)
    ops = rng.sample(data.prime, 12)
    records = []
    for index, op in enumerate(ops):
        answer = oracle.expected_answer(data.schemas[op.key[0]], op.key)
        if op.op == "navigate":
            reply = {"status": "ok", "plan": answer[0], "sources": list(answer[1])}
        else:
            reply = {"status": "ok", "verdict": answer}
        records.append(Record(index, op, 0.0, 0.001, "ok", reply))
    clean, _ = oracle.check(records, data.schemas)
    victim = next(r for r in records if "verdict" in r.reply)
    victim.reply["verdict"] = not victim.reply["verdict"]
    planted, notes = oracle.check(records, data.schemas)
    problems = []
    if clean:
        problems.append(f"correct answers flagged: {clean}")
    if planted != 1:
        problems.append(f"planted wrong verdict not caught (diverging={planted})")
    return problems


def _planted_view() -> List[str]:
    """Run a tiny olap pass, then corrupt one checked answer."""
    import olap_answer

    data = olap_answer.build_inputs(7, "time", facts=2000, blocks=16)
    result = olap_answer.run_pass(data, 0.5, 1)
    clean, _ = olap_answer.verify(result)
    if not result.checks:
        return ["no answer was checked"]
    shape, view, n_facts = result.checks[0]
    cells = dict(view.cells)
    member = next(iter(cells))
    cells[member] += 1.0
    result.checks[0] = (shape, type(view)(view.category, view.aggregate, view.measure, cells), n_facts)
    planted, _ = olap_answer.verify(result)
    problems = []
    if clean:
        problems.append(f"correct views flagged: {clean}")
    if planted != 1:
        problems.append(f"corrupted view not caught (wrong={planted})")
    return problems


def main() -> int:
    spec = common.load_spec()
    failures = 0

    def report(label: str, problems: List[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" + "".join(f"\n    {p}" for p in problems), flush=True)

    report("oracle catches a planted wrong verdict", _planted_served())
    report("base-scan check catches a corrupted view", _planted_view())
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            try:
                problems = _check_metrics(spec, workload, trace, _run(workload, trace))
            except RuntimeError as error:
                problems = [str(error)]
            label = "every per-layer metric, traced verdicts = untraced" if trace else "every end-to-end metric"
            report(f"{workload} --trace {trace}: {label}", problems)
    print(json.dumps({"self_check": "pass" if not failures else "fail", "failures": failures}))
    return 1 if failures else 0
