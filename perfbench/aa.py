"""A/A mode: two interleaved sets of runs of the same code.

Set A and set B alternate (A first on even pairs, B first on odd), each
run in a fresh process with its own seed.  For every end-to-end metric
this prints both sets' medians and quartiles, the spread of all runs,
and the difference between the set medians against the metric's bound;
the host probe of every run is printed beside it.  Same code on both
sides, so every difference is noise: a metric whose A/A difference or
spread reaches its bound cannot resolve a change of that size.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from typing import Dict, List

import common

_PROBE = re.compile(
    r"host probe: cpu ([0-9.]+) ms / handoff ([0-9.]+) us before, "
    r"cpu ([0-9.]+) ms / handoff ([0-9.]+) us after"
)


def one_run(workload: str, seed: int, seconds: float, trace: int = 0) -> Dict[str, object]:
    """One benchmark run in a fresh process; its JSON result plus probe."""
    command = [
        sys.executable, str(common.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=str(common.ROOT), timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(f"run failed ({done.returncode}): {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = _PROBE.search(done.stdout)
    result["probe"] = [float(value) for value in probe.groups()] if probe else []
    result["seed"] = seed
    return result


def spread(values: List[float]) -> float:
    q1, median, q3 = common.quartiles(values)
    return (q3 - q1) / median if median else 0.0


def main(workload: str, runs: int, seconds: float, base_seed: int) -> int:
    spec = common.load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}  # type: ignore[index]
    sets: Dict[str, List[Dict[str, object]]] = {"A": [], "B": []}
    for pair in range(runs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            seed = base_seed + 2 * pair + (0 if side == "A" else 1)
            result = one_run(workload, seed, seconds)
            sets[side].append(result)
            print(
                f"run {side}{pair} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']} probe cpu_ms/handoff_us before, after="
                f"{result['probe']}",
                flush=True,
            )
    print(f"\nA/A {workload}: {runs} runs per set, {seconds} s each")
    print(f"{'metric':24s} {'A median [Q1, Q3]':36s} {'B median [Q1, Q3]':36s} "
          f"{'B vs A':>8s} {'spread':>7s} {'bound':>6s}")
    verdict = 0
    for name, meta in bounds.items():
        values = {side: [float(r["metrics"][name]["value"]) for r in rs]  # type: ignore[index]
                  for side, rs in sets.items()}
        qa, qb = common.quartiles(values["A"]), common.quartiles(values["B"])
        sign = 1.0 if meta["better"] == "lower" else -1.0
        worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        # Each set's own spread, as a check of one set of runs sees it.
        widest = max(spread(values["A"]), spread(values["B"]))
        ok = abs(worse) <= meta["bound"] and widest <= meta["bound"]
        verdict |= not ok
        print(
            f"{name:24s} {qa[1]:11.4f} [{qa[0]:.4f}, {qa[2]:.4f}]".ljust(62)
            + f"{qb[1]:11.4f} [{qb[0]:.4f}, {qb[2]:.4f}]".ljust(37)
            + f"{100 * worse:+7.2f}% {100 * spread(values['A']):6.2f}%/{100 * spread(values['B']):.2f}%"
            + f" {100 * meta['bound']:5.1f}%"
            + ("" if ok else "  OVER")
        )
    runs_all = [r for rs in sets.values() for r in rs]
    for label, index in (("cpu_ms", 0), ("handoff_us", 1)):
        values = [r["probe"][index + k] for r in runs_all for k in (0, 2) if r["probe"]]  # type: ignore[index]
        if values:
            print(f"host probe {label} over all runs: median {statistics.median(values):.3f}, "
                  f"min {min(values):.3f}, max {max(values):.3f}")
    print(json.dumps({"workload": workload, "runs": {k: v for k, v in sets.items()}}))
    return verdict
