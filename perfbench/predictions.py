"""Check the per-layer predictions: each layer does most of its work on
the workload where it should move an end-to-end metric, and little on
its bypass workload.

Runs every workload traced once (same seed), then prints, per layer, its
share of the mean request time on each workload and whether the
prediction holds.  A layer's share is its self time per request over the
sum of all rows (which is the mean request latency).  A prediction holds
when the "moves" share is at least three times the bypass share.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import aa
import common

#: layer row -> (the self-time metrics summed, moves workloads, bypass workloads)
ROWS: List[Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]] = [
    ("wire", ("wire.self_ms",), ("warm-mix",), ("cold-audit",)),
    ("server", ("server.self_ms",), ("warm-mix",), ("olap-answer",)),
    ("resilience", ("resilience.self_ms",), common.SERVED, ("olap-answer",)),
    ("decisioncache", ("decisioncache.self_ms",), ("warm-mix", "edit-churn"), ("cold-audit",)),
    ("parallel", ("parallel.self_ms",), ("cold-audit",), ("warm-mix",)),
    (
        "kernel",
        ("dimsat.self_ms", "implication.self_ms", "summarizability.self_ms"),
        ("cold-audit",),
        ("warm-mix",),
    ),
    ("compile", ("compile.self_ms",), ("edit-churn",), ("cold-audit",)),
    ("satsolver", ("satsolver.self_ms",), ("edit-churn",), ("warm-mix",)),
    (
        "maintenance+provenance",
        ("maintenance.self_ms", "provenance.self_ms"),
        ("edit-churn",),
        ("warm-mix", "cold-audit", "olap-answer"),
    ),
    (
        "navigator+cubeview",
        ("navigator.self_ms", "cubeview.self_ms"),
        ("olap-answer",),
        common.SERVED,
    ),
    ("client", ("client.ms",), common.SERVED, ()),
]
SELF_METRICS = sorted({m for _row, metrics, _m, _b in ROWS for m in metrics})


def shares(metrics: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    total = sum(metrics[name]["value"] for name in SELF_METRICS)
    return {
        row: 100.0 * sum(metrics[m]["value"] for m in names) / total if total else 0.0
        for row, names, _moves, _bypass in ROWS
    }


def main(seconds: float, seed: int) -> int:
    traced = {w: aa.one_run(w, seed, seconds, trace=1) for w in common.WORKLOADS}
    table = {w: shares(r["metrics"]) for w, r in traced.items()}  # type: ignore[arg-type]
    print(f"share of the mean request time per layer (%), seed {seed}, {seconds} s")
    print(f"{'layer':24s}" + "".join(f"{w:>13s}" for w in common.WORKLOADS) + "  prediction")
    verdicts = {}
    for row, _names, moves, bypass in ROWS:
        moved = min(table[w][row] for w in moves)
        passed = max((table[w][row] for w in bypass), default=0.0)
        holds = moved > 0 and moved >= 3 * passed
        verdicts[row] = {"moves": list(moves), "bypass": list(bypass),
                         "moves_share_pct": moved, "bypass_share_pct": passed,
                         "holds": holds}
        print(f"{row:24s}" + "".join(f"{table[w][row]:13.2f}" for w in common.WORKLOADS)
              + f"  {'holds' if holds else 'FAILS'}")
    overhead = {w: r["metrics"]["trace.overhead_pct"]["value"] for w, r in traced.items()}  # type: ignore[index]
    gaps = {w: r["metrics"]["ledger.gap_pct"]["value"] for w, r in traced.items()}  # type: ignore[index]
    print("tracing overhead (%): " + ", ".join(f"{w} {v:.1f}" for w, v in overhead.items()))
    print("ledger gap vs median latency (%): " + ", ".join(f"{w} {v:.2f}" for w, v in gaps.items()))
    print(json.dumps({"seed": seed, "seconds": seconds, "shares_pct": table,
                      "predictions": verdicts, "trace_overhead_pct": overhead,
                      "ledger_gap_pct": gaps,
                      "per_layer": {w: r["metrics"] for w, r in traced.items()}}))
    return 0 if all(v["holds"] for v in verdicts.values()) else 1
