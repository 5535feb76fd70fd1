"""Shared helpers: checkout paths, the host-speed probe, process stats,
percentiles, and the metric tables every workload reports against."""

from __future__ import annotations

import json
import os
import queue
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root .gitignore).
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("warm-mix", "cold-audit", "edit-churn", "olap-answer")
SERVED = ("warm-mix", "cold-audit", "edit-churn")
#: Closed loop: one generator thread, this many connections, one
#: outstanding request per connection.  One: the server answers on one
#: interpreter thread at a time, so a second connection added no
#: throughput, only queueing and a second busy vCPU.
CONNECTIONS = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_program() -> None:
    """Exit non-zero unless the program's source is in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for a child process that runs the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------


def _reference_loop() -> int:
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    return total


def _handoff_us(rounds: int = 2000) -> float:
    """Mean round trip of a token between two threads, in microseconds."""
    ping: "queue.SimpleQueue[int]" = queue.SimpleQueue()
    pong: "queue.SimpleQueue[int]" = queue.SimpleQueue()

    def echo() -> None:
        for _ in range(rounds):
            pong.put(ping.get())

    thread = threading.Thread(target=echo)
    thread.start()
    start = time.perf_counter()
    for index in range(rounds):
        ping.put(index)
        pong.get()
    elapsed = time.perf_counter() - start
    thread.join()
    return elapsed / rounds * 1e6


def host_probe(repeats: int = 7) -> Dict[str, float]:
    """Fixed reference work, timed before and after every run.

    ``cpu_ms`` is the median wall time of a pure-Python loop; ``handoff_us``
    the mean thread-to-thread round trip (the served workloads hand every
    request across threads).  Both move with the host and never with the
    program, so they tell host drift from a code change.  A diagnostic,
    not a metric.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_loop()
        times.append((time.perf_counter() - start) * 1000.0)
    return {"cpu_ms": statistics.median(times), "handoff_us": _handoff_us()}


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, min(len(ordered), int(round(q / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``statistics.quantiles(values, n=4)``: Q1, median, Q3."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


#: The timed phase is cut into slices this long; the host-speed probe
#: runs between slices, outside the timed time.
SLICE_SECONDS = 0.25
#: What the probe loop takes on the reference host, in ms.  Every timed
#: figure is scaled to this host speed (see :func:`speed_factor`); the
#: value is about what a 2.1 GHz Xeon vCPU takes in its faster state.
REFERENCE_PROBE_MS = 1.5
_PROBE_ITERATIONS = 20_000


def _probe_ms() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_ITERATIONS):
        total += (i * i) % 7
    return (time.perf_counter() - start) * 1000.0


class Placement:
    """Where the timed work runs, and how fast the host runs there.

    On a shared host each vCPU drifts in speed on its own, by up to
    half, for seconds to minutes at a time, and a pure-Python loop timed
    on a vCPU tracks that vCPU's speed.  So the timed work runs on known
    vCPUs - two of the benchmark's affinity set, or one twice if it has
    one - and :meth:`probe` times the reference loop on each of them
    between slices.  If affinity cannot be set, the work floats and the
    probe runs wherever this thread is.
    """

    def __init__(self) -> None:
        self.home = sorted(os.sched_getaffinity(0))
        self.cpus = (self.home * 2)[:2]
        try:
            os.sched_setaffinity(0, set(self.home))
            self.pinned = True
        except OSError:
            self.pinned = False

    def pin_self(self, cpu: int) -> None:
        if self.pinned:
            os.sched_setaffinity(0, {cpu})

    def pin_process(self, pid: int, cpu: int) -> None:
        """Move every thread of ``pid`` to ``cpu``."""
        if not self.pinned:
            return
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:  # the process has ended
            return
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:  # the thread has just ended
                pass

    def release(self) -> None:
        if self.pinned:
            os.sched_setaffinity(0, set(self.home))

    def probe(self, cpus: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Probe time in ms on each of ``cpus`` (by default :attr:`cpus`),
        the faster of two tries so one preemption does not count."""
        times = {}
        for cpu in dict.fromkeys(self.cpus if cpus is None else cpus):
            self.pin_self(cpu)
            times[cpu] = min(_probe_ms(), _probe_ms())
        return times

    def serve_slice(self, index: int, server_pid: int) -> None:
        """Slice ``index`` of a served workload: the server on one vCPU,
        the generator on the other, swapped every slice so that a run
        puts the server on both alike."""
        self.pin_process(server_pid, self.cpus[index % 2])
        self.pin_self(self.cpus[(index + 1) % 2])


def speed_factor(before: Dict[int, float], after: Dict[int, float], cpus: Sequence[int]) -> float:
    """Reference host speed over the host's speed on ``cpus`` between
    probe ``before`` and probe ``after``: a time measured in between,
    times this, is the time on the reference host."""
    probes = [side[cpu] for side in (before, after) for cpu in cpus]
    return REFERENCE_PROBE_MS / statistics.mean(probes)


@dataclass
class Slice:
    """One slice of a timed phase."""

    start: float
    end: float
    #: CPU seconds the measured process spent in the slice.
    cpu_seconds: float
    #: :func:`speed_factor` over the slice.
    factor: float


#: One op answered ``ok``: ``(slice index, latency_ms, kind)``, where
#: ``kind`` is ``"decision"``, ``"write"`` or ``"other"``.
TimedOp = Tuple[int, float, str]


def end_to_end_metrics(
    *, setup_times: Sequence[float], ops: Sequence[TimedOp], slices: Sequence[Slice],
    rss_mb: float,
) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics every workload prints, by name and unit.

    Every time is scaled to the reference host: each op's latency and
    each slice's length and CPU time by that slice's
    :func:`speed_factor` (``setup_times`` come scaled by the factor
    probed around each set-up).  A code change moves a time and not the
    probe, so it shows in full; host drift moves both and cancels.

    ``latency_p99_ms`` is printed but kept out of ``BENCHMARK.json``: its
    same-code spread on a 2-vCPU host is wider than any usable bound.
    """
    factors = [s.factor for s in slices]
    decisions = [ms * factors[i] for i, ms, kind in ops if kind == "decision"]
    writes = [ms * factors[i] for i, ms, kind in ops if kind == "write"]
    seconds = sum((s.end - s.start) * s.factor for s in slices)
    cpu = sum(s.cpu_seconds * s.factor for s in slices)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_rps": {"value": len(ops) / seconds, "unit": "req/s"},
        "latency_p50_ms": {"value": percentile(decisions, 50), "unit": "ms"},
        "latency_p99_ms": {"value": percentile(decisions, 99), "unit": "ms"},
        # A pass of a second or two may hold no write (olap-answer
        # appends every hundred ops); a contract-length run always does.
        "write_latency_p50_ms": {"value": percentile(writes, 50) if writes else 0.0, "unit": "ms"},
        "cpu_ms_per_req": {"value": cpu * 1000.0 / max(1, len(ops)), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
