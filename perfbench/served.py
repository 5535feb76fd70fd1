"""The three served workloads: a real ``repro-olap serve`` process driven
by the closed-loop generator.

One pass = launch(es), timed phase, shutdown.  ``setup_s`` is the median
of :data:`common.SETUP_REPEATS` launches, each timed from ``Popen`` to
the moment the connection is open and its schemas registered - the
instant the first timed request could go out - and scaled to the
reference host by the probes just before and after it.  Launches
alternate the server between the two vCPUs, as the timed slices do.  A
traced pass launches the same CLI arguments through ``launcher.py``
instead.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import common
import inputs
from common import Placement, Slice
from inputs import Op, ServedInputs
from loadgen import Connection, Record, closed_loop

#: Global CLI flags per workload (``{cache}`` is the pass's cache dir).
CLI_FLAGS = {
    "warm-mix": ["--cache-dir", "{cache}"],
    "cold-audit": [],
    "edit-churn": ["--engine", "compiled"],
}
#: ``peak_rss_mb`` is the server's ``VmHWM`` after this many timed
#: replies (or at the end of a shorter pass): a fixed amount of work, so
#: it does not grow with how fast the host ran the pass (cold-audit
#: registers a new tenant every few requests).
RSS_AFTER_REQUESTS = 2000


class Server:
    """One launched server process; given a ``placement``, moved to
    vCPU ``cpu`` as soon as it is spawned."""

    def __init__(
        self,
        workload: str,
        workdir: Path,
        ledger: Optional[Path],
        placement: Optional[Placement] = None,
        cpu: int = 0,
    ) -> None:
        flags = [f.format(cache=workdir / "cache") for f in CLI_FLAGS[workload]]
        cli_args = [*flags, "serve", "--port", "0"]
        if ledger is None:
            command = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            command = [
                sys.executable, str(common.BENCH_DIR / "launcher.py"),
                str(ledger), "--", *cli_args,
            ]
        self.log = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=common.program_env(),
            cwd=str(common.ROOT),
        )
        if placement is not None:
            placement.pin_process(self.proc.pid, cpu)
        line = self.proc.stdout.readline().decode()  # type: ignore[union-attr]
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def shutdown(self, connections: List[Connection]) -> None:
        try:
            control = Connection(self.port, iter(()))
            control.call(Op("shutdown", ()))
            control.close()
        except OSError:
            pass
        for conn in connections:
            conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.close()

    def close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


@dataclass
class PassResult:
    records: List[Record]
    #: The slices of the timed phase (CPU time is the server's).
    slices: List[Slice]
    #: Set-up times, scaled to the reference host.
    setup_times: List[float]
    rss_mb: float
    schemas: Dict[str, object] = field(default_factory=dict)
    sizes: Dict[str, object] = field(default_factory=dict)
    ledger: Optional[Dict[str, object]] = None

    @property
    def timed_seconds(self) -> float:
        """Wall time of the timed slices, the probes between them left out."""
        return sum(s.end - s.start for s in self.slices)


def build_inputs(workload: str, seed: int, seconds: float) -> ServedInputs:
    if workload == "warm-mix":
        return inputs.warm_mix(seed, common.CONNECTIONS)
    if workload == "edit-churn":
        return inputs.edit_churn(seed, common.CONNECTIONS)
    # Generate the blocks a run is expected to need before timing
    # starts; the tail, if any, is generated inside the loop.
    return inputs.cold_audit(seed, common.CONNECTIONS, prefill=int(12 * seconds) + 4)


def prime_cache(workload: str, data: ServedInputs, workdir: Path) -> None:
    """Warm-mix: decide every distinct request once, then stop the
    server so it persists the cache the timed launches restart from."""
    server = Server(workload, workdir, None)
    conn = Connection(server.port, iter(()))
    for op in data.preloads[0] + data.prime:
        reply = conn.call(op)
        if reply.get("status") != "ok":
            raise RuntimeError(f"priming failed: {reply}")
    server.shutdown([conn])


def run_pass(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    traced: bool,
    setup_repeats: int,
) -> PassResult:
    data = build_inputs(workload, seed, seconds)
    if workload == "warm-mix" and not (workdir / "cache").exists():
        prime_cache(workload, data, workdir)
    placement = Placement()
    setup_times: List[float] = []
    ledger_path = workdir / "ledger.json" if traced else None
    for attempt in range(setup_repeats):
        last = attempt == setup_repeats - 1
        before = placement.probe()
        placement.pin_self(placement.cpus[(attempt + 1) % 2])
        start = time.perf_counter()
        server = Server(
            workload, workdir, ledger_path if last else None, placement, placement.cpus[attempt % 2]
        )
        try:
            conn = Connection(server.port, data.streams[0])
            for op in data.preloads[0]:
                if conn.call(op).get("status") != "ok":
                    raise RuntimeError(f"preload of {op.tenant} failed")
            elapsed = time.perf_counter() - start
            setup_times.append(
                elapsed * common.speed_factor(before, placement.probe(), placement.cpus)
            )
        except BaseException:
            server.kill()
            raise
        if not last:
            server.shutdown([conn])
    rss: List[float] = []

    def on_request(replies: int) -> None:
        if not rss and replies >= RSS_AFTER_REQUESTS:
            rss.append(common.peak_rss_mb(server.pid))

    try:
        if traced:
            conn.call(Op("stats", ()))
        records, slices = closed_loop(conn, seconds, server.pid, placement, on_request)
        if not rss:
            rss.append(common.peak_rss_mb(server.pid))
        if traced:
            conn.call(Op("stats", ()))
    except BaseException:
        server.kill()
        raise
    server.shutdown([conn])
    result = PassResult(records, slices, setup_times, rss[0], data.schemas, data.sizes)
    if ledger_path is not None:
        result.ledger = json.loads(ledger_path.read_text())
        ledger_path.unlink()
    return result


def fresh_workdir(workload: str) -> Path:
    path = common.OUT / f"{workload}-{int(time.time() * 1000)}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
