"""Deterministic, seedable fault injection for the decision stack.

A production decision service fails in ways the paper's offline setting
never exercises: a decision dies mid-search, a decision hangs long
enough to blow a deadline, an I/O call fails transiently, the cache
store hiccups.  This module simulates exactly those failures
*on demand*, so the resilience layer (:mod:`repro.core.resilience`) can
be tested against them and latent bugs in the fault-free paths get
flushed out.

Fault kinds
-----------

``worker-crash``
    A decision dies with :class:`InjectedFault` (an ``OSError``) at the
    worker checkpoint - the moral equivalent of a killed worker.  Every
    computed (not cached) engine decision passes that checkpoint once,
    and so does every attempt on the resilience ladder's sequential rung.
``slow-worker``
    The worker checkpoint sleeps ``delay_ms`` before proceeding; combined
    with a :class:`~repro.core.budget.DecisionBudget` deadline this
    manufactures timeouts.
``oserror``
    A transient :class:`InjectedFault` (``OSError``) - the flaky-I/O
    failure a retry is expected to absorb.
``cache-store``
    :class:`CacheStoreFault` at the decision cache's store step.  The
    cache treats a failed store as pure degradation: the computed verdict
    is still returned, nothing (and in particular nothing *wrong*) is
    stored.

Spec grammar (the CLI's ``--inject-faults``)
--------------------------------------------

Clauses separated by ``;``; each clause is a fault kind optionally
followed by ``:field=value`` pairs separated by ``,``::

    worker-crash:p=0.3;cache-store:p=0.5;seed=42
    slow-worker:delay_ms=50,p=1.0
    oserror:p=1.0,after=10,times=3

Fields: ``p`` (fire probability per opportunity, default 1.0), ``after``
(skip the first N opportunities), ``times`` (max fires), ``delay_ms``
(slow-worker sleep), and a standalone ``seed=N`` clause (or a ``seed``
field on any clause) fixing the injector seed.

Determinism
-----------

Whether opportunity *n* of a fault kind fires is a pure function of
``(seed, kind, n)`` - a CRC32 draw, no process-randomized hashing, no
shared RNG state - so a fault schedule replays identically for a given
seed regardless of thread interleaving (threads may race for opportunity
*indexes*, but the set of firing indexes is fixed).

Injection points check the process-wide :data:`FAULTS` gate, which costs
one attribute read and a ``None`` check when no injector is active
(the same always-cheap pattern as :data:`repro.core.trace.TRACER`).
Activate an injector for a region with :func:`inject_faults`::

    with inject_faults("worker-crash:p=0.5;seed=7"):
        decide_many(engine, batch)   # some workers now crash
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.core.metrics import METRICS
from repro.errors import ReproError


class FaultSpecError(ReproError):
    """A ``--inject-faults`` spec string could not be parsed."""


class InjectedFault(OSError):
    """A fault fired by the injection harness.

    Subclasses :class:`OSError` so the retry ladder's transient-error
    classification treats injected faults exactly like the real failures
    they stand in for.
    """

    def __init__(self, kind: str, site: str) -> None:
        super().__init__(f"injected fault {kind!r} at site {site!r}")
        self.kind = kind
        self.site = site


class CacheStoreFault(InjectedFault):
    """The decision cache's store step failed (injected)."""


#: Recognized fault kinds and the site each one fires at.
FAULT_KINDS: Dict[str, str] = {
    "worker-crash": "worker",
    "slow-worker": "worker",
    "oserror": "worker",
    "cache-store": "cache_store",
}


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault spec.

    ``probability`` is the chance each opportunity fires, ``after`` skips
    the first N opportunities (letting a batch start healthy and fail
    mid-flight), ``max_fires`` caps total fires, and ``delay_ms`` is the
    slow-worker sleep.
    """

    kind: str
    probability: float = 1.0
    after: int = 0
    max_fires: Optional[int] = None
    delay_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.after < 0:
            raise FaultSpecError("'after' must be non-negative")
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultSpecError("'times' must be non-negative")
        if self.delay_ms < 0:
            raise FaultSpecError("'delay_ms' must be non-negative")


def _draw(seed: int, kind: str, opportunity: int) -> float:
    """The deterministic uniform draw for one fault opportunity."""
    digest = zlib.crc32(f"{seed}:{kind}:{opportunity}".encode("utf-8"))
    return (digest % 1_000_000) / 1_000_000.0


class FaultInjector:
    """A seeded set of fault rules with per-kind opportunity counters.

    Thread-safe; one injector may serve a whole concurrent batch.  The
    per-kind counters give every opportunity a stable index, and
    :func:`_draw` decides firing from ``(seed, kind, index)`` alone.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        if not rules:
            raise FaultSpecError("a fault injector needs at least one rule")
        kinds = [rule.kind for rule in rules]
        if len(set(kinds)) != len(kinds):
            raise FaultSpecError("duplicate fault kinds in one spec")
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._opportunities: Dict[str, int] = {rule.kind: 0 for rule in rules}
        self._fires: Dict[str, int] = {rule.kind: 0 for rule in rules}
        self._worker_rules = tuple(
            rule for rule in self.rules if FAULT_KINDS[rule.kind] == "worker"
        )
        self._cache_rules = tuple(
            rule for rule in self.rules if FAULT_KINDS[rule.kind] == "cache_store"
        )

    def _should_fire(self, rule: FaultRule) -> bool:
        with self._lock:
            index = self._opportunities[rule.kind]
            self._opportunities[rule.kind] = index + 1
            if index < rule.after:
                return False
            if rule.max_fires is not None and self._fires[rule.kind] >= rule.max_fires:
                return False
            if _draw(self.seed, rule.kind, index) >= rule.probability:
                return False
            self._fires[rule.kind] += 1
        METRICS.counter(f"faults.{rule.kind}").inc()
        return True

    # ------------------------------------------------------------------
    # Sites (called through the FAULTS gate)
    # ------------------------------------------------------------------

    def worker(self) -> None:
        """The per-decision worker checkpoint: may sleep or raise."""
        for rule in self._worker_rules:
            if not self._should_fire(rule):
                continue
            if rule.kind == "slow-worker":
                time.sleep(rule.delay_ms / 1000.0)
            else:
                raise InjectedFault(rule.kind, "worker")

    def cache_store(self) -> None:
        """The decision cache's store step: may raise."""
        for rule in self._cache_rules:
            if self._should_fire(rule):
                raise CacheStoreFault(rule.kind, "cache_store")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fired(self) -> Dict[str, int]:
        """Fires per fault kind so far."""
        with self._lock:
            return dict(self._fires)

    def opportunities(self) -> Dict[str, int]:
        """Opportunities seen per fault kind so far."""
        with self._lock:
            return dict(self._opportunities)

    def __repr__(self) -> str:
        clauses = ", ".join(rule.kind for rule in self.rules)
        return f"FaultInjector(seed={self.seed}, rules=[{clauses}])"


def parse_fault_spec(spec: str) -> FaultInjector:
    """Parse the ``--inject-faults`` grammar into a :class:`FaultInjector`.

    >>> injector = parse_fault_spec("worker-crash:p=0.5;seed=7")
    >>> injector.seed
    7
    >>> [rule.kind for rule in injector.rules]
    ['worker-crash']
    """
    seed = 0
    rules = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = _int_field("seed", clause[len("seed="):])
            continue
        head, _, rest = clause.partition(":")
        kind = head.strip()
        fields: Dict[str, str] = {}
        if rest.strip():
            for pair in rest.split(","):
                name, sep, value = pair.partition("=")
                if not sep:
                    raise FaultSpecError(
                        f"bad fault field {pair!r} in clause {clause!r}; "
                        "expected name=value"
                    )
                fields[name.strip()] = value.strip()
        if "seed" in fields:
            seed = _int_field("seed", fields.pop("seed"))
        kwargs: Dict[str, object] = {}
        if "p" in fields:
            kwargs["probability"] = _float_field("p", fields.pop("p"))
        if "after" in fields:
            kwargs["after"] = _int_field("after", fields.pop("after"))
        if "times" in fields:
            kwargs["max_fires"] = _int_field("times", fields.pop("times"))
        if "delay_ms" in fields:
            kwargs["delay_ms"] = _float_field("delay_ms", fields.pop("delay_ms"))
        if fields:
            raise FaultSpecError(
                f"unknown fault fields {sorted(fields)} in clause {clause!r}; "
                "expected p, after, times, delay_ms, seed"
            )
        rules.append(FaultRule(kind, **kwargs))  # type: ignore[arg-type]
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} declares no faults")
    return FaultInjector(rules, seed=seed)


def _float_field(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultSpecError(f"fault field {name}={value!r} is not a number") from None


def _int_field(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FaultSpecError(f"fault field {name}={value!r} is not an integer") from None


class _FaultGate:
    """The process-wide injection gate every fault site checks.

    ``injector`` is ``None`` almost always; the site methods then return
    after one attribute read, so production paths pay nothing measurable.
    """

    __slots__ = ("injector",)

    def __init__(self) -> None:
        self.injector: Optional[FaultInjector] = None

    @property
    def active(self) -> bool:
        return self.injector is not None

    def worker(self) -> None:
        injector = self.injector
        if injector is not None:
            injector.worker()

    def cache_store(self) -> None:
        injector = self.injector
        if injector is not None:
            injector.cache_store()


#: The process-wide fault gate (inactive unless :func:`inject_faults` or
#: the CLI's ``--inject-faults`` arms it).
FAULTS = _FaultGate()


@contextmanager
def inject_faults(
    spec: Union[str, FaultInjector],
) -> Iterator[FaultInjector]:
    """Arm the process-wide fault gate for a region.

    Accepts a spec string (parsed with :func:`parse_fault_spec`) or a
    prebuilt :class:`FaultInjector`.  Restores the previous injector on
    exit, so fault regions nest.
    """
    injector = parse_fault_spec(spec) if isinstance(spec, str) else spec
    previous = FAULTS.injector
    FAULTS.injector = injector
    try:
        yield injector
    finally:
        FAULTS.injector = previous
