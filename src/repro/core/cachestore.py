"""A persistent, verified disk store for the :class:`DecisionCache`.

Decisions are pure functions of ``(G, SIGMA)`` and the query, so warm
verdicts are worth keeping *across processes*: a restarted service (or a
CI job on the same schemas) should not re-prove what a previous run
already proved.  This module serializes a
:class:`~repro.core.decisioncache.DecisionCache` snapshot - entries,
their :class:`~repro.core.provenance.VerdictProvenance` dependency sets,
and a canonical-JSON schema sidecar per resident fingerprint - into one
file with the durability discipline the audit log established:

* **versioned**: a ``FORMAT_VERSION`` bump invalidates old files cleanly
  instead of misreading them;
* **checksummed**: a SHA-256 over the pickled payload is recorded in the
  JSON header line and re-verified on load, so a torn or tampered file is
  an error, never silently wrong verdicts;
* **atomic**: written to a temp file, fsynced, then ``os.replace``-d into
  place, so a crash mid-save leaves the previous file intact;
* **replay-verified**: :func:`load_cache` can replay every entry (keyed
  ``(fingerprint, kind, query...)``) through the plain sequential kernel
  (the same oracle ``audit-verify`` uses) and drop any divergent entry
  before the cache serves it.

Schemas ride along as canonical JSON (not pickle) and their fingerprints
are recomputed on load - the same defense
:func:`~repro.core.auditlog.load_schema_sidecar` applies to the audit
sidecar.  A loaded entry whose schema is missing or whose fingerprint
does not recompute is dropped, because it could never be rekeyed or
re-verified later.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.core.auditlog import _replay, _verdict_of
from repro.core.faults import FAULTS, CacheStoreFault
from repro.core.metrics import METRICS
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decisioncache import DecisionCache

__all__ = [
    "CacheStoreError",
    "LoadReport",
    "SaveReport",
    "cache_file_path",
    "load_cache",
    "save_cache",
]

MAGIC = "repro-decision-cache"
#: Bumped whenever the entry key or payload changes shape; entries are
#: keyed ``(fingerprint, kind, query...)``.
FORMAT_VERSION = 2
CACHE_FILENAME = "decisions.cache"

_M_SAVED = METRICS.counter("cache_persist.saved_entries")
_M_LOADED = METRICS.counter("cache_persist.loaded_entries")
_M_DROPPED = METRICS.counter("cache_persist.dropped_entries")
_M_LOAD_FAILURES = METRICS.counter("cache_persist.load_failures")


class CacheStoreError(ReproError):
    """The persistent cache file is missing required structure, fails its
    checksum, or carries an incompatible version."""


@dataclass
class SaveReport:
    """What :func:`save_cache` wrote."""

    path: str
    entries: int
    schemas: int
    bytes_written: int
    #: Entries carried over from the previous on-disk store because no
    #: in-memory entry shadowed them (two processes sharing one
    #: ``--cache-dir`` must not last-writer-win each other's verdicts).
    merged_entries: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class LoadReport:
    """What :func:`load_cache` accepted and why the rest was dropped."""

    path: str
    found: bool = False
    #: Entries installed into the cache.
    loaded: int = 0
    #: Entries already resident (or over capacity) at install time.
    not_installed: int = 0
    #: Entries replayed against the sequential kernel (``verify_replay``).
    replayed: int = 0
    #: Entries whose replayed verdict diverged from the stored one -
    #: dropped before the cache could serve them.
    dropped_divergent: int = 0
    #: Entries dropped because their schema sidecar was absent.
    dropped_missing_schema: int = 0
    schemas: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Replay found nothing divergent and no schema was missing."""
        return not self.dropped_divergent and not self.dropped_missing_schema

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        lines = [
            "cache-load:",
            f"  path             {self.path}",
            f"  found            {self.found}",
            f"  loaded           {self.loaded}",
            f"  replayed         {self.replayed}",
            f"  divergent        {self.dropped_divergent}",
            f"  missing schemas  {self.dropped_missing_schema}",
            f"  schemas          {self.schemas}",
        ]
        for divergence in self.divergences[:20]:
            lines.append(f"  DIVERGED: {divergence}")
        return "\n".join(lines)


def cache_file_path(directory: str) -> str:
    """The cache file inside ``directory``."""
    return os.path.join(directory, CACHE_FILENAME)


@contextlib.contextmanager
def _advisory_lock(path: str) -> Iterator[None]:
    """An exclusive advisory lock over one cache file's save critical
    section (``fcntl.flock`` on a ``.lock`` sidecar).

    Two processes sharing one ``--cache-dir`` - the long-lived decision
    server plus a sidecar CLI run is the canonical pair - serialize
    their read-merge-write sequences through this, so neither can merge
    against a snapshot the other is mid-way through replacing.  On
    platforms without ``fcntl`` the lock degrades to a no-op: the write
    itself stays atomic (``os.replace``), merging merely races.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    handle = open(path + ".lock", "a+b")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()


def _merge_disk_entries(
    path: str,
    entries: Dict[Tuple[object, ...], object],
    provenance: Dict[Tuple[object, ...], object],
    schema_json: Dict[str, str],
    capacity: int,
) -> int:
    """Fold the previous on-disk store into an about-to-be-saved
    snapshot (in-memory entries win per key; disk-only entries survive
    up to ``capacity``).  Returns how many disk entries were carried
    over.  A corrupt or version-skewed previous file contributes
    nothing - the save falls back to a plain overwrite.
    """
    if not os.path.exists(path):
        return 0
    try:
        disk = _read_verified_payload(path)
    except (CacheStoreError, OSError):
        # The previous file cannot be trusted; replacing it wholesale is
        # the correct degradation (the checksummed write fixes the store).
        return 0
    disk_schemas: Dict[str, str] = disk["schemas"]  # type: ignore[assignment]
    disk_provenance: Dict[Tuple[object, ...], object] = disk["provenance"]  # type: ignore[assignment]
    merged = 0
    for key, value in disk["entries"].items():  # type: ignore[union-attr]
        if key in entries or len(entries) >= capacity:
            continue
        fingerprint = key[0]
        if fingerprint not in schema_json:
            text = disk_schemas.get(fingerprint)
            if text is None:
                # Unpersistable then, unpersistable now.
                continue
            schema_json[fingerprint] = text
        entries[key] = value
        provenance[key] = disk_provenance.get(key)
        merged += 1
    return merged


def save_cache(
    cache: "DecisionCache", directory: str, merge: bool = True
) -> SaveReport:
    """Persist a consistent snapshot of ``cache`` into ``directory``.

    The write is atomic (temp file + fsync + ``os.replace``): readers see
    either the previous complete file or the new one, never a torn state.
    An injected ``cache-store`` fault aborts the save without touching
    the existing file (degradation, not corruption).

    With ``merge`` (the default), entries already on disk that this
    cache does not hold are carried into the new file instead of being
    overwritten away - the read-merge-write runs under an advisory file
    lock, so concurrent writers sharing one directory (a server plus a
    sidecar CLI) interleave their saves without losing each other's
    verdicts.  Per-key conflicts keep the in-memory value; decisions are
    deterministic, so both sides agree anyway.  ``merge=False`` restores
    the plain overwrite (e.g. after an intentional cache reset).
    """
    from repro.io.json_io import schema_to_json

    entries, provenance, schemas = cache.snapshot()
    schema_json = {
        fingerprint: schema_to_json(schema, indent=0)
        for fingerprint, schema in schemas.items()
    }
    os.makedirs(directory, exist_ok=True)
    path = cache_file_path(directory)
    tmp_path = path + ".tmp"
    with _advisory_lock(path):
        merged = 0
        if merge:
            merged = _merge_disk_entries(
                path,
                entries,
                provenance,  # type: ignore[arg-type]
                schema_json,
                capacity=max(cache.max_entries, len(entries)),
            )
        payload = pickle.dumps(
            {
                "entries": entries,
                "provenance": provenance,
                "schemas": schema_json,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        header = {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "entries": len(entries),
            "schemas": len(schema_json),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        try:
            FAULTS.cache_store()
            with open(tmp_path, "wb") as handle:
                handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                handle.write(b"\n")
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except CacheStoreFault:
            # The previous file (if any) is still intact; a failed save
            # only costs the next process a cold start.
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    _M_SAVED.inc(len(entries))
    return SaveReport(
        path=path,
        entries=len(entries),
        schemas=len(schema_json),
        bytes_written=len(payload),
        merged_entries=merged,
    )


def _read_verified_payload(path: str) -> Dict[str, object]:
    """Parse and integrity-check one cache file."""
    with open(path, "rb") as handle:
        header_line = handle.readline()
        payload = handle.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CacheStoreError(f"{path}: corrupt cache header: {error}")
    if header.get("magic") != MAGIC:
        raise CacheStoreError(f"{path}: not a decision-cache file")
    if header.get("version") != FORMAT_VERSION:
        raise CacheStoreError(
            f"{path}: cache format version {header.get('version')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CacheStoreError(
            f"{path}: payload checksum mismatch "
            f"({str(header.get('payload_sha256'))[:12]} recorded, "
            f"{digest[:12]} recomputed)"
        )
    try:
        data = pickle.loads(payload)
    except Exception as error:
        raise CacheStoreError(f"{path}: corrupt cache payload: {error}")
    if not isinstance(data, dict) or not {
        "entries",
        "provenance",
        "schemas",
    } <= set(data):
        raise CacheStoreError(f"{path}: cache payload missing sections")
    return data


def load_cache(
    cache: "DecisionCache",
    directory: str,
    verify_replay: bool = True,
) -> LoadReport:
    """Load a persisted snapshot from ``directory`` into ``cache``.

    A missing file is a cold start (``found=False``), not an error;
    corruption, version skew, or checksum failure raise
    :class:`CacheStoreError` - the caller decides whether that degrades
    to a cold start (the CLI warns and continues).

    With ``verify_replay`` (the default, and the posture the persistent
    cache ships with), every entry is recomputed on the plain sequential
    kernel before installation - the same oracle ``audit-verify`` replays
    the audit log against - and divergent entries are dropped and
    reported rather than served.
    """
    from repro.io.json_io import schema_from_json

    path = cache_file_path(directory)
    report = LoadReport(path=path)
    if not os.path.exists(path):
        return report
    report.found = True
    try:
        data = _read_verified_payload(path)
    except CacheStoreError:
        _M_LOAD_FAILURES.inc()
        raise

    schemas: Dict[str, object] = {}
    for fingerprint, text in data["schemas"].items():  # type: ignore[union-attr]
        try:
            schema = schema_from_json(text)
        except Exception as error:
            raise CacheStoreError(
                f"{path}: corrupt schema sidecar for "
                f"{str(fingerprint)[:12]}: {error}"
            )
        if schema.fingerprint() != fingerprint:
            raise CacheStoreError(
                f"{path}: schema sidecar fingerprint mismatch "
                f"({str(fingerprint)[:12]} recorded, "
                f"{schema.fingerprint()[:12]} recomputed)"
            )
        schemas[fingerprint] = schema
    report.schemas = len(schemas)

    entries: Dict[Tuple[object, ...], object] = {}
    provenance_in = data["provenance"]
    provenance: Dict[Tuple[object, ...], object] = {}
    for full_key, value in data["entries"].items():  # type: ignore[union-attr]
        fingerprint = full_key[0]
        schema = schemas.get(fingerprint)
        if schema is None:
            report.dropped_missing_schema += 1
            continue
        if verify_replay:
            request = list(full_key[1:])
            replayed = _replay(schema, request)
            report.replayed += 1
            if replayed != _verdict_of(value):
                report.dropped_divergent += 1
                report.divergences.append(
                    f"{request!r} (schema {str(fingerprint)[:12]}): "
                    f"stored {json.dumps(_verdict_of(value))} != "
                    f"replayed {json.dumps(replayed)}"
                )
                continue
        entries[full_key] = value
        provenance[full_key] = provenance_in.get(full_key)  # type: ignore[union-attr]

    installed = cache.install(entries, provenance, schemas)  # type: ignore[arg-type]
    report.loaded = installed
    report.not_installed = len(entries) - installed
    _M_LOADED.inc(installed)
    dropped = report.dropped_divergent + report.dropped_missing_schema
    if dropped:
        _M_DROPPED.inc(dropped)
    return report
