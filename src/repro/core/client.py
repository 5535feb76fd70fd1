"""A blocking client for the decision server.

:class:`DecisionClient` speaks the :mod:`repro.core.wire` protocol over
one plain TCP connection - requests are serial per connection, so a
caller that wants concurrency opens one client per thread (each server
connection multiplexes independently).

Two calling surfaces:

* :meth:`call` - one frame out, one frame back, verbatim.  Returns the
  raw response document whatever its ``status``; the caller owns the
  typed-status discipline (a ``busy`` or ``unknown`` is data, not an
  exception, because neither is ever a wrong verdict).
* :meth:`request` - :meth:`call` plus bounded retry on ``busy`` with
  linear backoff, which is the polite reaction to typed backpressure.

Convenience wrappers (:meth:`load_schema`, :meth:`decide`, ...) shape
the request documents so callers don't hand-build protocol dicts.
``repro-olap call`` is a thin CLI skin over this class.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Sequence, Union

from repro.core.schema import DimensionSchema
from repro.core.wire import read_frame, write_frame
from repro.errors import ReproError

__all__ = ["DecisionClient", "ServerClosed"]


class ServerClosed(ReproError):
    """The server hung up (cleanly or mid-frame) during a call."""


class DecisionClient:
    """One blocking connection to a :class:`~repro.core.server.DecisionServer`.

    Parameters
    ----------
    host, port:
        The server's bind address.
    timeout:
        Per-socket-operation timeout in seconds.
    busy_retries:
        How many times :meth:`request` re-sends after a ``busy``.
    busy_backoff_s:
        Sleep before busy retry ``n`` is ``busy_backoff_s * (n + 1)``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        busy_retries: int = 20,
        busy_backoff_s: float = 0.02,
    ) -> None:
        self.host = host
        self.port = port
        self.busy_retries = busy_retries
        self.busy_backoff_s = busy_backoff_s
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "DecisionClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The two calling surfaces
    # ------------------------------------------------------------------

    def call(self, op: str, **payload: Any) -> Dict[str, Any]:
        """One round trip; returns the response document verbatim."""
        if self._closed:
            raise ServerClosed("client already closed")
        document = {"op": op, **payload}
        try:
            write_frame(self._sock, document)
            response = read_frame(self._sock)
        except (ConnectionError, socket.timeout, OSError) as error:
            raise ServerClosed(f"server connection failed: {error}")
        if response is None:
            raise ServerClosed("server closed the connection")
        return response

    def request(self, op: str, **payload: Any) -> Dict[str, Any]:
        """:meth:`call`, retrying typed ``busy`` responses with backoff.

        A BUSY means the request was *not evaluated*, so re-sending is
        always sound.  After ``busy_retries`` exhausted attempts the
        last busy response is returned - still typed, still not a
        verdict - so callers can surface saturation instead of looping
        forever.
        """
        response = self.call(op, **payload)
        for attempt in range(self.busy_retries):
            if response.get("status") != "busy":
                return response
            time.sleep(self.busy_backoff_s * (attempt + 1))
            response = self.call(op, **payload)
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers (one per wire op)
    # ------------------------------------------------------------------

    def load_schema(self, schema: Union[DimensionSchema, str]) -> str:
        """Register a schema (object or JSON text); returns its
        fingerprint, raising on a non-ok response."""
        if isinstance(schema, DimensionSchema):
            from repro.io.json_io import schema_to_json

            text = schema_to_json(schema)
        else:
            text = schema
        response = self.request("load-schema", schema_json=text)
        if response.get("status") != "ok":
            raise ReproError(
                f"load-schema failed: {response.get('error', response)}"
            )
        return response["fingerprint"]

    def decide(
        self, fingerprint: str, request: Sequence[object]
    ) -> Dict[str, Any]:
        return self.request(
            "decide",
            fingerprint=fingerprint,
            request=[
                list(part) if isinstance(part, tuple) else part
                for part in request
            ],
        )

    def implies(self, fingerprint: str, constraint: str) -> Dict[str, Any]:
        return self.request(
            "implies", fingerprint=fingerprint, constraint=constraint
        )

    def summarizable(
        self, fingerprint: str, target: str, sources: Sequence[str]
    ) -> Dict[str, Any]:
        return self.request(
            "summarizable",
            fingerprint=fingerprint,
            target=target,
            sources=list(sources),
        )

    def navigate(
        self,
        fingerprint: str,
        target: str,
        materialized: Sequence[str],
        max_sources: int = 3,
    ) -> Dict[str, Any]:
        return self.request(
            "navigate",
            fingerprint=fingerprint,
            target=target,
            materialized=list(materialized),
            max_sources=max_sources,
        )

    def edit(self, fingerprint: str, action: str, **args: Any) -> Dict[str, Any]:
        return self.request(
            "edit", fingerprint=fingerprint, action=action, **args
        )

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop gracefully; returns its ack."""
        return self.call("shutdown")
