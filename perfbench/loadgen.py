"""The closed-loop load generator: one thread, one connection.

The connection has one request outstanding; the next goes out as soon
as its reply is in.  Frames are the server's wire protocol (4-byte
big-endian length, compact JSON); the generator encodes them itself so
the program's codec is measured only on the server side.
"""

from __future__ import annotations

import gc
import json
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from common import SLICE_SECONDS, Placement, Slice, cpu_seconds, speed_factor
from inputs import Op

_HEADER = struct.Struct(">I")


def encode(document: Dict[str, object]) -> bytes:
    payload = json.dumps(document, separators=(",", ":"), sort_keys=True).encode()
    return _HEADER.pack(len(payload)) + payload


class Connection:
    """One blocking socket plus the tenant fingerprints it has learnt."""

    def __init__(self, port: int, stream: Iterator[Op]) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = stream
        self.fingerprints: Dict[str, str] = {}
        self.buffer = bytearray()

    def resolve(self, op: Op, request_id: int) -> Dict[str, object]:
        document = op.document()
        fingerprint = document.get("fingerprint")
        if isinstance(fingerprint, str) and fingerprint.startswith("$"):
            document["fingerprint"] = self.fingerprints[fingerprint[1:]]
        document["id"] = request_id
        return document

    def learn(self, op: Op, reply: Dict[str, object]) -> None:
        if op.op in ("load-schema", "edit") and reply.get("status") == "ok":
            self.fingerprints[op.tenant] = reply["fingerprint"]  # type: ignore[index]

    def take_frame(self) -> Optional[bytes]:
        if len(self.buffer) < 4:
            return None
        (length,) = _HEADER.unpack_from(self.buffer)
        if len(self.buffer) < 4 + length:
            return None
        payload = bytes(self.buffer[4:4 + length])
        del self.buffer[:4 + length]
        return payload

    def call(self, op: Op, request_id: int = 0) -> Dict[str, object]:
        """One blocking round trip."""
        self.sock.sendall(encode(self.resolve(op, request_id)))
        while True:
            payload = self.take_frame()
            if payload is not None:
                reply = json.loads(payload)
                self.learn(op, reply)
                return reply
            chunk = self.sock.recv(262144)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer.extend(chunk)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Record:
    """One timed request: send and reply times on the host's monotonic
    clock (the server's trace uses the same clock)."""

    request_id: int
    op: Op
    sent: float
    replied: float
    status: str
    reply: Dict[str, object] = field(repr=False)
    #: The slice of the timed phase the request was sent in.
    slice: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.replied - self.sent) * 1000.0


def closed_loop(
    conn: Connection,
    seconds: float,
    server_pid: int,
    placement: Placement,
    on_request: Callable[[int], None],
) -> Tuple[List[Record], List[Slice]]:
    """Drive ``conn`` until its slices add up to ``seconds``; returns the
    records and the slices.

    Each slice of :data:`common.SLICE_SECONDS` places the server and the
    generator (:meth:`Placement.serve_slice`) and ends with the first
    reply past its end.  Between slices, with no request outstanding,
    the host-speed probe runs on both vCPUs, untimed.
    ``on_request(replies so far)`` runs after every reply.
    """
    records: List[Record] = []
    slices: List[Slice] = []
    # A collection pass over the growing record list would stall the
    # generator mid-request and show up as server latency.
    gc.collect()
    gc.disable()
    before = placement.probe()
    measured = 0.0
    while measured < seconds:
        index = len(slices)
        placement.serve_slice(index, server_pid)
        cpu = cpu_seconds(server_pid)
        start = replied = time.perf_counter()
        end = start + SLICE_SECONDS
        while replied < end:
            request_id = len(records) + 1
            op = next(conn.stream)
            sent = time.perf_counter()
            reply = conn.call(op, request_id)
            replied = time.perf_counter()
            records.append(
                Record(request_id, op, sent, replied, str(reply.get("status")), reply, index)
            )
            on_request(len(records))
        cpu = cpu_seconds(server_pid) - cpu
        after = placement.probe()
        slices.append(Slice(start, replied, cpu, speed_factor(before, after, placement.cpus)))
        before = after
        measured += replied - start
    placement.release()
    gc.enable()
    return records, slices
