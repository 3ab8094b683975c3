"""HTTP load generation.

Each request opens its own connection and asks the server to close it, as
the shipped ``repro.server.FairNNClient`` (urllib) does.  (A keep-alive
client is slower against this server: each response is written as two
segments, and Nagle's algorithm plus the client's delayed ACK hold the
second one about 40 ms.)

The closed loop is one client that sends its next request when the last
one answered.  The open loop sends on a fixed schedule from two client
threads (the host's core count), so at most two connections are open, and
times each request from when it was *due*, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple


@dataclass
class Call:
    """One HTTP exchange as the client saw it."""

    op: str
    payload: Any
    due: float
    sent: float
    done: float
    status: Optional[int]  # None: no response (timeout, reset)
    body: Any
    sent_bytes: int
    received_bytes: int

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due to answered."""
        return self.done - self.due


def call(port: int, op: str, method: str, path: str, payload=None, due=None,
         timeout: float = 60.0) -> Call:
    """One exchange on a fresh connection; a failure is returned, not raised."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    sent = time.perf_counter()
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        status, parsed = response.status, json.loads(raw) if raw else None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raw, status, parsed = b"", None, {"error": repr(exc)}
    finally:
        connection.close()
    done = time.perf_counter()
    return Call(op, payload, sent if due is None else due, sent, done, status, parsed,
                len(body or b""), len(raw))


def closed_loop(
    port: int, steps: int, next_requests: Callable[[int], List[Tuple[str, str, str, Any]]]
) -> List[Call]:
    """Send ``next_requests(i)`` for i = 0 .. steps-1, each after the last answered.

    Each step is a short list of ``(op, method, path, payload)`` exchanges
    sent in order.
    """
    return [
        call(port, op, method, path, payload)
        for step in range(steps)
        for op, method, path, payload in next_requests(step)
    ]


def open_loop(
    port: int,
    schedule: Sequence[Tuple[float, str, str, str, Any]],
    connections: int = 2,
) -> List[Call]:
    """Send ``(offset s, op, method, path, payload)`` items on schedule."""
    calls: List[Optional[Call]] = [None] * len(schedule)
    counter = itertools.count()
    start = time.perf_counter() + 0.05

    def worker():
        while True:
            position = next(counter)
            if position >= len(schedule):
                return
            offset, op, method, path, payload = schedule[position]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            calls[position] = call(port, op, method, path, payload, due=due)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return calls
