"""A small blocking client for the serve daemon's NDJSON protocol.

Used by ``repro serve send``, the latency benchmark, and the CI smoke
driver.  One client holds one connection; :meth:`request` is strictly
send-one-read-one, so responses correlate trivially.  For concurrent
load, open one client per in-flight request (connections are cheap
next to planning) — the daemon interleaves responses by completion
order within a connection, which a lockstep client never observes.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..errors import ReproError
from .protocol import decode_frame, encode_frame, error_from_payload

__all__ = ["RetryBackoff", "ServeClient"]


@dataclass(frozen=True)
class RetryBackoff:
    """The backoff schedule ``repro serve send --retry-on`` follows.

    The daemon's backpressure errors (shed: exit 78, draining: 79)
    carry a ``retry_after`` hint; when present it **is** the delay —
    the server knows its own refill rate and drain deadline better than
    any client-side guess.  Without a hint the schedule is capped
    exponential: ``base * 2**attempt``, clamped to ``max_delay``.
    """

    base: float = 0.05
    max_delay: float = 5.0

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to wait before retry *attempt* (0-based)."""
        if retry_after is not None and retry_after >= 0:
            return min(float(retry_after), self.max_delay)
        return min(self.base * (2.0 ** attempt), self.max_delay)


class ServeClient:
    """Blocking NDJSON client over TCP or a Unix socket."""

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        unix_socket: str | None = None,
        timeout: float | None = 30.0,
    ) -> None:
        if unix_socket is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(unix_socket)
        else:
            if host is None or port is None:
                raise ValueError("host and port (or unix_socket) required")
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")

    # -- plumbing -----------------------------------------------------------
    def send(self, payload: Mapping[str, Any]) -> None:
        self._file.write(encode_frame(payload))
        self._file.flush()

    def recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return decode_frame(line)

    def request(self, payload: Mapping[str, Any]) -> dict:
        """Send one frame, read one response."""
        self.send(payload)
        return self.recv()

    def request_with_retry(
        self,
        payload: Mapping[str, Any],
        *,
        retry_on: Iterable[int] = (78, 79),
        max_retries: int = 5,
        backoff: RetryBackoff | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> tuple[dict, int]:
        """Like :meth:`request`, riding out sheds and drains.

        Re-sends *payload* while the daemon answers with an error whose
        ``exit_code`` is in *retry_on* (by default 78 = load shed and
        79 = draining), waiting :meth:`RetryBackoff.delay` between
        attempts and honoring the server's ``retry_after`` hint when
        one rides on the error.  Returns ``(response, retries)`` —
        the final response (which may still be an error, once
        *max_retries* is spent) and how many retries were taken.
        ``sleep`` is injectable so tests can pin the schedule without
        waiting it out.
        """
        schedule = backoff if backoff is not None else RetryBackoff()
        codes = frozenset(int(code) for code in retry_on)
        retries = 0
        while True:
            response = self.request(payload)
            error = response.get("error")
            if (
                response.get("status") != "error"
                or not isinstance(error, Mapping)
                or error.get("exit_code") not in codes
                or retries >= max_retries
            ):
                return response, retries
            retry_after = error.get("retry_after")
            try:
                hint = float(retry_after) if retry_after is not None else None
            except (TypeError, ValueError):
                hint = None
            sleep(schedule.delay(retries, hint))
            retries += 1

    def request_many(
        self, payloads: Iterable[Mapping[str, Any]]
    ) -> list[dict]:
        """Pipeline several frames, collect as many responses.

        Responses come back in *completion* order; callers correlate by
        ``id``.
        """
        count = 0
        for payload in payloads:
            self.send(payload)
            count += 1
        return [self.recv() for _ in range(count)]

    # -- conveniences -------------------------------------------------------
    def plan(self, query: str, **fields: Any) -> dict:
        return self.request({"query": query, **fields})

    def healthz(self) -> dict:
        return self.request({"type": "healthz"})

    def stats(self) -> dict:
        return self.request({"type": "stats"})

    def drain(self) -> dict:
        return self.request({"type": "drain"})

    def register_catalog(self, name: str, views: Iterable[str]) -> dict:
        return self.request(
            {
                "type": "catalog",
                "action": "register",
                "name": name,
                "views": list(views),
            }
        )

    def update_catalog(self, name: str, **deltas: Iterable[str]) -> dict:
        return self.request(
            {
                "type": "catalog",
                "action": "update",
                "name": name,
                **{key: list(value) for key, value in deltas.items()},
            }
        )

    def remove_catalog(self, name: str) -> dict:
        return self.request(
            {"type": "catalog", "action": "remove", "name": name}
        )

    @staticmethod
    def raise_for_response(response: Mapping[str, Any]) -> None:
        """Re-raise a daemon-side error response as its taxonomy error."""
        if response.get("status") == "error":
            error = response.get("error")
            if isinstance(error, Mapping):
                raise error_from_payload(error)
            raise ReproError(str(error))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
