"""Stdlib HTTP/SSE host for the ops dashboard.

The server is a deliberately thin shell: every ``/api`` response comes
from :func:`repro.ops.routes.resolve` (pure) through
:func:`respond` (pure), and the SSE ``/events`` stream is
:func:`stream_events` writing to any file-like object — the live
server hands it the socket's ``wfile`` and a sleeping cadence, the
tests hand it a ``BytesIO`` and a counting cadence.  Nothing in this
module computes a payload.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from repro.ops.artifacts import RunModel
from repro.ops.routes import RouteError, canonical_bytes, resolve
from repro.ops.tail import JsonlTail, format_sse
from repro.rundir import MERGED

#: Default seconds between SSE polls of the trace file.
DEFAULT_POLL_S = 0.5


@dataclass(frozen=True)
class Response:
    """One fully-rendered HTTP response."""

    status: int
    content_type: str
    body: bytes


def static_html() -> bytes:
    """The single-file dashboard page, shipped as package data."""
    return (resources.files(__package__) / "static"
            / "index.html").read_bytes()


def respond(model: RunModel, path: str) -> Response:
    """Pure request -> response mapping for everything except SSE."""
    clean = urlsplit(path).path
    if clean in ("/", "/index.html"):
        return Response(200, "text/html; charset=utf-8", static_html())
    try:
        payload = resolve(model, clean)
    except RouteError as exc:
        return Response(exc.status, "application/json",
                        canonical_bytes({"error": exc.message,
                                         "status": exc.status}))
    return Response(200, "application/json", canonical_bytes(payload))


def stream_events(wfile, tail: JsonlTail,
                  cadence: Callable[[], bool],
                  max_events: Optional[int] = None) -> int:
    """Pump SSE frames from ``tail`` into ``wfile``; returns the count.

    ``cadence()`` runs between polls and returns False to stop — the
    live server sleeps there, tests count there.  ``max_events`` bounds
    the stream (used by tests and ``/events?limit=N``).
    """
    sent = 0
    while True:
        for event in tail.poll():
            wfile.write(format_sse(event))
            sent += 1
            if max_events is not None and sent >= max_events:
                return sent
        try:
            wfile.flush()
        except (ValueError, OSError):
            return sent
        if not cadence():
            return sent


def _sleep_cadence() -> bool:
    time.sleep(DEFAULT_POLL_S)
    return True


class OpsHandler(BaseHTTPRequestHandler):
    """Request glue.  Configuration arrives via class attributes set by
    :class:`OpsServer` (or by the fake-socket tests)."""

    server_version = "darpa-ops/1"
    protocol_version = "HTTP/1.0"

    # Injected configuration:
    model: RunModel = None  # type: ignore[assignment]
    trace_path: str = ""
    cadence: Callable[[], bool] = staticmethod(_sleep_cadence)
    max_events: Optional[int] = None

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if urlsplit(self.path).path == "/events":
            self._serve_events()
            return
        response = respond(self.model, self.path)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        self.wfile.write(response.body)

    def _serve_events(self) -> None:
        query = parse_qs(urlsplit(self.path).query)
        cursor = 0
        header = self.headers.get("Last-Event-ID")
        if header is not None:
            cursor = int(header)
        elif "cursor" in query:
            cursor = int(query["cursor"][0])
        limit = self.max_events
        if "limit" in query:
            limit = int(query["limit"][0])
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            stream_events(self.wfile, JsonlTail(self.trace_path, cursor),
                          self.cadence, max_events=limit)
        # A vanished SSE client is the normal end of a stream, not a
        # fault: the client's Last-Event-ID resumes it losslessly.
        except (BrokenPipeError, ConnectionResetError):  # darpalint: disable=DL005
            pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test/CLI output deterministic


class OpsServer:
    """A configured ``ThreadingHTTPServer`` over one run directory."""

    def __init__(self, model: RunModel, run_dir: str,
                 host: str = "127.0.0.1", port: int = 0,
                 cadence: Optional[Callable[[], bool]] = None,
                 max_events: Optional[int] = None):
        handler = type("BoundOpsHandler", (OpsHandler,), {
            "model": model,
            "trace_path": os.path.join(run_dir, MERGED["trace"]),
            "cadence": staticmethod(cadence or _sleep_cadence),
            "max_events": max_events,
        })
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


__all__ = [
    "DEFAULT_POLL_S",
    "Response",
    "static_html",
    "respond",
    "stream_events",
    "OpsHandler",
    "OpsServer",
]
