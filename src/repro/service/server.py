"""The HTTP face of the optimization service (stdlib-only).

A :class:`ServiceServer` is a ``ThreadingHTTPServer`` routing a small REST
surface onto a :class:`~repro.service.jobs.JobManager`:

==========  ============================  =======================================
verb        path                          meaning
==========  ============================  =======================================
``GET``     ``/v1/health``                liveness + queue counters
``POST``    ``/v1/runs``                  submit a ``RunSpec`` JSON body
``POST``    ``/v1/sweeps``                submit a ``SweepSpec`` JSON body
``GET``     ``/v1/jobs``                  list all jobs (oldest first)
``GET``     ``/v1/jobs/{id}``             job status
``GET``     ``/v1/jobs/{id}/events``      NDJSON event stream (``?from=N`` to
                                          skip, ``?follow=0`` to not block)
``GET``     ``/v1/jobs/{id}/result``      result payload (409 + ``Retry-After``
                                          until terminal)
``DELETE``  ``/v1/jobs/{id}``             cooperative cancel
==========  ============================  =======================================

Malformed JSON and invalid specs answer 400 with the structured
:meth:`~repro.api.errors.SpecError.to_dict` body; unknown jobs answer 404.
The event stream stays open (one JSON object per line, flushed per event)
until the job reaches a terminal state — connection-close framing, so any
HTTP client that can iterate response lines can follow it.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.api.errors import SpecError
from repro.service.jobs import JobManager, UnknownJobError

__all__ = ["ServiceServer", "serve"]

log = logging.getLogger("repro.service")


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`JobManager`.

    Each request runs in its own thread, so long-lived event streams never
    block submissions or status polls.  ``close()`` shuts the listener and
    the manager down (owned managers only).
    """

    daemon_threads = True

    def __init__(self, address, manager: JobManager | None = None, **manager_kwargs):
        self.manager = (
            manager if manager is not None else JobManager(**manager_kwargs)
        )
        self._owns_manager = manager is None
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and (for owned managers) the job workers too."""
        self.shutdown()
        self.server_close()
        if self._owns_manager:
            self.manager.close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    # HTTP/1.0 framing: the NDJSON event stream is delimited by connection
    # close, which every urllib-level client understands without chunked
    # transfer-encoding support.
    protocol_version = "HTTP/1.0"

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log.debug("%s - %s", self.address_string(), format % args)

    def _send_json(
        self, code: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _json_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(
                400,
                {"error": "invalid_json", "reason": str(error)},
            )
            return None

    def _job(self, job_id: str):
        try:
            return self.server.manager.get(job_id)
        except UnknownJobError:
            self._send_json(404, {"error": "unknown_job", "id": job_id})
            return None

    # -- verbs -------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        if parsed.path not in ("/v1/runs", "/v1/sweeps"):
            self._send_json(404, {"error": "unknown_route", "path": parsed.path})
            return
        payload = self._json_body()
        if payload is None:
            return
        manager = self.server.manager
        try:
            if parsed.path == "/v1/runs":
                job = manager.submit_run(payload)
            else:
                job = manager.submit_sweep(payload)
        except SpecError as error:
            self._send_json(400, error.to_dict())
            return
        self._send_json(201, job.status_dict())

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts == ["v1", "health"]:
            manager = self.server.manager
            jobs = manager.list_jobs()
            self._send_json(
                200,
                {
                    "ok": True,
                    "jobs": len(jobs),
                    "active": sum(1 for job in jobs if not job.is_terminal),
                },
            )
            return
        if parts == ["v1", "jobs"]:
            self._send_json(
                200,
                {
                    "jobs": [
                        job.status_dict() for job in self.server.manager.list_jobs()
                    ]
                },
            )
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = self._job(parts[2])
            if job is not None:
                self._send_json(200, job.status_dict())
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            job = self._job(parts[2])
            if job is None:
                return
            if parts[3] == "result":
                self._get_result(job)
                return
            if parts[3] == "events":
                self._stream_events(job, parse_qs(parsed.query))
                return
        self._send_json(404, {"error": "unknown_route", "path": parsed.path})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        parts = [part for part in urlparse(self.path).path.split("/") if part]
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = self._job(parts[2])
            if job is not None:
                job = self.server.manager.cancel(job.id)
                self._send_json(202, job.status_dict())
            return
        self._send_json(404, {"error": "unknown_route", "path": self.path})

    # -- endpoint bodies ---------------------------------------------------
    def _get_result(self, job) -> None:
        if not job.is_terminal:
            # Retry-After tells well-behaved pollers how long to back off
            # (the event stream is still the no-poll way to wait).
            self._send_json(
                409,
                {
                    "error": "not_finished",
                    "id": job.id,
                    "state": job.state,
                },
                headers={"Retry-After": "1"},
            )
            return
        self._send_json(
            200,
            {
                "id": job.id,
                "kind": job.kind,
                "state": job.state,
                "result": job.result,
                "error": job.error,
            },
        )

    def _stream_events(self, job, query: dict) -> None:
        try:
            start = int(query.get("from", ["0"])[0])
        except ValueError:
            self._send_json(400, {"error": "bad_query", "reason": "from must be int"})
            return
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            for event in self.server.manager.follow_events(
                job.id, start=start, follow=follow
            ):
                self.wfile.write((json.dumps(event) + "\n").encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up


def serve(
    host: str = "127.0.0.1",
    port: int = 8032,
    *,
    manager: JobManager | None = None,
    **manager_kwargs,
) -> ServiceServer:
    """Build a ready-to-run :class:`ServiceServer` (does not block).

    Call ``serve_forever()`` on the result (the CLI's ``repro serve``
    does), or drive it from a background thread in tests.  ``port=0``
    binds an ephemeral port — read it back from ``server.url``.
    """
    return ServiceServer((host, port), manager=manager, **manager_kwargs)
