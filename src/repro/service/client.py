"""Thin ``urllib`` client for the optimization service.

No dependencies beyond the standard library — the client the ``repro
submit/status/result/cancel`` CLI commands are built on, and the reference
for how any HTTP client should talk to the service: JSON bodies in, JSON
bodies out, NDJSON lines for the event stream.

>>> client = ServiceClient("http://127.0.0.1:8032")  # doctest: +SKIP
>>> job = client.submit_run({"problem": "sphere", "seed": 7})  # doctest: +SKIP
>>> for event in client.events(job["id"]):  # doctest: +SKIP
...     print(event["kind"])
>>> client.result(job["id"])["result"]["best_yield"]  # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from repro.service.jobs import TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response, with the parsed error body when any."""

    def __init__(
        self,
        status: int,
        payload: dict | None,
        url: str,
        retry_after: float | None = None,
    ) -> None:
        self.status = status
        self.payload = payload or {}
        #: Parsed ``Retry-After`` header (seconds), when the service sent
        #: one — e.g. on the 409 a too-early result fetch gets.
        self.retry_after = retry_after
        detail = self.payload.get("message") or self.payload.get("reason") or ""
        label = self.payload.get("error", "http_error")
        super().__init__(
            f"{label} ({status}) at {url}" + (f": {detail}" if detail else "")
        )


def _error_to_service_error(error: urllib.error.HTTPError, url: str) -> ServiceError:
    try:
        body = json.loads(error.read().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        body = None
    retry_after = None
    raw = error.headers.get("Retry-After") if error.headers else None
    if raw is not None:
        try:
            retry_after = float(raw)
        except ValueError:
            pass  # HTTP-date form; treat as absent rather than parse dates
    return ServiceError(error.code, body, url, retry_after=retry_after)


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    Parameters
    ----------
    base_url:
        Where the service listens, e.g. ``"http://127.0.0.1:8032"``.
    timeout:
        Socket timeout per request, seconds.  Event streams use a longer
        timeout internally (they block between generations by design).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- plumbing ----------------------------------------------------------
    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise _error_to_service_error(error, url) from error

    # -- endpoints ---------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health``."""
        return self._request("GET", "/v1/health")

    def submit_run(self, spec: dict) -> dict:
        """Submit a ``RunSpec`` payload; returns the job status dict."""
        return self._request("POST", "/v1/runs", spec)

    def submit_sweep(self, spec: dict) -> dict:
        """Submit a ``SweepSpec`` payload; returns the job status dict."""
        return self._request("POST", "/v1/sweeps", spec)

    def jobs(self) -> list[dict]:
        """``GET /v1/jobs`` — every job the service knows about."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}``."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}/result`` — 409 (ServiceError) until terminal."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """``DELETE /v1/jobs/{id}`` — request cooperative cancellation."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def _stream_once(
        self, job_id: str, start: int, follow: bool, timeout: float | None = None
    ):
        """One ``GET .../events`` request, yielded line by line.

        Transport drops (connection reset, incomplete read, socket
        timeout) propagate to the caller; :meth:`events` turns them into a
        reconnect from its cursor.  Exposed separately so tests can
        monkeypatch injected disconnects.
        """
        suffix = f"?from={int(start)}" + ("" if follow else "&follow=0")
        url = f"{self.base_url}/v1/jobs/{job_id}/events{suffix}"
        request = urllib.request.Request(url, method="GET")
        if timeout is None:
            # Streams legitimately idle between generations; the per-request
            # timeout only guards a wedged server.
            timeout = max(self.timeout, 600.0) if follow else self.timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                for line in response:
                    text = line.decode("utf-8").strip()
                    if text:
                        yield json.loads(text)
        except urllib.error.HTTPError as error:
            raise _error_to_service_error(error, url) from error

    def events(self, job_id: str, start: int = 0, follow: bool = True):
        """Iterate the job's NDJSON event stream as dicts.

        With ``follow=True`` (default) the iterator ends when the job
        reaches a terminal state; ``follow=False`` drains the current
        backlog and returns immediately.

        Following never busy-waits: the server parks each request under
        the job's condition variable, and a dropped connection (proxy
        idle-kill, service restart, socket timeout) reconnects from the
        ``?from=`` cursor of the last delivered event — every event is
        yielded exactly once across reconnects.  A retryable service
        error honors its ``Retry-After`` before reconnecting.
        """
        cursor = int(start)
        while True:
            dropped = False
            try:
                for event in self._stream_once(job_id, cursor, follow):
                    if "seq" in event:
                        cursor = max(cursor, int(event["seq"]) + 1)
                    yield event
            except ServiceError as error:
                if not follow or error.status not in (429, 503):
                    raise
                dropped = True
                time.sleep(error.retry_after if error.retry_after else 0.5)
            except (TimeoutError, http.client.HTTPException, OSError):
                if not follow:
                    raise
                dropped = True
                time.sleep(0.2)  # pace reconnects against a down service
            if not follow:
                return
            if not dropped:
                # Clean close: terminal-and-drained in the normal case, but
                # an idle middlebox can also close cleanly — trust the
                # job's state, not the connection's.
                if self.status(job_id)["state"] in TERMINAL_STATES:
                    return

    # -- conveniences ------------------------------------------------------
    def wait(
        self, job_id: str, timeout: float | None = None, poll: float = 0.2
    ) -> dict:
        """Block until the job is terminal; returns its final status dict.

        Waiting parks on the job's event stream (the server blocks the
        request under the job's condition variable until something
        happens) instead of polling status on an interval; ``poll`` only
        paces reconnection after a dropped stream.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        cursor = 0
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} after {timeout}s"
                )
            remaining = None if deadline is None else deadline - time.monotonic()
            stream_timeout = (
                None if remaining is None else max(min(remaining, 600.0), 0.05)
            )
            try:
                for event in self._stream_once(
                    job_id, cursor, follow=True, timeout=stream_timeout
                ):
                    if "seq" in event:
                        cursor = max(cursor, int(event["seq"]) + 1)
                    if event.get("kind") == "state" and (
                        event.get("state") in TERMINAL_STATES
                    ):
                        break
            except (TimeoutError, http.client.HTTPException, OSError):
                # Dropped or timed-out stream: re-check status, then pace
                # the reconnect so a broken server can't spin this loop.
                time.sleep(
                    max(min(poll, remaining), 0.0) if remaining is not None else poll
                )
