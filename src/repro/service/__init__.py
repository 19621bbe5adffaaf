"""Optimization-as-a-service: a long-lived job server over the repro stack.

The batch layers already speak JSON end to end — ``RunSpec``/``SweepSpec``
payloads in, ``MOHECOResult``/``RunRecord`` payloads out — so this package
adds the missing production pieces and nothing else:

* :class:`~repro.service.jobs.JobManager` — validation at the door
  (structured :class:`~repro.api.errors.SpecError`), a FIFO job queue and
  worker pool, per-job event logs, cooperative cancellation, and per-job
  persistence through the sweep :class:`~repro.sweep.store.ResultStore`.
* :class:`~repro.service.server.ServiceServer` / ``serve()`` — the
  stdlib-only HTTP surface: submit, poll, stream NDJSON progress, fetch,
  cancel (``repro serve``).
* :class:`~repro.service.client.ServiceClient` — the ``urllib`` client the
  ``repro submit/status/result/cancel`` commands wrap.

Results fetched from the service are bit-identical
(:meth:`~repro.core.moheco.MOHECOResult.identity_dict`) to a direct
:func:`repro.api.optimize` call with the same spec and seed — the service
changes where and when work runs, never what it computes.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import TERMINAL_STATES, Job, JobManager, UnknownJobError
from repro.service.server import ServiceServer, serve

__all__ = [
    "Job",
    "JobManager",
    "UnknownJobError",
    "TERMINAL_STATES",
    "ServiceServer",
    "serve",
    "ServiceClient",
    "ServiceError",
]
