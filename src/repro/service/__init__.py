"""Long-running extraction service: scheduler, result store, HTTP front end.

The engines of PRs 1-4 (batched ``solve_many``, adaptive dispatch, the
factor cache/plane, process-parallel extraction) made
a *single* extraction fast; this package amortises work **across requests**.
A persistent :class:`~repro.service.scheduler.Scheduler` owns the expensive
state — warm :class:`~repro.substrate.parallel.ParallelExtractor` engines
with published shared-memory factors, and a
:class:`~repro.service.result_store.ResultStore` of solved ``G`` columns —
and serves many small :class:`~repro.service.jobs.JobRequest` jobs against
it, coalescing concurrent requests over the same substrate fingerprint into
shared ``solve_many`` blocks.  The HTTP front door is **schema-first**:
:mod:`~repro.service.wire` defines a declarative JSON wire protocol (layout,
profile, options and arrays as plain data — no pickle on the wire, fingerprint-
exact round trips), :mod:`~repro.service.aserver` serves it from one asyncio
event loop under ``/v1/`` with chunked-NDJSON streaming (columns reach the
client as their coalesced group's solve lands, before the job completes) and
HTTP-layer micro-batching of small pair queries, and
:mod:`~repro.service.client` is the blocking client with typed exceptions
decoded from the single error envelope.
:mod:`~repro.service.metrics` aggregates the operational counters behind the
``/v1/stats`` endpoint.  :mod:`~repro.service.persistence` makes the amortised
state durable: point the scheduler (or ``python -m repro.service
--state-dir``) at a directory and the solved-column corpus, factor
artifacts and accepted-job journal (wire request documents, never pickle)
survive restarts — a warm restart serves the previous corpus with zero new
solves and zero factor rebuilds.

The service is also fault-tolerant: batches that fail are retried with
exponential backoff (:class:`~repro.service.scheduler.RetryPolicy`), a
broken worker pool is torn down and rebuilt mid-block (degrading to inline
solves when rebuilds keep failing), repeatedly failing substrates trip a
per-fingerprint :class:`~repro.service.scheduler.CircuitBreaker`, and a
bounded queue sheds the lowest-priority work under overload
(:class:`~repro.service.jobs.QueueSaturatedError` / HTTP 429).  Every
failure mode is reproducible on demand through :mod:`repro.faults`.

Quickstart::

    from repro.service import AsyncExtractionServer, JobRequest, ServiceClient
    from repro.substrate.parallel import SolverSpec

    with AsyncExtractionServer() as server:      # scheduler + HTTP, ephemeral port
        with ServiceClient(server.url) as client:
            spec = SolverSpec.bem(layout, profile)
            g_cols = client.extract(JobRequest(spec, columns=(0, 5, 9)))
            for event in client.stream(JobRequest(spec, columns=(0, 1))):
                ...                              # columns arrive as groups land

or in-process, without HTTP::

    from repro.service import Scheduler
    with Scheduler() as scheduler:
        job_id = scheduler.submit(JobRequest(spec, columns=(0, 5, 9)))
        job = scheduler.result(job_id, wait_s=60.0)
"""

from .jobs import Job, JobExpiredError, JobRequest, JobState
from .metrics import ServiceMetrics
from .persistence import (
    JobJournal,
    JournalFormatError,
    ServicePersistence,
    SqliteResultBackend,
)
from .result_store import ResultStore
from .scheduler import (
    CircuitBreaker,
    ExtractorPool,
    QueueSaturatedError,
    RetryPolicy,
    Scheduler,
)
from .aserver import AsyncExtractionServer
from .client import ServiceClient
from .jobs import SCHEMA_VERSION
from .wire import (
    BadRequestError,
    ServiceError,
    ServiceUnavailableError,
    UnauthorizedError,
    UnknownJobError,
    WireFormatError,
    request_from_wire,
    request_to_wire,
    spec_from_wire,
    spec_to_wire,
)

__all__ = [
    "SCHEMA_VERSION",
    "Job",
    "JobExpiredError",
    "JobRequest",
    "JobState",
    "ServiceMetrics",
    "JobJournal",
    "JournalFormatError",
    "ServicePersistence",
    "SqliteResultBackend",
    "ResultStore",
    "ExtractorPool",
    "Scheduler",
    "RetryPolicy",
    "CircuitBreaker",
    "QueueSaturatedError",
    "AsyncExtractionServer",
    "ServiceClient",
    "ServiceError",
    "BadRequestError",
    "UnknownJobError",
    "ServiceUnavailableError",
    "UnauthorizedError",
    "WireFormatError",
    "request_to_wire",
    "request_from_wire",
    "spec_to_wire",
    "spec_from_wire",
]
