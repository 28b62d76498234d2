"""Client-side plumbing of the serving workload.

Every request goes through the public :class:`~repro.service.ServiceClient`
as ``submit`` + ``wait``; the wait returns the job snapshot, whose
``submitted_at`` / ``started_at`` / ``finished_at`` split the client's
latency into front door, queue and run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from common import AGREEMENT_RTOL, median, percentile, rel_diff
from repro.geometry.layouts import regular_grid
from repro.service import JobRequest, ServiceClient, request_to_wire
from repro.substrate import extract_columns
from repro.substrate.parallel import SolverSpec
from repro.substrate.profile import Layer, SubstrateProfile

JOB_TIMEOUT_S = 120.0


def corner_specs(n_side: int, fill: float, bottom_conductivities) -> list[SolverSpec]:
    """BEM substrates sharing one contact layout, one per process corner.

    The paper's two-layer profile with a resistive bottom layer, except that
    the bulk layer's conductivity (relative to the top layer's) varies.  The
    panel discretisation depends only on the layout, so every substrate costs
    the same to build and to solve; fill, by contrast, changes BEM cost
    several-fold and would make class medians depend on which substrates a
    run happened to hit.
    """
    layout = regular_grid(n_side=n_side, size=128.0, fill=fill)
    return [
        SolverSpec.bem(
            layout,
            SubstrateProfile(
                128.0,
                128.0,
                [Layer(0.5, 1.0), Layer(38.5, sigma), Layer(1.0, 0.1)],
                grounded_backplane=True,
            ),
        )
        for sigma in bottom_conductivities
    ]


@dataclass
class Record:
    """One request as the generator saw it."""

    cls: str
    substrate: int
    columns: tuple = ()
    sent: float = 0.0
    done: float = 0.0
    job_id: str | None = None
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    value: np.ndarray | None = field(default=None, repr=False)
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.sent

    @property
    def server_s(self) -> float | None:
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


def send(client: ServiceClient, spec, record: Record, tracer, parent) -> Record:
    """Send one request, filling in its timings, answer or error."""
    record.sent = time.monotonic()
    try:
        with tracer.span(f"client.{record.cls}", parent=parent) as span_id:
            job_id = client.submit(JobRequest(spec, columns=record.columns))
            snapshot = client.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            record.job_id = job_id
            record.submitted_at = snapshot["submitted_at"]
            record.started_at = snapshot["started_at"]
            record.finished_at = snapshot["finished_at"]
            if snapshot["status"] != "done":
                record.error = f"job {job_id} ended {snapshot['status']}: {snapshot['error']}"
            else:
                record.value = snapshot["result"]
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.monotonic()
    if tracer.enabled and record.started_at is not None and record.finished_at is not None:
        tracer.add("scheduler.queue", record.submitted_at, record.started_at, span_id, record.job_id)
        tracer.add("scheduler.run", record.started_at, record.finished_at, span_id, record.job_id)
    return record


def encode_requests(records: list[Record], specs, tracer) -> tuple[int, float]:
    """Wire-encode every generated request once; returns (bytes, seconds)."""
    total_bytes = 0
    start = time.monotonic()
    with tracer.span("wire.encode"):
        for record in records:
            doc = request_to_wire(JobRequest(specs[record.substrate], columns=record.columns))
            total_bytes += len(json.dumps(doc).encode())
    return total_bytes, time.monotonic() - start


def reference_blocks(specs, records: list[Record]) -> dict[int, dict[int, np.ndarray]]:
    """Raw-solver columns for every column any record touched, per substrate.

    Each substrate's solver is built fresh, with the process-wide factor
    cache off, and factored before extracting: the reference comes from the
    direct path the service engines use but shares no factor with anything
    the run built.
    """
    needed: dict[int, set] = {}
    for record in records:
        needed.setdefault(record.substrate, set()).update(record.columns)
    refs: dict[int, dict[int, np.ndarray]] = {}
    for index, cols in needed.items():
        solver = specs[index].build(use_factor_cache=False)
        solver.prepare_direct()
        order = sorted(cols)
        block = extract_columns(solver, np.asarray(order, dtype=int))
        refs[index] = {c: block[:, k] for k, c in enumerate(order)}
    return refs


def check_records(records: list[Record], refs, out, op_prefix: str) -> None:
    """Every served block must equal the raw solver's to 1e-10."""
    for k, record in enumerate(records):
        op = (op_prefix, k)
        if record.error is not None:
            out.fail(op, f"{record.cls} request on substrate {record.substrate}: {record.error}")
            continue
        want = np.column_stack([refs[record.substrate][c] for c in record.columns])
        diff = rel_diff(record.value, want)
        if not diff <= AGREEMENT_RTOL:
            out.fail(op, f"{record.cls} answer on substrate {record.substrate} differs "
                     f"from the raw solver by {diff:.3e} (bound {AGREEMENT_RTOL:g})")


def latencies(records: list[Record], cls: str) -> list[float]:
    """Latencies of one class's requests that succeeded."""
    return [r.latency for r in records if r.cls == cls and r.error is None]


def server_split(records: list[Record], cls: str) -> dict[str, float]:
    """Median front-door overhead, queue wait and run time of one class."""
    rows = [r for r in records if r.cls == cls and r.error is None and r.server_s is not None]
    return {
        "overhead_p50_s": median((r.done - r.sent) - r.server_s for r in rows),
        "run_p50_s": median(r.finished_at - r.started_at for r in rows),
    }


def queue_waits(records: list[Record]) -> dict[str, float]:
    waits = [r.started_at - r.submitted_at for r in records if r.started_at is not None]
    return {"p50": median(waits), "p90": percentile(waits, 90)}
