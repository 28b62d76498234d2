"""Async front door: NDJSON streaming latency and HTTP micro-batching.

Two arms against one :class:`~repro.service.aserver.AsyncExtractionServer`
over a shared substrate:

* **streaming** — concurrent ``/v1/stream`` clients each ask for an
  overlapping column set; per stream we time the first ``columns`` event
  against the job's ``done`` event.  The whole point of the streaming wire
  is that columns land **as the coalesced group's solve finishes**, before
  job completion — the gate pins that ordering for every stream and
  records the lead time.
* **micro-batching** — concurrent ``/v1/pairs`` queries over the same
  fingerprint; the HTTP layer holds them for a short window and collapses
  them into fewer scheduler submits.  The gate pins
  ``microbatch_submits < microbatch_queries`` via the service counters.

Everything crosses the wire as the declarative ``/v1`` JSON schema — the
gate also probes the pickle-era paths (``POST /submit``, ``GET /result``)
and requires both to answer the 404 ``not_found`` envelope.

Agreement gates: streamed blocks and micro-batched pair values must match
the service's own plain ``/v1/jobs`` submit-and-wait path to **1e-10**
(the front-door invariant — neither streaming nor batching may change the
answer the service gives).  An isolated single-process extraction is also
recorded and gated at 2x the solver's ``rtol`` — the service's warm
parallel engine and a cold local solver are distinct iterative solves, so
they agree to solver tolerance, not bit-exactly (that engine-level
agreement story lives in ``bench_service``).  Emits ``BENCH_frontdoor.json``
(under ``benchmarks/results/``).

Run directly (``REPRO_BENCH_NSIDE=8`` for a CI smoke run)::

    PYTHONPATH=src python benchmarks/bench_frontdoor.py

or through pytest like the other benchmarks.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

# usable both as a pytest module (benchmarks/conftest.py handles common) and
# as a standalone script for the CI smoke run
sys.path.insert(0, str(Path(__file__).parent))

from common import SOLVER_RTOL, Gates, default_sizes, emit, fan_out, rel_diff, solver_spec, timed

from repro.service import AsyncExtractionServer, JobRequest, ServiceClient
from repro.substrate.extraction import extract_columns

#: wire-fidelity bound: streaming/batching may never change the service's answer
AGREEMENT_RTOL = 1e-10
#: bound against an isolated single-process solve (two independent iterative
#: solves of the same system agree to solver tolerance, not bit-exactly)
ISOLATED_RTOL = 2 * SOLVER_RTOL
#: concurrent streaming clients
N_STREAMS = 4
#: columns per streaming client
COLUMNS_PER_STREAM = 4
#: concurrent /v1/pairs clients (each a 2-pair query, same fingerprint)
N_PAIR_CLIENTS = 8
#: window the micro-batcher holds pair queries (generous: CI boxes are slow)
PAIR_WINDOW_S = 0.25


def _stream_one(url: str, request: JobRequest) -> dict:
    """Consume one stream; returns timings, event order and column blocks."""
    start = time.perf_counter()
    first_columns_s = None
    done_s = None
    kinds: list[str] = []
    blocks: dict[int, np.ndarray] = {}
    with ServiceClient(url, timeout_s=600.0) as client:
        for event in client.stream(request, timeout_s=600.0):
            kinds.append(event["event"])
            if event["event"] == "columns":
                if first_columns_s is None:
                    first_columns_s = time.perf_counter() - start
                for j, column in zip(event["columns"], event["block"].T, strict=True):
                    blocks[j] = column
            elif event["event"] == "done":
                done_s = time.perf_counter() - start
    return {
        "kinds": kinds,
        "first_columns_s": first_columns_s,
        "done_s": done_s,
        "blocks": blocks,
    }


#: the retired pickle-era endpoints the gate requires to be absent
RETIRED_PATHS = (("POST", "/submit"), ("GET", "/result?job_id=job-000001"))


def _probe_retired_paths(url: str) -> dict:
    """``"METHOD path" -> [status, envelope code]`` for each retired path."""
    answers = {}
    for method, path in RETIRED_PATHS:
        body = json.dumps({"request_pickle": ""}).encode() if method == "POST" else None
        request = urllib.request.Request(url + path, data=body, method=method)
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                status, doc = response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            status, doc = exc.code, json.loads(exc.read())
        code = doc.get("error", {}).get("code") if isinstance(doc, dict) else None
        answers[f"{method} {path}"] = [status, code]
    return answers


def measure(n_side: int, gates: Gates) -> dict:
    spec = solver_spec(n_side)
    n = spec.layout.n_contacts

    # overlapping column sets drawn from one half of the contacts, so the
    # scheduler's cross-stream coalescing has real work to share
    rng = np.random.default_rng(0)
    pool = np.sort(rng.choice(n, size=max(COLUMNS_PER_STREAM, n // 2), replace=False))
    stream_columns = [
        tuple(
            int(c)
            for c in np.sort(rng.choice(pool, size=COLUMNS_PER_STREAM, replace=False))
        )
        for _ in range(N_STREAMS)
    ]
    union = sorted({c for cols in stream_columns for c in cols})
    union_index = {c: k for k, c in enumerate(union)}

    # isolated single-process solve (solver-tolerance cross-check)
    isolated = extract_columns(spec.build(), np.asarray(union, dtype=int))
    scale = float(np.abs(isolated).max())

    pair_queries = [
        [(int(rng.integers(n)), int(rng.choice(union))) for _ in range(2)]
        for _ in range(N_PAIR_CLIENTS)
    ]

    with AsyncExtractionServer(
        coalesce_window_s=0.05,
        pair_window_s=PAIR_WINDOW_S,
        pair_max_batch=N_PAIR_CLIENTS,
    ) as server:
        # --- streaming arm --------------------------------------------------
        stream_wall_s, streams = timed(
            fan_out,
            lambda cols: _stream_one(server.url, JobRequest(spec, columns=cols)),
            stream_columns,
        )

        # the service's own plain job path over the same union: the
        # wire-fidelity reference (served from the result store, so this is
        # exactly what a non-streaming /v1 client receives)
        with ServiceClient(server.url, timeout_s=600.0) as client:
            reference = client.extract(
                JobRequest(spec, columns=tuple(union)), timeout_s=600.0
            )

        stream_diff = 0.0
        leads = []
        ordered = True
        for cols, stream in zip(stream_columns, streams, strict=True):
            kinds = stream["kinds"]
            has_columns = "columns" in kinds and "done" in kinds
            ordered = ordered and has_columns and (
                kinds.index("columns") < kinds.index("done")
            )
            if stream["first_columns_s"] is not None and stream["done_s"] is not None:
                leads.append(stream["done_s"] - stream["first_columns_s"])
            for j in cols:
                got = stream["blocks"].get(j)
                if got is None:
                    ordered = False
                    continue
                stream_diff = max(stream_diff, rel_diff(got, reference[:, union_index[j]], scale))

        # --- micro-batching arm --------------------------------------------
        def one_query(pairs):
            with ServiceClient(server.url, timeout_s=600.0) as client:
                return client.pairs(spec, pairs, timeout_s=600.0)

        pairs_wall_s, pair_values = timed(fan_out, one_query, pair_queries)
        pair_diff = 0.0
        for pairs, values in zip(pair_queries, pair_values, strict=True):
            for (i, j), value in zip(pairs, values, strict=True):
                pair_diff = max(pair_diff, rel_diff(value, reference[i, union_index[j]], scale))

        frontdoor = ServiceClient(server.url).stats()["frontdoor"]
        retired_paths = _probe_retired_paths(server.url)

    result = {
        "n_side": n_side,
        "n_contacts": n,
        "n_streams": N_STREAMS,
        "columns_per_stream": COLUMNS_PER_STREAM,
        "union_columns": len(union),
        "stream_wall_s": stream_wall_s,
        "first_column_before_done": bool(ordered),
        "first_column_lead_s": leads,
        "median_first_column_lead_s": float(np.median(leads)) if leads else None,
        "stream_max_abs_diff_rel": stream_diff,
        "isolated_max_abs_diff_rel": rel_diff(reference, isolated, scale),
        "n_pair_clients": N_PAIR_CLIENTS,
        "pairs_wall_s": pairs_wall_s,
        "pairs_max_abs_diff_rel": pair_diff,
        "frontdoor": frontdoor,
        "retired_paths": retired_paths,
    }
    gates.check(
        "every stream delivers its first columns before job completion",
        n_side,
        ordered,
        f"leads {[round(lead, 4) for lead in leads]} s",
    )
    gates.check(
        "streamed columns agree with the plain /v1 job path",
        n_side,
        stream_diff <= AGREEMENT_RTOL,
        f"{stream_diff:.2e} rel",
    )
    gates.check(
        "micro-batched pair values agree with the plain /v1 job path",
        n_side,
        pair_diff <= AGREEMENT_RTOL,
        f"{pair_diff:.2e} rel",
    )
    gates.check(
        "service agrees with an isolated solve to solver tolerance",
        n_side,
        result["isolated_max_abs_diff_rel"] <= ISOLATED_RTOL,
        f"{result['isolated_max_abs_diff_rel']:.2e} rel",
    )
    gates.check(
        "one stream opened and one pair query counted per client",
        n_side,
        frontdoor["streams_opened"] == N_STREAMS
        and frontdoor["microbatch_queries"] == N_PAIR_CLIENTS,
        f"{frontdoor['streams_opened']} streams, {frontdoor['microbatch_queries']} queries",
    )
    gates.check(
        "micro-batching coalesces pair queries into fewer submits",
        n_side,
        1 <= frontdoor["microbatch_submits"] < frontdoor["microbatch_queries"],
        f"{frontdoor['microbatch_queries']} queries became "
        f"{frontdoor['microbatch_submits']} submits",
    )
    gates.check(
        "retired pickle-era paths answer 404 not_found",
        n_side,
        all(answer == [404, "not_found"] for answer in retired_paths.values()),
        f"{retired_paths}",
    )
    return result


def run(sizes: list[int]) -> bool:
    gates = Gates()
    results = [measure(s, gates) for s in sizes]
    return emit(
        "BENCH_frontdoor",
        "frontdoor",
        "asyncio /v1 front door: NDJSON streaming (columns pushed before job "
        f"completion, {N_STREAMS} concurrent clients) and HTTP micro-batching of "
        f"{N_PAIR_CLIENTS} concurrent pair queries over one fingerprint; pickle-free "
        "schema wire throughout",
        results,
        gates,
    )


def test_bench_frontdoor():
    assert run(default_sizes())


if __name__ == "__main__":
    sys.exit(0 if run(default_sizes()) else 1)
