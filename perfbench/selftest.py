"""Self-test of the benchmark, at the smallest scale.

Checks that ``BENCHMARK.json`` is well formed and agrees with ``spec.py``,
that every workload emits every declared metric with its unit in both trace
modes and leaves no process running, that the self-time arithmetic is right,
and that each seeded input generator reproduces identical inputs.  Run from
the repository root::

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import spec  # noqa: E402
from spans import Span, Tracer, covered, layer_self_times, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_shape():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"][:2] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]] + [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]
    ]
    assert len(names) == len(set(names))
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and NAME.match(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_benchmark():
    doc = _benchmark()
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(spec.E2E)
    assert [m["name"] for m in doc["per_layer"]] == list(spec.LAYERS)
    for meaning in spec.E2E.values():
        assert set(meaning) == set(spec.WORKLOADS)
    for measured_on, moves in spec.LAYERS.values():
        assert set(measured_on) <= set(spec.WORKLOADS) and moves


def test_self_time_arithmetic():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0
    spans = [
        Span(1, "run", 0.0, 10.0, None),
        Span(2, "core.a", 1.0, 4.0, 1),
        Span(3, "core.b", 3.0, 6.0, 1),
        Span(4, "substrate.solve", 2.0, 3.0, 2),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert layer_self_times(spans) == {"run": 5.0, "core": 5.0, "substrate": 1.0}

    tracer = Tracer(True)
    with tracer.span("run") as root:
        with tracer.span("core.x") as child:
            pass
        tracer.add("scheduler.queue", 0.0, 0.0, child, "job-1")
    by_id = {s.span_id: s for s in tracer.spans}
    assert by_id[child].parent == root and by_id[root].parent is None
    assert tracer.named("scheduler.queue")[0].request_id == "job-1"
    assert Tracer(False).spans == [] and not Tracer(False).enabled


def test_seeded_inputs_repeat():
    import wl_cold_cluster
    import wl_sparsify

    generators = [
        lambda seed: wl_sparsify.make_inputs(seed, "smoke"),
        lambda seed: wl_cold_cluster.make_inputs(seed, "smoke", 2.0),
    ]
    for make in generators:
        assert make(7) == make(7)
        assert make(7) != make(8)


def _session_members(sid: int) -> list[int]:
    """Processes, zombies included, whose session is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if entry.name.isdigit() and int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry.name))
    return members


def _run(workload: str, trace: int) -> dict:
    """One smoke run in a session of its own, which must be empty once it exits."""
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--scale", "smoke",
            "--out", str(ROOT / ".perfbench" / "selftest"),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=180)
    assert proc.returncode == 0, stderr[-2000:] + stdout[-2000:]
    assert _session_members(proc.pid) == [], f"{workload} left processes running"
    assert "leftover" not in stderr, stderr[-2000:]
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_metric_emitted_with_unit():
    doc = _benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in doc[key]}
        for workload in spec.WORKLOADS:
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(declared), workload
            for name, metric in result["metrics"].items():
                assert metric["unit"] == declared[name]
                assert isinstance(metric["value"], float)
                if trace == 0:
                    assert metric["value"] > 0, (workload, name)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
