"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.use_checkout_src()

import tracing  # noqa: E402
import workloads  # noqa: E402
from cauchyga import engine, nfd, selection, theory, verify  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
SPEC = run.load_spec()
COUNT_METRICS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith((".calls", ".rows"))
    or m["name"] in ("benchmarks.evaluate.unique_frac", "nfd.support_size_mean")
]


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_output_matches_schema(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace and workload == "verify":
        engine_values = [v["value"] for k, v in result["metrics"].items() if k.startswith("engine.")]
        assert engine_values and not any(engine_values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1, seed=5), smoke(workload, 1, seed=5)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_span_children_fit_inside_parents():
    tracer = tracing.Tracer(sorted({run.host_span(m["name"]) for m in SPEC["per_layer"]} - {None}))
    wl = workloads.make("ga-grid", 11, run.fresh_dir(run.WORK / "test-spans"), smoke=True)
    for k in range(wl.pass_len):
        call = wl.prepare(k)
        assert call.check(tracer.call(call.execute)).ok
    a = tracer.arrays()
    resolution = time.get_clock_info("perf_counter").resolution
    has_parent = a["parent"] >= 0
    parent = a["parent"][has_parent]
    assert (a["start"][has_parent] >= a["start"][parent] - resolution).all()
    assert (a["end"][has_parent] <= a["end"][parent] + resolution).all()
    totals = tracer.totals()
    names = tracer.names
    for span in ("engine.multi_run", "engine.step_generation", "engine.make_population",
                 "cli.run_experiment"):
        nid = names.index(span)
        of_span = a["name"] == nid
        children = has_parent & (a["name"][a["parent"].clip(0)] == nid)
        child_s = float((a["end"] - a["start"])[children].sum())
        assert totals[span]["calls"] == int(of_span.sum()) > 0
        assert abs(totals[span]["s"] - totals[span]["self_s"] - child_s) <= resolution * of_span.sum()
        assert totals[span]["self_s"] >= 0.0


def test_tracer_wraps_every_namespace_and_restores():
    tracer = tracing.Tracer(["nfd.distance"])
    original = nfd.distance
    tracer.install()
    try:
        for module in (nfd, engine, selection, theory, verify):
            assert module.distance is not original
            assert module.distance.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (nfd, engine, selection, theory, verify):
        assert module.distance is original


def test_missing_functions_are_absent_not_zero():
    tracer = tracing.Tracer(["engine.mutate", "engine.no_such_function", "no_such_module.f"])
    assert tracer.absent == ["engine.no_such_function", "no_such_module.f"]
    wl = workloads.make("ga-grid", 2, run.fresh_dir(run.WORK / "ga-grid"), smoke=True)
    report = run.traced_run(wl, 1, ["engine.no_such_function.s", "engine.mutate.calls"])
    assert report["absent"] == ["engine.no_such_function.s"]
    assert set(report["values"]) == {"engine.mutate.calls"}
    assert run.schema_problems(
        report["values"], report["absent"],
        {"per_layer": [{"name": "engine.no_such_function.s", "unit": "s"},
                       {"name": "engine.mutate.calls", "unit": "count"}]},
        trace=True,
    ) == []


def test_refuses_to_run_without_the_checkout_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
