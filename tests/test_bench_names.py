"""The functions the benchmark measures by name still exist, and its calls pass.

``bench/run.py --trace 1`` wraps package functions by name and reports a
renamed or deleted one only as a missing per-layer metric, which
``bench/test_bench.py`` (slow, outside this suite) then catches. These
tests ask the benchmark's own rules, read from ``bench/`` and never
changed, whether every per-layer metric of BENCHMARK.json still resolves
to a function, whether one pass of every workload's calls, at its
smoke size, passes the workload's own output check, and whether the
tracer sees every verify suite run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from cauchyga import engine, nfd, selection, theory, verify

ROOT = Path(__file__).resolve().parents[1]


def bench_module(name: str):
    """Load ``bench/<name>.py`` as module ``bench_<name>`` without putting
    bench/ on sys.path; it is registered in sys.modules first, as the
    dataclasses it defines need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def unresolved_metrics() -> list[str]:
    """Per-layer metrics whose span names no function of the package."""
    run, tracing = bench_module("run"), bench_module("tracing")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return [
        name
        for name in metrics
        if (span := run.host_span(name)) is not None and tracing.resolve(span) is None
    ]


def test_every_per_layer_metric_resolves_to_a_function():
    assert unresolved_metrics() == []


def test_distance_is_importable_wherever_the_tracer_patches_it():
    for module in (nfd, engine, selection, theory, verify):
        assert module.distance is nfd.distance, module.__name__


def test_one_pass_of_every_workload_passes_its_own_check(tmp_path):
    workloads = bench_module("workloads")
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.make(name, 1, tmp_path / name, smoke=True)
        for k in range(workload.pass_len):
            call = workload.prepare(k)
            outcome = call.check(call.execute())
            assert outcome.ok, f"{name} call {k}: {outcome.problem}"


def test_the_tracer_sees_every_verify_suite_run(tmp_path):
    # the suites are looked up when run_verify runs, so each traced suite
    # records its call and the time of its cases
    tracing = bench_module("tracing")
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    spans = [name[: -len(".s")] for name in metrics if name.endswith("_suite.s")]
    assert len(spans) == len(verify.SUITES)
    tracer = tracing.Tracer(spans)
    assert tracer.absent == []
    assert tracer.call(lambda: verify.run_verify(42, 20, tmp_path)).ok
    totals = tracer.totals()
    for span in spans:
        assert totals[span]["calls"] == 1 and totals[span]["s"] > 0.0, span
