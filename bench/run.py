"""cauchyga benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload ga-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It imports the checkout's own ``src/``
(never an installed copy), runs the workload closed-loop until its calls
have been busy for ``--seconds``, checks every call's outputs, and prints a human-readable table followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace
1`` reports its per-layer metrics instead: it runs the workload's first
pass of calls, each once plain and once with every traced function wrapped
(alternating which goes first), repeats whole passes until ``--seconds``
is spent, and reports per-call layer times, counts and the tracing
overhead. ``--smoke`` shrinks every workload to a tiny size; the output is
checked against BENCHMARK.json in either case. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {"setup_s": "s", "call_s_p50": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# Per-layer metrics that are not a span's .s, .self_s or .calls: the span
# whose wrapper measures them (None for the run-level overhead) and unit.
COUNTERS = {
    "trace_overhead_frac": (None, "ratio"),
    "benchmarks.evaluate_raw_batch.rows": ("benchmarks.evaluate_raw_batch", "count"),
    "benchmarks.evaluate.unique_frac": ("benchmarks.evaluate_raw_batch", "ratio"),
    "nfd.support_size_mean": ("nfd.distance", "count"),
}
SPAN_FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}

# Fresh process from start to the first call: import cauchyga from src/ and
# build the workload's first pass of calls.
SETUP_PROBE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; "
    "w = workloads.make(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), sys.argv[6] == '1'); "
    "[w.prepare(k) for k in range(w.pass_len)]"
)


def use_checkout_src() -> Path:
    """Put the checkout's src/ first on sys.path and import cauchyga from it."""
    init = SRC / "cauchyga" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout that has src/")
    sys.path.insert(0, str(SRC))
    import cauchyga

    resolved = Path(cauchyga.__file__).resolve()
    if resolved != init.resolve():
        raise SystemExit(f"error: cauchyga resolved to {resolved}, not {init}")
    return resolved


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_span(metric: str) -> str | None:
    """The traced span a per-layer metric is measured on."""
    if metric in COUNTERS:
        return COUNTERS[metric][0]
    span, _, field = metric.rpartition(".")
    if field not in SPAN_FIELD_UNITS:
        raise ValueError(f"no rule to measure per-layer metric {metric!r}")
    return span


def layer_unit(metric: str) -> str:
    if metric in COUNTERS:
        return COUNTERS[metric][1]
    return SPAN_FIELD_UNITS[metric.rpartition(".")[2]]


def git_commit() -> str | None:
    """HEAD commit read from .git, or None where the checkout has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cauchyga").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(cauchyga_file: Path, loadavg: tuple[float, ...]) -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "cauchyga_file": str(cauchyga_file),
    }


class SetupProbe:
    """Wall time of fresh processes that import cauchyga and build the calls.

    Probes are spread over the run, between calls, so that their median is
    not decided by one short stretch of a machine whose speed swings. One
    extra probe runs first and is discarded: it may write the bytecode
    cache, which every later process of the benchmark reuses.
    """

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.cmd = [
            sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload,
            str(seed), str(WORK / workload), "1" if smoke else "0",
        ]
        self.samples: list[float] = []
        self._run()
        self.samples.clear()

    def _run(self) -> None:
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - t0)

    def maybe_run(self, busy: float, seconds: float) -> None:
        """Probe when the run has reached the next of SETUP_PROBES even steps."""
        if len(self.samples) < SETUP_PROBES and busy >= seconds * len(self.samples) / SETUP_PROBES:
            self._run()

    def median(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self._run()
        return statistics.median(self.samples)


def attempt(call, runner):
    """Time one call, then check its outputs; a raised error fails the call."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        result = runner(call.execute)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        outcome = Outcome(f"call {call.index} raised")
    else:
        elapsed = time.perf_counter() - t0
        try:
            outcome = call.check(result)
        except Exception:
            traceback.print_exc()
            outcome = Outcome(f"checking call {call.index} raised")
    if not outcome.ok:
        print(f"call {call.index} failed: {outcome.problem}", file=sys.stderr)
    return elapsed, outcome


def plain(execute):
    return execute()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def rerun_matches(wl, original: bytes | None) -> tuple[bool, str | None]:
    """Re-run call 0 into its own directory; its CSV must be byte-identical.

    Returns the verdict and the SHA-256 of call 0's data rows (reported,
    not gated: the RNG stream may change on purpose). Workloads without an
    experiment CSV pass trivially.
    """
    from workloads import rows_sha256

    if original is None:
        return True, None
    call = wl.prepare(0, out_dir=fresh_dir(WORK / f"{wl.name}-rerun"))
    _, outcome = attempt(call, plain)
    same = outcome.ok and outcome.series.read_bytes() == original
    if not same:
        print("call 0 re-run is not byte-identical", file=sys.stderr)
    return same, rows_sha256(original)


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max, n={n} too few for a tail"
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], f"p{100 * rank // n}, n={n}"


def timed_run(wl, seconds: int, smoke: bool) -> dict:
    """Closed loop over calls until ``seconds`` of busy call time have passed.

    At least one whole pass runs. Set-up probes, output checks and the
    re-run do not count against the budget.
    """
    setup = SetupProbe(wl.name, wl.seed, smoke)
    times, outcomes, first = [], [], None
    busy = 0.0
    while len(times) < wl.pass_len or busy < seconds:
        setup.maybe_run(busy, seconds)
        call = wl.prepare(len(times))
        elapsed, outcome = attempt(call, plain)
        if not outcomes and outcome.ok and outcome.series is not None:
            first = outcome.series.read_bytes()
        times.append(elapsed)
        outcomes.append(outcome)
        busy += elapsed
    setup_s = setup.median()
    rerun_ok, sha = rerun_matches(wl, first)
    n = len(times)
    work = sum(o.generations or o.cases for o in outcomes)
    tail_s, tail_label = tail(times)
    throughput_name, throughput_unit = wl.throughput
    failed = sum(not o.ok for o in outcomes) + (not rerun_ok and outcomes[0].ok)
    values = {
        "setup_s": setup_s,
        "call_s_p50": statistics.median(times),
        "work_per_s": work / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    table = [
        ("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh processes spread over the run"),
        ("call_s_p50", values["call_s_p50"], "s", f"n={n}"),
        ("call_s_tail", tail_s, "s", tail_label),
        (throughput_name, values["work_per_s"], throughput_unit,
         f"= work_per_s; {work} over {busy:.3f} s busy"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        ("failed_frac", failed / n, "ratio", f"{failed} of {n} calls"),
    ]
    return {
        "values": values, "absent": [], "table": table, "attempted": n,
        "failed": failed, "rows_sha256": sha, "rerun_identical": rerun_ok,
    }


def traced_run(wl, seconds: int, metrics: list[str]) -> dict:
    from tracing import Tracer

    spans = sorted({s for s in map(host_span, metrics) if s is not None})
    tracer = Tracer(spans)
    plain_s = traced_s = 0.0
    outcomes, first, passes, pass_s = [], None, 0, 0.0
    start = time.perf_counter()
    # whole passes only, so that counts per call repeat exactly
    while passes == 0 or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        fresh_dir(wl.out_dir)
        for k in range(wl.pass_len):
            call = wl.prepare(k)
            for use_tracer in ((False, True) if k % 2 == 0 else (True, False)):
                elapsed, outcome = attempt(call, tracer.call if use_tracer else plain)
                if use_tracer:
                    traced_s += elapsed
                else:
                    plain_s += elapsed
                if k == 0 and first is None and outcome.ok and outcome.series is not None:
                    first = outcome.series.read_bytes()
                outcomes.append(outcome)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    rerun_ok, sha = rerun_matches(wl, first)
    tracer.save(WORK / f"spans-{wl.name}.npz")

    calls = passes * wl.pass_len
    totals = tracer.totals()
    values, absent = {}, []
    for metric in metrics:
        span = host_span(metric)
        if span is not None and span not in totals:
            absent.append(metric)
        elif metric == "trace_overhead_frac":
            values[metric] = traced_s / plain_s - 1.0
        elif metric == "benchmarks.evaluate_raw_batch.rows":
            values[metric] = tracer.rows / calls
        elif metric == "benchmarks.evaluate.unique_frac":
            values[metric] = tracer.distinct_rows / tracer.rows if tracer.rows else 0.0
        elif metric == "nfd.support_size_mean":
            values[metric] = (
                tracer.support_sum / tracer.support_nfds if tracer.support_nfds else 0.0
            )
        else:
            span, _, field = metric.rpartition(".")
            values[metric] = totals[span][field] / calls
    table = [
        (m, values[m], layer_unit(m), "per call" if m not in COUNTERS else "")
        for m in metrics if m in values
    ]
    table.append(("passes", passes, "count", f"{wl.pass_len} calls each, run plain and traced"))
    failed = sum(not o.ok for o in outcomes) + (not rerun_ok and outcomes[0].ok)
    return {
        "values": values, "absent": absent, "table": table, "attempted": len(outcomes),
        "failed": failed, "rows_sha256": sha, "rerun_identical": rerun_ok,
    }


def schema_problems(values: dict, absent: list[str], spec: dict, trace: bool) -> list[str]:
    """Differences between the reported metrics and those BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"undeclared metric {m}" for m in values if m not in declared]
    for name, unit in declared.items():
        if name in values:
            expected = layer_unit(name) if trace else END_TO_END_UNITS.get(name)
            if unit != expected:
                problems.append(f"{name}: declared unit {unit}, measured in {expected}")
        elif not (trace and name in absent):
            problems.append(f"metric {name} missing")
    return problems


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ga-grid", "ga-sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    cauchyga_file = use_checkout_src()
    spec = load_spec()
    import workloads  # importable once cauchyga is; run.py's directory is on sys.path

    wl = workloads.make(args.workload, args.seed, fresh_dir(WORK / args.workload), args.smoke)
    if args.trace:
        report = traced_run(wl, args.seconds, [m["name"] for m in spec["per_layer"]])
    else:
        report = timed_run(wl, args.seconds, args.smoke)

    problems = schema_problems(report["values"], report["absent"], spec, bool(args.trace))
    if problems:
        print("error: output does not match BENCHMARK.json:", *problems, sep="\n  ", file=sys.stderr)
        return 1

    record = machine_record(cauchyga_file, loadavg)
    record.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, size=wl.describe(), rows_sha256=report["rows_sha256"],
        rerun_identical=report["rerun_identical"], absent=report["absent"],
    )
    print("record " + json.dumps(record))
    print(f"{wl.name}, seed {args.seed}, {'traced' if args.trace else 'timed'}: {wl.describe()}")
    for name, value, unit, note in report["table"]:
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}")
    for name in report["absent"]:
        print(f"  {name:<38} {'absent':>14}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name] if not args.trace else layer_unit(name)}
            for name, value in report["values"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
