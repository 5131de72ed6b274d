"""The benchmark's three workloads: what each call runs and how it is checked.

Every workload is single-process, single-threaded and closed-loop: call k
starts when call k-1 has returned. Call k is a pure function of the
workload seed and k, so the same seed replays the same inputs. A call goes
through a stable entry point only (``cli.run_experiment``, ``cli.main`` or
``verify.run_verify``), looked up on its module at call time so that the
traced run's wrappers see it.

Each call is split into ``execute`` (the timed call into cauchyga) and
``check`` (the untimed output check that decides whether the call counts as
failed).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cauchyga import annealing, benchmarks, cli, verify

FUNCTIONS = ("rastrigin", "griewangk", "ackley", "schwefel")
SCHEMES = ("proportionate", "boltzmann_const", "cauchy_boltzmann")
SCHEME_FLAGS = {
    "proportionate": "proportionate",
    "boltzmann_const": "boltzmann-const",
    "cauchy_boltzmann": "cauchy-boltzmann",
}
# Per-function annealing speed of the paper's comparison grid; the same
# values as BEST_ALPHA in tests/test_acceptance.py.
BEST_ALPHA = {"rastrigin": 2.0, "ackley": 1.1, "griewangk": 1.1, "schwefel": 1.5}
GAMMA = 300.0  # constant gamma and Cauchy gamma target of the protocol
DIMS = 15
BITS_PER_VAR = 5
SCHEDULE_ALPHAS = (1.1, 1.5, 2.0, 3.0)


def call_seed(seed: int, k: int) -> int:
    """Master seed of call k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Outcome:
    """Result of checking one call's outputs."""

    problem: str = ""  # empty when every check passed
    generations: int = 0  # GA generations the call completed
    cases: int = 0  # verification cases the call checked
    series: Path | None = None  # experiment CSV, for the re-run check

    @property
    def ok(self) -> bool:
        return not self.problem


@dataclass(frozen=True)
class Call:
    index: int
    execute: Callable[[], object]
    check: Callable[[object], Outcome]


def data_rows(content: bytes) -> bytes:
    """The CSV bytes below the '#' metadata lines."""
    lines = content.splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"#"))


def rows_sha256(content: bytes) -> str:
    return hashlib.sha256(data_rows(content)).hexdigest()


def expected_gammas(scheme: str, alpha: float, generations: int) -> list[float]:
    """The gamma_n column the experiment CSV must carry."""
    if scheme == "proportionate":
        return [0.0] * generations
    if scheme == "boltzmann_const":
        schedule = annealing.constant_schedule(GAMMA)
    else:
        g0 = annealing.calibrate_g0(alpha, generations, GAMMA)
        schedule = annealing.cauchy_schedule(g0, alpha)
    return [annealing.gamma_at(schedule, n) for n in range(1, generations + 1)]


def check_series(
    path: Path, function: str, scheme: str, alpha: float, generations: int
) -> str:
    """Problems found in one experiment CSV, or '' when it is sound."""
    if not path.is_file():
        return f"{path.name} not written"
    text = data_rows(path.read_bytes()).decode()
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != generations:
        return f"{path.name}: {len(rows)} rows, expected {generations}"
    spec = benchmarks.make_objective(function, DIMS)
    best = [float(r["best_raw_mean"]) for r in rows]
    strength = [float(r["strength_mean"]) for r in rows]
    gammas = [float(r["gamma_n"]) for r in rows]
    if [int(r["generation"]) for r in rows] != list(range(1, generations + 1)):
        return f"{path.name}: generation column is not 1..{generations}"
    if any(b > a for a, b in zip(best, best[1:])):
        return f"{path.name}: best_raw_mean increases"
    if not all(spec.raw_lower <= b <= spec.raw_upper for b in best):
        return f"{path.name}: best_raw_mean outside the objective's raw bounds"
    if not all(0.0 <= s <= 2.0 for s in strength):
        return f"{path.name}: strength_mean outside [0, 2]"
    if gammas != expected_gammas(scheme, alpha, generations):
        return f"{path.name}: gamma_n differs from annealing.gamma_at"
    return ""


def check_schedule(path: Path, alpha: float, horizon: int) -> str:
    """Problems found in one schedule CSV, or '' when it is sound."""
    if not path.is_file():
        return f"{path.name} not written"
    rows = list(csv.DictReader(io.StringIO(data_rows(path.read_bytes()).decode())))
    if [int(r["n"]) for r in rows] != list(range(1, horizon + 1)):
        return f"{path.name}: n column is not 1..{horizon}"
    gammas = [float(r["gamma_n"]) for r in rows]
    if gammas != expected_gammas("cauchy_boltzmann", alpha, horizon):
        return f"{path.name}: gamma_n differs from annealing.gamma_at"
    if not math.isclose(gammas[-1], GAMMA, rel_tol=1e-12):
        return f"{path.name}: schedule ends at {gammas[-1]!r}, not {GAMMA}"
    return ""


def _main(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured; usage errors become exit codes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class GaGrid:
    """The paper's 4-function x 3-scheme grid through cli.run_experiment.

    Call k runs function k mod 4 under scheme k mod 3, so every 12 calls
    cover the grid once and any prefix of calls is balanced across schemes
    (proportionate experiments cost more per generation than Boltzmann
    ones). All experiments share one output directory, as the acceptance
    matrix does, so each call also refreshes its combined CSV.
    """

    name = "ga-grid"
    pass_len = 12
    throughput = ("gens_per_s", "generations/s")

    def __init__(self, seed: int, out_dir: Path, smoke: bool) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.pop_size, self.generations, self.runs = (
            (10, 5, 1) if smoke else (150, 100, 3)
        )

    def describe(self) -> str:
        return (
            f"pop {self.pop_size}, {DIMS} dims x {BITS_PER_VAR} bits, "
            f"{self.generations} generations, {self.runs} runs per experiment"
        )

    def prepare(self, k: int, out_dir: Path | None = None) -> Call:
        function, scheme = FUNCTIONS[k % 4], SCHEMES[k % 3]
        alpha = BEST_ALPHA[function]
        out = out_dir or self.out_dir
        cfg = cli.CliConfig(
            function=function,
            selection=scheme,
            alpha=alpha,
            gamma=GAMMA,
            gamma_target=GAMMA,
            generations=self.generations,
            pop_size=self.pop_size,
            runs=self.runs,
            seed=call_seed(self.seed, k),
            bits_per_var=BITS_PER_VAR,
            dims=DIMS,
            output=str(out),
        )
        series = out / f"{function}_{scheme}.csv"

        def check(written) -> Outcome:
            if series not in written:
                return Outcome(f"run_experiment did not report {series.name}")
            problem = check_series(series, function, scheme, alpha, self.generations)
            return Outcome(problem, generations=self.runs * self.generations,
                           series=series)

        return Call(k, lambda: cli.run_experiment(cfg), check)


class GaSweep:
    """Many small experiments through cli.main, with schedule exports mixed in.

    Every fourth call is ``cauchyga schedule``; the others are ``cauchyga
    run`` with one run of a small population over a short horizon, cycling
    through all functions and schemes into one output directory, so that
    each run re-reads its sibling CSVs to refresh the combined CSV. Per call
    the fixed costs of the front end (argument parsing, config merge, g0
    calibration, CSV writes) are a large share, so a change that adds a
    fixed cost per experiment shows here.
    """

    name = "ga-sweep"
    pass_len = 16
    throughput = ("gens_per_s", "generations/s")

    def __init__(self, seed: int, out_dir: Path, smoke: bool) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.pop_size, self.generations = (6, 3) if smoke else (30, 10)

    def describe(self) -> str:
        return (
            f"pop {self.pop_size}, {DIMS} dims x {BITS_PER_VAR} bits, "
            f"{self.generations} generations, 1 run per experiment; "
            f"every 4th call a {self.generations}-step schedule export"
        )

    def prepare(self, k: int, out_dir: Path | None = None) -> Call:
        out = out_dir or self.out_dir
        if k % 4 == 3:
            return self._schedule_call(k, out)
        j = k - k // 4  # index among the run calls
        function, scheme = FUNCTIONS[j % 4], SCHEMES[j % 3]
        alpha = BEST_ALPHA[function]
        argv = [
            "run",
            "--function", function,
            "--selection", SCHEME_FLAGS[scheme],
            "--alpha", repr(alpha),
            "--gamma", repr(GAMMA),
            "--gamma-target", repr(GAMMA),
            "--generations", str(self.generations),
            "--pop-size", str(self.pop_size),
            "--runs", "1",
            "--seed", str(call_seed(self.seed, k)),
            "--bits-per-var", str(BITS_PER_VAR),
            "--dims", str(DIMS),
            "--output", str(out),
        ]
        series = out / f"{function}_{scheme}.csv"

        def check(result) -> Outcome:
            code, printed = result
            if code != 0:
                return Outcome(f"cauchyga run exited {code}")
            if str(series) not in printed.splitlines():
                return Outcome(f"cauchyga run did not report {series.name}")
            problem = check_series(series, function, scheme, alpha, self.generations)
            return Outcome(problem, generations=self.generations, series=series)

        return Call(k, lambda: _main(argv), check)

    def _schedule_call(self, k: int, out: Path) -> Call:
        alpha = SCHEDULE_ALPHAS[(k // 4) % len(SCHEDULE_ALPHAS)]
        horizon = self.generations
        argv = [
            "schedule",
            "--alpha", repr(alpha),
            "--gamma-target", repr(GAMMA),
            "--horizon", str(horizon),
            "--output", str(out),
        ]
        path = out / f"schedule_alpha{alpha:g}.csv"

        def check(result) -> Outcome:
            code, printed = result
            if code != 0:
                return Outcome(f"cauchyga schedule exited {code}")
            if str(path) not in printed.splitlines():
                return Outcome(f"cauchyga schedule did not report {path.name}")
            return Outcome(check_schedule(path, alpha, horizon))

        return Call(k, lambda: _main(argv), check)


def expected_case_count(cases: int) -> int:
    """Cases run_verify reports: four suites of ``cases`` plus the tail suite."""
    return 4 * cases + 9 * max(1, cases // 100) + 3


class Verify:
    """verify.run_verify at a fixed case count; never touches the engine."""

    name = "verify"
    pass_len = 4
    throughput = ("cases_per_s", "cases/s")

    def __init__(self, seed: int, out_dir: Path, smoke: bool) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.cases = 20 if smoke else 1000

    def describe(self) -> str:
        return f"{self.cases} cases per suite, {expected_case_count(self.cases)} per call"

    def prepare(self, k: int, out_dir: Path | None = None) -> Call:
        out = out_dir or self.out_dir
        seed = call_seed(self.seed, k)
        expected = expected_case_count(self.cases)

        def check(result) -> Outcome:
            if not result.ok:
                first = result.first_failure
                return Outcome(f"verify failed at {first.case_id}: {first.detail}")
            if len(result.cases) != expected:
                return Outcome(f"{len(result.cases)} cases, expected {expected}")
            return Outcome(cases=len(result.cases))

        return Call(k, lambda: verify.run_verify(seed, self.cases, out), check)


WORKLOADS = {w.name: w for w in (GaGrid, GaSweep, Verify)}


def make(name: str, seed: int, out_dir: Path, smoke: bool):
    return WORKLOADS[name](seed, out_dir, smoke)
