"""Randomized verification suites over the NFD operator algebra.

Five suites, each a stream of independently generated cases:

  - metric: the L1 distance satisfies the metric axioms on random triples.
  - lemma1: strength differences are bounded by operator-output distance.
  - lemma2: operator-output distance is bounded by the schedule-tail sum.
  - semigroup: two Boltzmann applications compose additively in gamma.
  - cauchy-tail: worst-case operator distances over [N, 4N] windows shrink
    as N grows along a Cauchy schedule.

Every case is reproducible from the master seed. The runner writes a
plain-text pass/fail report plus a CSV with one (case_id, lhs, rhs) row
per case, and reports the first failing case in detail. Each suite's line
in the report gives its worst margin, the smallest rhs - lhs over its
cases (before any slack), and the case where it occurs.

A suite is a generator ``suite(rng, cases)`` that draws its cases from
``rng`` and yields ``(case_id, lhs, rhs, problems)`` for each, where
``problems`` lists what failed, each as a non-empty message. The runner
records the problems joined by "; " as the case's detail, and a
:class:`CaseResult` holds exactly when its detail is empty. Any slack is
one of the module's slack constants, looked up when the suite runs, never
a literal in the suite; :func:`exceeds` decides ``lhs <= rhs + slack``. A
suite appended to :data:`SUITES` gets the next stream index, so the draws
of the earlier suites do not move.

The suites share nothing but the seed, so :func:`run_verify` runs them in
forked worker processes, one per suite up to the usable CPUs, and runs
them one after another in-process where only one CPU is usable or the
fork start method does not exist. The rows come back in suite order and
the outputs are the same bytes either way. Module state patched before
the call, such as a broken slack constant, reaches the workers only
because they are forked from the caller, not spawned fresh.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import product, repeat
from math import inf
from pathlib import Path
from typing import Iterator

import numpy as np

from .annealing import cauchy_schedule
from .nfd import NFD, distance
from .selection import boltzmann_apply
from .theory import cauchy_tail_profile, lemma1_check, lemma2_bound_check, tail_bound

LEMMA_ALPHAS = (1.1, 1.5, 2.0)
LEMMA_G0S = (0.1, 1.0, 10.0)
TAIL_CHECKPOINTS = (1, 2, 4, 8, 16, 32)
# the suites' slack; SEMIGROUP_TOL is the semigroup law's bound itself
METRIC_SLACK = 1e-12
LEMMA_SLACK = 1e-9
SEMIGROUP_TOL = 1e-10
PROFILE_SLACK = 1e-12

Case = tuple[str, float, float, list[str]]  # (case_id, lhs, rhs, problems)
Row = tuple[str, float, float, str]  # (case_id, lhs, rhs, detail), as workers return it


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    lhs: float
    rhs: float
    detail: str = ""

    @property
    def holds(self) -> bool:
        return not self.detail

    @property
    def margin(self) -> float:
        """How far the inequality lhs <= rhs holds; negative when it fails."""
        return self.rhs - self.lhs


@dataclass
class VerifyResult:
    """Outcome of one verification run: its cases and report lines, in suite order."""

    cases: list[CaseResult] = field(default_factory=list)
    suite_lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.cases)

    @property
    def first_failure(self) -> CaseResult | None:
        return next((c for c in self.cases if not c.holds), None)

    def failure_line(self) -> str:
        """The report's 'first failure:' line; call only when not ``ok``."""
        c = self.first_failure
        return f"first failure: {c.case_id} lhs={c.lhs!r} rhs={c.rhs!r} {c.detail}"


def random_nfd(
    rng: np.random.Generator,
    max_support: int = 20,
    value_low: float = 0.0,
    value_high: float = 1.0,
) -> NFD:
    """Random NFD: support size 1..max_support, uniform values, Dirichlet masses.

    The masses are standard exponentials times ``1.0 / acc``, where ``acc``
    adds them one by one in order. That is how numpy's ``dirichlet``
    computes shape 1 (its shape-1 gamma is the standard exponential), so
    they are the doubles ``rng.dirichlet(np.ones(k))`` gives from the same
    stream position, without its per-call cost. The sorted, distinct values
    become the support unchecked, so the range is checked before any draw.

    Raises:
        ValueError: Unless 0 <= value_low <= value_high < inf.
    """
    if not 0.0 <= value_low <= value_high < inf:
        raise ValueError(
            f"value range must satisfy 0 <= low <= high < inf, "
            f"got [{value_low!r}, {value_high!r}]"
        )
    while True:
        k = int(rng.integers(1, max_support + 1))
        values = sorted(set(rng.uniform(value_low, value_high, size=k).tolist()))
        draws = rng.standard_exponential(len(values)).tolist()
        acc = 0.0  # in order, as dirichlet adds; sum() compensates from Python 3.12
        for e in draws:
            acc += e
        scale = 1.0 / acc
        masses = [e * scale for e in draws]
        if min(masses) > 0.0:
            return NFD._on_support(values, masses)


def choice(rng: np.random.Generator, options: tuple[float, ...]) -> float:
    """``rng.choice(options)``: the same index draw, without the array."""
    return options[int(rng.integers(0, len(options)))]


def exceeds(lhs: float, rhs: float, slack: float) -> bool:
    """Whether ``lhs <= rhs + slack`` fails; a NaN on either side fails it."""
    return not lhs <= rhs + slack


def metric_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Nonnegativity, identity, symmetry, and triangle inequality on triples."""
    for i in range(cases):
        p1, p2, p3 = (random_nfd(rng) for _ in range(3))
        d12, d13, d23 = distance(p1, p2), distance(p1, p3), distance(p2, p3)
        checks = (
            (min(d12, d13, d23) < 0.0, "negative distance"),
            (exceeds(max(d12, d13, d23), 2.0, METRIC_SLACK), "distance above 2"),
            (distance(p1, p1) != 0.0, "d(phi, phi) != 0"),
            (
                d12 == 0.0 and p1.entries != p2.entries,
                "zero distance between distinct NFDs",
            ),
            (distance(p2, p1) != d12, "asymmetric"),
            (exceeds(d13, d12 + d23, METRIC_SLACK), "triangle inequality violated"),
        )
        problems = [message for failed, message in checks if failed]
        yield f"metric-{i:06d}", d13, d12 + d23, problems


def lemma1_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Strength-difference bound on random (phi, gamma1, gamma2)."""
    for i in range(cases):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0.0, 50.0, size=2).tolist()
        chk = lemma1_check(phi, g1, g2)
        bad = exceeds(chk.lhs, chk.rhs, LEMMA_SLACK)
        problems = [f"gamma1={g1!r} gamma2={g2!r}"] if bad else []
        yield f"lemma1-{i:06d}", chk.lhs, chk.rhs, problems


def lemma2_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Tail bound on random NFDs and schedule windows 1 <= m < n <= 50."""
    for i in range(cases):
        phi = random_nfd(rng)  # support in [0, 1] keeps the bound informative
        alpha = choice(rng, LEMMA_ALPHAS)
        g0 = choice(rng, LEMMA_G0S)
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        chk = lemma2_bound_check(phi, cauchy_schedule(g0, alpha), m, n)
        bad = exceeds(chk.lhs, chk.rhs, LEMMA_SLACK)
        problems = [f"alpha={alpha} g0={g0} m={m} n={n}"] if bad else []
        yield f"lemma2-{i:06d}", chk.lhs, chk.rhs, problems


def semigroup_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Composition in two steps equals one application at the summed gamma."""
    for i in range(cases):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0.0, 50.0, size=2).tolist()
        two_step = boltzmann_apply(boltzmann_apply(phi, g1), g2)
        one_step = boltzmann_apply(phi, g1 + g2)
        err = distance(two_step, one_step)
        bad = exceeds(err, SEMIGROUP_TOL, 0.0)
        problems = [f"gamma1={g1!r} gamma2={g2!r}"] if bad else []
        yield f"semigroup-{i:06d}", err, SEMIGROUP_TOL, problems


def cauchy_tail_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Window distances obey the tail bound; the reference profile contracts.

    Two kinds of case. Random-NFD cases check, per checkpoint N, that the
    worst window distance never exceeds the schedule-tail bound for the
    window (m, n) = (N, 4N) or the metric's hard ceiling of 2; that
    inequality is what drives the operator sequence to be Cauchy.
    Monotone decay of the profile itself only sets in once the schedule has
    pushed gamma past the distribution's crossover region, so it is
    asserted on the reference configuration (an even two-point NFD with
    g0 = 10), not on arbitrary cases, where early checkpoints can
    legitimately rise before contracting.
    """
    n_phis = max(1, cases // 100)
    settings = product(LEMMA_ALPHAS, LEMMA_G0S, range(n_phis))
    for case_no, (alpha, g0, _) in enumerate(settings):
        schedule = cauchy_schedule(g0, alpha)
        phi = random_nfd(rng)
        profile = cauchy_tail_profile(phi, schedule, list(TAIL_CHECKPOINTS))
        problems = []
        worst_lhs = 0.0
        worst_rhs = 2.0
        for ckpt, val in profile:
            cap = min(2.0, tail_bound(phi, schedule, ckpt, 4 * ckpt))
            if exceeds(val, cap, LEMMA_SLACK):
                problems.append(f"window {ckpt}..{4 * ckpt} above bound")
            if val > worst_lhs:
                worst_lhs, worst_rhs = val, cap
        if problems:
            problems[-1] += f" (alpha={alpha} g0={g0})"
        yield f"cauchytail-{case_no:06d}", worst_lhs, worst_rhs, problems
    for alpha in LEMMA_ALPHAS:
        phi = NFD({0.0: 0.5, 1.0: 0.5})
        profile = cauchy_tail_profile(
            phi, cauchy_schedule(10.0, alpha), list(TAIL_CHECKPOINTS)
        )
        vals = [v for _, v in profile]
        problems = [
            f"increase at {ck_a}->{ck_b}"
            for (ck_a, va), (ck_b, vb) in zip(profile, profile[1:])
            if exceeds(vb, va, PROFILE_SLACK)
        ]
        if vals[0] > 1e-9 and not vals[-1] < vals[0]:
            problems.append("final value not below first")
        yield f"cauchytail-ref-alpha{alpha:g}", vals[-1], vals[0], problems


# (name, suite) in stream order: suite i draws from PCG64([seed, i])
SUITES = (
    ("metric", metric_suite),
    ("lemma1", lemma1_suite),
    ("lemma2", lemma2_suite),
    ("semigroup", semigroup_suite),
    ("cauchy-tail", cauchy_tail_suite),
)


def _suite_cases(seed: int, suite_index: int, case_count: int) -> list[Row]:
    """Suite ``suite_index``'s rows ``(case_id, lhs, rhs, detail)``, drawn
    from ``PCG64([seed, suite_index])``; ``detail`` is empty exactly when
    the case holds."""
    rng = np.random.Generator(np.random.PCG64([seed, suite_index]))
    _, suite = SUITES[suite_index]
    return [
        (case_id, lhs, rhs, "; ".join(problems))
        for case_id, lhs, rhs, problems in suite(rng, case_count)
    ]


def _workers() -> int:
    """Worker processes for run_verify: one per suite, up to the usable
    CPUs; 1, which runs the suites in-process, where fork does not exist."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(len(SUITES), cpus)


def run_verify(seed: int, case_count: int, output_dir: str | Path) -> VerifyResult:
    """Run all suites, write report and per-case CSV, return the outcome.

    With more than one worker (:func:`_workers`) the suites run in a pool
    forked for this call and shut down before it returns, also when a
    suite raises. Spawned or forkserver workers would silently lack any
    patch made before the call; the package starts no threads that a
    fork could leave in a bad state.

    Raises:
        ValueError: If case_count < 1.
    """
    if case_count < 1:
        raise ValueError("case_count must be >= 1")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    workers = _workers()
    jobs = (repeat(seed), range(len(SUITES)), repeat(case_count))
    if workers > 1:
        # imported here, not at module level: cli imports this module, and
        # they would add about 1 MB of RSS to every process that runs a GA
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            suite_rows = list(pool.map(_suite_cases, *jobs))
    else:
        suite_rows = list(map(_suite_cases, *jobs))

    result = VerifyResult()
    for (name, _), rows in zip(SUITES, suite_rows):
        cases = [CaseResult(*row) for row in rows]
        bad = sum(1 for c in cases if not c.holds)
        status = "PASS" if bad == 0 else "FAIL"
        worst = min(cases, key=lambda c: c.margin)
        result.suite_lines.append(
            f"{status} {name}: {len(cases)} cases, {bad} violations, "
            f"worst margin {worst.margin!r} at {worst.case_id}"
        )
        result.cases.extend(cases)

    with open(out_dir / "verify_cases.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "lhs", "rhs"])
        for c in result.cases:
            writer.writerow([c.case_id, f"{c.lhs:.17g}", f"{c.rhs:.17g}"])

    report_path = out_dir / "verify_report.txt"
    lines = [f"seed = {seed}", f"cases per suite = {case_count}", ""]
    lines += result.suite_lines
    if not result.ok:
        lines += ["", result.failure_line()]
    lines += ["", "ALL PASS" if result.ok else "FAILURES PRESENT"]
    report_path.write_text("\n".join(lines) + "\n")
    return result
