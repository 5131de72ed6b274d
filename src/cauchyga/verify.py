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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import inf
from pathlib import Path

import numpy as np

from .annealing import cauchy_schedule
from .nfd import NFD, distance
from .selection import boltzmann_apply
from .theory import cauchy_tail_profile, lemma1_check, lemma2_bound_check, tail_bound

LEMMA_ALPHAS = (1.1, 1.5, 2.0)
LEMMA_G0S = (0.1, 1.0, 10.0)
TAIL_CHECKPOINTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Tolerances:
    """Per-suite slack values; loosened or broken only by tests."""

    metric_slack: float = 1e-12
    lemma_slack: float = 1e-9
    semigroup_tol: float = 1e-10
    profile_slack: float = 1e-12


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    lhs: float
    rhs: float
    holds: bool
    detail: str = ""

    @property
    def margin(self) -> float:
        """How far the inequality lhs <= rhs holds; negative when it fails."""
        return self.rhs - self.lhs


@dataclass
class VerifyResult:
    """Outcome of one verification run."""

    seed: int
    case_count: int
    cases: list[CaseResult] = field(default_factory=list)
    suite_lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.cases)

    @property
    def first_failure(self) -> CaseResult | None:
        for c in self.cases:
            if not c.holds:
                return c
        return None


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


def metric_suite(rng: np.random.Generator, cases: int, tol: Tolerances) -> list[CaseResult]:
    """Nonnegativity, identity, symmetry, and triangle inequality on triples."""
    out = []
    for i in range(cases):
        p1, p2, p3 = (random_nfd(rng) for _ in range(3))
        d12, d13, d23 = distance(p1, p2), distance(p1, p3), distance(p2, p3)
        problems = []
        if min(d12, d13, d23) < 0.0:
            problems.append("negative distance")
        if max(d12, d13, d23) > 2.0 + tol.metric_slack:
            problems.append("distance above 2")
        if distance(p1, p1) != 0.0:
            problems.append("d(phi, phi) != 0")
        if d12 == 0.0 and (p1.entries != p2.entries):
            problems.append("zero distance between distinct NFDs")
        if distance(p2, p1) != d12:
            problems.append("asymmetric")
        if d13 > d12 + d23 + tol.metric_slack:
            problems.append("triangle inequality violated")
        out.append(
            CaseResult(
                case_id=f"metric-{i:06d}",
                lhs=d13,
                rhs=d12 + d23,
                holds=not problems,
                detail="; ".join(problems),
            )
        )
    return out


def lemma1_suite(rng: np.random.Generator, cases: int, tol: Tolerances) -> list[CaseResult]:
    """Strength-difference bound on random (phi, gamma1, gamma2)."""
    out = []
    for i in range(cases):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0.0, 50.0, size=2)
        chk = lemma1_check(phi, float(g1), float(g2))
        holds = chk.lhs <= chk.rhs + tol.lemma_slack
        out.append(
            CaseResult(
                case_id=f"lemma1-{i:06d}",
                lhs=chk.lhs,
                rhs=chk.rhs,
                holds=holds,
                detail="" if holds else f"gamma1={g1!r} gamma2={g2!r}",
            )
        )
    return out


def lemma2_suite(rng: np.random.Generator, cases: int, tol: Tolerances) -> list[CaseResult]:
    """Tail bound on random NFDs and schedule windows 1 <= m < n <= 50."""
    schedules = {
        (g0, alpha): cauchy_schedule(g0, alpha)
        for alpha in LEMMA_ALPHAS
        for g0 in LEMMA_G0S
    }
    out = []
    for i in range(cases):
        phi = random_nfd(rng)  # support in [0, 1] keeps the bound informative
        alpha = choice(rng, LEMMA_ALPHAS)
        g0 = choice(rng, LEMMA_G0S)
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        chk = lemma2_bound_check(phi, schedules[g0, alpha], m, n)
        holds = chk.lhs <= chk.rhs + tol.lemma_slack
        out.append(
            CaseResult(
                case_id=f"lemma2-{i:06d}",
                lhs=chk.lhs,
                rhs=chk.rhs,
                holds=holds,
                detail="" if holds else f"alpha={alpha} g0={g0} m={m} n={n}",
            )
        )
    return out


def semigroup_suite(rng: np.random.Generator, cases: int, tol: Tolerances) -> list[CaseResult]:
    """Composition in two steps equals one application at the summed gamma."""
    out = []
    for i in range(cases):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0.0, 50.0, size=2)
        two_step = boltzmann_apply(boltzmann_apply(phi, float(g1)), float(g2))
        one_step = boltzmann_apply(phi, float(g1) + float(g2))
        err = distance(two_step, one_step)
        out.append(
            CaseResult(
                case_id=f"semigroup-{i:06d}",
                lhs=err,
                rhs=tol.semigroup_tol,
                holds=err <= tol.semigroup_tol,
                detail="" if err <= tol.semigroup_tol else f"gamma1={g1!r} gamma2={g2!r}",
            )
        )
    return out


def cauchy_tail_suite(
    rng: np.random.Generator, cases: int, tol: Tolerances
) -> list[CaseResult]:
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
    out = []
    n_phis = max(1, cases // 100)
    case_no = 0
    for alpha in LEMMA_ALPHAS:
        for g0 in LEMMA_G0S:
            schedule = cauchy_schedule(g0, alpha)
            for _ in range(n_phis):
                phi = random_nfd(rng)
                profile = cauchy_tail_profile(phi, schedule, list(TAIL_CHECKPOINTS))
                problems = []
                worst_lhs = 0.0
                worst_rhs = 2.0
                for ckpt, val in profile:
                    cap = min(2.0, tail_bound(phi, schedule, ckpt, 4 * ckpt))
                    if val > cap + tol.lemma_slack:
                        problems.append(f"window {ckpt}..{4 * ckpt} above bound")
                    if val > worst_lhs:
                        worst_lhs, worst_rhs = val, cap
                out.append(
                    CaseResult(
                        case_id=f"cauchytail-{case_no:06d}",
                        lhs=worst_lhs,
                        rhs=worst_rhs,
                        holds=not problems,
                        detail="; ".join(problems)
                        + ("" if not problems else f" (alpha={alpha} g0={g0})"),
                    )
                )
                case_no += 1
    for alpha in LEMMA_ALPHAS:
        phi = NFD({0.0: 0.5, 1.0: 0.5})
        profile = cauchy_tail_profile(
            phi, cauchy_schedule(10.0, alpha), list(TAIL_CHECKPOINTS)
        )
        vals = [v for _, v in profile]
        problems = []
        for (ck_a, va), (ck_b, vb) in zip(profile, profile[1:]):
            if vb > va + tol.profile_slack:
                problems.append(f"increase at {ck_a}->{ck_b}")
        if vals[0] > 1e-9 and not vals[-1] < vals[0]:
            problems.append("final value not below first")
        out.append(
            CaseResult(
                case_id=f"cauchytail-ref-alpha{alpha:g}",
                lhs=vals[-1],
                rhs=vals[0],
                holds=not problems,
                detail="; ".join(problems),
            )
        )
    return out


def run_verify(
    seed: int,
    case_count: int,
    output_dir: str | Path,
    tolerances: Tolerances | None = None,
) -> VerifyResult:
    """Run all suites, write report and per-case CSV, return the outcome.

    Raises:
        ValueError: If case_count < 1.
    """
    if case_count < 1:
        raise ValueError("case_count must be >= 1")
    tol = tolerances or Tolerances()
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = VerifyResult(seed=seed, case_count=case_count)
    suites = (
        ("metric", metric_suite),
        ("lemma1", lemma1_suite),
        ("lemma2", lemma2_suite),
        ("semigroup", semigroup_suite),
        ("cauchy-tail", cauchy_tail_suite),
    )
    for suite_index, (name, suite) in enumerate(suites):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, suite_index]))
        )
        cases = suite(rng, case_count, tol)
        bad = sum(1 for c in cases if not c.holds)
        status = "PASS" if bad == 0 else "FAIL"
        worst = min(cases, key=lambda c: c.margin)
        result.suite_lines.append(
            f"{status} {name}: {len(cases)} cases, {bad} violations, "
            f"worst margin {worst.margin!r} at {worst.case_id}"
        )
        result.cases.extend(cases)

    csv_path = out_dir / "verify_cases.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "lhs", "rhs"])
        for c in result.cases:
            writer.writerow([c.case_id, f"{c.lhs:.17g}", f"{c.rhs:.17g}"])

    report_path = out_dir / "verify_report.txt"
    lines = [f"seed = {seed}", f"cases per suite = {case_count}", ""]
    lines.extend(result.suite_lines)
    first = result.first_failure
    if first is not None:
        lines.append("")
        lines.append(
            f"first failure: {first.case_id} lhs={first.lhs!r} rhs={first.rhs!r} "
            f"{first.detail}"
        )
    lines.append("")
    lines.append("ALL PASS" if result.ok else "FAILURES PRESENT")
    report_path.write_text("\n".join(lines) + "\n")
    return result
