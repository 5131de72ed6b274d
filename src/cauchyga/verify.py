"""Randomized verification suites over the NFD operator algebra.

Five suites, each a stream of independently generated cases:

  - metric: the L1 distance satisfies the metric axioms on random triples.
  - lemma1: strength differences are bounded by operator-output distance.
  - lemma2: operator-output distance is bounded by the schedule-tail sum.
  - semigroup: two Boltzmann applications compose additively in gamma.
  - cauchy-tail: worst-case operator distances over [N, 4N] windows shrink
    as N grows along a Cauchy schedule.

:func:`run_verify` runs every suite in the caller and writes a pass/fail
report and a CSV with one (case_id, lhs, rhs) row per case. The report
names the first failing case, and each suite's line gives its worst
margin (the smallest rhs - lhs, before any slack) and where it occurs.

Suite i draws from ``PCG64([seed, i])`` in draw order 2
(:data:`DRAW_ORDER`, named in the report), in blocks of :data:`CASE_BLOCK`
cases: first the block's NFDs in one :func:`random_nfd_block` call (three
per case for metric, one otherwise), then one call per case parameter: the
two gammas for lemma1 and semigroup; the alpha indices, g0 indices, m,
then n given m for lemma2. A suite always draws a full block, so a shorter
run is a prefix of a longer one. cauchy-tail draws all its NFDs in one
call. metric compares NFDs on different supports (:func:`random_nfds`);
the other suites check a block as padded arrays (see :mod:`cauchyga.nfd`)
through the block formulas of :mod:`cauchyga.theory`.

A suite is a generator ``suite(rng, cases)`` yielding ``(case_id, lhs,
rhs, problems)`` per case; the runner joins the problems by "; " into the
:class:`CaseResult` detail, empty exactly when the case holds. Slacks are
module attributes read when a suite runs, so a patch made before the call
reaches it; :func:`exceeds` decides ``lhs <= rhs + slack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import inf
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .annealing import cauchy_schedule, tail_sum
from .benchmarks import _as_int
from .nfd import NFD, distance, row_distances
from .selection import boltzmann_tilt
from .theory import cauchy_tail_profile, lemma1_bounds, lemma2_bounds, tail_bounds, tail_profiles

LEMMA_ALPHAS = (1.1, 1.5, 2.0)
LEMMA_G0S = (0.1, 1.0, 10.0)
TAIL_CHECKPOINTS = (1, 2, 4, 8, 16, 32)
DRAW_ORDER = 2  # the draw order of the module docstring; bumped when it changes
CASE_BLOCK = 128  # cases per block of bulk draws, a constant of draw order 2
# the suites' slack; SEMIGROUP_TOL is the semigroup law's bound itself
METRIC_SLACK = 1e-12
LEMMA_SLACK = 1e-9
SEMIGROUP_TOL = 1e-10
PROFILE_SLACK = 1e-12

Case = tuple[str, float, float, list[str]]  # (case_id, lhs, rhs, problems)


class CaseResult(NamedTuple):
    """One case's two sides; ``detail`` says what failed, empty if it held."""

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


def random_nfd_block(
    rng: np.random.Generator,
    count: int,
    max_support: int = 20,
    value_low: float = 0.0,
    value_high: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` random NFDs as a padded block of width ``max_support``:
    support size 1..max_support, uniform values, Dirichlet masses.

    One ``integers`` call draws the sizes, one ``uniform`` call the values;
    each row is sorted and deduplicated, then one ``standard_exponential``
    call draws an exponential per distinct value. A row's masses are its
    exponentials times ``1.0 / acc``, ``acc`` their in-order sum: numpy's
    shape-1 ``dirichlet``, bit for bit. A row with a zero mass is drawn
    again, after the others, through ``count`` 1.

    Raises:
        ValueError: Unless 0 <= value_low <= value_high < inf; checked first.
    """
    if not 0.0 <= value_low <= value_high < inf:
        raise ValueError(
            f"value range must satisfy 0 <= low <= high < inf, "
            f"got [{value_low!r}, {value_high!r}]"
        )
    sizes = rng.integers(1, max_support + 1, size=count)
    columns = np.arange(max_support)
    drawn = np.full((count, max_support), inf)
    drawn[columns < sizes[:, None]] = rng.uniform(value_low, value_high, size=sizes.sum())
    drawn.sort(axis=1)
    # keep a value unless it is padding or equals the one before it
    keep = drawn < inf
    keep[:, 1:] &= drawn[:, 1:] != drawn[:, :-1]
    lengths = keep.sum(axis=1)
    real = columns < lengths[:, None]
    values, exponentials = np.zeros((2, count, max_support))
    values[real] = drawn[keep]
    exponentials[real] = rng.standard_exponential(lengths.sum())
    acc = np.cumsum(exponentials, axis=1)[:, -1]
    masses = exponentials * (1.0 / np.where(acc > 0.0, acc, np.nan))[:, None]  # NaN: drawn again
    for r in np.flatnonzero(~((masses > 0.0) | ~real).all(axis=1)).tolist():
        again = random_nfd_block(rng, 1, max_support, value_low, value_high)
        values[r], masses[r], lengths[r] = (a[0] for a in again)
    return values, masses, lengths


def random_nfds(
    rng: np.random.Generator,
    count: int,
    max_support: int = 20,
    value_low: float = 0.0,
    value_high: float = 1.0,
) -> list[NFD]:
    """The NFDs of :func:`random_nfd_block`, drawn the same way."""
    rows = (a.tolist() for a in random_nfd_block(rng, count, max_support, value_low, value_high))
    return [NFD._on_support(v[:k], m[:k]) for v, m, k in zip(*rows)]


def random_nfd(
    rng: np.random.Generator,
    max_support: int = 20,
    value_low: float = 0.0,
    value_high: float = 1.0,
) -> NFD:
    """One random NFD, as :func:`random_nfds` draws it at ``count`` 1."""
    return random_nfds(rng, 1, max_support, value_low, value_high)[0]


def exceeds(lhs: float, rhs: float, slack: float) -> bool:
    """Whether ``lhs <= rhs + slack`` fails; a NaN on either side fails it."""
    return not lhs <= rhs + slack


def _blocks(cases: int, size: int = CASE_BLOCK) -> Iterator[range]:
    """Each block's case indices; the last may hold fewer than drawn."""
    return (range(i, min(i + size, cases)) for i in range(0, cases, size))


def metric_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Nonnegativity, identity, symmetry, and triangle inequality on triples."""
    for block in _blocks(cases):
        phis = random_nfds(rng, 3 * CASE_BLOCK)
        for i, p1, p2, p3 in zip(block, phis[0::3], phis[1::3], phis[2::3]):
            d12, d13, d23 = distance(p1, p2), distance(p1, p3), distance(p2, p3)
            checks = (
                (min(d12, d13, d23) < 0.0, "negative distance"),
                (exceeds(max(d12, d13, d23), 2.0, METRIC_SLACK), "distance above 2"),
                (distance(p1, p1) != 0.0, "d(phi, phi) != 0"),
                (d12 == 0.0 and p1.entries != p2.entries, "zero distance between distinct NFDs"),
                (distance(p2, p1) != d12, "asymmetric"),
                (exceeds(d13, d12 + d23, METRIC_SLACK), "triangle inequality violated"),
            )
            problems = [message for failed, message in checks if failed]
            yield f"metric-{i:06d}", d13, d12 + d23, problems


def _cases(name: str, block: range, lhs: list, rhs: list, slack: float, detail) -> Iterator[Case]:
    """A block's cases as a suite yields them; ``detail(j)`` describes the
    block's case j, and is called only if that case fails."""
    for j, (i, l, r) in enumerate(zip(block, lhs, rhs)):
        yield f"{name}-{i:06d}", l, r, [detail(j)] if exceeds(l, r, slack) else []


def _cases_and_gammas(rng: np.random.Generator, cases: int) -> Iterator[tuple]:
    """Per block as lemma1 and semigroup draw it: the case indices, NFDs,
    two inverse temperatures per case, uniform on [0, 50), and ``detail``."""
    for block in _blocks(cases):
        nfds = random_nfd_block(rng, CASE_BLOCK)
        g1s, g2s = rng.uniform(0.0, 50.0, size=(CASE_BLOCK, 2))[: len(block)].T
        detail = lambda j: f"gamma1={g1s[j].item()!r} gamma2={g2s[j].item()!r}"
        yield block, tuple(a[: len(block)] for a in nfds), g1s, g2s, detail


def lemma1_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Strength-difference bound on random (phi, gamma1, gamma2)."""
    for block, nfds, g1s, g2s, detail in _cases_and_gammas(rng, cases):
        lhs, rhs = lemma1_bounds(*nfds, g1s, g2s)
        yield from _cases("lemma1", block, lhs, rhs, LEMMA_SLACK, detail)


def lemma2_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Tail bound on random NFDs and schedule windows 1 <= m < n <= 50;
    alpha and g0 are picked by index, the draws ``rng.choice`` makes."""
    schedules = {(a, g): cauchy_schedule(g, a) for a, g in product(LEMMA_ALPHAS, LEMMA_G0S)}
    for block in _blocks(cases):
        # support in [0, 1] keeps the bound informative
        nfds = random_nfd_block(rng, CASE_BLOCK)
        alphas = rng.integers(0, len(LEMMA_ALPHAS), size=CASE_BLOCK).tolist()
        g0s = rng.integers(0, len(LEMMA_G0S), size=CASE_BLOCK).tolist()
        ms = rng.integers(1, 50, size=CASE_BLOCK)
        ns = rng.integers(ms + 1, 51).tolist()
        k = len(block)
        picked = [schedules[LEMMA_ALPHAS[a], LEMMA_G0S[g]] for a, g in zip(alphas, g0s)][:k]
        ms = ms.tolist()[:k]
        lhs, rhs = lemma2_bounds(*(a[:k] for a in nfds), picked, ms, ns[:k])
        detail = lambda j: f"alpha={picked[j].alpha} g0={picked[j].g0} m={ms[j]} n={ns[j]}"
        yield from _cases("lemma2", block, lhs, rhs, LEMMA_SLACK, detail)


def semigroup_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Composition in two steps equals one application at the summed gamma."""
    for block, (values, masses, lengths), g1s, g2s, detail in _cases_and_gammas(rng, cases):
        once = boltzmann_tilt(values, masses, lengths, g1s)
        two_step = boltzmann_tilt(values, once, lengths, g2s)
        one_step = boltzmann_tilt(values, masses, lengths, g1s + g2s)
        errs = row_distances(two_step, one_step)
        yield from _cases("semigroup", block, errs, [SEMIGROUP_TOL] * len(block), 0.0, detail)


def cauchy_tail_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Window distances obey the tail bound; the reference profile contracts.

    Random-NFD cases check that the worst distance in each window (N, 4N)
    is within its tail bound and the metric's ceiling of 2, which makes the
    operator sequence Cauchy. A profile decays only once gamma is past the
    crossover region, so decay is asserted on the reference configuration
    alone (an even two-point NFD, g0 = 10).
    """
    settings = list(product(LEMMA_ALPHAS, LEMMA_G0S, range(max(1, cases // 100))))
    nfds = random_nfd_block(rng, len(settings))
    checkpoints, k = list(TAIL_CHECKPOINTS), len(TAIL_CHECKPOINTS)
    for block in _blocks(len(settings), 8):  # 8 NFDs' levels at a time keep memory small
        values, masses, lengths = (a[block.start : block.stop] for a in nfds)
        schedules = [cauchy_schedule(g0, a) for a, g0, _ in settings[block.start : block.stop]]
        # each window's bound, at most the metric's ceiling of 2
        tails = [tail_sum(s, n, 4 * n) for s in schedules for n in checkpoints]
        caps = [min(2.0, b) for b in tail_bounds(values.repeat(k, 0), lengths.repeat(k), tails)]
        profiles = tail_profiles(values, masses, lengths, schedules, checkpoints)
        for j, (c, profile) in enumerate(zip(block, profiles)):
            vals, bounds = [v for _, v in profile], caps[k * j : k * j + k]
            above = [n for n, v, b in zip(checkpoints, vals, bounds) if exceeds(v, b, LEMMA_SLACK)]
            problems = [f"window {n}..{4 * n} above bound" for n in above]
            if problems:
                alpha, g0, _ = settings[c]
                problems[-1] += f" (alpha={alpha} g0={g0})"
            # the first largest value with its bound; (0, 2) if every value is 0
            worst = max([(0.0, 2.0), *zip(vals, bounds)], key=lambda vb: vb[0])
            yield f"cauchytail-{c:06d}", *worst, problems
    for alpha in LEMMA_ALPHAS:
        phi = NFD({0.0: 0.5, 1.0: 0.5})
        profile = cauchy_tail_profile(phi, cauchy_schedule(10.0, alpha), checkpoints)
        vals = [v for _, v in profile]
        steps = zip(checkpoints, vals, checkpoints[1:], vals[1:])
        problems = [
            f"increase at {a}->{b}" for a, u, b, v in steps if exceeds(v, u, PROFILE_SLACK)
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


def _suite_output(seed: int, suite_index: int, case_count: int) -> tuple[str, list[CaseResult]]:
    """Suite ``suite_index``'s report line and cases, drawn from ``PCG64([seed, suite_index])``."""
    rng = np.random.Generator(np.random.PCG64([seed, suite_index]))
    name, suite = SUITES[suite_index]
    rows = [
        CaseResult(case_id, lhs, rhs, "; ".join(problems))
        for case_id, lhs, rhs, problems in suite(rng, case_count)
    ]
    bad = sum(1 for row in rows if row.detail)
    worst = min(rows, key=lambda row: row.margin)
    return (
        f"{'PASS' if bad == 0 else 'FAIL'} {name}: {len(rows)} cases, "
        f"{bad} violations, worst margin {worst.margin!r} at {worst.case_id}"
    ), rows


def run_verify(seed: int, case_count: int, output_dir: str | Path) -> VerifyResult:
    """Run all suites, write report and per-case CSV, return the outcome.

    The CSV is what ``csv.writer`` would write: no case id needs quoting.

    Raises:
        ValueError: If seed or case_count is not an integer (:func:`_as_int`),
            seed < 0 or case_count < 1; nothing is then made.
    """
    seed, case_count = _as_int("seed", seed), _as_int("case_count", case_count)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if case_count < 1:
        raise ValueError("case_count must be >= 1")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = [_suite_output(seed, i, case_count) for i in range(len(SUITES))]
    result = VerifyResult([c for _, rows in outputs for c in rows], [line for line, _ in outputs])
    rows = [f"{c.case_id},{c.lhs:.17g},{c.rhs:.17g}\r\n" for c in result.cases]
    (out_dir / "verify_cases.csv").write_text("".join(["case_id,lhs,rhs\r\n", *rows]), newline="")

    lines = [f"seed = {seed}", f"cases per suite = {case_count}", f"draw order = {DRAW_ORDER}"]
    lines += ["", *result.suite_lines]
    if not result.ok:
        lines += ["", result.failure_line()]
    lines += ["", "ALL PASS" if result.ok else "FAILURES PRESENT"]
    (out_dir / "verify_report.txt").write_text("\n".join(lines) + "\n")
    return result
