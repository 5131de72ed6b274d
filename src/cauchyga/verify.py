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

Suite i draws from ``PCG64([seed, i])`` in draw order 2
(:data:`DRAW_ORDER`, named in the report): in blocks of
:data:`CASE_BLOCK` cases, one bulk call per kind of draw. A block first
draws its random NFDs in one :func:`random_nfds` call (three per case for
metric, one for lemma1, lemma2 and semigroup), then its case parameters,
one call each: the two gammas of every case for lemma1 and semigroup;
for lemma2 the alpha indices, the g0 indices, m, then n given m. A suite
always draws a full block, so a case's draws depend only on the seed,
the suite and the case index, and a shorter run is a prefix of a longer
one. cauchy-tail draws all its NFDs in one call. Draw order 1 drew the
same laws case by case, each NFD on its own.

A suite is a generator ``suite(rng, cases)`` that draws its cases from
``rng`` and yields ``(case_id, lhs, rhs, problems)`` for each, where
``problems`` lists what failed, each as a non-empty message. The runner
records the problems joined by "; " as the detail of the case's
:class:`CaseResult`, which holds exactly when its detail is empty. Any
slack is one of the module's slack constants, looked up when the suite
runs, never a literal in the suite; :func:`exceeds` decides
``lhs <= rhs + slack``. A suite appended to :data:`SUITES` gets the next
stream index, so the draws of the earlier suites do not move.

The suites share nothing but the seed, so :func:`run_verify` runs them in
one process per suite up to the usable CPUs (:func:`_workers`): the
caller and helpers forked for the call. :func:`_shares` cuts
:data:`SUITES` into contiguous runs, one per process, whose lengths
differ by at most one, shorter runs first, and the caller runs the first;
the split depends only on the suite and process counts, so the caller's
suites, the only ones a tracer in the caller sees, are fixed. Each
process formats its own suites' report lines and ``verify_cases.csv``
text; a helper sends them back pickled through a pipe, and the caller
joins them in suite order. Where only one CPU is usable or ``os.fork``
does not exist, the caller runs every suite. The outputs are the same
bytes either way. Module state patched before the call, such as a broken
slack constant, reaches the helpers only because they are forked from the
caller, not spawned fresh. Neither ``multiprocessing`` nor
``concurrent.futures`` is imported.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field
from itertools import accumulate, product
from math import inf
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .annealing import cauchy_schedule
from .benchmarks import _as_int
from .nfd import NFD, distance
from .selection import boltzmann_apply
from .theory import cauchy_tail_profile, lemma1_check, lemma2_bound_check, tail_bound

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
Row = tuple[str, float, float, str]  # (case_id, lhs, rhs, detail)
SuiteOutput = tuple[str, list[Row], str]  # (report line, rows, verify_cases.csv text)


class CaseResult(NamedTuple):
    """A row as the caller returns it. Rows cross the helpers' pipe as plain
    tuples: pickle builds a tuple in C, but a ``NamedTuple`` through a
    Python call each way."""

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


def random_nfds(
    rng: np.random.Generator,
    count: int,
    max_support: int = 20,
    value_low: float = 0.0,
    value_high: float = 1.0,
) -> list[NFD]:
    """``count`` random NFDs: support size 1..max_support, uniform values,
    Dirichlet masses; three bulk draws for the lot.

    The draws are the ``count`` support sizes in one ``integers`` call,
    all their values in one ``uniform`` call, each NFD's values sorted and
    deduplicated, then one ``standard_exponential`` per distinct value in
    one call. Each NFD's masses are its exponentials times ``1.0 / acc``,
    where ``acc`` adds them one by one in order. That is how numpy's
    ``dirichlet`` computes shape 1 (its shape-1 gamma is the standard
    exponential), so at ``count`` 1 they are the doubles
    ``rng.dirichlet(np.ones(k))`` gives from the same stream position. An
    NFD with a zero mass is drawn again, after the others, through
    ``count`` 1. The sorted, distinct values become the support unchecked,
    so the range is checked before any draw.

    Raises:
        ValueError: Unless 0 <= value_low <= value_high < inf.
    """
    if not 0.0 <= value_low <= value_high < inf:
        raise ValueError(
            f"value range must satisfy 0 <= low <= high < inf, "
            f"got [{value_low!r}, {value_high!r}]"
        )
    sizes = rng.integers(1, max_support + 1, size=count).tolist()
    values = rng.uniform(value_low, value_high, size=sum(sizes)).tolist()
    ends = accumulate(sizes)
    supports = [sorted(set(values[end - k : end])) for k, end in zip(sizes, ends)]
    lengths = [len(support) for support in supports]
    draws = rng.standard_exponential(sum(lengths)).tolist()
    nfds: list[NFD | None] = []
    for support, k, end in zip(supports, lengths, accumulate(lengths)):
        exponentials = draws[end - k : end]
        acc = 0.0  # in order, as dirichlet adds; sum() compensates from Python 3.12
        for e in exponentials:
            acc += e
        scale = 1.0 / acc
        masses = [e * scale for e in exponentials]
        nfds.append(NFD._on_support(support, masses) if min(masses) > 0.0 else None)
    for i, phi in enumerate(nfds):
        if phi is None:
            nfds[i] = random_nfds(rng, 1, max_support, value_low, value_high)[0]
    return nfds


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


def _blocks(cases: int) -> Iterator[range]:
    """The case indices of each block of :data:`CASE_BLOCK` cases; the last
    may hold fewer, though its suite still draws a full block."""
    return (range(i, min(i + CASE_BLOCK, cases)) for i in range(0, cases, CASE_BLOCK))


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
                (
                    d12 == 0.0 and p1.entries != p2.entries,
                    "zero distance between distinct NFDs",
                ),
                (distance(p2, p1) != d12, "asymmetric"),
                (exceeds(d13, d12 + d23, METRIC_SLACK), "triangle inequality violated"),
            )
            problems = [message for failed, message in checks if failed]
            yield f"metric-{i:06d}", d13, d12 + d23, problems


def _phis_and_gammas(
    rng: np.random.Generator, cases: int
) -> Iterator[tuple[int, NFD, float, float]]:
    """Each case's index, random NFD and two inverse temperatures, uniform
    on [0, 50), as lemma1 and semigroup draw them."""
    for block in _blocks(cases):
        phis = random_nfds(rng, CASE_BLOCK)
        gammas = rng.uniform(0.0, 50.0, size=(CASE_BLOCK, 2)).tolist()
        for i, phi, (g1, g2) in zip(block, phis, gammas):
            yield i, phi, g1, g2


def lemma1_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Strength-difference bound on random (phi, gamma1, gamma2)."""
    for i, phi, g1, g2 in _phis_and_gammas(rng, cases):
        chk = lemma1_check(phi, g1, g2)
        bad = exceeds(chk.lhs, chk.rhs, LEMMA_SLACK)
        problems = [f"gamma1={g1!r} gamma2={g2!r}"] if bad else []
        yield f"lemma1-{i:06d}", chk.lhs, chk.rhs, problems


def lemma2_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Tail bound on random NFDs and schedule windows 1 <= m < n <= 50.

    Alpha and g0 are picked by index, the draws ``rng.choice`` makes.
    """
    for block in _blocks(cases):
        # support in [0, 1] keeps the bound informative
        phis = random_nfds(rng, CASE_BLOCK)
        alphas = rng.integers(0, len(LEMMA_ALPHAS), size=CASE_BLOCK).tolist()
        g0s = rng.integers(0, len(LEMMA_G0S), size=CASE_BLOCK).tolist()
        ms = rng.integers(1, 50, size=CASE_BLOCK)
        ns = rng.integers(ms + 1, 51).tolist()
        for i, phi, a, g, m, n in zip(block, phis, alphas, g0s, ms.tolist(), ns):
            alpha, g0 = LEMMA_ALPHAS[a], LEMMA_G0S[g]
            chk = lemma2_bound_check(phi, cauchy_schedule(g0, alpha), m, n)
            bad = exceeds(chk.lhs, chk.rhs, LEMMA_SLACK)
            problems = [f"alpha={alpha} g0={g0} m={m} n={n}"] if bad else []
            yield f"lemma2-{i:06d}", chk.lhs, chk.rhs, problems


def semigroup_suite(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Composition in two steps equals one application at the summed gamma."""
    for i, phi, g1, g2 in _phis_and_gammas(rng, cases):
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
    phis = random_nfds(rng, len(LEMMA_ALPHAS) * len(LEMMA_G0S) * n_phis)
    for case_no, ((alpha, g0, _), phi) in enumerate(zip(settings, phis)):
        schedule = cauchy_schedule(g0, alpha)
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


def _suite_output(seed: int, suite_index: int, case_count: int) -> SuiteOutput:
    """Suite ``suite_index``'s report line, rows and ``verify_cases.csv``
    text, its cases drawn from ``PCG64([seed, suite_index])``.

    A row is ``(case_id, lhs, rhs, detail)``, ``detail`` empty exactly when
    the case holds. The CSV text is the bytes ``csv.writer`` writes for the
    rows, since no case id holds a comma, quote or line break.
    """
    rng = np.random.Generator(np.random.PCG64([seed, suite_index]))
    name, suite = SUITES[suite_index]
    rows = [
        (case_id, lhs, rhs, "; ".join(problems))
        for case_id, lhs, rhs, problems in suite(rng, case_count)
    ]
    bad = sum(1 for row in rows if row[3])
    worst_id, worst_lhs, worst_rhs, _ = min(rows, key=lambda row: row[2] - row[1])
    line = (
        f"{'PASS' if bad == 0 else 'FAIL'} {name}: {len(rows)} cases, "
        f"{bad} violations, worst margin {worst_rhs - worst_lhs!r} at {worst_id}"
    )
    text = "".join([f"{case_id},{lhs:.17g},{rhs:.17g}\r\n" for case_id, lhs, rhs, _ in rows])
    return line, rows, text


def _shares(suite_count: int, workers: int) -> list[range]:
    """The suite indices of each process, the caller's first: contiguous
    runs whose lengths differ by at most one, shorter runs first."""
    workers = max(1, min(workers, suite_count))
    short, longer = divmod(suite_count, workers)
    ends = [0]
    for j in range(workers):
        ends.append(ends[-1] + short + (j >= workers - longer))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _workers() -> int:
    """Processes for run_verify, the caller included: one per suite, up to
    the usable CPUs; 1, the caller alone, where fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(len(SUITES), cpus)


def _fork_share(seed: int, share: range, case_count: int) -> tuple[int, BinaryIO]:
    """Fork a helper that runs ``share`` and pickles ``(True, outputs)``,
    or ``(False, exception)`` if it raised, into a pipe; return its pid and
    the pipe's read end. The helper never returns into the caller's stack."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, [_suite_output(seed, i, case_count) for i in share])
        except BaseException as exc:  # forwarded: the caller raises it
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # an exception pickle cannot carry
            data = pickle.dumps((False, RuntimeError(f"{outcome[1]!r}, unpicklable: {err}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def run_verify(seed: int, case_count: int, output_dir: str | Path) -> VerifyResult:
    """Run all suites, write report and per-case CSV, return the outcome.

    The caller runs the first of the :func:`_shares` of :data:`SUITES`, and
    one helper forked for this call runs each other share while it does.
    Every helper is killed and reaped before the call returns, also when
    either side raises; a helper's exception is raised here, without its
    traceback. Spawned helpers would silently lack any patch made before
    the call; the package starts no threads that a fork could leave in a
    bad state.

    Raises:
        ValueError: If seed or case_count is not an integer (:func:`_as_int`),
            seed < 0 or case_count < 1; nothing is then made or forked.
    """
    seed, case_count = _as_int("seed", seed), _as_int("case_count", case_count)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if case_count < 1:
        raise ValueError("case_count must be >= 1")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    own, *others = _shares(len(SUITES), _workers())
    helpers: list[tuple[int, BinaryIO]] = []
    try:
        for share in others:
            helpers.append(_fork_share(seed, share, case_count))
        outputs = [_suite_output(seed, i, case_count) for i in own]
        cases = [CaseResult._make(row) for _, rows, _ in outputs for row in rows]
        sent = [pipe.read() for _, pipe in helpers]
    finally:
        statuses = []
        for pid, pipe in helpers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so still this call's child
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for data, status in zip(sent, statuses):
        if not data:
            raise RuntimeError(f"a verify helper sent nothing (exit code {status})")
        finished, value = pickle.loads(data)
        if not finished:
            raise value
        outputs += value
        cases += [CaseResult._make(row) for _, rows, _ in value for row in rows]

    result = VerifyResult(cases, [line for line, _, _ in outputs])
    (out_dir / "verify_cases.csv").write_text(
        "".join(["case_id,lhs,rhs\r\n", *(text for _, _, text in outputs)]), newline=""
    )

    report_path = out_dir / "verify_report.txt"
    lines = [
        f"seed = {seed}",
        f"cases per suite = {case_count}",
        f"draw order = {DRAW_ORDER}",
        "",
    ]
    lines += result.suite_lines
    if not result.ok:
        lines += ["", result.failure_line()]
    lines += ["", "ALL PASS" if result.ok else "FAILURES PRESENT"]
    report_path.write_text("\n".join(lines) + "\n")
    return result
