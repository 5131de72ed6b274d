"""Numerical checks of the operator-sequence bounds behind the schedule.

For a Cauchy schedule, the generation-n selection operator applies the
cumulative exponent gamma_n to the ORIGINAL distribution. Two inequalities
make the schedule choice principled, and both are checkable numerically on
any concrete NFD:

  - The difference of two selection strengths is bounded by the distance
    between the two selected distributions (a triangle-inequality fact).
  - The distance between the generation-n and generation-m operators'
    outputs is bounded by sum over the support of
    exp(x * (gamma_n - gamma_m)) - 1.

Because the second bound shrinks with the schedule's tail sums, a schedule
whose partial sums converge forces the operator outputs into a Cauchy
sequence; ``cauchy_tail_profile`` measures that contraction directly. It
applies each distinct generation's operator once and compares the stored
outputs pairwise.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .annealing import CAUCHY, AnnealingSchedule, gamma_at, tail_sum
from .nfd import NFD, distance
from .selection import boltzmann_apply, selection_strength

# exp argument above which the bound side is treated as +inf
_EXP_OVERFLOW = 700.0


class BoundCheck(NamedTuple):
    """Two sides of an inequality and whether it held (with slack)."""

    lhs: float
    rhs: float
    holds: bool


def cumulative_operator(phi: NFD, schedule: AnnealingSchedule, n: int) -> NFD:
    """Selection operator of generation n applied to the original phi.

    Equivalent to one Boltzmann application at the cumulative inverse
    temperature gamma_n; by the semigroup property this also equals n
    successive applications with the schedule's increments.

    Raises:
        ValueError: If the schedule is not of the Cauchy kind.
    """
    if schedule.kind != CAUCHY:
        raise ValueError("cumulative operator requires a cauchy schedule")
    return boltzmann_apply(phi, gamma_at(schedule, n))


def lemma1_check(phi: NFD, gamma1: float, gamma2: float) -> BoundCheck:
    """Check |S(gamma1) - S(gamma2)| <= d(selected1, selected2) on phi.

    Both sides are evaluated from the actual operator outputs; ``holds``
    allows 1e-9 absolute slack.
    """
    sel1 = boltzmann_apply(phi, gamma1)
    sel2 = boltzmann_apply(phi, gamma2)
    lhs = abs(selection_strength(phi, sel1) - selection_strength(phi, sel2))
    rhs = distance(sel1, sel2)
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-9)


def tail_bound(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Right-hand side of the tail bound between generations m and n.

    The sum over the support of exp(x * tail) - 1, where tail is the
    schedule increment sum over generations m+1 .. n. A term whose exponent
    would overflow makes the bound +inf.

    The derivation needs nonnegative fitness, which every NFD has.

    Raises:
        ValueError: If n <= m, m < 1, or the schedule is not of the Cauchy
            kind.
    """
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got m={m}, n={n}")
    tail = tail_sum(schedule, m, n)
    rhs = 0.0
    for x, _ in phi:
        if x * tail > _EXP_OVERFLOW:
            return math.inf
        rhs += math.expm1(x * tail)
    return rhs


def lemma2_bound_check(
    phi: NFD, schedule: AnnealingSchedule, m: int, n: int
) -> BoundCheck:
    """Check the tail bound on the distance between generations m and n.

    lhs is d(op_n(phi), op_m(phi)); rhs is :func:`tail_bound`. An infinite
    rhs satisfies the bound vacuously.

    Raises:
        ValueError: As :func:`tail_bound`.
    """
    rhs = tail_bound(phi, schedule, m, n)
    lhs = distance(
        cumulative_operator(phi, schedule, n), cumulative_operator(phi, schedule, m)
    )
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-9)


def cauchy_tail_profile(
    phi: NFD,
    schedule: AnnealingSchedule,
    checkpoints: list[int],
    pairs_per_checkpoint: int = 6,
) -> list[tuple[int, float]]:
    """Worst pairwise operator distance in the window [N, 4N] per checkpoint.

    For each checkpoint N, generation indices are sampled deterministically:
    take the smallest s with s*(s-1)/2 >= pairs_per_checkpoint, place s
    evenly spaced integer levels from N to 4N inclusive, and walk their
    ordered pairs (m, n) lexicographically, keeping the first
    ``pairs_per_checkpoint``. The reported value is the maximum of
    d(op_n(phi), op_m(phi)) over those pairs. Each level's operator output
    is computed once and reused by every pair, and by later checkpoints,
    that include it (4 levels cover the default 6 pairs).

    Raises:
        ValueError: On an empty or non-ascending checkpoint list, a
            checkpoint < 1, or a non-Cauchy schedule.
    """
    if not checkpoints:
        raise ValueError("empty checkpoints")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    if schedule.kind != CAUCHY:
        raise ValueError("cauchy tail profile requires a cauchy schedule")
    if pairs_per_checkpoint < 1:
        raise ValueError("pairs_per_checkpoint must be >= 1")

    ops: dict[int, NFD] = {}

    def op(level: int) -> NFD:
        if level not in ops:
            ops[level] = cumulative_operator(phi, schedule, level)
        return ops[level]

    profile: list[tuple[int, float]] = []
    for ckpt in checkpoints:
        lo, hi = ckpt, 4 * ckpt
        s = 2
        while s * (s - 1) // 2 < pairs_per_checkpoint and s < hi - lo + 1:
            s += 1
        levels = sorted({lo + round(i * (hi - lo) / (s - 1)) for i in range(s)})
        pairs = list(combinations(levels, 2))[:pairs_per_checkpoint]
        worst = 0.0
        for m, n in pairs:
            worst = max(worst, distance(op(n), op(m)))
        profile.append((ckpt, worst))
    return profile
