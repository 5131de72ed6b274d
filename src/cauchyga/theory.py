"""Numerical checks of the operator-sequence bounds behind the schedule.

The generation-n selection operator applies the cumulative exponent
gamma_n to the ORIGINAL distribution: ``boltzmann_apply(phi,
gamma_at(schedule, n))``. By the semigroup property this equals n
successive applications with the schedule's increments. Two inequalities
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
outputs pairwise. A constant schedule (alpha = inf) has tail sums of 0, so
its bound and its profile are 0.

The GA (``engine``) is not op_n on a fixed phi: it applies gamma_n to the
current population, so under pure selection generation n composes the
tilt Gamma_n = gamma_1 + ... + gamma_n, which diverges for every schedule
with gamma_1 > 0. The lemmas concern op_n on a fixed phi.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .annealing import AnnealingSchedule, gamma_at, tail_sum
from .nfd import NFD, distance
from .selection import boltzmann_apply

# exp argument above which the bound side is treated as +inf
_EXP_OVERFLOW = 700.0


class BoundCheck(NamedTuple):
    """The two sides of lhs <= rhs; the verify suites decide if it held."""

    lhs: float
    rhs: float


def lemma1_check(phi: NFD, gamma1: float, gamma2: float) -> BoundCheck:
    """Check |S(gamma1) - S(gamma2)| <= d(selected1, selected2) on phi.

    Both sides are evaluated from the actual operator outputs.
    """
    sel1 = boltzmann_apply(phi, gamma1)
    sel2 = boltzmann_apply(phi, gamma2)
    lhs = abs(distance(phi, sel1) - distance(phi, sel2))
    rhs = distance(sel1, sel2)
    return BoundCheck(lhs, rhs)


def tail_bound(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Right-hand side of the tail bound between generations m and n.

    The sum over the support of exp(x * tail) - 1, where tail is the
    schedule increment sum over generations m+1 .. n. A term whose exponent
    would overflow makes the bound +inf.

    The derivation needs nonnegative fitness, which every NFD has.

    Raises:
        ValueError: If n <= m or m < 1.
    """
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got m={m}, n={n}")
    tail = tail_sum(schedule, m, n)
    rhs = 0.0
    for x in phi.entries:
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
        boltzmann_apply(phi, gamma_at(schedule, n)),
        boltzmann_apply(phi, gamma_at(schedule, m)),
    )
    return BoundCheck(lhs, rhs)


def cauchy_tail_profile(
    phi: NFD, schedule: AnnealingSchedule, checkpoints: list[int]
) -> list[tuple[int, float]]:
    """Worst pairwise operator distance in the window [N, 4N] per checkpoint.

    For each checkpoint N the levels are N, 2N, 3N and 4N, and the reported
    value is the maximum of d(op_n(phi), op_m(phi)) over all six pairs m < n
    of them. Each level's operator output is computed once and reused by
    every pair, and by later checkpoints, that include it.

    Raises:
        ValueError: On an empty or non-ascending checkpoint list, or a
            checkpoint < 1.
    """
    if not checkpoints:
        raise ValueError("empty checkpoints")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")

    windows = [(ckpt, 2 * ckpt, 3 * ckpt, 4 * ckpt) for ckpt in checkpoints]
    op = {n: boltzmann_apply(phi, gamma_at(schedule, n)) for n in set().union(*windows)}
    return [
        (ckpt, max(distance(op[n], op[m]) for m, n in combinations(window, 2)))
        for ckpt, window in zip(checkpoints, windows)
    ]
