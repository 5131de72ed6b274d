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

Each formula is written once, over a padded block of NFDs (see
:mod:`cauchyga.nfd`); a function of one NFD is its one-row case.

The GA (``engine``) is not op_n on a fixed phi: it applies gamma_n to the
current population, so under pure selection generation n composes the
tilt Gamma_n = gamma_1 + ... + gamma_n, which diverges for every schedule
with gamma_1 > 0. The lemmas concern op_n on a fixed phi.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .annealing import AnnealingSchedule, gamma_at, tail_sum

# theory.distance stays importable: bench/run.py's tracer patches it here
from .nfd import NFD, distance, padded, row_distances
from .selection import _check_gamma, boltzmann_tilt

# exp argument above which the bound side is treated as +inf
_EXP_OVERFLOW = 700.0


class BoundCheck(NamedTuple):
    """The two sides of lhs <= rhs; the verify suites decide if it held."""

    lhs: float
    rhs: float


def lemma1_bounds(
    values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, gammas1, gammas2
) -> tuple[list[float], list[float]]:
    """Both sides of |S(gamma1) - S(gamma2)| <= d(selected1, selected2),
    row by row, from the actual operator outputs."""
    sel1 = boltzmann_tilt(values, masses, lengths, gammas1)
    sel2 = boltzmann_tilt(values, masses, lengths, gammas2)
    strengths = zip(row_distances(masses, sel1), row_distances(masses, sel2))
    return [abs(s1 - s2) for s1, s2 in strengths], row_distances(sel1, sel2)


def lemma1_check(phi: NFD, gamma1: float, gamma2: float) -> BoundCheck:
    """Check |S(gamma1) - S(gamma2)| <= d(selected1, selected2) on phi."""
    _check_gamma(gamma1)
    _check_gamma(gamma2)
    (lhs,), (rhs,) = lemma1_bounds(*padded([phi]), [gamma1], [gamma2])
    return BoundCheck(lhs, rhs)


def tail_bounds(values: np.ndarray, lengths: np.ndarray, tails) -> list[float]:
    """Right-hand side of the tail bound on each row of a padded block.

    Row r's is the sum over its support of exp(x * tails[r]) - 1, added in
    ascending x. A term whose exponent would overflow makes the row's
    bound +inf. The derivation needs nonnegative fitness, which every NFD has.
    """
    real = np.arange(values.shape[1]) < lengths[:, None]
    powers = np.asarray(tails, dtype=float)[:, None] * values
    overflow = ((powers > _EXP_OVERFLOW) & real).any(axis=1)
    terms = np.zeros_like(powers)
    terms[real] = [math.expm1(p) if p <= _EXP_OVERFLOW else 0.0 for p in powers[real].tolist()]
    # + 0.0: the running sum starts at 0.0, so it is never -0.0
    sums = np.cumsum(terms, axis=1)[:, -1] + 0.0
    return np.where(overflow, math.inf, sums).tolist()


def tail_bound(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Right-hand side of the tail bound between generations m and n: the
    one-row case of :func:`tail_bounds` at the schedule's increment sum
    over generations m+1 .. n.

    Raises:
        ValueError: If n <= m or m < 1.
    """
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got m={m}, n={n}")
    values, _, lengths = padded([phi])
    return tail_bounds(values, lengths, [tail_sum(schedule, m, n)])[0]


def lemma2_bounds(
    values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, schedules, ms, ns
) -> tuple[list[float], list[float]]:
    """Both sides of the tail bound between generations m and n, row by
    row: lhs is d(op_n(phi), op_m(phi)), rhs is :func:`tail_bounds`.

    Raises:
        ValueError: If some n <= m or m < 1.
    """
    windows = list(zip(schedules, ms, ns))
    for _, m, n in windows:
        if m < 1 or n <= m:
            raise ValueError(f"need n > m >= 1, got m={m}, n={n}")
    rhs = tail_bounds(values, lengths, [tail_sum(s, m, n) for s, m, n in windows])
    op_n = boltzmann_tilt(values, masses, lengths, [gamma_at(s, n) for s, _, n in windows])
    op_m = boltzmann_tilt(values, masses, lengths, [gamma_at(s, m) for s, m, _ in windows])
    return row_distances(op_n, op_m), rhs


def lemma2_bound_check(phi: NFD, schedule: AnnealingSchedule, m: int, n: int) -> BoundCheck:
    """Check the tail bound on the distance between generations m and n.

    lhs is d(op_n(phi), op_m(phi)); rhs is :func:`tail_bound`. An infinite
    rhs satisfies the bound vacuously.

    Raises:
        ValueError: As :func:`tail_bound`.
    """
    (lhs,), (rhs,) = lemma2_bounds(*padded([phi]), [schedule], [m], [n])
    return BoundCheck(lhs, rhs)


def tail_profiles(
    values: np.ndarray, masses: np.ndarray, lengths: np.ndarray, schedules, checkpoints
) -> list[list[tuple[int, float]]]:
    """:func:`cauchy_tail_profile` of each row of a padded block under its
    own schedule; a row's distinct levels are consecutive rows of one block.

    Raises:
        ValueError: As :func:`cauchy_tail_profile`.
    """
    if not checkpoints:
        raise ValueError("empty checkpoints")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")

    windows = [(ckpt, 2 * ckpt, 3 * ckpt, 4 * ckpt) for ckpt in checkpoints]
    levels = sorted(set().union(*windows))
    ops = boltzmann_tilt(
        *(np.repeat(a, len(levels), axis=0) for a in (values, masses, lengths)),
        [gamma_at(s, n) for s in schedules for n in levels],
    )
    # the six pairs m < n of each window, as the rows of n and m among a row's levels
    pairs = [(levels.index(n), levels.index(m)) for w in windows for m, n in combinations(w, 2)]
    rows = (np.arange(len(lengths)) * len(levels))[:, None, None] + np.array(pairs)
    dists = row_distances(ops[rows[..., 0].ravel()], ops[rows[..., 1].ravel()])
    worst = np.reshape(dists, (len(lengths), len(checkpoints), 6)).max(axis=2).tolist()
    return [list(zip(checkpoints, row)) for row in worst]


def cauchy_tail_profile(
    phi: NFD, schedule: AnnealingSchedule, checkpoints: list[int]
) -> list[tuple[int, float]]:
    """Worst pairwise operator distance in the window [N, 4N] per checkpoint.

    For each checkpoint N the levels are N, 2N, 3N and 4N, and the reported
    value is the maximum of d(op_n(phi), op_m(phi)) over all six pairs m < n
    of them. Each level's operator output is computed once and reused by
    every pair, and by later checkpoints, that include it: the one-row case
    of :func:`tail_profiles`.

    Raises:
        ValueError: On an empty or non-ascending checkpoint list, or a
            checkpoint < 1.
    """
    return tail_profiles(*padded([phi]), [schedule], checkpoints)[0]
