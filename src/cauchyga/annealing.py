"""Inverse-temperature schedules for Boltzmann selection.

Two kinds are supported: a constant schedule (one gamma for every
generation) and the Cauchy schedule, whose generation-n value is the
partial sum

    gamma_n = g0 * sum_{k=1..n} k**(-alpha),    alpha > 1,

a convergent, nondecreasing sequence. ``calibrate_g0`` solves for the g0
that makes the schedule hit a target gamma at a chosen horizon.

Unit partial sums, sum_{k=1..n} k**(-alpha), are accumulated in ascending
k order into one grow-only table per alpha that every schedule with that
alpha and ``calibrate_g0`` read. No value depends on which call grew the
table, so concurrent callers agree. Schedules are immutable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
CAUCHY = "cauchy"


@dataclass(frozen=True)
class AnnealingSchedule:
    """A rule producing the nondecreasing inverse-temperature sequence.

    Build instances with :func:`constant_schedule` or
    :func:`cauchy_schedule` rather than directly.
    """

    kind: str
    gamma_const: float = 0.0
    g0: float = 0.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == CONSTANT:
            _check_finite(self.gamma_const)
            if self.gamma_const < 0.0:
                raise ValueError("inverse temperature must be nonnegative")
        elif self.kind == CAUCHY:
            if not self.alpha > 1.0:
                raise ValueError("alpha must exceed 1")
            _check_finite(self.g0)
            if self.g0 < 0.0:
                raise ValueError("g0 must be nonnegative")
        else:
            raise ValueError(f"unknown schedule kind: {self.kind!r}")


# alpha -> array whose entry n is sum_{k=1..n} k**(-alpha); entry 0 is 0
_UNIT_SUMS: defaultdict[float, np.ndarray] = defaultdict(lambda: np.zeros(1))


def _unit_sums(alpha: float, n: int) -> np.ndarray:
    """The table of unit partial sums for ``alpha``, grown to hold entry n."""
    prefix = _UNIT_SUMS[alpha]
    have = len(prefix) - 1
    if n <= have:
        return prefix
    grow_to = max(n, 2 * have, 16)
    ks = np.arange(have + 1, grow_to + 1, dtype=np.float64)
    # Seed the chunk with the running total so the accumulation is the
    # same sequence of additions a single ascending pass would perform;
    # table values then never depend on the growth history.
    seeded = np.concatenate([prefix[-1:], ks ** -alpha])
    prefix = np.concatenate([prefix, np.cumsum(seeded)[1:]])
    _UNIT_SUMS[alpha] = prefix
    return prefix


def _check_finite(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise ValueError("inverse temperature must be finite")


def constant_schedule(gamma: float) -> AnnealingSchedule:
    """Schedule that returns the same inverse temperature every generation."""
    return AnnealingSchedule(kind=CONSTANT, gamma_const=float(gamma))


def cauchy_schedule(g0: float, alpha: float) -> AnnealingSchedule:
    """Schedule with power-law increments g0 / k**alpha, alpha > 1."""
    return AnnealingSchedule(kind=CAUCHY, g0=float(g0), alpha=float(alpha))


def gamma_at(schedule: AnnealingSchedule, n: int) -> float:
    """Inverse temperature used at generation n (n >= 1).

    Constant schedules return their fixed gamma; Cauchy schedules return
    g0 times the ascending partial sum of k**(-alpha) up to n.

    Raises:
        ValueError: If n < 1.
    """
    if n < 1:
        raise ValueError("generation index must be >= 1")
    if schedule.kind == CONSTANT:
        return schedule.gamma_const
    return schedule.g0 * float(_unit_sums(schedule.alpha, n)[n])


def tail_sum(schedule: AnnealingSchedule, m: int, n: int) -> float:
    """Sum of the schedule increments over generations m+1 .. n.

    Equals gamma_n - gamma_m with gamma_0 defined as 0. Only meaningful for
    the Cauchy kind, whose increments are an explicit sequence.

    Raises:
        ValueError: If the schedule is constant, or not n > m >= 0.
    """
    if schedule.kind != CAUCHY:
        raise ValueError("tail sum undefined for constant schedule")
    if m < 0 or n <= m:
        raise ValueError(f"need n > m >= 0, got m={m}, n={n}")
    prefix = _unit_sums(schedule.alpha, n)
    return schedule.g0 * float(prefix[n] - prefix[m])


def calibrate_g0(alpha: float, horizon: int, gamma_target: float) -> float:
    """Choose g0 so the Cauchy schedule reaches gamma_target at the horizon.

    Returns gamma_target divided by the partial sum of k**(-alpha) over
    k = 1 .. horizon, so ``gamma_at(cauchy_schedule(g0, alpha), horizon)``
    round-trips to gamma_target.

    Raises:
        ValueError: If alpha <= 1, horizon < 1, or gamma_target is negative
            or not finite.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_finite(gamma_target)
    if gamma_target < 0.0:
        raise ValueError("inverse temperature must be nonnegative")
    return gamma_target / float(_unit_sums(alpha, horizon)[horizon])
