"""Inverse-temperature schedules for Boltzmann selection.

Two kinds are supported: a constant schedule (one gamma for every
generation) and the Cauchy schedule, whose generation-n value is the
partial sum

    gamma_n = g0 * sum_{k=1..n} k**(-alpha),    alpha > 1,

a convergent, nondecreasing sequence. ``calibrate_g0`` solves for the g0
that makes the schedule hit a target gamma at a chosen horizon.

Partial sums are accumulated in ascending k order and cached per schedule
instance; the cache only ever grows, so concurrent readers are safe.
Public fields are never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CONSTANT = "constant"
CAUCHY = "cauchy"


@dataclass
class AnnealingSchedule:
    """A rule producing the nondecreasing inverse-temperature sequence.

    Build instances with :func:`constant_schedule` or
    :func:`cauchy_schedule` rather than directly.
    """

    kind: str
    gamma_const: float = 0.0
    g0: float = 0.0
    alpha: float = 0.0
    _prefix: np.ndarray = field(
        default_factory=lambda: np.zeros(1), repr=False, compare=False
    )

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

    def _ensure(self, n: int) -> None:
        have = len(self._prefix) - 1
        if n <= have:
            return
        grow_to = max(n, 2 * have, 16)
        ks = np.arange(have + 1, grow_to + 1, dtype=np.float64)
        # Seed the chunk with the running total so the accumulation is the
        # same sequence of additions a single ascending pass would perform;
        # cached values then never depend on the growth history.
        seeded = np.concatenate([self._prefix[-1:], ks ** -self.alpha])
        ext = np.cumsum(seeded)[1:]
        self._prefix = np.concatenate([self._prefix, ext])


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
    schedule._ensure(n)
    return schedule.g0 * float(schedule._prefix[n])


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
    schedule._ensure(n)
    return schedule.g0 * float(schedule._prefix[n] - schedule._prefix[m])


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
    return gamma_target / gamma_at(cauchy_schedule(1.0, alpha), horizon)
