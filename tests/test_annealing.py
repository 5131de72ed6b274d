"""Schedule values, calibration, tail sums, and Cauchy-tail decay."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cauchyga import annealing
from cauchyga.annealing import (
    calibrate_g0,
    cauchy_schedule,
    constant_schedule,
    gamma_at,
    tail_sum,
)


def test_gamma_at_single_term():
    s = cauchy_schedule(1.0, 2.0)
    assert gamma_at(s, 1) == 1.0


def test_gamma_at_partial_sum():
    s = cauchy_schedule(1.0, 2.0)
    assert gamma_at(s, 3) == pytest.approx(1.0 + 0.25 + 1.0 / 9.0, abs=1e-15)


def test_gamma_at_constant():
    s = constant_schedule(300.0)
    for n in (1, 7, 100, 10_000):
        assert gamma_at(s, n) == 300.0


@pytest.mark.parametrize("g", [0.0, -0.0, 5e-324, 300.0, 1e300])
def test_constant_schedule_is_the_cauchy_schedule_at_alpha_inf(g):
    s = constant_schedule(g)
    assert s == cauchy_schedule(g, math.inf)
    for n in (1, 2, 57, 500):
        got = gamma_at(s, n)
        assert got == gamma_at(cauchy_schedule(g, math.inf), n) == g
        assert math.copysign(1.0, got) == math.copysign(1.0, g)


def test_calibrate_g0_at_alpha_inf_is_the_target():
    for horizon in (1, 2, 100, 5000):
        for target in (0.0, 5e-324, 300.0, 1e300):
            assert calibrate_g0(math.inf, horizon, target) == target


def test_gamma_at_rejects_n_zero():
    for s in (constant_schedule(1.0), cauchy_schedule(1.0, 2.0)):
        with pytest.raises(ValueError, match=">= 1"):
            gamma_at(s, 0)


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, 2.0, "2"])
def test_generation_indices_and_horizons_must_be_integers(bad):
    # True ran as generation 1, and 2.5 raised an AttributeError
    s = cauchy_schedule(1.0, 2.0)
    for call, name in (
        (lambda: gamma_at(s, bad), "n"),
        (lambda: tail_sum(s, bad, 5), "m"),
        (lambda: tail_sum(s, 0, bad), "n"),
        (lambda: calibrate_g0(2.0, bad, 300.0), "horizon"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()


def test_numpy_integer_indices_give_the_int_results():
    s = cauchy_schedule(1.5, 1.1)
    assert gamma_at(s, np.int64(7)) == gamma_at(s, 7)
    assert tail_sum(s, np.uint8(2), np.int32(9)) == tail_sum(s, 2, 9)
    assert calibrate_g0(1.1, np.int16(100), 300.0) == calibrate_g0(1.1, 100, 300.0)


def test_schedule_validation():
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        cauchy_schedule(1.0, 1.0)
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        cauchy_schedule(1.0, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        cauchy_schedule(-1.0, 2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        constant_schedule(-0.1)
    cauchy_schedule(0.0, 2.0)  # g0 = 0 is a legal (identity) schedule


@pytest.mark.parametrize(
    "build, name, value",
    [(lambda v: cauchy_schedule(v, 3.0), "g0", "2"),
     (lambda v: cauchy_schedule(2.0, v), "alpha", "3"),
     (lambda v: cauchy_schedule(v, 3.0), "g0", True),
     (lambda v: constant_schedule(v), "gamma", "2"),
     (lambda v: calibrate_g0(v, 100, 300.0), "alpha", "2")],
    ids=["cauchy-g0", "cauchy-alpha", "cauchy-g0-bool", "constant-gamma", "calibrate-alpha"],
)
def test_schedule_settings_must_be_real_numbers(build, name, value):
    # float() would read the string '2' as 2.0 and True as 1.0
    with pytest.raises(ValueError, match=f"{name} must be a real number, got {value!r}"):
        build(value)


def test_schedules_store_numpy_and_integer_settings_as_floats():
    s = cauchy_schedule(np.float32(0.5), 2)
    assert (type(s.g0), type(s.alpha)) == (float, float) and s == cauchy_schedule(0.5, 2.0)


def test_gamma_cache_independent_of_query_order():
    a = cauchy_schedule(1.0, 1.5)
    b = cauchy_schedule(1.0, 1.5)
    gamma_at(a, 3)
    gamma_at(a, 50)
    gamma_at(b, 50)
    for n in (1, 3, 17, 50):
        assert gamma_at(a, n) == gamma_at(b, n)

    # two schedules and calibrate_g0 share the tables for alpha = 1.5; the
    # values must not depend on which of them asks first, or how far
    queries = [
        *(("a", n) for n in (1, 3, 17, 50, 33, 200)),
        *(("b", n) for n in (2, 16, 17, 129, 1000)),
        *(("calibrate", h) for h in (1, 15, 64, 300, 999)),
        *(("tail", n) for n in (2, 40, 257)),
    ]
    a, b = cauchy_schedule(1.0, 1.5), cauchy_schedule(2.5, 1.5)
    ask = {
        "a": lambda n: gamma_at(a, n),
        "b": lambda n: gamma_at(b, n),
        "calibrate": lambda h: calibrate_g0(1.5, h, 300.0),
        "tail": lambda n: tail_sum(b, n // 2, n),
    }
    rng = np.random.default_rng(3)
    shuffled = (rng.permutation(queries).tolist() for _ in range(4))
    orders = [queries, queries[::-1], *shuffled]
    # the next power of two >= max(n, 16) of every n asked for (a tail
    # sum's n is its larger end)
    sizes = {16, 32, 64, 256, 512, 1024}
    answers = []
    for order in orders:
        annealing._unit_sums.cache_clear()  # its values must not depend on this
        answers.append({(kind, int(n)): ask[kind](int(n)) for kind, n in order})
        assert annealing._unit_sums.cache_info().currsize == len(sizes)
    assert all(got == answers[0] for got in answers[1:])


def test_cached_unit_sums_cannot_be_written():
    table = annealing._unit_sums(1.5, 16)
    with pytest.raises((TypeError, ValueError)):
        table[1] = 0.0
    assert gamma_at(cauchy_schedule(1.0, 1.5), 1) == 1.0


def test_calibrate_g0_against_direct_sum_oracle():
    # independent oracle: exact compensated summation of the partial sum
    partial = math.fsum(k**-2.0 for k in range(1, 101))
    expected = 300.0 / partial
    got = calibrate_g0(2.0, 100, 300.0)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(183.488, abs=5e-4)


def test_calibrate_horizon_one():
    assert calibrate_g0(2.0, 1, 300.0) == 300.0


def test_calibrate_round_trip():
    for alpha in (1.0001, 1.1, 1.5, 2.0, 3.0):
        g0 = calibrate_g0(alpha, 100, 300.0)
        s = cauchy_schedule(g0, alpha)
        assert gamma_at(s, 100) == pytest.approx(300.0, rel=1e-9)


def test_calibrate_g0_divides_by_the_written_out_cumsum():
    # the schedule's cached partial sum makes the same additions in the same
    # order as one cumsum over k = 1 .. horizon
    horizons = [*range(1, 200), 1000, 5000, 33_600]
    mismatches = []
    for alpha in (1.0000001, 1.001, 1.1, 1.5, 2.0, 3.0, 7.3):
        for horizon in horizons:
            ks = np.arange(1, horizon + 1, dtype=np.float64)
            expected = 300.0 / float(np.cumsum(ks**-alpha)[-1])
            if calibrate_g0(alpha, horizon, 300.0) != expected:
                mismatches.append((alpha, horizon))
    assert mismatches == []


def test_calibrate_rejects_negative_gamma_target():
    with pytest.raises(ValueError, match="inverse temperature must be nonnegative"):
        calibrate_g0(2.0, 100, -5.0)
    with pytest.raises(ValueError, match="inverse temperature must be nonnegative"):
        calibrate_g0(2.0, 1, -5e-324)
    assert calibrate_g0(2.0, 100, 0.0) == 0.0


@pytest.mark.parametrize("target", ["300", True, np.False_, None], ids=repr)
def test_calibrate_rejects_a_gamma_target_that_is_not_a_real_number(target):
    with pytest.raises(ValueError, match="^inverse temperature must be a real number, got "):
        calibrate_g0(2.0, 100, target)


def test_calibrate_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        calibrate_g0(1.0, 100, 300.0)


def test_tail_sum_examples():
    s = cauchy_schedule(1.0, 2.0)
    assert tail_sum(s, 1, 3) == pytest.approx(0.25 + 1.0 / 9.0, abs=1e-15)
    # computed as a prefix difference, so cancellation noise up to ~1e-16
    assert tail_sum(s, 5, 6) == pytest.approx(1.0 / 36.0, abs=1e-12)
    assert tail_sum(s, 0, 3) == pytest.approx(gamma_at(s, 3), abs=1e-15)


def test_tail_sum_of_constant_schedule_is_zero():
    s = constant_schedule(300.0)
    for m, n in ((1, 2), (1, 100), (57, 500)):
        assert tail_sum(s, m, n) == 0.0
    assert tail_sum(s, 0, 7) == 300.0  # gamma_0 is 0


def test_tail_sum_rejects_bad_window():
    s = cauchy_schedule(1.0, 2.0)
    for m, n in ((3, 3), (5, 2), (-1, 4)):
        with pytest.raises(ValueError):
            tail_sum(s, m, n)


def test_monotone_nondecreasing_to_1e5():
    for s in (cauchy_schedule(1.0, 1.1), constant_schedule(42.0)):
        gammas = np.array([gamma_at(s, n) for n in range(1, 100_001)])
        assert np.all(np.diff(gammas) >= 0.0)


def test_telescoping_matches_gamma_difference():
    rng = np.random.default_rng(13)
    s = cauchy_schedule(calibrate_g0(1.5, 100, 300.0), 1.5)
    for _ in range(200):
        m = int(rng.integers(0, 5000))
        n = int(rng.integers(m + 1, 5002))
        gm = 0.0 if m == 0 else gamma_at(s, m)
        assert tail_sum(s, m, n) == pytest.approx(
            gamma_at(s, n) - gm, abs=1e-12
        )


def _doubling_search(alpha: float, threshold: float, cap: int) -> tuple[int, float]:
    """Smallest power-of-two N with window tail below the threshold."""
    s = cauchy_schedule(1.0, alpha)
    n = 1
    while n <= cap:
        t = tail_sum(s, n, 4 * n)
        if t < threshold:
            return n, t
        n *= 2
    raise AssertionError(f"threshold {threshold} not reached below cap {cap}")


def test_tail_window_nonincreasing_under_doubling():
    # For alpha close to 1 the discrete window sum rises for the first
    # couple of doublings (more terms per window than the per-term decay
    # gives back) before settling onto the decreasing integral envelope,
    # so the monotone stretch is asserted from N = 4 there.
    for alpha, first_n in ((1.1, 4), (1.5, 1), (2.0, 1)):
        s = cauchy_schedule(1.0, alpha)
        ns = [first_n * 2**i for i in range(8)]
        tails = [tail_sum(s, n, 4 * n) for n in ns]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
    # the measured head increase for alpha = 1.1
    s = cauchy_schedule(1.0, 1.1)
    assert tail_sum(s, 1, 4) < tail_sum(s, 2, 8)


def test_tail_threshold_found_by_doubling_where_reachable():
    n2, t2 = _doubling_search(2.0, 1e-3, cap=1 << 14)
    assert t2 < 1e-3 and n2 <= 1024
    n15, t15 = _doubling_search(1.5, 1e-3, cap=1 << 21)
    assert t15 < 1e-3
    # alpha = 1.1 decays too slowly for direct summation at 1e-3; a coarser
    # threshold is reachable and the finer one provably exists (below)
    n11, t11 = _doubling_search(1.1, 0.45, cap=1 << 18)
    assert t11 < 0.45


def test_tail_threshold_exists_analytically_for_slow_alpha():
    # tail(N, 4N) <= g0 * integral_N^inf x^-alpha dx = g0 * N^(1-alpha)/(alpha-1)
    alpha, g0, eps = 1.1, 1.0, 1e-3
    n_star = math.ceil((g0 / ((alpha - 1.0) * eps)) ** (1.0 / (alpha - 1.0)))
    bound = g0 * n_star ** (1.0 - alpha) / (alpha - 1.0)
    assert bound <= eps * (1.0 + 1e-9)
    # far beyond any horizon this implementation will ever sum directly
    assert n_star > 10**30


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schedules_reject_non_finite_inverse_temperature(bad):
    with pytest.raises(ValueError, match="inverse temperature must be finite"):
        constant_schedule(bad)
    with pytest.raises(ValueError, match="inverse temperature must be finite"):
        cauchy_schedule(bad, 2.0)
    with pytest.raises(ValueError, match="inverse temperature must be finite"):
        calibrate_g0(2.0, 100, bad)


def test_nan_alpha_does_not_exceed_1():
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        cauchy_schedule(1.0, math.nan)
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        calibrate_g0(math.nan, 100, 300.0)
