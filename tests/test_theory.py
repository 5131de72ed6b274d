"""Cumulative operators, the two inequality checks, and tail profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cauchyga.annealing import cauchy_schedule, constant_schedule, gamma_at, tail_sum
from cauchyga.nfd import NFD, distance
from cauchyga.selection import boltzmann_apply
from cauchyga.theory import (
    cauchy_tail_profile,
    lemma1_check,
    lemma2_bound_check,
    tail_bound,
)
from cauchyga.verify import random_nfd


def test_cumulative_operator_zero_g0_is_identity():
    s = cauchy_schedule(0.0, 2.0)
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    for n in (1, 5, 50):
        assert distance(boltzmann_apply(phi, gamma_at(s, n)), phi) <= 1e-12


def test_cumulative_operator_point_mass_fixed():
    s = cauchy_schedule(1.0, 2.0)
    phi = NFD({3.0: 1.0})
    for n in (1, 10):
        assert boltzmann_apply(phi, gamma_at(s, n)).entries == {3.0: 1.0}


def test_cumulative_operator_matches_direct_application():
    # schedule with gamma_1 = ln 3 reuses the hand-computed tilt
    s = cauchy_schedule(math.log(3.0), 2.0)
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    out = boltzmann_apply(phi, gamma_at(s, 1))
    assert out.entries.get(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert out.entries.get(1.0, 0.0) == pytest.approx(0.75, abs=1e-15)


def test_lemma2_constant_schedule_is_zero_on_both_sides():
    rng = np.random.default_rng(53)
    for _ in range(50):
        phi = random_nfd(rng)
        g = float(rng.choice([0.0, 1.0, 300.0]))
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        assert lemma2_bound_check(phi, constant_schedule(g), m, n) == (0.0, 0.0)


def test_cumulative_equals_sequential_increments():
    rng = np.random.default_rng(31)
    s = cauchy_schedule(1.0, 1.5)
    for _ in range(50):
        phi = random_nfd(rng)
        n = int(rng.integers(2, 30))
        seq = phi
        for k in range(1, n + 1):
            seq = boltzmann_apply(seq, tail_sum(s, k - 1, k))
        assert distance(seq, boltzmann_apply(phi, gamma_at(s, n))) <= 1e-10


def test_lemma1_equal_gammas():
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    chk = lemma1_check(phi, 2.0, 2.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.lhs <= chk.rhs + 1e-9


def test_lemma1_point_mass():
    chk = lemma1_check(NFD({2.0: 1.0}), 0.5, 7.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.lhs <= chk.rhs + 1e-9


def test_lemma1_random_cases_hold():
    rng = np.random.default_rng(37)
    for _ in range(300):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0, 50, size=2)
        chk = lemma1_check(phi, float(g1), float(g2))
        assert chk.lhs <= chk.rhs + 1e-9


def test_lemma2_point_mass():
    s = cauchy_schedule(1.0, 2.0)
    chk = lemma2_bound_check(NFD({0.7: 1.0}), s, 2, 7)
    assert chk.lhs == 0.0 and chk.lhs <= chk.rhs + 1e-9


def test_lemma2_support_only_zero():
    s = cauchy_schedule(1.0, 2.0)
    chk = lemma2_bound_check(NFD({0.0: 1.0}), s, 1, 5)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.lhs <= chk.rhs + 1e-9


def test_lemma2_five_point_example():
    rng = np.random.default_rng(41)
    phi = random_nfd(rng, max_support=5)
    chk = lemma2_bound_check(phi, cauchy_schedule(1.0, 2.0), 2, 7)
    assert chk.lhs <= chk.rhs + 1e-9
    assert chk.lhs <= chk.rhs


def test_lemma2_rejects_bad_window():
    s = cauchy_schedule(1.0, 2.0)
    phi = NFD({1.0: 1.0})
    for m, n in ((3, 3), (5, 2), (0, 4)):
        with pytest.raises(ValueError):
            lemma2_bound_check(phi, s, m, n)


def test_lemma2_overflowing_rhs_is_vacuously_true():
    # support value large enough that exp(x * tail) overflows float64
    phi = NFD({0.0: 0.5, 2000.0: 0.5})
    s = cauchy_schedule(10.0, 1.1)
    chk = lemma2_bound_check(phi, s, 1, 40)
    assert math.isinf(chk.rhs)
    assert chk.lhs <= chk.rhs + 1e-9


def test_lemma2_random_suite_holds():
    rng = np.random.default_rng(43)
    for _ in range(300):
        phi = random_nfd(rng)
        alpha = float(rng.choice([1.1, 1.5, 2.0]))
        g0 = float(rng.choice([0.1, 1.0, 10.0]))
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        chk = lemma2_bound_check(phi, cauchy_schedule(g0, alpha), m, n)
        assert chk.lhs <= chk.rhs + 1e-9


def test_tail_bound_is_the_lemma2_rhs():
    rng = np.random.default_rng(47)
    for _ in range(200):
        phi = random_nfd(rng)
        s = cauchy_schedule(float(rng.choice([0.1, 1.0, 10.0])), float(rng.choice([1.1, 2.0])))
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        assert tail_bound(phi, s, m, n) == lemma2_bound_check(phi, s, m, n).rhs
    big = NFD({0.0: 0.5, 2000.0: 0.5})
    assert math.isinf(tail_bound(big, cauchy_schedule(10.0, 1.1), 1, 40))
    with pytest.raises(ValueError, match="need n > m >= 1"):
        tail_bound(big, cauchy_schedule(1.0, 2.0), 0, 4)
    assert tail_bound(big, constant_schedule(1.0), 1, 4) == 0.0


def test_profile_point_mass_all_zero():
    s = cauchy_schedule(1.0, 2.0)
    profile = cauchy_tail_profile(NFD({1.0: 1.0}), s, [1, 2, 4, 8])
    assert all(v == 0.0 for _, v in profile)


def test_profile_zero_g0_all_zero():
    s = cauchy_schedule(0.0, 2.0)
    profile = cauchy_tail_profile(NFD({0.0: 0.5, 1.0: 0.5}), s, [1, 2, 4])
    assert all(v == 0.0 for _, v in profile)


def test_profile_two_point_nonincreasing():
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    s = cauchy_schedule(1.0, 2.0)
    profile = cauchy_tail_profile(phi, s, [1, 2, 4, 8, 16, 32])
    vals = [v for _, v in profile]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_profile_checkpoints_validation():
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    s = cauchy_schedule(1.0, 2.0)
    with pytest.raises(ValueError, match="empty checkpoints"):
        cauchy_tail_profile(phi, s, [])
    with pytest.raises(ValueError, match="ascending"):
        cauchy_tail_profile(phi, s, [4, 2])
    with pytest.raises(ValueError, match=">= 1"):
        cauchy_tail_profile(phi, s, [0, 2])


def test_profile_constant_schedule_all_zero():
    rng = np.random.default_rng(59)
    for g in (0.0, 1.0, 300.0):
        phi = random_nfd(rng)
        profile = cauchy_tail_profile(phi, constant_schedule(g), [1, 2, 4, 8])
        assert profile == [(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0)]


def test_profile_values_respect_window_tail_bound():
    # the contraction mechanism: each window max obeys the tail inequality
    rng = np.random.default_rng(47)
    for _ in range(25):
        phi = random_nfd(rng)
        alpha = float(rng.choice([1.1, 1.5, 2.0]))
        g0 = float(rng.choice([0.1, 1.0, 10.0]))
        s = cauchy_schedule(g0, alpha)
        for ckpt, val in cauchy_tail_profile(phi, s, [1, 2, 4, 8, 16]):
            bound = lemma2_bound_check(phi, s, ckpt, 4 * ckpt)
            assert val <= min(2.0, bound.rhs) + 1e-9


def test_profile_can_rise_before_contracting():
    # the head of the profile is not monotone in general: with a small g0
    # the tilt is still accelerating over the first windows
    phi = NFD({0.0: 0.5, 0.5: 0.25, 1.0: 0.25})
    s = cauchy_schedule(0.1, 1.1)
    vals = [v for _, v in cauchy_tail_profile(phi, s, [1, 2, 4, 8, 16, 32])]
    assert max(vals) > vals[0]  # rises somewhere past the first checkpoint
