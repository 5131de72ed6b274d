"""Operator identities and strength measures for the selection operators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cauchyga.nfd import NFD, distance
from cauchyga.selection import (
    boltzmann_apply,
    proportionate_apply,
    proportionate_strength_closed_form,
)
from cauchyga.verify import random_nfd


def test_boltzmann_gamma_zero_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        phi = random_nfd(rng)
        assert distance(boltzmann_apply(phi, 0.0), phi) <= 1e-12


def test_boltzmann_hand_computed():
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    out = boltzmann_apply(phi, math.log(3.0))
    # weights 0.5 * 1 and 0.5 * 3
    assert out.entries.get(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert out.entries.get(1.0, 0.0) == pytest.approx(0.75, abs=1e-15)


def test_boltzmann_point_mass_is_fixed_point():
    phi = NFD({2.5: 1.0})
    for gamma in (0.0, 1.0, 300.0):
        assert boltzmann_apply(phi, gamma).entries == {2.5: 1.0}


def test_boltzmann_rejects_negative_gamma():
    with pytest.raises(ValueError, match="inverse temperature must be nonnegative"):
        boltzmann_apply(NFD({1.0: 1.0}), -0.1)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_boltzmann_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="^inverse temperature must be finite$"):
        boltzmann_apply(NFD({1.0: 1.0}), gamma)


@pytest.mark.parametrize("gamma", ["3", True, np.True_, None, 1j], ids=repr)
def test_boltzmann_rejects_a_gamma_that_is_not_a_real_number(gamma):
    with pytest.raises(ValueError, match="^inverse temperature must be a real number, got "):
        boltzmann_apply(NFD({0.5: 1.0}), gamma)


def test_boltzmann_takes_ints_and_numpy_floats_as_gamma():
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    expected = boltzmann_apply(phi, 3.0)
    assert boltzmann_apply(phi, 3) == boltzmann_apply(phi, np.float64(3.0)) == expected


def test_boltzmann_preserves_support_exactly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        phi = random_nfd(rng)
        gamma = float(rng.uniform(0, 50))
        assert boltzmann_apply(phi, gamma).entries.keys() == phi.entries.keys()


def test_boltzmann_semigroup_composition():
    rng = np.random.default_rng(3)
    for _ in range(300):
        phi = random_nfd(rng)
        g1, g2 = rng.uniform(0, 50, size=2)
        two = boltzmann_apply(boltzmann_apply(phi, float(g1)), float(g2))
        one = boltzmann_apply(phi, float(g1) + float(g2))
        assert distance(two, one) <= 1e-10


def test_boltzmann_shift_equivariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        phi = random_nfd(rng)
        gamma = float(rng.uniform(0, 50))
        c = float(rng.uniform(0.01, 10))
        shifted = NFD({x + c: m for x, m in phi.entries.items()})
        lhs = boltzmann_apply(shifted, gamma)
        selected = boltzmann_apply(phi, gamma).entries.items()
        rhs = NFD({x + c: m for x, m in selected})
        assert distance(lhs, rhs) <= 1e-10


def test_boltzmann_likelihood_ratio_monotone_in_gamma():
    rng = np.random.default_rng(5)
    for _ in range(100):
        phi = random_nfd(rng, max_support=10)
        if len(phi) < 2:
            continue
        xs = sorted(phi.entries)
        x1, x2 = xs[0], xs[-1]
        gammas = [0.0, 1.0, 5.0, 20.0]
        ratios = []
        for gamma in gammas:
            out = boltzmann_apply(phi, gamma)
            ratios.append(out.entries[x2] / out.entries[x1])
            expected = (phi.entries[x2] / phi.entries[x1]) * math.exp(gamma * (x2 - x1))
            assert ratios[-1] == pytest.approx(expected, rel=1e-10)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_boltzmann_high_gamma_concentrates_on_max():
    rng = np.random.default_rng(6)
    for _ in range(100):
        phi = random_nfd(rng, max_support=10)
        if len(phi) < 2:
            continue
        xs = sorted(phi.entries)
        gap = xs[-1] - xs[-2]
        gamma = 40.0 / gap
        out = boltzmann_apply(phi, gamma)
        assert distance(out, NFD({xs[-1]: 1.0})) <= 1e-10


@pytest.mark.parametrize("c", [0.1, 0.3, 1.0, 5.0])
@pytest.mark.parametrize("x0, spread", [(0.0, 1.0), (0.25, 0.5), (2.0, 3.0)])
def test_two_point_boltzmann_distance_is_exact(c, x0, spread):
    # At gamma = c / spread, Boltzmann selection swaps the two masses of
    # {x0: 1 - q, x0 + spread: q} with q = 1 / (e**(c/2) + 1), so the
    # distance from the unselected NFD is 2 * (1 - 2q) = 2 * tanh(c / 4).
    q = 1.0 / (math.exp(c / 2.0) + 1.0)
    phi = NFD({x0: 1.0 - q, x0 + spread: q})
    d = distance(boltzmann_apply(phi, c / spread), boltzmann_apply(phi, 0.0))
    assert d == pytest.approx(2.0 * math.tanh(c / 4.0), rel=1e-12, abs=0.0)


def test_proportionate_hand_computed():
    out = proportionate_apply(NFD({1.0: 0.5, 3.0: 0.5}))
    assert out.entries.get(1.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert out.entries.get(3.0, 0.0) == pytest.approx(0.75, abs=1e-15)


def test_proportionate_point_mass_fixed():
    assert proportionate_apply(NFD({2.0: 1.0})).entries == {2.0: 1.0}


def test_proportionate_drops_zero_fitness():
    out = proportionate_apply(NFD({0.0: 0.5, 2.0: 0.5}))
    assert out.entries == {2.0: 1.0}


def test_proportionate_rejects_all_zero_support():
    with pytest.raises(ValueError, match="degenerate proportionate selection"):
        proportionate_apply(NFD({0.0: 1.0}))


def test_strength_zero_for_identity_operator():
    rng = np.random.default_rng(7)
    phi = random_nfd(rng)
    assert distance(phi, boltzmann_apply(phi, 0.0)) <= 1e-12


def test_strength_proportionate_hand_computed():
    phi = NFD({1.0: 0.5, 3.0: 0.5})
    s = distance(phi, proportionate_apply(phi))
    assert s == pytest.approx(0.5, abs=1e-15)


def test_strength_point_mass_zero():
    phi = NFD({4.0: 1.0})
    assert distance(phi, boltzmann_apply(phi, 7.0)) == 0.0
    assert distance(phi, proportionate_apply(phi)) == 0.0


def test_closed_form_examples():
    assert proportionate_strength_closed_form(
        NFD({1.0: 0.5, 3.0: 0.5})
    ) == pytest.approx(0.5, abs=1e-15)
    assert proportionate_strength_closed_form(NFD({2.0: 1.0})) == 0.0
    assert proportionate_strength_closed_form(
        NFD({1.0: 0.25, 2.0: 0.5, 3.0: 0.25})
    ) == pytest.approx(0.25, abs=1e-15)


def test_closed_form_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        proportionate_strength_closed_form(NFD({0.0: 1.0}))


def test_closed_form_agrees_with_operator_route():
    rng = np.random.default_rng(8)
    for i in range(300):
        phi = random_nfd(rng)
        if i % 3 == 0:
            # force fitness 0 into the support: the dropped point must not
            # break the agreement
            entries = dict(phi.entries)
            spare = 0.5 * min(entries.values())
            top = max(entries)
            entries[top] -= spare
            entries[0.0] = entries.get(0.0, 0.0) + spare
            phi = NFD(entries)
        if phi.mean() <= 0.0:
            continue
        via_operator = distance(phi, proportionate_apply(phi))
        closed = proportionate_strength_closed_form(phi)
        assert abs(via_operator - closed) <= 1e-10
