"""The padded-block NFD algebra equals the dict forms it replaced, bit for bit.

``selection.boltzmann_tilt`` is the package's one Boltzmann tilt: every
row must equal the dict tilt of ``reference.py`` and ``boltzmann_apply``.
The same-support block distance must equal ``nfd.distance`` of the NFDs
its rows stand for (a zero mass is a point off the support), the block
lemma formulas the dict ones, and the padded draw the list-built draw from
the same stream position. Blocks mix rows of different lengths, so padding
that leaked into a sum or a tilt would show. Every comparison is ``==``.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    dict_boltzmann_apply,
    dict_lemma1,
    dict_lemma2,
    dict_tail_bound,
    list_random_nfds,
)

from cauchyga.annealing import cauchy_schedule
from cauchyga.nfd import NFD, _check_mass_rows, distance, padded, row_distances
from cauchyga.selection import _TINY, boltzmann_apply, boltzmann_tilt
from cauchyga.theory import (
    lemma1_bounds,
    lemma1_check,
    lemma2_bound_check,
    lemma2_bounds,
    tail_bound,
)
from cauchyga.verify import random_nfd_block

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

VALUES = st.floats(min_value=0.0, max_value=100.0) | st.sampled_from([-0.0, 5e-324, 1e-300])
GAMMAS = st.floats(min_value=0.0, max_value=1e3) | st.sampled_from([0.0, 800.0, 1e300])


@st.composite
def nfds(draw):
    """An NFD on 1..8 distinct values (-0.0 among them) with positive weights."""
    support = draw(st.lists(VALUES, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(support), max_size=len(support)))
    total = math.fsum(weights)
    return NFD({x: w / total for x, w in zip(support, weights)})


ROWS = st.lists(st.tuples(nfds(), GAMMAS), min_size=1, max_size=4)


def assert_rows_equal(block: np.ndarray, lengths: np.ndarray, phis: list[NFD], part=dict.values):
    """Row r holds ``part`` of phis[r]'s entries (masses by default) in
    order, then exact +0.0 padding."""
    for row, k, phi in zip(block.tolist(), lengths.tolist(), phis):
        assert row[:k] == list(part(phi.entries))
        assert all(m == 0.0 and math.copysign(1.0, m) == 1.0 for m in row[k:])


@PROPERTY
@given(ROWS)
def test_each_row_of_the_block_tilt_is_the_dict_tilt(rows):
    phis, gammas = [phi for phi, _ in rows], [g for _, g in rows]
    values, masses, lengths = padded(phis)
    expected = [dict_boltzmann_apply(phi, g) for phi, g in rows]
    assert_rows_equal(boltzmann_tilt(values, masses, lengths, gammas), lengths, expected)
    for (phi, gamma), ref in zip(rows, expected):
        assert list(boltzmann_apply(phi, gamma).entries.items()) == list(ref.entries.items())


@PROPERTY
@given(nfds())
def test_gamma_zero_tilts_to_the_renormalized_input(phi):
    values, masses, lengths = padded([phi])
    tilted = boltzmann_tilt(values, masses, lengths, [0.0])
    total = math.fsum(phi.entries.values())
    assert tilted[0].tolist() == [m / total for m in phi.entries.values()]
    assert distance(boltzmann_apply(phi, 0.0), phi) <= 1e-15


@pytest.mark.parametrize("x", [0.0, -0.0, 2.5])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 1e300])
def test_a_single_point_support_keeps_all_its_mass(x, gamma):
    out = boltzmann_apply(NFD({x: 1.0}), gamma)
    assert out.entries == {x: 1.0}
    assert math.copysign(1.0, next(iter(out.entries))) == math.copysign(1.0, x)


def test_a_key_of_negative_zero_is_kept_and_tilted_as_zero():
    phi = NFD({-0.0: 0.25, 1.0: 0.75})
    out = boltzmann_apply(phi, math.log(3.0))
    assert math.copysign(1.0, next(iter(out.entries))) == -1.0
    expected = dict_boltzmann_apply(phi, math.log(3.0))
    assert list(out.entries.items()) == list(expected.entries.items())
    assert out.entries[1.0] == pytest.approx(0.9, rel=1e-15)


def test_an_underflowing_weight_is_floored_in_its_row_only():
    phis = [NFD({0.0: 0.5, 1.0: 0.5}), NFD({0.5: 1.0}), NFD({0.0: 0.25, 0.5: 0.25, 1.0: 0.5})]
    values, masses, lengths = padded(phis)
    tilted = boltzmann_tilt(values, masses, lengths, [1000.0, 1000.0, 2.0])
    # exp(-1000) underflows: the weight at 0 is the smallest subnormal, over 0.5
    assert tilted[0].tolist() == [_TINY / 0.5, 1.0, 0.0]
    assert tilted[1].tolist() == [1.0, 0.0, 0.0]
    expected = [dict_boltzmann_apply(phi, g) for phi, g in zip(phis, [1000.0, 1000.0, 2.0])]
    assert_rows_equal(tilted, lengths, expected)


@pytest.mark.parametrize(
    "gamma, message",
    [(-0.5, "must be nonnegative"), (-math.inf, "must be finite"), (math.nan, "must be finite"),
     (math.inf, "must be finite")],
)
def test_a_bad_gamma_in_any_row_raises_as_boltzmann_apply_does(gamma, message):
    phis = [NFD({0.0: 0.5, 1.0: 0.5}), NFD({0.25: 1.0})]
    with pytest.raises(ValueError, match=f"^inverse temperature {message}$"):
        boltzmann_tilt(*padded(phis), [1.0, gamma])
    with pytest.raises(ValueError, match=f"^inverse temperature {message}$"):
        boltzmann_apply(phis[0], gamma)


@pytest.mark.parametrize(
    "bad_row, message",
    [([0.5, math.nan, 0.0], "nonpositive mass at fitness 1.0: nan"),
     ([1.5, -0.5, 0.0], "mass above 1 at fitness 0.0: 1.5"),
     ([0.5, 0.25, 0.0], "masses sum to 0.75, not 1")],
)
def test_the_first_row_that_fails_the_mass_checks_raises_their_message(bad_row, message):
    # the row after it fails too; the padding of the first row is never checked
    values = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
    masses = np.array([[1.0, -1.0, 7.0], bad_row, [math.nan, 0.5, 0.5]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _check_mass_rows(values, masses, np.array([1, 2, 3]))
    _check_mass_rows(values[:1], masses[:1], np.array([1]))


@PROPERTY
@given(ROWS)
def test_the_block_distance_is_nfd_distance_on_one_support(rows):
    phis = [phi for phi, _ in rows]
    values, masses, lengths = padded(phis)
    tilted = boltzmann_tilt(values, masses, lengths, [g for _, g in rows])
    selected = [boltzmann_apply(phi, g) for phi, g in rows]
    assert row_distances(masses, tilted) == [distance(p, s) for p, s in zip(phis, selected)]
    assert row_distances(tilted, masses) == [distance(s, p) for p, s in zip(phis, selected)]


@st.composite
def sparse_pairs(draw):
    """A support of 1..8 values and two mass rows on it, each with zeros
    where its NFD leaves a value out and at least one positive mass."""
    support = sorted(draw(st.lists(VALUES, min_size=1, max_size=8, unique=True)))
    weights = st.lists(st.floats(1e-6, 1.0) | st.just(0.0), min_size=len(support),
                       max_size=len(support)).filter(any)
    rows = [draw(weights) for _ in range(2)]
    return support, [[w / math.fsum(row) for w in row] for row in rows]


def stood_for(support: list[float], masses: list[float]) -> NFD:
    """The NFD a row of masses stands for: its positive masses, on their values."""
    return NFD({x: m for x, m in zip(support, masses) if m > 0.0})


@PROPERTY
@given(st.lists(sparse_pairs(), min_size=1, max_size=4))
def test_the_block_distance_reads_a_zero_mass_as_a_point_off_the_support(cases):
    # the metric suite lays three NFDs on one support this way
    block1, block2 = np.zeros((2, len(cases), 8))
    for r, (support, (p, q)) in enumerate(cases):
        block1[r, : len(p)], block2[r, : len(q)] = p, q
    expected = [distance(stood_for(s, p), stood_for(s, q)) for s, (p, q) in cases]
    assert row_distances(block1, block2) == expected


@PROPERTY
@given(st.lists(st.tuples(nfds(), GAMMAS, GAMMAS), min_size=1, max_size=4))
def test_the_block_lemma1_is_the_dict_lemma1(rows):
    phis, g1s, g2s = (list(col) for col in zip(*rows))
    lhs, rhs = lemma1_bounds(*padded(phis), g1s, g2s)
    expected = [dict_lemma1(*row) for row in rows]
    assert list(zip(lhs, rhs)) == expected
    assert [tuple(lemma1_check(*row)) for row in rows] == expected


WINDOWS = st.tuples(
    st.sampled_from([0.1, 1.0, 10.0, 300.0]), st.sampled_from([1.1, 1.5, 2.0, math.inf]),
    st.integers(1, 49), st.integers(1, 50),
).filter(lambda w: w[2] < w[3])


@PROPERTY
@given(st.lists(st.tuples(nfds(), WINDOWS), min_size=1, max_size=4))
def test_the_block_lemma2_is_the_dict_lemma2(rows):
    phis = [phi for phi, _ in rows]
    schedules = [cauchy_schedule(g0, alpha) for _, (g0, alpha, _, _) in rows]
    ms, ns = [w[2] for _, w in rows], [w[3] for _, w in rows]
    lhs, rhs = lemma2_bounds(*padded(phis), schedules, ms, ns)
    expected = [dict_lemma2(*case) for case in zip(phis, schedules, ms, ns)]
    assert list(zip(lhs, rhs)) == expected
    assert [tuple(lemma2_bound_check(*case)) for case in zip(phis, schedules, ms, ns)] == expected


def test_a_tail_bound_over_negative_zero_alone_is_positive_zero():
    # expm1(-0.0 * tail) is -0.0, but the dict form's running sum starts at +0.0
    phi, schedule = NFD({-0.0: 1.0}), cauchy_schedule(1.0, 2.0)
    bound = tail_bound(phi, schedule, 1, 4)
    assert bound == dict_tail_bound(phi, schedule, 1, 4) == 0.0
    assert math.copysign(1.0, bound) == 1.0


BOUNDS = st.sampled_from([(0.0, 1.0), (0.0, 1e-300), (0.0, 5e-323), (2.0, 2.0)])


@PROPERTY
@given(st.integers(0, 2**63), st.integers(0, 40), st.integers(1, 40), BOUNDS)
def test_the_padded_draw_is_the_list_draw(seed, count, max_support, bounds):
    # tiny and empty value ranges force duplicate values
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    values, masses, lengths = random_nfd_block(ours, count, max_support, *bounds)
    expected = list_random_nfds(theirs, count, max_support, *bounds)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert values.shape == masses.shape == (count, max_support)
    assert lengths.tolist() == [len(phi) for phi in expected]
    assert_rows_equal(masses, lengths, expected)
    assert_rows_equal(values, lengths, expected, part=dict.keys)
