"""Objective formulas, bound conservativeness, and the fitness bridge."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cauchyga.benchmarks import (
    FUNCTION_NAMES,
    SCHWEFEL_PER_DIM,
    evaluate_raw_batch,
    make_objective,
    to_fitness_batch,
)


def raw_at(spec, x) -> float:
    """Raw objective of one point through the batch evaluator."""
    return float(evaluate_raw_batch(spec, [x])[0])


def lattice_values(spec, bits: int = 5) -> np.ndarray:
    """All decodable per-dimension coordinates for a bits-wide encoding."""
    v = np.arange(2**bits, dtype=np.float64)
    return spec.lower + v / (2**bits - 1) * (spec.upper - spec.lower)


def schwefel_1d_min() -> float:
    """Independent oracle: 1-D minimization of -x*sin(sqrt(|x|)) on [-500, 500]."""
    f = lambda x: -x * math.sin(math.sqrt(abs(x)))
    # coarse scan picks the basin, then a bounded local polish
    grid = np.linspace(-500, 500, 4001)
    x0 = grid[np.argmin([f(x) for x in grid])]
    res = minimize_scalar(f, bounds=(max(-500, x0 - 5), min(500, x0 + 5)),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.fun)


def test_origin_anchors_are_zero():
    for name in ("rastrigin", "griewangk", "ackley"):
        spec = make_objective(name, 15)
        assert abs(raw_at(spec, [0.0] * 15)) <= 1e-12


def test_schwefel_minimum_against_oracle():
    one_dim = schwefel_1d_min()
    assert one_dim == pytest.approx(-418.9829, abs=1e-3)
    spec = make_objective("schwefel", 15)
    val = raw_at(spec, [420.9687] * 15)
    assert val == pytest.approx(15 * one_dim, abs=1e-2)
    assert val == pytest.approx(-6284.74, abs=0.05)


def test_raw_bounds_examples():
    assert make_objective("rastrigin", 15).raw_upper == pytest.approx(693.216, abs=1e-9)
    assert make_objective("ackley", 15).raw_upper == pytest.approx(20.0 + math.e, abs=0)
    schwefel = make_objective("schwefel", 15)
    lo, hi = schwefel.raw_lower, schwefel.raw_upper
    assert lo == pytest.approx(-6284.7435, abs=1e-9)
    assert hi == -lo


def test_separable_lattice_sweep_within_bounds():
    # rastrigin and schwefel are per-dimension sums: extremes over the
    # decoded lattice are the summed per-dimension extremes
    for name, term in (
        ("rastrigin", lambda x: x * x - 10.0 * np.cos(2 * np.pi * x) + 10.0),
        ("schwefel", lambda x: -x * np.sin(np.sqrt(np.abs(x)))),
    ):
        spec = make_objective(name, 15)
        per_dim = term(lattice_values(spec))
        lo, hi = spec.raw_lower, spec.raw_upper
        assert 15 * per_dim.min() >= lo - 1e-9
        assert 15 * per_dim.max() <= hi + 1e-9


def test_ackley_termwise_lattice_bound():
    spec = make_objective("ackley", 15)
    lat = lattice_values(spec)
    sq, cos = lat * lat, np.cos(2 * np.pi * lat)
    lo, hi = spec.raw_lower, spec.raw_upper
    # worst-case assembly of the two coupled terms over lattice extremes
    f_hi = -20.0 * math.exp(-0.2 * math.sqrt(sq.max())) - math.exp(cos.min()) + 20.0 + math.e
    f_lo = -20.0 * math.exp(-0.2 * math.sqrt(sq.min())) - math.exp(cos.max()) + 20.0 + math.e
    assert lo - 1e-9 <= f_lo <= f_hi <= hi + 1e-9


def test_griewangk_random_lattice_sweep_within_bounds():
    spec = make_objective("griewangk", 15)
    rng = np.random.default_rng(53)
    lat = lattice_values(spec)
    pts = lat[rng.integers(0, 32, size=(1_000_000, 15))]
    vals = evaluate_raw_batch(spec, pts)
    lo, hi = spec.raw_lower, spec.raw_upper
    assert vals.min() >= lo and vals.max() <= hi


def test_to_fitness_endpoints():
    for name in FUNCTION_NAMES:
        spec = make_objective(name, 15)
        lo, hi = spec.raw_lower, spec.raw_upper
        assert to_fitness_batch(spec, [hi, lo]).tolist() == [0.0, 1.0]
    rast = make_objective("rastrigin", 15)
    assert to_fitness_batch(rast, [raw_at(rast, [0.0] * 15)])[0] == 1.0


def test_to_fitness_strictly_decreasing():
    spec = make_objective("ackley", 15)
    lo, hi = spec.raw_lower, spec.raw_upper
    raws = np.linspace(lo, hi, 101)
    fits = to_fitness_batch(spec, raws)
    assert np.all(np.diff(fits) < 0)


def test_to_fitness_rejects_out_of_bounds():
    spec = make_objective("rastrigin", 15)
    with pytest.raises(ValueError, match=r"bound violation.*raw=-1\.0 outside"):
        to_fitness_batch(spec, [0.5, -1.0])
    with pytest.raises(ValueError, match="bound violation"):
        to_fitness_batch(spec, [1e6])


def test_fitness_composition_in_unit_interval():
    rng = np.random.default_rng(59)
    for name in FUNCTION_NAMES:
        spec = make_objective(name, 15)
        pts = rng.uniform(spec.lower, spec.upper, size=(100_000, 15))
        fits = to_fitness_batch(spec, evaluate_raw_batch(spec, pts))
        assert fits.min() >= 0.0 and fits.max() <= 1.0


def test_evaluate_raw_validation():
    spec = make_objective("rastrigin", 15)
    with pytest.raises(ValueError, match="bounds"):
        evaluate_raw_batch(spec, [[6.0] + [0.0] * 14])
    with pytest.raises(ValueError, match="shape"):
        evaluate_raw_batch(spec, [[0.0] * 14])
    with pytest.raises(ValueError, match="shape"):
        evaluate_raw_batch(spec, [0.0] * 15)  # a vector, not a batch
    with pytest.raises(ValueError, match="unknown objective"):
        make_objective("sphere", 15)


def test_schwefel_bound_constant_is_conservative():
    one_dim = schwefel_1d_min()
    assert SCHWEFEL_PER_DIM > -one_dim  # strictly wider than attainable


def formula_reference(spec, xs) -> np.ndarray:
    """Each objective written out in one expression, as a reference."""
    if spec.name == "rastrigin":
        return spec.dims * 10.0 + np.sum(xs * xs - 10.0 * np.cos(2.0 * np.pi * xs), axis=1)
    if spec.name == "griewangk":
        idx = np.sqrt(np.arange(1, spec.dims + 1, dtype=np.float64))
        return np.sum(xs * xs, axis=1) / 4000.0 - np.prod(np.cos(xs / idx), axis=1) + 1.0
    if spec.name == "ackley":
        rms = np.sqrt(np.mean(xs * xs, axis=1))
        mean_cos = np.mean(np.cos(2.0 * np.pi * xs), axis=1)
        return -20.0 * np.exp(-0.2 * rms) - np.exp(mean_cos) + 20.0 + math.e
    return np.sum(-xs * np.sin(np.sqrt(np.abs(xs))), axis=1)


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_terms_and_reduction_equal_the_formula(name):
    rng = np.random.default_rng(71)
    for dims in (1, 2, 15):
        spec = make_objective(name, dims)
        xs = rng.uniform(spec.lower, spec.upper, size=(300, dims))
        got = evaluate_raw_batch(spec, xs)
        assert got.tobytes() == formula_reference(spec, xs).tobytes()


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_evaluate_raw_rejects_nan_component(name):
    spec = make_objective(name, 3)
    with pytest.raises(ValueError, match="component outside objective bounds"):
        evaluate_raw_batch(spec, [[math.nan, 0.0, 0.0]])
    with pytest.raises(ValueError, match="component outside objective bounds"):
        evaluate_raw_batch(spec, [[0.0, 0.0, 0.0], [0.0, 0.0, math.nan]])


def test_to_fitness_rejects_nan():
    spec = make_objective("rastrigin", 3)
    with pytest.raises(ValueError, match=r"bound violation.*raw=nan outside"):
        to_fitness_batch(spec, [1.0, math.nan])
    with pytest.raises(ValueError, match="bound violation"):
        to_fitness_batch(spec, [math.nan])


def test_to_fitness_of_no_values_is_empty():
    fits = to_fitness_batch(make_objective("rastrigin", 3), [])
    assert fits.shape == (0,) and fits.dtype == np.float64


@pytest.mark.parametrize(
    "raws,first",
    [
        ([1.0, math.nan], math.nan),
        ([1.0, -1.0], -1.0),
        ([1.0, 1e6], 1e6),
        # the first offending value in array order, not the extreme one
        ([1.0, 1e6, -5.0, math.nan], 1e6),
        ([math.nan, -5.0, 1e6], math.nan),
        ([-1.0, -5.0], -1.0),
    ],
)
def test_to_fitness_names_the_first_value_out_of_bounds(raws, first):
    spec = make_objective("rastrigin", 3)
    with pytest.raises(ValueError) as exc:
        to_fitness_batch(spec, raws)
    assert str(exc.value) == (
        f"bound violation: recompute bounds "
        f"(raw={first!r} outside [{spec.raw_lower}, {spec.raw_upper}])"
    )


def test_to_fitness_accepts_negative_zero_at_a_zero_lower_bound():
    spec = make_objective("rastrigin", 3)
    assert spec.raw_lower == 0.0
    assert to_fitness_batch(spec, [-0.0, spec.raw_upper]).tolist() == [1.0, 0.0]
