"""Benchmark objectives and the raw-objective-to-fitness bridge.

Four classic minimization test functions (rastrigin, griewangk, ackley,
schwefel) over symmetric boxes, each paired with conservative analytic
bounds [L, U] on its raw value over the box. Fitness is the fixed affine
map (U - raw) / (U - L), so maximizing fitness minimizes the raw objective
and fitness always lands in [0, 1].

The bounds are precomputed constants rather than per-generation min/max
scaling: rescaling each generation would silently change what a given
inverse temperature means, making constant-gamma selection implicitly
adaptive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

RASTRIGIN_A = 10.0
# conservative per-dimension extreme of x*sin(sqrt(|x|)) on [-500, 500]
SCHWEFEL_PER_DIM = 418.9829

_BOX = {
    "rastrigin": 5.12,
    "griewangk": 600.0,
    "ackley": 30.0,
    "schwefel": 500.0,
}
FUNCTION_NAMES = tuple(_BOX)


def _as_int(name: str, value) -> int:
    """The package's one integer rule: no bool; anything with __index__, as an int.

    An int is returned first: verify reads about 3,500 generation indices
    through ``annealing.gamma_at`` per call at 1000 cases.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _is_real(value) -> bool:
    """The package's one real-number rule: no bool; anything with __float__.

    A float is tested first: ``isinstance`` against ``np.bool_`` alone
    takes about 0.1 us, and the verify suites check about 9,400 inverse
    temperatures per call at 1000 cases.
    """
    return type(value) is float or (
        not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__float__")
    )


def _as_float(name: str, value) -> float:
    """A real number (:func:`_is_real`) as a float."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ObjectiveSpec:
    """One benchmark function instance: box bounds plus raw-value bounds."""

    name: str
    dims: int
    lower: float
    upper: float
    raw_lower: float
    raw_upper: float


def make_objective(name: str, dims: int = 15) -> ObjectiveSpec:
    """Build an ObjectiveSpec with its box and conservative raw bounds.

    Raises:
        ValueError: On an unknown function name, or dims not an integer >= 1.
    """
    if name not in _BOX:
        raise ValueError(f"unknown objective: {name!r}")
    dims = _as_int("dims", dims)
    if dims < 1:
        raise ValueError("dims must be >= 1")
    half = _BOX[name]
    if name == "rastrigin":
        lo, hi = 0.0, dims * (half * half + 2.0 * RASTRIGIN_A)
    elif name == "griewangk":
        lo, hi = 0.0, dims * half * half / 4000.0 + 2.0
    elif name == "ackley":
        lo, hi = 0.0, 20.0 + math.e
    else:  # schwefel
        lo, hi = -SCHWEFEL_PER_DIM * dims, SCHWEFEL_PER_DIM * dims
    return ObjectiveSpec(
        name=name, dims=dims, lower=-half, upper=half, raw_lower=lo, raw_upper=hi
    )


def _check_box(spec: ObjectiveSpec, xs: np.ndarray) -> None:
    # written as "not inside" so a NaN component fails too
    if not ((spec.lower <= xs).all() and (xs <= spec.upper).all()):
        raise ValueError("component outside objective bounds")


def _terms(spec: ObjectiveSpec, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Elementwise terms of the objective on a (n, dims) array of points.

    Each term's value at a point depends only on that component and its
    column, so terms computed once on a lattice grid and gathered per row
    are the same values as terms computed on the rows themselves.
    """
    if spec.name == "rastrigin":
        return (xs * xs - RASTRIGIN_A * np.cos(2.0 * np.pi * xs),)
    if spec.name == "griewangk":
        idx = np.sqrt(np.arange(1, spec.dims + 1, dtype=np.float64))
        return xs * xs, np.cos(xs / idx)
    if spec.name == "ackley":
        return xs * xs, np.cos(2.0 * np.pi * xs)
    # schwefel
    return (-xs * np.sin(np.sqrt(np.abs(xs))),)


def _reduce(spec: ObjectiveSpec, terms: tuple[np.ndarray, ...]) -> np.ndarray:
    """Raw values from the (n, dims) term arrays of :func:`_terms`, row by row."""
    if spec.name == "rastrigin":
        return spec.dims * RASTRIGIN_A + terms[0].sum(axis=1)
    if spec.name == "griewangk":
        sq, cos = terms
        return sq.sum(axis=1) / 4000.0 - cos.prod(axis=1) + 1.0
    if spec.name == "ackley":
        sq, cos = terms
        rms = np.sqrt(sq.mean(axis=1))
        return -20.0 * np.exp(-0.2 * rms) - np.exp(cos.mean(axis=1)) + 20.0 + math.e
    # schwefel
    return terms[0].sum(axis=1)


def evaluate_raw_batch(spec: ObjectiveSpec, xs: np.ndarray) -> np.ndarray:
    """Raw objective values for a (n, dims) batch of in-box points.

    Raises:
        ValueError: On wrong width or any out-of-box (or NaN) component.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != spec.dims:
        raise ValueError(
            f"expected shape (n, {spec.dims}), got {xs.shape}"
        )
    _check_box(spec, xs)
    return _reduce(spec, _terms(spec, xs))


def to_fitness_batch(spec: ObjectiveSpec, raws: np.ndarray) -> np.ndarray:
    """Map raw objective values affinely onto [0, 1], best raw -> 1.

    Raises:
        ValueError: If any raw value falls outside the precomputed [L, U]
            bounds, or is NaN.
    """
    raws = np.asarray(raws, dtype=np.float64)
    lo, hi = spec.raw_lower, spec.raw_upper
    # min and max are NaN when any value is, and NaN fails both tests
    if raws.size and not (lo <= raws.min() and raws.max() <= hi):
        inside = (lo <= raws) & (raws <= hi)
        raise ValueError(
            f"bound violation: recompute bounds "
            f"(raw={float(raws[~inside][0])!r} outside [{lo}, {hi}])"
        )
    return (hi - raws) / (hi - lo)
