"""Acceptance gate: every criterion at its stated tolerance and budget.

One test per criterion; each prints a PASS line on success (visible with
``pytest -s``). The two expensive criteria (directional replication and
byte-level determinism) share one experiment-matrix fixture.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cauchyga.annealing import calibrate_g0, cauchy_schedule, gamma_at
from cauchyga.benchmarks import (
    FUNCTION_NAMES,
    evaluate_raw_batch,
    make_objective,
    to_fitness_batch,
)
from cauchyga.cli import CliConfig, emit_schedule, read_series_csv, run_experiment
from cauchyga.engine import make_population, population_nfd, select_parents
from cauchyga.nfd import NFD, distance
from cauchyga.selection import boltzmann_apply, proportionate_apply
from cauchyga.theory import cauchy_tail_profile, lemma1_check, lemma2_bound_check
from cauchyga.verify import random_nfd

# best-performing annealing speed per function, used by the comparison grid
BEST_ALPHA = {"rastrigin": 2.0, "ackley": 1.1, "griewangk": 1.1, "schwefel": 1.5}
SCHEMES = ("proportionate", "boltzmann_const", "cauchy_boltzmann")

MATRIX_BUDGET_S = 300.0


def _print_pass(name: str) -> None:
    print(f"PASS {name}")


def _run_matrix(out_dir, seed: int = 42, runs: int = 17) -> list:
    """The full 4-function x 3-scheme experiment grid at comparison defaults."""
    written = []
    for function, alpha in BEST_ALPHA.items():
        for scheme in SCHEMES:
            cfg = CliConfig(
                function=function,
                selection=scheme,
                alpha=alpha,
                gamma=300.0,
                gamma_target=300.0,
                generations=100,
                pop_size=150,
                runs=runs,
                seed=seed,
                output=str(out_dir),
            )
            written.extend(run_experiment(cfg))
    return written


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """Two full matrix passes: results for replication, bytes for determinism."""
    dir_a = tmp_path_factory.mktemp("matrix_a")
    dir_b = tmp_path_factory.mktemp("matrix_b")
    t0 = time.monotonic()
    _run_matrix(dir_a)
    elapsed_one_pass = time.monotonic() - t0
    _run_matrix(dir_b)
    return {"a": dir_a, "b": dir_b, "elapsed": elapsed_one_pass}


def test_metric_axiom_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        p1, p2, p3 = (random_nfd(rng) for _ in range(3))
        d12, d13, d23 = distance(p1, p2), distance(p1, p3), distance(p2, p3)
        assert min(d12, d13, d23) >= 0.0
        assert distance(p1, p1) == 0.0
        assert distance(p2, p1) == d12
        assert d13 <= d12 + d23 + 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _print_pass(f"metric axioms: 10000 triples in {elapsed:.1f}s")


def test_operator_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        phi = random_nfd(rng)
        assert distance(boltzmann_apply(phi, 0.0), phi) <= 1e-10
    for _ in range(1000):
        phi = random_nfd(rng)
        g1, g2 = (float(g) for g in rng.uniform(0, 50, size=2))
        two = boltzmann_apply(boltzmann_apply(phi, g1), g2)
        assert distance(two, boltzmann_apply(phi, g1 + g2)) <= 1e-10
    for _ in range(1000):
        phi = random_nfd(rng)
        assert boltzmann_apply(phi, float(rng.uniform(0, 50))).entries.keys() == phi.entries.keys()
    for _ in range(1000):
        phi = random_nfd(rng)
        gamma = float(rng.uniform(0, 50))
        c = float(rng.uniform(0.01, 10))
        shifted = NFD({x + c: m for x, m in phi.entries.items()})
        lhs = boltzmann_apply(shifted, gamma)
        selected = boltzmann_apply(phi, gamma).entries.items()
        rhs = NFD({x + c: m for x, m in selected})
        assert distance(lhs, rhs) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _print_pass(f"operator identities: 4 x 1000 cases in {elapsed:.1f}s")


def test_lemma_suites():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        phi = random_nfd(rng)
        g1, g2 = (float(g) for g in rng.uniform(0, 50, size=2))
        chk = lemma1_check(phi, g1, g2)
        assert chk.lhs <= chk.rhs + 1e-9
    for _ in range(1000):
        phi = random_nfd(rng)  # support confined to [0, 1]
        alpha = float(rng.choice([1.1, 1.5, 2.0]))
        g0 = float(rng.choice([0.1, 1.0, 10.0]))
        m = int(rng.integers(1, 50))
        n = int(rng.integers(m + 1, 51))
        chk = lemma2_bound_check(phi, cauchy_schedule(g0, alpha), m, n)
        assert chk.lhs <= chk.rhs + 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _print_pass(f"lemma suites: 2 x 1000 cases, zero violations in {elapsed:.1f}s")


def test_theorem1_profile():
    # phi and g0 are free in the criterion; this configuration sits in the
    # contraction regime while keeping all distances at normal float scale
    t0 = time.monotonic()
    phi = NFD({0.0: 0.5, 1.0: 0.5})
    checkpoints = [1, 2, 4, 8, 16, 32, 64]
    profiles = {
        alpha: cauchy_tail_profile(phi, cauchy_schedule(10.0, alpha), checkpoints)
        for alpha in (1.1, 1.5, 2.0)
    }
    first_alpha2 = profiles[2.0][0][1]
    assert first_alpha2 > 0.0
    for alpha, profile in profiles.items():
        vals = [v for _, v in profile]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), alpha
        assert vals[-1] < 1e-3 * first_alpha2, alpha
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _print_pass(
        f"theorem-1 profile: nonincreasing, finals < {1e-3 * first_alpha2:.2e} "
        f"in {elapsed:.1f}s"
    )


def test_calibration(tmp_path):
    t0 = time.monotonic()
    g0 = calibrate_g0(2.0, 100, 300.0)
    assert gamma_at(cauchy_schedule(g0, 2.0), 100) == pytest.approx(300.0, rel=1e-9)
    for alpha in (1.0001, 1.1, 1.5, 2.0):
        path = emit_schedule(alpha, 100, tmp_path, gamma_target=300.0)
        _, _, rows = read_series_csv(path)
        gammas = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == pytest.approx(300.0, rel=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _print_pass(f"calibration: gamma_100 = 300 for all alphas in {elapsed:.2f}s")


def test_sampling_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(2027)
    spec = make_objective("rastrigin", 1)  # 32-point lattice keeps support small
    worst = 0.0
    for _ in range(50):
        bits = rng.integers(0, 2, size=(150, 5), dtype=np.uint8)
        genes = bits @ (1 << np.arange(4, -1, -1))[:, None]  # the bits' big-endian level
        fitness = make_population(genes, spec, 5).fitness
        phi = population_nfd(fitness)
        gamma = float(rng.uniform(0.0, 10.0))
        for gamma_n, operator in (
            (gamma, lambda p: boltzmann_apply(p, gamma)),
            (None, proportionate_apply),
        ):
            drawn = select_parents(fitness, gamma_n, rng.random(100_000))
            d = distance(population_nfd(fitness[drawn]), operator(phi))
            worst = max(worst, d)
            assert d <= 0.02
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _print_pass(
        f"sampling consistency: 50 populations, worst d = {worst:.4f} "
        f"in {elapsed:.1f}s"
    )


def test_benchmark_anchors():
    t0 = time.monotonic()
    for name in ("rastrigin", "griewangk", "ackley"):
        spec = make_objective(name, 15)
        assert abs(evaluate_raw_batch(spec, np.zeros((1, 15)))[0]) <= 1e-12

    f = lambda x: -x * math.sin(math.sqrt(abs(x)))
    grid = np.linspace(-500, 500, 4001)
    x0 = grid[np.argmin([f(x) for x in grid])]
    res = minimize_scalar(f, bounds=(x0 - 5, x0 + 5), method="bounded",
                          options={"xatol": 1e-10})
    assert res.fun == pytest.approx(-418.9829, abs=1e-3)

    # bound sweeps: separable lattice extremes, ackley term-wise, griewangk
    # random lattice sample
    rng = np.random.default_rng(2028)
    for name in FUNCTION_NAMES:
        spec = make_objective(name, 15)
        lo, hi = spec.raw_lower, spec.raw_upper
        v = np.arange(32, dtype=np.float64)
        lat = spec.lower + v / 31.0 * (spec.upper - spec.lower)
        if name in ("rastrigin", "schwefel"):
            term = (
                lat * lat - 10.0 * np.cos(2 * np.pi * lat) + 10.0
                if name == "rastrigin"
                else -lat * np.sin(np.sqrt(np.abs(lat)))
            )
            assert 15 * term.min() >= lo - 1e-9
            assert 15 * term.max() <= hi + 1e-9
        elif name == "ackley":
            sq, cos = lat * lat, np.cos(2 * np.pi * lat)
            f_hi = (
                -20.0 * math.exp(-0.2 * math.sqrt(sq.max()))
                - math.exp(cos.min()) + 20.0 + math.e
            )
            f_lo = (
                -20.0 * math.exp(-0.2 * math.sqrt(sq.min()))
                - math.exp(cos.max()) + 20.0 + math.e
            )
            assert lo - 1e-9 <= f_lo <= f_hi <= hi + 1e-9
        else:
            pts = lat[rng.integers(0, 32, size=(1_000_000, 15))]
            vals = evaluate_raw_batch(spec, pts)
            assert vals.min() >= lo and vals.max() <= hi
        fits = to_fitness_batch(
            spec, evaluate_raw_batch(
                spec, rng.uniform(spec.lower, spec.upper, size=(10_000, 15))
            )
        )
        assert fits.min() >= 0.0 and fits.max() <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _print_pass(f"benchmark anchors and bound sweeps in {elapsed:.1f}s")


def _final_best(out_dir, function: str, scheme: str) -> float:
    _, _, rows = read_series_csv(out_dir / f"{function}_{scheme}.csv")
    return float(rows[-1][2])


def _outcome(annealed: float, rival: float) -> str:
    """W, T or L for the annealed final best against a rival's (lower is better)."""
    if annealed == rival:
        return "T"
    return "W" if annealed < rival else "L"


def test_directional_replication(matrix):
    assert matrix["elapsed"] < MATRIX_BUDGET_S
    wins = 0
    tally = Counter()
    lines = []
    for function in BEST_ALPHA:
        finals = {s: _final_best(matrix["a"], function, s) for s in SCHEMES}
        won = (
            finals["cauchy_boltzmann"] <= finals["boltzmann_const"]
            and finals["cauchy_boltzmann"] <= finals["proportionate"]
        )
        wins += won
        vs_prop = _outcome(finals["cauchy_boltzmann"], finals["proportionate"])
        vs_const = _outcome(finals["cauchy_boltzmann"], finals["boltzmann_const"])
        tally.update((vs_prop, vs_const))
        lines.append(
            f"  {function}: prop={finals['proportionate']:.4f} "
            f"const={finals['boltzmann_const']:.4f} "
            f"cauchy={finals['cauchy_boltzmann']:.4f} "
            f"vs prop={vs_prop} vs const={vs_const} win={won}"
        )
    lines.append(
        f"  annealed vs rivals W/T/L: {tally['W']}/{tally['T']}/{tally['L']}"
    )
    print("\n".join(lines))
    if wins >= 3:
        _print_pass(
            f"directional replication: annealed best on {wins}/4 functions "
            f"(matrix {matrix['elapsed']:.0f}s)"
        )
        return
    # soft criterion: a miss reports seed sensitivity instead of failing hard
    print(f"SOFT-FAIL directional replication at seed 42: {wins}/4 wins")
    for seed in (43, 44):
        alt = matrix["a"].parent / f"seed_{seed}"
        alt.mkdir(exist_ok=True)
        _run_matrix(alt, seed=seed, runs=9)
        alt_wins = 0
        for function in BEST_ALPHA:
            finals = {s: _final_best(alt, function, s) for s in SCHEMES}
            alt_wins += (
                finals["cauchy_boltzmann"] <= finals["boltzmann_const"]
                and finals["cauchy_boltzmann"] <= finals["proportionate"]
            )
        print(f"  seed {seed} (9 runs): {alt_wins}/4 wins")


def test_determinism_byte_identical(matrix):
    files_a = sorted(p.name for p in matrix["a"].iterdir())
    files_b = sorted(p.name for p in matrix["b"].iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (matrix["a"] / name).read_bytes() == (matrix["b"] / name).read_bytes(), name
    _print_pass(f"determinism: {len(files_a)} CSV files byte-identical across passes")
