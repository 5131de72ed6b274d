"""A/B timing of the engine's one-row fast paths against the stacked path alone.

    PYTHONPATH=src python3 scripts/fast_paths_ab.py --rounds 10 --passes 30

``engine.selection_probabilities``, ``engine.select_parents`` and
``engine.step_generation`` each take a cheaper path when the stack holds
one run. The ``unified`` variant replaces the three functions, in this
process only, by copies without that fork, so a one-run stack goes through
the (runs, n) path too; ``fork`` is the engine as it is. Each round runs
both variants in fresh processes, alternating which goes first. A process
checks that its series tables equal the engine's own, then times one pass
of the 12-experiment grid (every function and scheme of ``cli``) with
``engine.multi_run`` at the given size, and reports the best of
``--passes`` passes. The summary gives each variant's median and range
across rounds, the unified/fork ratio per round, and its median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from cauchyga import cli, engine


def unified_selection_probabilities(fitness, gamma_n):
    fits = np.asarray(fitness, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("empty population")
    if gamma_n is None:
        w = fits
    else:
        engine._check_gamma(gamma_n)
        w = np.exp(gamma_n * (fits - fits.max(axis=-1, keepdims=True)))
    total = w.sum(axis=-1, keepdims=True)
    if total.min() <= 0.0:
        raise ValueError("degenerate population")
    if not (w.min() >= 0.0 and total.max() < math.inf):
        raise ValueError("selection probabilities must be nonnegative with a finite positive sum")
    return w / total


def unified_select_parents(fitness, gamma_n, draws):
    p = engine.selection_probabilities(fitness, gamma_n)
    draws = np.asarray(draws)
    if draws.shape[:-1] != p.shape[:-1]:
        raise ValueError("roulette draws do not fit the populations")
    if draws.size and not (draws.min() >= 0.0 and draws.max() < 1.0):
        raise ValueError("roulette draws must be in [0, 1)")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return np.array([c.searchsorted(u, side="right") for c, u in zip(cdf, draws)])


def unified_step_generation(population, config, gamma_n, draws):
    runs, n = population.raw.shape
    if n != config.pop_size:
        raise ValueError("population size does not match config")
    dims = population.genes.shape[-1]
    roulette, crosses, masks, flips = draws
    chosen = engine.select_parents(population.fitness, gamma_n, roulette)
    rows = chosen + np.arange(0, runs * n, n)[:, None]
    pool = population.genes.reshape(runs * n, dims)[rows]
    a, b = pool[:, : (n + 1) // 2], pool[:, (n + 1) // 2 :]
    a[...], b[...] = engine.uniform_crossover(a, b, config.crossover_prob, crosses, masks)
    genes = engine.mutate(pool[:, :n], flips)
    nxt = engine.make_population(genes, config.objective, config.bits_per_var)
    if config.elitism:
        each = np.arange(runs)
        worst, best = nxt.raw.argmax(axis=1), population.raw.argmin(axis=1)
        nxt.genes[each, worst] = population.genes[each, best]
        nxt.raw[each, worst] = population.raw[each, best]
        nxt.fitness[each, worst] = population.fitness[each, best]
    return nxt, chosen[:, :n]


def grid(pop_size: int, generations: int, runs: int) -> list[engine.GaConfig]:
    """The GaConfigs of the 12-experiment grid at the given size."""
    return [
        cli.build_ga_config(cli.CliConfig(
            function=function, selection=scheme, pop_size=pop_size,
            generations=generations, runs=runs,
        ))[0]
        for function in cli.FUNCTION_NAMES
        for scheme in cli.SELECTION_SCHEMES
    ]


def time_variant(args) -> float:
    """Best time of one grid pass in this process, after checking the tables."""
    configs = grid(args.pop, args.generations, args.runs)
    expected = [engine.multi_run(cfg) for cfg in configs]
    if args.variant == "unified":
        engine.selection_probabilities = unified_selection_probabilities
        engine.select_parents = unified_select_parents
        engine.step_generation = unified_step_generation
    for cfg, table in zip(configs, expected):
        if not np.array_equal(engine.multi_run(cfg), table):
            raise SystemExit(f"{args.variant}: series table differs on {cfg.objective.name}")
    best = math.inf
    for _ in range(args.passes):
        t0 = time.perf_counter()
        for cfg in configs:
            engine.multi_run(cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", choices=("fork", "unified"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=30)
    parser.add_argument("--pop", type=int, default=30)
    parser.add_argument("--generations", type=int, default=10)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    if args.variant:
        print(json.dumps(time_variant(args)))
        return

    size = ["--passes", str(args.passes), "--pop", str(args.pop),
            "--generations", str(args.generations), "--runs", str(args.runs)]
    times = {"fork": [], "unified": []}
    for r in range(args.rounds):
        order = ("fork", "unified") if r % 2 == 0 else ("unified", "fork")
        for variant in order:
            out = subprocess.run([sys.executable, __file__, "--variant", variant, *size],
                                 check=True, capture_output=True, text=True).stdout
            times[variant].append(json.loads(out))
        print(f"round {r + 1}: fork {times['fork'][-1] * 1e3:.2f} ms, "
              f"unified {times['unified'][-1] * 1e3:.2f} ms")
    ratios = [u / f for f, u in zip(times["fork"], times["unified"])]
    print(f"machine: {platform.machine()}, {os.cpu_count()} CPUs, "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    for variant, ts in times.items():
        print(f"{variant}: median {statistics.median(ts) * 1e3:.2f} ms, "
              f"range {min(ts) * 1e3:.2f}-{max(ts) * 1e3:.2f} ms")
    slower = sum(r > 1.0 for r in ratios)
    print(f"unified/fork: median {statistics.median(ratios):.3f}, "
          f"range {min(ratios):.3f}-{max(ratios):.3f}, unified slower in "
          f"{slower} of {len(ratios)} rounds")


if __name__ == "__main__":
    main()
