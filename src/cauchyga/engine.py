"""Binary-encoded generational GA with pluggable selection.

A population is three row-aligned arrays: the bit matrix, the raw
objective values and the fitness values. One generation is: selection
(roulette with replacement under the configured scheme, drawn as row
indices) -> random pairing -> uniform crossover -> per-bit mutation ->
evaluation. The realized selection strength of a generation is the L1
distance between the population's NFD before selection and the NFD of the
selected parent pool.

Every random decision of a run comes from one numpy PCG64 generator seeded
from (master_seed, run_index), so replays are bit-identical and distinct
runs are independent streams. The draws come in a fixed order: the initial
bit matrix, then per generation the roulette draw, the pairing
permutation, per pair one crossover uniform followed by its swap mask when
the pair crosses, the odd leftover's partner and crossover, and one
mutation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annealing import AnnealingSchedule, constant_schedule, gamma_at
from .benchmarks import ObjectiveSpec, evaluate_raw_batch, to_fitness_batch
from .nfd import NFD, distance, fitness_distribution_from_values, normalize

GENERATOR_NAME = "numpy-PCG64"
SEED_STRIDE = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF

PROPORTIONATE = "proportionate"
BOLTZMANN_CONST = "boltzmann_const"
CAUCHY_BOLTZMANN = "cauchy_boltzmann"
SELECTION_SCHEMES = (PROPORTIONATE, BOLTZMANN_CONST, CAUCHY_BOLTZMANN)


@dataclass(frozen=True, eq=False)
class Population:
    """One generation as row-aligned arrays; row i is individual i.

    ``raw`` and ``fitness`` are exactly what decode / evaluate / fitness
    mapping produce for ``bits``; recomputing them reproduces the stored
    values bit-for-bit.
    """

    bits: np.ndarray  # (n, dims * bits_per_var) uint8 values in {0, 1}
    raw: np.ndarray  # (n,) raw objective values
    fitness: np.ndarray  # (n,) fitness values in [0, 1]

    def __len__(self) -> int:
        return len(self.raw)


@dataclass
class GaConfig:
    """Full parameterization of a multi-run GA experiment."""

    objective: ObjectiveSpec
    selection: str
    schedule: AnnealingSchedule = field(default_factory=lambda: constant_schedule(0.0))
    pop_size: int = 150
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob_per_bit: float = 0.01
    runs: int = 17
    master_seed: int = 42
    elitism: bool = False
    bits_per_var: int = 5

    def __post_init__(self) -> None:
        if self.selection not in SELECTION_SCHEMES:
            raise ValueError(f"unknown selection scheme: {self.selection!r}")
        if self.pop_size < 1:
            raise ValueError("pop_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob_per_bit <= 0.1:
            raise ValueError("mutation_prob_per_bit must be in [0, 0.1]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.bits_per_var < 1:
            raise ValueError("bits_per_var must be >= 1")

    @property
    def genome_length(self) -> int:
        return self.objective.dims * self.bits_per_var


@dataclass(frozen=True)
class GenerationRecord:
    """Aggregated view of one generation of one run."""

    generation: int
    gamma: float
    best_so_far_raw: float
    gen_best_raw: float
    mean_raw: float
    strength: float


@dataclass(frozen=True)
class RunSeries:
    """Per-generation records of a single run, in generation order."""

    run_index: int
    seed: int
    records: tuple[GenerationRecord, ...]


@dataclass(frozen=True, eq=False)
class AggregatedSeries:
    """Mean/std across runs of the per-generation quantities.

    Standard deviations are population-style (ddof=0), so a single run
    aggregates with zero spread.
    """

    runs: int
    generations: np.ndarray
    gamma: np.ndarray
    best_mean: np.ndarray
    best_std: np.ndarray
    mean_mean: np.ndarray
    mean_std: np.ndarray
    strength_mean: np.ndarray
    strength_std: np.ndarray


def decode_batch(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> np.ndarray:
    """Decode a (n, dims * bits_per_var) bit matrix into (n, dims) points.

    Each gene slice is read big-endian as an unsigned integer v and mapped
    linearly so v = 0 hits the lower bound and v = 2**bits_per_var - 1 hits
    the upper bound exactly.
    """
    n = bits.shape[0]
    if bits.shape[1] != spec.dims * bits_per_var:
        raise ValueError(
            f"genome length {bits.shape[1]} != dims*bits_per_var "
            f"{spec.dims * bits_per_var}"
        )
    weights = 2 ** np.arange(bits_per_var - 1, -1, -1, dtype=np.float64)
    v = bits.reshape(n, spec.dims, bits_per_var).astype(np.float64) @ weights
    denom = float(2**bits_per_var - 1)
    return spec.lower + v / denom * (spec.upper - spec.lower)


def make_population(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> Population:
    """Decode, evaluate and map to fitness every row of a bit matrix.

    The population holds ``bits`` itself, not a copy.
    """
    raw = evaluate_raw_batch(spec, decode_batch(bits, spec, bits_per_var))
    return Population(bits=bits, raw=raw, fitness=to_fitness_batch(spec, raw))


def population_nfd(fitness: np.ndarray) -> NFD:
    """NFD of a population's fitness values."""
    return normalize(fitness_distribution_from_values(np.asarray(fitness).tolist()))


def selection_probabilities(
    fitness: np.ndarray, selection: str, gamma_n: float
) -> np.ndarray:
    """Categorical selection distribution over a population's fitness values.

    Proportionate weighs each individual by fitness; either Boltzmann
    scheme weighs by exp(gamma_n * fitness), computed with a max-fitness
    shift so large gamma_n cannot overflow. The shift cancels in the
    normalization, which also makes the probabilities invariant under a
    common additive fitness offset.

    Raises:
        ValueError: On an empty population, an unknown scheme, a negative
            gamma_n, or all-zero fitness under proportionate selection.
    """
    fits = np.asarray(fitness, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("empty population")
    if selection == PROPORTIONATE:
        total = fits.sum()
        if total <= 0.0:
            raise ValueError("degenerate population")
        return fits / total
    if selection in (BOLTZMANN_CONST, CAUCHY_BOLTZMANN):
        if gamma_n < 0.0:
            raise ValueError("inverse temperature must be nonnegative")
        w = np.exp(gamma_n * (fits - fits.max()))
        return w / w.sum()
    raise ValueError(f"unknown selection scheme: {selection!r}")


def select_parents(
    fitness: np.ndarray,
    selection: str,
    gamma_n: float,
    rng: np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Indices of parents drawn i.i.d. with replacement by roulette.

    Multinomial roulette: ``count`` draws (population size by default) from
    the categorical distribution of :func:`selection_probabilities`.
    """
    p = selection_probabilities(fitness, selection, gamma_n)
    k = len(p) if count is None else count
    return rng.choice(len(p), size=k, replace=True, p=p)


def uniform_crossover(
    a: np.ndarray, b: np.ndarray, crossover_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover of row-aligned parent matrices, row i with row i.

    Each pair crosses with probability crossover_prob, and then every bit
    position independently swaps between the pair with probability 1/2;
    otherwise both parents pass through unchanged. Per position the
    children's bit pair is always a permutation of the parents' pair.
    Pairs draw in row order: one uniform, then the swap mask only when
    the pair crosses.

    Raises:
        ValueError: On parent matrices of different shapes.
    """
    if a.shape != b.shape:
        raise ValueError(f"genome length mismatch: {a.shape} vs {b.shape}")
    swap = np.zeros(a.shape, dtype=bool)
    for i in range(a.shape[0]):
        if rng.random() < crossover_prob:
            swap[i] = rng.random(a.shape[1]) < 0.5
    return np.where(swap, b, a), np.where(swap, a, b)


def mutate(
    bits: np.ndarray, mutation_prob_per_bit: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip each bit independently with the given probability.

    The flip mask is one draw of the matrix's shape, which fills row by row:
    the same doubles as one mask per row drawn in turn.
    """
    if not 0.0 <= mutation_prob_per_bit <= 1.0:
        raise ValueError("mutation probability must be in [0, 1]")
    return bits ^ (rng.random(bits.shape) < mutation_prob_per_bit)


def step_generation(
    population: Population,
    config: GaConfig,
    generation_index: int,
    rng: np.random.Generator,
    best_so_far: float = np.inf,
) -> tuple[Population, GenerationRecord]:
    """Advance one generation and report its record.

    ``best_so_far`` is the running minimum raw objective entering the
    generation; the returned record folds in the new population. The
    generation's gamma is taken from the schedule at ``generation_index``
    (constant schedules just return their fixed value); proportionate
    selection records gamma as 0.

    The crossover pairing walks a fresh random permutation of the selected
    pool two at a time. With an odd pool the leftover is paired against a
    random earlier parent and only the leftover-side child is kept. With
    elitism the best parent (first on ties) replaces the worst child
    (first on ties).
    """
    n = config.pop_size
    if len(population) != n:
        raise ValueError("population size does not match config")

    if config.selection == PROPORTIONATE:
        gamma_n = 0.0
    else:
        gamma_n = gamma_at(config.schedule, generation_index)

    chosen = select_parents(population.fitness, config.selection, gamma_n, rng)
    strength = distance(
        population_nfd(population.fitness), population_nfd(population.fitness[chosen])
    )

    pool = population.bits[chosen[rng.permutation(n)]]
    pairs = n - n % 2
    children = np.empty_like(pool)
    children[0:pairs:2], children[1:pairs:2] = uniform_crossover(
        pool[0:pairs:2], pool[1:pairs:2], config.crossover_prob, rng
    )
    if n % 2 == 1:
        partner = int(rng.integers(0, n - 1))
        children[-1:], _ = uniform_crossover(
            pool[-1:], pool[partner : partner + 1], config.crossover_prob, rng
        )

    bits = mutate(children, config.mutation_prob_per_bit, rng)
    nxt = make_population(bits, config.objective, config.bits_per_var)

    if config.elitism:
        worst, best = int(np.argmax(nxt.raw)), int(np.argmin(population.raw))
        nxt.bits[worst] = population.bits[best]
        nxt.raw[worst] = population.raw[best]
        nxt.fitness[worst] = population.fitness[best]

    gen_best = float(nxt.raw.min())
    record = GenerationRecord(
        generation=generation_index,
        gamma=gamma_n,
        best_so_far_raw=min(best_so_far, gen_best),
        gen_best_raw=gen_best,
        mean_raw=float(nxt.raw.mean()),
        strength=strength,
    )
    return nxt, record


def run_seed(master_seed: int, run_index: int) -> int:
    """64-bit stream seed for one run."""
    return (master_seed ^ (run_index * SEED_STRIDE)) & _U64


def run(config: GaConfig, run_index: int) -> RunSeries:
    """Execute one full GA run, deterministic in (master_seed, run_index)."""
    seed = run_seed(config.master_seed, run_index)
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(
        0, 2, size=(config.pop_size, config.genome_length), dtype=np.uint8
    )
    population = make_population(bits, config.objective, config.bits_per_var)
    best = float(population.raw.min())

    records: list[GenerationRecord] = []
    for gen in range(1, config.generations + 1):
        population, record = step_generation(population, config, gen, rng, best)
        best = record.best_so_far_raw
        records.append(record)
    return RunSeries(run_index=run_index, seed=seed, records=tuple(records))


def aggregate(series: list[RunSeries]) -> AggregatedSeries:
    """Combine runs into per-generation mean/std, ordered by run_index.

    The combination is order-independent: series are sorted by run index
    before stacking, so any execution order yields identical output.
    """
    if not series:
        raise ValueError("no runs to aggregate")
    ordered = sorted(series, key=lambda s: s.run_index)
    n_gen = len(ordered[0].records)
    for s in ordered:
        if len(s.records) != n_gen:
            raise ValueError("runs have differing generation counts")

    def stack(attr: str) -> np.ndarray:
        return np.array(
            [[getattr(r, attr) for r in s.records] for s in ordered]
        )

    best = stack("best_so_far_raw")
    mean = stack("mean_raw")
    strength = stack("strength")
    return AggregatedSeries(
        runs=len(ordered),
        generations=np.arange(1, n_gen + 1),
        gamma=np.array([r.gamma for r in ordered[0].records]),
        best_mean=best.mean(axis=0),
        best_std=best.std(axis=0),
        mean_mean=mean.mean(axis=0),
        mean_std=mean.std(axis=0),
        strength_mean=strength.mean(axis=0),
        strength_std=strength.std(axis=0),
    )


def multi_run(config: GaConfig) -> AggregatedSeries:
    """Run the configured number of independent runs and aggregate them."""
    return aggregate([run(config, i) for i in range(config.runs)])
