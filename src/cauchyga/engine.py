"""Binary-encoded generational GA with proportionate or Boltzmann selection.

A population is three row-aligned arrays: the bit matrix, the raw
objective values and the fitness values. ``GaConfig.schedule`` is the
selection scheme: None is proportionate, a schedule is Boltzmann at its
gamma_n. One generation is: roulette selection with replacement (row
indices) -> random pairing -> uniform crossover -> per-bit mutation ->
evaluation. The realized selection strength of a generation is the L1
distance between the population's NFD before selection and the NFD of the
selected parent pool; both are counted on the fitness array
(:func:`realized_strength`), with no NFD objects built.

A genome decodes onto a fixed lattice of 2**bits_per_var levels per
variable (bits_per_var in [1, 16]). The lattice points and the objective's
elementwise terms at them are computed once per (objective, bits_per_var)
and cached (terms up to 2**20 table entries, levels x dims); a generation
gathers its genomes' terms from those tables and reduces them row by row,
the same values as evaluating the decoded points. Each gene's index in
the flat tables comes from one float32 matrix-vector product, exact
because every partial sum is an integer below the 2**20 table limit and
float32 holds every integer up to 2**24.

Every random decision of a run comes from one numpy PCG64 generator seeded
from (master_seed, run_index), so replays are bit-identical and distinct
runs are independent streams. The draws come in a fixed order, numbered
by ``STREAM_VERSION``: the initial bit matrix, then per generation the
roulette doubles (one per parent, looked up in the cumulative
probabilities as ``Generator.choice`` does), the pairing permutation, the
crossover decisions (one double per pair), the swap-mask bytes (ceil(L /
8) per pair), the odd leftover's partner index followed by its own
decision and mask bytes, the mutation flip count and the flip positions.

:func:`aggregate` reduces a stack of runs to one series table, a row per
generation under the columns ``SERIES_COLUMNS`` names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annealing import AnnealingSchedule, gamma_at
from .benchmarks import (
    ObjectiveSpec, _check_box, _reduce, _terms, evaluate_raw_batch, to_fitness_batch,
)
# engine.distance stays importable: callers and bench/test_bench.py look it up here
from .nfd import NFD, distance
from .selection import _check_gamma

GENERATOR_NAME = "numpy-PCG64"
STREAM_VERSION = 2  # the draw order of the module docstring; bumped when it changes
SEED_STRIDE = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
MAX_BITS_PER_VAR = 16  # a lattice table has at most 2**16 rows
_MAX_TABLE = 1 << 20  # entries (levels * dims) per cached term table: 8 MB

# a series CSV's columns: the generation number, then aggregate's table
SERIES_COLUMNS = (
    "generation",
    "gamma_n",
    "best_raw_mean",
    "best_raw_std",
    "mean_raw_mean",
    "mean_raw_std",
    "strength_mean",
)


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


@dataclass(frozen=True)
class GaConfig:
    """Full parameterization of a multi-run GA experiment."""

    objective: ObjectiveSpec
    schedule: AnnealingSchedule | None = None  # None: proportionate selection
    pop_size: int = 150
    generations: int = 100
    crossover_prob: float = 0.8
    mutation_prob_per_bit: float = 0.01
    runs: int = 17
    master_seed: int = 42
    elitism: bool = False
    bits_per_var: int = 5

    def __post_init__(self) -> None:
        if not (self.schedule is None or isinstance(self.schedule, AnnealingSchedule)):
            raise ValueError("schedule must be None or an AnnealingSchedule")
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob_per_bit <= 0.1:
            raise ValueError("mutation_prob_per_bit must be in [0, 0.1]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 1 <= self.bits_per_var <= MAX_BITS_PER_VAR:
            raise ValueError(f"bits_per_var must be in [1, {MAX_BITS_PER_VAR}]")

    @property
    def genome_length(self) -> int:
        return self.objective.dims * self.bits_per_var


class GenerationRecord(NamedTuple):
    """One generation of one run; a row of the array :func:`run` returns."""

    gamma: float
    best_so_far_raw: float
    gen_best_raw: float
    mean_raw: float
    strength: float


def _gene_slices(bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int) -> np.ndarray:
    """The (n * dims, bits_per_var) view of a bit matrix, one gene per row."""
    if bits.shape[1] != spec.dims * bits_per_var:
        raise ValueError(
            f"genome length {bits.shape[1]} != dims*bits_per_var "
            f"{spec.dims * bits_per_var}"
        )
    return bits.reshape(-1, bits_per_var)


@functools.lru_cache(maxsize=8)
def _index_weights(dims: int, bits_per_var: int) -> tuple[np.ndarray, np.ndarray]:
    """Float32 big-endian gene weights times ``dims``, and the column offsets."""
    weights = (dims << np.arange(bits_per_var - 1, -1, -1)).astype(np.float32)
    offsets = np.arange(dims, dtype=np.float32)
    weights.flags.writeable = offsets.flags.writeable = False
    return weights, offsets


def _table_index(bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int) -> np.ndarray:
    """Index of every gene in the flat (levels, dims) term tables, (n, dims).

    The index is level * dims + column: one float32 matrix-vector product
    of the gene slices against big-endian weights times dims, plus the
    column. It is exact whatever order the product sums in, as long as the
    tables fit ``_MAX_TABLE``: every term and partial sum is then an
    integer below 2**20, and float32 holds every integer up to 2**24.
    """
    weights, offsets = _index_weights(spec.dims, bits_per_var)
    slices = _gene_slices(bits, spec, bits_per_var).astype(np.float32)
    flat = slices.dot(weights).reshape(-1, spec.dims)
    flat += offsets
    return flat.astype(np.intp)


@functools.lru_cache(maxsize=8)
def _lattice(
    spec: ObjectiveSpec, bits_per_var: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """The lattice points and the flat (levels, dims) objective-term tables.

    Level v sits at lower + v / (levels - 1) * (upper - lower), so v = 0
    hits the lower bound and v = levels - 1 the upper bound exactly. The
    terms are the objective's elementwise terms on the (levels, dims) grid
    of those points; None when the grid has more than ``_MAX_TABLE``
    entries.
    """
    if not 1 <= bits_per_var <= MAX_BITS_PER_VAR:
        raise ValueError(f"bits_per_var must be in [1, {MAX_BITS_PER_VAR}]")
    levels = 2**bits_per_var
    v = np.arange(levels, dtype=np.float64)
    points = spec.lower + v / float(levels - 1) * (spec.upper - spec.lower)
    _check_box(spec, points)
    points.flags.writeable = False
    if levels * spec.dims > _MAX_TABLE:
        return points, None
    terms = _terms(spec, np.repeat(points[:, None], spec.dims, axis=1))
    for table in terms:
        table.flags.writeable = False
    return points, tuple(t.ravel() for t in terms)


def decode_batch(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> np.ndarray:
    """Decode a (n, dims * bits_per_var) bit matrix into (n, dims) points.

    Each gene slice is read big-endian as an unsigned integer v and mapped
    linearly so v = 0 hits the lower bound and v = 2**bits_per_var - 1 hits
    the upper bound exactly (a gather from the cached lattice points).

    Raises:
        ValueError: On a genome length other than dims * bits_per_var,
            bits_per_var outside [1, 16], or a bit other than 0 or 1.
    """
    points, _ = _lattice(spec, bits_per_var)
    bits = np.asarray(bits)
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    weights = 1 << np.arange(bits_per_var - 1, -1, -1, dtype=np.intp)
    levels = _gene_slices(bits, spec, bits_per_var) @ weights
    return points[levels.reshape(-1, spec.dims)]


def make_population(
    bits: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> Population:
    """Decode, evaluate and map to fitness every row of a bit matrix.

    The raw values are bit for bit ``evaluate_raw_batch(spec,
    decode_batch(bits, ...))``, and past the table size limit they are
    computed that way. Otherwise the terms of each row are gathered from
    the cached lattice tables, the genes read as float32 table indices
    (:func:`_table_index`), and reduced row by row. The population holds
    ``bits`` itself, not a copy.
    """
    _, tables = _lattice(spec, bits_per_var)
    if tables is None:
        raw = evaluate_raw_batch(spec, decode_batch(bits, spec, bits_per_var))
    else:
        index = _table_index(bits, spec, bits_per_var)
        raw = _reduce(spec, tuple(t[index] for t in tables))
    return Population(bits=bits, raw=raw, fitness=to_fitness_batch(spec, raw))


def population_nfd(fitness: np.ndarray) -> NFD:
    """NFD of a population's fitness values."""
    return NFD.from_values(np.asarray(fitness).tolist())


def realized_strength(fitness: np.ndarray, chosen: np.ndarray) -> float:
    """L1 distance between the NFDs of ``fitness`` and of ``fitness[chosen]``.

    That is the distance to the drawn pool, which is positive even with no
    selection: n uniform draws from n distinct values give 2 * (1 - 1/n)**n
    on average, about 0.733 at n = 150. Bit-identical to
    ``distance(population_nfd(fitness), population_nfd(fitness[chosen]))``,
    counted on arrays instead (the distinct values come from one sort and a
    neighbour comparison): every mass is the same correctly rounded count /
    size, and ``fsum`` is exactly rounded, so neither term order nor zero
    terms change the sum. As with the NFDs, 0.0 and -0.0 count as one
    fitness value.

    Raises:
        ValueError: On an empty population or selection, or a negative or
            non-finite fitness value.
    """
    fits = np.asarray(fitness, dtype=np.float64)
    picks = np.asarray(chosen)
    if fits.size == 0 or picks.size == 0:
        raise ValueError("empty population")
    order = fits.argsort(kind="stable")
    ordered = fits[order]
    # sorted, so the two ends decide; NaN sorts last and fails either test
    if not (ordered[0] >= 0.0 and ordered[-1] < math.inf):
        negative = fits[fits < 0.0]
        if negative.size:
            raise ValueError(f"negative fitness: {float(negative[0])}")
        raise ValueError(f"non-finite fitness: {float(fits[~np.isfinite(fits)][0])}")
    new_value = np.empty(fits.size, dtype=bool)
    new_value[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    rank = new_value.cumsum() - 1  # distinct-value index of each sorted entry
    inverse = np.empty_like(rank)
    inverse[order] = rank
    values = int(rank[-1]) + 1
    before = np.bincount(inverse, minlength=values) / fits.size
    after = np.bincount(inverse[picks], minlength=values) / picks.size
    return math.fsum(np.abs(before - after).tolist())


def selection_probabilities(fitness: np.ndarray, gamma_n: float | None) -> np.ndarray:
    """Categorical selection distribution over a population's fitness values.

    With ``gamma_n`` None (proportionate selection) each individual weighs
    its fitness; otherwise (Boltzmann selection) it weighs exp(gamma_n *
    fitness), computed with a max-fitness shift so large gamma_n cannot
    overflow. The shift cancels in the normalization, which also makes the
    Boltzmann probabilities invariant under a common additive fitness
    offset.

    Raises:
        ValueError: On an empty population, a negative or non-finite
            gamma_n, or all-zero fitness under proportionate selection.
    """
    fits = np.asarray(fitness, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("empty population")
    if gamma_n is None:
        total = fits.sum()
        if total <= 0.0:
            raise ValueError("degenerate population")
        return fits / total
    _check_gamma(gamma_n)
    w = np.exp(gamma_n * (fits - fits.max()))
    return w / w.sum()


def select_parents(
    fitness: np.ndarray,
    gamma_n: float | None,
    rng: np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Indices of parents drawn i.i.d. with replacement by roulette.

    Multinomial roulette: ``count`` draws (population size by default) from
    the categorical distribution of :func:`selection_probabilities`. Each
    draw is one double looked up in the normalized cumulative sums, the
    algorithm of ``rng.choice(len(p), count, p=p)``: the same doubles drawn
    and the same indices.

    Raises:
        ValueError: As :func:`selection_probabilities`, or if a probability
            is negative or their sum is not finite and positive.
    """
    p = selection_probabilities(fitness, gamma_n)
    k = len(p) if count is None else count
    cdf = p.cumsum()
    total = float(cdf[-1])
    if not (math.isfinite(total) and total > 0.0) or p.min() < 0.0:
        raise ValueError(
            "selection probabilities must be nonnegative with a finite positive sum"
        )
    cdf /= total
    return cdf.searchsorted(rng.random(k), side="right")


def uniform_crossover(
    a: np.ndarray, b: np.ndarray, crossover_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover of row-aligned integer (bit) matrices, row i with row i.

    Each pair crosses with probability crossover_prob, and then every bit
    position independently swaps between the pair with probability 1/2;
    otherwise both parents pass through unchanged. Per position the
    children's bit pair is always a permutation of the parents' pair.
    The draws are one double per pair (the pair crosses when it is below
    crossover_prob), then a swap mask for every pair, crossing or not:
    ceil(L / 8) random bytes per row, unpacked to exact fair bits.

    Raises:
        ValueError: On parent matrices of different shapes.
    """
    if a.shape != b.shape:
        raise ValueError(f"genome length mismatch: {a.shape} vs {b.shape}")
    n, length = a.shape
    crosses = rng.random(n) < crossover_prob
    mask = rng.integers(0, 256, (n, (length + 7) // 8), dtype=np.uint8)
    mask[~crosses] = 0
    diff = (a ^ b) * np.unpackbits(mask, axis=1, count=length)
    return a ^ diff, b ^ diff


def mutate(
    bits: np.ndarray, mutation_prob_per_bit: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip each bit independently with the given probability.

    Draws the flip count k ~ Binomial(bits.size, p), then k distinct flat
    positions uniformly without replacement, and flips those in a copy:
    exactly the law of one Bernoulli(p) draw per bit. ``bits`` itself is
    not modified.
    """
    if not 0.0 <= mutation_prob_per_bit <= 1.0:
        raise ValueError("mutation probability must be in [0, 1]")
    out = bits.copy()
    count = rng.binomial(bits.size, mutation_prob_per_bit)
    out.reshape(-1)[rng.choice(bits.size, count, replace=False)] ^= 1
    return out


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
    (a constant schedule is the alpha = inf one, whose gamma_n is g0);
    proportionate selection, which has no schedule, records gamma as 0.

    The crossover pairing walks a fresh random permutation of the selected
    pool two at a time. With an odd pool the leftover is paired against a
    random earlier parent and only the leftover-side child is kept. With
    elitism the best parent (first on ties) replaces the worst child
    (first on ties).
    """
    n = config.pop_size
    if len(population) != n:
        raise ValueError("population size does not match config")

    schedule = config.schedule
    gamma_n = None if schedule is None else gamma_at(schedule, generation_index)
    chosen = select_parents(population.fitness, gamma_n, rng)
    strength = realized_strength(population.fitness, chosen)

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
        worst, best = int(nxt.raw.argmax()), int(population.raw.argmin())
        nxt.bits[worst] = population.bits[best]
        nxt.raw[worst] = population.raw[best]
        nxt.fitness[worst] = population.fitness[best]

    gen_best = float(nxt.raw.min())
    record = GenerationRecord(
        gamma=0.0 if gamma_n is None else gamma_n,
        best_so_far_raw=min(best_so_far, gen_best),
        gen_best_raw=gen_best,
        mean_raw=float(nxt.raw.mean()),
        strength=strength,
    )
    return nxt, record


def run_seed(master_seed: int, run_index: int) -> int:
    """64-bit stream seed for one run."""
    return (master_seed ^ (run_index * SEED_STRIDE)) & _U64


def run(config: GaConfig, run_index: int) -> np.ndarray:
    """Execute one full GA run, deterministic in (master_seed, run_index).

    Returns a (generations, 5) float64 array; row g - 1 holds the
    :class:`GenerationRecord` of generation g.
    """
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
    return np.array(records, dtype=np.float64)


def aggregate(stack: np.ndarray) -> np.ndarray:
    """The series table of a (runs, generations, 5) stack of runs.

    ``stack[i]`` is :func:`run`'s array for one run. Returns a (generations,
    6) float64 array whose columns are ``SERIES_COLUMNS[1:]``: run 0's gamma
    (a mean of equal doubles need not round back to the same double), then
    the mean and std across runs of the best-so-far raw value and of the
    mean raw value, and the mean strength. Standard deviations are
    population-style (ddof=0), so a single run has zero spread. Each
    quantity is reduced as its own view, so at one generation numpy sums
    the runs pairwise, as for a contiguous column; a reduction of the whole
    stack adds them in order and can round differently.
    """
    gamma, best, _, mean, strength = np.moveaxis(stack, -1, 0)
    return np.column_stack((gamma[0], best.mean(axis=0), best.std(axis=0),
                            mean.mean(axis=0), mean.std(axis=0), strength.mean(axis=0)))


def multi_run(config: GaConfig) -> np.ndarray:
    """Run the configured number of independent runs; their series table."""
    return aggregate(np.stack([run(config, i) for i in range(config.runs)]))
