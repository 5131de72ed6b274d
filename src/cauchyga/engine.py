"""Binary-encoded generational GA with proportionate or Boltzmann selection.

A population is three row-aligned arrays: the bit matrix, the raw
objective values and the fitness values. ``GaConfig.schedule`` is the
selection scheme: None is proportionate, a schedule is Boltzmann at its
gamma_n. One generation is: roulette selection with replacement (row
indices) -> pairing in draw order -> uniform crossover -> per-bit mutation
-> evaluation. The realized selection strength of a generation is the L1
distance between the population's NFD before selection and the NFD of the
selected parents; both are counted on the fitness array
(:func:`_strengths`), with no NFD objects built.

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
runs are independent streams. Only :func:`_run_stack` turns the
generators into draws, through :func:`_draw_generation`; the operators and
:func:`step_generation` take the draws as arrays. They come in a fixed
order, numbered by ``STREAM_VERSION``: the initial bit matrix, then per
generation, all taken before any of them is used:

1. one call of 3 * ceil(n / 2) doubles: the 2 * ceil(n / 2) roulette
   doubles (one per parent, looked up in the cumulative probabilities as
   ``Generator.choice`` does), then the crossover decisions (one per pair);
2. the swap masks, ceil(L / 64) raw 64-bit words of the bit generator
   (``random_raw``) per pair, whose little-endian bytes unpack to the mask
   bits, the first L of them used;
3. the mutation flip positions, running sums of Geometric(p) gaps
   (:func:`_flip_positions`).

The parent pool is paired in draw order, rows 2i and 2i + 1: the roulette
draws are i.i.d., so no shuffle changes the law of the pairs. With an odd
n the pool holds one parent more than n, and the last pair's second child
is dropped; the realized strength counts the first n parents.

The runs of an experiment step in lockstep: the population of every run
is one stack of arrays with a leading run axis, and each step of a
generation but the draws works on the whole stack at once (only the
roulette lookup and the exactly rounded strength sum go row by row). A
run's draws come from its own generator, and each run's values are
reduced on its own row, so a run's records depend only on (master_seed,
run_index), not on the other runs of the stack.

:func:`aggregate` reduces a stack of runs to one series table, a row per
generation under the columns ``SERIES_COLUMNS`` names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .annealing import AnnealingSchedule, gamma_at
from .benchmarks import (
    ObjectiveSpec, _check_box, _reduce, _terms, evaluate_raw_batch, to_fitness_batch,
)
# engine.distance stays importable: callers and bench/test_bench.py look it up here
from .nfd import NFD, distance
from .selection import _check_gamma

GENERATOR_NAME = "numpy-PCG64"
STREAM_VERSION = 4  # the draw order of the module docstring; bumped when it changes
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

    A stack of runs stepped in lockstep has a leading run axis on all three
    arrays, so the population size is ``raw.shape[-1]`` either way. ``raw``
    and ``fitness`` are exactly what decode / evaluate / fitness mapping
    produce for ``bits``; recomputing them reproduces the stored values
    bit-for-bit.
    """

    bits: np.ndarray  # ([runs,] n, dims * bits_per_var) uint8 values in {0, 1}
    raw: np.ndarray  # ([runs,] n) raw objective values
    fitness: np.ndarray  # ([runs,] n) fitness values in [0, 1]


def _check_bits_per_var(bits_per_var: int) -> None:
    """The one bits_per_var rule: a lattice table has at most 2**16 rows."""
    if not 1 <= bits_per_var <= MAX_BITS_PER_VAR:
        raise ValueError(f"bits_per_var must be in [1, {MAX_BITS_PER_VAR}]")


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
        _check_bits_per_var(self.bits_per_var)

    @property
    def genome_length(self) -> int:
        return self.objective.dims * self.bits_per_var


class GenerationRecord(NamedTuple):
    """One generation of one run; a row of one run's :func:`_run_stack` records."""

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
    _check_bits_per_var(bits_per_var)
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
    """Decode, evaluate and map to fitness every row of a bit matrix or stack.

    The raw values are bit for bit ``evaluate_raw_batch(spec,
    decode_batch(bits, ...))``, and past the table size limit they are
    computed that way. Otherwise the terms of each row are gathered from
    the cached lattice tables, the genes read as float32 table indices
    (:func:`_table_index`), and reduced row by row. The population holds
    ``bits`` itself, not a copy.
    """
    _, tables = _lattice(spec, bits_per_var)
    rows = bits.reshape(-1, bits.shape[-1])  # a stack of runs is evaluated as one matrix
    if tables is None:
        raw = evaluate_raw_batch(spec, decode_batch(rows, spec, bits_per_var))
    else:
        index = _table_index(rows, spec, bits_per_var)
        raw = _reduce(spec, tuple(t[index] for t in tables))
    fitness = to_fitness_batch(spec, raw)
    return Population(bits=bits, raw=raw.reshape(bits.shape[:-1]),
                      fitness=fitness.reshape(bits.shape[:-1]))


def population_nfd(fitness: np.ndarray) -> NFD:
    """NFD of a population's fitness values."""
    return NFD.from_values(np.asarray(fitness).tolist())


def _strengths(fits: np.ndarray, picks: np.ndarray) -> list[float]:
    """The realized strength of each row of a (runs, n) stack, unchecked.

    Row r's is the L1 distance between the NFDs of ``fits[r]`` and of
    ``fits[r][picks[r]]``, bit for bit the dict NFDs' ``distance`` (each
    mass is the same rounded count / size, ``fsum`` is exactly rounded, and
    0.0 and -0.0 are one value). The fitness must be finite and nonnegative,
    as fitness mapping leaves it; one sort and two flat counts serve all rows.
    """
    runs, n = fits.shape
    order = fits.argsort(axis=1, kind="stable")
    if runs > 1:  # row r's entries start at r * n of the flat arrays
        offsets = np.arange(0, runs * n, n)[:, None]
        order, picks = order + offsets, picks + offsets
    order = order.ravel()
    ordered = fits.ravel()[order]
    new_value = np.empty(order.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    new_value[::n] = True  # a row's first entry starts its own values
    # 1-based distinct-value bin of each sorted entry; bin 0 stays empty
    bins = new_value.cumsum()
    drawn = np.bincount(picks.ravel(), minlength=order.size)[order]
    before = np.bincount(bins) / n
    after = np.bincount(bins, weights=drawn) / picks.shape[1]
    gaps = np.abs(before - after).tolist()
    if runs == 1:
        return [math.fsum(gaps)]
    ends = (bins[n - 1 :: n] + 1).tolist()
    return [math.fsum(gaps[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def selection_probabilities(fitness: np.ndarray, gamma_n: float | None) -> np.ndarray:
    """Categorical selection distribution over a population's fitness values.

    With ``gamma_n`` None (proportionate selection) each individual weighs
    its fitness; otherwise (Boltzmann selection) it weighs exp(gamma_n *
    fitness), computed with a max-fitness shift so large gamma_n cannot
    overflow. The shift cancels in the normalization, which also makes the
    Boltzmann probabilities invariant under a common additive fitness
    offset. A (runs, n) stack gives one distribution per row.

    Raises:
        ValueError: On an empty population, a negative or non-finite
            gamma_n, all-zero fitness under proportionate selection, or a
            NaN fitness (a negative one too under proportionate selection).
    """
    fits = np.asarray(fitness, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("empty population")
    # one row, alone or a stack of one, reduces to scalars: numpy's cheapest path
    per_row = {} if fits.size == fits.shape[-1] else {"axis": -1, "keepdims": True}
    if gamma_n is None:
        w = fits
    else:
        _check_gamma(gamma_n)
        w = np.exp(gamma_n * (fits - fits.max(**per_row)))
    total = w.sum(**per_row)
    least, most = (total.min(), total.max()) if per_row else (total, total)
    if least <= 0.0:  # only proportionate: a Boltzmann max weighs 1
        raise ValueError("degenerate population")
    if not (w.min() >= 0.0 and most < math.inf):  # NaN fails both
        raise ValueError(
            "selection probabilities must be nonnegative with a finite positive sum"
        )
    return w / total


def select_parents(
    fitness: np.ndarray, gamma_n: float | None, draws: np.ndarray
) -> np.ndarray:
    """Indices of parents drawn i.i.d. with replacement by roulette.

    Multinomial roulette from the categorical distribution of
    :func:`selection_probabilities`, one parent per double of ``draws``,
    looked up in the normalized cumulative sums: the algorithm of
    ``rng.choice(len(p), k, p=p)``, which gives the same indices from the
    k doubles ``rng.random(k)`` would draw. A (runs, n) stack of
    populations takes a (runs, k) stack of doubles.

    Raises:
        ValueError: As :func:`selection_probabilities`, or on a double
            outside [0, 1).
    """
    p = selection_probabilities(fitness, gamma_n)
    draws = np.asarray(draws)
    if draws.size and not (draws.min() >= 0.0 and draws.max() < 1.0):  # NaN fails
        raise ValueError("roulette draws must be in [0, 1)")
    cdf = p.cumsum(axis=-1)
    if cdf.size == cdf.shape[-1]:  # one population, alone or a stack of one
        cdf /= cdf.flat[-1]
        return cdf.ravel().searchsorted(draws, side="right")
    cdf /= cdf[:, -1:]
    return np.array([c.searchsorted(u, side="right") for c, u in zip(cdf, draws)])


def uniform_crossover(
    a: np.ndarray,
    b: np.ndarray,
    crossover_prob: float,
    decisions: np.ndarray,
    masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover of row-aligned integer (bit) matrices, row i with row i.

    Each pair crosses with probability crossover_prob, and then every bit
    position independently swaps between the pair with probability 1/2;
    otherwise both parents pass through unchanged. Per position the
    children's bit pair is always a permutation of the parents' pair.
    A pair crosses when its double in ``decisions`` is below crossover_prob;
    its swap mask bytes in ``masks``, drawn crossing or not, mark with their
    first L bits (most significant first) the positions that swap. For
    (..., m, L) parent stacks they are (..., m) doubles and (..., m, k)
    bytes, 8 * k >= L.

    Raises:
        ValueError: On parent matrices of different shapes, or masks of
            fewer than L bits.
    """
    if a.shape != b.shape:
        raise ValueError(f"genome length mismatch: {a.shape} vs {b.shape}")
    if masks.shape[-1] * 8 < a.shape[-1]:
        raise ValueError(f"{masks.shape[-1]} mask bytes cannot cover {a.shape[-1]} bits")
    swaps = np.unpackbits(masks, axis=-1, count=a.shape[-1])
    swaps &= (decisions < crossover_prob)[..., None]
    diff = (a ^ b) & swaps
    return a ^ diff, b ^ diff


def _flip_positions(rng: np.random.Generator, size: int, p: float) -> np.ndarray:
    """Ascending positions in [0, size) of a Bernoulli(p) process.

    The gaps between successes of i.i.d. Bernoulli(p) trials are i.i.d.
    Geometric(p) on 1, 2, ..., so the running sums of the gaps, less one,
    are exactly the positions of one Bernoulli(p) draw per position. The
    gaps come in chunks of the mean count plus five standard deviations
    (plus 8), topped up chunk by chunk while their sum falls short of
    ``size``. A gap is capped at size + 1, which ends the process just as
    the longer gap would and keeps the sums small.

    Raises:
        ValueError: On p outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("mutation probability must be in [0, 1]")
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    mean = size * p
    chunk = int(mean + 5.0 * math.sqrt(mean)) + 8
    gaps = np.minimum(rng.geometric(p, chunk), size + 1)
    gaps[0] -= 1  # positions count from 0
    positions = gaps.cumsum()
    while positions[-1] < size:
        more = np.minimum(rng.geometric(p, chunk), size + 1).cumsum()
        positions = np.concatenate((positions, more + positions[-1]))
    return positions[: positions.searchsorted(size)]


def mutate(bits: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Flip the bits at the given flat positions.

    With ``flips`` the positions of a Bernoulli(p) process over the flat
    bits (:func:`_flip_positions`), this is exactly the law of one
    Bernoulli(p) draw per bit. Returns a copy; ``bits`` itself is not
    modified.
    """
    out = bits.copy()
    out.reshape(-1)[flips] ^= 1
    return out


def _draw_generation(
    rngs: Sequence[np.random.Generator], n: int, length: int, mutation_prob: float
) -> tuple[np.ndarray, ...]:
    """Take every draw of one generation, run by run, in stream order.

    A generation's draws do not depend on its data, so each run's come
    from its own generator in one pass: the 3 * pairs doubles in one call,
    the mask words, then the flip positions. Returns, row r for run r: the
    (runs, 2 * pairs) roulette doubles, the (runs, pairs) crossover
    doubles, the (runs, pairs, 8 * ceil(L / 64)) mask bytes and the flat
    flip positions in the (runs, n, L) children.
    """
    runs, pairs, size = len(rngs), (n + 1) // 2, n * length
    doubles = np.empty((runs, 3 * pairs))
    words = np.empty((runs, pairs * ((length + 63) // 64)), dtype="<u8")
    flips = []
    for row, rng in enumerate(rngs):
        rng.random(out=doubles[row])
        words[row] = rng.bit_generator.random_raw(words.shape[1])
        flips.append(_flip_positions(rng, size, mutation_prob))
    if runs > 1:  # run r's bits start at r * n * L of the flat children
        flips = [positions + row * size for row, positions in enumerate(flips)]
    masks = words.view(np.uint8).reshape(runs, pairs, -1)
    return doubles[:, : 2 * pairs], doubles[:, 2 * pairs :], masks, np.concatenate(flips)


def step_generation(
    population: Population,
    config: GaConfig,
    generation_index: int,
    draws: tuple[np.ndarray, ...],
    best_so_far: float | np.ndarray,
) -> tuple[Population, GenerationRecord]:
    """Advance a stack of runs one generation in lockstep; its records.

    ``population`` has a leading run axis, ``draws`` is the generation's
    draws as :func:`_draw_generation` returns them, row r for run r, and
    ``best_so_far`` is each run's running minimum raw objective entering
    the generation. Every field of the returned record is a (runs,) array;
    its best so far folds in the new population. The generation's gamma is
    taken from the schedule at ``generation_index`` (a constant schedule is
    the alpha = inf one, whose gamma_n is g0); proportionate selection,
    which has no schedule, records gamma as 0.

    The crossover pairs the 2 * ceil(n / 2) selected parents in draw
    order, rows 2i and 2i + 1, and the first n children are kept. With
    elitism the best parent (first on ties) replaces the worst child
    (first on ties).
    """
    runs, n = population.raw.shape
    if n != config.pop_size:
        raise ValueError("population size does not match config")
    length = population.bits.shape[-1]
    roulette, crosses, masks, flips = draws

    schedule = config.schedule
    gamma_n = None if schedule is None else gamma_at(schedule, generation_index)
    chosen = select_parents(population.fitness, gamma_n, roulette)
    # fitness mapping has checked the values _strengths reads
    strength = np.array(_strengths(population.fitness, chosen[:, :n]))

    if runs > 1:  # run r's rows start at r * n of the flat population
        chosen = chosen + np.arange(0, runs * n, n)[:, None]
    pool = population.bits.reshape(runs * n, length)[chosen.reshape(runs, -1, 2)]
    pool[:, :, 0], pool[:, :, 1] = uniform_crossover(
        pool[:, :, 0], pool[:, :, 1], config.crossover_prob, crosses, masks
    )
    children = pool.reshape(runs, -1, length)[:, :n]
    bits = mutate(children, flips)
    nxt = make_population(bits, config.objective, config.bits_per_var)

    if config.elitism:
        each = np.arange(runs)
        worst, best = nxt.raw.argmax(axis=1), population.raw.argmin(axis=1)
        nxt.bits[each, worst] = population.bits[each, best]
        nxt.raw[each, worst] = population.raw[each, best]
        nxt.fitness[each, worst] = population.fitness[each, best]

    gen_best = nxt.raw.min(axis=1)
    record = GenerationRecord(
        gamma=np.full(runs, 0.0 if gamma_n is None else gamma_n),
        best_so_far_raw=np.minimum(best_so_far, gen_best),
        gen_best_raw=gen_best,
        mean_raw=nxt.raw.sum(axis=1) / n,  # what mean(axis=1) computes
        strength=strength,
    )
    return nxt, record


def run_seed(master_seed: int, run_index: int) -> int:
    """64-bit stream seed for one run."""
    return (master_seed ^ (run_index * SEED_STRIDE)) & _U64


def _run_stack(config: GaConfig, run_indices: Iterable[int]) -> np.ndarray:
    """The (runs, generations, 5) records of the given runs, in lockstep;
    a run's row g - 1 is its :class:`GenerationRecord` of generation g."""
    rngs = [np.random.Generator(np.random.PCG64(run_seed(config.master_seed, i)))
            for i in run_indices]
    n, length = config.pop_size, config.genome_length
    bits = np.stack([rng.integers(0, 2, size=(n, length), dtype=np.uint8) for rng in rngs])
    population = make_population(bits, config.objective, config.bits_per_var)
    best = population.raw.min(axis=1)

    records = np.empty((config.generations, len(GenerationRecord._fields), len(rngs)))
    for gen in range(1, config.generations + 1):
        draws = _draw_generation(rngs, n, length, config.mutation_prob_per_bit)
        population, record = step_generation(population, config, gen, draws, best)
        records[gen - 1] = record
        best = record.best_so_far_raw
    return np.ascontiguousarray(records.transpose(2, 0, 1))


def aggregate(stack: np.ndarray) -> np.ndarray:
    """The series table of a (runs, generations, 5) stack of runs.

    ``stack[i]`` is one run's records (:func:`_run_stack`). Returns a
    (generations, 6) float64 array whose columns are ``SERIES_COLUMNS[1:]``:
    run 0's gamma (a mean of equal doubles need not round back), then
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
    """Run the configured number of independent runs in lockstep; their series table."""
    return aggregate(_run_stack(config, range(config.runs)))
