"""Binary-encoded generational GA with proportionate or Boltzmann selection.

A population is three row-aligned arrays: the gene levels, the raw
objective values and the fitness values. A genome is ``dims`` genes of
``bits_per_var`` bits (in [1, 16]), stored as the genes' levels: uint8 up
to 8 bits per variable, uint16 above, a gene's bits being its level's
low bits_per_var bits. ``GaConfig.schedule`` is the selection scheme:
None is proportionate, a schedule is Boltzmann at its gamma_n. One
generation is: roulette selection with replacement (row indices) ->
pairing -> uniform crossover -> per-bit mutation -> evaluation. The
realized selection strength of a generation is the L1 distance between
the population's NFD before selection and the NFD of the selected
parents, both counted on the fitness array (:func:`_strengths`).

A level v sits on a fixed lattice of 2**bits_per_var points per variable.
The lattice points and the objective's elementwise terms at them are
computed once per (objective, bits_per_var) and cached (terms up to 2**20
table entries, levels x dims, column by column); a generation gathers its
genes' terms at column * levels + v and reduces them row by row, the same
values as evaluating the decoded points.

Every random decision of a run comes from one numpy PCG64 generator seeded
from (master_seed, run_index), so replays are bit-identical and distinct
runs are independent streams. Only :func:`_run_stack` turns the
generators into draws; the operators and :func:`step_generation` take
them as arrays. They come in a fixed order, numbered by
``STREAM_VERSION``: the initial genes (drawn as the masks of step 2 are),
then per block of ``count`` <= ``BLOCK`` = 16 generations, all taken
before any of them is used (:func:`_draw_block`):

1. one call of count * 3 * ceil(n / 2) doubles, generation by generation:
   the 2 * ceil(n / 2) roulette doubles (one per parent, looked up in the
   cumulative probabilities as ``Generator.choice`` does), then the
   crossover decisions (one per pair);
2. one ``random_raw`` call whose little-endian bytes are the swap masks,
   generation by generation and pair by pair: a gene takes one byte, or
   two above 8 bits per variable, and keeps its low bits_per_var bits;
3. one Bernoulli(p) process of mutation flips over the count * n * L bits
   of the block (:func:`_flip_positions`), generation by generation, a
   genome's bits being its genes' bits in turn, most significant first;
   the positions are mapped once per block to a dense flip mask
   (:func:`_flip_mask`).

The pool of 2 * ceil(n / 2) roulette draws is paired in halves, draw i
with draw ceil(n / 2) + i: the draws are i.i.d., so no shuffle changes the
law of the pairs. With an odd n the last pair's second child is dropped,
and the realized strength counts the first n parents.

The runs of an experiment step in lockstep as one stack of arrays with a
leading run axis; every step of a generation but the draws works on the
whole stack at once (only the roulette lookup and the exactly rounded
strength sum go row by row), and a block's records are reduced after it
has run. A run's draws come from its own generator and its values are
reduced on their own rows, so its records depend only on (master_seed,
run_index), not on the other runs of the stack or on the blocks.

:func:`aggregate` reduces a stack of runs to one series table, a row per
generation under the columns ``SERIES_COLUMNS`` names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .annealing import AnnealingSchedule, gamma_at
from .benchmarks import (
    ObjectiveSpec, _as_int, _check_box, _reduce, _terms, evaluate_raw_batch,
    to_fitness_batch,
)
# engine.distance stays importable: callers and bench/test_bench.py look it up here
from .nfd import NFD, distance
from .selection import _check_gamma

GENERATOR_NAME = "numpy-PCG64"
STREAM_VERSION = 5  # the draw order of the module docstring; bumped when it changes
SEED_STRIDE = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF
MAX_BITS_PER_VAR = 16  # a lattice table has at most 2**16 rows
_MAX_TABLE = 1 << 20  # entries (levels * dims) per cached term table: 8 MB
BLOCK = 16  # generations per batch of draws and strengths; part of the stream

# the columns of one run's records, a row per generation (_run_stack)
RECORD_COLUMNS = ("gamma", "best_so_far_raw", "gen_best_raw", "mean_raw", "strength")
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
    produce for ``genes``; recomputing them reproduces the stored values
    bit-for-bit.
    """

    genes: np.ndarray  # ([runs,] n, dims) gene levels in [0, 2**bits_per_var)
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
        # stored as ints: run_seed XORs master_seed with ints past 2**64, which
        # a numpy uint64 seed cannot take
        for name in ("pop_size", "generations", "runs", "master_seed", "bits_per_var"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not isinstance(self.elitism, (bool, np.bool_)):
            raise ValueError(f"elitism must be a bool, got {self.elitism!r}")
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
        if not 0 <= self.master_seed <= _U64:  # run_seed would alias it modulo 2**64
            raise ValueError("master_seed must be in [0, 2**64)")
        _check_bits_per_var(self.bits_per_var)

    @property
    def genome_length(self) -> int:
        return self.objective.dims * self.bits_per_var


def _gene_dtype(bits_per_var: int) -> np.dtype:
    """The dtype of gene levels: uint8 up to 8 bits per variable, uint16 above."""
    return np.dtype(np.uint8 if bits_per_var <= 8 else "<u2")


def _check_genes(genes: np.ndarray, spec: ObjectiveSpec, bits_per_var: int) -> None:
    """The genome rule: dims integer genes, each a level in [0, 2**bits_per_var)."""
    if genes.shape[-1] != spec.dims:
        raise ValueError(f"genome length {genes.shape[-1]} != dims {spec.dims}")
    kind = genes.dtype.kind
    if kind not in "ui" or genes.size and not (
        (kind == "u" or genes.min() >= 0) and genes.max() < 1 << bits_per_var
    ):
        raise ValueError(f"gene levels must be integers in [0, {1 << bits_per_var})")


@functools.lru_cache(maxsize=8)
def _lattice(
    spec: ObjectiveSpec, bits_per_var: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """The lattice points and the flat (levels, dims) objective-term tables.

    Level v sits at lower + v / (levels - 1) * (upper - lower), so v = 0
    hits the lower bound and v = levels - 1 the upper bound exactly. The
    tables hold the objective's elementwise terms on the (levels, dims)
    grid of those points, column by column (level v of column c at c *
    levels + v); None past ``_MAX_TABLE`` entries.
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
    tables = tuple(t.T.ravel() for t in terms)
    for table in tables:
        table.flags.writeable = False
    return points, tables


def decode_batch(
    genes: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> np.ndarray:
    """Decode a (n, dims) array of gene levels into (n, dims) points.

    A gather from the cached lattice points, so level 0 hits the lower
    bound and level 2**bits_per_var - 1 the upper bound exactly.

    Raises:
        ValueError: On bits_per_var outside [1, 16], or genes outside
            the genome rule (:func:`_check_genes`).
    """
    points, _ = _lattice(spec, bits_per_var)
    genes = np.asarray(genes)
    _check_genes(genes, spec, bits_per_var)
    return points[genes]


def make_population(
    genes: np.ndarray, spec: ObjectiveSpec, bits_per_var: int
) -> Population:
    """Evaluate and map to fitness every row of a gene array or stack.

    The raw values are bit for bit ``evaluate_raw_batch(spec,
    decode_batch(genes, ...))``, and past the table size limit they are
    computed that way. Otherwise the terms of each gene are gathered from
    the cached lattice tables at column * levels + level and reduced row
    by row. The population holds ``genes`` itself, not a copy.

    Raises:
        ValueError: As :func:`decode_batch`.
    """
    _, tables = _lattice(spec, bits_per_var)
    rows = genes.reshape(-1, genes.shape[-1])  # a stack of runs is evaluated as one matrix
    if tables is None:
        raw = evaluate_raw_batch(spec, decode_batch(rows, spec, bits_per_var))
    else:
        _check_genes(rows, spec, bits_per_var)  # a level past the column would read the next
        index = rows + np.arange(0, tables[0].size, 1 << bits_per_var)
        raw = _reduce(spec, tuple(t.take(index) for t in tables))
    fitness = to_fitness_batch(spec, raw)
    shape = genes.shape[:-1]
    return Population(genes=genes, raw=raw.reshape(shape), fitness=fitness.reshape(shape))


def population_nfd(fitness: np.ndarray) -> NFD:
    """NFD of a population's fitness values."""
    return NFD.from_values(np.asarray(fitness).tolist())


def _strengths(fits: np.ndarray, picks: np.ndarray) -> list[float]:
    """The realized strength of each row of a (rows, n) stack, unchecked.

    Row r's is the L1 distance between the NFDs of ``fits[r]`` and of
    ``fits[r][picks[r]]``, bit for bit the dict NFDs' ``distance``: each
    mass is the same rounded count / size, 0.0 and -0.0 are one value, and
    the sum is exactly rounded. Every gap is a whole number of units in the
    last place of the smallest mass, so up to 1024 individuals and picks a
    row's units fit 64 bits and are summed exactly, then rounded once (past
    that, by ``fsum``). The fitness must be finite and nonnegative, as
    fitness mapping leaves it; one sort and two flat counts serve all rows.
    """
    runs, n = fits.shape
    order = fits.argsort(axis=1)  # any order of equal values groups them alike
    offsets = np.arange(0, runs * n, n)[:, None]  # row r starts at r * n of the flat arrays
    order, picks = (order + offsets).ravel(), picks + offsets
    ordered = fits.ravel()[order]
    new_value = np.empty(order.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    new_value[::n] = True  # a row's first entry starts its own values
    # 1-based distinct-value bin of each sorted entry; bin 0 stays empty
    bins = new_value.cumsum()
    drawn = np.bincount(picks.ravel(), minlength=order.size)[order]
    before = np.bincount(bins) / n
    after = np.bincount(bins, weights=drawn) / picks.shape[1]
    gaps, ends = np.abs(before - after), bins[n - 1 :: n] + 1
    unit = 2.0 ** (math.frexp(1.0 / max(n, picks.shape[1]))[1] - 53)
    if 2.0 / unit <= 2.0**63:  # bounds a row's units: each side's masses sum to ~1
        units = np.add.reduceat((gaps / unit).astype(np.uint64), np.r_[0, ends[:-1]])
        return (units.astype(np.float64) * unit).tolist()
    gaps, ends = gaps.tolist(), ends.tolist()
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
        ValueError: As :func:`selection_probabilities`, on draws with
            other leading dimensions than the populations', or on a double
            outside [0, 1).
    """
    p = selection_probabilities(fitness, gamma_n)
    draws = np.asarray(draws)
    if draws.shape[:-1] != p.shape[:-1]:
        raise ValueError(
            f"roulette draws of shape {draws.shape} for populations of shape {p.shape}"
        )
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
    """Uniform crossover of row-aligned gene arrays, row i with row i.

    Each pair crosses with probability crossover_prob, and then every bit
    of every gene independently swaps between the pair with probability
    1/2; otherwise both parents pass through unchanged. A pair crosses
    when its double in ``decisions`` is below crossover_prob; its masks,
    drawn crossing or not, set the bits that swap, gene by gene: both
    parents are XORed with ``(a ^ b) & mask``. For (..., m, dims) parent
    stacks they are (..., m) doubles and (..., m, dims) masks.

    Raises:
        ValueError: On parent arrays of different shapes, or decisions or
            masks whose shape does not fit the pairs'.
    """
    if a.shape != b.shape:
        raise ValueError(f"genome length mismatch: {a.shape} vs {b.shape}")
    if decisions.shape != a.shape[:-1] or masks.shape != a.shape:
        raise ValueError(
            f"decisions of shape {decisions.shape} and masks of shape "
            f"{masks.shape} do not fit pairs of shape {a.shape}"
        )
    diff = (a ^ b) & masks
    diff *= (decisions < crossover_prob)[..., None]
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


def _flip_mask(positions: np.ndarray, shape: tuple[int, ...], bits_per_var: int) -> np.ndarray:
    """Gene levels of ``shape`` with the flat bit ``positions`` set: bit q is
    bit q % bits_per_var of gene q // bits_per_var, most significant first."""
    mask = np.zeros(shape, _gene_dtype(bits_per_var))
    index, bit = np.divmod(positions, bits_per_var)
    values = np.right_shift(1 << (bits_per_var - 1), bit).astype(mask.dtype)
    np.bitwise_xor.at(mask.reshape(-1), index, values)
    return mask


def mutate(genes: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """``genes ^ flips``: new genes, the bits their masks in ``flips`` set flipped.

    With a Bernoulli(p) process over the genomes' bits as the mask
    (:func:`_flip_positions`, :func:`_flip_mask`), this is exactly the law
    of one Bernoulli(p) draw per bit.

    Raises:
        ValueError: On flips of another shape than the genes'.
    """
    if flips.shape != genes.shape:
        raise ValueError(f"flips of shape {flips.shape} for genes of shape {genes.shape}")
    return genes ^ flips


def _draw_genes(rng: np.random.Generator, size: int, bits_per_var: int) -> np.ndarray:
    """``size`` gene levels from one ``random_raw`` call: each takes a byte of
    the little-endian words (two above 8 bits per variable), its low bits kept."""
    dtype = _gene_dtype(bits_per_var)
    words = rng.bit_generator.random_raw(-(-size * dtype.itemsize // 8))
    return words.astype("<u8", copy=False).view(dtype)[:size] & (1 << bits_per_var) - 1


def _draw_block(
    rngs: Sequence[np.random.Generator], config: GaConfig, count: int
) -> list[tuple]:
    """Take every draw of ``count`` generations, run by run, in stream order.

    Returns one tuple per generation, as :func:`step_generation` takes it,
    row r for run r: the (runs, 2 * pairs) roulette doubles, the (runs,
    pairs) crossover doubles, the (runs, pairs, dims) masks and the (runs,
    n, dims) flip masks of the children.
    """
    runs, n, dims = len(rngs), config.pop_size, config.objective.dims
    pairs, size = (n + 1) // 2, n * config.genome_length  # size: one run's bits
    doubles = np.empty((runs, count, 3 * pairs))
    masks = np.empty((runs, count, pairs, dims), _gene_dtype(config.bits_per_var))
    flips = np.empty((runs, count, n, dims), masks.dtype)
    for row, rng in enumerate(rngs):
        rng.random(out=doubles[row])
        masks[row] = _draw_genes(rng, masks[row].size, config.bits_per_var).reshape(
            masks.shape[1:])
        positions = _flip_positions(rng, count * size, config.mutation_prob_per_bit)
        flips[row] = _flip_mask(positions, flips.shape[1:], config.bits_per_var)
    return [(doubles[:, k, : 2 * pairs], doubles[:, k, 2 * pairs :], masks[:, k], flips[:, k])
            for k in range(count)]


def step_generation(
    population: Population, config: GaConfig, gamma_n: float | None, draws: tuple
) -> tuple[Population, np.ndarray]:
    """Advance a stack of runs one generation in lockstep.

    ``population`` has a leading run axis, ``draws`` is one generation of
    :func:`_draw_block`, and ``gamma_n`` the inverse temperature (None:
    proportionate). Returns the next population and the (runs, n) parents
    whose realized strength is ``_strengths(population.fitness, parents)``.
    The parents pair in halves and the first n children are kept. With
    elitism the best parent replaces the worst child, each first on ties.
    """
    runs, n = population.raw.shape
    if n != config.pop_size:
        raise ValueError("population size does not match config")
    dims = population.genes.shape[-1]
    roulette, crosses, masks, flips = draws

    chosen = select_parents(population.fitness, gamma_n, roulette)
    rows = chosen + np.arange(0, runs * n, n)[:, None] if runs > 1 else chosen
    pool = population.genes.reshape(runs * n, dims)[rows]
    a, b = pool[:, : (n + 1) // 2], pool[:, (n + 1) // 2 :]
    a[...], b[...] = uniform_crossover(a, b, config.crossover_prob, crosses, masks)
    genes = mutate(pool[:, :n], flips)
    nxt = make_population(genes, config.objective, config.bits_per_var)

    if config.elitism:
        each = np.arange(runs)
        worst, best = nxt.raw.argmax(axis=1), population.raw.argmin(axis=1)
        nxt.genes[each, worst] = population.genes[each, best]
        nxt.raw[each, worst] = population.raw[each, best]
        nxt.fitness[each, worst] = population.fitness[each, best]
    return nxt, chosen[:, :n]


def run_seed(master_seed: int, run_index: int) -> int:
    """64-bit stream seed for one run."""
    return (master_seed ^ (run_index * SEED_STRIDE)) & _U64


def _run_stack(config: GaConfig, run_indices: Iterable[int]) -> np.ndarray:
    """The (runs, generations, 5) records of the given runs, in lockstep.

    A run's row g - 1 holds its ``RECORD_COLUMNS`` of generation g. The
    generations run in blocks of up to ``BLOCK``: a block's draws are taken
    before it runs and its records reduced after, the strengths in one
    :func:`_strengths` call that reduces each row on its own.
    """
    rngs = [np.random.Generator(np.random.PCG64(run_seed(config.master_seed, i)))
            for i in run_indices]
    n, dims, schedule = config.pop_size, config.objective.dims, config.schedule
    genes = np.stack([_draw_genes(rng, n * dims, config.bits_per_var).reshape(n, dims)
                      for rng in rngs])
    population = make_population(genes, config.objective, config.bits_per_var)
    best = population.raw.min(axis=1)

    records = np.empty((config.generations, len(RECORD_COLUMNS), len(rngs)))
    for start in range(0, config.generations, BLOCK):
        count = min(BLOCK, config.generations - start)
        gammas, fits, parents, raws = [], [], [], []
        for gen, draws in enumerate(_draw_block(rngs, config, count), start + 1):
            gamma_n = None if schedule is None else gamma_at(schedule, gen)
            fits.append(population.fitness)
            population, chosen = step_generation(population, config, gamma_n, draws)
            gammas.append(0.0 if gamma_n is None else gamma_n)
            parents.append(chosen)
            raws.append(population.raw)
        raw = np.stack(raws)  # (count, runs, n)
        gen_best = raw.min(axis=2)
        block = records[start : start + count]
        block[:, 0] = np.array(gammas)[:, None]
        block[:, 1] = np.minimum.accumulate(np.vstack((best, gen_best)))[1:]
        block[:, 2] = gen_best
        block[:, 3] = raw.sum(axis=2) / n  # what mean(axis=2) computes
        # fitness mapping has checked the values _strengths reads
        strengths = _strengths(np.concatenate(fits), np.concatenate(parents))
        block[:, 4] = np.reshape(strengths, (count, -1))
        best = block[-1, 1]
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
