"""Command-line entry point: experiments, schedule export, verification.

Three subcommands:

  run       one GA experiment (one function, one selection scheme) averaged
            over repeated runs; writes ``<function>_<scheme>.csv`` and
            joins its sibling schemes' text into ``<function>_combined.csv``
  schedule  inverse-temperature sequence of a Cauchy schedule as CSV
  verify    randomized verification suites; exit 1 on any violation

The scheme names (``SELECTION_SCHEMES``) live here; only
:func:`build_ga_config` turns one into the engine's schedule.

An argument ``@FILE`` is replaced by the flags that FILE holds, split as
a shell splits them (quotes work, ``#`` starts a comment), and argparse
reads them in their place, so a later flag wins over an earlier one. A
file that includes itself, directly or through others, is a usage error.
Flags are never abbreviated. Every effective value is echoed into the CSV
metadata so a result file is self-describing. Exit codes: 0 success, 1
verification failure, 2 usage error (a sibling CSV that cannot be joined
among them).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shlex
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .annealing import calibrate_g0, cauchy_schedule, constant_schedule, gamma_at
from .benchmarks import FUNCTION_NAMES, _as_int, make_objective
from .engine import GENERATOR_NAME, SERIES_COLUMNS, STREAM_VERSION, GaConfig
from .engine import aggregate, multi_run
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

PROPORTIONATE = "proportionate"
BOLTZMANN_CONST = "boltzmann_const"
CAUCHY_BOLTZMANN = "cauchy_boltzmann"
SELECTION_SCHEMES = (PROPORTIONATE, BOLTZMANN_CONST, CAUCHY_BOLTZMANN)

# CLI spellings of the selection schemes
_SCHEME_FLAGS = {name.replace("_", "-"): name for name in SELECTION_SCHEMES}


@dataclass
class CliConfig:
    """Effective experiment configuration: the ``run`` flags over these defaults."""

    function: str
    selection: str
    alpha: float = 2.0
    g0: float | None = None
    gamma: float = 300.0
    gamma_target: float = 300.0
    generations: int = GaConfig.generations
    pop_size: int = GaConfig.pop_size
    runs: int = GaConfig.runs
    seed: int = GaConfig.master_seed
    bits_per_var: int = GaConfig.bits_per_var
    dims: int = 15
    crossover_prob: float = GaConfig.crossover_prob
    mutation_prob: float = GaConfig.mutation_prob_per_bit
    elitism: bool = GaConfig.elitism
    output: str = "results"


def fmt(value) -> str:
    """Serialize one CSV cell: bools as true/false, floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_FIELD_TYPES = get_type_hints(CliConfig)


def merge_config(cli_values: dict) -> CliConfig:
    """Lay the flags that were set over the CliConfig defaults.

    ``cli_values`` maps field names to parsed values, None for a flag not
    given; other keys are ignored. A scheme's flag spelling
    (``cauchy-boltzmann``) becomes its name (``cauchy_boltzmann``).

    Raises:
        ValueError: If function or selection is missing.
    """
    merged = {name: cli_values[name] for name in _FIELD_TYPES
              if cli_values.get(name) is not None}
    for required in ("function", "selection"):
        if required not in merged:
            raise ValueError(f"missing required setting: {required}")
    merged["selection"] = _SCHEME_FLAGS.get(merged["selection"], merged["selection"])
    return CliConfig(**merged)


def _cauchy_g0(
    alpha: float, horizon: int, g0: float | None, gamma_target: float | None
) -> float:
    """The one g0 rule: g0 as given, else calibrated to gamma_target at horizon."""
    return g0 if g0 is not None else calibrate_g0(alpha, horizon, gamma_target)


def build_ga_config(cfg: CliConfig) -> tuple[GaConfig, float | None]:
    """Translate CLI settings into an engine config plus the effective g0.

    The one place a scheme name becomes a schedule: None (proportionate),
    constant gamma, or Cauchy with g0 calibrated to the horizon unless
    given. GaConfig checks the settings before g0 is calibrated.

    Raises:
        ValueError: On an unknown scheme name, or settings GaConfig rejects.
    """
    if cfg.selection not in SELECTION_SCHEMES:
        raise ValueError(f"unknown selection scheme: {cfg.selection!r}")
    ga = GaConfig(
        objective=make_objective(cfg.function, cfg.dims),
        pop_size=cfg.pop_size,
        generations=cfg.generations,
        crossover_prob=cfg.crossover_prob,
        mutation_prob_per_bit=cfg.mutation_prob,
        runs=cfg.runs,
        master_seed=cfg.seed,
        elitism=cfg.elitism,
        bits_per_var=cfg.bits_per_var,
    )
    g0_effective: float | None = None
    if cfg.selection == CAUCHY_BOLTZMANN:
        g0_effective = _cauchy_g0(cfg.alpha, cfg.generations, cfg.g0, cfg.gamma_target)
        ga = replace(ga, schedule=cauchy_schedule(g0_effective, cfg.alpha))
    elif cfg.selection == BOLTZMANN_CONST:
        ga = replace(ga, schedule=constant_schedule(cfg.gamma))
    return ga, g0_effective


# metadata keys that differ from their CliConfig field names
_METADATA_KEYS = {"seed": "master_seed", "mutation_prob": "mutation_prob_per_bit"}


def _metadata(cfg: CliConfig, g0_effective: float | None) -> dict[str, str]:
    """Every CliConfig field but ``output``, in field order, then provenance."""
    meta = {}
    for name in _FIELD_TYPES:
        value = getattr(cfg, name)
        if name == "g0":
            meta["g0"] = "auto" if value is None else fmt(value)
            meta["g0_effective"] = "n/a" if g0_effective is None else fmt(g0_effective)
        elif name != "output":
            meta[_METADATA_KEYS.get(name, name)] = fmt(value)
    meta["generator"] = f"{GENERATOR_NAME} (numpy {np.__version__})"
    meta["stream_version"] = fmt(STREAM_VERSION)
    return meta


def _write_csv(path: Path, metadata: dict[str, str], header, rows) -> None:
    """Write '# key = value' lines, then the CSV header and rows, over ``path``.

    Cells are joined with ',' and rows end in CRLF: what ``csv.writer``
    writes for cells that need no quoting, as no cell cauchyga writes does.

    The file ends up holding exactly these bytes, as after ``open(path,
    "w")``, and a new file gets the same mode. Unlike ``open(path, "w")``
    the old file is not first truncated to zero; it is written over and
    then cut to the new length. ext4 flushes a file truncated to zero when
    it is closed, which took 0.1 to 0.3 ms per small CSV on a 2-core VM,
    against about 0.01 ms for the write in place. Neither way is atomic: a
    reader during the write may see part old and part new bytes.
    """
    lines = [f"# {key} = {val}\n" for key, val in metadata.items()]
    lines.append(",".join(header) + "\r\n")
    lines.extend(",".join(cells) + "\r\n" for cells in rows)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write("".join(lines).encode())
        fh.truncate()


def write_series_csv(
    path: Path, metadata: dict[str, str], table: np.ndarray
) -> list[list[str]]:
    """Write one experiment CSV; row g - 1 of the series ``table`` is generation g.

    Returns the data rows' cells as written.
    """
    # tolist gives the Python floats of the stored values
    rows = [[str(g), *map(fmt, row)] for g, row in enumerate(table.tolist(), 1)]
    _write_csv(path, metadata, SERIES_COLUMNS, rows)
    return rows


def read_series_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Read a CSV cauchyga wrote: '#' metadata, then header and rows split on ','.

    Raises:
        ValueError: If the file has no header row (it is empty, say, or
            holds only '#' metadata lines), or if a data row's number of
            cells differs from the header's; the message names the line.
    """
    metadata: dict[str, str] = {}
    table: list[list[str]] = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition(" = ")
                metadata[key] = val
                continue
            cells = line.rstrip("\r\n").split(",")
            if table and len(cells) != len(table[0]):
                width = len(table[0])
                raise ValueError(f"{path}:{lineno}: {len(cells)} cells, header has {width}")
            table.append(cells)
    if not table:
        raise ValueError(f"{path}: no header row")
    return metadata, table[0], table[1:]


def write_combined_csv(
    output_dir: Path, function: str, scheme: str, rows: list[list[str]]
) -> Path | None:
    """Join per-scheme CSVs of one function on generation, if two or more exist.

    ``rows`` are the data rows just written to ``scheme``'s CSV, which is
    joined from them rather than read back; every other sibling is read.
    The siblings' cells are spliced as the text cauchyga wrote them.
    Emitted columns carry a scheme prefix; schemes appear in the fixed
    order proportionate, boltzmann_const, cauchy_boltzmann. When the
    sources' horizons differ they cannot be joined, so no combined file
    is written and any earlier one is deleted.

    Raises:
        ValueError: As :func:`read_series_csv`, or if a sibling's header is
            not ``SERIES_COLUMNS``.
    """
    present = []
    for name in SELECTION_SCHEMES:
        path = output_dir / f"{function}_{name}.csv"
        if name == scheme or path.exists():
            present.append((name, path))
    if len(present) < 2:
        return None

    out = output_dir / f"{function}_combined.csv"
    tables = []
    for name, path in present:
        if name == scheme:
            tables.append(rows)
            continue
        _, header, sibling = read_series_csv(path)
        if tuple(header) != SERIES_COLUMNS:
            raise ValueError(f"{path}: header is not {','.join(SERIES_COLUMNS)}")
        tables.append(sibling)
    if len({len(table) for table in tables}) != 1:
        # an older join would name a source whose rows have changed
        out.unlink(missing_ok=True)
        return None

    metadata = {"function": function}
    header = ["generation"]
    for name, path in present:
        metadata[f"source_{name}"] = path.name
        header.extend(f"{name}_{col}" for col in SERIES_COLUMNS[1:])
    # the first sibling's generation, then every sibling's other cells
    joined = ([parts[0][0], *(cell for row in parts for cell in row[1:])]
              for parts in zip(*tables))
    _write_csv(out, metadata, header, joined)
    return out


def run_experiment(cfg: CliConfig) -> list[Path]:
    """Run one (function, scheme) experiment and write its CSV.

    Also refreshes ``<function>_combined.csv`` whenever results for other
    schemes of the same function already sit in the output directory, or
    deletes it when their horizons differ.

    Returns the list of paths written.
    """
    ga, g0_effective = build_ga_config(cfg)
    table = aggregate(multi_run(ga))
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.function}_{cfg.selection}.csv"
    rows = write_series_csv(path, _metadata(cfg, g0_effective), table)
    written = [path]
    combined = write_combined_csv(out_dir, cfg.function, cfg.selection, rows)
    if combined is not None:
        written.append(combined)
    return written


def emit_schedule(
    alpha: float,
    horizon: int,
    output_dir: str | Path,
    g0: float | None = None,
    gamma_target: float | None = None,
) -> Path:
    """Write the (n, gamma_n) rows of a Cauchy schedule to CSV.

    Exactly one of g0 and gamma_target must be given; a target calibrates
    g0 so the schedule ends at the target after ``horizon`` generations.

    Raises:
        ValueError: If alpha <= 1, horizon is not an integer or < 1, or the
            g0/gamma_target choice is not exactly one.
    """
    if (g0 is None) == (gamma_target is None):
        raise ValueError("exactly one of g0 and gamma_target must be given")
    horizon = _as_int("horizon", horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    g0_effective = _cauchy_g0(alpha, horizon, g0, gamma_target)
    schedule = cauchy_schedule(g0_effective, alpha)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the short name unless it would collide with a nearby alpha
    tag = f"{alpha:g}"
    if float(tag) != alpha:
        tag = repr(alpha)
    path = out_dir / f"schedule_alpha{tag}.csv"
    metadata = {"alpha": fmt(alpha), "g0": fmt(g0_effective)}
    if gamma_target is not None:
        metadata["gamma_target"] = fmt(gamma_target)
    metadata["horizon"] = str(horizon)
    rows = ([str(n), fmt(gamma_at(schedule, n))] for n in range(1, horizon + 1))
    _write_csv(path, metadata, ["n", "gamma_n"], rows)
    return path


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the three subcommands on every call.

    Callers may extend the returned parser; ``main`` never sees it.
    """
    parser = argparse.ArgumentParser(
        prog="cauchyga",
        description="GA experiments with Boltzmann selection under a Cauchy "
        "annealing schedule",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = functools.partial(shlex.split, comments=True)
    sub = parser.add_subparsers(dest="command", required=True)
    # a truncated flag is an unknown flag, typed or read from a file
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p_run = add_command("run", help="run one experiment, write CSV series")
    # one flag per CliConfig field, in field order; unset flags stay None;
    # an optional field parses as its non-None type
    choices = {"function": FUNCTION_NAMES, "selection": sorted(_SCHEME_FLAGS)}
    for name, hint in _FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if hint is bool:
            p_run.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            parse = next((t for t in get_args(hint) if t is not type(None)), hint)
            p_run.add_argument(flag, type=parse, choices=choices.get(name))

    p_ver = add_command("verify", help="run the verification suites")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--cases", type=int, default=1000)
    p_ver.add_argument("--output", default="results")

    p_sch = add_command("schedule", help="emit (n, gamma_n) schedule CSV")
    p_sch.add_argument("--alpha", type=float, required=True)
    p_sch.add_argument("--g0", type=float)
    p_sch.add_argument("--gamma-target", type=float, dest="gamma_target")
    p_sch.add_argument("--horizon", type=int, default=100)
    p_sch.add_argument("--output", default="results")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built by the first main call, not at import, so importing stays cheap
    return build_parser()


def _check_argument_files(parser, args: list[str], reading: tuple[str, ...] = ()) -> None:
    """Raise ValueError on an ``@FILE`` that names a file already being read,
    which argparse would read again without end; an unreadable one is left to it."""
    for name in (arg[1:] for arg in args if arg.startswith("@")):
        if os.path.realpath(name) in reading:
            raise ValueError(f"argument file {name} includes itself")
        with contextlib.suppress(OSError), open(name) as file:
            lines = file.read().splitlines()
            inner = [a for line in lines for a in parser.convert_arg_line_to_args(line)]
            _check_argument_files(parser, inner, (*reading, os.path.realpath(name)))


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand that ``argv`` names and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``. The parser is built on the first
    call and reused by every later call in the process; parsing neither
    changes it nor keeps state between calls, since every default is
    immutable.
    """
    parser = _shared_parser()
    try:
        # shlex raises ValueError on an unclosed quote in an argument file
        _check_argument_files(parser, sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if args.command == "run":
            if args.g0 is not None and args.gamma_target is not None:
                parser.error("--g0 and --gamma-target are mutually exclusive")
            # every CliConfig field is a flag, so the parsed namespace holds them all
            written = run_experiment(merge_config(vars(args)))
            for path in written:
                print(path)
            return EXIT_OK

        if args.command == "verify":
            result = run_verify(args.seed, args.cases, args.output)
            for line in result.suite_lines:
                print(line)
            if not result.ok:
                print(result.failure_line(), file=sys.stderr)
                return EXIT_VERIFY_FAIL
            return EXIT_OK

        if args.command == "schedule":
            path = emit_schedule(
                args.alpha,
                args.horizon,
                args.output,
                g0=args.g0,
                gamma_target=args.gamma_target,
            )
            print(path)
            return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
