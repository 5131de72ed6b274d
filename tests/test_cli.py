"""CSV emission, config precedence, exit codes, and the verify path."""

from __future__ import annotations

import argparse
import dataclasses
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from cauchyga import cli, engine, verify
from cauchyga.annealing import (
    calibrate_g0,
    cauchy_schedule,
    constant_schedule,
    gamma_at,
)
from cauchyga.cli import (
    CliConfig,
    build_parser,
    emit_schedule,
    main,
    merge_config,
    read_series_csv,
    run_experiment,
    SERIES_COLUMNS,
)
from cauchyga.verify import run_verify


def tiny_cfg(tmp_path, **kw) -> CliConfig:
    base = dict(
        function="rastrigin",
        selection="boltzmann_const",
        generations=3,
        pop_size=20,
        runs=2,
        output=str(tmp_path),
    )
    base.update(kw)
    return CliConfig(**base)


def test_run_writes_expected_schema(tmp_path):
    paths = run_experiment(tiny_cfg(tmp_path))
    meta, header, rows = read_series_csv(paths[0])
    assert header == list(SERIES_COLUMNS)
    assert len(rows) == 3
    assert meta["selection"] == "boltzmann_const"
    assert meta["master_seed"] == "42"
    assert "numpy-PCG64" in meta["generator"]
    # generation column counts up from 1
    assert [r[0] for r in rows] == ["1", "2", "3"]


def test_metadata_carries_stream_version(tmp_path):
    meta, _, _ = read_series_csv(run_experiment(tiny_cfg(tmp_path))[0])
    assert meta["stream_version"] == str(engine.STREAM_VERSION) == "6"


def test_readme_names_the_current_stream_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"stream version {engine.STREAM_VERSION}" in readme
    assert f"# stream_version = {engine.STREAM_VERSION}" in readme


def test_run_single_row_csv(tmp_path):
    cfg = tiny_cfg(tmp_path, generations=1, runs=1)
    paths = run_experiment(cfg)
    _, _, rows = read_series_csv(paths[0])
    assert len(rows) == 1


def test_metadata_precedes_data(tmp_path):
    paths = run_experiment(tiny_cfg(tmp_path))
    lines = paths[0].read_text().splitlines()
    switched = 0
    for line in lines:
        if line.startswith("#"):
            assert switched == 0
        else:
            switched = 1


def test_rerun_is_byte_identical(tmp_path):
    p1 = run_experiment(tiny_cfg(tmp_path / "a"))[0]
    p2 = run_experiment(tiny_cfg(tmp_path / "b"))[0]
    assert p1.read_bytes() == p2.read_bytes()


def test_combined_csv_joins_schemes(tmp_path):
    run_experiment(tiny_cfg(tmp_path, selection="proportionate"))
    paths = run_experiment(tiny_cfg(tmp_path, selection="boltzmann_const"))
    combined = [p for p in paths if "combined" in p.name]
    assert combined, "combined CSV not produced"
    meta, header, rows = read_series_csv(combined[0])
    assert header[0] == "generation"
    assert any(col.startswith("proportionate_") for col in header)
    assert any(col.startswith("boltzmann_const_") for col in header)
    assert len(rows) == 3
    assert meta == {
        "function": "rastrigin",
        "source_proportionate": "rastrigin_proportionate.csv",
        "source_boltzmann_const": "rastrigin_boltzmann_const.csv",
    }
    # the siblings' cells, spliced as written
    first, second = (read_series_csv(tmp_path / f"rastrigin_{scheme}.csv")[2]
                     for scheme in ("proportionate", "boltzmann_const"))
    assert rows == [a + b[1:] for a, b in zip(first, second)]


def test_combined_csv_removed_when_horizons_differ(tmp_path):
    run_experiment(tiny_cfg(tmp_path, selection="proportionate", generations=5))
    paths = run_experiment(tiny_cfg(tmp_path, generations=5))
    combined = tmp_path / "rastrigin_combined.csv"
    assert paths[-1] == combined
    paths = run_experiment(
        tiny_cfg(tmp_path, selection="proportionate", generations=8, seed=7)
    )
    assert paths == [tmp_path / "rastrigin_proportionate.csv"]
    assert not combined.exists()
    # equal horizons join again
    paths = run_experiment(tiny_cfg(tmp_path, selection="proportionate", generations=5))
    assert paths[-1] == combined
    assert len(read_series_csv(combined)[2]) == 5


@pytest.mark.parametrize("last", cli.SELECTION_SCHEMES)
def test_combined_bytes_equal_a_join_that_rereads_every_sibling(tmp_path, last):
    # the scheme run last is joined from memory, the others from disk
    for seed, scheme in enumerate(
        [s for s in cli.SELECTION_SCHEMES if s != last] + [last], start=3
    ):
        paths = run_experiment(tiny_cfg(tmp_path, selection=scheme, seed=seed))
    combined = paths[-1]
    assert combined == tmp_path / "rastrigin_combined.csv"
    # the reference: every sibling read back from disk, then joined
    siblings = [read_series_csv(tmp_path / f"rastrigin_{s}.csv")[2]
                for s in cli.SELECTION_SCHEMES]
    lines = ["# function = rastrigin\n"]
    lines += [f"# source_{s} = rastrigin_{s}.csv\n" for s in cli.SELECTION_SCHEMES]
    header = ["generation"] + [f"{s}_{col}" for s in cli.SELECTION_SCHEMES
                               for col in SERIES_COLUMNS[1:]]
    lines.append(",".join(header) + "\r\n")
    for parts in zip(*siblings):
        cells = [parts[0][0], *(cell for row in parts for cell in row[1:])]
        lines.append(",".join(cells) + "\r\n")
    assert combined.read_bytes() == "".join(lines).encode()


def _args_file(path: Path, text: str) -> str:
    """Write an argument file; return the ``@FILE`` argument that reads it."""
    path.write_text(text)
    return f"@{path}"


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    at_file = _args_file(
        tmp_path / "exp.args",
        "# comment line\n"
        "\n"
        "--function ackley --selection proportionate\n"
        "--pop-size 30   # trailing comment\n"
        "--runs 3\n"
        "--runs 4  # a setting given again: the later one wins\n",
    )
    cfg = _parsed_config(monkeypatch, ["run", at_file, "--runs", "5"])
    assert cfg.function == "ackley"
    assert cfg.pop_size == 30
    assert cfg.runs == 5  # flag after the file wins over it
    assert cfg.generations == 100  # default fills the rest
    # a flag before the file loses to it
    assert _parsed_config(monkeypatch, ["run", "--runs", "5", at_file]).runs == 4


def test_config_file_values_take_the_field_types(tmp_path, monkeypatch):
    at_file = _args_file(
        tmp_path / "exp.args",
        "--function ackley --selection cauchy-boltzmann --g0 1.5\n"
        "--dims 3 --crossover-prob 1 --output 'out dir/with space'\n",
    )
    cfg = _parsed_config(monkeypatch, ["run", at_file])
    assert cfg.selection == "cauchy_boltzmann"
    assert cfg.g0 == 1.5 and type(cfg.g0) is float
    assert cfg.dims == 3 and type(cfg.dims) is int
    assert cfg.crossover_prob == 1.0 and type(cfg.crossover_prob) is float
    assert cfg.output == "out dir/with space"


def test_merge_rejects_unknown_keys_and_missing_required(tmp_path):
    # an unknown setting is an unknown flag, in a file as on the command line
    at_file = _args_file(tmp_path / "exp.args", "--pop-sizes 10\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--function", "ackley", "--selection", "proportionate", at_file])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="missing required setting: function"):
        merge_config({"selection": "proportionate"})
    assert merge_config({"function": "ackley", "selection": "cauchy-boltzmann",
                         "runs": None, "command": "run"}) == CliConfig(
        "ackley", "cauchy_boltzmann")


@pytest.mark.parametrize(
    "text, flags, message",
    [("--no-such-flag 1\n", [], "unrecognized arguments: --no-such-flag 1"),
     # an abbreviation of --pop-size
     ("--pop 30\n", [], "unrecognized arguments: --pop 30"),
     ("--runs 1.5\n", [], "argument --runs: invalid int value: '1.5'"),
     ("--function sphere\n", [], "argument --function: invalid choice: 'sphere'"),
     ("--selection rank\n", [], "argument --selection: invalid choice: 'rank'"),
     ("--g0 1\n", ["--gamma-target", "300"],
      "--g0 and --gamma-target are mutually exclusive"),
     (None, [], "No such file or directory")],
    ids=["unknown-flag", "abbreviated-flag", "bad-int", "unknown-function",
         "unknown-scheme", "g0-in-file-with-gamma-target-flag", "missing-file"],
)
def test_a_bad_argument_file_exits_2_before_anything_is_written(
    tmp_path, capsys, text, flags, message
):
    path = tmp_path / "exp.args"
    at_file = f"@{path}" if text is None else _args_file(path, text)
    out = tmp_path / "out"
    argv = ["run", "--function", "ackley", "--selection", "cauchy-boltzmann",
            "--generations", "2", "--pop-size", "10", "--runs", "1",
            "--output", str(out), at_file, *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_an_unclosed_quote_in_an_argument_file_is_a_usage_error(tmp_path, capsys):
    at_file = _args_file(tmp_path / "exp.args", "--output 'no end\n")
    argv = ["run", "--function", "ackley", "--selection", "proportionate", at_file]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: No closing quotation\n"


@pytest.mark.parametrize(
    "files, named",
    [({"self.args": "@self.args\n"}, "self.args"),
     ({"self.args": "--runs 2 @./self.args\n"}, "./self.args"),
     ({"a.args": "--runs 2\n@b.args\n", "b.args": "--pop-size 10 @a.args\n"}, "a.args")],
    ids=["names-itself", "names-itself-by-another-path", "two-file-cycle"],
)
def test_an_argument_file_that_includes_itself_is_a_usage_error(
    tmp_path, capsys, monkeypatch, files, named
):
    # argparse would read the file again until the stack overflows; the
    # error names the file as it is written where the cycle closes
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    first = next(iter(files))
    argv = ["run", "--function", "ackley", "--selection", "proportionate", f"@{first}",
            "--output", "out"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: argument file {named} includes itself\n")
    assert not (tmp_path / "out").exists()


def test_an_argument_file_read_twice_without_a_cycle_is_read_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("alpha.args").write_text("--alpha 2\n")
    Path("both.args").write_text("@alpha.args @alpha.args --g0 1\n")
    assert main(["schedule", "@both.args", "@alpha.args", "--horizon", "2", "--output", "o"]) == 0
    assert (tmp_path / "o" / "schedule_alpha2.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--function", "ackley", "--selection", "proportionate", "--pop", "30"],
     ["verify", "--case", "5"],
     ["schedule", "--alpha", "2", "--g0", "1", "--hor", "3"]],
    ids=["run", "verify", "schedule"],
)
def test_abbreviated_flags_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_an_output_beginning_with_at_is_taken_literally(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_run_argv("ignored", "--output=@x")) == 0
    assert (tmp_path / "@x" / "rastrigin_boltzmann_const.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_a_run_from_an_argument_file_writes_the_typed_run_bytes(tmp_path):
    flags = ["--function", "schwefel", "--selection", "cauchy-boltzmann",
             "--alpha", "1.5", "--gamma-target", "30", "--generations", "4",
             "--pop-size", "11", "--runs", "2", "--seed", "9", "--dims", "3",
             "--mutation-prob", "0.05", "--elitism"]
    typed = tmp_path / "typed dir"
    assert main(["run", *flags, "--output", str(typed)]) == 0
    from_file = tmp_path / "file dir"
    text = "# the same settings\n" + " ".join(flags[:8]) + "\n" + " ".join(flags[8:])
    at_file = _args_file(tmp_path / "exp.args", f"{text}\n--output '{from_file}'\n")
    assert main(["run", at_file]) == 0
    name = "schwefel_cauchy_boltzmann.csv"
    assert (from_file / name).read_bytes() == (typed / name).read_bytes()


def test_verify_and_schedule_read_their_flags_from_a_file(tmp_path):
    verify_file = _args_file(tmp_path / "verify.args",
                             f"verify --seed 5 --cases 20\n--output {tmp_path / 'v'}\n")
    assert main([verify_file]) == 0
    assert main(["verify", "--seed", "5", "--cases", "20", "--output", str(tmp_path / "w")]) == 0
    for name in ("verify_cases.csv", "verify_report.txt"):
        assert (tmp_path / "v" / name).read_bytes() == (tmp_path / "w" / name).read_bytes()
    schedule_file = _args_file(tmp_path / "schedule.args",
                               "--alpha 2 --g0 1 --horizon 3  # three rows\n")
    assert main(["schedule", schedule_file, "--output", str(tmp_path / "s")]) == 0
    _, _, rows = read_series_csv(tmp_path / "s" / "schedule_alpha2.csv")
    assert [row[0] for row in rows] == ["1", "2", "3"]


def test_cli_main_run_and_exit_codes(tmp_path):
    out = str(tmp_path)
    rc = main(
        [
            "run", "--function", "rastrigin", "--selection", "cauchy-boltzmann",
            "--alpha", "2", "--gamma-target", "300", "--generations", "2",
            "--pop-size", "20", "--runs", "1", "--output", out,
        ]
    )
    assert rc == 0
    meta, _, rows = read_series_csv(tmp_path / "rastrigin_cauchy_boltzmann.csv")
    assert len(rows) == 2
    # calibrated g0 echoed for provenance
    assert float(meta["g0_effective"]) == pytest.approx(
        calibrate_g0(2.0, 2, 300.0), rel=1e-12
    )


def test_cli_rejects_g0_with_gamma_target(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "run", "--function", "rastrigin", "--selection",
                "cauchy-boltzmann", "--g0", "1", "--gamma-target", "300",
                "--output", str(tmp_path),
            ]
        )
    assert exc.value.code == 2


def test_cli_rejects_unknown_function(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--function", "sphere", "--selection", "proportionate"])
    assert exc.value.code == 2


def test_unknown_scheme_is_rejected_before_anything_runs(tmp_path, capsys):
    # a CliConfig built directly, as the bench and the acceptance grid build it
    cfg = tiny_cfg(tmp_path, selection="rank")
    with pytest.raises(ValueError, match="unknown selection scheme: 'rank'"):
        run_experiment(cfg)
    assert not list(tmp_path.iterdir())
    # and through an argument file, whose flags argparse's choices judge
    at_file = _args_file(tmp_path / "exp.args", "--function rastrigin --selection rank\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", at_file, "--output", str(out)])
    assert exc.value.code == 2
    assert "argument --selection: invalid choice: 'rank'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_function_in_a_config_file_is_rejected_before_anything_runs(
    tmp_path, capsys
):
    at_file = _args_file(tmp_path / "exp.args", "--function sphere --selection proportionate\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", at_file, "--output", str(out)])
    assert exc.value.code == 2
    assert "argument --function: invalid choice: 'sphere'" in capsys.readouterr().err
    assert not out.exists()


def test_a_non_bool_elitism_is_rejected_before_anything_is_written(tmp_path):
    # "false" is truthy: it ran with elitism on while the CSV said false
    with pytest.raises(ValueError, match="elitism must be a bool, got 'false'"):
        run_experiment(tiny_cfg(tmp_path / "out", elitism="false"))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scheme, setting",
    [("cauchy_boltzmann", "alpha"), ("cauchy_boltzmann", "g0"), ("boltzmann_const", "gamma")],
)
def test_build_ga_config_names_a_schedule_setting_that_is_not_a_number(scheme, setting):
    # main catches ValueError only: a TypeError from deep inside would escape it
    cfg = CliConfig("ackley", scheme, **{setting: "2"})
    with pytest.raises(ValueError, match=f"{setting} must be a real number, got '2'"):
        cli.build_ga_config(cfg)


def test_every_engine_setting_is_set_from_a_run_field():
    # every GaConfig field but objective and schedule, each at a value that
    # is not its default, so a field left at its default would show
    settings = {"generations": 7, "pop_size": 9, "runs": 3, "seed": 11, "bits_per_var": 6,
                "crossover_prob": 0.25, "mutation_prob": 0.02, "elitism": True}
    ga, _ = cli.build_ga_config(CliConfig("ackley", "proportionate", dims=4, **settings))
    renamed = {"seed": "master_seed", "mutation_prob": "mutation_prob_per_bit"}
    expected = {renamed.get(name, name): value for name, value in settings.items()}
    engine_fields = [f for f in dataclasses.fields(engine.GaConfig)
                     if f.name not in ("objective", "schedule")]
    assert {f.name: getattr(ga, f.name) for f in engine_fields} == expected
    assert all(f.default != expected[f.name] for f in engine_fields)
    assert ga.objective.dims == 4


def test_metadata_writes_numpy_bools_as_true_false():
    for value, text in ((np.True_, "true"), (np.False_, "false")):
        assert cli._metadata(CliConfig("ackley", "proportionate", elitism=value), None)[
            "elitism"] == text


@pytest.mark.parametrize("scheme", cli.SELECTION_SCHEMES)
def test_each_scheme_name_maps_to_one_schedule(tmp_path, scheme):
    cfg = tiny_cfg(tmp_path, selection=scheme, gamma=7.0, alpha=1.5)
    ga, g0_effective = cli.build_ga_config(cfg)
    gammas = engine._run_stack(ga, (0,))[0][:, 0].tolist()
    if scheme == cli.PROPORTIONATE:
        assert ga.schedule is None and g0_effective is None
        assert gammas == [0.0] * cfg.generations
    elif scheme == cli.BOLTZMANN_CONST:
        assert ga.schedule == constant_schedule(cfg.gamma) and g0_effective is None
        assert gammas == [cfg.gamma] * cfg.generations
    else:
        assert g0_effective == calibrate_g0(cfg.alpha, cfg.generations, cfg.gamma_target)
        assert ga.schedule == cauchy_schedule(g0_effective, cfg.alpha)
        assert gammas == [gamma_at(ga.schedule, n) for n in range(1, cfg.generations + 1)]


def test_constant_scheme_runs_as_the_cauchy_scheme_at_alpha_inf(tmp_path):
    # an odd pool exercises the leftover pairing
    common = ["--function", "rastrigin", "--generations", "20", "--pop-size", "21",
              "--runs", "3"]
    rows = {}
    for name, flags in (
        ("cauchy", ["--selection", "cauchy-boltzmann", "--alpha", "inf", "--g0", "300"]),
        ("const", ["--selection", "boltzmann-const", "--gamma", "300"]),
    ):
        out = tmp_path / name
        assert main(["run", *common, *flags, "--output", str(out)]) == 0
        (path,) = out.glob("rastrigin_*.csv")
        rows[name] = read_series_csv(path)[2]
    assert rows["cauchy"] == rows["const"]
    assert {row[1] for row in rows["const"]} == {"300"}


def test_cli_unwritable_output_fails(tmp_path):
    rc = main(
        [
            "run", "--function", "rastrigin", "--selection", "proportionate",
            "--generations", "1", "--pop-size", "10", "--runs", "1",
            "--output", "/dev/null/nope",
        ]
    )
    assert rc == 2


def test_cli_rejects_single_individual(tmp_path, capsys):
    rc = main(
        [
            "run", "--function", "ackley", "--selection", "proportionate",
            "--pop-size", "1", "--generations", "2", "--runs", "1",
            "--output", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "error: pop_size must be >= 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [
        ["--selection", "boltzmann-const", "--gamma", "nan"],
        ["--selection", "boltzmann-const", "--gamma", "inf"],
        ["--selection", "cauchy-boltzmann", "--gamma-target", "inf"],
        ["--selection", "cauchy-boltzmann", "--g0", "nan"],
    ],
)
def test_cli_rejects_non_finite_gamma(tmp_path, capsys, flags):
    rc = main(
        ["run", "--function", "ackley", *flags, "--pop-size", "10",
         "--generations", "2", "--runs", "1", "--output", str(tmp_path)]
    )
    assert rc == 2
    assert "error: inverse temperature must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--alpha", "2", "--gamma-target", "-5"],
        ["run", "--function", "ackley", "--selection", "cauchy-boltzmann",
         "--gamma-target", "-5", "--pop-size", "10", "--generations", "2",
         "--runs", "1"],
    ],
    ids=["schedule", "run"],
)
def test_cli_names_a_negative_gamma_target(tmp_path, capsys, argv):
    assert main([*argv, "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: inverse temperature must be nonnegative" in err
    assert "g0" not in err  # a setting the command line never gave
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("via_file", (False, True), ids=("flag", "config-file"))
@pytest.mark.parametrize(
    "selection", ("proportionate", "boltzmann-const", "cauchy-boltzmann")
)
def test_cli_names_zero_generations_under_every_scheme(
    tmp_path, capsys, selection, via_file
):
    # the Cauchy scheme calibrates g0 to the horizon; the settings are
    # checked first, so its message names the flag, not the horizon
    out = tmp_path / "out"
    argv = ["run", "--function", "ackley", "--selection", selection, "--output", str(out)]
    if via_file:
        argv.append(_args_file(tmp_path / "run.args", "--generations 0\n"))
    else:
        argv += ["--generations", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: generations must be >= 1\n"
    assert not out.exists()


def test_cli_rejects_bits_per_var_above_16(tmp_path, capsys):
    rc = main(
        ["run", "--function", "ackley", "--selection", "proportionate",
         "--bits-per-var", "17", "--pop-size", "10", "--generations", "2",
         "--runs", "1", "--output", str(tmp_path)]
    )
    assert rc == 2
    assert "error: bits_per_var must be in [1, 16]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    assert main(_run_argv(tmp_path / "out", "--seed", "-1")) == 2
    assert capsys.readouterr().err == "error: master_seed must be >= 0\n"
    assert not list(tmp_path.iterdir())


def test_cli_runs_a_seed_past_64_bits(tmp_path):
    # the seed sequence takes the whole integer, so 2**64 is not seed 0
    for seed in (0, 2**64):
        assert main(_run_argv(tmp_path / str(seed), "--seed", str(seed))) == 0
    rows = [read_series_csv(tmp_path / str(seed) / "rastrigin_boltzmann_const.csv")
            for seed in (0, 2**64)]
    assert rows[1][0]["master_seed"] == str(2**64)
    assert rows[0][2] != rows[1][2]


def test_cli_accepts_the_largest_64_bit_seed(tmp_path):
    assert main(_run_argv(tmp_path, "--seed", str(2**64 - 1))) == 0
    meta, _, _ = read_series_csv(tmp_path / "rastrigin_boltzmann_const.csv")
    assert meta["master_seed"] == str(2**64 - 1)


def test_experiment_bytes_do_not_depend_on_the_lattice_cache(tmp_path):
    engine._lattice.cache_clear()
    cold = run_experiment(tiny_cfg(tmp_path / "cold", function="schwefel"))[0]
    warm = run_experiment(tiny_cfg(tmp_path / "warm", function="schwefel"))[0]
    assert engine._lattice.cache_info().hits > 0
    assert cold.read_bytes() == warm.read_bytes()


def test_schedule_rows_hand_computed(tmp_path):
    path = emit_schedule(2.0, 3, tmp_path, g0=1.0)
    _, header, rows = read_series_csv(path)
    assert header == ["n", "gamma_n"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    gammas = [float(r[1]) for r in rows]
    assert gammas[0] == 1.0
    assert gammas[1] == 1.25
    assert gammas[2] == pytest.approx(1.0 + 0.25 + 1 / 9, abs=1e-15)


def test_schedule_horizon_one_calibrated(tmp_path):
    path = emit_schedule(2.0, 1, tmp_path, gamma_target=300.0)
    _, _, rows = read_series_csv(path)
    assert rows == [["1", "300"]]


def test_schedule_families_calibrated_to_common_target(tmp_path):
    for alpha in (1.0001, 1.1, 1.5, 2.0):
        path = emit_schedule(alpha, 100, tmp_path, gamma_target=300.0)
        _, _, rows = read_series_csv(path)
        gammas = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == pytest.approx(300.0, rel=1e-9)


def test_schedule_requires_exactly_one_of_g0_target(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        emit_schedule(2.0, 5, tmp_path)
    with pytest.raises(ValueError, match="exactly one"):
        emit_schedule(2.0, 5, tmp_path, g0=1.0, gamma_target=300.0)


@pytest.mark.parametrize("horizon", [True, 2.0])
@pytest.mark.parametrize("g0, gamma_target", [(None, 300.0), (2.0, None)])
def test_schedule_horizon_must_be_an_integer(tmp_path, horizon, g0, gamma_target):
    # True wrote one row under '# horizon = True'
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^horizon must be an integer, got {horizon}$"):
        emit_schedule(2.0, horizon, out, g0=g0, gamma_target=gamma_target)
    assert not out.exists()


def test_cli_schedule_subcommand(tmp_path):
    rc = main(
        ["schedule", "--alpha", "2", "--g0", "1", "--horizon", "3",
         "--output", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "schedule_alpha2.csv").exists()


def test_schedule_distinct_alphas_write_distinct_files(tmp_path):
    alphas = (1.0000001, 1.0000002, 1.1, 1.5, 2.0, 3.0)
    paths = [emit_schedule(a, 3, tmp_path, g0=1.0) for a in alphas]
    assert len(set(paths)) == len(alphas)
    # alphas whose short name reads back exactly keep it
    assert [p.name for p in paths[2:]] == [
        "schedule_alpha1.1.csv", "schedule_alpha1.5.csv",
        "schedule_alpha2.csv", "schedule_alpha3.csv",
    ]
    for alpha, path in zip(alphas, paths):
        meta, _, _ = read_series_csv(path)
        assert float(meta["alpha"]) == alpha


def test_cli_verify_subcommand_passes(tmp_path):
    rc = main(["verify", "--cases", "30", "--seed", "5",
               "--output", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "verify_report.txt").exists()
    assert (tmp_path / "verify_cases.csv").exists()


def test_verify_single_case(tmp_path):
    result = run_verify(9, 1, tmp_path)
    assert result.ok
    assert result.cases  # at least one row per suite


def test_verify_broken_tolerance_fails(tmp_path, monkeypatch):
    # injected broken tolerance forces the failure path end to end
    monkeypatch.setattr(verify, "LEMMA_SLACK", -1.0)
    result = run_verify(11, 50, tmp_path)
    assert not result.ok
    assert result.first_failure is not None
    report = (tmp_path / "verify_report.txt").read_text()
    assert "FAILURES PRESENT" in report
    assert "first failure" in report


def test_cli_verify_failure_exits_1_with_the_report_line(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(verify, "LEMMA_SLACK", -1.0)
    argv = ["verify", "--cases", "20", "--seed", "11", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    result = run_verify(11, 20, tmp_path / "direct")
    assert not result.ok
    assert out.splitlines() == result.suite_lines
    report = (tmp_path / "cli" / "verify_report.txt").read_text().splitlines()
    first = [line for line in report if line.startswith("first failure: ")]
    assert err.splitlines() == first == [result.failure_line()]
    assert first[0].startswith(f"first failure: {result.first_failure.case_id} ")


def test_verify_failure_details_print_plain_floats(tmp_path, monkeypatch):
    # numpy 2 prints a numpy float's repr as np.float64(...), numpy 1 bare;
    # these tolerances fail a case of every suite
    for name, value in (("METRIC_SLACK", -3.0), ("PROFILE_SLACK", -1.0),
                        ("LEMMA_SLACK", -1.0), ("SEMIGROUP_TOL", -1e-3)):
        monkeypatch.setattr(verify, name, value)
    result = run_verify(42, 30, tmp_path)
    failed = [c for c in result.cases if not c.holds]
    assert {c.case_id.split("-")[0] for c in failed} == {
        "metric", "lemma1", "lemma2", "semigroup", "cauchytail"
    }
    report = (tmp_path / "verify_report.txt").read_text()
    for text in (report, result.failure_line(), *(c.detail for c in failed)):
        assert "np." not in text and "float64" not in text
    detail = next(c.detail for c in failed if c.case_id.startswith("lemma1-"))
    gamma1 = detail.split()[0].removeprefix("gamma1=")
    assert float(gamma1) >= 0.0  # a bare number


def _worst_margin(line: str, result) -> tuple[float, object]:
    """The margin a suite line reports, and the case it names."""
    margin, case_id = line.split(", worst margin ")[1].split(" at ")
    return float(margin), next(c for c in result.cases if c.case_id == case_id)


def test_verify_margin_negative_at_reported_case(tmp_path, monkeypatch):
    # a negative semigroup tolerance is a bound no case can meet
    monkeypatch.setattr(verify, "SEMIGROUP_TOL", -1e-3)
    result = run_verify(11, 50, tmp_path)
    line = result.suite_lines[3]
    assert line.startswith("FAIL semigroup: 50 cases, 50 violations")
    margin, worst = _worst_margin(line, result)
    assert worst.case_id.startswith("semigroup-")
    assert not worst.holds
    assert margin == worst.rhs - worst.lhs < 0.0
    suite = [c for c in result.cases if c.case_id.startswith("semigroup-")]
    assert margin == min(c.rhs - c.lhs for c in suite)
    assert line in (tmp_path / "verify_report.txt").read_text().splitlines()


def test_verify_prints_worst_margin_per_suite(tmp_path, capsys):
    assert main(["verify", "--cases", "20", "--seed", "5",
                 "--output", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    result = run_verify(5, 20, tmp_path)
    assert printed == result.suite_lines
    for line, prefix in zip(
        printed, ("metric-", "lemma1-", "lemma2-", "semigroup-", "cauchytail-")
    ):
        margin, worst = _worst_margin(line, result)
        suite = [c for c in result.cases if c.case_id.startswith(prefix)]
        assert worst in suite
        assert margin == worst.margin == min(c.margin for c in suite)


def test_verify_csv_schema(tmp_path):
    run_verify(3, 5, tmp_path)
    lines = (tmp_path / "verify_cases.csv").read_text().splitlines()
    assert lines[0] == "case_id,lhs,rhs"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


@pytest.fixture
def cold_parser():
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


def _run_argv(out, *flags) -> list[str]:
    return [
        "run", "--function", "rastrigin", "--selection", "boltzmann-const",
        "--generations", "3", "--pop-size", "20", "--runs", "2",
        "--output", str(out), *flags,
    ]


def test_main_builds_the_parser_once(tmp_path, monkeypatch, cold_parser):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert main(_run_argv(tmp_path)) == 0
    assert main(["schedule", "--alpha", "2", "--g0", "1", "--horizon", "3",
                 "--output", str(tmp_path)]) == 0
    assert main(["verify", "--cases", "5", "--output", str(tmp_path)]) == 0
    for argv in (
        _run_argv(tmp_path, "--g0", "1", "--gamma-target", "300"),
        _run_argv(tmp_path, "--no-such-flag"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert len(built) == 1


def test_shared_parser_carries_no_state_between_calls(tmp_path, cold_parser):
    assert main(_run_argv(tmp_path / "flagged", "--elitism", "--seed", "7")) == 0
    assert main(_run_argv(tmp_path / "warm")) == 0
    cli._shared_parser.cache_clear()
    assert main(_run_argv(tmp_path / "cold")) == 0
    name = "rastrigin_boltzmann_const.csv"
    warm = (tmp_path / "warm" / name).read_bytes()
    assert warm == (tmp_path / "cold" / name).read_bytes()
    assert warm != (tmp_path / "flagged" / name).read_bytes()


def test_main_runs_after_help(tmp_path, capsys, cold_parser):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: cauchyga" in capsys.readouterr().out
    assert main(["schedule", "--alpha", "2", "--g0", "1", "--horizon", "3",
                 "--output", str(tmp_path)]) == 0


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


# the benchmark protocol's settings: CliConfig field, GaConfig field, value
PROTOCOL_DEFAULTS = [
    ("pop_size", "pop_size", 150),
    ("generations", "generations", 100),
    ("crossover_prob", "crossover_prob", 0.8),
    ("mutation_prob", "mutation_prob_per_bit", 0.01),
    ("runs", "runs", 17),
    ("seed", "master_seed", 42),
    ("elitism", "elitism", False),
    ("bits_per_var", "bits_per_var", 5),
]


def test_cli_and_library_share_the_protocol_defaults():
    cli_defaults = {f.name: f.default for f in dataclasses.fields(CliConfig)}
    ga_defaults = {f.name: f.default for f in dataclasses.fields(engine.GaConfig)}
    for cli_field, ga_field, value in PROTOCOL_DEFAULTS:
        assert cli_defaults[cli_field] == ga_defaults[ga_field] == value, cli_field
        assert type(cli_defaults[cli_field]) is type(ga_defaults[ga_field]) is type(value)


# The run subcommand's flags, in order, each with the CliConfig field it sets,
# a value to pass and the value (and type) the field must then hold. Renaming
# a CliConfig field renames its flag, which these tests then catch.
RUN_FLAGS = [
    ("--function", "function", "ackley", "ackley"),
    ("--selection", "selection", "cauchy-boltzmann", "cauchy_boltzmann"),
    ("--alpha", "alpha", "2.5", 2.5),
    ("--g0", "g0", "1.5", 1.5),
    ("--gamma", "gamma", "7", 7.0),
    ("--gamma-target", "gamma_target", "9", 9.0),
    ("--generations", "generations", "4", 4),
    ("--pop-size", "pop_size", "12", 12),
    ("--runs", "runs", "3", 3),
    ("--seed", "seed", "11", 11),
    ("--bits-per-var", "bits_per_var", "6", 6),
    ("--dims", "dims", "2", 2),
    ("--crossover-prob", "crossover_prob", "1", 1.0),
    ("--mutation-prob", "mutation_prob", "0.05", 0.05),
    ("--elitism", "elitism", None, True),
    ("--output", "output", "out", "out"),
]


def _run_subparser() -> argparse.ArgumentParser:
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices["run"]


def test_run_flags_are_the_config_fields_in_order():
    flags = [a.option_strings for a in _run_subparser()._actions]
    assert flags == [
        ["-h", "--help"],
        *(["--elitism", "--no-elitism"] if f == "--elitism" else [f]
          for f, *_ in RUN_FLAGS),
    ]


def _parsed_config(monkeypatch, argv) -> CliConfig:
    """The CliConfig that ``main`` would run for ``argv``."""
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
    assert main(argv) == 0
    return seen[0]


@pytest.mark.parametrize(
    "flag, field, text, value", RUN_FLAGS, ids=[f for f, *_ in RUN_FLAGS]
)
def test_run_flag_sets_its_config_field(monkeypatch, flag, field, text, value):
    base = ["run", "--function", "griewangk", "--selection", "proportionate"]
    passed = [flag] if text is None else [flag, text]
    cfg = _parsed_config(monkeypatch, [*base, *passed])
    assert getattr(cfg, field) == value
    assert type(getattr(cfg, field)) is type(value)
    assert getattr(CliConfig("griewangk", "proportionate"), field) != value


@pytest.mark.parametrize(
    "flags, elitism, over_file_on",
    [([], False, True), (["--elitism"], True, True), (["--no-elitism"], False, False),
     (["--elitism", "--no-elitism"], False, False)],
)
def test_elitism_flag_pair(tmp_path, monkeypatch, flags, elitism, over_file_on):
    base = ["run", "--function", "ackley", "--selection", "proportionate"]
    assert _parsed_config(monkeypatch, [*base, *flags]).elitism is elitism
    # after a file that turns elitism on, only --no-elitism turns it off
    on_file = _args_file(tmp_path / "on.args", "--elitism\n")
    assert _parsed_config(monkeypatch, [*base, on_file, *flags]).elitism is over_file_on
    # and a file can turn it off again
    off_file = _args_file(tmp_path / "off.args", " ".join(flags) + " --no-elitism\n")
    assert _parsed_config(monkeypatch, [*base, off_file]).elitism is False


def _small_run_argv(out) -> list[str]:
    return [
        "run", "--function", "rastrigin", "--selection", "boltzmann-const",
        "--generations", "3", "--pop-size", "10", "--runs", "1",
        "--output", str(out),
    ]


@pytest.mark.parametrize(
    "content", ["", "# function = rastrigin\n# selection = proportionate\n"],
    ids=["empty", "metadata-only"],
)
def test_sibling_csv_without_a_header_row_is_a_usage_error(tmp_path, capsys, content):
    sibling = tmp_path / "rastrigin_proportionate.csv"
    sibling.write_text(content)
    with pytest.raises(ValueError, match="no header row"):
        read_series_csv(sibling)
    assert main(_small_run_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sibling) in err


def test_sibling_csv_with_only_a_column_header_cannot_join(tmp_path):
    sibling = tmp_path / "rastrigin_proportionate.csv"
    sibling.write_text(",".join(SERIES_COLUMNS) + "\r\n")
    assert read_series_csv(sibling) == ({}, list(SERIES_COLUMNS), [])
    assert main(_small_run_argv(tmp_path)) == 0
    assert not (tmp_path / "rastrigin_combined.csv").exists()


def _damaged_sibling(tmp_path, damage) -> tuple:
    """A good proportionate series of 3 rows, its 2nd data row passed to ``damage``.

    Returns the sibling's path and the file line number of that row.
    """
    sibling = run_experiment(tiny_cfg(tmp_path, selection="proportionate"))[0]
    lines = sibling.read_bytes().splitlines(keepends=True)
    lineno = [i for i, line in enumerate(lines, 1) if line.startswith(b"2,")][0]
    lines[lineno - 1] = damage(lines[lineno - 1].removesuffix(b"\r\n")) + b"\r\n"
    sibling.write_bytes(b"".join(lines))
    return sibling, lineno


@pytest.mark.parametrize(
    "damage",
    [lambda line: b"", lambda line: b",".join(line.split(b",")[:4]),
     lambda line: line + b",0"],
    ids=["blank-line", "too-few-cells", "too-many-cells"],
)
def test_sibling_data_row_of_the_wrong_width_is_a_usage_error(tmp_path, capsys, damage):
    sibling, lineno = _damaged_sibling(tmp_path, damage)
    assert main(_small_run_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sibling}:{lineno}: ")
    assert not (tmp_path / "rastrigin_combined.csv").exists()


def test_sibling_with_another_header_is_a_usage_error(tmp_path, capsys):
    sibling = run_experiment(tiny_cfg(tmp_path, selection="proportionate"))[0]
    text = sibling.read_text()
    sibling.write_text(text.replace("strength_mean", "strength_std"))
    assert main(_small_run_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sibling}: header is not ")
    assert not (tmp_path / "rastrigin_combined.csv").exists()


def test_series_rewritten_in_place_holds_exactly_the_new_bytes(tmp_path):
    reused = run_experiment(tiny_cfg(tmp_path / "reused", generations=20))[0]
    inode = reused.stat().st_ino
    assert run_experiment(tiny_cfg(tmp_path / "reused", generations=5))[0] == reused
    assert reused.stat().st_ino == inode  # the same file, written over
    fresh = run_experiment(tiny_cfg(tmp_path / "fresh", generations=5))[0]
    assert reused.read_bytes() == fresh.read_bytes()


def test_combined_rewritten_in_place_holds_exactly_the_new_bytes(tmp_path):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    for scheme in ("proportionate", "boltzmann_const"):
        paths = run_experiment(tiny_cfg(reused, selection=scheme, generations=20))
    combined = paths[-1]
    inode = combined.stat().st_ino
    for scheme in ("proportionate", "boltzmann_const"):
        (reused / f"rastrigin_{scheme}.csv").unlink()  # the 20-row join stays
    for out in (reused, fresh):
        for scheme in ("proportionate", "boltzmann_const"):
            paths = run_experiment(tiny_cfg(out, selection=scheme, generations=5))
    assert paths[-1] == fresh / combined.name
    assert combined.stat().st_ino == inode
    assert len(read_series_csv(combined)[2]) == 5
    assert combined.read_bytes() == paths[-1].read_bytes()


def test_schedule_rewritten_in_place_holds_exactly_the_new_bytes(tmp_path):
    reused = emit_schedule(2.0, 30, tmp_path / "reused", gamma_target=300.0)
    inode = reused.stat().st_ino
    assert emit_schedule(2.0, 3, tmp_path / "reused", gamma_target=300.0) == reused
    assert reused.stat().st_ino == inode
    fresh = emit_schedule(2.0, 3, tmp_path / "fresh", gamma_target=300.0)
    assert reused.read_bytes() == fresh.read_bytes()
    assert len(read_series_csv(reused)[2]) == 3


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
def test_new_result_files_get_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        reference = tmp_path / "reference"
        open(reference, "w").close()
        written = run_experiment(tiny_cfg(tmp_path, selection="proportionate"))
        written += run_experiment(tiny_cfg(tmp_path))
        written.append(emit_schedule(2.0, 3, tmp_path, g0=1.0))
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(reference.stat().st_mode)
    assert mode == 0o666 & ~umask
    assert len(written) == 4  # two series, the join and the schedule
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {mode}
