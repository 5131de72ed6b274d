"""CSV emission, config precedence, exit codes, and the verify path."""

from __future__ import annotations

import pytest

from cauchyga.annealing import calibrate_g0
from cauchyga.cli import (
    CliConfig,
    emit_schedule,
    load_config_file,
    main,
    merge_config,
    read_series_csv,
    run_experiment,
    SERIES_COLUMNS,
)
from cauchyga.verify import Tolerances, run_verify


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


def test_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "function = ackley\n"
        "selection = proportionate\n"
        "pop_size = 30   # trailing comment\n"
        "runs = 3\n"
    )
    values = load_config_file(cfg_file)
    assert values == {
        "function": "ackley",
        "selection": "proportionate",
        "pop_size": "30",
        "runs": "3",
    }
    cfg = merge_config({"runs": 5}, values)
    assert cfg.function == "ackley"
    assert cfg.pop_size == 30
    assert cfg.runs == 5  # flag wins over file
    assert cfg.generations == 100  # default fills the rest


def test_config_file_values_take_the_field_types():
    cfg = merge_config(
        {},
        {"function": "ackley", "selection": "cauchy-boltzmann", "g0": "1.5",
         "dims": "3", "crossover_prob": "1", "output": "out"},
    )
    assert cfg.selection == "cauchy_boltzmann"
    assert cfg.g0 == 1.5 and type(cfg.g0) is float
    assert cfg.dims == 3 and type(cfg.dims) is int
    assert cfg.crossover_prob == 1.0 and type(cfg.crossover_prob) is float
    assert cfg.output == "out"
    with pytest.raises(ValueError):
        merge_config({}, {"function": "ackley", "selection": "proportionate",
                          "pop_size": "1.5"})


def test_config_file_booleans_fail_loudly(tmp_path, capsys):
    base = {"function": "ackley", "selection": "proportionate"}
    for text in ("true", "TRUE", "1", "yes", "On"):
        assert merge_config({}, {**base, "elitism": text}).elitism is True
    for text in ("false", "False", "0", "no", "OFF"):
        assert merge_config({}, {**base, "elitism": text}).elitism is False
    for text in ("ture", "", "2", "y"):
        with pytest.raises(ValueError, match="not a boolean"):
            merge_config({}, {**base, "elitism": text})
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("function = ackley\nselection = proportionate\nelitism = ture\n")
    rc = main(["run", "--config", str(cfg_file), "--output", str(tmp_path)])
    assert rc == 2
    assert "config key elitism: not a boolean: 'ture'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_merge_rejects_unknown_keys_and_missing_required():
    with pytest.raises(ValueError, match="unknown config keys"):
        merge_config({}, {"pop_sizes": "10"})
    with pytest.raises(ValueError, match="missing required setting: function"):
        merge_config({"selection": "proportionate"}, {})


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


def test_verify_broken_tolerance_fails(tmp_path):
    # injected broken tolerance forces the failure path end to end
    result = run_verify(
        11, 50, tmp_path, tolerances=Tolerances(lemma_slack=-1.0)
    )
    assert not result.ok
    assert result.first_failure is not None
    report = (tmp_path / "verify_report.txt").read_text()
    assert "FAILURES PRESENT" in report
    assert "first failure" in report


def test_verify_csv_schema(tmp_path):
    run_verify(3, 5, tmp_path)
    lines = (tmp_path / "verify_cases.csv").read_text().splitlines()
    assert lines[0] == "case_id,lhs,rhs"
    assert all(len(line.split(",")) == 3 for line in lines[1:])
