"""run_verify's runner: every suite in the caller, no process started.

A defect patched into the one Boltzmann tilt or the one distance before a
call must reach every suite that uses it; a halved distance must fail the
metric suite; an error in a suite must reach the caller; and importing the
CLI must not import the process-pool modules.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cauchyga
from cauchyga import nfd, selection, theory, verify
from cauchyga.cli import main
from cauchyga.verify import run_verify


def test_run_verify_starts_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("run_verify forked")

    monkeypatch.setattr(os, "fork", no_fork)
    result = run_verify(42, 100, tmp_path)
    assert result.ok
    assert len(result.suite_lines) == len(verify.SUITES)


def test_a_patch_made_before_the_call_reaches_the_suites(tmp_path, monkeypatch):
    # a broken distance reaches metric; a broken tilt reaches every suite
    # that tilts; each is patched wherever it is looked up
    def nan_tilt(values, masses, lengths, gammas):
        return np.full_like(masses, np.nan)

    def three(masses1, masses2):  # NaN where a row holds a NaN, else 3
        return (0.0 * (masses1 - masses2).sum(axis=1) + 3.0).tolist()

    for module in (nfd, theory, verify):
        monkeypatch.setattr(module, "row_distances", three)
    for module in (selection, theory, verify):
        monkeypatch.setattr(module, "boltzmann_tilt", nan_tilt)
    result = run_verify(42, 100, tmp_path / "direct")
    assert result.ok is False
    for line, name in zip(result.suite_lines, ["metric", "lemma1", "lemma2", "semigroup"]):
        assert line.startswith(f"FAIL {name}: 100 cases, 100 violations"), line
    assert result.suite_lines[4].startswith("FAIL cauchy-tail: 12 cases, 12 violations")
    argv = ["verify", "--cases", "100", "--seed", "42", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1


def test_a_halved_distance_fails_the_metric_suite_alone(tmp_path, monkeypatch):
    # only the normalization check sees it: disjoint NFDs land at 1, not 2;
    # every other check and suite is unchanged by a common factor of 1/2
    assert run_verify(42, 100, tmp_path / "sound").ok
    whole = nfd.row_distances
    for module in (nfd, theory, verify):
        monkeypatch.setattr(module, "row_distances", lambda a, b: [d / 2 for d in whole(a, b)])
    result = run_verify(42, 100, tmp_path / "halved")
    assert result.ok is False
    names = ["metric", "lemma1", "lemma2", "semigroup", "cauchy-tail"]
    expected = ["FAIL metric", *(f"PASS {name}" for name in names[1:])]
    assert [line.split(":")[0] for line in result.suite_lines] == expected
    assert result.first_failure.detail == "disjoint NFDs not at distance 2"
    argv = ["verify", "--cases", "100", "--seed", "42", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1


def test_the_csv_is_what_csv_writer_writes(tmp_path):
    # run_verify formats its rows by hand, which is right only while no
    # field needs quoting
    result = run_verify(42, 100, tmp_path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["case_id", "lhs", "rhs"])
    writer.writerows([c.case_id, f"{c.lhs:.17g}", f"{c.rhs:.17g}"] for c in result.cases)
    assert (tmp_path / "verify_cases.csv").read_bytes() == expected.getvalue().encode()


def test_a_case_holds_exactly_when_its_detail_is_empty(tmp_path, monkeypatch):
    # a negative tolerance fails every semigroup case; the other suites hold
    monkeypatch.setattr(verify, "SEMIGROUP_TOL", -1e-3)
    result = run_verify(42, 30, tmp_path)
    assert {c.holds for c in result.cases} == {True, False}
    assert all(c.holds == (c.detail == "") for c in result.cases)


def boom():
    raise ValueError("boom")


def then(suite, act):
    """``suite``, calling ``act()`` after its last case."""

    def wrapped(rng, cases):
        results = suite(rng, cases)
        act()
        return results

    return wrapped


def test_an_error_in_a_suite_reaches_the_caller(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "lemma2_suite", then(verify.lemma2_suite, boom))
    with pytest.raises(ValueError, match="^boom$"):
        run_verify(42, 100, tmp_path)


def test_a_suite_patched_before_the_call_is_the_one_that_runs(tmp_path, monkeypatch):
    failing = verify.CaseResult("lemma2-000000", 1.0, 0.5, "patched")
    monkeypatch.setattr(verify, "lemma2_suite", lambda rng, cases: [failing])
    result = run_verify(42, 100, tmp_path / "direct")
    assert result.suite_lines[2] == (
        "FAIL lemma2: 1 cases, 1 violations, worst margin -0.5 at lemma2-000000"
    )
    assert [line.split(":")[0] for i, line in enumerate(result.suite_lines) if i != 2] == [
        "PASS metric", "PASS lemma1", "PASS semigroup", "PASS cauchy-tail"
    ]
    assert result.first_failure == failing
    argv = ["verify", "--cases", "100", "--seed", "42", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1


@pytest.mark.parametrize("blocks", [[1], [verify.CASE_BLOCK, 3]])
def test_the_metric_suite_checks_only_the_cases_it_reports(monkeypatch, blocks):
    # it draws whole blocks, but measures only the rows of its cases
    rows = []

    def spy(masses1, masses2):
        rows.append((len(masses1), len(masses2)))
        return whole(masses1, masses2)

    whole = verify.row_distances
    monkeypatch.setattr(verify, "row_distances", spy)
    assert len(verify.metric_suite(np.random.default_rng(191), sum(blocks))) == sum(blocks)
    assert rows == [(n, n) for n in blocks for _ in range(5)]


def test_importing_the_cli_leaves_the_process_pool_modules_out():
    # they would add about 1 MB of RSS to every process that runs a GA
    code = (
        "import sys, cauchyga.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    src = Path(cauchyga.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "seed, cases, message",
    [(-1, 5, "seed must be >= 0"),
     (True, 5, "seed must be an integer, got True"),
     (2, True, "case_count must be an integer, got True"),
     (2, 5.0, "case_count must be an integer, got 5.0")],
)
def test_seed_and_case_count_are_checked_before_anything_is_made(
    tmp_path, seed, cases, message
):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_verify(seed, cases, out)
    assert not out.exists()


def test_cli_names_a_negative_verify_seed_and_makes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--seed", "-1", "--cases", "5", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()
