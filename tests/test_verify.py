"""run_verify's two ways of running the suites: forked workers and in-process.

Both must give the same bytes; patches made before a call must reach the
workers; no worker may outlive a call; and importing the CLI must not
import the process-pool modules.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cauchyga
from cauchyga import verify
from cauchyga.cli import main
from cauchyga.verify import run_verify

OUTPUTS = ("verify_cases.csv", "verify_report.txt")


@pytest.fixture
def pools(monkeypatch) -> list:
    """The process pools run_verify makes while the test runs."""
    made = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return made


def test_workers_and_in_process_give_the_same_results(tmp_path, monkeypatch, pools):
    if verify._workers() < 2:
        pytest.skip("one usable CPU or no fork start method: only the in-process path runs")
    pooled = run_verify(42, 100, tmp_path / "pooled")
    assert len(pools) == 1 and pools[0]._max_workers == verify._workers()
    monkeypatch.setattr(verify, "_workers", lambda: 1)
    local = run_verify(42, 100, tmp_path / "local")
    assert len(pools) == 1
    assert pooled.suite_lines == local.suite_lines
    assert pooled.cases == local.cases
    for name in OUTPUTS:
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "local" / name).read_bytes()


def test_a_patch_made_before_the_call_reaches_the_suites(tmp_path, monkeypatch, pools):
    monkeypatch.setattr(verify, "distance", lambda p, q: 3.0)
    result = run_verify(42, 100, tmp_path / "direct")
    assert result.ok is False
    assert result.suite_lines[0].startswith("FAIL metric: 100 cases, 100 violations")
    argv = ["verify", "--cases", "100", "--seed", "42", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1
    assert len(pools) == (2 if verify._workers() > 1 else 0)
    assert multiprocessing.active_children() == []


def test_a_case_holds_exactly_when_its_detail_is_empty(tmp_path, monkeypatch):
    # a negative tolerance fails every semigroup case; the other suites hold
    monkeypatch.setattr(verify, "SEMIGROUP_TOL", -1e-3)
    result = run_verify(42, 30, tmp_path)
    assert {c.holds for c in result.cases} == {True, False}
    assert all(c.holds == (c.detail == "") for c in result.cases)


def test_an_error_in_a_suite_reaches_the_caller(tmp_path, monkeypatch):
    def boom(rng, cases):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "SUITES", (*verify.SUITES[:2], ("boom", boom), *verify.SUITES[3:]))
    with pytest.raises(ValueError, match="^boom$"):
        run_verify(42, 100, tmp_path)
    assert multiprocessing.active_children() == []


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
