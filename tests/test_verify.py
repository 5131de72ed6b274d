"""run_verify's runner: the caller's share of the suites plus forked helpers.

Every worker count must give the same bytes and equal results; the caller's
share is a fixed function of the suite and worker counts; patches made
before a call must reach the helpers; an error on either side must reach
the caller, and no helper may outlive a call; and importing the CLI must not
import the process-pool modules.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cauchyga
from cauchyga import verify
from cauchyga.cli import main
from cauchyga.verify import run_verify

OUTPUTS = ("verify_cases.csv", "verify_report.txt")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the caller if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"run_verify did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "suites, workers, lengths",
    [(5, 1, [5]), (5, 2, [2, 3]), (5, 3, [1, 2, 2]), (5, 5, [1] * 5), (5, 8, [1] * 5),
     (9, 4, [2, 2, 2, 3]), (1, 2, [1])],
)
def test_shares_are_contiguous_runs_shorter_first(suites, workers, lengths):
    shares = verify._shares(suites, workers)
    assert [len(s) for s in shares] == lengths
    assert [i for s in shares for i in s] == list(range(suites))


def test_at_two_workers_the_caller_runs_metric_and_lemma1():
    own, helper = verify._shares(len(verify.SUITES), 2)
    assert [verify.SUITES[i][0] for i in own] == ["metric", "lemma1"]
    assert [verify.SUITES[i][0] for i in helper] == ["lemma2", "semigroup", "cauchy-tail"]


@needs_fork
def test_workers_and_in_process_give_the_same_results(tmp_path, monkeypatch):
    results = {}
    for workers in (1, 2, 5):
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        results[workers] = run_verify(42, 100, tmp_path / str(workers))
    for workers in (2, 5):
        assert results[workers] == results[1]
        for name in OUTPUTS:
            got, expected = tmp_path / str(workers) / name, tmp_path / "1" / name
            assert got.read_bytes() == expected.read_bytes()
    assert_no_child_left()


@needs_fork
def test_a_patch_made_before_the_call_reaches_the_suites(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_workers", lambda: 2)
    monkeypatch.setattr(verify, "distance", lambda p, q: 3.0)
    result = run_verify(42, 100, tmp_path / "direct")
    assert result.ok is False
    assert result.suite_lines[0].startswith("FAIL metric: 100 cases, 100 violations")
    # semigroup runs in the helper
    assert result.suite_lines[3].startswith("FAIL semigroup: 100 cases, 100 violations")
    argv = ["verify", "--cases", "100", "--seed", "42", "--output", str(tmp_path / "cli")]
    assert main(argv) == 1
    assert_no_child_left()


def test_the_csv_is_what_csv_writer_writes(tmp_path):
    # each process formats its rows by hand, which is right only while no
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
        yield from suite(rng, cases)
        act()

    return wrapped


def patch_every_suite(monkeypatch, act):
    suites = tuple((name, then(suite, act)) for name, suite in verify.SUITES)
    monkeypatch.setattr(verify, "SUITES", suites)


@needs_fork
def test_an_error_in_a_suite_reaches_the_caller(tmp_path, monkeypatch):
    suites = list(verify.SUITES)
    suites[2] = ("boom", then(suites[2][1], boom))
    monkeypatch.setattr(verify, "SUITES", tuple(suites))
    for workers in (1, 2, 5):
        monkeypatch.setattr(verify, "_workers", lambda: workers)
        with deadline(60), pytest.raises(ValueError, match="^boom$"):
            run_verify(42, 100, tmp_path)
        assert_no_child_left()


@needs_fork
def test_an_error_only_in_a_helper_reaches_the_caller(tmp_path, monkeypatch):
    caller = os.getpid()

    def in_the_helper():
        if os.getpid() != caller:
            boom()

    monkeypatch.setattr(verify, "_workers", lambda: 2)
    patch_every_suite(monkeypatch, in_the_helper)
    with deadline(60), pytest.raises(ValueError, match="^boom$"):
        run_verify(42, 1000, tmp_path)
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize(
    "caller_sleep, helper_sleep",
    # the helper has finished its share and blocks on writing its ~250 KB
    # outcome into the pipe; or it is still running, far past the deadline
    [(0.5, 0.0), (0.0, 600.0)],
    ids=["helper-blocked-on-the-pipe", "helper-still-running"],
)
def test_an_error_only_in_the_caller_kills_the_helper(
    tmp_path, monkeypatch, caller_sleep, helper_sleep
):
    caller = os.getpid()

    def in_the_caller():
        if os.getpid() != caller:
            time.sleep(helper_sleep)
        else:
            time.sleep(caller_sleep)
            boom()

    monkeypatch.setattr(verify, "_workers", lambda: 2)
    patch_every_suite(monkeypatch, in_the_caller)
    with deadline(30), pytest.raises(ValueError, match="^boom$"):
        run_verify(42, 1000, tmp_path)
    assert_no_child_left()


@needs_fork
def test_an_error_pickle_cannot_carry_reaches_the_caller_as_its_repr(tmp_path, monkeypatch):
    class Local(Exception):  # defined in a function: pickle cannot find it
        pass

    def raise_local():
        raise Local("boom")

    monkeypatch.setattr(verify, "_workers", lambda: 2)
    suites = list(verify.SUITES)
    suites[4] = ("cauchy-tail", then(suites[4][1], raise_local))
    monkeypatch.setattr(verify, "SUITES", tuple(suites))
    with deadline(60), pytest.raises(RuntimeError, match=r"^Local\('boom'\), unpicklable: "):
        run_verify(42, 100, tmp_path)
    assert_no_child_left()


@needs_fork
def test_a_helper_that_dies_without_sending_is_an_error(tmp_path, monkeypatch):
    def exit_at_once(rng, cases):
        os._exit(3)

    monkeypatch.setattr(verify, "_workers", lambda: 2)
    monkeypatch.setattr(verify, "SUITES", (*verify.SUITES[:4], ("cauchy-tail", exit_at_once)))
    with deadline(60), pytest.raises(RuntimeError, match=r"sent nothing \(exit code 3\)"):
        run_verify(42, 100, tmp_path)
    assert_no_child_left()


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
