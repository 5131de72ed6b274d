"""Stored output digests: the RNG stream and the CSV bytes cannot drift silently.

``test_determinism_byte_identical`` compares two passes of the same code,
so a change that alters the order or number of random draws passes it.
These tests compare against SHA-256 digests recorded once and kept in this
file. Only the data rows of a series or combined CSV are hashed: a
series file's ``#`` metadata lines carry the numpy version, which is not
part of the stream. A schedule CSV is hashed whole. ``verify_report.txt``
is hashed whole, on the pass path and on three failure paths, so its
suite lines, worst margins and first-failure line are pinned too.

The series digests were made with stream version 6 (the draw order that
``engine.STREAM_VERSION`` numbers) on numpy 2.4.6 (PCG64), with numpy
dispatching its SIMD kernels to X86_V3, X86_V4, AVX512_ICL and AVX512_SPR;
the verify digests do not depend on the GA stream, and were made with
verify draw order 3 (``verify.DRAW_ORDER``). The targets matter:
``np.exp`` gives different last bits under the AVX-512 kernels than under
the X86_V3 ones, and ackley's values and the Boltzmann weights read it.
With ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set for
the test process (numpy then dispatches to X86_V3 alone), 2 of these 7
tests fail under stream version 6: the series digest of
``pop20-elite/ackley/proportionate`` and the combined digest of
``pop20-elite/ackley``. Under stream version 5 the same two tests failed,
on ``pop21/ackley/boltzmann_const``, ``pop21/ackley/cauchy_boltzmann``
and ``pop21/ackley``.
A change that means to alter the numbers bumps the stream version where it
changes the draws, updates the digests here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cauchyga import verify
from cauchyga.benchmarks import FUNCTION_NAMES
from cauchyga.cli import SELECTION_SCHEMES, CliConfig, emit_schedule, run_experiment
from cauchyga.engine import STREAM_VERSION
from cauchyga.verify import run_verify

DIGEST_NUMPY = "2.4.6"
DIGEST_STREAM = 6
DIGEST_TARGETS = "X86_V3, X86_V4, AVX512_ICL, AVX512_SPR"

# (pop_size, elitism, crossover_prob): the odd size exercises the dropped
# last child, the even one elitism and always-on crossover
GRID = {
    "pop21": (21, False, 0.8),
    "pop20-elite": (20, True, 1.0),
}

SERIES_DIGESTS = {
    "pop21/rastrigin/proportionate": "b5f6883fcef66d1ab1961b38e16ce9fee5735055c764f64b3983a724aef31bf8",
    "pop21/rastrigin/boltzmann_const": "5e5879b6ff22121b33bf7543b21819b9510cf25f978d63a5b95cd1cb47090065",
    "pop21/rastrigin/cauchy_boltzmann": "a9359322d959dfb05c58d3ada981a1c55e51e7a39ebec7873721746ec740dc57",
    "pop21/griewangk/proportionate": "fcd2e8981723c2cb170b220e82d9913f16ceed66523e7992c9eb32d0ff99f5ae",
    "pop21/griewangk/boltzmann_const": "8675ac6706c2226b7ba8f020a465c074b50f100a86e68f479c344cea6361a37a",
    "pop21/griewangk/cauchy_boltzmann": "13ea5c9c873ae95994d66e6e31ff055fa24c7c52985dc5d0ccb68bffa8bc4fa8",
    "pop21/ackley/proportionate": "33eacca36dd292726fd39dfcccc68b82dce865ee4cb83c3449fa784effdd1cc0",
    "pop21/ackley/boltzmann_const": "fb3a9bdb485e590d6d1cb459b20389047af728153288268e469125c8f4f10939",
    "pop21/ackley/cauchy_boltzmann": "052a895e38aafef2ecf915d7d7f3fb8097f7fdd4994bc0a41dcf90abcefe3289",
    "pop21/schwefel/proportionate": "c5bfbb0711ae0265671d8f3366991a1146fd87d4c9a494fa6674a2811eb3606f",
    "pop21/schwefel/boltzmann_const": "828248952a11a68835ee6d7714f289bac9a7647183d59d598e775ca16a1be376",
    "pop21/schwefel/cauchy_boltzmann": "3c343cbd3b3b208816ebeab89adcd6c06c84a1ec444aeeedf555fa1a0bff39c0",
    "pop20-elite/rastrigin/proportionate": "134ceb28979ba6edc05c03ab618cf2f9b226d5d49b2d32366524f208ce0738e9",
    "pop20-elite/rastrigin/boltzmann_const": "01d4d1fc477eb305c939f9cd02417bb6be28a1be564cd9aabfd63bfa98d05b44",
    "pop20-elite/rastrigin/cauchy_boltzmann": "9d3dc443b4c22bc48a13378f560780cbbe296aac6c7566295b61a9cc78135e3d",
    "pop20-elite/griewangk/proportionate": "e8ef3849fc474e4e0128a499ce41d721fc64014f774779e24ed3a2e13838e658",
    "pop20-elite/griewangk/boltzmann_const": "200ef7761224f50232dd51a7034865a933c98decb77eb2450eac5f8f4ba5d57e",
    "pop20-elite/griewangk/cauchy_boltzmann": "b4bb4c951224dd17dc24407206b9af83454c01df0d8a72ca47e26b02c4728f8f",
    "pop20-elite/ackley/proportionate": "34282ec354197dd222b4cc7cae66d6b51d0ffd7fcc70c4316facb438df68b6d4",
    "pop20-elite/ackley/boltzmann_const": "818a632204bfef565b9086d02a418aee5631a479400ade366eec40f6f1431602",
    "pop20-elite/ackley/cauchy_boltzmann": "00e9fa6ea5e34db83202cb27d453d97e12179e026a779f7f3ce5120e1b2549cc",
    "pop20-elite/schwefel/proportionate": "82e0fcf49eca9e4f72ecf084b3dde894cf0982005ad8cf7dc06b30c726f12f84",
    "pop20-elite/schwefel/boltzmann_const": "fbea876e8682f9129176ded4fa5e43bdc3df12b43b5e68dfb4e554b1f444f83c",
    "pop20-elite/schwefel/cauchy_boltzmann": "4cfbbc3e6086c26a95c8443f9d09a307f5bbed55edfa310fa22b106428838563",
}

# the joins the grid above leaves: all three schemes of each function
COMBINED_DIGESTS = {
    "pop21/rastrigin": "ae349f25971c9b86ec8c3495dc8ffcad22dff23d0f7ed91cd966f2da45301c97",
    "pop21/griewangk": "ce8e1ee747e92805c24f4ae1b6991a045c3a0ca35db91a14a07fd0fe2fca2a69",
    "pop21/ackley": "ab69d765fd87ce4e1bf55583af13007fc2f4cad070d28c80ff1db31923da60b0",
    "pop21/schwefel": "f64c5ce2d60eada02504ebb99d995faa51de47f516b7e22537bcb7e6e242937b",
    "pop20-elite/rastrigin": "9fdc1b95663348db6d6223c053535853c8ed898f0473978fac8e35233d14d0fc",
    "pop20-elite/griewangk": "c224fb19f5ee38700124717501371e83fef954c31d48f8f93dfb4c434c4a859b",
    "pop20-elite/ackley": "2c3d81b646718a9c3a7226ef22b68e667dfc57ab6a05ca1c9f9478e8a5b4d91e",
    "pop20-elite/schwefel": "6af8175518d5dcda0c49694382d5e35db2ebd6e20254b73c9d897ca6df344c12",
}

# 100-step schedules calibrated to gamma 300; alpha 1.0000001 names its
# file by repr, next to the short-named 1.1 and 2
SCHEDULE_ALPHAS = (1.1, 2.0, 1.0000001)
SCHEDULE_DIGESTS = {
    "1.1": "ab9a2e474ade13869093123fff2a48a6f80f0f5974d8bd82dddd47294864f7af",
    "2.0": "9d070d2727b6d8f78cb9e258e6904f67ea7178a3f24908baa196a518d46264ec",
    "1.0000001": "ea8df4a8e4ff4b7637d1895fa556062059ea8e5ad349472d09128e24f03bc32e",
}

VERIFY_DIGEST = "570ef5d6757b1df73135adac0ccc2e6b3b2b73f96575d7404a2c0737837b361d"

# the same seed at the benchmark's size: 1000 cases per suite, 4093 rows
VERIFY_DIGEST_1000 = "bf8f4f972f47f49cd08cfe5ffa8949bc08d2f35d94cc82bab74e4c7a375c8021"

# verify_report.txt at seed 42 and 100 cases: the suite lines with their
# worst margins, and on the failure paths (each a set of broken verify
# slack constants) the first-failure line (its gammas printed as plain
# floats, the same under numpy 1 and 2)
REPORT_TOLERANCES = {
    "pass": {},
    "lemma-slack": {"LEMMA_SLACK": -1.0},
    "semigroup-tol": {"SEMIGROUP_TOL": -1e-3},
    "metric-profile-slack": {"METRIC_SLACK": -3.0, "PROFILE_SLACK": -1.0},
}
REPORT_DIGESTS = {
    "pass": "ff2e279d757769ed67d3f9f384b78caa71b1cff3722b439a26c6f9e0c6f9c8cc",
    "lemma-slack": "7e86b9644f5e993221f4cdb6426af41f20863ebe56cc92860940969b8946da28",
    "semigroup-tol": "e39b2a13454d63051e6603f32fbff4a519235bdeeaadaaf165e11ff4ad3e38ff",
    "metric-profile-slack": "05355b3a689c658acc85db9b52f556fff749fbd8f34e2556322264d1bb72b468",
}


def data_rows_sha256(path: Path) -> str:
    """SHA-256 of a CSV's lines that do not start with '#'."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(line for line in lines if not line.startswith(b"#"))
    ).hexdigest()


def series_digests(out_dir: Path) -> dict[str, str]:
    """Data-row digests of every function x scheme experiment of the grid."""
    digests = {}
    for tag, (pop_size, elitism, crossover_prob) in GRID.items():
        for function in FUNCTION_NAMES:
            for scheme in SELECTION_SCHEMES:
                cfg = CliConfig(
                    function=function,
                    selection=scheme,
                    generations=20,
                    pop_size=pop_size,
                    runs=2,
                    crossover_prob=crossover_prob,
                    elitism=elitism,
                    output=str(out_dir / tag),
                )
                path = run_experiment(cfg)[0]
                digests[f"{tag}/{function}/{scheme}"] = data_rows_sha256(path)
    return digests


def combined_digests(out_dir: Path) -> dict[str, str]:
    """Data-row digests of the joins :func:`series_digests` leaves behind.

    Each function's three schemes share one directory per grid tag, so the
    last run of a function writes its three-way ``<function>_combined.csv``.
    """
    return {
        f"{tag}/{function}": data_rows_sha256(out_dir / tag / f"{function}_combined.csv")
        for tag in GRID
        for function in FUNCTION_NAMES
    }


def schedule_digests(out_dir: Path) -> dict[str, str]:
    """Whole-file digests of 100-step schedules calibrated to end at gamma 300.

    A schedule file carries no numpy version, so its metadata (the
    calibrated g0 among it) is pinned too.
    """
    return {
        repr(alpha): hashlib.sha256(
            emit_schedule(alpha, 100, out_dir, gamma_target=300.0).read_bytes()
        ).hexdigest()
        for alpha in SCHEDULE_ALPHAS
    }


def verify_digest(out_dir: Path, cases: int = 100) -> str:
    run_verify(42, cases, out_dir)
    return hashlib.sha256((out_dir / "verify_cases.csv").read_bytes()).hexdigest()


def report_digests(out_dir: Path) -> dict[str, str]:
    """Digests of verify_report.txt under each of REPORT_TOLERANCES."""
    digests = {}
    for key, tolerances in REPORT_TOLERANCES.items():
        with pytest.MonkeyPatch.context() as patch:
            for name, value in tolerances.items():
                patch.setattr(verify, name, value)
            run_verify(42, 100, out_dir / key)
        report = (out_dir / key / "verify_report.txt").read_bytes()
        digests[key] = hashlib.sha256(report).hexdigest()
    return digests


def _dispatch_targets() -> str:
    """The SIMD targets numpy dispatches to on this CPU, in numpy's order."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2, or 1
    return ", ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _why(what: str) -> str:
    return (
        f"{what} differs from the stored digest (made with stream version "
        f"{DIGEST_STREAM} on numpy {DIGEST_NUMPY} dispatching to {DIGEST_TARGETS}; "
        f"running stream version {STREAM_VERSION} on numpy {np.__version__} "
        f"dispatching to {_dispatch_targets()})"
    )


@pytest.fixture(scope="module")
def grid(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The grid's output directory and its series digests, run once."""
    out_dir = tmp_path_factory.mktemp("grid")
    return out_dir, series_digests(out_dir)


def test_digests_name_the_running_stream_version():
    # a re-record updates the digests and DIGEST_STREAM together
    assert DIGEST_STREAM == STREAM_VERSION


def test_series_data_rows_match_stored_digests(grid):
    got = grid[1]
    assert set(got) == set(SERIES_DIGESTS)
    changed = sorted(k for k in got if got[k] != SERIES_DIGESTS[k])
    assert not changed, _why(", ".join(changed))


def test_combined_data_rows_match_stored_digests(grid):
    got = combined_digests(grid[0])
    assert set(got) == set(COMBINED_DIGESTS)
    changed = sorted(k for k in got if got[k] != COMBINED_DIGESTS[k])
    assert not changed, _why(", ".join(changed))


def test_schedule_files_match_stored_digests(tmp_path):
    got = schedule_digests(tmp_path)
    assert set(got) == set(SCHEDULE_DIGESTS)
    changed = sorted(k for k in got if got[k] != SCHEDULE_DIGESTS[k])
    assert not changed, _why("schedule alpha " + ", ".join(changed))


def test_verify_cases_match_stored_digest(tmp_path):
    assert verify_digest(tmp_path) == VERIFY_DIGEST, _why("verify_cases.csv")


def test_verify_cases_at_bench_size_match_stored_digest(tmp_path):
    got = verify_digest(tmp_path, cases=1000)
    assert got == VERIFY_DIGEST_1000, _why("verify_cases.csv (1000 cases)")


def test_verify_reports_match_stored_digests(tmp_path):
    got = report_digests(tmp_path)
    changed = sorted(k for k in got if got[k] != REPORT_DIGESTS[k])
    assert not changed, _why("verify_report.txt under " + ", ".join(changed))


if __name__ == "__main__":
    # prints the digests of the installed package, to paste above
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in series_digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
        for key, digest in combined_digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
        for key, digest in schedule_digests(Path(tmp) / "schedules").items():
            print(f'    "{key}": "{digest}",')
        print(f'VERIFY_DIGEST = "{verify_digest(Path(tmp) / "verify")}"')
        print(f'VERIFY_DIGEST_1000 = "{verify_digest(Path(tmp) / "verify", 1000)}"')
        for key, digest in report_digests(Path(tmp) / "reports").items():
            print(f'    "{key}": "{digest}",')
