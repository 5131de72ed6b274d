"""Stored output digests: the RNG stream and the CSV bytes cannot drift silently.

``test_determinism_byte_identical`` compares two passes of the same code,
so a change that alters the order or number of random draws passes it.
These tests compare against SHA-256 digests recorded once and kept in this
file. Only the data rows of a series or combined CSV are hashed: a
series file's ``#`` metadata lines carry the numpy version, which is not
part of the stream. A schedule CSV is hashed whole. ``verify_report.txt``
is hashed whole, on the pass path and on three failure paths, so its
suite lines, worst margins and first-failure line are pinned too.

The series digests were made with stream version 2 (the draw order that
``engine.STREAM_VERSION`` numbers) on numpy 2.4.6 (PCG64); the verify
digests do not depend on the GA stream. A change that means to alter the
numbers bumps the stream version where it changes the draws, updates the
digests here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from cauchyga.benchmarks import FUNCTION_NAMES
from cauchyga.cli import SELECTION_SCHEMES, CliConfig, emit_schedule, run_experiment
from cauchyga.engine import STREAM_VERSION
from cauchyga.verify import Tolerances, run_verify

DIGEST_NUMPY = "2.4.6"
DIGEST_STREAM = 2

# (pop_size, elitism, crossover_prob): the odd pool exercises the leftover
# pairing, the even one elitism and always-on crossover
GRID = {
    "pop21": (21, False, 0.8),
    "pop20-elite": (20, True, 1.0),
}

SERIES_DIGESTS = {
    "pop21/rastrigin/proportionate": "054913486e2b3f99edc3c0bd037fe26a9110e0d08c55fbdf4186fc8f675ef6bb",
    "pop21/rastrigin/boltzmann_const": "46016396f97da66be6316d776fcec0d06a5577ee06c35fbec684251452a87d72",
    "pop21/rastrigin/cauchy_boltzmann": "9be7d8eae415d068538daafea51edcb4110ff3e9e8c663ed091b30c80569d401",
    "pop21/griewangk/proportionate": "ab121ec9552760fb18ede59db6ec67644da15c55eb70d0cf035318f32d5db2ae",
    "pop21/griewangk/boltzmann_const": "8c1033fa603529fe6c843f90279bcd161767c4656e9746ddc5bfe5c242613a78",
    "pop21/griewangk/cauchy_boltzmann": "27b67059cfbdb1dafa4c76bd8ba7b70b08d1e0c06aa8a029ce10af34226eca40",
    "pop21/ackley/proportionate": "b58268eccebda5a38bcc05789e651517afd749221713be4b163847bdbd6351be",
    "pop21/ackley/boltzmann_const": "398e3f60b1671a092c9da921344630756216bd23d7734573d1a2a1f189a139aa",
    "pop21/ackley/cauchy_boltzmann": "1637160ddf1091147b09f7eafc8ea42999b59d414c438e74bbe609dbf4be508c",
    "pop21/schwefel/proportionate": "ea5761f4691335d0cbaf24332290faaff3fc952751579d8c0deaabbf9d794006",
    "pop21/schwefel/boltzmann_const": "da38c6b455c43f6e5acb8ef75780d2c76eefcfc029ce0ee45c0846e769d8c89e",
    "pop21/schwefel/cauchy_boltzmann": "8c27ae83f3948ca61120a461791f347b97bd4596d41e45fd0e1c9aa437dd23ff",
    "pop20-elite/rastrigin/proportionate": "7215887a7efdeb95c3e0e7b7dc00e3e80fc019930dbbd140ae2d53cf7a74d278",
    "pop20-elite/rastrigin/boltzmann_const": "ae361be6735e1fd0dfd4e4d5d78c3e2dce7bd5bba96231843061c0e5d251c13c",
    "pop20-elite/rastrigin/cauchy_boltzmann": "6a3c994fae8948970faf2efc67acb06f87747360ac521698f02642f60c0b9e21",
    "pop20-elite/griewangk/proportionate": "7c84918b7a096ed303b5128115c0c28707e6ac3f66a02f7d4c29a17ed3954cae",
    "pop20-elite/griewangk/boltzmann_const": "420bc901c6b98494dc8673552569b0947dbc5f2302dafd96048028e4b8895820",
    "pop20-elite/griewangk/cauchy_boltzmann": "bcdd6238a6a730a26d240d9df11d8adb5956170f99bd8653808b60676fe7dd47",
    "pop20-elite/ackley/proportionate": "210037afd5215abcad7ae4e057c23eff08f697250b0189a58310f4e11d40501e",
    "pop20-elite/ackley/boltzmann_const": "a01620da28f9bf8eae56cab15235b33d70bcb84769441c0cf036802a7574b5f2",
    "pop20-elite/ackley/cauchy_boltzmann": "e1699ddb5671c76fcb0389b45b50df0395c8ee174c9e6e7616b10066424a2865",
    "pop20-elite/schwefel/proportionate": "4e9bfc76b9cfbab3473146c3479a77e3f9af2a51ea89c9a365141c398570ecbe",
    "pop20-elite/schwefel/boltzmann_const": "3e86685e5506d5d50165bfa52f6d4f93fcae6c1dd4c71b50c959902930e391cc",
    "pop20-elite/schwefel/cauchy_boltzmann": "afecd23fd03b786fe447b6bee69d95b6e4d97711af4ab710e652bf5e26b26c7d",
}

# the joins the grid above leaves: all three schemes of each function
COMBINED_DIGESTS = {
    "pop21/rastrigin": "7880500fdd7df5eb5330b382831fa79f3b8eaba2e34a142937df67efb624374a",
    "pop21/griewangk": "d92cc855347dac0d5326ea9c72df588928d76cf59c9387a14ec7a08db3d2a8d0",
    "pop21/ackley": "b9f5402479baada6b4dce1788ce60ae06c59ea6b5be594cf90fa671fc484487b",
    "pop21/schwefel": "07d6f530f21129972f92398a1d7f4ed997bd4418955ef1d68b93f87a372e66d9",
    "pop20-elite/rastrigin": "fbf9d7e7cf9c72d5d80c19e40cdb4032c6aea582cb885130d2f854919def2891",
    "pop20-elite/griewangk": "eb7147620f5c802a947a33a80149f8082ed5e88a572900f1147bb01e3ddfbc0e",
    "pop20-elite/ackley": "81416800ad34e43cd4e1e4046077bf9c76e98a808a5a4ae4510a9fbc36730bcf",
    "pop20-elite/schwefel": "613b3fe18b22bb12649aae95de1955aa5592bafa21d6e32f1a945fb45addd0b8",
}

# 100-step schedules calibrated to gamma 300; alpha 1.0000001 names its
# file by repr, next to the short-named 1.1 and 2
SCHEDULE_ALPHAS = (1.1, 2.0, 1.0000001)
SCHEDULE_DIGESTS = {
    "1.1": "ab9a2e474ade13869093123fff2a48a6f80f0f5974d8bd82dddd47294864f7af",
    "2.0": "9d070d2727b6d8f78cb9e258e6904f67ea7178a3f24908baa196a518d46264ec",
    "1.0000001": "ea8df4a8e4ff4b7637d1895fa556062059ea8e5ad349472d09128e24f03bc32e",
}

VERIFY_DIGEST = "eb59e62f96958b452482ac4fe2c346d42155e3ff2dda2096eb0b484eb0fe40d6"

# the same seed at the benchmark's size: 1000 cases per suite, 4093 rows
VERIFY_DIGEST_1000 = "7423e6c50ac93fbb83eaee42c901f062f94da838f26d883748f851bb287583b9"

# verify_report.txt at seed 42 and 100 cases: the suite lines with their
# worst margins, and on the failure paths the first-failure line (its
# gammas printed as plain floats, the same under numpy 1 and 2)
REPORT_TOLERANCES = {
    "pass": Tolerances(),
    "lemma-slack": Tolerances(lemma_slack=-1.0),
    "semigroup-tol": Tolerances(semigroup_tol=-1e-3),
    "metric-profile-slack": Tolerances(metric_slack=-3.0, profile_slack=-1.0),
}
REPORT_DIGESTS = {
    "pass": "4a504eabe78620ef299404abbb51781b237a282a4aa7d770bcbfde1ad1ea45ca",
    "lemma-slack": "db69b06c18dc70cc40a37f34a88eebcb25dc7ae5e27d9d36a684bef543dbc933",
    "semigroup-tol": "78b77d1e753b9b4683c649b43a28d1d43bfc633d2ec2df937c571662b65ed550",
    "metric-profile-slack": "10cd48a44587c7eda6a6141244503e1ab9c6eafa3a036c9bd44ee10d902e53f9",
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
        run_verify(42, 100, out_dir / key, tolerances)
        report = (out_dir / key / "verify_report.txt").read_bytes()
        digests[key] = hashlib.sha256(report).hexdigest()
    return digests


def _why(what: str) -> str:
    return (
        f"{what} differs from the stored digest (made with stream version "
        f"{DIGEST_STREAM} on numpy {DIGEST_NUMPY}; running stream version "
        f"{STREAM_VERSION} on numpy {np.__version__})"
    )


@pytest.fixture(scope="module")
def grid(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The grid's output directory and its series digests, run once."""
    out_dir = tmp_path_factory.mktemp("grid")
    return out_dir, series_digests(out_dir)


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
