"""Stored output digests: the RNG stream and the CSV bytes cannot drift silently.

``test_determinism_byte_identical`` compares two passes of the same code,
so a change that alters the order or number of random draws passes it.
These tests compare against SHA-256 digests recorded once and kept in this
file. Only the data rows of a series or combined CSV are hashed: a
series file's ``#`` metadata lines carry the numpy version, which is not
part of the stream. A schedule CSV is hashed whole. ``verify_report.txt``
is hashed whole, on the pass path and on three failure paths, so its
suite lines, worst margins and first-failure line are pinned too.

The series digests were made with stream version 4 (the draw order that
``engine.STREAM_VERSION`` numbers) on numpy 2.4.6 (PCG64), with numpy
dispatching its SIMD kernels to X86_V3, X86_V4, AVX512_ICL and AVX512_SPR;
the verify digests do not depend on the GA stream. The targets matter:
``np.exp`` gives different last bits under the AVX-512 kernels than under
the X86_V3 ones, and ackley's values and the Boltzmann weights read it.
A change that means to alter the numbers bumps the stream version where it
changes the draws, updates the digests here and says so in CHANGES.md.
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
DIGEST_STREAM = 4
DIGEST_TARGETS = "X86_V3, X86_V4, AVX512_ICL, AVX512_SPR"

# (pop_size, elitism, crossover_prob): the odd size exercises the dropped
# last child, the even one elitism and always-on crossover
GRID = {
    "pop21": (21, False, 0.8),
    "pop20-elite": (20, True, 1.0),
}

SERIES_DIGESTS = {
    "pop21/rastrigin/proportionate": "4c09a8c84df7d27cc6eabb571cb6ca835bbfcfc3a08d452c1e436091bee14c5c",
    "pop21/rastrigin/boltzmann_const": "cb0a940d1fbdeaa29b87d9024ac3d24a37f65ff356503ad825f4dc988178fbda",
    "pop21/rastrigin/cauchy_boltzmann": "3452fdd06970e24f29b203371accb0dcc43292648fc42a16c2009a07a07c506d",
    "pop21/griewangk/proportionate": "1a29239b19abf3766c2324618780c5e4686106d0cc6fa14c66a1181bec7e70bf",
    "pop21/griewangk/boltzmann_const": "3efcd2db4d736c348a21e4f34435e62aad9d7be39dc95a68496fafb8076286d6",
    "pop21/griewangk/cauchy_boltzmann": "1705e2dd45fc3193fa1a2a74744ad86be99b3a732d6f46fb4cfecc141903f8f2",
    "pop21/ackley/proportionate": "11d9c3418a93ca3ac55c00e953fc04b7ccbed01baf1305f4da67a1e54d961e4d",
    "pop21/ackley/boltzmann_const": "9734ce277cf32deb0c6de945f3325b104669dd0c7036b215951383ed11c6353c",
    "pop21/ackley/cauchy_boltzmann": "3fdcbdb8409df7714e0b12eaf4dee34879b3b6103f7996d3b9c583ff2d316d26",
    "pop21/schwefel/proportionate": "dd9aa31b7fe72a13700a9341a146d7e34f68c25d5a54f2b01241f09291ecceb9",
    "pop21/schwefel/boltzmann_const": "d4280f6d8a4ecf57a91e226e248e0f5816ca464ceb2229b23dc40da8c1dad1fb",
    "pop21/schwefel/cauchy_boltzmann": "9a82f9581aae5daa949cfd1ba3dadd921a8200d5ee8c71e811811a84f1d881f1",
    "pop20-elite/rastrigin/proportionate": "549288623448ab04c36658dd5e7cc05a0085e5bc97968cee997696f2fb342cf8",
    "pop20-elite/rastrigin/boltzmann_const": "118827cd22da065dc9d9cf8488a38c02778c27b1ac73391afeb9d515f7d28db6",
    "pop20-elite/rastrigin/cauchy_boltzmann": "a6ea899099a9cc4aa9cf14e71d3ad75bae866e968be1a30299b330d9fc25c2da",
    "pop20-elite/griewangk/proportionate": "52fc5499bf050b2faf6f178b5d58be85e06b94688c980e999f5f6d83872d7648",
    "pop20-elite/griewangk/boltzmann_const": "703bfe73b838a050efe75a0486e3bd0e70d36de303bfb541b7e9a24f975f8d6c",
    "pop20-elite/griewangk/cauchy_boltzmann": "c99a542a95bec1a765135c8fba0b2c8284ee83d988f3757a620312d61b4c64bd",
    "pop20-elite/ackley/proportionate": "8566a5d0a642ae2c8250200eda3227c6834bc33385529c267856e48351a878ca",
    "pop20-elite/ackley/boltzmann_const": "c93e198a441a996e728d7dd1cd9e20479521438328db61c4a4b9926091f97c70",
    "pop20-elite/ackley/cauchy_boltzmann": "f878d9245dc096b424b0b3ffb1843ceb03c5df871e3081897326e7c71719a53d",
    "pop20-elite/schwefel/proportionate": "653e0ad426c49663bc12eb9101150711937e26026164d260956532248cc8aaa5",
    "pop20-elite/schwefel/boltzmann_const": "6dc83323a9f3d48ebe3355c26aab0aee77394ceb5706ef415d7cf06933f9fe88",
    "pop20-elite/schwefel/cauchy_boltzmann": "de1f43b237423dd7871d7a465d3c8fc0a9ae99f11dbf5f03756c7366956957cd",
}

# the joins the grid above leaves: all three schemes of each function
COMBINED_DIGESTS = {
    "pop21/rastrigin": "3fc43c8879a9fc320bb8b8e17e47788a4b48dbbc3a843566189b72e884deb9ae",
    "pop21/griewangk": "01f3cae40f0220094552e027121c6b92b81452896a11491cb78efcf41353f2aa",
    "pop21/ackley": "8607a8099954bce0d00f056ec4e9476dff40268e6edda0bc3a7c8ba6c4ca7b14",
    "pop21/schwefel": "a1e6c3492a951ff3c895cb79b0d4d8be0b79c9468680e91a66d0e36b651d047d",
    "pop20-elite/rastrigin": "c50403643ce4b1e9cac12c90ff6971192bdcbb6aa1a858d477d3b1f4354d59b9",
    "pop20-elite/griewangk": "93123eac419089bea7aa206adaf5126b9776e8ec9fba3d46b2a74e1d6f65b05c",
    "pop20-elite/ackley": "cbd5a9aa765a50368655b853eb4d337d01bee234dc2894bc290d055f407b89ca",
    "pop20-elite/schwefel": "590643327557d5e8ec0a66ff05e0bd1e0fa239049b222d2149080f6bb95c1a44",
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
