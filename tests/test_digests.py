"""Stored output digests: the RNG stream and the CSV bytes cannot drift silently.

``test_determinism_byte_identical`` compares two passes of the same code,
so a change that alters the order or number of random draws passes it.
These tests compare against SHA-256 digests recorded once and kept in this
file. Only the data rows of a series or combined CSV are hashed: a
series file's ``#`` metadata lines carry the numpy version, which is not
part of the stream. A schedule CSV is hashed whole. ``verify_report.txt``
is hashed whole, on the pass path and on three failure paths, so its
suite lines, worst margins and first-failure line are pinned too.

The series digests were made with stream version 5 (the draw order that
``engine.STREAM_VERSION`` numbers) on numpy 2.4.6 (PCG64), with numpy
dispatching its SIMD kernels to X86_V3, X86_V4, AVX512_ICL and AVX512_SPR;
the verify digests do not depend on the GA stream. The targets matter:
``np.exp`` gives different last bits under the AVX-512 kernels than under
the X86_V3 ones, and ackley's values and the Boltzmann weights read it.
With ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` set for
the test process (numpy then dispatches to X86_V3 alone), 2 of these 6
tests fail under stream version 5: the series digests of
``pop21/ackley/boltzmann_const`` and ``pop21/ackley/cauchy_boltzmann``,
and the combined digest of ``pop21/ackley``. Under stream version 4 the
same two tests failed, on ``pop21/ackley/proportionate`` and
``pop21/ackley``.
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
DIGEST_STREAM = 5
DIGEST_TARGETS = "X86_V3, X86_V4, AVX512_ICL, AVX512_SPR"

# (pop_size, elitism, crossover_prob): the odd size exercises the dropped
# last child, the even one elitism and always-on crossover
GRID = {
    "pop21": (21, False, 0.8),
    "pop20-elite": (20, True, 1.0),
}

SERIES_DIGESTS = {
    "pop21/rastrigin/proportionate": "6d6ed20977b15bb51f898baaaf3152f2a9dd643193193f0bc704a00be74136be",
    "pop21/rastrigin/boltzmann_const": "47448d16648a7935d0f12e10ffe85ef04757cfb43f371e0c743b411d95a000a1",
    "pop21/rastrigin/cauchy_boltzmann": "01bc0df82e26582537649411baf4a724e9434cdcdc44b2461f6ac81d9188a247",
    "pop21/griewangk/proportionate": "ec8dba2ecb224fe66fcf10834fefa21faef3ec03f9f9661885fd023ac599dca4",
    "pop21/griewangk/boltzmann_const": "787bc2ed2177fd757f9f35d4dd8a00ba6f9c6375c5fb5cbebe7eecc3ef7dbb68",
    "pop21/griewangk/cauchy_boltzmann": "f4839bf709ee3c2183da683bda6161b32d265b80957bc9225b423bc0976a473a",
    "pop21/ackley/proportionate": "a9274b35105c4268105733997f171e293d5813028844792216adb78b5627b681",
    "pop21/ackley/boltzmann_const": "94c36a44dda53e4aec12ae9d71ef95f329354f2a3f57d82a0d5c067f06c7134c",
    "pop21/ackley/cauchy_boltzmann": "bc6e50aee2af1e024cb86549b34757ae85453ef98efc799a40155569f3d21854",
    "pop21/schwefel/proportionate": "3a564acf48e662485009630aed49e0e2ed5444841ec589a9e643cbfe568191a1",
    "pop21/schwefel/boltzmann_const": "ce892cc4439b46b3ca575e3bf97f6746aa0cf89963819bcb6fe3996b0eb4f166",
    "pop21/schwefel/cauchy_boltzmann": "e4fbcffa8f54ba0f29c28d374b56f7edd2effdc847cc0a8db6699356d5388fcc",
    "pop20-elite/rastrigin/proportionate": "004ec549fb8344e40f9f7b71b06e53284c2f0056d95d9d837380bdad53499b25",
    "pop20-elite/rastrigin/boltzmann_const": "efdcc7c4ef24b548fc428d88abba60b60a314e649a383629615afaa619805d68",
    "pop20-elite/rastrigin/cauchy_boltzmann": "bc07d4144f29969c128dd1a109329feeda37948e34e340f4382f6321500d6845",
    "pop20-elite/griewangk/proportionate": "c96259f290c009a9155eb81d6ca6f85b7ec39a1017e810c0b58bd5321cea8409",
    "pop20-elite/griewangk/boltzmann_const": "9e186e563b1d4579fce40307a3083bafad36b3fbbd8ad60b02504ab2fdd2fcbf",
    "pop20-elite/griewangk/cauchy_boltzmann": "619e964701b2ab2c44c41c7e363dc6b2e673f1f12494f20fefc2b1639c067d7e",
    "pop20-elite/ackley/proportionate": "10efb1e7eb6654c061233a2ef2ef76c6e78b96945de90fcfd9015b9fe5556475",
    "pop20-elite/ackley/boltzmann_const": "48b7b1b8d2df0e365fdff0d272595398977a945ab3557beee524beafba849ddc",
    "pop20-elite/ackley/cauchy_boltzmann": "71aa1d7fb423a9cb639b1c166baac2e01f37b02513a5e42acfff353a158f218e",
    "pop20-elite/schwefel/proportionate": "cedd8761bf70838870f99f138b912909c2edd9c3dbca0bf9905f277544b127d8",
    "pop20-elite/schwefel/boltzmann_const": "06d265851f234dff737cfb6f73ea40758471b169639da974e9a619db9f206372",
    "pop20-elite/schwefel/cauchy_boltzmann": "d2ebf883c97ff464035f99fb3cc317e15b9e133ecec89b1e5b5e2901d1e7893a",
}

# the joins the grid above leaves: all three schemes of each function
COMBINED_DIGESTS = {
    "pop21/rastrigin": "18be673d9f4c3c3fac1062a160a26adef7034468af271c1b17bb91258605c7c1",
    "pop21/griewangk": "011bdaec3de119d348c892287f56c1ca4ca1cddf739fd363ab09502f588ca630",
    "pop21/ackley": "eadd18669fc8d4a473c3c6f17008d2abb9348ceab58640d2a4509d30bdd150a0",
    "pop21/schwefel": "0f7742e5337755088716e6cd7e164677b91cda98796ba086328f03d3f15c2d57",
    "pop20-elite/rastrigin": "be1087289215dde650f2dd1b456c8d5ae3628c8f9ce898f09dbc5da566179680",
    "pop20-elite/griewangk": "a84518a08ed666227a08698f0ca509ca8b1aee6220ab7f1df072e50d5c3d6a63",
    "pop20-elite/ackley": "3fb0858e665a16ca616047fa5217be8b7e1aec58ac005b3273babb0460ea31e7",
    "pop20-elite/schwefel": "a06913730dad9517fea47d85791bd2ff2bd5915a1afa7db9ece9f61290181356",
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
