"""Stored output digests: the RNG stream and the CSV bytes cannot drift silently.

``test_determinism_byte_identical`` compares two passes of the same code,
so a change that alters the order or number of random draws passes it.
These tests compare against SHA-256 digests recorded once and kept in this
file. Only data rows are hashed: the ``#`` metadata lines carry the numpy
version, which is not part of the stream.

The digests were made with numpy 2.4.6 (PCG64). A change that means to
alter the numbers updates them here and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from cauchyga.benchmarks import FUNCTION_NAMES
from cauchyga.cli import CliConfig, run_experiment
from cauchyga.engine import SELECTION_SCHEMES
from cauchyga.verify import run_verify

DIGEST_NUMPY = "2.4.6"

# (pop_size, elitism, crossover_prob): the odd pool exercises the leftover
# pairing, the even one elitism and always-on crossover
GRID = {
    "pop21": (21, False, 0.8),
    "pop20-elite": (20, True, 1.0),
}

SERIES_DIGESTS = {
    "pop21/rastrigin/proportionate": "9df9b2d950923f0611d332f151e6c2c3d8c05ac486be29551843c94fee2e5f44",
    "pop21/rastrigin/boltzmann_const": "67c5f03edaaab6b30dcee269aba57b9c8f5ce067aecc07ca045060dfba4376de",
    "pop21/rastrigin/cauchy_boltzmann": "415dc64ccad3385102dba5856986d1d23e8c68baa707b9e2ddf488892ecb171a",
    "pop21/griewangk/proportionate": "2fb2cc4587fe46ea99500a7f3188a19977dc114764af595ea642715cbc8669fe",
    "pop21/griewangk/boltzmann_const": "2c1830676aeeecd3fb854918b400554dc77093a159ba5750473afd4576708d56",
    "pop21/griewangk/cauchy_boltzmann": "e667c287055125dbfa92953cca82ef5dd21bf755bdb0c7b0275903beb0ff431e",
    "pop21/ackley/proportionate": "e7a730dce32ddbebfd9586894cd60b0a227c3b6fc88031f31c4bdccb1d29a54a",
    "pop21/ackley/boltzmann_const": "a3c6125511d2786f7b0551e29b7a16d6c1d207e74c51d11b9c0427be4d5114fa",
    "pop21/ackley/cauchy_boltzmann": "f63796603e7cd793cc890495368b6eddd05740fe052a600f5c34e88cf4be5a23",
    "pop21/schwefel/proportionate": "f3190ce57eafc391ed41f722bf7e3ec4d3de4f86977cedb1f83c392493abfbf5",
    "pop21/schwefel/boltzmann_const": "72ea2424a8b781b72b45caf418d4781393dcd1bbed80b2acb9b4c05ded8105dc",
    "pop21/schwefel/cauchy_boltzmann": "1aaa167651d02db49d83ede67ddb30e8216b2605e4a7b96417ee220a4a8806f5",
    "pop20-elite/rastrigin/proportionate": "47b396d24b4b71a2b8a23db1c45d30dbbc4ed7d6ce2e7ece5eb4b867237b7daf",
    "pop20-elite/rastrigin/boltzmann_const": "ecf82b6a94b9064ed4adddd33476cfb786eb25fb839b20d24cc95bfafe6972b3",
    "pop20-elite/rastrigin/cauchy_boltzmann": "ef97623f971513b1e665bdac588a0947d9afa0119dc3b68657d979d0fe51ab2f",
    "pop20-elite/griewangk/proportionate": "e02169b18e1dfd23b4d5af1f238bc6d0265f873dc247278ec2e8e778bf66d07e",
    "pop20-elite/griewangk/boltzmann_const": "15a66317e79af0f5cd8a036153163081242626d0dba608a5d8f8a42634f784a4",
    "pop20-elite/griewangk/cauchy_boltzmann": "56e25674076f761a1ec4ed7385519aef19c850df4d3717345e63abb126218508",
    "pop20-elite/ackley/proportionate": "a7ab0c7b41e504b1021c95f176ecfde0a4ef13872f476a1a2a5e1109a586e491",
    "pop20-elite/ackley/boltzmann_const": "4bc73f5b57b0a44f7f629c17044626077f408409334e3b8851a6e2b0b8ae6e1b",
    "pop20-elite/ackley/cauchy_boltzmann": "e2d1ee2fc7c56acdcd491f6b19784b81597c6e629d25febc5f849b1540836654",
    "pop20-elite/schwefel/proportionate": "ee58233dd0ca947e067c7a61b43c4e77d00f9cb751895ab4a0615c948091567e",
    "pop20-elite/schwefel/boltzmann_const": "6601c464cbac1a07b9f26bfd3aa8aaa46bbb2e5410a0f6e7b488a8ab23bab031",
    "pop20-elite/schwefel/cauchy_boltzmann": "99b59fe4b529869cdecfd81a589cdf7fbfc2aa50e0d03d15a41718754e014cb1",
}

VERIFY_DIGEST = "eb59e62f96958b452482ac4fe2c346d42155e3ff2dda2096eb0b484eb0fe40d6"

# the same seed at the benchmark's size: 1000 cases per suite, 4093 rows
VERIFY_DIGEST_1000 = "7423e6c50ac93fbb83eaee42c901f062f94da838f26d883748f851bb287583b9"


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


def verify_digest(out_dir: Path, cases: int = 100) -> str:
    run_verify(42, cases, out_dir)
    return hashlib.sha256((out_dir / "verify_cases.csv").read_bytes()).hexdigest()


def _why(what: str) -> str:
    return (
        f"{what} differs from the stored digest (made with numpy "
        f"{DIGEST_NUMPY}; running numpy {np.__version__})"
    )


def test_series_data_rows_match_stored_digests(tmp_path):
    got = series_digests(tmp_path)
    assert set(got) == set(SERIES_DIGESTS)
    changed = sorted(k for k in got if got[k] != SERIES_DIGESTS[k])
    assert not changed, _why(", ".join(changed))


def test_verify_cases_match_stored_digest(tmp_path):
    assert verify_digest(tmp_path) == VERIFY_DIGEST, _why("verify_cases.csv")


def test_verify_cases_at_bench_size_match_stored_digest(tmp_path):
    got = verify_digest(tmp_path, cases=1000)
    assert got == VERIFY_DIGEST_1000, _why("verify_cases.csv (1000 cases)")


if __name__ == "__main__":
    # prints the digests of the installed package, to paste above
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in series_digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
        print(f'VERIFY_DIGEST = "{verify_digest(Path(tmp) / "verify")}"')
        print(f'VERIFY_DIGEST_1000 = "{verify_digest(Path(tmp) / "verify", 1000)}"')
