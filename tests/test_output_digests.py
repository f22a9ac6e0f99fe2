"""Byte-identity pin of the monte-carlo CSVs for two small fixed-seed configs.

The digests were recorded before the resampler seeded its generators per
batch and before the Hausdorff replicates were solved as one batch, so they
pin the ``(seed, n, rep)`` streams and the Hausdorff distances of the
per-replicate code.  They also pin the floating-point results of this
NumPy release and BLAS build: a different NumPy or OpenBLAS may change the
last digits, and the digests then need recording again.
"""

import hashlib
import json

import pytest

from lplimits import cli

LINE3 = {"points_x": [0.0, 1.0, 2.0], "q": 2.0, "r": [1 / 3, 1 / 3, 1 / 3], "s": [1 / 3, 1 / 3, 1 / 3]}
CONFIG = {
    "sample_sizes": [[10000, 10000]],
    "replicates": 200,
    "seed": 11,
    "mode": "two-sample",
    "lambda": 0.5,
    "comparison_samples": 2000,
    "hausdorff_sizes": [100, 1000],
    "hausdorff_replicates": 200,
}

DIGESTS = {
    "p2-min-index": {
        "fluctuations.csv": "eda6ea7f23cfb5ea90ca9045b98afe5a9c51dcc9f8da78ea4fc7fd2966cfea3f",
        "hausdorff.csv": "a528eb911c12e0cb9dd93cda5e2ea55dc56ae1879051e3d671f044d92e92bb12",
    },
    "p1-uniform-random": {
        "fluctuations.csv": "c1bee5aa141f66783c86c9812c5423fb27ecd9b88dc2f8dcc657e6f52eff3705",
        "hausdorff.csv": "7692f601a0d4b0f7178550a9c40beda7d22b77c1c2524a7b7ac3acf55a3cbc5d",
    },
}

CSV_NAMES = ("fluctuations.csv", "hausdorff.csv")
CASES = {"p2-min-index": (2.0, "min-index"), "p1-uniform-random": (1.0, "uniform-random")}


def monte_carlo_digests(tmp_path, p: float, policy: str) -> dict:
    """sha256 of each CSV the monte-carlo command writes for the case."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(dict(LINE3, p=p)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, policy=policy)))
    out = tmp_path / "out"
    assert cli.main(["monte-carlo", str(problem), str(config), "--out-dir", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CSV_NAMES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_monte_carlo_csv_digests(tmp_path, case):
    assert monte_carlo_digests(tmp_path, *CASES[case]) == DIGESTS[case]
