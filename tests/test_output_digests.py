"""Byte-identity pin of the CLI's CSVs and reports for small fixed-seed runs.

The monte-carlo fluctuation and Hausdorff digests were recorded before the
resampler seeded its generators per batch and before the Hausdorff
replicates were solved as one batch, so they pin the ``(seed, n, rep)``
streams and the Hausdorff distances of the per-replicate code.  The
``limit_samples.csv`` digests were recorded while every row still went
through its own ``%.17g`` pattern, so they pin the CSV writer's bytes,
including the structural zeros of a generic N=4 transport's nonbasic
columns.  All of them also pin the floating-point results of this NumPy
release and BLAS build: a different NumPy or OpenBLAS may change the last
digits, and the digests then need recording again.

The ``report.json`` digests (taken without the run manifest, which holds
timestamps) were recorded while the KS statistics and the energy distance
still ran over every coordinate, so they pin those numbers against any change
to the comparison layer.
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
        "limit_samples.csv": "1ad25f3ae14a51df389098b085bcfd36a07badda3938178879a43a846353e2a6",
    },
    "p1-uniform-random": {
        "fluctuations.csv": "c1bee5aa141f66783c86c9812c5423fb27ecd9b88dc2f8dcc657e6f52eff3705",
        "hausdorff.csv": "7692f601a0d4b0f7178550a9c40beda7d22b77c1c2524a7b7ac3acf55a3cbc5d",
        "limit_samples.csv": "8a8682474e69e4747771233b3e61e37008009757a4c29bc71605902627682e16",
    },
}

# sha256 of report.json without its "manifest" key, re-serialised as the CLI writes it
REPORT_DIGESTS = {
    "p2-min-index": "c6b7bafae4467b10a1609eb1078ea7cf1b2140ce5152e24fb4c96651083c8bde",
    "p1-uniform-random": "cd78593a5c0fbff3996d773b45bdffc976b2c32875606b9f11d961dbb1151680",
}

CSV_NAMES = ("fluctuations.csv", "hausdorff.csv", "limit_samples.csv")
# Generic N=4 transport: planar Gaussian points, Dirichlet marginals.  A
# limit draw is nonzero only on the 7 basic coordinates of the optimal
# basis, so 9 of the 16 columns are 0 in every row.
GENERIC4 = {
    "points_x": [[-0.652, -0.175], [1.664, 0.659], [-1.641, -0.005], [-0.623, 0.149]],
    "p": 2.0,
    "q": 2.0,
    "r": [0.172, 0.368, 0.229, 0.231],
    "s": [0.006, 0.211, 0.657, 0.126],
}
GENERIC4_LIMIT_SAMPLES = "f07ea16ff2ca4251035c48c99acb0db746caddc3b04c08c5131ef2e376d45597"

CASES = {"p2-min-index": (2.0, "min-index"), "p1-uniform-random": (1.0, "uniform-random")}


def monte_carlo_digests(tmp_path, p: float, policy: str) -> dict:
    """sha256 of each CSV the monte-carlo command writes for the case, and of its report."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(dict(LINE3, p=p)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, policy=policy)))
    out = tmp_path / "out"
    assert cli.main(["monte-carlo", str(problem), str(config), "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CSV_NAMES}
    report = json.loads((out / "report.json").read_text())
    del report["manifest"]
    digests["report.json"] = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_monte_carlo_csv_digests(tmp_path, case):
    digests = monte_carlo_digests(tmp_path, *CASES[case])
    assert digests.pop("report.json") == REPORT_DIGESTS[case]
    assert digests == DIGESTS[case]


def test_limit_sample_csv_digest(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(GENERIC4))
    out = tmp_path / "out"
    argv = ["limit-sample", str(problem), "--samples", "3000", "--seed", "5",
            "--mode", "two-sample", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((out / "limit_samples.csv").read_bytes()).hexdigest()
    assert digest == GENERIC4_LIMIT_SAMPLES
