"""What the outputs owe the BLAS thread count: the same verdicts, not the same bytes.

The LAPACK eigensolvers and the matrix products sum in an order that depends
on the number of BLAS threads, so the last bits of a spectrum, an
eigenfunction or a distance may differ between thread counts.  Every check
must still agree: the spectra within ``default_tol_eig``, each ``passed``,
the ranks, the quotient classes and the support.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mercerkit.operators import TOL_EIG_SCALE

SRC = Path(__file__).resolve().parents[1] / "src"
SERIES = ["decompose", "reconstruct", "frames"]


@pytest.fixture
def inputs(tmp_path):
    """100 atoms in three dimensions, a fifth of them without mass, and a complex 3 x 3 kernel."""
    rng = np.random.default_rng(3)
    coords = rng.uniform(-2.0, 2.0, size=(100, 3))
    mu = rng.uniform(0.5, 2.0, size=100)
    mu[rng.permutation(100)[:20]] = 0.0
    rows = [",".join(["id", "w", "c1", "c2", "c3"])]
    rows += [",".join([f"x{i}", repr(float(mu[i])), *(repr(float(c)) for c in coords[i])]) for i in range(100)]
    (tmp_path / "atoms.csv").write_text("\n".join(rows) + "\n")
    terms = []
    for scalar in ({"type": "gaussian", "gamma": 0.5}, {"type": "laplacian", "gamma": 0.3}):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        matrix = [[[float(v.real), float(v.imag)] for v in row] for row in a @ a.conj().T]
        terms.append({"type": "separable", "matrix": matrix, "scalar": scalar})
    # not separable: validation and the eigensolve take the whole 300 x 300 complex Gram
    spec = {"type": "sum", "terms": terms}
    (tmp_path / "kernel.json").write_text(json.dumps(spec))
    return tmp_path


def _run_all(root: Path, threads: int) -> tuple[Path, dict[str, int]]:
    """Run the six subcommands in child processes at ``threads`` BLAS threads; the output root and exit codes."""
    out = root / f"threads{threads}"
    count = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count, MKL_NUM_THREADS=count)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    base = ["--atoms", "atoms.csv", "--kernel", "kernel.json"]
    argvs = {sub: [sub, *base] for sub in ["validate", "metric", *SERIES]}
    argvs["synthesize"] = ["synthesize", "--atoms", "atoms.csv", "--frames"]
    argvs["synthesize"] += [str(out / "frames" / f"frame_j{j}.csv") for j in range(3)]
    run = [sys.executable, "-m", "mercerkit.cli"]
    codes = {
        sub: subprocess.run([*run, *argv, "--out", str(out / sub)], cwd=root, env=env, capture_output=True).returncode
        for sub, argv in argvs.items()
    }
    return out, codes


def _report(out: Path, sub: str) -> dict:
    with open(out / sub / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sigmas(out: Path) -> np.ndarray:
    return np.loadtxt(out / "decompose" / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]


def test_one_and_two_blas_threads_agree_on_every_check(inputs):
    (one, codes_one), (two, codes_two) = _run_all(inputs, 1), _run_all(inputs, 2)
    assert codes_one == codes_two == dict.fromkeys(codes_one, 0)
    for sub in codes_one:
        assert _report(one, sub)["passed"] == _report(two, sub)["passed"], sub
    for sub in SERIES:
        assert _report(one, sub)["rank"] == _report(two, sub)["rank"], sub
    sigmas_one, sigmas_two = _sigmas(one), _sigmas(two)
    assert sigmas_one.shape == sigmas_two.shape and sigmas_one.size > 0
    tol = TOL_EIG_SCALE * max(1.0, float(sigmas_one[0]))
    np.testing.assert_allclose(sigmas_one, sigmas_two, rtol=0.0, atol=tol)
    for name in ("quotient.json", "support.txt"):
        assert (one / "metric" / name).read_bytes() == (two / "metric" / name).read_bytes(), name
