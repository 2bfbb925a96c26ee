"""One evaluation of the blocks ``K(x, x)`` per decomposition.

``rescale_measure`` reads the diagonal blocks off the Gram of the kernel's
core for the rescaled weights and the trace budget, and keeps them,
read-only, as ``RescaledMeasure.diagonal``.  The reconstruction tolerance
and the frame check read them there instead of evaluating the Gram again.
The first test pins that the kept blocks are the diagonal of the kernel's
Gram, bit for bit, for every kind of kernel; the second, that the ``frames``
and ``reconstruct`` subcommands evaluate them once, in the one Gram each
evaluates.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from conftest import ZOO, ZOO_IDS, decompose_space, random_space
from mercerkit import (
    MatrixKernel,
    build_kernel,
    default_tol_recon,
    extract_frame,
    gram,
    kernels,
    mercer,
    read_precomputed,
    rescale_measure,
    synthesize_kernel,
    write_precomputed,
)
from mercerkit.cli import main

B = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.5]])


def _per_pair(space, tmp_path) -> MatrixKernel:
    def ev(x, t):
        return np.exp(-np.sum((x.coords - t.coords) ** 2)) * B

    return MatrixKernel(2, eval=ev, label="per-pair")


def _table(space, tmp_path) -> MatrixKernel:
    write_precomputed(build_kernel(dict(ZOO)["separable_complex"]), space, tmp_path / "table.csv")
    return read_precomputed(tmp_path / "table.csv")


def _synthesized(space, tmp_path) -> MatrixKernel:
    dec = decompose_space(space, dict(ZOO)["diagonal"])
    return synthesize_kernel([extract_frame(dec, j) for j in range(dec.n)])


def _zoo(spec):
    return lambda space, tmp_path: build_kernel(spec)


KERNELS = [_zoo(spec) for _, spec in ZOO] + [_table, _per_pair, _synthesized]
KERNEL_IDS = ZOO_IDS + ["table", "per-pair", "synthesized"]


@pytest.mark.parametrize("make", KERNELS, ids=KERNEL_IDS)
def test_rescaled_measure_keeps_the_diagonal_blocks(tmp_path, make):
    space = random_space(np.random.default_rng(61), 9, dim=2, zero_mass=2)
    kernel = make(space, tmp_path)
    nu = rescale_measure(space, kernel)
    expected = np.einsum("xxlj->xlj", gram(kernel, space))
    assert (nu.diagonal.dtype, nu.diagonal.shape) == (expected.dtype, expected.shape)
    assert nu.diagonal.tobytes() == expected.tobytes()
    assert not nu.diagonal.flags.writeable
    # the tolerance read off them is the one evaluated afresh
    dec = decompose_space(space, kernel)
    assert default_tol_recon(dec) == mercer._tol_recon(expected)


@pytest.mark.parametrize("name", ["separable_complex3", "diagonal3"])
def test_a_decomposition_evaluates_its_diagonal_blocks_once(tmp_path, monkeypatch, name):
    specs = {
        "separable_complex3": {
            "type": "separable",
            "matrix": [[2.0, [0.5, 0.25], 0.0], [[0.5, -0.25], 1.5, [0.0, 0.3]], [0.0, [0.0, -0.3], 1.0]],
            "scalar": {"type": "gaussian", "gamma": 0.5},
        },
        **dict(ZOO),
    }
    (tmp_path / "kernel.json").write_text(json.dumps(specs[name]))
    rows = ["id,w,c1,c2"] + [f"x{i},{0.0 if i % 3 == 0 else 1.0 + 0.1 * i},{0.3 * i},{float(np.sin(i))!r}" for i in range(10)]
    (tmp_path / "atoms.csv").write_text("\n".join(rows) + "\n")
    calls = []
    original = kernels.gram

    def counting(kernel, space, rows=None, cols=None):
        calls.append(kernel)
        return original(kernel, space, rows, cols)

    for short in ("kernels", "space", "operators", "mercer", "synthesis", "cli"):
        module = importlib.import_module(f"mercerkit.{short}")
        if getattr(module, "gram", None) is original:  # wherever it is imported
            monkeypatch.setattr(module, "gram", counting)
    for command in ("frames", "reconstruct"):
        calls.clear()
        args = ["--atoms", str(tmp_path / "atoms.csv"), "--kernel", str(tmp_path / "kernel.json")]
        assert main([command, *args, "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1, (command, len(calls))
