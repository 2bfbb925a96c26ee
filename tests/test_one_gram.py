"""One Gram per kernel per subcommand: every stage reads slices of the Gram that validation checked.

Each kernel subcommand evaluates the Gram of its kernel's core over every
atom once, ``N^2`` blocks, and hands it on: rescale, assembly, the extension
to zero-mass atoms, the support, the metric, the reconstruction table and the
frame check read their blocks off it.  ``synthesize --kernel a --kernel b``
evaluates each original's Gram once, in its decomposition, and the
synthesized kernel's once: ``3 N^2``.  Blocks are counted by wrapping
:func:`mercerkit.kernels.gram` at every module that imports it.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from mercerkit import (
    build_kernel,
    kernel_from_file,
    kernels,
    load_atoms,
    pseudo_metric,
    rescale_measure,
    write_precomputed,
)
from mercerkit.cli import main

MODULES = ("kernels", "space", "operators", "mercer", "synthesis", "cli")
SIZE = 10
SEPARABLE_COMPLEX = {
    "type": "separable",
    "matrix": [[2.0, [0.5, 0.25]], [[0.5, -0.25], 1.5]],
    "scalar": {"type": "gaussian", "gamma": 0.5},
}
GAUSSIAN = {"type": "gaussian", "gamma": 0.8}
LAPLACIAN = {"type": "laplacian", "gamma": 1.0}


@pytest.fixture
def inputs(tmp_path):
    """Ten atoms, every third without mass, the kernel files and a precomputed table of each kind."""
    rows = ["id,w,c1,c2"] + [
        f"x{i},{0.0 if i % 3 == 0 else 1.0 + 0.1 * i},{0.3 * i},{float(np.sin(i))!r}" for i in range(SIZE)
    ]
    (tmp_path / "atoms.csv").write_text("\n".join(rows) + "\n")
    space = load_atoms(tmp_path / "atoms.csv")
    write_precomputed(build_kernel(SEPARABLE_COMPLEX), space, tmp_path / "table.csv")
    write_precomputed(build_kernel(LAPLACIAN), space, tmp_path / "scalar_table.csv")
    files = {
        "gaussian": GAUSSIAN,
        "separable_complex": SEPARABLE_COMPLEX,
        "precomputed": {"type": "precomputed", "path": "table.csv"},
        "scalar_precomputed": {"type": "precomputed", "path": "scalar_table.csv"},
    }
    for name, spec in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    return tmp_path


def count_blocks(monkeypatch) -> list[int]:
    """Wrap ``gram`` wherever it is imported; the list gets the number of blocks of each evaluation."""
    counts: list[int] = []
    original = kernels.gram

    def counting(kernel, space, rows=None, cols=None):
        blocks = original(kernel, space, rows, cols)
        counts.append(blocks.shape[0] * blocks.shape[1])
        return blocks

    for short in MODULES:
        module = importlib.import_module(f"mercerkit.{short}")
        if getattr(module, "gram", None) is original:
            monkeypatch.setattr(module, "gram", counting)
    return counts


RUNS = {
    "validate": ["validate"],
    "metric": ["metric"],
    "decompose": ["decompose"],
    "reconstruct": ["reconstruct"],
    # x3 has no mass, so the subset reaches past the positive-mass atoms
    "reconstruct_subset": ["reconstruct", "--subset", "x1,x3,x4,x8"],
    "frames": ["frames"],
}


@pytest.mark.parametrize("kernel", ["gaussian", "separable_complex", "precomputed"])
@pytest.mark.parametrize("run", list(RUNS))
def test_each_subcommand_evaluates_its_kernel_once(inputs, monkeypatch, kernel, run):
    counts = count_blocks(monkeypatch)
    argv = [*RUNS[run], "--atoms", str(inputs / "atoms.csv"), "--kernel", str(inputs / f"{kernel}.json")]
    assert main([*argv, "--out", str(inputs / "out")]) == 0
    assert sum(counts) == SIZE**2, counts


def test_synthesize_evaluates_each_kernel_once(inputs, monkeypatch):
    counts = count_blocks(monkeypatch)
    originals = ["--kernel", str(inputs / "gaussian.json"), "--kernel", str(inputs / "scalar_precomputed.json")]
    assert main(["synthesize", "--atoms", str(inputs / "atoms.csv"), *originals, "--out", str(inputs / "out")]) == 0
    # each original's Gram in its decomposition, then the synthesized kernel's
    assert sum(counts) == 3 * SIZE**2, counts


def test_synthesize_from_frames_evaluates_each_kernel_once(inputs, monkeypatch):
    atoms = ["--atoms", str(inputs / "atoms.csv")]
    assert main(["frames", *atoms, "--kernel", str(inputs / "separable_complex.json"), "--out", str(inputs / "f")]) == 0
    counts = count_blocks(monkeypatch)
    frames = ["--frames", str(inputs / "f" / "frame_j0.csv"), str(inputs / "f" / "frame_j1.csv")]
    originals = ["--kernel", str(inputs / "gaussian.json"), "--kernel", str(inputs / "scalar_precomputed.json")]
    assert main(["synthesize", *atoms, *frames, *originals, "--out", str(inputs / "out")]) == 0
    # the synthesized kernel's Gram, then each original's, over the frames' atoms
    assert sum(counts) == 3 * SIZE**2, counts


@pytest.mark.parametrize("kernel", ["gaussian", "separable_complex", "precomputed"])
def test_stages_handed_the_gram_evaluate_none(inputs, monkeypatch, kernel):
    space, k = load_atoms(inputs / "atoms.csv"), kernel_from_file(inputs / f"{kernel}.json")
    blocks = kernels.gram(kernels._factors(k)[0], space)
    metric, nu = pseudo_metric(space, k), rescale_measure(space, k)
    counts = count_blocks(monkeypatch)
    # the same bytes as from an evaluation of their own
    assert pseudo_metric(space, k, blocks).d.tobytes() == metric.d.tobytes()
    handed = rescale_measure(space, k, blocks)
    assert counts == []
    for name in ("weights", "diagonal", "core_gram"):
        assert getattr(handed, name).tobytes() == getattr(nu, name).tobytes(), name
    assert handed.m_nu == nu.m_nu
    assert handed.core_gram is blocks and not blocks.flags.writeable
