"""One Gram per kernel per subcommand: every stage reads slices of the Gram that validation checked.

Each kernel subcommand evaluates the Gram of its kernel's core over every
atom once, ``N^2`` blocks, and hands it on: rescale, assembly, the extension
to zero-mass atoms, the support, the metric, the reconstruction table and the
frame check read their blocks off it.  ``synthesize --kernel a --kernel b``
evaluates each original's Gram once, in its decomposition, and the
synthesized kernel's once if its frames are real: ``3 N^2``.  Complex frames'
Gram is written from their factor a block of rows at a time and validated off
the factor, never evaluated: ``2 N^2``.  Blocks are counted by wrapping
:func:`mercerkit.kernels.gram` at every module that imports it.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from mercerkit import (
    AtomSpace,
    build_kernel,
    gram,
    kernel_from_file,
    kernels,
    load_atoms,
    pseudo_metric,
    pseudo_metric_prime,
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
    # each original's Gram in its decomposition; a read table is complex, and so are its frames, whose
    # synthesized Gram is never evaluated
    assert sum(counts) == 2 * SIZE**2, counts


def test_synthesize_from_real_frames_evaluates_their_gram_once(inputs, monkeypatch):
    counts = count_blocks(monkeypatch)
    originals = ["--kernel", str(inputs / "gaussian.json")] * 2
    assert main(["synthesize", "--atoms", str(inputs / "atoms.csv"), *originals, "--out", str(inputs / "out")]) == 0
    # each original's Gram in its decomposition, then the synthesized kernel's, which is written whole
    assert sum(counts) == 3 * SIZE**2, counts


def test_synthesize_from_frames_evaluates_each_kernel_once(inputs, monkeypatch):
    atoms = ["--atoms", str(inputs / "atoms.csv")]
    assert main(["frames", *atoms, "--kernel", str(inputs / "separable_complex.json"), "--out", str(inputs / "f")]) == 0
    counts = count_blocks(monkeypatch)
    frames = ["--frames", str(inputs / "f" / "frame_j0.csv"), str(inputs / "f" / "frame_j1.csv")]
    originals = ["--kernel", str(inputs / "gaussian.json"), "--kernel", str(inputs / "scalar_precomputed.json")]
    assert main(["synthesize", *atoms, *frames, *originals, "--out", str(inputs / "out")]) == 0
    # each original's Gram over the frames' atoms; the complex frames' own Gram is never evaluated
    assert sum(counts) == 2 * SIZE**2, counts


@pytest.mark.parametrize("kernel", ["gaussian", "separable_complex", "precomputed"])
def test_stages_handed_the_gram_evaluate_none(inputs, monkeypatch, kernel):
    space, k = load_atoms(inputs / "atoms.csv"), kernel_from_file(inputs / f"{kernel}.json")
    blocks = kernels.gram(kernels._factors(k)[0], space)
    metric, prime, nu = pseudo_metric(space, k), pseudo_metric_prime(space, k), rescale_measure(space, k)
    counts = count_blocks(monkeypatch)
    # the same bytes as from an evaluation of their own
    assert pseudo_metric(space, k, blocks).d.tobytes() == metric.d.tobytes()
    assert pseudo_metric_prime(space, k, blocks).d.tobytes() == prime.d.tobytes()
    handed = rescale_measure(space, k, blocks)
    assert counts == []
    for name in ("weights", "diagonal", "core_gram"):
        assert getattr(handed, name).tobytes() == getattr(nu, name).tobytes(), name
    assert handed.m_nu == nu.m_nu
    assert handed.core_gram is blocks and not blocks.flags.writeable


def _permuted(space: AtomSpace, order) -> AtomSpace:
    return AtomSpace(tuple(space.labels[i] for i in order), space.coords[order], space.mu[order])


@pytest.mark.parametrize("kernel", ["precomputed", "scalar_precomputed"])
def test_a_table_over_its_own_atoms_is_its_own_gram(inputs, kernel):
    # the atoms the table was written over, in its order: the Gram is the table, held once
    space, k = load_atoms(inputs / "atoms.csv"), kernel_from_file(inputs / f"{kernel}.json")
    table = gram(k, space)
    assert not table.flags.writeable
    assert np.shares_memory(table, rescale_measure(space, k).core_gram)
    # any other order or subset is a copy of the table's blocks, bit for bit
    order = np.random.default_rng(29).permutation(SIZE)
    for blocks, expected in (
        (gram(k, _permuted(space, order)), table[np.ix_(order, order)]),
        (gram(k, space, order[:4]), table[np.ix_(order[:4], order[:4])]),
        (gram(k, space, order[:4], order[2:7]), table[np.ix_(order[:4], order[2:7])]),
        (gram(k, space, np.arange(SIZE), np.arange(SIZE)), table),
    ):
        assert not np.shares_memory(blocks, table)
        assert blocks.dtype == table.dtype and blocks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("run", ["validate", "decompose"])
def test_a_permuted_atom_file_reads_the_bits_of_a_table_in_its_order(inputs, run):
    # a table over the atoms in the file's order is used in place, and the same table in
    # another order is copied: both give the same bytes
    space = load_atoms(inputs / "atoms.csv")
    order = np.random.default_rng(31).permutation(SIZE)
    lines = (inputs / "atoms.csv").read_text().splitlines()
    (inputs / "permuted.csv").write_text("\n".join([lines[0], *(lines[1 + i] for i in order)]) + "\n")
    # the same table, written in the permuted order under the same name
    (inputs / "in_order").mkdir()
    k = kernel_from_file(inputs / "precomputed.json")
    write_precomputed(k, _permuted(space, order), inputs / "in_order" / "table.csv")
    (inputs / "in_order" / "precomputed.json").write_text((inputs / "precomputed.json").read_text())
    outputs = []
    for kernel in (inputs / "precomputed.json", inputs / "in_order" / "precomputed.json"):
        out = inputs / f"out_{len(outputs)}"
        assert main([run, "--atoms", str(inputs / "permuted.csv"), "--kernel", str(kernel), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1
