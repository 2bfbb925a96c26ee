"""Batched block evaluation: ``gram`` against the per-pair evaluator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ZOO, delta_kernel
from mercerkit import (
    AtomSpace,
    FrameFamily,
    build_kernel,
    diagonal_blocks,
    gram,
    read_precomputed,
    synthesize_kernel,
    write_precomputed,
)


def _space() -> AtomSpace:
    """Atoms with repeated coordinates and zero-mass atoms among them."""
    rng = np.random.default_rng(211)
    coords = rng.standard_normal((9, 2))
    coords[4] = coords[1]  # repeated atom
    coords[7] = coords[2]  # repeated zero-mass atom
    mu = rng.uniform(0.5, 1.5, size=9)
    mu[[3, 7, 8]] = 0.0
    return AtomSpace(tuple(f"x{i}" for i in range(9)), coords, mu)


def _precomputed(tmp_path, space):
    source = build_kernel(dict(ZOO)["separable_complex"])
    path = tmp_path / "table.csv"
    write_precomputed(source, space.atoms, path)
    return read_precomputed(path)


def _frame_synth(space):
    rng = np.random.default_rng(223)
    values = rng.standard_normal((5, len(space), 2)) + 1j * rng.standard_normal((5, len(space), 2))
    return synthesize_kernel(FrameFamily(space.labels, values))


KERNELS = [(name, lambda tmp_path, space, spec=spec: build_kernel(spec)) for name, spec in ZOO] + [
    ("precomputed", _precomputed),
    ("frame_synth", lambda tmp_path, space: _frame_synth(space)),
    ("delta", lambda tmp_path, space: delta_kernel(2)),
]


def _per_pair(kernel, xs, ts):
    return np.array([[np.asarray(kernel.eval(x, t), dtype=complex) for t in ts] for x in xs])


@pytest.mark.parametrize("make", [make for _, make in KERNELS], ids=[name for name, _ in KERNELS])
def test_batched_blocks_equal_per_pair_eval(tmp_path, make):
    space = _space()
    kernel = make(tmp_path, space)
    atoms = space.atoms
    xs = [atoms[i] for i in (0, 1, 4, 7, 3, 1)]  # repeats, zero mass, the same atom twice
    ts = [atoms[i] for i in (2, 8, 5, 4)]
    for rows, cols in ((xs, ts), (ts, xs), (atoms, atoms)):
        blocks = gram(kernel, rows, cols)
        assert blocks.shape == (len(rows), len(cols), kernel.n, kernel.n)
        np.testing.assert_allclose(blocks, _per_pair(kernel, rows, cols), rtol=1e-15, atol=1e-15)
    same = gram(kernel, xs)
    np.testing.assert_allclose(same, _per_pair(kernel, xs, xs), rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(diagonal_blocks(kernel, xs), np.einsum("xxlj->xlj", same))


def _reference(spec, x, t) -> np.ndarray:
    """One block of a zoo kernel, evaluated pair by pair in plain Python."""
    kind = spec["type"]
    if kind == "constant":
        return np.array([[spec["value"]]], dtype=complex)
    if kind in ("gaussian", "laplacian", "polynomial"):
        a, b = x.coords.tolist(), t.coords.tolist()
        if kind == "gaussian":
            value = math.exp(-spec["gamma"] * sum((p - q) ** 2 for p, q in zip(a, b)))
        elif kind == "laplacian":
            value = math.exp(-spec["gamma"] * sum(abs(p - q) for p, q in zip(a, b)))
        else:
            value = (sum(p * q for p, q in zip(a, b)) + spec["offset"]) ** spec["degree"]
        return np.array([[value]], dtype=complex)
    if kind == "separable":
        matrix = [[complex(*e) if isinstance(e, list) else e for e in row] for row in spec["matrix"]]
        return np.array(matrix, dtype=complex) * _reference(spec["scalar"], x, t)[0, 0]
    if kind == "diagonal":
        return np.diag([_reference(b, x, t)[0, 0] for b in spec["blocks"]])
    return sum(_reference(term, x, t) for term in spec["terms"])


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=[name for name, _ in ZOO])
def test_batched_blocks_match_a_plain_python_reference(spec):
    atoms = _space().atoms
    expected = np.array([[_reference(spec, x, t) for t in atoms] for x in atoms])
    np.testing.assert_allclose(gram(build_kernel(spec), atoms), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("make", [make for _, make in KERNELS], ids=[name for name, _ in KERNELS])
def test_gram_of_a_set_with_itself_is_exactly_hermitian(tmp_path, make):
    space = _space()
    blocks = gram(make(tmp_path, space), space.atoms)
    np.testing.assert_array_equal(blocks, np.conj(blocks.transpose(1, 0, 3, 2)))


def test_gram_of_an_empty_set():
    kernel = build_kernel(dict(ZOO)["separable"])
    atoms = _space().atoms
    assert gram(kernel, [], atoms).shape == (0, len(atoms), 2, 2)
    assert gram(kernel, atoms, []).shape == (len(atoms), 0, 2, 2)


def test_repeated_atoms_have_identical_blocks():
    space = _space()
    for _, spec in ZOO:
        blocks = gram(build_kernel(spec), space.atoms)
        np.testing.assert_array_equal(blocks[1], blocks[4])
        np.testing.assert_array_equal(blocks[:, 2], blocks[:, 7])
