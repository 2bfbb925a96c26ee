"""Kernel evaluation over an atom space: ``gram`` on index arrays against plain-Python references."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ZOO, delta_kernel
from mercerkit import (
    AtomSpace,
    FrameFamily,
    KernelEvaluationError,
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


def _reference(spec, a, b) -> np.ndarray:
    """One block of a zoo kernel at coordinate lists ``a`` and ``b``, in plain Python."""
    kind = spec["type"]
    if kind == "constant":
        return np.array([[spec["value"]]], dtype=complex)
    if kind in ("gaussian", "laplacian", "polynomial"):
        if kind == "gaussian":
            value = math.exp(-spec["gamma"] * sum((p - q) ** 2 for p, q in zip(a, b)))
        elif kind == "laplacian":
            value = math.exp(-spec["gamma"] * sum(abs(p - q) for p, q in zip(a, b)))
        else:
            value = (sum(p * q for p, q in zip(a, b)) + spec["offset"]) ** spec["degree"]
        return np.array([[value]], dtype=complex)
    if kind == "separable":
        matrix = [[complex(*e) if isinstance(e, list) else e for e in row] for row in spec["matrix"]]
        return np.array(matrix, dtype=complex) * _reference(spec["scalar"], a, b)[0, 0]
    if kind == "diagonal":
        return np.diag([_reference(block, a, b)[0, 0] for block in spec["blocks"]])
    return sum(_reference(term, a, b) for term in spec["terms"])


def _zoo_reference(spec):
    def block(space, x, t):
        return _reference(spec, space.coords[x].tolist(), space.coords[t].tolist())

    return block


TABLE_SOURCE = dict(ZOO)["separable_complex"]


def _precomputed(tmp_path, space):
    path = tmp_path / "table.csv"
    write_precomputed(build_kernel(TABLE_SOURCE), space, path)
    return read_precomputed(path)


def _frame_values(space) -> np.ndarray:
    rng = np.random.default_rng(223)
    return rng.standard_normal((5, len(space), 2)) + 1j * rng.standard_normal((5, len(space), 2))


def _frame_synth_reference(space, x, t):
    """``K(x, t)[l, j] = sum_i conj(v_i^l(x)) v_i^j(t)``, one product at a time."""
    v = _frame_values(space).tolist()
    return np.array([[sum(vi[x][l].conjugate() * vi[t][j] for vi in v) for j in range(2)] for l in range(2)])


def _delta_reference(space, x, t):
    return np.eye(2, dtype=complex) * (space.labels[x] == space.labels[t])


def _frame_synth(tmp_path, space):
    return synthesize_kernel(FrameFamily(space.labels, _frame_values(space)))


# name, kernel over the space, and the plain-Python block at atom positions (x, t)
KERNELS = [
    (name, lambda tmp_path, space, spec=spec: build_kernel(spec), _zoo_reference(spec)) for name, spec in ZOO
] + [
    ("precomputed", _precomputed, _zoo_reference(TABLE_SOURCE)),
    ("frame_synth", _frame_synth, _frame_synth_reference),
    ("delta", lambda tmp_path, space: delta_kernel(2), _delta_reference),
]
MAKERS = pytest.mark.parametrize("make", [make for _, make, _ in KERNELS], ids=[name for name, _, _ in KERNELS])

# rows and cols (None: left out, so the same atoms as rows)
INDEX_CASES = {
    "repeated": ([1, 4, 1, 7, 7], [7, 2, 7]),
    "repeated_same": ([1, 4, 1, 7, 7], None),
    "permutation": ([8, 3, 0, 5, 1, 7, 2, 6, 4], None),
    "distinct": ([0, 2, 5], [3, 8, 6, 1]),
    "empty": ([], None),
    "empty_rows": ([], [0, 3]),
    "empty_cols": ([2, 5], []),
}


def _per_pair(kernel, space, rows, cols):
    """Blocks from one single-pair ``gram`` call per pair."""
    blocks = [gram(kernel, space, [x], [t])[0, 0] for x in rows for t in cols]
    return np.array(blocks, dtype=complex).reshape(len(rows), len(cols), kernel.n, kernel.n)


@MAKERS
def test_batched_blocks_equal_per_pair_eval(tmp_path, make):
    space = _space()
    kernel = make(tmp_path, space)
    xs = [0, 1, 4, 7, 3, 1]  # repeats, zero mass, the same atom twice
    ts = [2, 8, 5, 4]
    every = list(range(len(space)))
    for rows, cols in ((xs, ts), (ts, xs), (every, every)):
        blocks = gram(kernel, space, rows, cols)
        assert blocks.shape == (len(rows), len(cols), kernel.n, kernel.n)
        np.testing.assert_allclose(blocks, _per_pair(kernel, space, rows, cols), rtol=1e-15, atol=1e-15)
    same = gram(kernel, space, xs)
    np.testing.assert_allclose(same, _per_pair(kernel, space, xs, xs), rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(diagonal_blocks(kernel, space, xs), np.einsum("xxlj->xlj", same))


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=[name for name, _ in ZOO])
def test_batched_blocks_match_a_plain_python_reference(spec):
    space = _space()
    block = _zoo_reference(spec)
    expected = np.array([[block(space, x, t) for t in range(len(space))] for x in range(len(space))])
    np.testing.assert_allclose(gram(build_kernel(spec), space), expected, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("case", list(INDEX_CASES))
@pytest.mark.parametrize("name, make, block", KERNELS, ids=[name for name, _, _ in KERNELS])
def test_index_arrays_match_a_plain_python_reference(tmp_path, name, make, block, case):
    space = _space()
    kernel = make(tmp_path, space)
    rows, cols = INDEX_CASES[case]
    blocks = gram(kernel, space, np.array(rows, dtype=int), None if cols is None else np.array(cols, dtype=int))
    cols = rows if cols is None else cols
    assert blocks.shape == (len(rows), len(cols), kernel.n, kernel.n)
    expected = np.array([[block(space, x, t) for t in cols] for x in rows], dtype=complex)
    np.testing.assert_allclose(blocks, expected.reshape(blocks.shape), rtol=1e-14, atol=1e-15)
    # lists work as index arrays too
    assert gram(kernel, space, rows, INDEX_CASES[case][1]).tobytes() == blocks.tobytes()


@MAKERS
def test_gram_of_a_set_with_itself_is_exactly_hermitian(tmp_path, make):
    space = _space()
    kernel = make(tmp_path, space)
    # every atom, then a permutation with repeats: cols left out, so the same atoms as rows
    for blocks in (gram(kernel, space), gram(kernel, space, [5, 1, 4, 1, 8, 0, 2, 7])):
        np.testing.assert_array_equal(blocks, np.conj(blocks.transpose(1, 0, 3, 2)))


def test_gram_of_an_empty_set():
    kernel = build_kernel(dict(ZOO)["separable"])
    space = _space()
    assert gram(kernel, space, [], None).shape == (0, 0, 2, 2)
    assert gram(kernel, space, [], range(len(space))).shape == (0, len(space), 2, 2)
    assert gram(kernel, space, None, []).shape == (len(space), 0, 2, 2)
    assert diagonal_blocks(kernel, space, []).shape == (0, 2, 2)


# the expressions the scalar kernels evaluated before they summed one coordinate at a time
_BROADCAST = {
    "gaussian": lambda x, t: np.exp(-0.7 * np.square(x[:, None] - t[None]).sum(axis=-1)),
    "laplacian": lambda x, t: np.exp(-0.7 * np.abs(x[:, None] - t[None]).sum(axis=-1)),
    "polynomial": lambda x, t: ((x[:, None] * t[None]).sum(axis=-1) + 0.5) ** 3,
}


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("kind", sorted(_BROADCAST))
def test_coordinate_sums_equal_the_broadcast_sum_bit_for_bit(kind, d):
    coords = np.random.default_rng(d).standard_normal((12, d))
    coords[5] = coords[2]  # a repeated atom
    coords[7] = 0.0
    coords[8] = -0.0
    space = AtomSpace(tuple(f"x{i}" for i in range(12)), coords, np.ones(12))
    params = {"gaussian": {"gamma": 0.7}, "laplacian": {"gamma": 0.7}, "polynomial": {"degree": 3, "offset": 0.5}}
    kernel = build_kernel({"type": kind, **params[kind]})
    other = np.random.default_rng(d + 100).standard_normal((5, d))
    both = AtomSpace(space.labels + tuple(f"y{i}" for i in range(5)), np.vstack([coords, other]), np.ones(17))
    rows, cols = np.arange(12), np.arange(12, 17)
    for got, x, t in ((gram(kernel, space), coords, coords), (gram(kernel, both, rows, cols), coords, other)):
        assert got[:, :, 0, 0].tobytes() == _BROADCAST[kind](x, t).tobytes()


def test_repeated_atoms_have_identical_blocks():
    space = _space()
    for _, spec in ZOO:
        blocks = gram(build_kernel(spec), space)
        np.testing.assert_array_equal(blocks[1], blocks[4])
        np.testing.assert_array_equal(blocks[:, 2], blocks[:, 7])


def test_precomputed_table_missing_a_pair_names_both_labels(tmp_path):
    path = tmp_path / "table.csv"
    # a and b are paired, c stands alone; z is not in the table at all
    path.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\na,b,0,0,0.5,0.0\nb,b,0,0,1.0,0.0\nc,c,0,0,1.0,0.0\n")
    kernel = read_precomputed(path)
    space = AtomSpace(("a", "b", "c", "z"), np.zeros((4, 0)), np.ones(4))
    np.testing.assert_array_equal(gram(kernel, space, [0, 1])[:, :, 0, 0], [[1.0, 0.5], [0.5, 1.0]])
    for rows, cols, pair in (
        ([0, 1], [2], "('a', 'c')"),
        ([2], [1, 0], "('c', 'b')"),
        ([0, 1, 2], None, "('a', 'c')"),
        ([1], [3], "('b', 'z')"),
        ([3], None, "('z', 'z')"),
    ):
        with pytest.raises(KernelEvaluationError) as info:
            gram(kernel, space, rows, cols)
        assert str(info.value) == f"precomputed kernel has no entry for pair {pair}"
