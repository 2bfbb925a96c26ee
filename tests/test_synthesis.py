"""Kernel synthesis from scalar frame families."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import decompose_space, frames_of, random_space, space_from
from mercerkit import (
    KernelEvaluationError,
    ScalarFrame,
    build_kernel,
    default_tol_recon,
    extract_frame,
    gram,
    synthesize_kernel,
    validate_kernel,
    verify_diagonal_blocks,
)


def _frame(atoms, rows):
    return ScalarFrame(tuple(atoms), np.asarray(rows, dtype=complex))


# ---------------------------------------------------------------------------
# alignment: the frames' atoms, vectors and dtype
# ---------------------------------------------------------------------------


def test_align_pads_shorter_frames_with_zeros():
    f0 = _frame(("a", "b"), [[1.0, 2.0], [3.0, 4.0]])
    f1 = _frame(("a", "b"), [[5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
    index, values = synthesize_kernel([f0, f1]).frames
    assert tuple(index) == ("a", "b")
    assert values.shape == (3, 2, 2)
    np.testing.assert_array_equal(values[:, :, 1], f1.values)
    np.testing.assert_array_equal(values[:2, :, 0], f0.values)
    np.testing.assert_array_equal(values[2, :, 0], [0.0, 0.0])


def test_align_preserves_equal_sized_frames():
    f0 = _frame(("a",), [[1.0 + 2.0j]])
    f1 = _frame(("a",), [[-3.0j]])
    _, values = synthesize_kernel([f0, f1]).frames
    np.testing.assert_array_equal(values[:, :, 0], f0.values)
    np.testing.assert_array_equal(values[:, :, 1], f1.values)


def test_align_rejects_mismatched_atoms():
    f0 = _frame(("a", "b"), [[1.0, 2.0]])
    f1 = _frame(("a", "c"), [[1.0, 2.0]])
    with pytest.raises(ValueError, match="frames disagree on the atom set"):
        synthesize_kernel([f0, f1])
    with pytest.raises(ValueError, match="frames disagree on the atom set"):
        synthesize_kernel([f0, _frame(("b", "a"), [[2.0, 1.0]])])


def test_align_requires_a_frame():
    with pytest.raises(ValueError, match="needs at least one frame"):
        synthesize_kernel([])


def test_frame_values_wider_than_its_atoms_are_rejected_by_component():
    # five values for two atoms: the error names the component and both shapes
    with pytest.raises(ValueError, match=r"^frame of component 0: values of shape \(3, 5\), expected \(count, 2\)$"):
        synthesize_kernel([ScalarFrame(("a", "b"), np.ones((3, 5)))])


def test_one_dimensional_frame_values_are_rejected_by_component():
    # a vector beside a (1, 2) frame is not broadcast into frame vectors
    frames = [ScalarFrame(("a", "b"), np.ones((1, 2))), ScalarFrame(("a", "b"), np.ones(2))]
    with pytest.raises(ValueError, match=r"^frame of component 1: values of shape \(2,\), expected \(count, 2\)$"):
        synthesize_kernel(frames)


def test_an_empty_frame_gives_an_all_zero_component():
    # a frame file with no rows is read as no atoms and no vectors
    kernel = synthesize_kernel([_frame(("a", "b"), [[1.0, 2.0]]), ScalarFrame((), np.zeros((0, 0)))])
    index, values = kernel.frames
    assert tuple(index) == ("a", "b") and kernel.n == 2
    np.testing.assert_array_equal(values[:, :, 1], [[0.0, 0.0]])


def test_real_frames_make_a_real_factor_and_a_complex_one_a_complex_factor():
    real = ScalarFrame(("a",), np.ones((1, 1), dtype=np.float32))
    assert synthesize_kernel([real]).frames[1].dtype == np.float64
    assert synthesize_kernel([real, _frame(("a",), [[1.0]])]).frames[1].dtype == np.complex128


def test_ones_frames_give_all_ones_blocks():
    kernel = synthesize_kernel([_frame(("a", "b"), [[1.0, 1.0]]), _frame(("a", "b"), [[1.0, 1.0]])])
    assert kernel.n == 2
    space = space_from([0.0, 1.0], [1.0, 1.0])
    for x in range(len(space)):
        for t in range(len(space)):
            np.testing.assert_array_equal(gram(kernel, space, [x], [t])[0, 0], np.ones((2, 2)))
    assert validate_kernel(kernel, space).passed


def test_block_entries_are_frame_inner_products():
    # K(x,t)[l,j] = sum_i f_i^j(t) conj(f_i^l(x)), checked entrywise
    kernel = synthesize_kernel([_frame(("a", "b"), [[1.0, 1.0j]]), _frame(("a", "b"), [[2.0, 0.0]])])
    space = space_from([0.0, 1.0], [1.0, 1.0])
    a, b = 0, 1
    assert complex(gram(kernel, space, [a], [a])[0, 0][0, 1]) == 2.0
    assert complex(gram(kernel, space, [a], [b])[0, 0][0, 1]) == 0.0
    assert complex(gram(kernel, space, [b], [a])[0, 0][0, 1]) == -2.0j  # conj(i) * 2
    assert complex(gram(kernel, space, [b], [b])[0, 0][0, 0]) == 1.0  # conj(i) * i


def test_zero_frame_component_vanishes():
    kernel = synthesize_kernel([_frame(("a", "b"), [[1.0, 2.0]]), _frame(("a", "b"), [[0.0, 0.0]])])
    space = space_from([0.0, 1.0], [1.0, 1.0])
    for x in range(len(space)):
        for t in range(len(space)):
            block = gram(kernel, space, [x], [t])[0, 0]
            assert complex(block[1, 1]) == 0.0
            assert complex(block[0, 1]) == 0.0
            assert complex(block[1, 0]) == 0.0


def test_synthesized_kernel_undefined_off_family():
    kernel = synthesize_kernel([_frame(("a",), [[1.0]])])
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(KernelEvaluationError, match="'b'"):
        gram(kernel, space, [0], [1])


@pytest.mark.parametrize("dtype", [float, complex])
def test_frame_near_the_largest_float_synthesizes_finite_blocks(dtype):
    # the Hermitian part of the blocks (each 1e308) is formed from the halves where their sum overflows
    kernel = synthesize_kernel([ScalarFrame(("a", "b"), np.full((1, 2), 1e154, dtype=dtype))])
    space = space_from([0.0, 1.0], [1.0, 1.0])
    constant = build_kernel({"type": "constant", "value": 1e154 * 1e154})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocks = gram(kernel, space)
        deviation = verify_diagonal_blocks(kernel, [constant], space)
    np.testing.assert_array_equal(blocks, np.full((2, 2, 1, 1), 1e154 * 1e154))
    assert deviation == 0.0


def test_random_families_synthesize_valid_kernels():
    # sums of rank-one squares: Hermitian exactly, PSD within tolerance
    rng = np.random.default_rng(137)
    space = space_from(np.arange(5.0), np.ones(5))
    for _ in range(20):
        count = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        values = rng.standard_normal((count, 5, n)) + 1j * rng.standard_normal((count, 5, n))
        kernel = synthesize_kernel(frames_of(space.labels, values))
        report = validate_kernel(kernel, space)
        assert report.passed
        assert report.hermitian_deviation == 0.0


def test_diagonal_blocks_equal_squared_frame_sums_exactly():
    rng = np.random.default_rng(139)
    values = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    space = space_from([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    kernel = synthesize_kernel(frames_of(space.labels, values))
    for ix in range(len(space)):
        # cols left out: the atom with itself, whose product is exactly Hermitian
        block = gram(kernel, space, [ix])[0, 0]
        for j in range(2):
            target = float(np.sum(np.abs(values[:, ix, j]) ** 2))
            entry = complex(block[j, j])
            assert entry.imag == 0.0  # conj(v) v has exactly zero imaginary part
            assert entry.real == pytest.approx(target, rel=1e-14)


# ---------------------------------------------------------------------------
# round trips through spectral frames
# ---------------------------------------------------------------------------


def test_round_trip_reproduces_scalar_diagonals():
    rng = np.random.default_rng(149)
    space = random_space(rng, 10, dim=2)
    specs = [{"type": "gaussian", "gamma": 1.0}, {"type": "gaussian", "gamma": 2.0}]
    kernels = [build_kernel(s) for s in specs]
    frames = []
    tol = 0.0
    for spec in specs:
        dec = decompose_space(space, spec)
        frames.append(extract_frame(dec, 0))
        tol = max(tol, default_tol_recon(dec))
    synthesized = synthesize_kernel(frames)
    deviation = verify_diagonal_blocks(synthesized, kernels, space)
    assert deviation <= tol
    assert validate_kernel(synthesized, space).passed


def test_halved_frames_shrink_diagonal_blocks():
    # scaling every frame vector by 1/2 scales the block by 1/4, so the
    # deviation from the original is 3/4 of its largest value (the diagonal)
    rng = np.random.default_rng(151)
    space = random_space(rng, 8, dim=2)
    spec = {"type": "gaussian", "gamma": 1.0}
    dec = decompose_space(space, spec)
    frame = extract_frame(dec, 0)
    halved = ScalarFrame(frame.atoms, 0.5 * frame.values)
    synthesized = synthesize_kernel([halved])
    deviation = verify_diagonal_blocks(synthesized, [build_kernel(spec)], space)
    assert deviation == pytest.approx(0.75, abs=1e-9)


# ---------------------------------------------------------------------------
# verify_diagonal_blocks argument checks
# ---------------------------------------------------------------------------


def test_verify_rejects_wrong_original_count():
    kernel = synthesize_kernel([_frame(("a",), [[1.0]]), _frame(("a",), [[1.0]])])
    space = space_from([0.0], [1.0])
    with pytest.raises(ValueError, match="one scalar original"):
        verify_diagonal_blocks(kernel, [build_kernel({"type": "constant", "value": 1.0})], space)


def test_verify_rejects_matrix_originals():
    kernel = synthesize_kernel([_frame(("a",), [[1.0]])])
    space = space_from([0.0], [1.0])
    matrix_kernel = build_kernel(
        {"type": "diagonal", "blocks": [{"type": "constant", "value": 1.0}, {"type": "constant", "value": 1.0}]}
    )
    with pytest.raises(ValueError, match="not scalar"):
        verify_diagonal_blocks(kernel, [matrix_kernel], space)
