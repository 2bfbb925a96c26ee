"""Kernel zoo evaluation, Gram assembly, validation, and the table format."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import ZOO, ZOO_IDS, random_space, space_from
from mercerkit import (
    KernelEvaluationError,
    KernelSpecError,
    KernelSymmetryError,
    MatrixKernel,
    RescaledMeasure,
    assemble_operator,
    build_kernel,
    diagonal_blocks,
    gram,
    kernel_from_file,
    psd_tolerance,
    read_precomputed,
    validate_kernel,
    write_precomputed,
)
from mercerkit.kernels import _flat, _require_hermitian, _spectral_norms


# ---------------------------------------------------------------------------
# zoo evaluation, hand values
# ---------------------------------------------------------------------------


def _space(coords, labels=None):
    return space_from(coords, np.ones(len(coords)), labels)


def test_constant_eval():
    k = build_kernel({"type": "constant", "value": 1.0})
    space = _space([[0.0], [9.0]])
    assert k.n == 1
    np.testing.assert_array_equal(gram(k, space, [0], [1])[0, 0], [[1.0]])


def test_gaussian_eval_hand():
    k = build_kernel({"type": "gaussian", "gamma": 1.0})
    space = _space([[0.0], [1.0]])
    assert complex(gram(k, space, [0], [1])[0, 0][0, 0]) == pytest.approx(math.exp(-1.0), abs=1e-16)
    assert complex(gram(k, space, [0], [0])[0, 0][0, 0]) == 1.0


def test_laplacian_eval_hand():
    k = build_kernel({"type": "laplacian", "gamma": 0.7})
    space = _space([[0.0, 0.0], [1.0, -2.0]])
    assert complex(gram(k, space, [0], [1])[0, 0][0, 0]) == pytest.approx(math.exp(-0.7 * 3.0), rel=1e-15)


def test_polynomial_eval_hand():
    k = build_kernel({"type": "polynomial", "degree": 2, "offset": 1.0})
    space = _space([[1.0, 2.0], [3.0, 4.0]])
    assert complex(gram(k, space, [0], [1])[0, 0][0, 0]) == (11.0 + 1.0) ** 2


def test_separable_constant_blocks_equal_matrix():
    spec = {
        "type": "separable",
        "matrix": [[2.0, 1.0], [1.0, 2.0]],
        "scalar": {"type": "constant", "value": 1.0},
    }
    k = build_kernel(spec)
    space = _space([[0.0], [5.0]])
    np.testing.assert_array_equal(gram(k, space, [0], [1])[0, 0], [[2.0, 1.0], [1.0, 2.0]])
    assert k.n == 2


def test_separable_complex_entries():
    spec = {
        "type": "separable",
        "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
        "scalar": {"type": "gaussian", "gamma": 1.2},
    }
    k = build_kernel(spec)
    space = _space([[0.0], [1.0]])
    g = math.exp(-1.2)
    block = gram(k, space, [0], [1])[0, 0]
    assert complex(block[0, 1]) == pytest.approx(1j * g, rel=1e-15)
    assert complex(block[1, 0]) == pytest.approx(-1j * g, rel=1e-15)


def test_diagonal_kernel_blocks():
    spec = {
        "type": "diagonal",
        "blocks": [{"type": "gaussian", "gamma": 1.0}, {"type": "constant", "value": 1.0}],
    }
    k = build_kernel(spec)
    space = _space([[0.0], [1.0]])
    block = gram(k, space, [0], [1])[0, 0]
    assert complex(block[0, 0]) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert complex(block[1, 1]) == 1.0
    assert complex(block[0, 1]) == 0.0


@pytest.mark.parametrize("table_first", [False, True])
def test_diagonal_kernel_takes_the_dtype_of_its_entries(tmp_path, table_first):
    path = tmp_path / "k.csv"
    path.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,2.0,0.0\na,b,0,0,0.25,0.5\n")
    space = space_from([0.0, 1.0], [1.0, 1.0])
    gaussian, table = {"type": "gaussian", "gamma": 1.0}, {"type": "precomputed", "path": str(path)}
    real = gram(build_kernel({"type": "diagonal", "blocks": [gaussian, gaussian]}), space)
    assert real.dtype == np.float64
    blocks = [table, gaussian] if table_first else [gaussian, table]
    mixed = gram(build_kernel({"type": "diagonal", "blocks": blocks}), space)
    assert mixed.dtype == np.complex128
    g, t = (1, 0) if table_first else (0, 1)
    np.testing.assert_array_equal(mixed[:, :, g, g], real[:, :, 0, 0])
    np.testing.assert_array_equal(mixed[:, :, t, t], [[1.0, 0.25 + 0.5j], [0.25 - 0.5j, 2.0]])
    assert not mixed[:, :, 0, 1].any() and not mixed[:, :, 1, 0].any()


def test_sum_kernel_is_pointwise_sum():
    spec = {
        "type": "sum",
        "terms": [{"type": "gaussian", "gamma": 1.0}, {"type": "constant", "value": 0.5}],
    }
    k = build_kernel(spec)
    space = _space([[0.0], [1.0]])
    assert complex(gram(k, space, [0], [1])[0, 0][0, 0]) == pytest.approx(math.exp(-1.0) + 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# spec validation errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "warp", "gamma": 1.0},
        {"type": "gaussian", "gamma": 0.0},
        {"type": "gaussian", "gamma": -2.0},
        {"type": "laplacian"},
        {"type": "polynomial", "degree": 0, "offset": 1.0},
        {"type": "polynomial", "degree": 1.5, "offset": 1.0},
        {"type": "polynomial", "degree": 2, "offset": -1.0},
        {"type": "constant", "value": "one"},
        {"type": "separable", "matrix": [[1.0, 2.0], [0.0, 1.0]], "scalar": {"type": "constant", "value": 1.0}},
        {"type": "separable", "matrix": [[1.0, 2.0], [2.0, 1.0]], "scalar": {"type": "constant", "value": 1.0}},
        {
            "type": "separable",
            "matrix": [[1.0]],
            "scalar": {"type": "diagonal", "blocks": [{"type": "constant", "value": 1.0}, {"type": "constant", "value": 1.0}]},
        },
        {"type": "diagonal", "blocks": []},
        {"type": "sum", "terms": [{"type": "gaussian", "gamma": 1.0}]},
        {
            "type": "sum",
            "terms": [
                {"type": "gaussian", "gamma": 1.0},
                {"type": "diagonal", "blocks": [{"type": "constant", "value": 1.0}, {"type": "constant", "value": 1.0}]},
            ],
        },
        {},
    ],
)
def test_build_kernel_rejects_bad_specs(spec):
    with pytest.raises(KernelSpecError):
        build_kernel(spec)


def test_unknown_type_message():
    with pytest.raises(KernelSpecError, match="unknown kernel type"):
        build_kernel({"type": "sinc"})


# ---------------------------------------------------------------------------
# Hermitian pair law and Gram assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_hermitian_pair_law(spec):
    rng = np.random.default_rng(11)
    kernel = build_kernel(spec)
    space = random_space(rng, 10, dim=3)
    worst = 0.0
    for x in range(len(space)):
        for t in range(len(space)):
            k_xt, k_tx = gram(kernel, space, [x], [t])[0, 0], gram(kernel, space, [t], [x])[0, 0]
            dev = np.max(np.abs(k_xt - k_tx.conj().T))
            worst = max(worst, float(dev))
    assert worst <= 1e-12


def _unit_operator(kernel, space):
    """The operator matrix at unit rescaled weights: the kernel's Gram, checked and made Hermitian by assembly."""
    nu = RescaledMeasure(np.ones(len(space)), 0.0, diagonal_blocks(kernel, space))
    return assemble_operator(space, kernel, nu).matrix


def test_block_gram_gaussian_hand():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    gram = _unit_operator(kernel, space)
    e = math.exp(-1.0)
    np.testing.assert_allclose(gram, [[1.0, e], [e, 1.0]], atol=1e-16)
    assert not gram.flags.writeable


def test_block_gram_layout_interleaves_components():
    # index (atom, component) -> atom * n + component
    spec = {
        "type": "separable",
        "matrix": [[2.0, 1.0], [1.0, 2.0]],
        "scalar": {"type": "constant", "value": 1.0},
    }
    kernel = build_kernel(spec)
    space = space_from([0.0, 4.0], [1.0, 1.0])
    flat = _flat(gram(kernel, space))
    assert flat.shape == (4, 4)
    np.testing.assert_array_equal(flat[0:2, 2:4], [[2.0, 1.0], [1.0, 2.0]])


def test_assemble_rejects_large_asymmetry():
    def ev(x, t):
        return np.array([[float(x.coords[0] - t.coords[0]) + 1.0]], dtype=complex)

    kernel = MatrixKernel(n=1, eval=ev, label="skew")
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(KernelSymmetryError, match=r"not Hermitian: max deviation 2\.000e\+00 exceeds"):
        _unit_operator(kernel, space)


def test_assemble_averages_tiny_asymmetry():
    wobble = 1e-13

    def ev(x, t):
        base = 1.0 if x.label == t.label else 0.5
        skew = wobble if x.label < t.label else 0.0
        return np.array([[base + skew]], dtype=complex)

    kernel = MatrixKernel(n=1, eval=ev, label="wobble")
    space = space_from([0.0, 1.0], [1.0, 1.0])
    gram = _unit_operator(kernel, space)
    np.testing.assert_array_equal(gram, gram.conj().T)
    assert complex(gram[0, 1]) == pytest.approx(0.5 + wobble / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# validation reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_validate_zoo_kernels_pass(spec):
    rng = np.random.default_rng(5)
    kernel = build_kernel(spec)
    space = random_space(rng, 14, dim=2)
    report = validate_kernel(kernel, space)
    assert report.passed
    assert report.hermitian_deviation <= 1e-12
    assert report.min_eigenvalue >= -report.tol_psd


def test_validate_flags_indefinite_kernel():
    def ev(x, t):
        return np.array([[-1.0 if x.label == t.label else 0.0]], dtype=complex)

    kernel = MatrixKernel(n=1, eval=ev, label="negative")
    space = space_from([0.0, 1.0], [1.0, 1.0])
    report = validate_kernel(kernel, space)
    assert report.hermitian_ok
    assert not report.psd_ok
    assert not report.passed
    assert report.min_eigenvalue < -report.tol_psd
    data = report.to_dict()
    assert data["passed"] is False
    assert data["n_atoms"] == 2


def test_validate_flags_asymmetric_kernel_without_raising():
    def ev(x, t):
        return np.array([[float(x.coords[0] - t.coords[0]) + 1.0]], dtype=complex)

    kernel = MatrixKernel(n=1, eval=ev, label="skew")
    space = space_from([0.0, 1.0], [1.0, 1.0])
    report = validate_kernel(kernel, space)
    assert not report.hermitian_ok
    assert not report.passed


def test_spectral_norm_checks_hermitian():
    assert _spectral_norms(np.array([[3.0]])) == 3.0
    assert _spectral_norms(np.array([[-3.0]])) == 3.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert _spectral_norms(swap) == pytest.approx(1.0)
    # one norm per matrix of a stack
    np.testing.assert_allclose(_spectral_norms(np.stack([swap, 2.0 * np.eye(2)])), [1.0, 2.0])
    _require_hermitian(swap)
    with pytest.raises(KernelSymmetryError, match="not Hermitian"):
        _require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_psd_tolerance_floors_at_unit_scale():
    assert psd_tolerance(0.5) == 1e-10
    assert psd_tolerance(4.0) == 4e-10


# ---------------------------------------------------------------------------
# precomputed block tables
# ---------------------------------------------------------------------------


def test_precomputed_roundtrip(tmp_path):
    spec = {
        "type": "separable",
        "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
        "scalar": {"type": "gaussian", "gamma": 1.2},
    }
    kernel = build_kernel(spec)
    space = space_from([0.0, 1.0, 2.5], [1.0, 1.0, 1.0])
    path = tmp_path / "kernel.csv"
    write_precomputed(kernel, space, path)
    back = read_precomputed(path)
    assert back.n == 2
    for x in range(len(space)):
        for t in range(len(space)):
            expected = gram(kernel, space, [x], [t])[0, 0]
            np.testing.assert_allclose(gram(back, space, [x], [t])[0, 0], expected, atol=1e-15)


def test_precomputed_mirror_fill(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(
        "x_id,t_id,l,j,re,im\n"
        "a,a,0,0,1.0,0.0\n"
        "b,b,0,0,2.0,0.0\n"
        "a,b,0,0,0.25,0.5\n"
    )
    kernel = read_precomputed(path)
    space = space_from([0.0, 1.0], [1.0, 1.0])
    assert complex(gram(kernel, space, [0], [1])[0, 0][0, 0]) == 0.25 + 0.5j
    assert complex(gram(kernel, space, [1], [0])[0, 0][0, 0]) == 0.25 - 0.5j


def test_precomputed_unknown_pair_raises(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\n")
    kernel = read_precomputed(path)
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(KernelEvaluationError, match="'b'"):
        gram(kernel, space, [0], [1])


def test_precomputed_missing_entry_raises(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text(
        "x_id,t_id,l,j,re,im\n"
        "a,a,0,0,1.0,0.0\n"
        "a,a,0,1,0.5,0.0\n"
    )
    # the (1,1) diagonal entry has no mirror anywhere
    with pytest.raises(KernelSpecError, match="missing"):
        read_precomputed(path)


def test_precomputed_bad_rows(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,t,l,j,re,im\na,a,0,0,1.0,0.0\n")
    with pytest.raises(KernelSpecError, match="header"):
        read_precomputed(bad_header)
    bad_value = tmp_path / "v.csv"
    bad_value.write_text("x_id,t_id,l,j,re,im\na,a,0,0,one,0.0\n")
    with pytest.raises(KernelSpecError, match="line 2"):
        read_precomputed(bad_value)


def test_kernel_from_file_and_relative_paths(tmp_path):
    inner = tmp_path / "tables"
    inner.mkdir()
    base = build_kernel({"type": "gaussian", "gamma": 1.0})
    space = space_from([0.0, 1.0], [1.0, 1.0])
    write_precomputed(base, space, inner / "grid.csv")
    spec_path = tmp_path / "kernel.json"
    spec_path.write_text(json.dumps({"type": "precomputed", "path": "tables/grid.csv"}))
    kernel = kernel_from_file(spec_path)
    assert complex(gram(kernel, space, [0], [1])[0, 0][0, 0]) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_kernel_from_file_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "gaussian",\n  "gamma": }\n')
    with pytest.raises(KernelSpecError, match="line"):
        kernel_from_file(path)


def test_frame_synth_kernel_from_frames(tmp_path):
    # both components carry the single frame function identically 1 on {a, b}:
    # every block of the synthesized kernel is the all-ones matrix
    for j in range(2):
        (tmp_path / f"frame{j}.csv").write_text(
            "i,atom_id,value_re,value_im\n"
            "0,a,1.0,0.0\n"
            "0,b,1.0,0.0\n"
        )
    spec = {"type": "frame_synth", "frames": ["frame0.csv", "frame1.csv"]}
    spec_path = tmp_path / "kernel.json"
    spec_path.write_text(json.dumps(spec))
    kernel = kernel_from_file(spec_path)
    assert kernel.n == 2
    space = space_from([0.0, 1.0], [1.0, 1.0])
    for x in range(len(space)):
        for t in range(len(space)):
            np.testing.assert_array_equal(gram(kernel, space, [x], [t])[0, 0], np.ones((2, 2)))
