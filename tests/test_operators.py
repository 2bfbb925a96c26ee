"""Measure rescaling, the discrete operator, eigendecomposition, embeddings."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import NEAR_MAX_SEPARABLE, ZOO, ZOO_IDS, decompose_space, delta_kernel, random_space, space_from
from mercerkit import operators
from mercerkit import (
    EmptySupportError,
    RKHSElement,
    assemble_operator,
    build_kernel,
    default_tol_eig,
    eigendecompose,
    embedding_norm_bound_check,
    gram,
    merge_classes,
    pseudo_metric,
    quotient,
    read_precomputed,
    reconstruct,
    rescale_measure,
    rkhs_inner,
    trace_check,
    truncate,
    write_eigenfunctions,
    write_precomputed,
    write_spectrum,
)
from mercerkit.kernels import _flat


# ---------------------------------------------------------------------------
# measure rescaling
# ---------------------------------------------------------------------------


def test_rescale_identity_kernel_hand():
    space = space_from([0.0, 1.0], [1.0, 3.0])
    nu = rescale_measure(space, delta_kernel(1))
    np.testing.assert_array_equal(nu.weights, [0.5, 1.5])
    assert nu.m_nu == 2.0


def test_rescale_uses_spectral_norm_of_diagonal_block():
    spec = {
        "type": "separable",
        "matrix": [[2.0, 1.0], [1.0, 2.0]],
        "scalar": {"type": "constant", "value": 1.0},
    }
    space = space_from([0.0, 1.0], [1.0, 1.0])
    nu = rescale_measure(space, build_kernel(spec))
    # |K(x,x)| = 3 (largest eigenvalue of the matrix), trace = 4
    np.testing.assert_allclose(nu.weights, [0.25, 0.25], atol=1e-15)
    assert nu.m_nu == pytest.approx(2.0, abs=1e-14)


def test_rescale_keeps_zero_masses_zero():
    space = space_from([0.0, 1.0, 2.0], [1.0, 0.0, 2.0])
    nu = rescale_measure(space, build_kernel({"type": "constant", "value": 1.0}))
    assert nu.weights[1] == 0.0
    assert nu.weights[0] == 0.5


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def test_assemble_operator_identity_hand():
    space = space_from([0.0, 1.0], [1.0, 3.0])
    kernel = delta_kernel(1)
    nu = rescale_measure(space, kernel)
    op = assemble_operator(space, kernel, nu)
    assert op.indices.tolist() == [0, 1]
    np.testing.assert_allclose(op.matrix, [[0.5, 0.0], [0.0, 1.5]], atol=1e-16)


def test_assemble_operator_skips_zero_mass_atoms():
    space = space_from([0.0, 1.0, 9.0], [1.0, 0.0, 3.0])
    kernel = delta_kernel(1)
    nu = rescale_measure(space, kernel)
    op = assemble_operator(space, kernel, nu)
    # the positive-weight atoms, a read-only intp array in atom order
    assert op.indices.tolist() == [0, 2]
    assert op.indices.dtype == np.intp and not op.indices.flags.writeable
    assert op.matrix.shape == (2, 2)


def test_separable_operator_is_the_scalar_factor():
    # the operator of k B is matrix (x) B: matrix is P x P, not (P n) x (P n)
    spec = dict(ZOO)["separable_complex"]
    kernel = build_kernel(spec)
    space = random_space(np.random.default_rng(31), 7, dim=2, zero_mass=2)
    nu = rescale_measure(space, kernel)
    op = assemble_operator(space, kernel, nu)
    pos = np.flatnonzero(nu.weights > 0)
    np.testing.assert_array_equal(op.indices, pos)
    assert op.matrix.shape == (5, 5)
    scale = np.sqrt(nu.weights[pos])
    expected = _flat(gram(build_kernel(spec["scalar"]), space, pos)) * scale[:, None] * scale[None, :]
    np.testing.assert_array_equal(op.matrix, expected)


def test_assemble_operator_empty_support():
    space = space_from([0.0, 1.0], [0.0, 0.0])
    kernel = delta_kernel(1)
    with pytest.raises(EmptySupportError, match="empty support"):
        assemble_operator(space, kernel, rescale_measure(space, kernel))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------


def test_eigendecompose_identity_hand():
    # A = diag(0.5, 1.5): spectrum (1.5, 0.5), eigenfunctions are the
    # rescaled coordinate vectors
    space = space_from([0.0, 1.0], [1.0, 3.0])
    dec = decompose_space(space, delta_kernel(1))
    np.testing.assert_allclose(dec.sigmas, [1.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(
        dec.funcs[:, :, 0],
        [[0.0, 1.0 / math.sqrt(1.5)], [1.0 / math.sqrt(0.5), 0.0]],
        atol=1e-15,
    )
    lhs, rhs = trace_check(dec)
    assert rhs == 2.0
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_eigendecompose_constant_hand():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    assert dec.rank == 1
    np.testing.assert_allclose(dec.sigmas, [1.0], atol=1e-15)
    np.testing.assert_allclose(dec.funcs[0, :, 0], [1.0, 1.0], atol=1e-14)
    lhs, rhs = trace_check(dec)
    assert rhs == 1.0
    assert abs(lhs - rhs) <= 1e-10


def test_spectrum_descending_and_positive():
    rng = np.random.default_rng(17)
    for _, spec in ZOO:
        space = random_space(rng, 9, dim=2)
        dec = decompose_space(space, spec)
        assert np.all(dec.sigmas > 0)
        assert np.all(np.diff(dec.sigmas) <= 0)


def test_phase_convention_first_entry_real_positive():
    rng = np.random.default_rng(23)
    spec = {
        "type": "separable",
        "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
        "scalar": {"type": "gaussian", "gamma": 1.2},
    }
    space = random_space(rng, 7, dim=2)
    dec = decompose_space(space, spec)
    pos = np.flatnonzero(dec.nu.weights > 0)
    stacked = dec.funcs[:, pos, :].reshape(dec.rank, -1)
    for i in range(dec.rank):
        row = stacked[i]
        peak = np.max(np.abs(row))
        first = row[np.abs(row) > 1e-12 * peak][0]
        assert abs(first.imag) <= 1e-12 * peak
        assert first.real > 0


def _normalize_column(column: np.ndarray) -> np.ndarray:
    """Reference for ``_normalize_phase``, one column at a time: the first entry above 1e-12 of the peak real positive."""
    mags = np.abs(column)
    first = int(np.argmax(mags > 1e-12 * float(mags.max())))
    return column * np.conj(column[first] / abs(column[first]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_normalize_phase_matches_the_per_column_reference(dtype):
    rng = np.random.default_rng(29)
    vectors = rng.standard_normal((12, 9)).astype(dtype)
    if dtype is complex:
        vectors += 1j * rng.standard_normal((12, 9))
    # leading entries at, just under and just over 1e-12 of the column's peak
    peaks = np.abs(vectors).max(axis=0)
    vectors[0, :3] = 1e-12 * peaks[:3] * np.array([1.0, 0.5, 2.0])
    vectors[:4, 3] = 0.0
    expected = np.stack([_normalize_column(vectors[:, i]) for i in range(9)], axis=1)
    assert operators._normalize_phase(vectors).tobytes() == expected.tobytes()


def test_separable_spectrum_has_no_product_of_two_negative_eigenvalues():
    # two atoms at one point make G_k singular, B = f^H f has rank one; the solvers may return
    # negative rounding-level eigenvalues for both, whose product is positive
    f = np.array([[2 - 1j, 1 - 1j, -2j]])
    b = f.conj().T @ f
    spec = {
        "type": "separable",
        "matrix": [[[z.real, z.imag] for z in row] for row in b.tolist()],
        "scalar": {"type": "gaussian", "gamma": 1.0},
    }
    space = space_from([0.0, 0.0, 0.5], [1.0, 1.0, 1.0])
    kernel = build_kernel(spec)
    nu = rescale_measure(space, kernel)
    scale = np.sqrt(nu.weights)
    lam = np.linalg.eigh(_flat(gram(kernel.separable[0], space)) * scale[:, None] * scale[None, :])[0]
    mu = np.linalg.eigh(b)[0]
    if not ((lam < 0).any() and (mu < 0).any()):
        pytest.skip("no negative rounding-level eigenvalue in both factors with this LAPACK")
    dec = eigendecompose(assemble_operator(space, kernel, nu), rank_cutoff=0.0)
    assert dec.rank == np.sum(lam > 0) * np.sum(mu > 0)


def test_rank_cutoff_drops_tail():
    space = space_from([0.0, 1.0], [1.0, 3.0])
    dec = decompose_space(space, delta_kernel(1), rank_cutoff=1.0)
    np.testing.assert_allclose(dec.sigmas, [1.5], atol=1e-15)
    assert dec.rank == 1
    with pytest.raises(ValueError):
        decompose_space(space, delta_kernel(1), rank_cutoff=-0.5)


def test_truncate_matches_fresh_cutoff():
    rng = np.random.default_rng(31)
    space = random_space(rng, 10, dim=2)
    full = decompose_space(space, {"type": "gaussian", "gamma": 1.0}, rank_cutoff=0.0)
    cut = float(full.sigmas[0]) * 1e-6
    again = decompose_space(space, {"type": "gaussian", "gamma": 1.0}, rank_cutoff=cut)
    trunc = truncate(full, cut)
    assert trunc.rank == again.rank
    np.testing.assert_array_equal(trunc.sigmas, full.sigmas[: trunc.rank])
    assert truncate(full, 0.0).rank == full.rank


@pytest.mark.parametrize("cutoff", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_eigendecompose_and_truncate_reject_bad_cutoff(cutoff):
    # a nan cutoff used to keep no eigenvalue and a negative one to keep every positive one
    space = random_space(np.random.default_rng(7), 5, dim=1)
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    op = assemble_operator(space, kernel, rescale_measure(space, kernel))
    with pytest.raises(ValueError, match="rank_cutoff must be finite and nonnegative"):
        eigendecompose(op, rank_cutoff=cutoff)
    with pytest.raises(ValueError, match="rank_cutoff must be finite and nonnegative"):
        truncate(eigendecompose(op, rank_cutoff=0.0), cutoff)


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_eigenfunctions_orthonormal_in_l2(spec):
    rng = np.random.default_rng(41)
    space = random_space(rng, 11, dim=2)
    dec = decompose_space(space, spec)
    pos = np.flatnonzero(dec.nu.weights > 0)
    stacked = dec.funcs[:, pos, :].reshape(dec.rank, -1)
    weights = np.repeat(dec.nu.weights[pos], dec.n)
    gram = (stacked * weights) @ stacked.conj().T
    tol = default_tol_eig(dec)
    assert np.max(np.abs(gram - np.eye(dec.rank))) <= tol


def _table_kernel(tmp_path):
    space = random_space(np.random.default_rng(45), 9, dim=2)
    write_precomputed(build_kernel(dict(ZOO)["separable_complex"]), space, tmp_path / "table.csv")
    return read_precomputed(tmp_path / "table.csv")


# a real core with a real B: every scalar kernel, a separable one whose B has no imaginary part,
# and diagonal ones of real scalar kernels
REAL_SOLVES = {"constant", "gaussian", "laplacian", "polynomial", "separable", "sum", "diagonal", "diagonal3"}


@pytest.mark.parametrize("name", ZOO_IDS + ["table", "per_pair"])
def test_eigenfunctions_take_the_dtype_of_the_solve(tmp_path, name):
    kernels = {"table": lambda: _table_kernel(tmp_path), "per_pair": delta_kernel}
    kernel = kernels[name]() if name in kernels else build_kernel(dict(ZOO)[name])
    # two zero-mass atoms: their values come from the extension
    space = random_space(np.random.default_rng(47), 9, dim=2, zero_mass=2)
    dec = decompose_space(space, kernel)
    assert dec.rank
    assert dec.funcs.dtype == (np.float64 if name in REAL_SOLVES else np.complex128)


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_eigen_equation_residual(spec):
    rng = np.random.default_rng(43)
    kernel = build_kernel(spec)
    space = random_space(rng, 8, dim=2)
    nu = rescale_measure(space, kernel)
    op = assemble_operator(space, kernel, nu)
    dec = eigendecompose(op)
    pos = op.indices
    block_gram = _flat(gram(kernel, space, pos))
    weights = np.repeat(nu.weights[pos], kernel.n)
    stacked = dec.funcs[:, pos, :].reshape(dec.rank, -1)
    applied = stacked @ (block_gram * weights).T
    resid = np.max(np.abs(applied - dec.sigmas[:, None] * stacked))
    assert resid <= default_tol_eig(dec) * float(dec.sigmas[0])


# ---------------------------------------------------------------------------
# zero-mass extension
# ---------------------------------------------------------------------------


def test_extension_constant_kernel_hand():
    # the defining sum at the zero-mass atom: f1(c) = 0.5 + 0.5 = 1
    space = space_from([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    assert dec.rank == 1
    assert complex(dec.funcs[0, 2, 0]) == pytest.approx(1.0, abs=1e-14)


def test_extension_identity_kernel_vanishes_off_support():
    space = space_from([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    dec = decompose_space(space, delta_kernel(1))
    np.testing.assert_array_equal(dec.funcs[:, 2, 0], np.zeros(dec.rank))


@pytest.mark.parametrize("name", ["gaussian", "separable_complex"])
def test_extension_matches_the_kernel_sum_at_every_atom(name):
    # f_i(x) = (1 / sigma_i) sum_t K(x,t) f_i(t) nu_t over the positive-weight atoms t: the eigen-equation
    # where x has weight, the extension's definition where it has none; tail eigenpairs divide by sigma_i,
    # so compare on a well-conditioned head
    rng = np.random.default_rng(47)
    space = random_space(rng, 8, dim=2, zero_mass=2)
    full = decompose_space(space, dict(ZOO)[name])
    dec = truncate(full, 1e-4 * float(full.sigmas[0]))
    pos = np.flatnonzero(dec.nu.weights > 0)
    weighted = dec.funcs[:, pos, :] * dec.nu.weights[pos][None, :, None]
    reference = np.einsum("xtlm,itm->ixl", gram(dec.kernel, space, None, pos), weighted) / dec.sigmas[:, None, None]
    assert len(pos) == 6 and dec.rank >= 2
    np.testing.assert_allclose(dec.funcs, reference, atol=1e-9)


# ---------------------------------------------------------------------------
# trace identity and scaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_trace_identity(spec):
    rng = np.random.default_rng(53)
    space = random_space(rng, 13, dim=2)
    dec = decompose_space(space, spec, rank_cutoff=0.0)
    lhs, rhs = trace_check(dec)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_scaling_law_spectrum_and_reconstruction():
    rng = np.random.default_rng(59)
    space = random_space(rng, 9, dim=2)
    scale = 2.75
    scaled = space_from(space.coords, scale * space.mu, labels=space.labels)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0}, rank_cutoff=0.0)
    dec_scaled = decompose_space(scaled, {"type": "gaussian", "gamma": 1.0}, rank_cutoff=0.0)

    np.testing.assert_allclose(dec_scaled.nu.weights, scale * dec.nu.weights, rtol=1e-14)
    assert dec_scaled.rank == dec.rank
    np.testing.assert_allclose(dec_scaled.sigmas, scale * dec.sigmas, rtol=1e-9)
    # eigenfunctions may mix within eigenvalue clusters; the series itself
    # must reproduce the same kernel either way
    for x in space.labels[:4]:
        for t in space.labels[:4]:
            np.testing.assert_allclose(
                reconstruct(dec, x, t), reconstruct(dec_scaled, x, t), atol=1e-9
            )


def test_spectrum_invariant_under_duplicate_merge():
    base = space_from([0.0, 1.0, 0.0, 2.0], [1.0, 2.0, 0.5, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    merged = merge_classes(base, quotient(base, pseudo_metric(base, kernel)))
    assert merged.labels == ("a", "b", "d")
    dec_dup = decompose_space(base, {"type": "gaussian", "gamma": 1.0})
    dec_merged = decompose_space(merged, {"type": "gaussian", "gamma": 1.0})
    tol = default_tol_eig(dec_dup)
    rank = min(dec_dup.rank, dec_merged.rank)
    np.testing.assert_allclose(dec_dup.sigmas[:rank], dec_merged.sigmas[:rank], atol=tol)
    assert abs(np.sum(dec_dup.sigmas) - np.sum(dec_merged.sigmas)) <= tol


# ---------------------------------------------------------------------------
# RKHS elements and embeddings
# ---------------------------------------------------------------------------


def test_rkhs_element_forms_are_exclusive():
    with pytest.raises(ValueError):
        RKHSElement(coeffs=None, sections=None)
    h = RKHSElement.spectral([1.0, 0.5j])
    assert h.is_spectral
    # the identity kernel on two unit-mass atoms: two eigenpairs
    dec = decompose_space(space_from([0.0, 1.0], [1.0, 1.0]), delta_kernel(1))
    assert rkhs_inner(h, h, dec) == pytest.approx(1.25)
    g = RKHSElement.from_sections([("a", [1.0, 0.0])])
    assert not g.is_spectral


def test_embedding_bound_equality_case():
    # h = sqrt(sigma_1) f_1 for the constant kernel: both sides equal 1
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    h = RKHSElement.spectral([1.0])
    l2_sq, bound = embedding_norm_bound_check(h, dec)
    assert l2_sq == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert l2_sq <= bound + default_tol_eig(dec)


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_embedding_norm_bound_random_elements(spec):
    rng = np.random.default_rng(61)
    space = random_space(rng, 10, dim=2)
    dec = decompose_space(space, spec)
    tol = default_tol_eig(dec)
    for _ in range(10):
        coeffs = rng.standard_normal(dec.rank) + 1j * rng.standard_normal(dec.rank)
        h = RKHSElement.spectral(coeffs)
        l2_sq, bound = embedding_norm_bound_check(h, dec)
        assert l2_sq <= bound + tol


def test_embedding_bound_requires_spectral_form():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    h = RKHSElement.from_sections([("a", [1.0])])
    with pytest.raises(ValueError, match="spectral"):
        embedding_norm_bound_check(h, dec)


# ---------------------------------------------------------------------------
# tabular output
# ---------------------------------------------------------------------------


def test_write_spectrum_format(tmp_path):
    space = space_from([0.0, 1.0], [1.0, 3.0])
    dec = decompose_space(space, delta_kernel(1))
    path = tmp_path / "spectrum.csv"
    write_spectrum(dec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,sigma"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1]
    assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)


def test_write_eigenfunctions_format(tmp_path):
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    path = tmp_path / "eigenfunctions.csv"
    write_eigenfunctions(dec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,atom_id,j,re,im"
    assert lines[1].startswith("0,a,0,")
    assert len(lines) == 1 + dec.rank * len(space) * dec.n


def test_trace_budget_whose_traces_overflow_is_finite():
    # tr K(x, x) is 2e308, past the largest float; weighted by 1 / (1 + 1e308) it is about 2
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nu = rescale_measure(space, build_kernel(NEAR_MAX_SEPARABLE))
    assert nu.m_nu == pytest.approx(4.0, rel=1e-15)
