"""Working memory of the spectral stages.

``eigendecompose`` builds the factors of the kept eigenpairs only, in the
core's space, and forms no eigenvector of the product; the CLI's
decomposition is cut from one solve with no larger array behind it;
``reconstruction_error`` reads the factors, forming neither ``funcs`` nor the
subset's whole Gram, and the series of its full-rank row a block of rows at a
time; ``synthesize --frames`` keeps the frames it reads only until they are
aligned.  Peaks are read with ``tracemalloc``, which sees numpy's allocations.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc

import numpy as np
import pytest

from conftest import ZOO, ZOO_IDS, random_space, rank_deficient_table
from mercerkit import (
    AtomSpace,
    FrameFamily,
    MatrixKernel,
    assemble_operator,
    build_kernel,
    eigendecompose,
    read_frame,
    reconstruction_error,
    rescale_measure,
    synthesize_kernel,
    trace_check,
    truncate,
)
from mercerkit import cli, kernels, tables

# a complex 3 x 3 B: the eigenfunctions and the series are complex, as for matrix-sep3
SEPARABLE3 = {
    "type": "separable",
    "matrix": [[2.0, [0.5, 0.5], 0.3], [[0.5, -0.5], 1.5, [0.0, 0.2]], [0.3, [0.0, -0.2], 1.0]],
    "scalar": {"type": "gaussian", "gamma": 0.5},
}


def _peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _operator(space, kernel):
    return assemble_operator(space, kernel, rescale_measure(space, kernel))


def test_eigendecompose_holds_no_eigenvector_of_the_product():
    # the (P n) x rank complex eigenvectors of the product were formed and copied into funcs: a
    # peak of 2.5 times funcs, 3.2 times one such matrix; the factors hold the core's P x P solve
    space = random_space(np.random.default_rng(5), 100, dim=3, zero_mass=20)
    op = _operator(space, build_kernel(SEPARABLE3))
    dec, peak = _peak(eigendecompose, op)
    assert dec.rank == 240 and dec.funcs.dtype == np.complex128
    assert peak < op.matrix.shape[0] * dec.n * dec.rank * np.dtype(complex).itemsize
    assert dec.u.shape == (len(op.indices), len(space), 1) and dec.u.dtype == np.float64


def test_assembly_holds_no_copy_of_the_operator_besides_its_hermitian_part():
    # the flat copy of the slice was held to the end, and the scaled matrix formed out of place:
    # a peak of 3.2 times the operator, now 2.2
    rng = np.random.default_rng(67)
    space = random_space(rng, 120, zero_mass=12)
    kernel = rank_deficient_table(rng, 120, 40)
    nu = rescale_measure(space, kernel)
    op, peak = _peak(assemble_operator, space, kernel, nu)
    assert op.matrix.shape == (216, 216) and op.matrix.dtype == np.complex128
    assert peak <= 2.5 * op.matrix.nbytes, peak / op.matrix.nbytes


def test_full_rank_error_row_holds_no_whole_series():
    # the series of S n = 240 rows was formed whole next to the residual, the scaled
    # eigenfunctions and the running diagonal sums: 5.0 times the residual, now 3.3
    space = random_space(np.random.default_rng(5), 100, dim=3, zero_mass=20)
    dec = eigendecompose(_operator(space, build_kernel(SEPARABLE3)))
    dec.support  # cached: its distances are not the error row's
    table, peak = _peak(reconstruction_error, dec, ms=[dec.rank])
    rows = np.count_nonzero(dec.support) * dec.n
    assert table[0][1] <= 1e-12
    assert peak <= 4 * rows * rows * np.dtype(complex).itemsize


def test_error_table_holds_neither_the_whole_gram_nor_a_copy_of_funcs():
    # the (S n)^2 residual, a rank x S n copy of funcs and the running diagonal sums of every
    # eigenpair: 3.3 times the residual; each is now formed a block of rows at a time
    space = random_space(np.random.default_rng(5), 100, dim=3, zero_mass=20)
    dec = eigendecompose(_operator(space, build_kernel(SEPARABLE3)))
    dec.support  # cached: its distances are not the error table's
    table, peak = _peak(reconstruction_error, dec)
    rows = np.count_nonzero(dec.support) * dec.n
    assert len(table) == dec.rank + 1 and table[-1][1] <= 1e-12
    assert peak < min(rows * rows, dec.rank * rows) * np.dtype(complex).itemsize


CASES = [build_kernel(spec) for _, spec in ZOO] + [rank_deficient_table(np.random.default_rng(7), 14, 5)]


@pytest.mark.parametrize("kernel", CASES, ids=ZOO_IDS + ["rank_deficient_table"])
def test_cut_decomposition_is_the_full_one_truncated_bit_for_bit(kernel):
    space = random_space(np.random.default_rng(11), 14, dim=2, zero_mass=4)
    op = _operator(space, kernel)
    full = eigendecompose(op, 0.0)
    for cutoff in (None, 0.0, float(full.sigmas[full.rank // 2]), 1e9):
        cut, reference = eigendecompose(op, cutoff), truncate(full, cutoff)
        assert cut.sigmas.tobytes() == reference.sigmas.tobytes()
        assert cut.funcs.tobytes() == reference.funcs.tobytes()
        # the trace identity sums the whole positive spectrum whatever the cutoff keeps
        assert trace_check(cut) == trace_check(reference) == trace_check(full)


@pytest.mark.parametrize("spec", [dict(ZOO)["gaussian"], dict(ZOO)["laplacian"]], ids=["gaussian", "laplacian"])
def test_extension_does_not_depend_on_how_many_eigenpairs_are_kept(spec):
    # BLAS may sum a real product of another number of rows in another order: one extension
    # product of all the kept eigenpairs gave these cuts other last bits than the full solve's
    space = random_space(np.random.default_rng(3), 170, dim=2, zero_mass=30)
    op = _operator(space, build_kernel({**spec, "gamma": 0.3}))
    full = eigendecompose(op, 0.0)
    for cutoff in (None, float(full.sigmas[full.rank // 3]), float(full.sigmas[full.rank // 10])):
        assert eigendecompose(op, cutoff).funcs.tobytes() == truncate(full, cutoff).funcs.tobytes()


def test_cli_spectrum_funcs_have_no_larger_array_behind_them():
    # funcs were a view of the eigenfunctions of the whole positive spectrum; the table has
    # rank 5, and rounding-level eigenvalues make many more positive ones
    rng = np.random.default_rng(13)
    kernel = rank_deficient_table(rng, 60, 5)
    space = random_space(rng, 60, dim=1, zero_mass=6)
    args = argparse.Namespace(atoms=space, kernel=kernel, rank_cutoff=None)
    _, dec, trace = cli._spectrum(args)
    full = eigendecompose(_operator(space, kernel), 0.0)
    assert dec.rank == 5 < full.rank
    assert len(dec.u) == dec.rank and (dec.u.base is None or dec.u.base.nbytes <= dec.u.nbytes)
    assert dec.funcs.base is None or dec.funcs.base.nbytes <= dec.funcs.nbytes
    assert trace == trace_check(full)


def whole_product_error(dec, labels) -> float:
    """The full-rank row as one matrix product of every row of the core per entry of ``B``.

    ``max |G b_lj - U^T diag(c_lj) conj(U)|``, ``U`` the core's eigenfunctions at the atoms, flat
    ``(x, c)``, and ``c_lj[p]`` the sum of ``sigma_i v[l, i] conj(v[j, i])`` over the eigenpairs of ``p``.
    """
    idx = [dec.space.index(label) for label in labels]
    u = dec.u[:, idx, :].reshape(len(dec.u), -1).astype(complex)
    g = kernels._flat(dec.nu.core_gram[np.ix_(idx, idx)])
    worst = 0.0
    for (l, j), b in np.ndenumerate(kernels._factors(dec.kernel)[1]):
        coef = np.zeros(len(u), dtype=complex)
        np.add.at(coef, dec.p, dec.sigmas * dec.v[l] * np.conj(dec.v[j]))
        worst = max(worst, float(np.max(np.abs(g * b - (u.T * coef) @ np.conj(u)), initial=0.0)))
    return worst


@pytest.mark.parametrize("atoms", [67, 35, 3])
def test_error_row_in_blocks_is_the_whole_product(atoms):
    # the core's S = 134 and 70 rows (each atom twice): 64-row blocks would leave a tail of 6 rows,
    # a product that BLAS may sum differently (one row is a matrix-vector product); 6 rows are one block
    space = random_space(np.random.default_rng(17), 80, dim=2, zero_mass=8)
    dec = eigendecompose(_operator(space, build_kernel(dict(ZOO)["separable_complex"])))
    subset = list(space.labels[:atoms]) * 2
    assert reconstruction_error(dec, subset, [dec.rank]) == [(dec.rank, whole_product_error(dec, subset))]


@pytest.mark.parametrize("atoms", [67, 35, 3])
def test_error_row_of_a_complex_table_in_blocks_is_the_whole_product(atoms):
    # a core of n = 2 components: S n = 134 and 70 rows
    space = random_space(np.random.default_rng(17), 80, dim=2, zero_mass=8)
    dec = eigendecompose(_operator(space, rank_deficient_table(np.random.default_rng(31), 80, 40)))
    subset = list(space.labels[:atoms])
    assert reconstruction_error(dec, subset, [dec.rank]) == [(dec.rank, whole_product_error(dec, subset))]


def test_hermitian_deviation_in_row_blocks_is_the_whole_one():
    # 300 rows are read in blocks of 64, 64, 64 and 108; a nan in the last block makes the result nan
    rng = np.random.default_rng(19)
    core = rng.standard_normal((300, 300))
    b = np.array([[2.0, 0.5 + 1e-11j], [0.5, 1.0]])
    for blocks, matrix in ((core + 1j * rng.standard_normal((300, 300)), kernels._ONE), (core, b)):
        whole = kernels._flat(blocks[:, :, None, None] * matrix)
        assert kernels._hermitian_deviation(blocks, matrix) == float(np.max(np.abs(whole - whole.conj().T)))
        blocks[290, 7] = np.nan
        assert np.isnan(kernels._hermitian_deviation(blocks, matrix))


def test_synthesize_frees_the_frames_it_reads_once_they_are_aligned(tmp_path):
    # the frames read from the files stayed alive beside the family they were copied into, through
    # the written Gram and its validation: a peak of 5.2 times the frames' values, now 4.2
    space = random_space(np.random.default_rng(23), 60, dim=3, zero_mass=12)
    rows = [",".join([label, *map(repr, (w, *c))]) for label, w, c in
            zip(space.labels, space.mu.tolist(), space.coords.tolist())]
    atoms, kernel, frames = tmp_path / "atoms.csv", tmp_path / "kernel.json", tmp_path / "frames"
    atoms.write_text("id,w,c1,c2,c3\n" + "\n".join(rows) + "\n")
    kernel.write_text(json.dumps(SEPARABLE3))
    assert cli.main(["frames", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(frames)]) == 0
    paths = [str(frames / f"frame_j{j}.csv") for j in range(3)]
    # the family they are aligned into is complex: frame_j0 is read as real, as each eigenvector
    # of B takes its phase at its first entry, and that entry is real
    values = sum(read_frame(path).values.size for path in paths) * np.dtype(complex).itemsize
    tables._tables()  # the renderer's lookup tables, built once per process
    argv = ["synthesize", "--atoms", str(atoms), "--frames", *paths, "--out", str(tmp_path / "out")]
    code, peak = _peak(cli.main, argv)
    assert code == 0
    assert peak <= 4.7 * values, peak / values


def test_write_precomputed_holds_no_whole_gram_of_a_kernel_synthesized_from_complex_frames(tmp_path):
    # V^H V and its Hermitian part were formed whole, beside a conjugated copy of V: 2.1 times the (N n)^2 Gram
    # over 300 atoms of 2 components; the 600 rows are now formed 64 to 127 at a time, each block once and
    # dropped once the rows written are past it (0.36 times; 0.65 when every block was kept)
    rng = np.random.default_rng(37)
    values = rng.standard_normal((60, 300, 2)) + 1j * rng.standard_normal((60, 300, 2))
    family = FrameFamily(tuple(f"x{i:03d}" for i in range(300)), values)
    space = AtomSpace(family.atoms, np.zeros((300, 1)), np.ones(300))
    tables._tables()  # the renderer's lookup tables, built once per process
    written, peak = _peak(kernels.write_precomputed, synthesize_kernel(family), space, tmp_path / "kernel.csv")
    assert written is None
    assert peak < 0.5 * 600 * 600 * np.dtype(complex).itemsize, peak / (600 * 600 * 16)
