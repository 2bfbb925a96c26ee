"""The one factored solve path, using the kernel's structure, against the dense complex solve.

Every kernel is solved as ``core (x) B``: a separable kernel ``k B`` has
core ``k``, and any other kernel is its own core with ``B = [[1]]``.  A real
core (a built-in scalar kernel) gets real eigensolves, and no solve is
larger than the core's block Gram matrix.  The reference is the same kernel
with its blocks cast to complex and its structure hidden: a complex core
with ``B = [[1]]``.  Random atom sets from ``hypothesis`` (repeated and
zero-mass atoms are common) and random positive semidefinite ``B`` (singular
ones, and the identity with its many ties) check that both give the same
spectrum within ``default_tol_eig``, series that rebuild the Gram within
``tol_recon``, and equal validation verdicts, quotient classes and supports.
A second test records every solve and pins its size and dtype to the
kernel's core; a third checks that a kernel and the same kernel times
``[[1]]`` agree bit for bit inside an exact eigenvalue tie.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import decompose_space
from mercerkit import (
    AtomSpace,
    MatrixKernel,
    build_kernel,
    default_tol_eig,
    default_tol_recon,
    gram,
    pseudo_metric,
    quotient,
    reconstruction_error,
    support,
    validate_kernel,
)
from mercerkit.cli import main
from test_error_table import spaces

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SCALARS = [
    {"type": "gaussian", "gamma": 0.6},
    {"type": "gaussian", "gamma": 2.5},
    {"type": "laplacian", "gamma": 0.7},
    {"type": "polynomial", "degree": 2, "offset": 1.0},
    {"type": "constant", "value": 0.5},
    {"type": "sum", "terms": [{"type": "gaussian", "gamma": 1.0}, {"type": "constant", "value": 0.5}]},
]


def dense(kernel: MatrixKernel) -> MatrixKernel:
    """The same blocks as complex arrays, with no structure for the solvers to use."""

    def batch(space, rows, cols):
        return gram(kernel, space, rows, cols).astype(complex)

    return MatrixKernel(kernel.n, label=f"dense({kernel.label})", batch=batch)


@st.composite
def psd_matrices(draw):
    """``F^H F`` for a Gaussian-integer ``F`` of 1 to n rows, singular or zero included; or the identity."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return np.eye(n, dtype=complex)
    rows = draw(st.integers(1, n))
    parts = st.lists(st.integers(-2, 2), min_size=rows * n, max_size=rows * n)
    f = (np.array(draw(parts)) + 1j * np.array(draw(parts))).reshape(rows, n)
    return f.conj().T @ f


@st.composite
def kernels(draw):
    """A built-in scalar kernel, or one of them times a random ``B``."""
    scalar = draw(st.sampled_from(SCALARS))
    if draw(st.booleans()):
        return build_kernel(scalar)
    b = draw(psd_matrices())
    matrix = [[[z.real, z.imag] for z in row] for row in b.tolist()]
    return build_kernel({"type": "separable", "matrix": matrix, "scalar": scalar})


def _padded(a: np.ndarray, size: int) -> np.ndarray:
    return np.pad(a, (0, size - a.shape[0]))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(space=spaces(), kernel=kernels())
def test_structured_paths_agree_with_the_dense_complex_path(space, kernel):
    reference = dense(kernel)
    assert kernel.separable is not None or gram(kernel, space).dtype == np.float64

    mine, theirs = validate_kernel(kernel, space), validate_kernel(reference, space)
    assert (mine.hermitian_ok, mine.psd_ok) == (theirs.hermitian_ok, theirs.psd_ok)
    scale = max(1.0, abs(theirs.max_eigenvalue))
    assert abs(mine.max_eigenvalue - theirs.max_eigenvalue) <= 1e-12 * scale
    assert abs(mine.min_eigenvalue - theirs.min_eigenvalue) <= 1e-12 * scale

    metric, metric_ref = pseudo_metric(space, kernel), pseudo_metric(space, reference)
    assert metric.quotient_tol == pytest.approx(metric_ref.quotient_tol, rel=1e-14)
    assert np.max(np.abs(metric.d - metric_ref.d)) <= metric_ref.quotient_tol
    np.testing.assert_array_equal(quotient(space, metric), quotient(space, metric_ref))
    np.testing.assert_array_equal(support(space, metric), support(space, metric_ref))

    dec, dec_ref = decompose_space(space, kernel), decompose_space(space, reference)
    np.testing.assert_array_equal(dec.support, dec_ref.support)
    np.testing.assert_array_equal(dec.support, support(space, metric_ref))
    size = max(dec.rank, dec_ref.rank)
    assert np.max(np.abs(_padded(dec.sigmas, size) - _padded(dec_ref.sigmas, size)), initial=0.0) <= default_tol_eig(
        dec_ref
    )
    tol_recon = default_tol_recon(dec_ref)
    assert default_tol_recon(dec) == tol_recon
    for d in (dec, dec_ref):
        assert reconstruction_error(d, ms=[d.rank]) == [(d.rank, pytest.approx(0.0, abs=tol_recon))]


def _record_solves(monkeypatch) -> list[tuple[tuple[int, ...], np.dtype]]:
    """Shape and dtype of every matrix given to numpy's Hermitian eigensolvers from now on."""
    solves = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def recorded(a, *args, _solver=solver, **kwargs):
            solves.append((np.shape(a), np.asarray(a).dtype))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return solves


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "gaussian", "gamma": 0.8},
        {
            "type": "separable",
            "matrix": [[2.0, [0.0, 1.0], 0.5], [[0.0, -1.0], 2.0, 0.0], [0.5, 0.0, 1.0]],
            "scalar": {"type": "gaussian", "gamma": 0.8},
        },
    ],
    ids=["gaussian", "separable"],
)
def test_each_kernel_takes_its_solver_path(tmp_path, monkeypatch, spec):
    # 9 atoms, every third without mass: a dense separable solve would be 27 x 27
    rows = [f"x{i},{0.0 if i % 3 == 2 else 1.0 + 0.1 * i},{0.4 * i},{0.1 * i * i}" for i in range(9)]
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("id,w,c1,c2\n" + "\n".join(rows) + "\n")
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps(spec))
    solves = _record_solves(monkeypatch)
    for command in ("validate", "metric", "decompose", "reconstruct", "frames"):
        argv = [command, "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(tmp_path / command)]
        assert main(argv) == 0
    assert solves
    if spec["type"] == "gaussian":
        assert {dtype for _, dtype in solves} == {np.dtype(np.float64)}
    else:
        # one matrix per solve, never larger than the 9 x 9 scalar Gram
        assert all(len(shape) == 2 and shape[0] <= 9 for shape, _ in solves), solves


def test_a_kernel_and_its_product_with_one_take_one_path():
    # atoms 10 apart: the gaussian Gram at gamma = 50 is exactly the identity, so with equal
    # weights every eigenvalue ties, and the order inside the tie is the solver's
    scalar = {"type": "gaussian", "gamma": 50.0}
    space = AtomSpace(("a", "b", "c", "d"), [[0.0], [10.0], [20.0], [30.0]], [1.0, 1.0, 1.0, 1.0])
    dec = decompose_space(space, scalar)
    dec_one = decompose_space(space, {"type": "separable", "matrix": [[1.0]], "scalar": scalar})
    assert np.all(dec.sigmas == dec.sigmas[0])
    assert np.array_equal(dec_one.sigmas, dec.sigmas)
    assert np.array_equal(dec_one.funcs, dec.funcs)
