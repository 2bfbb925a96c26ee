"""Validation reads a kernel through its factors ``core (x) B``: one Gram, the core's.

``validate_kernel`` evaluates the Gram matrix of the kernel's core alone
(a kernel that is not separable is its own core, with ``B = [[1]]``) and
reads the finite check and the Hermitian deviation of ``core (x) B`` off
it, one entry of ``B`` at a time.  The reference reads them off the
kernel's whole block Gram: the same blocks cast to complex, as ``dense``
gives them.  Random atom sets and kernels from ``hypothesis`` (built-in and
table cores, asymmetric below and above ``TOL_SYM``, cores near ``1e300``
whose products with ``B`` overflow, real and complex ``B``) must give the
same report bit for bit in every field.  Two more tests pin that the
core's Gram is the one Gram evaluated and that a check holds less memory
than one block Gram; a fourth, that assembling the operator applies the
rule validation applies.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mercerkit import (
    TOL_SYM,
    AtomSpace,
    KernelSymmetryError,
    ValidationReport,
    assemble_operator,
    build_kernel,
    gram,
    kernels,
    psd_tolerance,
    rescale_measure,
    validate_kernel,
)
from test_error_table import spaces
from test_structured_paths import SCALARS, dense, psd_matrices

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) * 0.5


def whole_gram_report(kernel, space) -> ValidationReport:
    """The report with its finite check and deviation read off the kernel's whole block Gram.

    The eigenvalues are the products of those of the Hermitian parts of the
    core's Gram and of ``B``, as validation has them.
    """
    size, n = len(space), kernel.n
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = gram(dense(kernel), space)
        flat = blocks.transpose(0, 2, 1, 3).reshape(size * n, size * n)
        dev = float(np.max(np.abs(flat - flat.conj().T)))
    finite = np.isfinite(blocks).all(axis=(2, 3))
    nonfinite = None
    if not finite.all():
        x, t = np.argwhere(~finite)[0]
        nonfinite = (space.labels[x], space.labels[t])
        eigs = np.array([np.nan])
    else:
        core, matrix = kernel.separable or (kernel, np.ones((1, 1)))
        core_blocks = gram(core, space)
        core_flat = core_blocks.transpose(0, 2, 1, 3).reshape(size * core.n, size * core.n)
        eigs = np.outer(np.linalg.eigvalsh(_hermitian_part(core_flat)), np.linalg.eigvalsh(_hermitian_part(matrix)))
    min_eig, max_eig = float(eigs.min()), float(eigs.max())
    tol_psd = psd_tolerance(max_eig)
    return ValidationReport(
        size, n, dev, TOL_SYM, min_eig, max_eig, tol_psd, dev <= TOL_SYM, min_eig >= -tol_psd, nonfinite
    )


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def assert_same_report(mine: ValidationReport, theirs: ValidationReport) -> None:
    for field in dataclasses.fields(ValidationReport):
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        assert _same_float(a, b) if isinstance(a, float) else a == b, (field.name, a, b)


@st.composite
def table_cores(draw, labels):
    """Rows of a scalar block table over ``labels``: Hermitian up to an asymmetry, real or complex, maybe near 1e300."""
    size = len(labels)
    parts = st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size)
    re = np.array(draw(parts), dtype=float).reshape(size, size)
    im = np.array(draw(parts), dtype=float).reshape(size, size) if draw(st.booleans()) else np.zeros((size, size))
    values = (re + re.T) + 1j * (im - im.T)
    asymmetry = draw(st.sampled_from([0.0, 1e-13, 3e-11, 2e-10, 1e-3]))
    values += asymmetry * np.triu(np.ones((size, size)), 1)
    values *= draw(st.sampled_from([1.0, 1e300]))
    cells = values.tolist()
    rows = [
        f"{x},{t},0,0,{cells[i][k].real!r},{cells[i][k].imag!r}"
        for i, x in enumerate(labels)
        for k, t in enumerate(labels)
    ]
    return "x_id,t_id,l,j,re,im\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("b_kind", ["none", "real", "complex"])
@pytest.mark.parametrize("core_kind", ["builtin", "table", "huge"])
@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(space=spaces(), data=st.data())
def test_factored_validation_equals_the_whole_gram_validation(core_kind, b_kind, space, data):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        if core_kind == "table":
            (base / "core.csv").write_text(data.draw(table_cores(space.labels)))
            spec = {"type": "precomputed", "path": "core.csv"}
        else:
            spec = {"type": "constant", "value": 1e300} if core_kind == "huge" else data.draw(st.sampled_from(SCALARS))
        if b_kind != "none":
            b = data.draw(psd_matrices())
            b = b.real.astype(complex) if b_kind == "real" else b
            hypothesis.assume(b_kind == "real" or b.imag.any())
            # 1e10 takes a core near 1e300 past the largest float
            b = b * data.draw(st.sampled_from([1.0, 1e-12, 1e10]))
            matrix = [[[z.real, z.imag] for z in row] for row in b.tolist()]
            spec = {"type": "separable", "matrix": matrix, "scalar": spec}
        kernel = build_kernel(spec, base)
        mine, theirs = validate_kernel(kernel, space), whole_gram_report(kernel, space)
        assert_same_report(mine, theirs)
        # the deviation and the finite check are the dense validation's, too
        reference = validate_kernel(dense(kernel), space)
        assert _same_float(mine.hermitian_deviation, reference.hermitian_deviation)
        assert (mine.hermitian_ok, mine.nonfinite_pair) == (reference.hermitian_ok, reference.nonfinite_pair)


def _grid(size: int) -> AtomSpace:
    rng = np.random.default_rng(7)
    return AtomSpace(tuple(f"x{i}" for i in range(size)), rng.standard_normal((size, 2)), np.ones(size))


SEPARABLE_COMPLEX = {
    "type": "separable",
    "matrix": [[2.0, [0.5, 0.25], 0.0], [[0.5, -0.25], 1.5, [0.0, 0.3]], [0.0, [0.0, -0.3], 1.0]],
    "scalar": {"type": "gaussian", "gamma": 0.5},
}


def _recorded_grams(monkeypatch) -> list:
    calls = []

    def recording(kernel, space, rows=None, cols=None, _gram=kernels.gram):
        calls.append(kernel)
        return _gram(kernel, space, rows, cols)

    monkeypatch.setattr(kernels, "gram", recording)
    return calls


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "gaussian", "gamma": 0.5},
        SEPARABLE_COMPLEX,
        {"type": "separable", "matrix": [[1e10, 0.0], [0.0, 1.0]], "scalar": {"type": "constant", "value": 1e300}},
        {"type": "diagonal", "blocks": [{"type": "gaussian", "gamma": 0.5}, {"type": "laplacian", "gamma": 1.0}]},
    ],
    ids=["scalar", "separable", "separable_overflowing", "diagonal"],
)
def test_validation_evaluates_one_gram_the_cores(monkeypatch, spec):
    space = _grid(6)
    kernel = build_kernel(spec)
    core, _ = kernels._factors(kernel)
    calls = _recorded_grams(monkeypatch)
    validate_kernel(kernel, space)
    assert len(calls) == 1 and calls[0] is core
    # handed the core's Gram, it evaluates none
    blocks = kernels.gram(core, space)
    calls.clear()
    report = validate_kernel(kernel, space, blocks)
    assert calls == []
    assert_same_report(report, validate_kernel(kernel, space))


def test_validation_of_a_separable_kernel_holds_less_than_one_block_gram():
    size, n = 200, 3
    space = _grid(size)
    kernel = build_kernel(SEPARABLE_COMPLEX)
    validate_kernel(kernel, space)  # numpy's and the kernel's first-call allocations
    tracemalloc.start()
    try:
        report = validate_kernel(kernel, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    # one complex (N n)^2 block Gram is 5.76 MB
    assert peak < (size * n) ** 2 * 16, peak


@pytest.mark.parametrize("scale", [1e-12, 1.0])
def test_assembly_applies_the_symmetry_rule_of_validation(tmp_path, scale):
    # the core's pair (a, b) deviates by 0.1, the kernel's by 0.1 * scale
    table = "x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\nb,b,0,0,1.0,0.0\na,b,0,0,0.5,0.0\nb,a,0,0,0.4,0.0\n"
    (tmp_path / "t.csv").write_text(table)
    spec = {"type": "separable", "matrix": [[scale]], "scalar": {"type": "precomputed", "path": "t.csv"}}
    kernel = build_kernel(spec, tmp_path)
    space = AtomSpace(("a", "b"), [[0.0], [1.0]], [1.0, 1.0])
    report = validate_kernel(kernel, space)
    assert report.hermitian_ok is (scale < 1.0)
    nu = rescale_measure(space, kernel)
    if report.hermitian_ok:
        assert assemble_operator(space, kernel, nu).matrix.shape == (2, 2)
    else:
        with pytest.raises(KernelSymmetryError, match=f"max deviation {report.hermitian_deviation:.3e}"):
            assemble_operator(space, kernel, nu)
