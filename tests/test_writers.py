"""CSV writers: bytes equal to a plain ``csv.writer`` row loop, and read back exactly."""

from __future__ import annotations

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from conftest import decompose_space, random_space, rank_deficient_table
from mercerkit import (
    AtomSpace,
    MatrixKernel,
    ScalarFrame,
    SpectralDecomposition,
    build_kernel,
    extract_frame,
    gram,
    load_atoms,
    pseudo_metric,
    read_frame,
    read_precomputed,
    rescale_measure,
    write_eigenfunctions,
    write_error_table,
    write_frame,
    write_precomputed,
    write_spectrum,
)
from mercerkit.cli import main
from mercerkit import tables

# labels that need quoting, one with an inner space, the empty label, and one beyond ASCII
LABELS = ("a,1", 'b"q', "c d", "", "e", "\u00e9\u03b2\u20ac")
# floats at the edges of repr: negative zero, where the layout or the digit count changes,
# the smallest subnormal, a power of two, values repr must render itself, and infinities
EDGES = (
    -0.0,
    1e16,
    1e-5,
    1e-4,
    9.999999999999999e-05,
    1e15,
    9999999999999998.0,
    1e17,
    5e-324,
    2.0**-1022,
    2.0**1023,
    2.7392337464290868e16,
    0.1,
    -1 / 3,
    np.inf,
    -np.inf,
)


def _reference(rows) -> bytes:
    """The row loop the writers replace: one ``csv.writer`` row per table row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def _values(shape) -> np.ndarray:
    """Complex values that carry every edge float in their real and imaginary parts."""
    rng = np.random.default_rng(307)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = values.reshape(-1)
    flat.real[: len(EDGES)] = EDGES
    flat.imag[: len(EDGES)] = EDGES[::-1]
    return values


def _eigenfunction_rows(funcs, labels) -> list[list]:
    rows = [["i", "atom_id", "j", "re", "im"]]
    for i in range(funcs.shape[0]):
        for x, label in enumerate(labels):
            for j in range(funcs.shape[2]):
                value = complex(funcs[i, x, j])
                rows.append([i, label, j, repr(value.real), repr(value.imag)])
    return rows


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=complex).tobytes()


def _factored(funcs):
    """Factors ``u, v, p`` of a decomposition whose eigenfunctions are ``funcs`` bit for bit: ``v`` all ones."""
    return funcs, np.ones((1, len(funcs))), np.arange(len(funcs))


def _space() -> AtomSpace:
    return AtomSpace(LABELS, np.arange(2.0 * len(LABELS)).reshape(-1, 2), np.ones(len(LABELS)))


def test_write_eigenfunctions_bytes(tmp_path):
    space = _space()
    kernel = build_kernel({"type": "diagonal", "blocks": [{"type": "gaussian", "gamma": 1.0}] * 2})
    sigmas = np.array([1e16, 0.1, 1e-5, 5e-324])
    funcs = _values((len(sigmas), len(space), 2))
    dec = SpectralDecomposition(space, kernel, rescale_measure(space, kernel), sigmas, *_factored(funcs))
    path = tmp_path / "eigenfunctions.csv"
    write_eigenfunctions(dec, path)
    assert path.read_bytes() == _reference(_eigenfunction_rows(funcs, space.labels))

    path = tmp_path / "spectrum.csv"
    write_spectrum(dec, path)
    assert path.read_bytes() == _reference([["i", "sigma"]] + [[i, repr(float(s))] for i, s in enumerate(sigmas)])


def test_write_error_table_bytes(tmp_path):
    table = [(m, err) for m, err in enumerate(EDGES)]
    path = tmp_path / "errors.csv"
    write_error_table(table, path)
    assert path.read_bytes() == _reference([["m", "max_abs_error"]] + [[m, repr(float(e))] for m, e in table])


def test_write_frame_bytes_and_read_back(tmp_path):
    frame = ScalarFrame(LABELS, _values((4, len(LABELS))))
    path = tmp_path / "frame.csv"
    write_frame(frame, path)
    rows = [["i", "atom_id", "value_re", "value_im"]]
    for i in range(frame.values.shape[0]):
        for x, label in enumerate(frame.atoms):
            value = complex(frame.values[i, x])
            rows.append([i, label, repr(value.real), repr(value.imag)])
    assert path.read_bytes() == _reference(rows)
    back = read_frame(path)
    assert back.atoms == LABELS
    assert _bits(back.values) == _bits(frame.values)


def test_write_precomputed_bytes_and_read_back(tmp_path):
    space = _space()
    blocks = _values((len(space), len(space), 2, 2))
    kernel = MatrixKernel(n=2, batch=lambda space, rows, cols: blocks[np.ix_(rows, cols)])
    path = tmp_path / "table.csv"
    write_precomputed(kernel, space, path)
    rows = [["x_id", "t_id", "l", "j", "re", "im"]]
    written = np.zeros(blocks.shape, dtype=bool)
    for i, x in enumerate(space.labels):
        for k in range(i, len(space)):
            for l in range(2):
                for j in range(l if k == i else 0, 2):
                    value = complex(blocks[i, k, l, j])
                    rows.append([x, space.labels[k], l, j, repr(value.real), repr(value.imag)])
                    written[i, k, l, j] = True
    assert path.read_bytes() == _reference(rows)
    back = gram(read_precomputed(path), space)
    assert _bits(back[written]) == _bits(blocks[written])


def test_metric_csv_bytes(tmp_path):
    kernel = {"type": "gaussian", "gamma": 0.5}
    atoms = tmp_path / "atoms.csv"
    with open(atoms, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "w", "c1"])
        writer.writerows([label, 1.0, 0.3 * x] for x, label in enumerate(LABELS))
    spec = tmp_path / "kernel.json"
    spec.write_text(json.dumps(kernel))
    out = tmp_path / "out"
    assert main(["metric", "--atoms", str(atoms), "--kernel", str(spec), "--out", str(out)]) == 0
    space = load_atoms(atoms)
    assert space.labels == LABELS
    d = pseudo_metric(space, build_kernel(kernel)).d
    rows = [["id"] + list(space.labels)]
    rows += [[label] + [repr(float(v)) for v in d[i]] for i, label in enumerate(space.labels)]
    assert (out / "metric.csv").read_bytes() == _reference(rows)


def test_write_eigenfunctions_across_render_batches(tmp_path, monkeypatch):
    space = _space()
    kernel = build_kernel({"type": "diagonal", "blocks": [{"type": "gaussian", "gamma": 1.0}] * 2})
    per_index = len(space) * 2  # rows of one eigenindex: atoms, components
    # a batch takes fewer rows than the budget holds floats of two per row
    rank = 3 * (tables._BUDGET // (2 * tables._FLOAT_BYTES)) // per_index + 1
    sigmas = np.linspace(1.0, 0.5, rank)
    funcs = _values((rank, len(space), 2))
    dec = SpectralDecomposition(space, kernel, rescale_measure(space, kernel), sigmas, *_factored(funcs))
    batches = []

    def render(values):
        batches.append(len(values))
        return render_batch(values)

    render_batch = tables._render
    monkeypatch.setattr(tables, "_render", render)
    path = tmp_path / "eigenfunctions.csv"
    write_eigenfunctions(dec, path)
    assert len(batches) > 3 and sum(batches) == rank * per_index
    assert any(np.cumsum(batches) % per_index), "a batch should end inside one eigenindex's rows"
    assert path.read_bytes() == _reference(_eigenfunction_rows(funcs, space.labels))


GAUSSIAN = {"type": "gaussian", "gamma": 0.8}
FACTORED = {
    "separable_real": {"type": "separable", "matrix": [[2.0, 0.5], [0.5, 1.0]], "scalar": GAUSSIAN},
    "separable_complex": {
        "type": "separable",
        "matrix": [[2.0, [0.5, 0.5], 0.3], [[0.5, -0.5], 1.5, [0.0, 0.2]], [0.3, [0.0, -0.2], 1.0]],
        "scalar": {"type": "gaussian", "gamma": 0.5},
    },
    "diagonal": {"type": "diagonal", "blocks": [GAUSSIAN, {"type": "laplacian", "gamma": 0.5}]},
    "not_separable": None,  # a complex block table of rank 6
}


@pytest.mark.parametrize("name", list(FACTORED))
def test_eigenfunctions_are_written_from_their_factors(tmp_path, name):
    rng = np.random.default_rng(71)
    space = random_space(rng, 14, dim=2, zero_mass=3)
    dec = decompose_space(space, FACTORED[name] or rank_deficient_table(rng, 14, 6))
    write_eigenfunctions(dec, tmp_path / "eigenfunctions.csv")
    assert "funcs" not in vars(dec)
    assert (tmp_path / "eigenfunctions.csv").read_bytes() == _reference(_eigenfunction_rows(dec.funcs, space.labels))


def test_writing_eigenfunctions_does_not_hold_them_whole(tmp_path):
    # funcs, rank x N x n complex, was formed whole to be written; each batch is now formed from the factors
    space = random_space(np.random.default_rng(73), 170, dim=3)
    dec = decompose_space(space, {**FACTORED["separable_complex"], "scalar": {"type": "gaussian", "gamma": 20.0}})
    tables._tables()  # the renderer's lookup tables, built once per process
    tracemalloc.start()
    try:
        write_eigenfunctions(dec, tmp_path / "eigenfunctions.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.funcs.nbytes >= 4_000_000 and peak < dec.funcs.nbytes, (peak, dec.funcs.nbytes)


def test_real_values_write_zero_imaginary_cells_and_complex_ones_keep_their_sign(tmp_path):
    real = _values((3, len(LABELS))).real
    path = tmp_path / "real.csv"
    write_frame(ScalarFrame(LABELS, real), path)
    rows = [["i", "atom_id", "value_re", "value_im"]]
    rows += [[i, label, repr(float(real[i, x])), "0.0"] for i in range(3) for x, label in enumerate(LABELS)]
    assert path.read_bytes() == _reference(rows)
    back = read_frame(path).values
    assert back.dtype == np.float64 and _bits(back) == _bits(real)
    # a complex array whose imaginary parts are all +0.0 writes the same cells
    complex_path = tmp_path / "complex.csv"
    write_frame(ScalarFrame(LABELS, real.astype(complex)), complex_path)
    assert complex_path.read_bytes() == path.read_bytes()

    signed = real.astype(complex)
    signed.imag = np.copysign(0.0, np.arange(real.size).reshape(real.shape) % 2 - 0.5)
    path = tmp_path / "signed.csv"
    write_frame(ScalarFrame(LABELS, signed), path)
    text = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in text] == ["-0.0", "0.0"] * (real.size // 2)
    assert _bits(read_frame(path).values) == _bits(signed)

    space = _space()
    path = tmp_path / "table.csv"
    write_precomputed(build_kernel({"type": "gaussian", "gamma": 0.5}), space, path)
    cells = [line.rsplit(",", 1)[1] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert cells == ["0.0"] * (len(space) * (len(space) + 1) // 2)


def test_real_eigenfunctions_write_the_bytes_of_their_complex_cast(tmp_path):
    # a real core and a real B give float64 eigenfunctions; zero-mass atoms take the extension
    space = random_space(np.random.default_rng(53), 12, dim=2, zero_mass=3)
    spec = {"type": "separable", "matrix": [[2.0, 0.5], [0.5, 1.0]], "scalar": {"type": "gaussian", "gamma": 0.8}}
    dec = decompose_space(space, spec)
    assert dec.funcs.dtype == np.float64
    cast = SpectralDecomposition(dec.space, dec.kernel, dec.nu, dec.sigmas, *_factored(dec.funcs.astype(complex)))
    for d, name in ((dec, "real"), (cast, "cast")):
        (tmp_path / name).mkdir()
        write_eigenfunctions(d, tmp_path / name / "eigenfunctions.csv")
        for j in range(d.n):
            write_frame(extract_frame(d, j), tmp_path / name / f"frame_j{j}.csv")
    for path in sorted((tmp_path / "real").iterdir()):
        assert path.read_bytes() == (tmp_path / "cast" / path.name).read_bytes(), path.name


def test_long_labels_shrink_the_batch_not_the_bytes(tmp_path):
    # a label this long leaves room for two rows in one batch's character array
    labels = ("x" * 100_000, "short", "é" * 30_000)
    values = _values((6, len(labels)))
    path = tmp_path / "frame.csv"
    write_frame(ScalarFrame(labels, values), path)
    rows = [["i", "atom_id", "value_re", "value_im"]]
    for i in range(values.shape[0]):
        for x, label in enumerate(labels):
            value = complex(values[i, x])
            rows.append([i, label, repr(value.real), repr(value.imag)])
    assert path.read_bytes() == _reference(rows)


def test_writer_memory_stays_within_the_budget_of_its_batches(tmp_path):
    # a faster writer must not buy its time with memory: the peak of one file of the size of
    # matrix-sep3's eigenfunctions stays within 1.0 MB besides the renderer's lookup tables
    rng = np.random.default_rng(61)
    funcs = 0.1 * (rng.standard_normal((240, 100, 3)) + 1j * rng.standard_normal((240, 100, 3)))
    columns = [
        ([str(i) for i in range(240)], 0),
        (tables._csv_cells([f"x{x:04d}" for x in range(100)]), 1),
        (["0", "1", "2"], 2),
        *tables._complex_columns(funcs),
    ]
    tracemalloc.start()
    try:
        tables._write_csv(tmp_path / "eigenfunctions.csv", ["i", "atom_id", "j", "re", "im"], funcs.shape, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lookup = tables._tables()
    arrays = (lookup.quads, lookup.zeros, lookup.head, lookup.tail, lookup.text, lookup.exponents, lookup.powers)
    assert peak <= 1_000_000 + sum(a.nbytes for a in arrays)
