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
    align_frames,
    build_kernel,
    extract_frame,
    gram,
    load_atoms,
    pseudo_metric,
    read_frame,
    read_precomputed,
    rescale_measure,
    synthesize_kernel,
    write_eigenfunctions,
    write_error_table,
    write_frame,
    write_precomputed,
    write_spectrum,
)
from mercerkit.cli import main
from mercerkit import tables
from mercerkit.kernels import _row_blocks

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


def _upper(shape) -> np.ndarray:
    """The entries ``(x, t, l, j)`` that ``write_precomputed`` writes: ``t > x``, or ``t == x`` and ``l <= j``."""
    x, t, l, j = np.indices(shape)
    return (t > x) | ((t == x) & (l <= j))


def _precomputed_rows(blocks, labels) -> list[list]:
    rows = [["x_id", "t_id", "l", "j", "re", "im"]]
    for x, t, l, j in zip(*np.nonzero(_upper(blocks.shape))):
        value = complex(blocks[x, t, l, j])
        rows.append([labels[x], labels[t], l, j, repr(value.real), repr(value.imag)])
    return rows


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
    # a contiguous frame, and a strided view
    strided = _values((4, 2 * len(LABELS) - 1))[:, ::2]
    for name, values in (("contiguous", _values((4, len(LABELS)))), ("strided", strided)):
        frame = ScalarFrame(LABELS, values)
        path = tmp_path / f"{name}.csv"
        write_frame(frame, path)
        rows = [["i", "atom_id", "value_re", "value_im"]]
        for i in range(frame.values.shape[0]):
            for x, label in enumerate(frame.atoms):
                value = complex(frame.values[i, x])
                rows.append([i, label, repr(value.real), repr(value.imag)])
        assert path.read_bytes() == _reference(rows), name
        back = read_frame(path)
        assert back.atoms == LABELS
        assert _bits(back.values) == _bits(frame.values), name


def test_write_precomputed_bytes_and_read_back(tmp_path):
    space = _space()
    table = _values((len(space), len(space), 2, 2))
    rng = np.random.default_rng(311)
    values = rng.standard_normal((4, len(space), 2)) + 1j * rng.standard_normal((4, len(space), 2))
    # a table looked up block by block, and a kernel synthesized from frames, whose Gram is a transposed view
    synthesized = synthesize_kernel(align_frames([ScalarFrame(space.labels, values[..., j]) for j in range(2)]))
    for name, kernel in (
        ("table", MatrixKernel(n=2, batch=lambda space, rows, cols: table[np.ix_(rows, cols)])),
        ("synthesized", synthesized),
    ):
        blocks = gram(kernel, space)
        path = tmp_path / f"{name}.csv"
        write_precomputed(kernel, space, path)
        assert path.read_bytes() == _reference(_precomputed_rows(blocks, space.labels)), name
        written = _upper(blocks.shape)
        back = gram(read_precomputed(path), space)
        assert _bits(back[written]) == _bits(blocks[written]), name


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


@pytest.mark.parametrize("name", ["synthesized", "real"])
def test_a_row_filtered_write_fills_its_batches(tmp_path, monkeypatch, name):
    # write_precomputed keeps about half of the block table's rows, so a batch of candidate rows is half empty;
    # the rows kept are carried forward, and every render call but the last takes a full batch
    rng = np.random.default_rng(83)
    space = random_space(rng, 70, dim=2)
    if name == "synthesized":  # complex frames, whose Gram is written in strips of rows (synthesis._gram_entries)
        values = rng.standard_normal((5, len(space), 3)) + 1j * rng.standard_normal((5, len(space), 3))
        kernel = synthesize_kernel(align_frames([ScalarFrame(space.labels, values[..., j]) for j in range(3)]))
    else:
        kernel = build_kernel(FACTORED["separable_real"])
    blocks = gram(kernel, space)
    batches = []

    def render(values):
        batches.append(len(values))  # one row of floats per row written
        return render_batch(values)

    render_batch = tables._render
    monkeypatch.setattr(tables, "_render", render)
    monkeypatch.setattr(tables, "_BUDGET", 20_000)
    path = tmp_path / "kernel.csv"
    returned = write_precomputed(kernel, space, path)
    assert (returned is None) == (name == "synthesized")
    kept = _upper(blocks.shape)
    step = batches[0]
    assert len(batches) > 3 and sum(batches) == kept.sum()
    assert batches[:-1] == [step] * (len(batches) - 1) and 0 < batches[-1] <= step
    if name == "synthesized":
        # the Gram row x * n + l of each row written, and the strip of rows that holds it
        x, _, l, _ = np.nonzero(kept)
        starts = [rows.start for rows in _row_blocks(len(space) * kernel.n, 8)]
        strip = np.searchsorted(starts, x * kernel.n + l, side="right")
        assert len(starts) >= 3
        assert any(len(set(strip[a : a + step])) > 1 for a in range(0, len(strip), step))
    assert path.read_bytes() == _reference(_precomputed_rows(blocks, space.labels))


FILTERS = {
    "all": None,
    "upper": lambda x, t, l, j: (t > x) | ((t == x) & (l <= j)),  # write_precomputed's rows
    "alternate": lambda *index: (sum(index) % 2).astype(bool),
    "none": lambda *index: np.zeros_like(index[0], dtype=bool),
}


@pytest.mark.parametrize(
    "shape, name",
    # the block table's filter takes its four axes
    [pytest.param(shape, name, id="x".join(map(str, shape)) + f"-{name}")
     for shape in [(0, 3), (5,), (4, 3, 2), (3, 3, 2, 2)] for name in FILTERS if name != "upper" or len(shape) == 4],
)
@pytest.mark.parametrize("step", [1, 2, 5, 7, 100])
def test_batches_hand_out_the_index_arrays_of_the_kept_rows_in_order(shape, name, step):
    rows = FILTERS[name]
    kept = np.arange(np.prod(shape)) if rows is None else np.flatnonzero(rows(*np.indices(shape)))
    batches = list(tables._batches(shape, step, rows))
    assert all(len(index) == len(shape) and len({len(axis) for axis in index}) == 1 for index in batches)
    positions = [np.ravel_multi_index(index, shape) for index in batches]
    assert np.array_equal(np.concatenate([np.zeros(0, np.intp), *positions]), kept)
    assert [len(p) for p in positions[:-1]] == [step] * (len(positions) - 1)
    assert (len(batches) == 0) == (len(kept) == 0)
    if batches:
        assert 0 < len(positions[-1]) <= step


def test_a_row_filtered_write_unravels_each_range_of_candidate_rows_once(tmp_path, monkeypatch):
    space = random_space(np.random.default_rng(89), 30, dim=2)
    kernel = build_kernel(FACTORED["separable_complex"])
    batches, calls = [], []

    def render(values):
        batches.append(len(values))
        return render_batch(values)

    def unravel(indices, shape, **kwargs):
        calls.append(shape)
        return unravel_index(indices, shape, **kwargs)

    render_batch, unravel_index = tables._render, np.unravel_index
    monkeypatch.setattr(tables, "_render", render)
    monkeypatch.setattr(tables, "_BUDGET", 20_000)
    monkeypatch.setattr(np, "unravel_index", unravel)
    write_precomputed(kernel, space, tmp_path / "kernel.csv")
    size = (len(space) * kernel.n) ** 2
    assert len(batches) > 3 and len(calls) == -(-size // batches[0]), (len(calls), size, batches[0])


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
    # matrix-sep3's eigenfunctions stays within 1.0 MB besides the renderer's lookup tables, and so does
    # the row-filtered block table of the kernel synthesized from its frames, besides the strips of its Gram
    rng = np.random.default_rng(61)
    funcs = 0.1 * (rng.standard_normal((240, 100, 3)) + 1j * rng.standard_normal((240, 100, 3)))
    atoms = [f"x{x:04d}" for x in range(100)]
    labels = [(range(240), 0), (atoms, 1), (range(3), 2)]
    header = ["i", "atom_id", "j", "re", "im"]
    space = AtomSpace(tuple(atoms), np.zeros((100, 1)), np.ones(100))
    kernel = synthesize_kernel(align_frames([ScalarFrame(space.labels, funcs[..., j]) for j in range(3)]))
    # forming strip k of V^H V's rows takes the conjugate of V's columns in it, the two products and their
    # Hermitian part, with strip k - 1 still held for a batch that straddles the two
    blocks = _row_blocks(300, 8)
    strips = [(rows.stop - rows.start) * (300 - rows.start) * 16 for rows in blocks]
    forming = max(held + (rows.stop - rows.start) * 240 * 16 + 3 * size
                  for held, size, rows in zip([0, *strips], strips, blocks))
    writes = {
        "eigenfunctions": (lambda path: tables._write_csv(path, header, funcs.shape, labels, funcs, im=True), 0),
        "kernel": (lambda path: write_precomputed(kernel, space, path), forming),
    }
    for name, (write, strips_held) in writes.items():
        tracemalloc.start()
        try:
            write(tmp_path / f"{name}.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lookup = tables._tables()
        arrays = (lookup.quads, lookup.zeros, lookup.head, lookup.tail, lookup.text, lookup.exponents, lookup.powers)
        assert peak <= 1_000_000 + sum(a.nbytes for a in arrays) + strips_held, (name, peak)
