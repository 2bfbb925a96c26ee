"""CSV writers: bytes equal to a plain ``csv.writer`` row loop, and read back exactly."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from mercerkit import (
    AtomSpace,
    MatrixKernel,
    ScalarFrame,
    SpectralDecomposition,
    build_kernel,
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

# labels that need quoting, one with an inner space, and the empty label
LABELS = ("a,1", 'b"q', "c d", "", "e")
# floats at the edges of repr: negative zero, exponent forms, the smallest subnormal
EDGES = (-0.0, 1e16, 1e-5, 5e-324, 0.1, -1 / 3)


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
    flat.imag[len(EDGES) : 2 * len(EDGES)] = EDGES[::-1]
    return values


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=complex).tobytes()


def _space() -> AtomSpace:
    return AtomSpace(LABELS, np.arange(2.0 * len(LABELS)).reshape(-1, 2), np.ones(len(LABELS)))


def test_write_eigenfunctions_bytes(tmp_path):
    space = _space()
    kernel = build_kernel({"type": "diagonal", "blocks": [{"type": "gaussian", "gamma": 1.0}] * 2})
    sigmas = np.array([1e16, 0.1, 1e-5, 5e-324])
    funcs = _values((len(sigmas), len(space), 2))
    dec = SpectralDecomposition(space, kernel, rescale_measure(space, kernel), sigmas, funcs)
    path = tmp_path / "eigenfunctions.csv"
    write_eigenfunctions(dec, path)
    rows = [["i", "atom_id", "j", "re", "im"]]
    for i in range(dec.rank):
        for x, label in enumerate(space.labels):
            for j in range(dec.n):
                value = complex(funcs[i, x, j])
                rows.append([i, label, j, repr(value.real), repr(value.imag)])
    assert path.read_bytes() == _reference(rows)

    path = tmp_path / "spectrum.csv"
    write_spectrum(dec, path)
    assert path.read_bytes() == _reference([["i", "sigma"]] + [[i, repr(float(s))] for i, s in enumerate(sigmas)])


def test_write_error_table_bytes(tmp_path):
    table = [(m, err) for m, err in enumerate(EDGES)]
    path = tmp_path / "errors.csv"
    write_error_table(table, path)
    assert path.read_bytes() == _reference([["m", "max_abs_error"]] + [[m, repr(float(e))] for m, e in table])


def test_write_frame_bytes_and_read_back(tmp_path):
    frame = ScalarFrame(0, LABELS, _values((4, len(LABELS))))
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
    kernel = MatrixKernel(n=2, eval=lambda x, t: None, batch=lambda xs, ts: blocks.copy())
    path = tmp_path / "table.csv"
    write_precomputed(kernel, space.atoms, path)
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
    back = gram(read_precomputed(path), space.atoms)
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
