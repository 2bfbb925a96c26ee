"""Atom files, frame files and block tables read through numpy's tokenizer equal the ``csv.reader`` row loop.

``load_atoms``, ``read_frame`` and ``read_precomputed`` read their rows
through ``tables._read_table``: one ``np.loadtxt`` pass, with the one row
loop ``tables._read_rows`` kept as the reference and taken when numpy
rejects a row or an index is out of range.  Both paths must give
bit-identical arrays and labels, or the same exception with the same message.
"""

from __future__ import annotations

import csv
import tracemalloc

import numpy as np
import pytest

from mercerkit import (
    AtomFileError,
    AtomSpace,
    KernelSpecError,
    MatrixKernel,
    ScalarFrame,
    gram,
    kernels,
    load_atoms,
    mercer,
    read_frame,
    read_precomputed,
    tables,
    write_frame,
    write_precomputed,
)


# Data rows of each case.  A tuple holds the raw cells (i, label, re, im) of a
# frame row, written to a table as label,label,i,i,re,im and to an atom file as
# label,i,re,im; a string is written as it is to all three.  The last item says
# which path must read a frame or a table: "fast", "loop", or None for either.
# Atom files have no integer fields, so an index that is negative, out of
# range or not an integer does not send them to the loop.
CASES = {
    "quoted": ([("0", '"a,1"', "1.5", "-2.0"), ("0", '"b""q"', "3.0", "0.25")], "fast"),
    "hash_label": ([("0", "a#b", "1.0", "0.0"), ("0", "#", "2.0", "1.0")], "fast"),
    "empty_label": ([("0", "", "1.0", "0.0"), ("0", "x", "2.0", "0.0"), ("0", '""', "3.0", "0.0")], "fast"),
    "padded_label": ([("0", " a ", "1.0", "0.0"), ("0", '" b"', "2.0", "0.0"), ("0", "a", "3.0", "0.0")], "fast"),
    "repeated": ([("0", "a", "1.0", "0.0"), ("0", "b", "2.0", "3.0"), ("0", "a", "-5.0", "6.0")], "fast"),
    "edge_floats": (
        [("0", "a", "nan", "-inf"), ("0", "b", "-0.0", "5e-324"), ("0", "c", "inf", "-0.0"),
         ("0", "d", "-nan", "1e308")],
        "fast",
    ),
    "spaced_numbers": ([(" 0 ", "a", " 1.0 ", "\t2.0"), ("+0", "b", "1e0", "-0")], "fast"),
    "two_vectors": ([("0", "a", "1.0", "0.0"), ("1", "a", "2.0", "0.0"), ("0", "b", "3.0", "0.0")], "fast"),
    "blank_lines": (["", ("0", "a", "1.0", "0.0"), "", "", ("0", "b", "2.0", "0.0"), ""], "fast"),
    "quoted_newline": ([("0", '"a\r\nb"', "1.0", "0.0"), ("0", '"c\nd"', "2.0", "0.0")], "fast"),
    "underscore_float": ([("0", "a", "1_0", "0.0")], None),
    "underscore_index": ([("1_0", "a", "1.0", "0.0")] + [("0", f"b{k}", "1.0", "0.0") for k in range(10)], None),
    "unicode_digits": ([("0", "a", "١", "0.0")], None),
    "whitespace_row": ([("0", "a", "1.0", "0.0"), "  ,  , ,\t", ("0", "b", "2.0", "0.0")], None),
    "unterminated_quote": ([("0", '"a', "1.0", "0.0"), ("0", "b", "2.0", "0.0")], None),
    "no_rows": ([], None),
    "float_index": ([("1.0", "a", "1.0", "0.0")], "loop"),
    "negative_index": ([("0", "a", "1.0", "0.0"), ("-1", "b", "2.0", "0.0")], "loop"),
    "index_beyond_rows": ([("0", "a", "1.0", "0.0"), ("2", "b", "2.0", "0.0")], "loop"),
    "three_fields": ([("0", "a", "1.0", "0.0"), "0,b,2.0"], "loop"),
    "five_fields": ([("0", "a", "1.0", "0.0"), "0,b,2.0,0.0,9"], "loop"),
    "bad_float": ([("0", "a", "one", "0.0")], "loop"),
    "twenty_digit_index": ([("0", "a", "1.0", "0.0"), ("12345678901234567890", "b", "2.0", "0.0")], "loop"),
    "negative_index_then_bad_float": ([("-1", "a", "1.0", "0.0"), ("0", "b", "one", "0.0")], "loop"),
}
INDEX_CASES = {"float_index", "negative_index", "index_beyond_rows", "twenty_digit_index"}


def _frame_line(row) -> str:
    return row if isinstance(row, str) else ",".join(row)


def _table_line(row) -> str:
    if isinstance(row, str):
        return row
    i, label, re, im = row
    return ",".join((label, label, i, i, re, im))


def _atom_line(row) -> str:
    if isinstance(row, str):
        return row
    i, label, re, im = row
    return ",".join((label, i, re, im))


def _atoms_outcome(path):
    try:
        space = load_atoms(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return space.labels, space.coords.shape, space.coords.tobytes(), space.mu.tobytes()


# the header and the row writer of each kind of file
FORMATS = {
    "frame": ("i,atom_id,value_re,value_im", _frame_line),
    "table": ("x_id,t_id,l,j,re,im", _table_line),
    "atoms": ("id,w,c1,c2", _atom_line),
}


def _write_case(path, kind, rows, bom="", newline="\n"):
    header, line = FORMATS[kind]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(bom + "".join(text + newline for text in [header] + [line(row) for row in rows]))


def _frame_outcome(path):
    try:
        frame = read_frame(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return frame.atoms, frame.values.shape, frame.values.tobytes()


def _table_outcome(path):
    try:
        kernel = read_precomputed(path)
    except ValueError as exc:
        return type(exc), str(exc)
    # every data row parsed, so csv.reader sees the reader's labels
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if "".join(row).strip()]
    labels = tuple(dict.fromkeys(cell.strip() for row in rows for cell in row[:2]))
    space = AtomSpace(labels, np.zeros((len(labels), 0)), np.ones(len(labels)))
    blocks = {}
    for x, x_label in enumerate(labels):
        for t, t_label in enumerate(labels):
            try:
                blocks[x_label, t_label] = gram(kernel, space, [x], [t]).tobytes()
            except kernels.KernelEvaluationError as exc:
                blocks[x_label, t_label] = str(exc)
    return kernel.n, kernel.label, labels, blocks


def read_both(outcome, path):
    """``outcome(path)`` as read, the number of row-loop calls it made, and ``outcome`` through the loop alone."""
    calls = []
    loop = tables._read_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "_read_rows", lambda path, *args: calls.append(path) or loop(path, *args))
        fast = outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "_read_csv", lambda path, row: None)
        reference = outcome(path)
    return fast, len(calls), reference


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("kind", ["frame", "table", "atoms"])
def test_fast_path_equals_row_loop(tmp_path, kind, case, bom, newline):
    rows, path_taken = CASES[case]
    if kind == "atoms" and case in INDEX_CASES:
        path_taken = "fast"
    path = tmp_path / f"{kind}.csv"
    _write_case(path, kind, rows, bom, newline)
    outcome = {"frame": _frame_outcome, "table": _table_outcome, "atoms": _atoms_outcome}[kind]
    fast, loop_calls, reference = read_both(outcome, path)
    assert fast == reference
    if path_taken is not None:
        assert loop_calls == (path_taken == "loop")


# Each header case, and how many times an atom file of that text goes
# through the row loop: none when load_atoms rejects its header itself.
HEADERS = {
    "empty": ("", 0),
    "frame_header": ("i,atom_id,value\n0,a,1\n", 0),
    "table_header": ("x_id,t_id,l,j,re\n", 0),
    "frame_header_two_lines": ('i,atom_id,value_re,"value_im\n"\n0,a,1.0,2.0\n', 0),
    "table_header_two_lines": ('x_id,t_id,l,j,re,"im\n"\na,a,0,0,1.0,2.0\n', 0),
    "atoms_header_only": ("id,w,c1\n", 1),
    "atoms_header_two_lines": ('id,w,"c1\n"\na,1.0,2.0\n', 1),
}


@pytest.mark.parametrize("header", list(HEADERS))
@pytest.mark.parametrize("outcome", [_frame_outcome, _table_outcome, _atoms_outcome], ids=["frame", "table", "atoms"])
def test_headers_are_read_alike(tmp_path, outcome, header):
    text, atom_loop_calls = HEADERS[header]
    path = tmp_path / "file.csv"
    path.write_bytes(text.encode())
    fast, loop_calls, reference = read_both(outcome, path)
    assert fast == reference
    assert loop_calls == (atom_loop_calls if outcome is _atoms_outcome else 1)


@pytest.mark.parametrize(
    "kind, case, message",
    [
        ("frame", "twenty_digit_index", "line 3: frame index 12345678901234567890 is out of range for 2 data rows"),
        ("table", "twenty_digit_index", "line 3: component index 12345678901234567890 is out of range for 2 data rows"),
        ("frame", "negative_index_then_bad_float", "line 2: frame index must be nonnegative"),
        ("table", "negative_index_then_bad_float", "line 2: component indices must be nonnegative"),
        ("atoms", "negative_index_then_bad_float", "line 3: could not convert string to float: 'one'"),
    ],
    ids=["frame-long_index", "table-long_index", "frame-negative_first", "table-negative_first", "atoms-bad_float"],
)
def test_first_bad_line_is_named(tmp_path, kind, case, message):
    read, error = {
        "frame": (read_frame, ValueError),
        "table": (read_precomputed, KernelSpecError),
        "atoms": (load_atoms, AtomFileError),
    }[kind]
    path = tmp_path / f"{kind}.csv"
    _write_case(path, kind, CASES[case][0])
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: {message}"


def test_table_errors_name_the_path_as_given(tmp_path, monkeypatch):
    # the label names the file only, as it did when the path was read through Path
    (tmp_path / "bad.csv").write_text("x_id,t_id,l,j,re,im\na,a,0,0,x,0.0\n")
    (tmp_path / "t.csv").write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(KernelSpecError, match=r"^\./bad\.csv: line 2: "):
        read_precomputed("./bad.csv")
    assert read_precomputed("./t.csv").label == "precomputed(t.csv)"


# Block tables whose two label columns differ, each pair of cells x_id,t_id with the
# numbers of its labels: a label first met in t_id, and a label written bare in one
# column and padded or quoted in the other
LABEL_COLUMNS = {
    "first_in_t_id": (["a,b", "b,c", "c,c", "a,a"], ("a", "b", "c"), [(0, 1), (1, 2), (2, 2), (0, 0)]),
    "padded": (["a, b ", "b,a", "\tb,b"], ("a", "b"), [(0, 1), (1, 0), (1, 1)]),
    "quoted": (['a,"b c"', "b c,a", '" b c",b c'], ("a", "b c"), [(0, 1), (1, 0), (1, 1)]),
}


def _numbered_outcome(path):
    rows, index = tables._read_table(path, kernels._PRECOMPUTED_ROW, KernelSpecError, kernels._COMPONENTS)
    return rows.dtype, rows.tobytes(), list(index.items()), rows[["x_id", "t_id"]].tolist()


@pytest.mark.parametrize("case", list(LABEL_COLUMNS))
def test_table_labels_are_numbered_in_order_of_first_appearance(tmp_path, case):
    pairs, labels, numbers = LABEL_COLUMNS[case]
    path = tmp_path / "table.csv"
    path.write_text("x_id,t_id,l,j,re,im\n" + "".join(f"{pair},0,0,{k}.0,0.0\n" for k, pair in enumerate(pairs)))
    for outcome in (_table_outcome, _numbered_outcome):
        fast, loop_calls, reference = read_both(outcome, path)
        assert fast == reference
        assert loop_calls == 0
    *_, index, cells = fast
    assert index == [(label, k) for k, label in enumerate(labels)]
    assert cells == numbers


def test_cr_line_endings(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_bytes(b"i,atom_id,value_re,value_im\r0,a,1.0,2.0\r1,a,3.0,4.0\r")
    fast, _, reference = read_both(_frame_outcome, path)
    assert fast == reference == (("a",), (2, 1), np.array([[1 + 2j], [3 + 4j]]).tobytes())


# ---------------------------------------------------------------------------
# what the writers produce is read by numpy's tokenizer
# ---------------------------------------------------------------------------

LABELS = ("a,1", 'b"q', "c d", "", "e#f", "g\r\nh", "i\rj")
EDGES = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, 1e16, 0.1)


@pytest.fixture
def no_loop(monkeypatch):
    def refuse(path, *args):
        raise AssertionError(f"row loop used for {path}")

    monkeypatch.setattr(tables, "_read_rows", refuse)


def _edge_values(shape) -> np.ndarray:
    rng = np.random.default_rng(613)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = values.reshape(-1)
    flat.real[: len(EDGES)] = EDGES
    flat.imag[: len(EDGES)] = EDGES[::-1]
    flat.imag[len(EDGES) : 2 * len(EDGES)] = EDGES
    return values


def written_entries(n_atoms: int, n: int) -> np.ndarray:
    """Entries ``write_precomputed`` writes: blocks ``x <= t``, the upper triangle of diagonal blocks."""
    written = np.zeros((n_atoms, n_atoms, n, n), dtype=bool)
    for i in range(n_atoms):
        written[i, i] = np.triu(np.ones((n, n), dtype=bool))
        written[i, i + 1 :] = True
    return written


def table_kernel(blocks: np.ndarray) -> MatrixKernel:
    return MatrixKernel(n=blocks.shape[-1], batch=lambda space, rows, cols: blocks[np.ix_(rows, cols)])


def test_written_frame_takes_fast_path(tmp_path, no_loop):
    frame = ScalarFrame(LABELS, _edge_values((5, len(LABELS))))
    path = tmp_path / "frame.csv"
    write_frame(frame, path)
    back = read_frame(path)
    assert back.atoms == LABELS
    assert back.values.tobytes() == frame.values.tobytes()


def test_written_table_takes_fast_path(tmp_path, no_loop):
    space = AtomSpace(LABELS, np.zeros((len(LABELS), 0)), np.ones(len(LABELS)))
    blocks = _edge_values((len(LABELS), len(LABELS), 2, 2))
    path = tmp_path / "table.csv"
    write_precomputed(table_kernel(blocks), space, path)
    written = written_entries(len(LABELS), 2)
    assert gram(read_precomputed(path), space)[written].tobytes() == blocks[written].tobytes()


def test_a_position_given_twice_keeps_its_last_row(tmp_path):
    # kernels._scatter finds each position's last row in one pass over the rows: a block table whose entries
    # repeat in shuffled order, and the frame rows of CASES["repeated"]
    labels = ("a", "b", "c")
    space = AtomSpace(labels, np.zeros((len(labels), 0)), np.ones(len(labels)))
    written = written_entries(len(labels), 2)
    entries = np.argwhere(written)
    rng = np.random.default_rng(29)
    picks = np.concatenate([np.arange(len(entries)), rng.integers(0, len(entries), 2 * len(entries))])
    rng.shuffle(picks)
    values = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
    last, lines = {}, ["x_id,t_id,l,j,re,im"]
    for pick, value in zip(picks.tolist(), values.tolist()):
        x, t, l, j = entries[pick]
        lines.append(f"{labels[x]},{labels[t]},{l},{j},{value.real!r},{value.imag!r}")
        last[pick] = value
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = np.array([last[k] for k in range(len(entries))])
    assert gram(read_precomputed(path), space)[written].tobytes() == expected.tobytes()
    _write_case(tmp_path / "frame.csv", "frame", CASES["repeated"][0])
    assert read_frame(tmp_path / "frame.csv").values.tolist() == [[-5 + 6j, 2 + 3j]]


# ---------------------------------------------------------------------------
# a file too large to hold dense is a reader error, not a crash
# ---------------------------------------------------------------------------


def no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 57.4 GiB for an array")


class NumpyWithout:
    """The numpy module, except that one of its functions fails to allocate."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __getattr__(self, attr: str):
        return no_memory if attr == self.name else getattr(np, attr)


def test_frame_too_large_to_hold_names_path_and_shape(tmp_path, monkeypatch):
    monkeypatch.setattr(mercer, "_scatter", no_memory)
    path = tmp_path / "frame.csv"
    path.write_text("i,atom_id,value_re,value_im\n0,a,1.0,0.0\n1,b,2.0,0.0\n2,c,3.0,0.0\n")
    with pytest.raises(ValueError) as info:
        read_frame(path)
    assert str(info.value) == f"cannot read frame file: {path}: a dense frame of shape (3, 3) does not fit in memory"


@pytest.mark.parametrize("patch", [(kernels, "_scatter", no_memory), (kernels, "np", NumpyWithout("copyto"))],
                         ids=["scatter", "mirror_fill"])
def test_table_too_large_to_hold_names_path_and_shape(tmp_path, monkeypatch, patch):
    monkeypatch.setattr(*patch)
    path = tmp_path / "table.csv"
    path.write_text("x_id,t_id,l,j,re,im\na,a,0,0,1.0,0.0\na,b,0,0,0.5,0.0\nb,b,0,0,1.0,0.0\n")
    with pytest.raises(KernelSpecError) as info:
        read_precomputed(path)
    expected = f"cannot read kernel table file: {path}: a dense table of shape (2, 2, 1, 1) does not fit in memory"
    assert str(info.value) == expected


# ---------------------------------------------------------------------------
# a read holds no string per label cell
# ---------------------------------------------------------------------------


def _traced_peak(read, path):
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_read_memory_stays_within_a_few_dense_tables(tmp_path):
    # the label cells are numbered as they are parsed and the rows are freed before the
    # mirror step, so the peak stays within 5 times the dense table (9.3 when every cell was a str)
    labels = tuple(f"x{x:04d}" for x in range(60))
    space = AtomSpace(labels, np.zeros((len(labels), 0)), np.ones(len(labels)))
    blocks = _edge_values((len(labels), len(labels), 2, 2))
    path = tmp_path / "table.csv"
    write_precomputed(table_kernel(blocks), space, path)
    assert _traced_peak(read_precomputed, path) <= 5 * blocks.nbytes


def test_frame_read_memory_stays_within_a_few_dense_frames(tmp_path):
    # 9.0 times the dense frame when every label cell was a str
    frame = ScalarFrame(tuple(f"x{x:04d}" for x in range(60)), _edge_values((120, 60)))
    path = tmp_path / "frame.csv"
    write_frame(frame, path)
    assert _traced_peak(read_frame, path) <= 7 * frame.values.nbytes
