"""CSV tables: label cells, the batch writer with its exact float text, and the one table reader.

Every table the package writes goes through :func:`_write_csv`, which
renders floats exactly as ``repr`` does.  Every table it reads (atoms, block
tables and frames) goes through :func:`_read_table`: one ``np.loadtxt`` pass
(:func:`_read_csv`), or the ``csv.reader`` row loop (:func:`_read_rows`)
that words the errors.  The module has no public names.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from io import StringIO
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__: list[str] = []


def _csv_cells(labels: Iterable[str]) -> list[str]:
    """Labels rendered as CSV cells with minimal quoting, exactly as ``csv.writer`` writes them.

    The writer has its default ``"\\r\\n"`` line terminator, whose characters
    it quotes: a label holding a bare ``"\\r"`` would otherwise end its row.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    cells = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a trailing empty field, because a row of one empty field is written as ""
        writer.writerow([label, ""])
        cells.append(buf.getvalue()[: -len(",\r\n")])
    return cells


# Floats rendered at a time: enough that numpy's cost per call is small
# beside the work per value, few enough that a batch's arrays stay under 1 MB.
_BATCH = 2048
# Bytes of one batch's character array at most, however long the labels are.
_CANVAS = 1 << 18
# Distance in scaled units (see _FloatText) within which a candidate, a tie or
# a rounding boundary is left to repr; the scaled value is off by under 1e-13.
_MARGIN = 1e-9
# A float cell: sign, 17 digits, "0", ".", "0000", the 17 digits again, "e+000"
# and the separator.  Each value keeps the characters of its layout.
_FLOAT_CELL = np.frombuffer(b"-" + b"0" * 17 + b"0.0000" + b"0" * 17 + b"e+000,", dtype=np.uint8)
# Layouts by decimal exponent k: positional for k = -4 .. 15 (layouts 0 .. 19),
# then scientific with a two-digit and a three-digit exponent (20 and 21).
_LAYOUTS = 22
# Grid steps of the 15-, 16- and 17-digit candidates, in units of the 17th digit.
_UNITS = np.array([[100.0], [10.0], [1.0]])


def _pow10(s: int) -> tuple[float, float]:
    """``10**s`` as the double-double ``hi + lo``, both correctly rounded from exact integers."""
    if s >= 0:
        exact = 10**s
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10**-s
    hi = 1 / den
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into halves of 26 bits, whose pairwise products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _shortest(
    low: np.ndarray, frac: np.ndarray, up_gap: np.ndarray, down_gap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The shortest candidate inside each rounding interval, and whether the choice is too close to call.

    A scaled value is ``high * 1e8 + low + frac`` (see ``_FloatText._scaled``);
    its rounding interval reaches ``up_gap`` above it and ``down_gap``
    below.  The candidates are the grid points at 15, 16 and 17 digits on
    either side of it.  The shortest length with one inside wins, the closer
    one if both are; it is returned in place of ``low``.  A 17-digit
    candidate is always inside.  A candidate within ``_MARGIN`` of a boundary,
    or a value within it of the middle of two candidates, is too close.
    """
    n = len(low)
    r100 = low - 100 * np.floor(low / 100)
    rest = np.stack([r100, r100 - 10 * np.floor(r100 / 10), np.zeros(n)])
    rest += frac  # the distance down to the candidate at or below
    gap = rest - down_gap
    close = np.abs(gap) < _MARGIN
    down_in = gap < 0
    gap = (_UNITS - up_gap) - rest
    close |= np.abs(gap) < _MARGIN
    up_in = gap < 0
    del gap
    close |= np.abs(rest - 0.5 * _UNITS) < _MARGIN
    found = down_in | up_in
    # signed distance from the value to the chosen candidate of each length
    offset = np.where(up_in & (~down_in | (rest > 0.5 * _UNITS)), _UNITS - rest, -rest)
    # found at one length, found at every longer one
    length = np.where(found[0], 0.0, np.where(found[1], 1.0, 2.0))
    pick = (length * n + np.arange(float(n))).astype(np.intp)
    # the candidate is an integer, and the sum is off by under 1e-7
    chosen = np.floor(low + (frac + offset.take(pick)) + 0.5)
    # lengths longer than the chosen one play no part
    return chosen, close[0] | (close[1] & ~found[0]) | (close[2] & ~found[1]) | ~found[2]


def _float_masks() -> np.ndarray:
    """Kept characters of ``_FLOAT_CELL`` by ``layout * 18 + digit count``; the sign is kept apart.

    Built in place with float comparisons, as the rendering computes.  The
    first run of each numpy loop in a process maps its machine code into
    memory, so the writer keeps to few loops.
    """
    layout = np.arange(float(_LAYOUTS))[:, None, None]
    nd = np.arange(18.0)[:, None]
    k = layout - 4
    sci, small = layout >= 20, layout < 4
    # the digits before the point come from the first copy, those after it from the second
    cut = np.where(sci, 1.0, np.where(small, 0.0, k + 1))
    end = np.where(sci | small | (nd > k + 2), nd, k + 2)
    j = np.arange(17.0)
    masks = np.zeros((_LAYOUTS, 18, len(_FLOAT_CELL)), dtype=bool)
    masks[..., 1:18] = j < cut
    masks[..., 18] = small[..., 0]  # the "0" of 0.000ddd
    masks[..., 19] = (~sci | (nd > 1))[..., 0]
    masks[..., 20:24] = np.arange(4.0) < np.where(small, -k - 1, 0.0)
    masks[..., 24:41] = (j >= cut) & (j < end)
    masks[..., 41:46] = sci  # "e", the exponent's sign and digits
    masks[..., 43] = (layout == 21)[..., 0]
    masks[..., 46] = True
    return masks.reshape(-1, len(_FLOAT_CELL))


class _FloatText:
    """Renders float64 values as exactly the text ``repr`` gives them, a batch at a time.

    ``repr`` writes the shortest digit string that reads back as the value,
    the closest one to it if there are several.  Each ``|x|`` is scaled into
    ``[1e16, 1e17)`` and :func:`_shortest` picks the digits (the fast path of
    Grisu3, Loitsch, PLDI 2010; shortest output as in Ryu, Adams, PLDI 2018).
    Non-finite values, subnormals, magnitudes beyond ``1e+-270`` and values
    that :func:`_shortest` finds too close to call go through ``repr``
    itself; ``fallbacks`` counts them.

    It holds what the batches of one file share: the characters of ``0000``
    to ``9999`` with the count of their significant digits, the kept
    characters of each layout, and ``10**s`` for the exponents ``s`` met so
    far, as ``hi``, its two halves and ``lo``.  Integers are held as floats
    throughout, exactly.
    """

    def __init__(self) -> None:
        q = np.arange(10000.0)
        thousands, hundreds, tens = np.floor(q / 1000), np.floor(q / 100), np.floor(q / 10)
        digits = np.stack([thousands, hundreds - 10 * thousands, tens - 10 * hundreds, q - 10 * tens], axis=1)
        self.quads = (digits + ord("0")).astype(np.uint8)
        # significant digits of each group: up to its last digit that is not 0
        self.sig = np.zeros(len(q))
        for j in range(4):
            self.sig[digits[:, j] > 0] = j + 1
        self.masks = _float_masks()
        self.first = 0
        self.powers = np.zeros((0, 4))
        self.fallbacks = 0

    def _factors(self, s: np.ndarray) -> np.ndarray:
        """Rows ``hi, hi_high, hi_low, lo`` of ``10**s`` for the integer exponents ``s`` (floats)."""
        first, last = min(int(s.min()), self.first), max(int(s.max()) + 1, self.first + len(self.powers))
        if first < self.first or last > self.first + len(self.powers):
            his, los = zip(*map(_pow10, range(first, last)))
            his = np.array(his)
            self.first, self.powers = first, np.stack([his, *_veltkamp(his), np.array(los)], axis=1)
        return np.take(self.powers, (s - self.first).astype(np.intp), axis=0)

    def _scaled(self, y: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
        """``y * 10**(16 - k)`` as ``high * 1e8 + low + frac``, and the gaps to the neighbouring doubles.

        ``high`` and ``low`` are integers below ``1e9`` and ``1e8``, and
        ``0 <= frac < 1``.  ``10**(16 - k)`` is the double-double ``hi + lo``,
        and the product with ``hi`` is exact (Dekker's product, as numpy has no
        FMA), so the scaled value is off by about ``2**-104`` of itself.  The
        gaps are half the distance to each neighbouring double, scaled alike;
        below a power of two it is half as wide.
        """
        hi, hh, hl, lo = self._factors(16 - k).T
        p = y * hi
        yh, yl = _veltkamp(y)
        tail = (((yh * hh - p) + yh * hl + yl * hh) + yl * hl) + y * lo
        whole = np.floor(tail)
        # p is an integer below 2**57, and high * 1e8 one of at most 49 significant bits: both exact
        high = np.floor(p / 1e8)
        low = p - high * 1e8 + whole
        carry = np.floor(low / 1e8)
        mantissa = np.frexp(y)[0]
        # y / mantissa is the power of two 2**exponent, exactly
        up_gap = hi * (y / mantissa) * 2.0**-54
        down_gap = np.where(mantissa == 0.5, 0.5 * up_gap, up_gap)
        return high + carry, low - carry * 1e8, tail - whole, up_gap, down_gap

    def render(self, values: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
        """Write the cells of ``values`` into ``chars`` and their kept characters into ``keep``.

        ``chars`` and ``keep`` have the shape of ``values`` plus a last axis
        the length of ``_FLOAT_CELL``.
        """
        x = values.reshape(-1)
        mag = np.abs(x)
        fast = (mag >= 1e-270) & (mag <= 1e270)
        y = np.where(fast, mag, 1.0)
        k = np.floor(np.log10(y))
        high, low, frac, up_gap, down_gap = self._scaled(y, k)
        # the logarithm can miss by one next to a power of ten: check the integer part
        off = np.flatnonzero((high < 1e8) | (high >= 1e9))
        if len(off):
            k[off] += np.where(high[off] < 1e8, -1.0, 1.0)
            high[off], low[off], frac[off], up_gap[off], down_gap[off] = self._scaled(y[off], k[off])
            fast &= (high >= 1e8) & (high < 1e9)
        chosen, close = _shortest(low, frac, up_gap, down_gap)
        del low, frac, up_gap, down_gap
        fast &= ~close
        carry = chosen >= 1e8
        high[carry] += 1
        chosen[carry] -= 1e8
        carry = high >= 1e9  # rounded up to 1e17
        high[carry] = 1e8
        k[carry] += 1
        zero = mag == 0
        high[zero] = chosen[zero] = k[zero] = 0
        # the first digit, then four groups of four
        top = np.floor(high / 1e8)
        high -= top * 1e8
        g0, g2 = np.floor(high / 1e4), np.floor(chosen / 1e4)
        groups = np.stack([top, g0, high - g0 * 1e4, g2, chosen - g2 * 1e4], axis=1)
        index = groups.astype(np.intp)
        # the count of significant digits, from the last group that is not 0000
        nd = 13 + self.sig.take(index[:, 4])
        rows = np.flatnonzero(groups[:, 4] == 0)
        for col in (3, 2, 1, 0):
            if not len(rows):
                break
            nd[rows] = 4 * col - 3 + self.sig.take(index[rows, col])
            rows = rows[groups[rows, col] == 0]
        nd[zero] = 1
        sci = (k < -4) | (k > 15)
        layout = np.where(sci, np.where(np.abs(k) >= 100, 21.0, 20.0), k + 4)
        keep[...] = np.take(self.masks, (layout * 18 + nd).astype(np.intp), axis=0).reshape(keep.shape)
        keep[..., 0] = np.signbit(values)
        chars[...] = _FLOAT_CELL
        digits = np.take(self.quads, index, axis=0).reshape(-1, 20)[:, 3:]
        chars[..., 1:18] = chars[..., 24:41] = digits.reshape(values.shape + (17,))
        rows = np.flatnonzero(sci)
        at = np.unravel_index(rows, values.shape)
        chars[(*at, 42)] = np.where(k[rows] < 0, float(ord("-")), float(ord("+")))
        chars[(*at, slice(43, 46))] = np.take(self.quads, np.abs(k[rows]).astype(np.intp), axis=0)[:, 1:]
        slow = np.flatnonzero(~fast & ~zero)
        self.fallbacks += len(slow)
        for i, v in zip(slow.tolist(), x[slow].tolist()):
            text = repr(v).encode()
            at = np.unravel_index(i, values.shape)
            chars[at][: len(text)] = np.frombuffer(text, dtype=np.uint8)
            keep[at][:-1] = False
            keep[at][: len(text)] = True


def _text_cells(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Text cells as UTF-8 characters at one width, each followed by its separator, and the mask of those kept."""
    data = [cell.encode() for cell in cells]
    width = max(map(len, data), default=0) + 1
    # the first padding character is the separator
    chars = np.frombuffer(b"".join(cell.ljust(width, b",") for cell in data), dtype=np.uint8)
    return chars.reshape(len(data), width), np.arange(float(width)) <= np.array([[float(len(cell))] for cell in data])


def _write_csv(
    path: str | Path,
    header: Sequence[str],
    shape: tuple[int, ...],
    columns: Sequence[np.ndarray | tuple[Sequence[str], int | None]],
    rows: Callable[..., np.ndarray] | None = None,
) -> None:
    """Write a CSV file with one row per index of an array of ``shape``, in C order.

    Each column gives every row one or more cells:

    - a float array of ``shape``: its value at the row's index, as ``repr``
      writes it; an array with one more axis gives that many cells.  There
      is at least one float column, and float columns come next to each
      other.
    - a pair ``(cells, axis)``: the text cell at the row's index along
      ``axis``, or ``cells[0]`` on every row if ``axis`` is ``None``

    Text cells are written as given, so labels go through :func:`_csv_cells`
    first.  ``rows``, given the index arrays of some rows, says which of them
    to write.  Rows go out in batches of about ``_BATCH`` floats and at most
    ``_CANVAS`` characters: each batch is one uint8 array of characters,
    every cell at a fixed width, and a mask of the characters kept.
    """
    size = math.prod(shape)
    columns = [(*_text_cells(c[0]), c[1]) if isinstance(c, tuple) else c for c in columns]
    counts = [0 if isinstance(c, tuple) else math.prod(c.shape[len(shape) :]) for c in columns]
    widths = [c[0].shape[1] if isinstance(c, tuple) else m * len(_FLOAT_CELL) for c, m in zip(columns, counts)]
    edges = [0, *itertools.accumulate(widths)]
    numbers = [i for i, m in enumerate(counts) if m]
    if numbers[-1] - numbers[0] != len(numbers) - 1:
        raise ValueError("float columns must come next to each other")
    block = slice(edges[numbers[0]], edges[numbers[-1] + 1])
    floats = _FloatText()
    step = max(1, min(_BATCH // sum(counts), _CANVAS // edges[-1]))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, size, step):
            index = np.unravel_index(np.arange(start, min(start + step, size)), shape)
            if rows is not None:
                written = rows(*index)
                index = tuple(i[written] for i in index)
            count = len(index[0])
            if not count:
                continue
            chars = np.empty((count, edges[-1]), dtype=np.uint8)
            keep = np.empty(chars.shape, dtype=bool)
            for column, a, b in zip(columns, edges, edges[1:]):
                if isinstance(column, tuple):
                    text, kept, axis = column
                    pick = np.zeros(1, dtype=np.intp) if axis is None else index[axis]
                    chars[:, a:b], keep[:, a:b] = np.take(text, pick, axis=0), np.take(kept, pick, axis=0)
            # a column may be any view, such as a transposed Gram: it is indexed, never reshaped
            values = np.concatenate([columns[i][index].reshape(count, -1) for i in numbers], axis=1)
            cell = (count, values.shape[1], len(_FLOAT_CELL))
            floats.render(values, chars[:, block].reshape(cell), keep[:, block].reshape(cell))
            chars[:, -1] = ord("\n")
            fh.write(np.compress(keep.reshape(-1), chars.reshape(-1)))


def _complex_columns(values: np.ndarray) -> list[np.ndarray | tuple[list[str], None]]:
    """The real and imaginary parts of ``values`` as two columns.

    A real array's imaginary cells are the text ``0.0``, and so are those of
    a complex array whose imaginary parts are all ``+0.0`` (every bit zero),
    as the eigenfunctions of a real Gram matrix are.
    """
    if not np.iscomplexobj(values):
        return [values, (["0.0"], None)]
    if not values.imag.view(np.int64).any():
        return [values.real, (["0.0"], None)]
    return [values.real, values.imag]


def _read_csv(path: str | Path, row: np.dtype) -> np.ndarray | None:
    """Data rows of a CSV file whose header is the field names of ``row``, in one ``np.loadtxt`` pass.

    Returns ``None`` if the header differs or cannot be read, there is no
    data row, or numpy's tokenizer rejects any row; :func:`_read_rows` then
    reads the file and words the error.  numpy reads the rest of the stream
    that ``csv.reader`` read the header from, opened with ``newline=""`` as the
    loops open it (given a path, numpy would turn a quoted ``\\r\\n`` into
    ``\\n``).  Both split fields alike: no comment character, ``""`` inside
    quotes, a quote inside an unquoted cell kept; numpy skips only empty
    lines.  Label columns have dtype ``object`` and keep their cells
    unstripped.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error:
            return None
        # a header record spanning lines is left to the loop
        if header is None or reader.line_num != 1 or [h.strip() for h in header] != list(row.names):
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on a file without data rows
                return np.loadtxt(fh, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _in_range(limit: int, *columns: np.ndarray) -> bool:
    """Whether every entry of the nonempty integer columns lies in ``0 .. limit - 1``."""
    return all(col.min() >= 0 and col.max() < limit for col in columns)


class _Indices(NamedTuple):
    """How a table's integer fields are checked and named in its errors.

    ``negative`` is the message for a negative index, ``name`` names the
    largest index of a row that is out of range, and ``limit`` gives the bound
    on the indices from the count of data rows.
    """

    negative: str
    name: str
    limit: Callable[[int], int]


def _read_table(
    path: Path, row: np.dtype, error: type[ValueError], indices: _Indices | None = None, need_rows: bool = False
) -> np.ndarray:
    """Data rows of the CSV file ``path``, typed by the fields of ``row``, its header.

    Integer fields are indices checked by ``indices``; without it ``row`` has
    none.  ``need_rows`` makes a file without data rows an error.  Bad input
    raises ``error`` naming the path and the first bad line.
    """
    rows = _read_csv(path, row)
    ints = [name for name in row.names if row[name].kind == "i"]
    if rows is None or (ints and not _in_range(indices.limit(len(rows)), *(rows[name] for name in ints))):
        rows = _read_rows(path, row, error, indices, need_rows)
    return rows


def _records(reader: Any, path: Path, error: type[ValueError]) -> Iterator[list[str]]:
    """The records of a ``csv.reader``; a ``csv.Error`` becomes ``error`` naming the path and line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(
    path: Path, row: np.dtype, error: type[ValueError], indices: _Indices | None, need_rows: bool
) -> np.ndarray:
    """The data rows of a table, one ``csv.reader`` row at a time.

    This is the reference parse of :func:`_read_table`.  Blank rows are
    skipped, label fields are kept as read and the others go through ``int``
    or ``float``, which word the error for a bad cell.  Indices are checked
    as Python integers, before any is held in an array.  A record that
    ``csv.reader`` rejects, such as a cell over ``csv.field_size_limit()``,
    is an error at the line where the reader stopped.
    """
    convert = [{"O": str, "i": int, "f": float}[row[name].kind] for name in row.names]
    ints = [k for k, name in enumerate(row.names) if row[name].kind == "i"]
    rows: list[tuple] = []
    lines: list[int] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = _records(csv.reader(fh), path, error)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        if [h.strip() for h in header] != list(row.names):
            raise error(f"{path}: line 1: header must be {','.join(row.names)}")
        for line_no, cells in enumerate(reader, start=2):
            if not "".join(cells).strip():
                continue  # blank line
            if len(cells) != len(convert):
                raise error(f"{path}: line {line_no}: expected {len(convert)} fields, got {len(cells)}")
            try:
                values = tuple(kind(cell) for kind, cell in zip(convert, cells))
            except ValueError as exc:
                raise error(f"{path}: line {line_no}: {exc}") from None
            if ints and min(values[k] for k in ints) < 0:
                raise error(f"{path}: line {line_no}: {indices.negative}")
            rows.append(values)
            lines.append(line_no)
    if need_rows and not rows:
        raise error(f"{path}: no data rows")
    if ints:
        limit = indices.limit(len(rows))
        for line_no, values in zip(lines, rows):
            top = max(values[k] for k in ints)
            if top >= limit:
                raise error(f"{path}: line {line_no}: {indices.name} {top} is out of range for {len(rows)} data rows")
    return np.array(rows, dtype=row)
