"""CSV tables: label cells, the batch writer with its exact float text, and the one table reader.

Every table the package writes goes through :func:`_write_csv`, given as
its labels and one float source, an array or a function of a batch's row
indices; how either becomes cells is decided there alone.  Labels are
quoted as ``csv.writer`` quotes them (:func:`_text_cells`), a complex value
is written ``re,im``, a real one in a table with an imaginary column
``value,0.0``, and every float exactly as ``repr`` writes it
(:func:`_render`).  Rows go out in batches sized to a budget of working
memory, ``_BUDGET`` bytes, with every cell of a batch at a fixed width in
one uint8 array: a float cell is ``_CELL`` = 25 bytes, its text from the
first byte, padded with ``_PAD``, then the separator.  The padding is
dropped as the batch is written.  The lookup tables of the renderer are
built once per process (:func:`_tables`).  Every table the package reads
(atoms, block tables and frames) goes through :func:`_read_table`: one
``np.loadtxt`` pass (:func:`_read_csv`), or the ``csv.reader`` row loop
(:func:`_read_rows`) that words the errors; both number label cells as
they parse them (:class:`_Numbers`).  The module has no public names.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from io import StringIO
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__: list[str] = []


# Working memory of one batch in bytes, what the writer took when it rendered
# 2048 floats at a time in cells of 47 bytes.  A batch takes as many rows as
# fit at _FLOAT_BYTES per float and three bytes per character of a row (the
# row, the mask of its kept bytes and the bytes written); that estimate is
# above the peak tracemalloc measures (tests/test_writers.py guards it).
_BUDGET = 1_000_000
_FLOAT_BYTES = 112
# A float cell: its text in 24 bytes, padded with _PAD, then the separator.
_CELL = 25
# Padding: never a byte of UTF-8 text, and dropped when a batch is written.
_PAD = 0xFF
# Distance in scaled units (see _scaled) within which a candidate, a tie or
# a rounding boundary is left to repr; the scaled value is off by under 1e-13.
_MARGIN = 1e-9
# Layouts by decimal exponent k: positional for k = -4 .. 15 (layouts 0 .. 19),
# then scientific with a two-digit and a three-digit exponent (20 and 21).  A
# cell's code is (sign * _LAYOUTS + layout) * 18 + count of significant digits.
_LAYOUTS = 22
# Decimal exponents of the exponent table: beyond 1e+-270 repr renders the value.
_KMAX = 330
# Little-endian words of eight characters: the first character is the lowest byte.
_WORD = np.dtype("<u8")
# The character "0" in every byte of a word.
_ZEROS = 0x3030303030303030


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


def _layout_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words ``head``, ``tail`` and ``text`` of each code's cell, as arrays of shape ``(3, codes)``.

    A cell's text starts at byte 0 and is padded with ``_PAD`` to 24 bytes.
    It takes the 17 digits moved on by the sign's byte where ``head`` is set,
    and moved on by the bytes of the sign, the point and the zeros of
    ``0.000`` where ``tail`` is set.  ``text`` holds every other byte: the
    sign, the point, those zeros and ``_PAD``; it leaves 0 where the exponent
    of a scientific layout goes (see :func:`_exponent_words`).  A negative
    value's cell is a positive one's moved on by its sign.  The tables are
    built with float comparisons, as the rendering computes: the first run of
    each numpy loop in a process maps its machine code into memory, so the
    writer keeps to few loops.
    """
    b = np.arange(24.0)
    layout = np.arange(float(_LAYOUTS))[:, None, None]
    nd = np.arange(18.0)[:, None]
    small, sci = layout < 4, layout >= _LAYOUTS - 2
    # digits before the point: k + 1, one in scientific layouts, none in 0.000ddd
    q = np.where(sci, 1.0, np.where(small, 0.0, layout - 3))
    dot = np.where(small, 1.0, q)
    # the first byte of the digits after the point, and the byte after the last digit
    start = np.where(small, 5 - layout, dot + 1)
    end = np.where(small, start + nd, np.where(sci, np.maximum(nd, 1.0) + (nd > 1), np.maximum(nd, q + 1) + 1))
    shape = (_LAYOUTS, 18, 24)
    head = np.broadcast_to(~small & (b < q), shape)
    tail = (b >= start) & (b < end)
    exponent = sci & (b >= end) & (b < end + np.where(layout == _LAYOUTS - 1, 5.0, 4.0))
    text = np.full(shape, _PAD, dtype=np.uint8)
    text[(b == dot) & (~sci | (nd > 1))] = ord(".")
    text[np.broadcast_to(small & ((b == 0) | ((b >= 2) & (b < start))), shape)] = ord("0")
    text[head | tail | exponent] = 0
    pad, none = np.uint8(_PAD), np.uint8(0)
    words = []
    for cells, sign in ((np.where(head, pad, none), 0), (np.where(tail, pad, none), 0), (text, ord("-"))):
        signed = np.empty((2, *shape), dtype=np.uint8)
        signed[0] = cells
        # a negative value's cell: the sign, then a positive one's
        signed[1, ..., 0] = sign
        signed[1, ..., 1:] = cells[..., :-1]
        words.append(signed.view(_WORD).reshape(-1, 3).T.copy())
    return tuple(words)


def _exponent_words() -> np.ndarray:
    """By decimal exponent ``k`` from ``-_KMAX``, ``e+dd`` or ``e+ddd`` in a word; 0 if ``k`` is not scientific."""
    k = np.arange(-_KMAX, _KMAX + 1.0)
    a = np.abs(k)
    hundreds, tens = np.floor(a / 100), np.floor(a / 10)
    three = a >= 100
    chars = np.zeros((len(k), 8))
    chars[:, 0] = ord("e")
    chars[:, 1] = np.where(k < 0, float(ord("-")), float(ord("+")))
    chars[:, 2] = np.where(three, hundreds, tens) + ord("0")
    chars[:, 3] = np.where(three, tens - 10 * hundreds, a - 10 * tens) + ord("0")
    chars[:, 4] = np.where(three, a - 10 * tens + ord("0"), 0.0)
    chars[(k >= -4) & (k <= 15)] = 0.0
    return chars.astype(np.uint8).view(_WORD).reshape(-1)


def _move(words: np.ndarray, bits: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Move the 24 characters of each column of ``words`` (3, n) on by ``bits`` (below 64) into ``out``.

    ``out`` may be ``words``: the last word is moved first.
    """
    for j in (2, 1):
        np.right_shift(words[j - 1], np.subtract(64, bits, out=scratch), out=scratch)
        np.left_shift(words[j], bits, out=out[j])
        out[j] |= scratch
    np.left_shift(words[0], bits, out=out[0])


class _Tables:
    """What rendering needs besides the values, built once per process by :func:`_tables`.

    - ``quads``: the digits of ``0000`` to ``9999`` as the numbers 0 to 9 in
      the low four bytes of a word, and ``zeros``: the count of their
      trailing zeros, 4 for ``0000``
    - ``head``, ``tail``, ``text``: the words of each code (see
      :func:`_layout_words`)
    - ``exponents``: the word of each decimal exponent (see
      :func:`_exponent_words`)
    - ``powers``: rows ``hi, hi_high, hi_low, lo`` of ``10**s`` from
      ``s = first``, extended as exponents are met

    Integers are held as floats or words throughout, exactly.
    """

    def __init__(self) -> None:
        # 0000 to 9999 as two pairs of 00 to 99, the first pair in the low bytes
        pair = np.arange(100.0)
        tens = np.floor(pair / 10)
        ones = pair - 10 * tens
        self.quads = np.repeat((tens + ones * 2.0**8).astype(_WORD), 100)
        self.quads |= np.tile((tens * 2.0**16 + ones * 2.0**24).astype(_WORD), 100)
        zeros = np.where(ones == 0, np.where(tens == 0, 2.0, 1.0), 0.0)
        self.zeros = np.tile(zeros.astype(np.uint8), 100)
        self.zeros[::100] = (zeros + 2).astype(np.uint8)  # the second pair is 00
        self.head, self.tail, self.text = _layout_words()
        self.exponents = _exponent_words()
        self.first = 0
        self.powers = np.zeros((4, 0))

    def factors(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The table of powers and the index in it of ``10**s``, for the integer exponents ``s`` (floats)."""
        first, last = min(int(s.min()), self.first), max(int(s.max()) + 1, self.first + self.powers.shape[1])
        if first < self.first or last > self.first + self.powers.shape[1]:
            his, los = zip(*map(_pow10, range(first, last)))
            his = np.array(his)
            self.first, self.powers = first, np.stack([his, *_veltkamp(his), np.array(los)])
        return self.powers, (s - self.first).astype(np.intp)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _scaled(y: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """``y * 10**(16 - k)`` as ``high * 1e8 + low + frac``, and the gaps to the neighbouring doubles.

    ``high`` and ``low`` are integers below ``1e9`` and ``1e8``, and
    ``0 <= frac < 1``.  ``10**(16 - k)`` is the double-double ``hi + lo``,
    and the product with ``hi`` is exact (Dekker's product, as numpy has no
    FMA), so the scaled value is off by about ``2**-104`` of itself.  The
    gaps are half the distance to each neighbouring double, scaled alike;
    below a power of two it is half as wide.  The arithmetic runs in place,
    in six arrays besides ``y`` and ``k``.
    """
    powers, index = _tables().factors(16 - k)
    hi, factor = powers[0].take(index), powers[1].take(index)
    p = y * hi
    yh, yl = _veltkamp(y)
    # (((yh * hh - p) + yh * hl + yl * hh) + yl * hl) + y * lo, each product exact
    tail = yh * factor
    tail -= p
    powers[2].take(index, out=factor, mode="clip")
    yh *= factor
    tail += yh
    powers[1].take(index, out=factor, mode="clip")
    factor *= yl
    tail += factor
    powers[2].take(index, out=factor, mode="clip")
    factor *= yl
    tail += factor
    powers[3].take(index, out=factor, mode="clip")
    factor *= y
    tail += factor
    whole = np.floor(tail, out=yh)
    tail -= whole
    # p is an integer below 2**57, and high * 1e8 one of at most 49 significant bits: both exact
    high = np.floor(np.divide(p, 1e8, out=yl), out=yl)
    low = p
    low -= np.multiply(high, 1e8, out=factor)
    low += whole
    carry = np.floor(np.divide(low, 1e8, out=whole), out=whole)
    high += carry
    low -= np.multiply(carry, 1e8, out=carry)
    mantissa = np.frexp(y, out=(carry, np.empty(len(y), dtype=np.intc)))[0]
    # y / mantissa is the power of two 2**exponent, exactly
    up_gap = np.divide(y, mantissa, out=factor)
    np.multiply(hi, up_gap, out=up_gap)
    up_gap *= 2.0**-54
    down_gap = np.multiply(up_gap, np.where(mantissa == 0.5, 0.5, 1.0), out=hi)
    return high, low, tail, up_gap, down_gap


def _shortest(
    low: np.ndarray, frac: np.ndarray, up_gap: np.ndarray, down_gap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The shortest candidate inside each rounding interval, and whether the choice is too close to call.

    A scaled value is ``high * 1e8 + low + frac`` (see :func:`_scaled`);
    its rounding interval reaches ``up_gap`` above it and ``down_gap``
    below.  The candidates are the grid points at 15, 16 and 17 digits on
    either side of it.  The shortest length with one inside wins, the closer
    one if both are; it is returned in place of ``low``.  A 17-digit
    candidate is always inside.  A candidate within ``_MARGIN`` of a boundary,
    or a value within it of the middle of two candidates, is too close.
    """
    residue = np.floor(np.divide(low, 100.0))
    residue *= 100.0
    np.subtract(low, residue, out=residue)
    rest, gap = np.empty(len(low)), np.empty(len(low))
    found: list[np.ndarray] = []
    # grid steps of the 15-, 16- and 17-digit candidates, in units of the 17th digit
    for unit in (100.0, 10.0, 1.0):
        if unit == 10.0:
            np.floor(np.divide(residue, 10.0, out=gap), out=gap)
            gap *= 10.0
            residue -= gap
        np.add(0.0 if unit == 1.0 else residue, frac, out=rest)  # the distance down to the candidate at or below
        np.subtract(rest, down_gap, out=gap)
        down_in = gap < 0
        near = np.abs(gap, out=gap) < _MARGIN
        np.subtract(unit, up_gap, out=gap)
        gap -= rest
        up_in = gap < 0
        near |= np.abs(gap, out=gap) < _MARGIN
        np.subtract(rest, 0.5 * unit, out=gap)
        near |= np.abs(gap, out=gap) < _MARGIN
        # the signed distance from the value to the chosen candidate of this length
        up = rest > 0.5 * unit
        up |= ~down_in
        up &= up_in
        np.multiply(up, unit, out=gap)
        gap -= rest
        # a length plays a part only if no shorter one has a candidate inside
        if not found:
            close, offset = near, gap.copy()
        else:
            near &= ~found[-1]
            close |= near
            offset = np.where(found[0] | found[-1], offset, gap)
        down_in |= up_in
        found.append(down_in)
    close |= ~found[-1]
    # the candidate is an integer, and the sum is off by under 1e-7
    offset += frac
    low += offset
    low += 0.5
    return np.floor(low, out=low), close


def _render(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Float64 ``values`` as exactly the text ``repr`` gives them, and how many took ``repr`` itself.

    The text of each value is 24 characters, padded with ``_PAD``, held as
    three little-endian words of eight: column ``i`` of an array of shape
    ``(3, len(values))`` is the text of value ``i``.
    ``repr`` writes the shortest digit string that reads back as the value,
    the closest one to it if there are several.  Each ``|x|`` is scaled into
    ``[1e16, 1e17)`` and :func:`_shortest` picks the digits (the fast path of
    Grisu3, Loitsch, PLDI 2010; shortest output as in Ryu, Adams, PLDI 2018).
    Non-finite values, subnormals, magnitudes beyond ``1e+-270`` and values
    that :func:`_shortest` finds too close to call go through ``repr``
    itself.

    The 17 digits are the words of digits ``0-7``, ``8-15`` and ``16``, put
    together from groups of four; the trailing zeros of the groups give the
    count of significant digits.  The text is those words moved on twice,
    each masked, the characters of the layout (see :func:`_layout_words`)
    and the exponent's word moved on after the digits.
    """
    x = values.reshape(-1)
    tables = _tables()
    y = np.abs(x)
    zero = y == 0
    fast = y >= 1e-270
    fast &= y <= 1e270
    y = np.where(fast, y, 1.0)
    k = np.floor(np.log10(y))
    high, low, frac, up_gap, down_gap = _scaled(y, k)
    # the logarithm can miss by one next to a power of ten: check the integer part
    off = np.flatnonzero((high < 1e8) | (high >= 1e9))
    if len(off):
        k[off] += np.where(high[off] < 1e8, -1.0, 1.0)
        high[off], low[off], frac[off], up_gap[off], down_gap[off] = _scaled(y[off], k[off])
        fast &= (high >= 1e8) & (high < 1e9)
    del y
    chosen, close = _shortest(low, frac, up_gap, down_gap)
    fast &= ~close
    del low, close, up_gap, down_gap
    carry = chosen >= 1e8
    high += carry
    chosen -= np.multiply(carry, 1e8, out=frac)
    carry = high >= 1e9  # rounded up to 1e17
    high -= np.multiply(carry, 9e8, out=frac)
    k += carry
    nonzero = ~zero
    for a in (high, chosen, k):
        a *= nonzero
    # the first digit, then four groups of four; trailing counts the zeros that end the digits so far
    group = np.floor(np.divide(high, 1e8, out=frac), out=frac)
    high -= group * 1e8
    words = np.empty((3, len(x)), dtype=_WORD)
    words[0] = group
    trailing, scratch = zero * 1.0, np.empty(len(x))
    for value, word, spill in ((high, words[0], words[1]), (chosen, words[1], words[2])):
        np.floor(np.divide(value, 1e4, out=group), out=group)
        value -= np.multiply(group, 1e4, out=scratch)
        for part, shift in ((group, 8), (value, 40)):
            index = part.astype(np.intp)
            trailing *= part == 0
            trailing += tables.zeros.take(index)
            digits = tables.quads.take(index)
            if shift == 40:
                np.right_shift(digits, 24, out=spill)  # the group's last digit begins the next word
            digits <<= shift
            word |= digits
    del high, chosen, frac, group, scratch, digits, value, part, index, word, spill
    words |= _ZEROS
    sign = np.signbit(x)
    nd = np.subtract(17.0, trailing, out=trailing)
    layout = np.where((k < -4) | (k > 15), np.where(np.abs(k) >= 100, _LAYOUTS - 1.0, _LAYOUTS - 2.0), k + 4)
    code = ((sign * float(_LAYOUTS) + layout) * 18 + nd).astype(np.intp)
    del layout
    # the digits before the point follow the sign, those after it the point or "0.000"
    text, scratch = np.empty_like(words), np.empty(len(x), dtype=_WORD)
    _move(words, (sign * 8.0).astype(_WORD), text, scratch)
    _move(words, ((1.0 + sign - ((k >= -4) & (k < 0)) * k) * 8).astype(_WORD), words, scratch)
    for j in range(3):
        text[j] &= tables.head[j].take(code, out=scratch, mode="clip")
        words[j] &= tables.tail[j].take(code, out=scratch, mode="clip")
        text[j] |= words[j]
        text[j] |= tables.text[j].take(code, out=scratch, mode="clip")
    del words, code
    # the exponent follows the digits: its word moved on across the three; a shift by
    # 64 bits or more, or by a negative count wrapped round, gives 0
    exponent = tables.exponents.take((k + _KMAX).astype(np.intp))
    at = ((sign + nd + (nd > 1)) * 8).astype(_WORD)
    for j in range(3):
        text[j] |= np.left_shift(exponent, np.subtract(at, 64 * j, out=scratch), out=scratch)
        text[j] |= np.right_shift(exponent, np.subtract(64 * j, at, out=scratch), out=scratch)
    slow = np.flatnonzero(~fast & nonzero)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text[:, i] = np.frombuffer(repr(v).encode().ljust(24, b"\xff"), dtype=_WORD)
    return text, len(slow)


def _text_cells(cells: Iterable[str | int]) -> np.ndarray:
    """Labels or ints as CSV cells in UTF-8 at one width: each padded with ``_PAD``, then its separator.

    Each is written as ``str`` gives it, quoted exactly as ``csv.writer``
    quotes it with its default ``"\\r\\n"`` line terminator, whose characters
    it quotes: a label holding a bare ``"\\r"`` would otherwise end its row.
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    data = []
    for cell in cells:
        buf.seek(0)
        buf.truncate()
        # a trailing empty field, because a row of one empty field is written as ""
        writer.writerow([cell, ""])
        data.append(buf.getvalue()[: -len(",\r\n")].encode())
    width = max(map(len, data), default=0) + 1
    chars = np.frombuffer(b"".join(cell.ljust(width - 1, b"\xff") + b"," for cell in data), dtype=np.uint8)
    return chars.reshape(len(data), width)


def _rows(column: np.ndarray, size: int, width: int) -> np.ndarray | None:
    """``column`` as a view of ``size`` rows of ``width`` in C order, or ``None`` if its strides allow none."""
    axes = [(n, step) for n, step in zip(column.shape, column.strides) if n != 1]
    if all(step == n * inner for (_, step), (n, inner) in zip(axes, axes[1:])):
        return column.reshape(size, width)
    return None


def _batches(shape: tuple[int, ...], step: int, rows: Callable[..., np.ndarray] | None) -> Iterator[np.ndarray]:
    """C-order positions of each batch's rows, ``step`` in all but the last: candidates ``rows`` keeps carry over."""
    kept, size = np.zeros(0, np.intp), math.prod(shape)
    for start in range(0, size, step):
        positions = np.arange(start, min(start + step, size))
        keep = slice(None) if rows is None else rows(*np.unravel_index(positions, shape))
        kept = np.concatenate([kept, positions[keep]])
        if len(kept) >= step:
            yield kept[:step]
            kept = kept[step:]
    if len(kept):
        yield kept


def _write_csv(
    path: str | Path,
    header: Sequence[str],
    shape: tuple[int, ...],
    labels: Sequence[tuple[Iterable[str | int], int]],
    values: np.ndarray | Callable[..., np.ndarray],
    im: bool = False,
    rows: Callable[..., np.ndarray] | None = None,
) -> None:
    """Write a CSV file with one row per index of an array of ``shape``, in C order.

    A row is its label cells, then its float cells:

    - each pair ``(cells, axis)`` of ``labels`` gives the row the cell at its
      index along ``axis``.  Cells are labels or ints, written as ``str``
      gives them and quoted as ``csv.writer`` quotes them (see
      :func:`_text_cells`), and so is ``header``.
    - ``values`` is the one float source: an array whose leading axes are
      ``shape``, giving each row the values at its index (more axes give it
      more), or a function of the index arrays of some rows that returns
      their values, rows along the first axis, formed a batch at a time and
      never whole.  Each value is written as ``repr`` writes it.  Complex
      values go out as ``re,im``, a batch's ``view(float)``; with ``im``, each
      real value is followed by the text ``0.0``, its imaginary part.

    ``rows``, given the index arrays of some rows, says which of them to
    write.  Rows go out in batches that keep within ``_BUDGET`` bytes: each
    batch is one uint8 array of characters, every cell at a fixed width and
    padded with ``_PAD``, which is dropped as the batch is written.  A float
    cell is ``_CELL`` bytes, and four more where ``0.0,`` follows it.  Every
    batch but the last holds the same count of written rows (see
    :func:`_batches`).  An array whose rows are evenly spaced in memory is
    sliced a batch at a time; any other is indexed.  A function is called once
    on empty index arrays, for the shape and dtype of its values.
    """
    size = math.prod(shape)
    text = [(_text_cells(cells), axis) for cells, axis in labels]
    sample = values(*(np.zeros(0, np.intp),) * len(shape)) if callable(values) else values
    width = math.prod(sample.shape[1 if callable(values) else len(shape) :])  # values per row
    pair = np.iscomplexobj(sample)
    floats, cell = width * (1 + pair), _CELL + 4 * (im and not pair)
    flat = None if callable(values) else _rows(values, size, width)
    first = sum(cells.shape[1] for cells, _ in text)
    length = first + floats * cell
    step = max(1, _BUDGET // (3 * length + _FLOAT_BYTES * floats))
    with open(path, "wb") as fh:
        head = _text_cells(header).reshape(-1)
        fh.write(head[head != _PAD][:-1].tobytes() + b"\n")
        for positions in _batches(shape, step, rows):
            count, index = len(positions), np.unravel_index(positions, shape)
            part = positions if rows is not None else slice(positions[0], positions[-1] + 1)  # a view, not a copy
            batch = values(*index) if callable(values) else values[index] if flat is None else flat[part]
            batch = batch.reshape(count, width)
            words, _ = _render(np.ascontiguousarray(batch).view(float) if pair else batch)
            del batch
            chars = np.empty((count, length), dtype=np.uint8)
            at = 0
            for cells, axis in text:
                chars[:, at : at + cells.shape[1]] = cells.take(index[axis], axis=0)
                at += cells.shape[1]
            # each float cell: its three words, wherever they fall in the row, then the separator and any 0.0
            slots = np.ndarray((count, floats, 3), _WORD, chars, first, (length, cell, 8))
            slots[...] = words.T.reshape(count, floats, 3)
            chars[:, first:].reshape(count, floats, cell)[..., 24:] = np.frombuffer(b",0.0,"[: cell - 24], np.uint8)
            del words, slots
            chars[:, -1] = ord("\n")
            fh.write(chars[chars != _PAD])
            del chars  # before the next batch's values are formed


class _Numbers(dict):
    """Raw label cells mapped to numbers: ``labels`` numbers the stripped labels in order of first appearance.

    A cell is stripped when first met and cached, so a repeated cell costs one C-level dict lookup.
    """

    def __init__(self) -> None:
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, cell: str) -> int:
        return self.setdefault(cell, self.labels.setdefault(cell.strip(), len(self.labels)))


def _numbered(row: np.dtype) -> np.dtype:
    """``row`` with each label field, declared with dtype ``object``, as the ``intp`` number of its label."""
    return np.dtype([(name, np.intp if row[name].kind == "O" else row[name]) for name in row.names])


def _read_csv(path: str | Path, row: np.dtype) -> tuple[np.ndarray, dict[str, int]] | None:
    """Data rows of a CSV file whose header is the field names of ``row``, in one ``np.loadtxt`` pass.

    Returns ``None`` if the header differs or cannot be read, there is no
    data row, or numpy's tokenizer rejects any row; :func:`_read_rows` then
    reads the file and words the error.  numpy reads the rest of the stream
    that ``csv.reader`` read the header from, opened with ``newline=""`` as the
    loops open it (given a path, numpy would turn a quoted ``\\r\\n`` into
    ``\\n``).  Both split fields alike: no comment character, ``""`` inside
    quotes, a quote inside an unquoted cell kept; numpy skips only empty
    lines.  Label cells go unstripped to the bound ``__getitem__`` of a
    :class:`_Numbers`, so no string is kept per cell; ``encoding=None``
    hands them over as ``str`` under numpy 1.x too.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (csv.Error, UnicodeDecodeError):
            return None
        # a header record spanning lines is left to the loop
        if header is None or reader.line_num != 1 or [h.strip() for h in header] != list(row.names):
            return None
        numbers = _Numbers()
        converters = {k: numbers.__getitem__ for k, name in enumerate(row.names) if row[name].kind == "O"}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on a file without data rows
                rows = np.loadtxt(fh, _numbered(row), delimiter=",", quotechar='"', comments=None, ndmin=1,
                                  converters=converters, encoding=None)
        except (ValueError, Warning):
            return None
    return rows, numbers.labels


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
    path: str | Path, row: np.dtype, error: type[ValueError], indices: _Indices | None = None, need_rows: bool = False
) -> tuple[np.ndarray, dict[str, int]]:
    """Data rows of the CSV file ``path``, typed by the fields of ``row``, its header, and the labels.

    Label fields (``object`` in ``row``) hold the number of their stripped
    label, in order of first appearance along the rows.  Integer fields are
    indices checked by ``indices``; without it ``row`` has none.
    ``need_rows`` makes a file without data rows an error.  Bad input raises
    ``error`` naming the path and the first bad line.
    """
    read = _read_csv(path, row)
    ints = [name for name in row.names if row[name].kind == "i"]
    if read is None or (ints and not _in_range(indices.limit(len(read[0])), *(read[0][name] for name in ints))):
        read = _read_rows(path, row, error, indices, need_rows)
    return read


def _records(reader: Any, path: str | Path, error: type[ValueError]) -> Iterator[list[str]]:
    """The records of a ``csv.reader``; a ``csv.Error`` or bytes that are not UTF-8 become ``error`` naming the path."""
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def _read_rows(
    path: str | Path, row: np.dtype, error: type[ValueError], indices: _Indices | None, need_rows: bool
) -> tuple[np.ndarray, dict[str, int]]:
    """The data rows of a table and its labels, one ``csv.reader`` row at a time.

    This is the reference parse of :func:`_read_table`.  Blank rows are
    skipped, label cells are numbered as :func:`_read_csv` numbers them, and
    the others go through ``int`` or ``float``, which word the error for a
    bad cell.  Indices are checked as Python integers, before any is held in
    an array.  A record that ``csv.reader`` rejects, such as a cell over
    ``csv.field_size_limit()``, is an error at the line where it stopped.
    """
    numbers = _Numbers()
    convert = [{"O": numbers.__getitem__, "i": int, "f": float}[row[name].kind] for name in row.names]
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
    return np.array(rows, dtype=_numbered(row)), numbers.labels
