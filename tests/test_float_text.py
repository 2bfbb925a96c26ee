"""The batch float renderer behind every CSV writer gives exactly the bytes of ``repr``.

Each check writes a column of floats with ``_write_csv`` and compares the
file with ``repr`` of every value, one per line: random 64-bit patterns over
every exponent, ``hypothesis`` floats, the powers of two with both
neighbours, and the edges of ``repr``'s layouts.  Values the renderer cannot
decide go through ``repr`` itself; that path is checked on values known to
take it.
"""

from __future__ import annotations

import numpy as np
import pytest

from mercerkit.tables import _PAD, _render, _write_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# where repr switches between layouts, or the digit count changes
DECADE_EDGES = (1e-5, 1e-4, 9.999999999999999e-05, 1e15, 1e16, 9999999999999998.0, 1e17)


def _assert_repr_bytes(tmp_path, values) -> None:
    values = np.asarray(values, dtype=np.float64)
    path = tmp_path / "floats.csv"
    _write_csv(path, ["x"], values.shape, [values])
    expected = "x\n" + "".join(repr(v) + "\n" for v in values.tolist())
    assert path.read_bytes() == expected.encode()


def _rendered(values) -> tuple[list[str], int]:
    """Each value's text as the renderer writes it, and how many values went through ``repr``."""
    words, fallbacks = _render(np.asarray(values, dtype=np.float64))
    return [cell.tobytes().replace(bytes([_PAD]), b"").decode() for cell in words.T], fallbacks


def test_random_bit_patterns_over_every_exponent(tmp_path):
    # uniform 64-bit patterns: every exponent, nan payloads of both signs, subnormals and infinities
    bits = np.random.default_rng(20101).integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    exponents = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert len(np.unique(exponents)) == 2048
    assert np.isnan(values).any() and (np.abs(values) < np.finfo(float).tiny).any()
    _assert_repr_bytes(tmp_path, values)


def test_powers_of_two_and_both_neighbours(tmp_path):
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    _assert_repr_bytes(tmp_path, np.concatenate([values, -values]))


def test_decade_edges_zeros_and_infinities(tmp_path):
    decades = np.array([10.0**e for e in range(-323, 309)])
    edges = np.array(DECADE_EDGES + (0.0, -0.0, np.inf, -np.inf))
    values = np.concatenate([edges, decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])
    _assert_repr_bytes(tmp_path, np.concatenate([values, -values]))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_hypothesis_floats(tmp_path_factory, values):
    _assert_repr_bytes(tmp_path_factory.mktemp("floats"), values)


def test_undecided_values_go_through_repr():
    # non-finite, subnormal, beyond 1e+-270, and with a rounding boundary within the margin of a candidate
    undecided = [np.nan, -np.inf, 5e-324, -2.5e-310, 1e300, -1e-300, 2.7392337464290868e16, 4.5931089285988824e16]
    texts, fallbacks = _rendered(undecided)
    assert texts == [repr(v) for v in undecided]
    assert fallbacks == len(undecided)
    decided = [0.1, -1 / 3, 1e-5, 9.999999999999999e-05, 1e15, 1e16, 1e17, 0.0, -0.0]
    texts, fallbacks = _rendered(decided)
    assert texts == [repr(v) for v in decided]
    assert fallbacks == 0
