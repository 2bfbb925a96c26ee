"""Round trip of random labels and floats through the writers and both file readers.

The labels and floats come from ``hypothesis``: ``write_frame`` and
``write_precomputed`` write them, and ``read_frame`` and ``read_precomputed``
read them back through numpy's tokenizer and through the ``csv.reader`` row
loop, with bit-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from mercerkit import AtomSpace, ScalarFrame, gram, read_frame, read_precomputed, write_frame, write_precomputed
from test_readers import EDGES, read_both, table_kernel, written_entries

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(EDGES)
# readers strip labels, so the labels of one file must stay distinct once stripped
LABEL_SETS = st.lists(st.text(max_size=6), min_size=1, max_size=4, unique_by=str.strip)


def _complex(draw, shape) -> np.ndarray:
    size = int(np.prod(shape))
    parts = draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    values = np.empty(shape, dtype=complex)
    values.real.flat[:] = parts[::2]
    values.imag.flat[:] = parts[1::2]
    return values


def _as_written(values: np.ndarray) -> np.ndarray:
    """``values`` as ``repr`` writes them: every nan, whatever its sign and payload, is ``nan``."""
    out = values.copy()
    for part in (out.real, out.imag):
        part[np.isnan(part)] = np.nan
    return out


def _fast_and_loop(read, path):
    """``read(path)`` through numpy's tokenizer, which must take the file, and through the row loop."""
    fast, loop_calls, loop = read_both(read, path)
    assert loop_calls == 0
    return fast, loop


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(labels=LABEL_SETS, data=st.data())
def test_frame_round_trip(tmp_path_factory, labels, data):
    values = _complex(data.draw, (data.draw(st.integers(1, 3)), len(labels)))
    path = tmp_path_factory.mktemp("frame") / "frame.csv"
    write_frame(ScalarFrame(tuple(labels), values), path)
    written = _as_written(values)
    # a frame whose imaginary parts are all +0.0 reads back real
    dtype = np.complex128 if written.imag.view(np.int64).any() else np.float64
    for back in _fast_and_loop(read_frame, path):
        assert back.atoms == tuple(label.strip() for label in labels)
        assert back.values.dtype == dtype
        assert back.values.astype(complex).tobytes() == written.tobytes()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(labels=LABEL_SETS, data=st.data())
def test_table_round_trip(tmp_path_factory, labels, data):
    n = data.draw(st.integers(1, 2))
    blocks = _complex(data.draw, (len(labels), len(labels), n, n))
    space = AtomSpace(tuple(labels), np.zeros((len(labels), 0)), np.ones(len(labels)))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_precomputed(table_kernel(blocks), space, path)
    stripped = AtomSpace(tuple(label.strip() for label in labels), space.coords, space.mu)
    fast, loop = (gram(kernel, stripped) for kernel in _fast_and_loop(read_precomputed, path))
    assert fast.tobytes() == loop.tobytes()
    written = written_entries(len(labels), n)
    assert fast[written].tobytes() == _as_written(blocks)[written].tobytes()
