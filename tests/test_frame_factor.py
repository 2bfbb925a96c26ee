"""A kernel synthesized from frames, ``K = V^H V``, solved through its factor ``V`` against the dense path.

``validate_kernel`` reads a synthesized kernel's eigenvalues off the
``count x count`` matrix ``V V^H`` when there are fewer frame vectors than
the Gram's order ``N n``, padded with zeros up to ``N n``, and
``verify_diagonal_blocks`` reads block ``j`` off ``V_j^H V_j``.  The
reference is the same blocks with the factor hidden, solved as a dense Gram.
Random families from ``hypothesis`` (real or complex, with fewer, as many
or more frame vectors than ``N n``, shorter frames padded with zeros, over
the family's atoms or a reordered subset of them) must give equal verdicts
and eigenvalues within the tolerance of the structured paths.  A family
whose product overflows fails the finite check at the same pair on both
paths, and one whose ``V V^H`` alone overflows falls back to the dense solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from mercerkit import (
    AtomSpace,
    FrameFamily,
    ScalarFrame,
    align_frames,
    build_kernel,
    gram,
    synthesize_kernel,
    validate_kernel,
    verify_diagonal_blocks,
)
from test_structured_paths import _record_solves, dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def space_of(labels) -> AtomSpace:
    return AtomSpace(tuple(labels), np.zeros((len(labels), 1)), np.ones(len(labels)))


@st.composite
def families(draw):
    """Frames of up to 5 atoms and 3 components, with fewer, as many or more vectors than ``N n``."""
    n_atoms, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    order = n_atoms * n
    relation = draw(st.sampled_from(["fewer", "equal", "more"]))
    count = {"fewer": st.integers(0, order - 1), "equal": st.just(order), "more": st.integers(order + 1, order + 4)}
    count = draw(count[relation])
    is_complex = draw(st.booleans())
    atoms = tuple(f"x{i}" for i in range(n_atoms))
    frames = []
    # the first frame is the longest; align_frames pads the others with zero vectors
    for j in range(n):
        rows = count if j == 0 else draw(st.integers(0, count))
        cells = st.lists(st.integers(-2, 2), min_size=rows * n_atoms, max_size=rows * n_atoms)
        values = np.array(draw(cells), dtype=float).reshape(rows, n_atoms)
        if is_complex:
            values = values + 1j * np.array(draw(cells), dtype=float).reshape(rows, n_atoms)
        frames.append(ScalarFrame(atoms, 0.5 * values))
    return align_frames(frames)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(family=families(), data=st.data())
def test_factor_path_agrees_with_the_dense_path(family, data):
    kernel = synthesize_kernel(family)
    reference = dense(kernel)
    assert gram(kernel, space_of(family.atoms)).dtype == family.values.dtype
    # the family's atoms in order (a view of the frames), or a reordered subset of them
    labels = data.draw(st.sampled_from([list(family.atoms), []]))
    if not labels:
        labels = data.draw(st.permutations(family.atoms))[: data.draw(st.integers(1, len(family.atoms)))]
    space = space_of(labels)

    mine, theirs = validate_kernel(kernel, space), validate_kernel(reference, space)
    assert mine.passed and theirs.passed
    assert (mine.hermitian_deviation, mine.nonfinite_pair) == (theirs.hermitian_deviation, theirs.nonfinite_pair)
    scale = max(1.0, abs(theirs.max_eigenvalue))
    assert abs(mine.max_eigenvalue - theirs.max_eigenvalue) <= 1e-12 * scale
    assert abs(mine.min_eigenvalue - theirs.min_eigenvalue) <= 1e-12 * scale
    if len(family.values) < len(space) * family.n:
        # the padding zeros: V^H V has at least N n - count zero eigenvalues
        assert mine.min_eigenvalue <= 0.0

    originals = [build_kernel({"type": "constant", "value": 0.5})] * family.n
    deviation = verify_diagonal_blocks(kernel, originals, space)
    assert deviation == pytest.approx(verify_diagonal_blocks(reference, originals, space), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("count", [1, 3, 8], ids=["fewer", "equal", "more"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_an_overflowing_product_fails_the_finite_check_on_both_paths(count, dtype):
    # 3 atoms, n = 1: the squares of atom b's values overflow, so K(b, b) is inf
    values = np.ones((count, 3, 1), dtype=dtype)
    values[:, 1, 0] = 1e200
    family = FrameFamily(("a", "b", "c"), values)
    kernel = synthesize_kernel(family)
    space = space_of(family.atoms)
    mine, theirs = validate_kernel(kernel, space), validate_kernel(dense(kernel), space)
    assert mine.nonfinite_pair == theirs.nonfinite_pair == ("b", "b")
    assert not mine.passed and not theirs.passed
    assert mine.to_dict().keys() == theirs.to_dict().keys()


def test_a_factor_whose_small_product_alone_overflows_takes_the_dense_solve(monkeypatch):
    # one frame vector of 4 entries a, a^2 = 5e307: every entry of V^H V is a^2, but V V^H = 4 a^2 overflows
    family = FrameFamily(("a", "b", "c", "d"), np.full((1, 4, 1), np.sqrt(5e307)))
    kernel = synthesize_kernel(family)
    space = space_of(family.atoms)
    solves = _record_solves(monkeypatch)
    mine = validate_kernel(kernel, space)
    assert mine.nonfinite_pair is None
    # the Gram and B = [[1]]; the 1 x 1 V V^H is never solved
    assert [shape for shape, _ in solves] == [(4, 4), (1, 1)]
    theirs = validate_kernel(dense(kernel), space)
    assert (mine.hermitian_ok, mine.psd_ok) == (theirs.hermitian_ok, theirs.psd_ok)
    # the largest eigenvalue, 4 a^2, overflows on both paths
    assert mine.max_eigenvalue == theirs.max_eigenvalue == np.inf


def test_the_factor_solve_is_count_by_count(monkeypatch):
    # 2 frame vectors over 4 atoms and 3 components: a 2 x 2 solve in place of a 12 x 12 one
    values = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
    kernel = synthesize_kernel(FrameFamily(("a", "b", "c", "d"), values))
    solves = _record_solves(monkeypatch)
    report = validate_kernel(kernel, space_of(("a", "b", "c", "d")))
    assert solves == [((2, 2), np.dtype(np.float64))]
    assert report.min_eigenvalue == 0.0 and report.passed

