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
For a complex ``V``, ``V^H V`` is written a block of rows at a time and
never held whole, and ``V V^H`` is formed a block of rows at a time, each
block with the whole product's bits, which the last tests pin, as they pin
that validation evaluates no Gram of a family whose products cannot overflow.
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
from mercerkit import kernels, synthesis
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



# N n = 300 rows of V^H V: blocks of 64, 64, 64 and 108 rows
WIDE = 300


def _factor(rng, count: int, dtype) -> np.ndarray:
    """A ``count x WIDE`` factor ``V``, real or complex."""
    v = rng.standard_normal((count, WIDE))
    return v + 1j * rng.standard_normal((count, WIDE)) if dtype is complex else v


def _upper_entries(v: np.ndarray) -> np.ndarray:
    """The upper triangle of the Hermitian part of ``V^H V``, asked for in 7 batches of rows, as a table writer asks."""
    x, t = np.triu_indices(v.shape[1])
    values, zero = synthesis._gram_entries(v, 1), np.zeros_like(x)
    return np.concatenate([values(x[b], t[b], zero[b], zero[b]) for b in np.array_split(np.arange(len(x)), 7)])


@pytest.mark.parametrize("count", [40, 240, 700], ids=["fewer", "as_frames", "more"])
def test_gram_entries_are_the_whole_hermitian_part_bit_for_bit(count):
    v = _factor(np.random.default_rng(count), count, complex)
    whole = kernels._hermitian(np.conj(v.T) @ v)
    assert len(kernels._row_blocks(WIDE, 8)) == 4
    assert _upper_entries(v).tobytes() == whole[np.triu_indices(WIDE)].tobytes()


def test_gram_entries_take_the_halves_only_where_a_block_overflows():
    # the first 64 columns of V's first row are near 1e154: their entries of V^H V are finite, near 1e308, and
    # M + M^H overflows there; the whole part takes the halves everywhere, each block of rows only where it
    # overflows, and the two agree bit for bit where no entry is subnormal
    v = _factor(np.random.default_rng(3), 3, complex)
    v[0, :64] = 1e154 * np.exp(1j * np.linspace(0.0, 0.3, 64))
    m = np.conj(v.T) @ v
    with np.errstate(over="ignore"):
        assert np.isfinite(m).all() and np.isinf(m + m.conj().T).any()
    whole = kernels._hermitian(m)
    assert np.isfinite(whole).all()
    assert _upper_entries(v).tobytes() == whole[np.triu_indices(WIDE)].tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("count", [40, 240], ids=["fewer", "as_frames"])
def test_factor_eigenvalues_are_the_whole_products_bit_for_bit(count, dtype):
    # V V^H of 240 rows is formed in blocks of 64, 64 and 112 rows when V is complex, whole when it is real
    v = _factor(np.random.default_rng(count + 1), count, dtype)
    whole = np.linalg.eigvalsh(kernels._hermitian(v @ v.conj().T))
    eigs = synthesis._factor_eigenvalues(v, WIDE)
    assert eigs[:count].tobytes() == whole.tobytes() and not eigs[count:].any()


@pytest.mark.parametrize("dtype", [float, complex])
def test_written_table_of_a_synthesized_kernel_is_its_gram(tmp_path, dtype):
    # 150 atoms of 2 components: the complex family's table is written from 4 blocks of rows, the real one's whole
    rng = np.random.default_rng(29)
    values = rng.standard_normal((120, 150, 2))
    if dtype is complex:
        values = values + 1j * rng.standard_normal(values.shape)
    family = FrameFamily(tuple(f"x{i:03d}" for i in range(150)), values)
    kernel, space = synthesize_kernel(family), space_of(family.atoms)
    written = kernels.write_precomputed(kernel, space, tmp_path / "synth.csv")
    assert (written is None) == (dtype is complex)
    kernels.write_precomputed(dense(kernel), space, tmp_path / "dense.csv")
    assert (tmp_path / "synth.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_validation_of_a_synthesized_kernel_evaluates_no_gram_unless_its_entries_may_overflow(monkeypatch):
    evaluated = []
    evaluate = kernels.gram
    monkeypatch.setattr(kernels, "gram", lambda kernel, *args: evaluated.append(kernel) or evaluate(kernel, *args))
    values = _factor(np.random.default_rng(31), 100, complex).reshape(100, 150, 2)
    space = space_of([f"x{i:03d}" for i in range(150)])
    synthesized = []
    # 100 frame vectors: 100 max|V|^2 is far below a quarter of the largest float at scale 1, above it at 3e152,
    # where every entry of V^H V is still finite
    for scale in (1.0, 3e152):
        kernel = synthesize_kernel(FrameFamily(space.labels, scale * values))
        synthesized.append(kernel)
        mine, theirs = validate_kernel(kernel, space), validate_kernel(dense(kernel), space)
        assert mine.passed and theirs.passed
        assert (mine.hermitian_deviation, mine.nonfinite_pair) == (theirs.hermitian_deviation, theirs.nonfinite_pair)
    assert [kernel for kernel in evaluated if kernel in synthesized] == [synthesized[1]]
