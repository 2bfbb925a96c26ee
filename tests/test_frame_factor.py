"""A kernel synthesized from frames, ``K = V^H V``, checked through its factor ``V`` against the dense path.

``validate_kernel`` passes a synthesized kernel as positive semidefinite when
the entries of ``V^H V`` are finite, with no solve (``psd_rule`` is
``"factor"``): a sum of rank-one squares is positive semidefinite, and
rounding moves its eigenvalues by about ``count * eps * ||V||_2^2``.  Each
entry is finite where ``count * max|V|^2`` is under a quarter of the largest
float; past that, the Gram is read.  ``verify_diagonal_blocks`` reads block
``j`` off ``V_j^H V_j``.  The reference is the same blocks with the factor
hidden, solved as a dense Gram.  Random families from ``hypothesis`` (real or
complex, with fewer, as many or more frame vectors than ``N n``, shorter
frames padded with zeros, over the family's atoms or a reordered subset of
them) must give equal verdicts, and the dense solve of every such Gram must
clear the floor of :func:`~mercerkit.kernels.psd_tolerance`, which keeps the
construction argument checked against a real solve.  A family whose product
overflows, or holds a ``nan``, fails the finite check at the same pair on
both paths.  For a complex ``V``, ``V^H V`` is written a block of rows at a
time and never held whole, which the last tests pin, as they pin that
validation evaluates no Gram of a family whose products cannot overflow and
runs no eigensolver.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import frames_of
from mercerkit import (
    AtomSpace,
    ScalarFrame,
    build_kernel,
    gram,
    synthesize_kernel,
    validate_kernel,
    verify_diagonal_blocks,
)
from mercerkit import cli, kernels, synthesis, write_frame
from test_structured_paths import _record_solves, dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def space_of(labels) -> AtomSpace:
    return AtomSpace(tuple(labels), np.zeros((len(labels), 1)), np.ones(len(labels)))


@st.composite
def families(draw, cells=st.integers(-2, 2)):
    """Frames of up to 5 atoms and 3 components, with fewer, as many or more vectors than ``N n``.

    Each real and imaginary part is a draw of ``cells``, halved.
    """
    n_atoms, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    order = n_atoms * n
    relation = draw(st.sampled_from(["fewer", "equal", "more"]))
    count = {"fewer": st.integers(0, order - 1), "equal": st.just(order), "more": st.integers(order + 1, order + 4)}
    count = draw(count[relation])
    is_complex = draw(st.booleans())
    atoms = tuple(f"x{i}" for i in range(n_atoms))
    frames = []
    # the first frame is the longest; synthesize_kernel pads the others with zero vectors
    for j in range(n):
        rows = count if j == 0 else draw(st.integers(0, count))
        parts = st.lists(cells, min_size=rows * n_atoms, max_size=rows * n_atoms)
        values = np.array(draw(parts), dtype=float).reshape(rows, n_atoms)
        if is_complex:
            values = values + 1j * np.array(draw(parts), dtype=float).reshape(rows, n_atoms)
        frames.append(ScalarFrame(atoms, 0.5 * values))
    return frames


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(frames=families(), data=st.data())
def test_factor_path_agrees_with_the_dense_path(frames, data):
    kernel = synthesize_kernel(frames)
    reference = dense(kernel)
    atoms = frames[0].atoms
    assert gram(kernel, space_of(atoms)).dtype == kernel.frames[1].dtype
    # the frames' atoms in order (a view of the frames), or a reordered subset of them
    labels = data.draw(st.sampled_from([list(atoms), []]))
    if not labels:
        labels = data.draw(st.permutations(atoms))[: data.draw(st.integers(1, len(atoms)))]
    space = space_of(labels)

    mine, theirs = validate_kernel(kernel, space), validate_kernel(reference, space)
    assert mine.passed and theirs.passed
    assert (mine.hermitian_deviation, mine.nonfinite_pair) == (theirs.hermitian_deviation, theirs.nonfinite_pair)
    # the factor rule solves nothing and reports no eigenvalue
    assert (mine.psd_rule, theirs.psd_rule) == ("factor", None)
    assert mine.min_eigenvalue is mine.max_eigenvalue is mine.tol_psd is None

    originals = [build_kernel({"type": "constant", "value": 0.5})] * kernel.n
    deviation = verify_diagonal_blocks(kernel, originals, space)
    assert deviation == pytest.approx(verify_diagonal_blocks(reference, originals, space), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("count", [1, 3, 8], ids=["fewer", "equal", "more"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_an_overflowing_product_fails_the_finite_check_on_both_paths(count, dtype):
    # 3 atoms, n = 1: the squares of atom b's values overflow, so K(b, b) is inf
    values = np.ones((count, 3, 1), dtype=dtype)
    values[:, 1, 0] = 1e200
    kernel = synthesize_kernel(frames_of(("a", "b", "c"), values))
    space = space_of(("a", "b", "c"))
    mine, theirs = validate_kernel(kernel, space), validate_kernel(dense(kernel), space)
    assert mine.nonfinite_pair == theirs.nonfinite_pair == ("b", "b")
    assert not mine.passed and not theirs.passed
    assert mine.to_dict().keys() == theirs.to_dict().keys() - {"min_eigenvalue", "max_eigenvalue", "tol_psd"} | {
        "psd_rule"
    }


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_nan_frame_value_fails_and_names_its_pair(dtype):
    # atom c's value of component 1 is nan: every block (x, c) and (c, t) holds a nan, (a, c) first in atom order
    values = np.ones((2, 3, 2), dtype=dtype)
    values[1, 2, 1] = np.nan
    kernel = synthesize_kernel(frames_of(("a", "b", "c"), values))
    space = space_of(("a", "b", "c"))
    report = validate_kernel(kernel, space)
    assert report.nonfinite_pair == validate_kernel(dense(kernel), space).nonfinite_pair == ("a", "c")
    assert not report.hermitian_ok and not report.psd_ok and not report.passed
    assert report.to_dict()["psd_rule"] == "factor" and report.to_dict()["nonfinite_pair"] == ("a", "c")


def test_a_factor_past_the_overflow_bound_reads_its_gram_and_solves_nothing(monkeypatch):
    # one frame vector of 4 entries a, a^2 = 5e307: count * max|V|^2 is past a quarter of the largest float, so the
    # Gram is read, and every entry of V^H V, a^2, is finite
    kernel = synthesize_kernel([ScalarFrame(("a", "b", "c", "d"), np.full((1, 4), np.sqrt(5e307)))])
    space = space_of(("a", "b", "c", "d"))
    evaluated, evaluate = [], kernels.gram
    monkeypatch.setattr(kernels, "gram", lambda kernel, *args: evaluated.append(kernel) or evaluate(kernel, *args))
    solves = _record_solves(monkeypatch)
    mine = validate_kernel(kernel, space)
    assert evaluated == [kernel] and solves == []
    assert mine.passed and mine.nonfinite_pair is None and mine.hermitian_deviation == 0.0
    theirs = validate_kernel(dense(kernel), space)
    assert (mine.hermitian_ok, mine.psd_ok) == (theirs.hermitian_ok, theirs.psd_ok)
    # the dense solve's largest eigenvalue, 4 a^2, overflows, and so does its floor
    assert theirs.max_eigenvalue == theirs.tol_psd == np.inf


def test_the_factor_rule_solves_nothing_whatever_the_count(monkeypatch):
    # 4 atoms and 3 components, N n = 12: 2, 12 and 14 frame vectors give one report, and no solve
    solves = _record_solves(monkeypatch)
    for count in (2, 12, 14):
        values = np.arange(count * 4 * 3, dtype=float).reshape(count, 4, 3)
        report = validate_kernel(synthesize_kernel(frames_of(("a", "b", "c", "d"), values)), space_of(("a", "b", "c", "d")))
        assert report.to_dict() == {
            "n_atoms": 4, "n": 3, "hermitian_deviation": 0.0, "tol_sym": kernels.TOL_SYM, "hermitian_ok": True,
            "psd_ok": True, "psd_rule": "factor", "passed": True,
        }
    assert solves == []


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    frames=families(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)), scale=st.sampled_from([1e-150, 1.0, 1e100])
)
def test_the_dense_solve_of_a_finite_family_clears_the_psd_floor(frames, scale):
    # the factor rule passes these without a solve; the solve it replaces agrees, from the subnormal range to near
    # the bound, and whether count is below, at or above N n
    kernel = synthesize_kernel([ScalarFrame(f.atoms, scale * f.values) for f in frames])
    space = space_of(frames[0].atoms)
    eigs = np.linalg.eigvalsh(kernels._flat(gram(kernel, space)))
    assert eigs.min(initial=0.0) >= -kernels.psd_tolerance(eigs.max(initial=0.0))
    assert validate_kernel(kernel, space).passed


def test_validating_a_frame_kernel_runs_no_eigensolver(tmp_path, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, solve)
    rng = np.random.default_rng(37)
    space = space_of([f"x{i}" for i in range(6)])
    # fewer, as many and more frame vectors than N n = 12, real and complex
    families = []
    for count in (3, 12, 20):
        values = rng.standard_normal((count, 6, 2))
        families += [values, values + 1j * rng.standard_normal(values.shape)]
    # past the overflow bound, where the Gram is read: every entry of V^H V is 5e307
    families += [np.full((1, 6, 2), np.sqrt(5e307)), np.full((1, 6, 2), np.sqrt(2.5e307) * (1 + 1j))]
    for values in families:
        assert validate_kernel(synthesize_kernel(frames_of(space.labels, values)), space).passed
    # and the command line, which validates, then writes
    frames = []
    for j in range(2):
        frames.append(tmp_path / f"frame_j{j}.csv")
        write_frame(ScalarFrame(space.labels, rng.standard_normal((5, 6)) + 1j), frames[-1])
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("id,w,c1\n" + "".join(f"x{i},1.0,{i}.0\n" for i in range(6)))
    assert cli.main(["synthesize", "--atoms", str(atoms), "--frames", *map(str, frames), "--out", str(tmp_path / "o")]) == 0


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
    # the Gram a dense solve reads is the whole product's Hermitian part, bit for bit; its eigenvalues clear the
    # floor that the factor rule passes without a solve
    v = _factor(np.random.default_rng(count + 1), count, dtype)
    space = space_of([f"x{i:03d}" for i in range(WIDE)])
    kernel = synthesize_kernel([ScalarFrame(space.labels, v)])
    eigs = np.linalg.eigvalsh(kernels._flat(gram(kernel, space)))
    assert eigs.tobytes() == np.linalg.eigvalsh(kernels._hermitian(np.conj(v.T) @ v)).tobytes()
    assert eigs.min() >= -kernels.psd_tolerance(eigs.max())
    assert validate_kernel(kernel, space).to_dict()["psd_rule"] == "factor"


@pytest.mark.parametrize("dtype", [float, complex])
def test_written_table_of_a_synthesized_kernel_is_its_gram(tmp_path, dtype):
    # 150 atoms of 2 components: the complex family's table is written from 4 blocks of rows, the real one's whole
    rng = np.random.default_rng(29)
    values = rng.standard_normal((120, 150, 2))
    if dtype is complex:
        values = values + 1j * rng.standard_normal(values.shape)
    space = space_of([f"x{i:03d}" for i in range(150)])
    kernel = synthesize_kernel(frames_of(space.labels, values))
    kernels.write_precomputed(kernel, space, tmp_path / "synth.csv")
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
        kernel = synthesize_kernel(frames_of(space.labels, scale * values))
        synthesized.append(kernel)
        mine, theirs = validate_kernel(kernel, space), validate_kernel(dense(kernel), space)
        assert mine.passed and theirs.passed
        assert (mine.hermitian_deviation, mine.nonfinite_pair) == (theirs.hermitian_deviation, theirs.nonfinite_pair)
    assert [kernel for kernel in evaluated if kernel in synthesized] == [synthesized[1]]
