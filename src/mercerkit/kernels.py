"""Matrix-valued kernels: constructor zoo, block Gram evaluation, validation.

A kernel is its evaluator together with the output dimension ``n``, and
it is evaluated over an atom space: ``gram(kernel, space, rows, cols)``
returns the blocks ``K(x, t)`` for the atoms at the integer index arrays
``rows`` and ``cols``, shape ``(len(rows), len(cols), n, n)``.  Every
built-in kernel evaluates these blocks in batch; a kernel given only by a
per-pair evaluator is evaluated pair by pair.  Nothing is assumed: Hermitian
pair symmetry and positive semidefiniteness of the block Gram matrix are
checked explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .tables import _Indices, _read_table, _write_csv

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from numpy.typing import ArrayLike

    from .space import Atom, AtomSpace

__all__ = [
    "KernelEvaluationError",
    "KernelSpecError",
    "KernelSymmetryError",
    "MatrixKernel",
    "TOL_SYM",
    "ValidationReport",
    "build_kernel",
    "gram",
    "kernel_from_file",
    "psd_tolerance",
    "read_precomputed",
    "validate_kernel",
    "write_precomputed",
]

# Absolute ceiling on acceptable asymmetry of value pairs K(x,t), K(t,x)*.
TOL_SYM = 1e-10
# Relative floor used for the positive-semidefiniteness verdict.
PSD_TOL_SCALE = 1e-10


class KernelSpecError(ValueError):
    """Raised for a malformed kernel description; names the offending field."""


class KernelSymmetryError(ValueError):
    """Raised when kernel values break Hermitian pair symmetry."""


class KernelEvaluationError(LookupError):
    """Raised when a table-backed kernel is evaluated outside its table."""


Batch = Callable[["AtomSpace", np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class MatrixKernel:
    """An ``n x n`` matrix-valued kernel given by its evaluator.

    ``batch(space, rows, cols)``, when present, returns the blocks for every
    pair of the atoms of ``space`` at the index arrays ``rows`` and ``cols``
    (either may be empty) as an array of shape ``(len(rows), len(cols), n,
    n)``: a new array, or a read-only view of values the kernel holds.  It is
    what :func:`gram` uses, and it gets ``cols is rows`` when the two sets are
    the same.  Without it, blocks come from ``eval(x, t)`` on
    :class:`Atom` pairs, one pair at a time.  Built-in kernels carry only
    ``batch``.

    ``separable`` holds the factors ``(k, B)`` of a separable kernel
    ``K(x, t) = k(x, t) B``: the scalar kernel ``k`` and the read-only
    ``n x n`` matrix ``B``.  It is read only through :func:`_factors`.

    ``frames`` holds the factor of a kernel synthesized from frames,
    ``K = V^H V``: the position of each frame atom by label, in the frames'
    atom order, and the frame values of shape ``(count, atoms, n)``.  It is
    read through :func:`_frame_factor`, and by the ``synthesize`` subcommand
    for the frame count and the atom labels it reports and evaluates over.
    """

    n: int
    eval: Callable[[Atom, Atom], np.ndarray] | None = None
    label: str = "custom"
    batch: Batch | None = None
    separable: tuple[MatrixKernel, np.ndarray] | None = None
    frames: tuple[Mapping[str, int], np.ndarray] | None = None


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


_ONE = _readonly(np.ones((1, 1)))


def _factors(kernel: MatrixKernel) -> tuple[MatrixKernel, np.ndarray]:
    """The factors ``(core, B)`` of ``kernel``: ``(k, B)`` for a separable ``k B``, else ``(kernel, [[1.0]])``.

    One factor is ``1 x 1``, so ``core(x, t) * B`` gives the bits of the
    kernel's blocks and its Gram is the Kronecker product of the core's Gram
    and ``B``.  Eigenvalues of the Hermitian parts multiply, and so do the
    spectral norms of the blocks'; the metric's gap is the core's gap times
    ``B``.  The products are exact when the core's Gram is Hermitian, as
    every built-in kernel's is.
    """
    return (kernel, _ONE) if kernel.separable is None else kernel.separable


def _scatter(
    shape: tuple[int, ...], keys: tuple[np.ndarray, ...], re: np.ndarray, im: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Array of ``shape`` holding ``re``, ``im`` at the index columns ``keys``, and its stored mask.

    The array is complex, or real without ``im``.  A position given twice
    keeps its last row, found in one ``np.maximum.at`` pass over the rows.
    Parts are assigned, not summed as ``re + 1j * im``, which would
    turn ``im = inf`` into a ``nan`` real part and lose a ``-0.0``.
    """
    # advanced-index assignment does not say which of repeated indices wins, so keep the last row
    last = np.full(shape, -1, dtype=np.intp)
    np.maximum.at(last.reshape(-1), np.ravel_multi_index(keys, shape), np.arange(len(re)))
    stored = last >= 0
    last = last[stored]
    values = np.zeros(shape, dtype=float if im is None else complex)
    values.real[stored] = re[last]
    if im is not None:
        values.imag[stored] = im[last]
    return values, stored


def _positions(index: Mapping[str, int], labels: Sequence[str]) -> np.ndarray:
    """Each label's entry in ``index``, or -1 for a label it lacks."""
    return np.fromiter((index.get(label, -1) for label in labels), np.intp, len(labels))


def _frame_factor(kernel: MatrixKernel, space: AtomSpace, rows: np.ndarray | None = None) -> np.ndarray | None:
    """The factor ``V`` of a kernel synthesized as ``K = V^H V`` at the atoms of ``space`` at ``rows`` (default all).

    ``V`` has shape ``(count, len(rows) * n)``, column ``x*n + l``, and the
    dtype of the frames; any other kernel gives ``None``.  An atom that no
    frame carries raises :class:`KernelEvaluationError`.
    """
    if kernel.frames is None:
        return None
    index, values = kernel.frames
    rows = np.arange(len(space)) if rows is None else rows
    at = _positions(index, space.labels)[rows]
    missing = at < 0
    if missing.any():
        label = space.labels[rows[np.argmax(missing)]]
        raise KernelEvaluationError(f"synthesized kernel is undefined at atom {label!r}")
    # the frames' own atoms in their order, as synthesize evaluates them: a view, not a copy
    picked = values if np.array_equal(at, np.arange(values.shape[1])) else values[:, at, :]
    return picked.reshape(len(values), len(at) * kernel.n)


def gram(
    kernel: MatrixKernel, space: AtomSpace, rows: ArrayLike | None = None, cols: ArrayLike | None = None
) -> np.ndarray:
    """Blocks ``K(x, t)`` for the atoms ``x`` of ``space`` at ``rows`` and ``t`` at ``cols``.

    ``rows`` and ``cols`` are integer index arrays into the atoms; ``rows``
    defaults to every atom, and ``cols`` to the same atoms as ``rows``, which
    keeps a built-in kernel's product of a set with itself exactly Hermitian.
    Returns a real or complex array of shape ``(len(rows), len(cols), n,
    n)``, with the same dtype whether or not a set is empty: a new array, or a
    read-only view of values the kernel holds (a precomputed table over its
    own atoms in its order is the table itself).  The blocks of the built-in
    scalar kernels, of sums of them and of kernels synthesized from real
    frames are real.
    """
    rows = np.arange(len(space)) if rows is None else np.asarray(rows, dtype=np.intp)
    cols = rows if cols is None else np.asarray(cols, dtype=np.intp)
    n = kernel.n
    if kernel.batch is not None:
        return kernel.batch(space, rows, cols)
    # a kernel given per pair: the one place blocks are built pair by pair
    atoms = space.atoms
    blocks = [kernel.eval(atoms[x], atoms[t]) for x in rows.tolist() for t in cols.tolist()]
    return np.array(blocks, dtype=complex).reshape(len(rows), len(cols), n, n)


def _kernel_blocks(core_gram: np.ndarray, kernel: MatrixKernel, rows=None, cols=None) -> np.ndarray:
    """:func:`gram`'s blocks (all without ``rows``): the core's Gram over every atom, sliced, times ``B``.

    They are :func:`gram`'s bit for bit; a synthesized kernel's ``V^H V`` may differ in the last bit (see _row_blocks).
    """
    part = core_gram if rows is None else core_gram[np.ix_(rows, rows if cols is None else cols)]
    _, matrix = _factors(kernel)
    return part if matrix is _ONE else part * matrix


def _flat(blocks: np.ndarray) -> np.ndarray:
    """Block stack ``(N, M, n, n)`` as the matrix indexed ``(x, l), (t, j) -> x*n + l, t*n + j``."""
    n_x, n_t, n, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n_x * n, n_t * n)


def psd_tolerance(max_eigenvalue: float) -> float:
    """Eigenvalue floor below which a Gram matrix counts as non-PSD."""
    return PSD_TOL_SCALE * max(max_eigenvalue, 1.0)


# Rows of a block where a result is formed a block of rows at a time.
_BLOCK_ROWS = 64


def _row_blocks(count: int, most: int | None = None) -> list[slice]:
    """Consecutive slices over ``count`` rows, each of ``k`` to ``2 * k - 1`` rows, or one of all.

    ``k`` is ``_BLOCK_ROWS``, or the multiple of it that makes about ``most`` slices.  No slice is left with a few
    rows.  BLAS may sum the entries of a product of another shape in another order, and a one-row product is a
    matrix-vector product; OpenBLAS sums a complex product's entries in the same order as the whole product's in every
    block of rows or columns that starts at a multiple of ``_BLOCK_ROWS``, a real product's not always, and gives
    ``A conj(B)`` the bits of ``conj(conj(A) B)``.
    """
    least = _BLOCK_ROWS * max(1, count // (most * _BLOCK_ROWS)) if most else _BLOCK_ROWS
    starts = range(0, max(count - least, 0) + 1, least)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], count])]


def _hermitian_deviation(blocks: np.ndarray, matrix: np.ndarray = _ONE) -> float:
    """Largest entry of ``|M - M^H|`` over a stack of square matrices ``M``, or of ``M = blocks (x) matrix``.

    Given ``matrix``, ``blocks`` is a scalar core's Gram and entry ``(x, l), (t, j)`` of ``M`` is
    ``blocks[x, t] * matrix[l, j]``, the product a separable kernel's blocks hold (see :func:`_factors`).
    ``M`` is read one entry of ``matrix`` and one block of rows (see :func:`_row_blocks`) at a time,
    never formed whole, and neither is ``M - M^H``.
    """
    if not blocks.size:
        return 0.0
    mirror = np.swapaxes(blocks, -1, -2)
    devs = []
    for rows in _row_blocks(blocks.shape[-2]):
        part, across = blocks[..., rows, :], mirror[..., rows, :]
        if matrix is _ONE:
            # one temporary the size of the block: the difference is written into the conjugate
            diff = np.conj(across)
            devs.append(np.max(np.abs(np.subtract(part, diff, out=diff))))
        else:
            devs += [np.max(np.abs(part * b - np.conj(across * matrix[j, l]))) for (l, j), b in np.ndenumerate(matrix)]
    return float(np.max(devs))  # where max() would pass over a nan, np.max keeps it


def _spectral_norms(blocks: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of the Hermitian part of each matrix in a stack."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0].real)
    w = np.linalg.eigvalsh(_hermitian(blocks))
    return np.abs(w).max(axis=-1, initial=0.0)


def _require_hermitian(blocks: np.ndarray, matrix: np.ndarray = _ONE) -> None:
    """Raise :class:`KernelSymmetryError` unless :func:`_hermitian_deviation` is within ``TOL_SYM``."""
    dev = _hermitian_deviation(blocks, matrix)
    if dev > TOL_SYM:
        raise KernelSymmetryError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds {TOL_SYM:.3e}"
        )


def _hermitian(m: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """Hermitian part ``(M + M^H) / 2`` of each square matrix in a stack, as a new array.

    A given ``mirror`` stands for ``M^H``, as block ``(b, a)``'s conjugate transpose does for block ``(a, b)``.  A
    Hermitian matrix comes back equal.  The sum is formed in the one new array, where ``0.5 * (M + M^H)`` would
    allocate three; only if it overflows, as it may near the largest float, are the halves added instead.
    """
    part = np.conj(np.swapaxes(m, -1, -2), order="C") if mirror is None else np.empty_like(m)
    with np.errstate(over="ignore"):
        np.add(m, part if mirror is None else mirror, out=part)
    if np.isinf(part).any():
        return 0.5 * m + 0.5 * (np.conj(np.swapaxes(m, -1, -2)) if mirror is None else mirror)
    part *= 0.5
    return part


# ---------------------------------------------------------------------------
# constructor zoo
# ---------------------------------------------------------------------------


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise KernelSpecError(f"{field}: {message}")


def _real_param(spec: Mapping[str, Any], field: str) -> float:
    value = spec.get(field)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), field, "must be a real number")
    value = float(value)
    _require(math.isfinite(value), field, "must be finite")
    return value


def _parse_complex(entry: Any, field: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(float(entry), 0.0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry
    ):
        return complex(float(entry[0]), float(entry[1]))
    raise KernelSpecError(f"{field}: entries must be numbers or [re, im] pairs")


def _parse_complex_matrix(obj: Any, field: str) -> np.ndarray:
    _require(isinstance(obj, Sequence) and len(obj) > 0, field, "must be a nonempty matrix")
    rows = []
    width = None
    for r, row in enumerate(obj):
        _require(isinstance(row, Sequence), field, "must be a matrix (list of rows)")
        if width is None:
            width = len(row)
        _require(len(row) == width, field, "rows must have equal length")
        rows.append([_parse_complex(entry, field) for entry in row])
    mat = np.asarray(rows, dtype=complex)
    _require(mat.shape[0] == mat.shape[1], field, "must be square")
    _require(bool(np.isfinite(mat).all()), field, "entries must be finite")
    return mat


def _scalar_kernel(
    term: Callable[[np.ndarray, np.ndarray], np.ndarray], finish: Callable[[np.ndarray], np.ndarray], label: str
) -> MatrixKernel:
    """Scalar kernel ``finish(sum_c term(x_c, t_c))`` over the coordinates ``c``: real values, kept real.

    ``term`` gets one coordinate of the atoms as shapes ``(N, 1)`` and
    ``(1, M)``, and the ``(N, M)`` terms are added one coordinate at a time,
    with no ``(N, M, d)`` temporary.  That is the order in which numpy sums a
    last axis of fewer than 8 entries, so up to 7 coordinates the values
    equal those of ``term(x[:, None], t[None]).sum(-1)`` bit for bit; from 8
    on, numpy sums pairwise and the last bit can differ.  Distance kernels use
    the coordinate difference ``x - t``, so the Gram of a set with itself is
    exactly symmetric and repeated atoms are at distance exactly 0.
    """

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        x = space.coords[rows]
        t = x if cols is rows else space.coords[cols]
        total = np.zeros((len(x), len(t)))
        for c in range(x.shape[1]):
            total += term(x[:, c, None], t[None, :, c])
        # a gaussian's exponent may overflow to -inf, whose exp is exactly 0
        with np.errstate(over="ignore"):
            return finish(total)[:, :, None, None]

    return MatrixKernel(1, label=label, batch=batch)


def _constant(spec: Mapping[str, Any]) -> MatrixKernel:
    value = _real_param(spec, "value")

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.full((len(rows), len(cols), 1, 1), value)

    return MatrixKernel(1, label=f"constant({value!r})", batch=batch)


def _radial(spec: Mapping[str, Any], name: str, size: Callable[[np.ndarray], np.ndarray]) -> MatrixKernel:
    """``exp(-gamma * sum_c size(x_c - t_c))``: the gaussian with ``np.square``, the laplacian with ``np.abs``."""
    gamma = _real_param(spec, "gamma")
    _require(gamma > 0, "gamma", "must be positive")
    return _scalar_kernel(lambda x, t: size(x - t), lambda s: np.exp(-gamma * s), f"{name}(gamma={gamma!r})")


def _polynomial(spec: Mapping[str, Any]) -> MatrixKernel:
    degree = spec.get("degree")
    _require(isinstance(degree, int) and not isinstance(degree, bool), "degree", "must be an integer")
    _require(degree >= 1, "degree", "must be at least 1")
    offset = _real_param(spec, "offset")
    _require(offset >= 0, "offset", "must be nonnegative")
    return _scalar_kernel(
        np.multiply, lambda s: (s + offset) ** degree, f"polynomial(degree={degree}, offset={offset!r})"
    )


def _scalar_inner(sub: Any, field: str, base_dir: Path | None) -> MatrixKernel:
    _require(isinstance(sub, Mapping), field, "must be a kernel description")
    inner = build_kernel(sub, base_dir)
    _require(inner.n == 1, field, "must describe a scalar kernel")
    return inner


def _separable(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    mat = _parse_complex_matrix(spec.get("matrix"), "matrix")
    dev = _hermitian_deviation(mat)
    _require(dev <= TOL_SYM, "matrix", f"must be Hermitian (max deviation {dev:.3e})")
    eigs = np.linalg.eigvalsh(_hermitian(mat))
    _require(
        float(eigs[0]) >= -psd_tolerance(float(eigs[-1])),
        "matrix",
        f"must be positive semidefinite (min eigenvalue {float(eigs[0]):.3e})",
    )
    inner = _scalar_inner(spec.get("scalar"), "scalar", base_dir)
    # a B without imaginary parts is held real: with a real core, the solves and eigenfunctions stay real
    frozen = _readonly(mat if mat.imag.any() else mat.real)

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return inner.batch(space, rows, cols) * frozen

    return MatrixKernel(mat.shape[0], label=f"separable({inner.label})", batch=batch, separable=(inner, frozen))


def _diagonal(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    blocks = spec.get("blocks")
    _require(isinstance(blocks, Sequence) and len(blocks) >= 1, "blocks", "must be a nonempty list")
    inners = [_scalar_inner(sub, f"blocks[{b}]", base_dir) for b, sub in enumerate(blocks)]
    n = len(inners)

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = None
        for j, inner in enumerate(inners):
            gram = inner.batch(space, rows, cols)[:, :, 0, 0]
            if out is None:
                out = np.zeros((len(rows), len(cols), n, n), dtype=gram.dtype)
            elif not np.can_cast(gram.dtype, out.dtype):
                out = out.astype(np.result_type(out, gram))
            out[:, :, j, j] = gram
        return out

    return MatrixKernel(n, label=f"diagonal({', '.join(k.label for k in inners)})", batch=batch)


def _sum(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    terms = spec.get("terms")
    _require(isinstance(terms, Sequence) and len(terms) >= 2, "terms", "must list at least two kernels")
    inners = []
    for k, sub in enumerate(terms):
        _require(isinstance(sub, Mapping), f"terms[{k}]", "must be a kernel description")
        inners.append(build_kernel(sub, base_dir))
    n = inners[0].n
    _require(all(inner.n == n for inner in inners), "terms", "must share the same output dimension")

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = inners[0].batch(space, rows, cols)
        for inner in inners[1:]:
            out = out + inner.batch(space, rows, cols)
        return out

    return MatrixKernel(n, label=f"sum({', '.join(k.label for k in inners)})", batch=batch)


def _file_path(path: Any, field: str, base_dir: Path | None) -> str | Path:
    """The file path given in ``field``, a relative one taken from ``base_dir``.

    From the working directory, or without ``base_dir``, it is the path as written.
    """
    _require(isinstance(path, str) and bool(path), field, "must be a file path")
    return path if base_dir is None or base_dir == Path() else base_dir / path


def _frame_synth(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    paths = spec.get("frames")
    _require(isinstance(paths, Sequence) and len(paths) >= 1, "frames", "must list at least one frame file")
    resolved = [_file_path(p, f"frames[{k}]", base_dir) for k, p in enumerate(paths)]
    # deferred import: synthesis sits above this module in the layering
    from .mercer import read_frame
    from .synthesis import synthesize_kernel

    return synthesize_kernel([read_frame(p) for p in resolved])


def build_kernel(spec: Mapping[str, Any], base_dir: Path | None = None) -> MatrixKernel:
    """Construct a kernel from its tagged description.

    ``base_dir`` anchors relative paths referenced by table-backed kernels.
    Malformed descriptions raise :class:`KernelSpecError` naming the field.
    """
    if not isinstance(spec, Mapping):
        raise KernelSpecError("spec: must be a JSON object")
    ktype = spec.get("type")
    # type -> (the keys it takes besides "type", builder)
    builders: dict[str, tuple[str, Callable[[], MatrixKernel]]] = {
        "constant": ("value", lambda: _constant(spec)),
        "gaussian": ("gamma", lambda: _radial(spec, "gaussian", np.square)),
        "laplacian": ("gamma", lambda: _radial(spec, "laplacian", np.abs)),
        "polynomial": ("degree offset", lambda: _polynomial(spec)),
        "separable": ("matrix scalar", lambda: _separable(spec, base_dir)),
        "diagonal": ("blocks", lambda: _diagonal(spec, base_dir)),
        "sum": ("terms", lambda: _sum(spec, base_dir)),
        "precomputed": ("path", lambda: read_precomputed(_file_path(spec.get("path"), "path", base_dir))),
        "frame_synth": ("frames", lambda: _frame_synth(spec, base_dir)),
    }
    if ktype not in builders:
        raise KernelSpecError(f"type: unknown kernel type {ktype!r}")
    keys, build = builders[ktype]
    for key in spec:
        _require(key == "type" or key in keys.split(), "spec", f"unknown key {key!r} for a {ktype!r} kernel")
    return build()


def _read_json(path: str | Path, what: str, build: Callable[[Any], Any]) -> Any:
    """``build`` of the value in the JSON file ``path``, which holds ``what``.

    A syntax error, bytes that are not UTF-8 and nesting too deep, in the file
    or for ``build``, raise :class:`KernelSpecError` naming ``path`` as given.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
        return build(value)
    except json.JSONDecodeError as exc:
        raise KernelSpecError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise KernelSpecError(f"{path}: {exc}") from None
    except RecursionError:
        raise KernelSpecError(f"{path}: {what} is nested too deeply") from None


def kernel_from_file(path: str | Path) -> MatrixKernel:
    """Load a kernel description from a JSON file; errors name ``path`` as given."""
    return _read_json(path, "kernel description", lambda spec: build_kernel(spec, base_dir=Path(path).parent))


# ---------------------------------------------------------------------------
# precomputed tables
# ---------------------------------------------------------------------------

_PRECOMPUTED_ROW = np.dtype(
    [("x_id", object), ("t_id", object), ("l", np.int64), ("j", np.int64), ("re", float), ("im", float)]
)
# a component index k needs (k+1)^2 <= 2 * rows data rows
_COMPONENTS = _Indices("component indices must be nonnegative", "component index", lambda count: math.isqrt(2 * count))


def read_precomputed(path: str | Path) -> MatrixKernel:
    """Read a block table CSV ``x_id,t_id,l,j,re,im``.

    Entries missing from a block are filled from the mirror block by
    Hermitian symmetry; explicitly stored values are never overwritten, so a
    file carrying inconsistent mirrors keeps its asymmetry (validation will
    catch it).  A value stored twice keeps its last row.  Component indices
    are zero-based, and a component index ``k`` needs ``(k+1)^2 <= 2 * rows``
    data rows, which every complete table has.  The table is built dense, one
    block per pair of atoms; if that does not fit in memory,
    :class:`KernelSpecError` names the path, as given, and the shape.  Over
    the table's own atoms in its order, the kernel's ``batch`` of a set with
    itself returns the read-only table itself, and a copy of its blocks over
    any other atoms or order.
    """
    rows, index = _read_table(path, _PRECOMPUTED_ROW, KernelSpecError, _COMPONENTS)
    if not len(rows):
        raise KernelSpecError(f"{path}: no data rows")
    size, n = len(index), int(max(rows["l"].max(), rows["j"].max())) + 1
    shape = (size, size, n, n)
    try:
        blocks, stored = _scatter(shape, (rows["x_id"], rows["t_id"], rows["l"], rows["j"]), rows["re"], rows["im"])
        del rows  # before the mirror step, the peak of the read
        pairs = stored.any(axis=(2, 3))
        defined = pairs | pairs.T
        # entry (x, t, l, j) of the mirror block is conj K(t, x)[j, l]
        missing = defined[:, :, None, None] & ~(stored | stored.transpose(1, 0, 3, 2))
        # written into blocks, the mirror the one temporary of the table's size
        np.copyto(blocks, np.conj(blocks.transpose(1, 0, 3, 2)), where=~stored)
    except MemoryError:
        raise KernelSpecError(
            f"cannot read kernel table file: {path}: a dense table of shape {shape} does not fit in memory"
        ) from None
    if missing.any():
        labels = list(index)
        a, b, p, q = np.argwhere(missing)[0]
        raise KernelSpecError(
            f"{path}: block ({labels[a]},{labels[b]}) entry ({p},{q}) missing and not recoverable by symmetry"
        )
    table, known = _readonly(blocks), _readonly(defined)

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        pos = _positions(index, space.labels)
        ix = pos[rows][:, None]
        it = ix.T if cols is rows else pos[cols][None, :]
        ok = (ix >= 0) & (it >= 0) & known[ix, it]
        if not ok.all():
            a, b = np.argwhere(~ok)[0]
            x, t = space.labels[rows[a]], space.labels[cols[b]]
            raise KernelEvaluationError(f"precomputed kernel has no entry for pair ({x!r}, {t!r})")
        # the table's own atoms in its order, as every subcommand evaluates them: the table itself, not a copy
        return table if cols is rows and np.array_equal(ix[:, 0], np.arange(size)) else table[ix, it]

    return MatrixKernel(n, label=f"precomputed({Path(path).name})", batch=batch)


def write_precomputed(kernel: MatrixKernel, space: AtomSpace, path: str | Path) -> None:
    """Write kernel values over the atoms of ``space`` as a block table CSV.

    Only blocks with ``x <= t`` in atom order are emitted, and only the upper triangle of each diagonal block; the
    reader restores the rest by Hermitian symmetry.  The values are :func:`gram`'s, bit for bit; a kernel synthesized
    from complex frames has its Gram never held whole, but formed a block of rows at a time
    (``synthesis._gram_entries``).
    """
    v = _frame_factor(kernel, space)
    from .synthesis import _gram_entries  # deferred: synthesis sits above this module in the layering
    source = gram(kernel, space) if v is None or not np.iscomplexobj(v) else _gram_entries(v, kernel.n)
    labels = [(space.labels, 0), (space.labels, 1), (range(kernel.n), 2), (range(kernel.n), 3)]

    def upper(x: np.ndarray, t: np.ndarray, l: np.ndarray, j: np.ndarray) -> np.ndarray:
        # block row x: the upper triangle of block (x, x), then every block (x, t) with t after x
        return (t > x) | ((t == x) & (l <= j))

    _write_csv(path, _PRECOMPUTED_ROW.names, (len(space),) * 2 + (kernel.n,) * 2, labels, source, im=True, rows=upper)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of the reproducing-kernel axiom checks on a finite atom set.

    The eigenvalues and ``tol_psd`` are ``None`` where ``psd_ok`` was decided without a solve, by ``psd_rule``.
    """

    n_atoms: int
    n: int
    hermitian_deviation: float
    tol_sym: float
    min_eigenvalue: float | None
    max_eigenvalue: float | None
    tol_psd: float | None
    hermitian_ok: bool
    psd_ok: bool
    # labels of the first pair (x, t) in atom order whose block K(x, t) has a non-finite entry
    nonfinite_pair: tuple[str, str] | None = None
    # "factor": a kernel synthesized as V^H V, positive semidefinite when its entries are finite
    psd_rule: str | None = None

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.psd_ok

    def to_dict(self) -> dict[str, Any]:
        """The fields that are not ``None``, and the verdict."""
        return {**{key: value for key, value in asdict(self).items() if value is not None}, "passed": self.passed}


def validate_kernel(kernel: MatrixKernel, space: AtomSpace, blocks: np.ndarray | None = None) -> ValidationReport:
    """Check Hermitian pair symmetry and block Gram positivity over the atoms of ``space``.

    Failures are reported, not raised: the report carries the maximum
    Hermitian deviation and the minimum Gram eigenvalue together with the
    tolerances used for the verdict.  An overflowing kernel fails both checks
    on its non-finite entries, without numpy warnings, and the report names
    the first pair of atoms whose block has one.

    The one Gram evaluated is the core's (see :func:`_factors`; a kernel
    that is not separable is its own core): ``blocks`` (as :func:`gram`
    returns it for the core) when the caller has evaluated it already, else
    a new evaluation.  The deviation and the finite check are those of
    ``core (x) B``, read one entry of ``B`` at a time (see
    :func:`_hermitian_deviation`); the eigenvalues are the products of those
    of the Hermitian parts of the core's Gram and of ``B``.

    A kernel synthesized as ``V^H V`` (see :func:`_frame_factor`) is a sum of rank-one squares, so it is positive
    semidefinite when its entries are finite: ``psd_rule`` is ``"factor"``, and nothing is solved.  Rounding moves
    the eigenvalues of its Gram by about ``count * eps * ||V||_2^2``, far below :func:`psd_tolerance`.  Without
    ``blocks``, its Gram is not evaluated where ``count * max|V|^2``, a bound on every entry of ``V^H V``, is under a
    quarter of the largest float: each entry of the Hermitian part is finite, its deviation 0.
    """
    core, matrix = _factors(kernel)
    size = len(space)
    factor = (v := _frame_factor(kernel, space)) is not None
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = factor and blocks is None and len(v) * np.max(np.abs(v), initial=0.0) ** 2 <= np.finfo(float).max / 4
        raw = None if bounded else _flat(gram(core, space) if blocks is None else blocks)
        dev = 0.0 if bounded else _hermitian_deviation(raw, matrix)
        # a non-finite entry of core (x) B makes the deviation non-finite: only then are the entries read
        finite = math.isfinite(dev) or reduce(np.logical_and, (np.isfinite(raw * b) for b in matrix.flat))
    del blocks, v
    nonfinite = None
    if not np.all(finite):
        x, t = np.argwhere(~finite.reshape(size, core.n, size, core.n).all(axis=(1, 3)))[0]
        nonfinite = (space.labels[x], space.labels[t])
    # V^H V is a sum of rank-one squares: no solve
    psd = dict(min_eigenvalue=None, max_eigenvalue=None, tol_psd=None, psd_ok=nonfinite is None, psd_rule="factor")
    if not factor:
        if nonfinite is not None:
            eigs = np.array([np.nan])  # the eigensolver does not converge on non-finite entries; both checks fail
        else:
            part = _hermitian(raw)
            del raw  # only the Hermitian part stays in memory while it is solved
            eigs = np.outer(np.linalg.eigvalsh(part), np.linalg.eigvalsh(_hermitian(matrix)))
        min_eig, max_eig = float(eigs.min()), float(eigs.max())
        tol_psd = psd_tolerance(max_eig)
        psd = dict(min_eigenvalue=min_eig, max_eigenvalue=max_eig, tol_psd=tol_psd, psd_ok=min_eig >= -tol_psd)
    return ValidationReport(size, kernel.n, dev, TOL_SYM, hermitian_ok=dev <= TOL_SYM, nonfinite_pair=nonfinite, **psd)
