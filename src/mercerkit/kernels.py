"""Matrix-valued kernels: constructor zoo, block Gram assembly, validation.

A kernel is its evaluator together with the output dimension ``n``.  Every
built-in kernel evaluates in batch: ``gram(kernel, xs, ts)`` returns the
blocks ``K(x, t)`` for all pairs at once, shape ``(len(xs), len(ts), n, n)``,
and its per-pair ``eval`` runs the same code on a single pair.  A kernel
given only by a per-pair evaluator is evaluated pair by pair.  Nothing is
assumed: Hermitian pair symmetry and positive semidefiniteness of the block
Gram matrix are checked explicitly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .space import Atom

__all__ = [
    "BlockGram",
    "KernelEvaluationError",
    "KernelSpecError",
    "KernelSymmetryError",
    "MatrixKernel",
    "TOL_SYM",
    "ValidationReport",
    "assemble_block_gram",
    "build_kernel",
    "diagonal_blocks",
    "gram",
    "kernel_from_file",
    "psd_tolerance",
    "read_precomputed",
    "spectral_norm",
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


Batch = Callable[[Sequence["Atom"], Sequence["Atom"]], np.ndarray]


@dataclass(frozen=True, eq=False)
class MatrixKernel:
    """An ``n x n`` matrix-valued kernel given by its evaluator.

    ``batch(xs, ts)``, when present, returns the blocks for every pair of
    ``xs`` and ``ts`` as a new array of shape ``(len(xs), len(ts), n, n)``;
    it is what :func:`gram` uses.  Without it, blocks come from ``eval`` pair
    by pair.
    """

    n: int
    eval: Callable[[Atom, Atom], np.ndarray]
    label: str = "custom"
    batch: Batch | None = None

    def __call__(self, x: Atom, t: Atom) -> np.ndarray:
        return self.eval(x, t)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _csv_cells(labels: Iterable[str]) -> list[str]:
    """Labels rendered as CSV cells with minimal quoting, exactly as ``csv.writer`` writes them."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a trailing empty field, because a row of one empty field is written as ""
        writer.writerow([label, ""])
        cells.append(buf.getvalue()[:-2])
    return cells


def _write_csv(path: str | Path, header: Sequence[str], chunks: Iterable[Sequence[Iterable[str]]]) -> None:
    """Write a CSV file from its header cells and chunks of rendered columns.

    Cells are written as given, so labels go through :func:`_csv_cells`
    first.  Each chunk is a sequence of equal-length columns and becomes that
    many rows; only one chunk's strings are held at a time.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in chunks:
            rows = "\n".join(map(",".join, zip(*columns)))
            if rows:
                fh.write(rows + "\n")


def _batched(n: int, batch: Batch, label: str) -> MatrixKernel:
    """Kernel whose per-pair evaluator is its batched one on a single pair."""

    def ev(x: Atom, t: Atom) -> np.ndarray:
        xs = (x,)
        # a pair of one atom with itself is a one-atom Gram, so it keeps its exact symmetry
        return batch(xs, xs if t is x else (t,))[0, 0]

    return MatrixKernel(n=n, eval=ev, label=label, batch=batch)


def gram(kernel: MatrixKernel, xs: Sequence[Atom], ts: Sequence[Atom] | None = None) -> np.ndarray:
    """Blocks ``K(x, t)`` for every ``x`` in ``xs`` and ``t`` in ``ts`` (default ``xs``).

    Returns a new complex array of shape ``(len(xs), len(ts), n, n)``.
    """
    ts = xs if ts is None else ts
    n = kernel.n
    if not len(xs) or not len(ts):
        return np.zeros((len(xs), len(ts), n, n), dtype=complex)
    if kernel.batch is not None:
        return kernel.batch(xs, ts)
    # a kernel given only per pair: the one place blocks are built pair by pair
    blocks = [kernel.eval(x, t) for x in xs for t in ts]
    return np.array(blocks, dtype=complex).reshape(len(xs), len(ts), n, n)


def diagonal_blocks(kernel: MatrixKernel, atoms: Sequence[Atom]) -> np.ndarray:
    """Blocks ``K(x, x)`` for every atom, shape ``(len(atoms), n, n)``."""
    return np.einsum("xxlj->xlj", gram(kernel, atoms))


def _flat(blocks: np.ndarray) -> np.ndarray:
    """Block stack ``(N, M, n, n)`` as the matrix indexed ``(x, l), (t, j) -> x*n + l, t*n + j``."""
    n_x, n_t, n, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n_x * n, n_t * n)


def psd_tolerance(max_eigenvalue: float) -> float:
    """Eigenvalue floor below which a Gram matrix counts as non-PSD."""
    return PSD_TOL_SCALE * max(max_eigenvalue, 1.0)


def _hermitian_deviation(blocks: np.ndarray) -> float:
    """Largest entry of ``|M - M^H|`` over a stack of square matrices."""
    if not blocks.size:
        return 0.0
    return float(np.max(np.abs(blocks - np.conj(np.swapaxes(blocks, -1, -2)))))


def _spectral_norms(blocks: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of the Hermitian part of each matrix in a stack."""
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0].real)
    w = np.linalg.eigvalsh(0.5 * (blocks + np.conj(np.swapaxes(blocks, -1, -2))))
    return np.abs(w).max(axis=-1, initial=0.0)


def _hermitian_spectral_norms(blocks: np.ndarray, tol_sym: float = TOL_SYM) -> np.ndarray:
    """:func:`_spectral_norms` of matrices that must be Hermitian within ``tol_sym``."""
    dev = _hermitian_deviation(blocks)
    if dev > tol_sym:
        raise KernelSymmetryError(
            f"matrix is not Hermitian: max deviation {dev:.3e} exceeds {tol_sym:.3e}"
        )
    return _spectral_norms(blocks)


def spectral_norm(m: np.ndarray, tol_sym: float = TOL_SYM) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix.

    Raises :class:`KernelSymmetryError` if the input deviates from Hermitian
    symmetry by more than ``tol_sym`` in any entry.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(_hermitian_spectral_norms(a, tol_sym))


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
    return mat


def _scalar_kernel(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], label: str) -> MatrixKernel:
    """Scalar kernel from ``fn(x, t)``: real values over broadcast coordinate arrays.

    ``fn`` gets coordinates of shape ``(N, 1, d)`` and ``(1, M, d)``.  Distance
    kernels use the coordinate difference ``x - t``, so the Gram of a set with
    itself is exactly symmetric and repeated atoms are at distance exactly 0.
    """

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        x = np.stack([a.coords for a in xs])
        t = x if ts is xs else np.stack([a.coords for a in ts])
        return fn(x[:, None, :], t[None, :, :]).astype(complex)[:, :, None, None]

    return _batched(1, batch, label)


def _constant(spec: Mapping[str, Any]) -> MatrixKernel:
    value = _real_param(spec, "value")

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        return np.full((len(xs), len(ts), 1, 1), value, dtype=complex)

    return _batched(1, batch, f"constant({value!r})")


def _gaussian(spec: Mapping[str, Any]) -> MatrixKernel:
    gamma = _real_param(spec, "gamma")
    _require(gamma > 0, "gamma", "must be positive")
    return _scalar_kernel(
        lambda x, t: np.exp(-gamma * np.square(x - t).sum(axis=-1)), f"gaussian(gamma={gamma!r})"
    )


def _laplacian(spec: Mapping[str, Any]) -> MatrixKernel:
    gamma = _real_param(spec, "gamma")
    _require(gamma > 0, "gamma", "must be positive")
    return _scalar_kernel(
        lambda x, t: np.exp(-gamma * np.abs(x - t).sum(axis=-1)), f"laplacian(gamma={gamma!r})"
    )


def _polynomial(spec: Mapping[str, Any]) -> MatrixKernel:
    degree = spec.get("degree")
    _require(isinstance(degree, int) and not isinstance(degree, bool), "degree", "must be an integer")
    _require(degree >= 1, "degree", "must be at least 1")
    offset = _real_param(spec, "offset")
    _require(offset >= 0, "offset", "must be nonnegative")
    return _scalar_kernel(
        lambda x, t: ((x * t).sum(axis=-1) + offset) ** degree,
        f"polynomial(degree={degree}, offset={offset!r})",
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
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    _require(
        float(eigs[0]) >= -psd_tolerance(float(eigs[-1])),
        "matrix",
        f"must be positive semidefinite (min eigenvalue {float(eigs[0]):.3e})",
    )
    inner = _scalar_inner(spec.get("scalar"), "scalar", base_dir)
    frozen = _readonly(mat)

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        return inner.batch(xs, ts) * frozen

    return _batched(mat.shape[0], batch, f"separable({inner.label})")


def _diagonal(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    blocks = spec.get("blocks")
    _require(isinstance(blocks, Sequence) and len(blocks) >= 1, "blocks", "must be a nonempty list")
    inners = [_scalar_inner(sub, f"blocks[{b}]", base_dir) for b, sub in enumerate(blocks)]
    n = len(inners)

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        out = np.zeros((len(xs), len(ts), n, n), dtype=complex)
        for j, inner in enumerate(inners):
            out[:, :, j, j] = inner.batch(xs, ts)[:, :, 0, 0]
        return out

    return _batched(n, batch, f"diagonal({', '.join(k.label for k in inners)})")


def _sum(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    terms = spec.get("terms")
    _require(isinstance(terms, Sequence) and len(terms) >= 2, "terms", "must list at least two kernels")
    inners = []
    for k, sub in enumerate(terms):
        _require(isinstance(sub, Mapping), f"terms[{k}]", "must be a kernel description")
        inners.append(build_kernel(sub, base_dir))
    n = inners[0].n
    _require(all(inner.n == n for inner in inners), "terms", "must share the same output dimension")

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        out = inners[0].batch(xs, ts)
        for inner in inners[1:]:
            out = out + inner.batch(xs, ts)
        return out

    return _batched(n, batch, f"sum({', '.join(k.label for k in inners)})")


def _precomputed(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    path = spec.get("path")
    _require(isinstance(path, str) and bool(path), "path", "must be a file path")
    full = Path(path)
    if not full.is_absolute() and base_dir is not None:
        full = base_dir / full
    return read_precomputed(full)


def _frame_synth(spec: Mapping[str, Any], base_dir: Path | None) -> MatrixKernel:
    paths = spec.get("frames")
    _require(isinstance(paths, Sequence) and len(paths) >= 1, "frames", "must list at least one frame file")
    resolved = []
    for k, p in enumerate(paths):
        _require(isinstance(p, str) and bool(p), f"frames[{k}]", "must be a file path")
        full = Path(p)
        if not full.is_absolute() and base_dir is not None:
            full = base_dir / full
        resolved.append(full)
    # deferred import: synthesis sits above this module in the layering
    from .mercer import read_frame
    from .synthesis import align_frames, synthesize_kernel

    return synthesize_kernel(align_frames([read_frame(p) for p in resolved]))


def build_kernel(spec: Mapping[str, Any], base_dir: Path | None = None) -> MatrixKernel:
    """Construct a kernel from its tagged description.

    ``base_dir`` anchors relative paths referenced by table-backed kernels.
    Malformed descriptions raise :class:`KernelSpecError` naming the field.
    """
    if not isinstance(spec, Mapping):
        raise KernelSpecError("spec: must be a JSON object")
    ktype = spec.get("type")
    builders: dict[str, Callable[[], MatrixKernel]] = {
        "constant": lambda: _constant(spec),
        "gaussian": lambda: _gaussian(spec),
        "laplacian": lambda: _laplacian(spec),
        "polynomial": lambda: _polynomial(spec),
        "separable": lambda: _separable(spec, base_dir),
        "diagonal": lambda: _diagonal(spec, base_dir),
        "sum": lambda: _sum(spec, base_dir),
        "precomputed": lambda: _precomputed(spec, base_dir),
        "frame_synth": lambda: _frame_synth(spec, base_dir),
    }
    if ktype not in builders:
        raise KernelSpecError(f"type: unknown kernel type {ktype!r}")
    return builders[ktype]()


def kernel_from_file(path: str | Path) -> MatrixKernel:
    """Load a kernel description from a JSON file."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KernelSpecError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return build_kernel(spec, base_dir=path.parent)


# ---------------------------------------------------------------------------
# precomputed tables
# ---------------------------------------------------------------------------

_PRECOMPUTED_HEADER = ["x_id", "t_id", "l", "j", "re", "im"]


def read_precomputed(path: str | Path) -> MatrixKernel:
    """Read a block table CSV ``x_id,t_id,l,j,re,im``.

    Entries missing from a block are filled from the mirror block by
    Hermitian symmetry; explicitly stored values are never overwritten, so a
    file carrying inconsistent mirrors keeps its asymmetry (validation will
    catch it).  A value stored twice keeps its last row.  Component indices
    are zero-based.
    """
    path = Path(path)
    index: dict[str, int] = {}
    keys: list[tuple[int, int, int, int]] = []
    values: list[complex] = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise KernelSpecError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _PRECOMPUTED_HEADER:
            raise KernelSpecError(f"{path}: line 1: header must be {','.join(_PRECOMPUTED_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                x_id, t_id, l, j, re, im = row
                l, j, value = int(l), int(j), complex(float(re), float(im))
            except ValueError as exc:
                if not "".join(row).strip():
                    continue  # blank line
                if len(row) != 6:
                    raise KernelSpecError(f"{path}: line {line_no}: expected 6 fields, got {len(row)}") from None
                raise KernelSpecError(f"{path}: line {line_no}: {exc}") from None
            if l < 0 or j < 0:
                raise KernelSpecError(f"{path}: line {line_no}: component indices must be nonnegative")
            x, t = index.setdefault(x_id.strip(), len(index)), index.setdefault(t_id.strip(), len(index))
            keys.append((x, t, l, j))
            values.append(value)
    if not values:
        raise KernelSpecError(f"{path}: no data rows")

    size = len(index)
    key = np.array(keys).T
    n = int(key[2:].max()) + 1
    blocks = np.zeros((size, size, n, n), dtype=complex)
    stored = np.zeros((size, size, n, n), dtype=bool)
    # advanced-index assignment does not say which of repeated indices wins, so keep the last row
    flat = np.ravel_multi_index(tuple(key), blocks.shape)
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    blocks.flat[flat[last]] = np.array(values)[last]
    stored.flat[flat[last]] = True

    pairs = stored.any(axis=(2, 3))
    defined = pairs | pairs.T
    # entry (x, t, l, j) of the mirror block is conj K(t, x)[j, l]
    missing = defined[:, :, None, None] & ~(stored | stored.transpose(1, 0, 3, 2))
    blocks = np.where(stored, blocks, np.conj(blocks.transpose(1, 0, 3, 2)))
    if missing.any():
        labels = list(index)
        a, b, p, q = np.argwhere(missing)[0]
        raise KernelSpecError(
            f"{path}: block ({labels[a]},{labels[b]}) entry ({p},{q}) missing and not recoverable by symmetry"
        )
    table, known = _readonly(blocks), _readonly(defined)

    def batch(xs: Sequence[Atom], ts: Sequence[Atom]) -> np.ndarray:
        ix = np.array([index.get(a.label, -1) for a in xs])[:, None]
        it = ix.T if ts is xs else np.array([index.get(a.label, -1) for a in ts])[None, :]
        ok = (ix >= 0) & (it >= 0) & known[ix, it]
        if not ok.all():
            a, b = np.argwhere(~ok)[0]
            raise KernelEvaluationError(
                f"precomputed kernel has no entry for pair ({xs[a].label!r}, {ts[b].label!r})"
            )
        return table[ix, it]

    return _batched(n, batch, f"precomputed({path.name})")


def write_precomputed(kernel: MatrixKernel, atoms: Sequence[Atom], path: str | Path) -> None:
    """Write kernel values over ``atoms`` as a block table CSV.

    Only blocks with ``x <= t`` in atom order are emitted, and only the upper
    triangle of each diagonal block; the reader restores the rest by
    Hermitian symmetry.
    """
    blocks = gram(kernel, atoms)
    size, n = len(atoms), kernel.n
    cells = _csv_cells(a.label for a in atoms)
    # block row x: the upper triangle of block (x, x), then every block (x, t) with t after x
    first = np.ones((size, n, n), dtype=bool)
    first[0] = np.triu(first[0])
    triangle = n * (n + 1) // 2
    components = [str(c) for c in range(n)]
    _, l, j = np.nonzero(first)
    l_cells = [components[c] for c in l.tolist()]
    j_cells = [components[c] for c in j.tolist()]
    t_cells = [cell for cell in cells for _ in range(n * n)]

    def chunks() -> Iterable[tuple[Iterable[str], ...]]:
        for i, x in enumerate(cells):
            rows = triangle + (size - 1 - i) * n * n
            values = blocks[i, i:][first[: size - i]]
            yield (
                [x] * rows,
                [x] * triangle + t_cells[(i + 1) * n * n :],
                l_cells[:rows],
                j_cells[:rows],
                map(repr, values.real.tolist()),
                map(repr, values.imag.tolist()),
            )

    _write_csv(path, _PRECOMPUTED_HEADER, chunks())


# ---------------------------------------------------------------------------
# block Gram assembly and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockGram:
    """Hermitian Gram matrix of all kernel blocks; index (x, l) -> x*n + l."""

    atoms: tuple[str, ...]
    n: int
    matrix: np.ndarray


def assemble_block_gram(kernel: MatrixKernel, atoms: Sequence[Atom], tol_sym: float = TOL_SYM) -> BlockGram:
    """Evaluate all blocks and enforce Hermitian symmetry.

    Asymmetry up to ``tol_sym`` is averaged away; anything larger raises
    :class:`KernelSymmetryError` carrying the maximum deviation.
    """
    raw = _flat(gram(kernel, atoms))
    dev = _hermitian_deviation(raw)
    if dev > tol_sym:
        raise KernelSymmetryError(
            f"kernel violates Hermitian pair symmetry: max deviation {dev:.3e} exceeds {tol_sym:.3e}"
        )
    matrix = 0.5 * (raw + raw.conj().T)
    return BlockGram(tuple(a.label for a in atoms), kernel.n, _readonly(matrix))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of the reproducing-kernel axiom checks on a finite atom set."""

    n_atoms: int
    n: int
    hermitian_deviation: float
    tol_sym: float
    min_eigenvalue: float
    max_eigenvalue: float
    tol_psd: float
    hermitian_ok: bool
    psd_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.psd_ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_atoms": self.n_atoms,
            "n": self.n,
            "hermitian_deviation": self.hermitian_deviation,
            "tol_sym": self.tol_sym,
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "tol_psd": self.tol_psd,
            "hermitian_ok": self.hermitian_ok,
            "psd_ok": self.psd_ok,
            "passed": self.passed,
        }


def validate_kernel(kernel: MatrixKernel, atoms: Sequence[Atom], tol_sym: float = TOL_SYM) -> ValidationReport:
    """Check Hermitian pair symmetry and block Gram positivity.

    Failures are reported, not raised: the report carries the maximum
    Hermitian deviation and the minimum Gram eigenvalue together with the
    tolerances used for the verdict.
    """
    raw = _flat(gram(kernel, atoms))
    dev = _hermitian_deviation(raw)
    if np.isfinite(raw).all():
        eigs = np.linalg.eigvalsh(0.5 * (raw + raw.conj().T))
    else:
        # the eigensolver does not converge on non-finite entries; both checks fail on nan
        eigs = np.array([np.nan])
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    tol_psd = psd_tolerance(max_eig)
    return ValidationReport(
        n_atoms=len(atoms),
        n=kernel.n,
        hermitian_deviation=dev,
        tol_sym=tol_sym,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        tol_psd=tol_psd,
        hermitian_ok=dev <= tol_sym,
        psd_ok=min_eig >= -tol_psd,
    )
