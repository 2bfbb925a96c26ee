"""Build a matrix-valued kernel from per-component scalar frames.

Given one frame per target component, the synthesized kernel is
``K(x,t)[l,j] = sum_i f_i^j(t) conj(f_i^l(x))``.  The construction is a sum
of rank-one squares, so the result is always Hermitian and positive
semidefinite; its diagonal blocks reproduce the frames' scalar kernels
exactly when the frames are Parseval, while off-diagonal blocks depend on
the frame choice and carry no such guarantee.

The conjugate sits on the ``x`` side, so this is the complex conjugate of
the eigen-series ``sum_i sigma_i f_i^l(x) conj(f_i^j(t))`` of
:mod:`mercerkit.mercer`: synthesized from the frames of a kernel ``k_j``,
diagonal block ``j`` at ``(x, t)`` is ``k_j(t, x)``, which equals
``k_j(x, t)`` only for real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import MatrixKernel, _frame_factor, _hermitian, _readonly, _row_blocks, gram
from .mercer import ScalarFrame
from .space import AtomSpace

__all__ = ["FrameFamily", "align_frames", "synthesize_kernel", "verify_diagonal_blocks"]


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """Scalar frames over a shared atom set and a shared index set.

    ``values[i, x, j]`` is the ``i``-th frame vector of component ``j`` at
    atom ``x``; shorter frames are padded with zero functions.  It is real
    when every frame is, as the frames of a real kernel's eigen-series are.
    """

    atoms: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.shape[2])


def align_frames(frames: Sequence[ScalarFrame]) -> FrameFamily:
    """Unify frames onto their common atom set and maximal index count.

    All frames that carry atoms must agree on them (same labels, same
    order); an empty frame contributes an all-zero component.  The values
    have the result type of the frames' values (at least float64): real
    frames make a real family.
    """
    if not frames:
        raise ValueError("align_frames needs at least one frame")
    atom_sets = [f.atoms for f in frames if f.atoms]
    atoms = atom_sets[0] if atom_sets else ()
    for other in atom_sets[1:]:
        if other != atoms:
            raise ValueError("frames disagree on the atom set")
    count = max((int(f.values.shape[0]) for f in frames), default=0)
    values = np.zeros((count, len(atoms), len(frames)), dtype=np.result_type(float, *(f.values for f in frames)))
    for j, frame in enumerate(frames):
        if frame.values.size:
            values[: frame.values.shape[0], :, j] = frame.values
    return FrameFamily(atoms, _readonly(values))


def synthesize_kernel(family: FrameFamily) -> MatrixKernel:
    """Kernel whose block entries are inner products of the frame columns.

    The blocks over two sets of atoms come from one matrix product of the
    frame values at their labels, real when the family is; a set's product
    with itself is made exactly Hermitian by
    :func:`~mercerkit.kernels._hermitian`.  The kernel
    carries the family as its factor ``V`` (``K = V^H V``, see
    :func:`~mercerkit.kernels._frame_factor`), which validation and
    :func:`verify_diagonal_blocks` use in place of the Gram, and from which :func:`~mercerkit.kernels.write_precomputed`
    writes a complex family's Gram a block of rows at a time.  Defined only on the family's atoms; evaluating
    elsewhere raises :class:`~mercerkit.kernels.KernelEvaluationError`.
    """
    n = family.n

    def batch(space: AtomSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        vx = _frame_factor(kernel, space, rows)
        blocks = _hermitian(np.conj(vx.T) @ vx) if cols is rows else np.conj(vx.T) @ _frame_factor(kernel, space, cols)
        return blocks.reshape(len(rows), n, len(cols), n).transpose(0, 2, 1, 3)

    # the batch reads the factor off the kernel it belongs to
    index = {label: i for i, label in enumerate(family.atoms)}
    kernel = MatrixKernel(n, label=f"frame_synth(n={n})", batch=batch, frames=(index, family.values))
    return kernel


def _gram_entries(v: np.ndarray, n: int) -> Callable[..., np.ndarray]:
    """Entries ``(x, t, l, j)``, ``t >= x`` in atom order, of the Hermitian part ``H`` of ``V^H V``, ``V`` complex.

    ``H`` is formed in about eight blocks of rows ``a``, from column ``a.start`` on, each held while rows asked for
    reach into it: ``V_a^H V_{a:}``, and ``V_{a:}^T conj(V_a)`` transposed for the mirror (``kernels._row_blocks``).
    """

    def strip(rows: slice) -> tuple[slice, np.ndarray]:
        part, rest = np.conj(v[:, rows].T), v[:, rows.start :]
        return rows, _hermitian(part @ rest, (rest.T @ part.T).T)

    def values(x: np.ndarray, t: np.ndarray, l: np.ndarray, j: np.ndarray) -> np.ndarray:
        held[:] = [(rows, block) for rows, block in held if rows.stop > x.min(initial=v.shape[1]) * n]
        while not held or held[-1][0].stop < (x.max(initial=-1) + 1) * n:
            held.append(next(strips))
        r, c, out = x * n + l, t * n + j, np.empty(len(x), v.dtype)
        for rows, block in held:
            at = slice(None) if len(held) == 1 else (r >= rows.start) & (r < rows.stop)
            out[at] = block[r[at] - rows.start, c[at] - rows.start]
        return out

    held, strips = [], map(strip, _row_blocks(v.shape[1], 8))
    return values


def _factor_eigenvalues(v: np.ndarray, order: int) -> np.ndarray | None:
    """Eigenvalues of ``V^H V``, of order ``order``, off the smaller ``V V^H``; ``None`` if that overflows.

    The two products share their nonzero eigenvalues, and ``V^H V`` has ``order - len(V)`` more zeros, which pad the
    result (the Gram trick of the Nystrom method).  A finite ``V`` can overflow in the product; the caller then solves
    the Gram itself.  A complex ``V V^H`` is formed a block of rows at a time, as the conjugate of ``conj(V_a) V^T``,
    with the bits of the whole product's (see :func:`~mercerkit.kernels._row_blocks`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(v):
            small = np.empty((len(v),) * 2, v.dtype)
            for a in _row_blocks(len(v)):
                np.conj(np.matmul(np.conj(v[a]), v.T, out=small[a]), out=small[a])
        else:
            small = v @ v.conj().T
        small = _hermitian(small)
    if not all(np.isfinite(small[a]).all() for a in _row_blocks(len(small))):
        return None
    return np.concatenate([np.linalg.eigvalsh(small), np.zeros(order - len(small))])


def verify_diagonal_blocks(
    synthesized: MatrixKernel,
    originals: Sequence[MatrixKernel],
    space: AtomSpace,
    grams: Sequence[np.ndarray] | None = None,
) -> float:
    """Max deviation of the synthesized diagonal blocks from scalar originals over the atoms of ``space``.

    Block ``j`` of a kernel synthesized as ``V^H V`` is ``V_j^H V_j``, from
    the frame values ``V_j`` of component ``j`` alone; any other kernel's
    blocks come from its Gram.  Original ``j``'s Gram is ``grams[j]`` (as
    :func:`gram` returns it) if given, else a new evaluation.
    """
    if len(originals) != synthesized.n:
        raise ValueError("need one scalar original per synthesized component")
    for j, kernel in enumerate(originals):
        if kernel.n != 1:
            raise ValueError(f"original {j} is not scalar")
    n = synthesized.n
    v = _frame_factor(synthesized, space)
    blocks = gram(synthesized, space) if v is None else None
    deviation = 0.0
    for j, kernel in enumerate(originals):
        # columns x*n + j of V are component j's
        block = blocks[:, :, j, j] if v is None else _hermitian(np.conj(v[:, j::n].T) @ v[:, j::n])
        diff = block - (gram(kernel, space) if grams is None else grams[j])[:, :, 0, 0]
        deviation = max(deviation, float(np.max(np.abs(diff), initial=0.0)))
    return deviation
