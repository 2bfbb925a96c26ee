"""Discrete integral operator of a kernel against a rescaled measure.

The measure is rescaled per atom by ``1 / (1 + |K(x,x)|)`` so the operator
always has finite trace.  Assembly uses the symmetric realization
``D^(1/2) G D^(1/2)`` over the positive-weight atoms; it shares its spectrum
with the quadrature operator and its eigenvectors map to eigenfunctions that
are orthonormal against the rescaled weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .kernels import (
    MatrixKernel,
    _csv_cells,
    _flat,
    _hermitian_spectral_norms,
    _readonly,
    _write_csv,
    assemble_block_gram,
    diagonal_blocks,
    gram,
)
from .space import Atom, AtomSpace, SupportSet, pseudo_metric, support as support_of

__all__ = [
    "DiscreteOperator",
    "EmptySupportError",
    "RKHSElement",
    "RescaledMeasure",
    "SpectralDecomposition",
    "adjoint_embed",
    "assemble_operator",
    "default_tol_eig",
    "eigendecompose",
    "embedding_norm_bound_check",
    "extend_eigenfunction",
    "rescale_measure",
    "trace_check",
    "truncate",
    "write_eigenfunctions",
    "write_spectrum",
]

# Relative eigenvalue cutoff: sigma below sigma_1 * this is treated as zero.
RANK_CUTOFF_REL = 1e-12
# Scale factor for eigen-level tolerances.
TOL_EIG_SCALE = 1e-9


class EmptySupportError(ValueError):
    """Raised when every atom carries zero measure."""


@dataclass(frozen=True, eq=False)
class RescaledMeasure:
    """Per-atom rescaled weights plus the resulting trace budget."""

    weights: np.ndarray
    m_nu: float


def rescale_measure(space: AtomSpace, kernel: MatrixKernel) -> RescaledMeasure:
    """Divide each weight by ``1 + |K(x,x)|`` (spectral norm of the diagonal block).

    Also returns the trace budget ``m_nu = sum_x tr K(x,x) nu_x``, which the
    eigenvalue sum of the operator must reproduce.
    """
    diag = diagonal_blocks(kernel, space.atoms)
    weights = space.mu / (1.0 + _hermitian_spectral_norms(diag))
    traces = np.trace(diag, axis1=1, axis2=2).real
    m_nu = float(np.sum(traces * weights))
    return RescaledMeasure(_readonly(weights), m_nu)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric realization of the kernel integral operator.

    ``matrix`` is ``D^(1/2) G D^(1/2)`` with ``G`` the block Gram matrix over
    the atoms listed in ``indices`` (those with positive rescaled weight) and
    ``D`` the diagonal of their weights, replicated per component.
    """

    space: AtomSpace
    kernel: MatrixKernel
    nu: RescaledMeasure
    indices: tuple[int, ...]
    matrix: np.ndarray


def assemble_operator(space: AtomSpace, kernel: MatrixKernel, nu: RescaledMeasure) -> DiscreteOperator:
    """Assemble the operator matrix over atoms with positive rescaled weight."""
    indices = tuple(int(i) for i in np.flatnonzero(nu.weights > 0))
    if not indices:
        raise EmptySupportError("measure has empty support: every atom weight is zero")
    atoms = [space.atoms[i] for i in indices]
    block_gram = assemble_block_gram(kernel, atoms)
    scale = np.sqrt(np.repeat(nu.weights[list(indices)], kernel.n))
    matrix = block_gram.matrix * scale[:, None] * scale[None, :]
    return DiscreteOperator(space, kernel, nu, indices, _readonly(matrix))


def _normalize_phase(column: np.ndarray) -> np.ndarray:
    """Rotate so the first nonzero entry is real positive."""
    mags = np.abs(column)
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:
        return column
    first = int(np.argmax(mags > 1e-12 * peak))
    phase = column[first] / abs(column[first])
    return column * np.conj(phase)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues and per-atom eigenfunction values of the discrete operator.

    ``sigmas`` is sorted descending and keeps only eigenvalues above the rank
    cutoff.  ``funcs[i, x]`` holds the value of eigenfunction ``i`` at atom
    ``x`` as a vector with one entry per kernel component; values at atoms
    outside the operator (zero rescaled weight) come from the kernel-sum
    extension and agree with the continuous representative.
    """

    space: AtomSpace
    kernel: MatrixKernel
    nu: RescaledMeasure
    sigmas: np.ndarray
    funcs: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigmas.shape[0])

    @property
    def n(self) -> int:
        return int(self.kernel.n)

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.nu.weights > 0))

    @cached_property
    def support(self) -> SupportSet:
        metric = pseudo_metric(self.space, self.kernel)
        return support_of(self.space, metric)


def eigendecompose(op: DiscreteOperator, rank_cutoff: float | None = None) -> SpectralDecomposition:
    """Diagonalize the operator and build eigenfunctions on every atom.

    Eigenvalues at or below ``rank_cutoff`` are dropped (default: relative
    cutoff ``sigma_1 * 1e-12``; pass ``0.0`` to keep the full positive
    spectrum).  Each eigenvector is normalized so its first nonzero entry is
    real positive, which makes outputs deterministic up to eigenvalue ties.
    """
    evals, evecs = np.linalg.eigh(op.matrix)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    sigma1 = float(evals[0]) if evals.size else 0.0
    if rank_cutoff is None:
        cutoff = RANK_CUTOFF_REL * max(sigma1, 0.0)
    else:
        cutoff = float(rank_cutoff)
        if cutoff < 0:
            raise ValueError("rank_cutoff must be nonnegative")
    keep = evals > max(cutoff, 0.0)
    sigmas = np.asarray(evals[keep], dtype=float)
    vectors = evecs[:, keep]

    space, kernel, nu = op.space, op.kernel, op.nu
    n = kernel.n
    rank = int(sigmas.shape[0])
    pos = list(op.indices)
    zero = np.flatnonzero(nu.weights <= 0)

    funcs = np.zeros((rank, len(space.labels), n), dtype=complex)
    if rank:
        cols = np.stack([_normalize_phase(vectors[:, i]) for i in range(rank)])
        f_pos = cols.reshape(rank, len(pos), n) / np.sqrt(nu.weights[pos])[None, :, None]
        funcs[:, pos, :] = f_pos
        if zero.size:
            funcs[:, zero, :] = _extend(op, [space.atoms[z] for z in zero], f_pos, sigmas)
    return SpectralDecomposition(space, kernel, nu, _readonly(sigmas), _readonly(funcs))


def _extend(
    op: DiscreteOperator | SpectralDecomposition,
    xs: Sequence[Atom],
    f_pos: np.ndarray,
    sigmas: np.ndarray,
) -> np.ndarray:
    """Kernel-sum extension ``(1 / sigma_i) sum_t K(x,t) f_i(t) nu_t`` at the atoms ``xs``.

    The sum runs over the positive-weight atoms of ``op``; ``f_pos`` holds
    the eigenfunction values there, shape ``(rank, P, n)``.  The result has
    shape ``(rank, len(xs), n)``.
    """
    pos = np.flatnonzero(op.nu.weights > 0)
    blocks = gram(op.kernel, xs, [op.space.atoms[p] for p in pos]) * op.nu.weights[pos][None, :, None, None]
    values = f_pos.reshape(len(sigmas), -1) @ _flat(blocks).T
    return values.reshape(len(sigmas), len(xs), -1) / sigmas[:, None, None]


def truncate(dec: SpectralDecomposition, rank_cutoff: float | None = None) -> SpectralDecomposition:
    """Drop eigenpairs at or below a new cutoff without re-diagonalizing."""
    sigma1 = float(dec.sigmas[0]) if dec.rank else 0.0
    cutoff = RANK_CUTOFF_REL * max(sigma1, 0.0) if rank_cutoff is None else float(rank_cutoff)
    keep = int(np.sum(dec.sigmas > max(cutoff, 0.0)))
    return SpectralDecomposition(
        dec.space, dec.kernel, dec.nu, dec.sigmas[:keep], dec.funcs[:keep]
    )


def _resolve_atom(space: AtomSpace, x: str | Atom) -> Atom:
    if isinstance(x, Atom):
        return x
    return space.atoms[space.index(x)]


def extend_eigenfunction(dec: SpectralDecomposition, i: int, x: str | Atom) -> np.ndarray:
    """Evaluate the continuous representative of eigenfunction ``i`` at any atom.

    Computes ``(1 / sigma_i) * sum_t K(x,t) f_i(t) nu_t`` over the operator
    atoms.  On those atoms this reproduces the stored eigenvector values up
    to the eigen-residual.
    """
    if not 0 <= i < dec.rank:
        raise ValueError(
            f"eigenindex {i} is below the rank cutoff (retained rank {dec.rank})"
        )
    f_pos = dec.funcs[i : i + 1, list(dec.positive_indices), :]
    return _extend(dec, [_resolve_atom(dec.space, x)], f_pos, dec.sigmas[i : i + 1])[0, 0]


def default_tol_eig(dec: SpectralDecomposition) -> float:
    """Scale-aware tolerance for eigenlevel identities."""
    sigma1 = float(dec.sigmas[0]) if dec.rank else 0.0
    return TOL_EIG_SCALE * max(1.0, sigma1)


@dataclass(frozen=True, eq=False)
class RKHSElement:
    """Element of the kernel Hilbert space in one of two representations.

    Spectral form: coefficients ``c_i`` over the retained scaled
    eigenfunctions, representing ``h = sum_i c_i sqrt(sigma_i) f_i``.
    Section form: a table ``(x, y_x)`` representing ``sum_x K_x y_x``.
    """

    coeffs: np.ndarray | None = None
    sections: tuple[tuple[str, np.ndarray], ...] | None = None

    def __post_init__(self) -> None:
        if (self.coeffs is None) == (self.sections is None):
            raise ValueError("element must have exactly one of coeffs or sections")

    @classmethod
    def spectral(cls, coeffs: Iterable[complex]) -> RKHSElement:
        return cls(coeffs=_readonly(np.asarray(list(coeffs), dtype=complex)))

    @classmethod
    def from_sections(cls, pairs: Iterable[tuple[str, Iterable[complex]]]) -> RKHSElement:
        table = tuple(
            (str(label), _readonly(np.asarray(list(vec), dtype=complex))) for label, vec in pairs
        )
        return cls(sections=table)

    @property
    def is_spectral(self) -> bool:
        return self.coeffs is not None

    def norm_sq(self) -> float:
        """Squared kernel-space norm; spectral form only."""
        if self.coeffs is None:
            raise ValueError("norm_sq needs the spectral form; project the element first")
        return float(np.sum(np.abs(self.coeffs) ** 2))


def adjoint_embed(values: np.ndarray, space: AtomSpace, nu: RescaledMeasure) -> RKHSElement:
    """Push a square-integrable function into the kernel space.

    ``values`` holds ``f(x)`` per atom (shape ``(N, n)``); the image is the
    kernel-section combination ``sum_x K_x f(x) nu_x``, whose pointwise
    evaluation is the integral operator applied to ``f``.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != len(space.labels):
        raise ValueError("values must provide one vector per atom")
    pairs = [
        (space.labels[i], vals[i] * nu.weights[i])
        for i in np.flatnonzero(nu.weights > 0)
    ]
    return RKHSElement.from_sections(pairs)


def trace_check(dec: SpectralDecomposition) -> tuple[float, float]:
    """Eigenvalue sum versus the quadrature trace ``sum_x tr K(x,x) nu_x``.

    Meaningful only for a decomposition retaining the full positive spectrum
    (``rank_cutoff=0``); truncation removes mass from the left-hand side.
    """
    lhs = float(np.sum(dec.sigmas))
    rhs = dec.nu.m_nu
    return lhs, rhs


def embedding_norm_bound_check(h: RKHSElement, dec: SpectralDecomposition) -> tuple[float, float]:
    """Squared measure-space norm of an embedded element and its bound.

    Returns ``(l2_sq, bound)`` where ``l2_sq`` is computed by quadrature of
    the pointwise values and ``bound = m_nu * |h|_K^2``.  The embedding
    inequality asserts ``l2_sq <= bound`` up to the eigen tolerance.
    """
    if h.coeffs is None:
        raise ValueError("embedding bound needs the spectral form; project the element first")
    coeffs = np.asarray(h.coeffs, dtype=complex)
    if coeffs.shape[0] != dec.rank:
        raise ValueError(f"expected {dec.rank} coefficients, got {coeffs.shape[0]}")
    values = np.einsum("i,ixl->xl", coeffs * np.sqrt(dec.sigmas), dec.funcs)
    l2_sq = float(np.sum(np.abs(values) ** 2 * dec.nu.weights[:, None]))
    bound = dec.nu.m_nu * float(np.sum(np.abs(coeffs) ** 2))
    return l2_sq, bound


def write_spectrum(dec: SpectralDecomposition, path) -> None:
    """Write ``i,sigma`` rows, eigenindex ascending (sigma descending)."""
    rows = ([str(i) for i in range(dec.rank)], map(repr, dec.sigmas.tolist()))
    _write_csv(path, ["i", "sigma"], [rows])


def write_eigenfunctions(dec: SpectralDecomposition, path) -> None:
    """Write ``i,atom_id,j,re,im`` rows; component index ``j`` is zero-based.

    Rows go out one eigenindex at a time, atoms in order, components inside.
    """
    n = dec.n
    labels = [cell for cell in _csv_cells(dec.space.labels) for _ in range(n)]
    components = [str(j) for j in range(n)] * len(dec.space.labels)

    def chunks():
        for i in range(dec.rank):
            values = dec.funcs[i].reshape(-1)
            yield (
                [str(i)] * len(labels),
                labels,
                components,
                map(repr, values.real.tolist()),
                map(repr, values.imag.tolist()),
            )

    _write_csv(path, ["i", "atom_id", "j", "re", "im"], chunks())
