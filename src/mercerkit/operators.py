"""Discrete integral operator of a kernel against a rescaled measure.

The measure is rescaled per atom by ``1 / (1 + |K(x,x)|)`` so the operator
always has finite trace.  Assembly uses the symmetric realization
``D^(1/2) G D^(1/2)`` over the positive-weight atoms; it shares its spectrum
with the quadrature operator and its eigenvectors map to eigenfunctions that
are orthonormal against the rescaled weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable

import numpy as np

from .kernels import (
    _BLOCK_ROWS,
    MatrixKernel,
    _factors,
    _flat,
    _hermitian,
    _readonly,
    _require_hermitian,
    _spectral_norms,
    gram,
)
from .space import AtomSpace, _zero_mass_support
from .tables import _write_csv

__all__ = [
    "DiscreteOperator",
    "EmptySupportError",
    "RKHSElement",
    "RescaledMeasure",
    "SpectralDecomposition",
    "assemble_operator",
    "default_tol_eig",
    "eigendecompose",
    "embedding_norm_bound_check",
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
    """Per-atom rescaled weights, the trace budget, the blocks ``K(x, x)`` (``(N, n, n)``) and the core's Gram."""

    weights: np.ndarray
    m_nu: float
    diagonal: np.ndarray
    core_gram: np.ndarray


def rescale_measure(space: AtomSpace, kernel: MatrixKernel, blocks: np.ndarray | None = None) -> RescaledMeasure:
    """Divide each weight by ``1 + |K(x,x)|`` (spectral norm of the diagonal block).

    The blocks are the core's times ``B``, and their norms the core's times
    ``||B||_2`` (see :func:`_factors`).  Also returns the trace budget
    ``m_nu = sum_x tr K(x,x) nu_x``, which the eigenvalue sum of the operator
    must reproduce, the blocks, and the core's Gram they are read off,
    ``blocks`` (as :func:`gram` returns it) if given, else a new evaluation.
    """
    core, matrix = _factors(kernel)
    blocks = _readonly(gram(core, space) if blocks is None else blocks)
    k = np.einsum("xxlj->xlj", blocks)
    diag, norms = k * matrix, _spectral_norms(k) * _spectral_norms(matrix)
    _require_hermitian(diag)
    weights = space.mu / (1.0 + norms)
    with np.errstate(over="ignore"):
        m_nu = float(np.sum(np.trace(diag, axis1=1, axis2=2).real * weights))
    if not math.isfinite(m_nu):  # a trace may overflow where its weighted terms do not
        m_nu = float(np.sum(np.trace(diag * weights[:, None, None], axis1=1, axis2=2).real))
    return RescaledMeasure(_readonly(weights), m_nu, _readonly(diag), blocks)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetric realization of the kernel integral operator.

    ``matrix`` is ``D^(1/2) G D^(1/2)`` with ``G`` the block Gram matrix of
    the kernel's core (see :func:`_factors`) over the atoms at ``indices``
    (those with positive rescaled weight, a read-only ``intp`` array in atom
    order) and ``D`` the diagonal of their weights, one per core component.
    The operator is ``matrix (x) B``.
    """

    space: AtomSpace
    kernel: MatrixKernel
    nu: RescaledMeasure
    indices: np.ndarray
    matrix: np.ndarray


def assemble_operator(space: AtomSpace, kernel: MatrixKernel, nu: RescaledMeasure) -> DiscreteOperator:
    """Assemble the operator matrix over atoms with positive rescaled weight, off ``nu.core_gram``."""
    pos = np.flatnonzero(nu.weights > 0)
    if not pos.size:
        raise EmptySupportError("measure has empty support: every atom weight is zero")
    core, b = _factors(kernel)
    raw = _flat(nu.core_gram[np.ix_(pos, pos)])
    _require_hermitian(raw, b)  # validate_kernel's rule, on the kernel's values
    scale = np.sqrt(np.repeat(nu.weights[pos], core.n))
    matrix = _hermitian(raw)
    del raw  # the flat copy of the slice, freed before the scaling
    matrix *= scale[:, None]
    matrix *= scale[None, :]
    return DiscreteOperator(space, kernel, nu, _readonly(pos), _readonly(matrix))


def _normalize_phase(vectors: np.ndarray, floor: float | np.ndarray = 1e-12) -> np.ndarray:
    """Rotate each column in place so its first entry above ``floor`` of the column's peak magnitude is real positive.

    ``floor`` may be one per column.  Every column must be nonzero, as an eigenvector is.  Returns ``vectors``.
    """
    mags = np.abs(vectors)
    first = np.argmax(mags > floor * mags.max(axis=0), axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    # hypot, as abs() of one complex number computes it; np.abs of a complex array can differ in the last bit
    vectors *= np.conj(lead / np.hypot(lead.real, lead.imag))
    return vectors


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues of the discrete operator and its eigenfunctions, held as factors.

    ``sigmas`` is sorted descending and keeps only eigenvalues above the rank
    cutoff.  Eigenfunction ``i`` at atom ``x`` is ``u[p[i], x] (x) v[:, i]``
    (see :func:`_factors`): ``u``, ``(count, N, c)``, holds the core's
    eigenfunctions that kept eigenpairs use, extended to atoms of zero
    rescaled weight; ``v[:, i]`` is eigenpair ``i``'s eigenvector of ``B``,
    phased for it, and ``[1]`` for a ``1 x 1`` ``B`` (``[[1]]`` for a kernel
    that is not separable).  ``funcs``, the values ``(rank, N, n)``, is formed
    when first read, in the dtype of the solve: float64 for a real core with
    a real ``B``, complex otherwise.
    """

    space: AtomSpace
    kernel: MatrixKernel
    nu: RescaledMeasure
    sigmas: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    # the eigenvalue sum of the whole positive spectrum the decomposition was cut from, which
    # trace_check reads; None for one not cut from a solve, whose own sigmas are summed
    _positive_sum: float | None = None

    @property
    def rank(self) -> int:
        return int(self.sigmas.shape[0])

    @property
    def n(self) -> int:
        return int(self.kernel.n)

    @cached_property
    def support(self) -> np.ndarray:
        """Mask of the atoms in the measure support (see :func:`mercerkit.space.support`)."""
        return _zero_mass_support(self.space, self.kernel, self.nu.core_gram)

    @cached_property
    def funcs(self) -> np.ndarray:
        """``funcs[i, x]``, the value of eigenfunction ``i`` at atom ``x``: ``u`` itself where ``v`` is ones and ``p`` counts up."""
        if len(self.v) == 1 and np.array_equal(self.p, np.arange(self.rank)):
            return self.u[: self.rank]
        return _readonly(_values(self, np.arange(len(self.space))))


def _entries(dec: SpectralDecomposition, i: np.ndarray, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``funcs[i, x, j]`` at the broadcast index arrays ``i``, ``x``, ``j``, formed from the factors."""
    # v of one row is ones: u keeps its bits, where a complex product by 1 would turn inf + 0j into nan parts
    return dec.u[dec.p[i], x, j] if len(dec.v) == 1 else dec.u[dec.p[i], x, 0] * dec.v[j, i]


def _values(dec: SpectralDecomposition, rows: np.ndarray) -> np.ndarray:
    """The eigenfunctions' values at the atoms at ``rows``, shape ``(rank, len(rows), n)``."""
    return _entries(dec, *np.ix_(np.arange(dec.rank), rows, np.arange(dec.n)))


def _cutoff(sigmas: np.ndarray, rank_cutoff: float | None) -> float:
    """Eigenvalues at or below this are dropped; ``sigmas`` is in descending order."""
    if rank_cutoff is None:
        return RANK_CUTOFF_REL * max(float(sigmas[0]) if sigmas.size else 0.0, 0.0)
    cutoff = float(rank_cutoff)
    if not (math.isfinite(cutoff) and cutoff >= 0):
        raise ValueError(f"rank_cutoff must be finite and nonnegative, got {rank_cutoff!r}")
    return cutoff


def _eigenpairs(op: DiscreteOperator, rank_cutoff: float | None) -> tuple[np.ndarray, ...]:
    """Eigenvalues of the operator above the cutoff, descending, their factors, and the whole positive spectrum.

    The operator is ``op.matrix (x) B`` (index ``x*n + l``), so its
    eigenpairs are products of the factors', each factor clipped at zero (two
    negative rounding-level eigenvalues make no positive product).  A stable
    sort from ``op.matrix``'s descending order keeps the eigenvectors inside a
    tie in the order of the whole solve of a kernel that is not separable.
    Eigenpair ``i`` is core eigenpair ``p[i]`` times the ``i``-th of ``B``
    returned; the core's are returned up to the last one used, as each is
    used with ``B``'s largest.  The whole positive spectrum is what
    ``rank_cutoff=0.0`` keeps.
    """
    _, matrix = _factors(op.kernel)
    lam, u = np.linalg.eigh(op.matrix)
    lam, u = lam[::-1], u[:, ::-1]
    mu, v = np.linalg.eigh(_hermitian(matrix))
    products = np.outer(np.maximum(lam, 0.0), np.maximum(mu, 0.0)).ravel()
    order = np.argsort(-products, kind="stable")
    evals = products[order]
    order = order[evals > _cutoff(evals, rank_cutoff)]
    p, l = np.divmod(order, len(mu))
    count = int(p.max(initial=-1)) + 1
    return products[order], lam[:count], u[:, :count], p, v[:, l], evals[evals > 0.0]


def eigendecompose(op: DiscreteOperator, rank_cutoff: float | None = None) -> SpectralDecomposition:
    """Diagonalize the operator and build its eigenfunctions' factors on every atom.

    Eigenvalues at or below ``rank_cutoff`` are dropped (default: relative
    cutoff ``sigma_1 * 1e-12``; pass ``0.0`` to keep the full positive
    spectrum).  Each eigenvector's first entry above ``1e-12`` of its peak is
    made real positive, which makes outputs deterministic up to eigenvalue
    ties: the core's eigenvector takes the sign (or phase) at its own first
    such entry, ``B``'s at its first entry where the product clears the
    threshold.  A real ``op.matrix`` gets a real eigensolve, and with a real
    ``B`` the eigenfunctions stay real.

    Factors are built for the kept eigenpairs only, in the core's space, each
    equal bit for bit to the one a lower cutoff gives: ``funcs`` are those of
    ``truncate(eigendecompose(op, 0.0), rank_cutoff)``.  No eigenvector of
    the product is formed; the extension to zero-mass atoms uses ``B v = mu v``.
    """
    sigmas, lam, vectors, p, v, positive = _eigenpairs(op, rank_cutoff)
    space, nu, pos = op.space, op.nu, op.indices
    count, c = vectors.shape[1], _factors(op.kernel)[0].n
    zero = np.flatnonzero(nu.weights <= 0)

    peak = np.abs(_normalize_phase(vectors)).max(axis=0)
    lead = np.abs(vectors[np.argmax(np.abs(vectors) > 1e-12 * peak, axis=0), np.arange(count)]) / peak
    v = _normalize_phase(v, 1e-12 / lead[p])  # |u_p(x0) v_l[j]| above 1e-12 of the product's peak
    u_pos = vectors.T.reshape(count, len(pos), c)
    u_pos /= np.sqrt(nu.weights[pos])[None, :, None]
    u = np.zeros((count, len(space.labels), c), dtype=vectors.dtype)
    u[:, pos, :] = u_pos
    if count and zero.size:
        u[:, zero, :] = _extend(op, zero, u_pos, lam)
    return SpectralDecomposition(space, op.kernel, nu, *map(_readonly, (sigmas, u, v, p)), float(np.sum(positive)))


def _extend(op: DiscreteOperator, rows: np.ndarray, f_pos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Kernel-sum extension ``(1 / sigma_i) sum_t k(x,t) f_i(t) nu_t`` of the core ``k`` at the atoms at ``rows``.

    The sum runs over the positive-weight atoms of ``op``; ``f_pos`` holds
    the eigenfunction values there, shape ``(count, P, c)``.  The result has
    shape ``(count, len(rows), c)``, and is real when ``f_pos`` and the
    core's blocks are.
    """
    pos = op.indices
    weighted = _flat(op.nu.core_gram[np.ix_(rows, pos)] * op.nu.weights[pos][None, :, None, None]).T
    f = f_pos.reshape(len(sigmas), -1)
    values = np.empty((len(sigmas), weighted.shape[1]), dtype=np.result_type(f, weighted))
    # column-major, as eigendecompose's f_pos is: each product reads its operand in the layout it has there
    part = np.zeros((_BLOCK_ROWS, f.shape[1]), dtype=f.dtype, order="F")
    for start in range(0, len(f), _BLOCK_ROWS):
        count = min(_BLOCK_ROWS, len(f) - start)
        part[:count] = f[start : start + count]
        values[start : start + count] = (part @ weighted)[:count]
    values = values.reshape(len(sigmas), len(rows), -1)
    values /= sigmas[:, None, None]
    return values


def truncate(dec: SpectralDecomposition, rank_cutoff: float | None = None) -> SpectralDecomposition:
    """Drop eigenpairs at or below a new cutoff without re-diagonalizing."""
    keep = int(np.sum(dec.sigmas > _cutoff(dec.sigmas, rank_cutoff)))
    return SpectralDecomposition(
        dec.space, dec.kernel, dec.nu, dec.sigmas[:keep], dec.u, dec.v[:, :keep], dec.p[:keep], dec._positive_sum
    )


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


def _coefficients(h: RKHSElement, dec: SpectralDecomposition) -> np.ndarray:
    """The coefficients of a spectral-form element, which must number ``dec.rank``."""
    coeffs = np.asarray(h.coeffs, dtype=complex)
    if coeffs.shape[0] != dec.rank:
        raise ValueError(f"expected {dec.rank} coefficients, got {coeffs.shape[0]}")
    return coeffs


def _section_vector(label: str, y: np.ndarray, n: int) -> np.ndarray:
    """The vector ``y`` of a section based at atom ``label``, which must have ``n`` entries."""
    if np.shape(y) != (n,):
        raise ValueError(f"section at atom {label!r}: expected {n} entries, got {np.size(y)}")
    return y


def trace_check(dec: SpectralDecomposition) -> tuple[float, float]:
    """Eigenvalue sum versus the quadrature trace ``sum_x tr K(x,x) nu_x``.

    The sum runs over the whole positive spectrum the decomposition was cut
    from, whatever cutoff :func:`eigendecompose` or :func:`truncate` applied:
    it is the sum of ``eigendecompose(op, 0.0).sigmas``, bit for bit.  A
    decomposition built by hand sums its own ``sigmas``.
    """
    lhs = float(np.sum(dec.sigmas)) if dec._positive_sum is None else dec._positive_sum
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
    coeffs = _coefficients(h, dec)
    values = np.einsum("i,ixl->xl", coeffs * np.sqrt(dec.sigmas), dec.funcs)
    l2_sq = float(np.sum(np.abs(values) ** 2 * dec.nu.weights[:, None]))
    bound = dec.nu.m_nu * float(np.sum(np.abs(coeffs) ** 2))
    return l2_sq, bound


def write_spectrum(dec: SpectralDecomposition, path) -> None:
    """Write ``i,sigma`` rows, eigenindex ascending (sigma descending)."""
    _write_csv(path, ["i", "sigma"], dec.sigmas.shape, [(range(dec.rank), 0)], dec.sigmas)


def write_eigenfunctions(dec: SpectralDecomposition, path) -> None:
    """Write ``i,atom_id,j,re,im`` rows; component index ``j`` is zero-based.

    Rows go out one eigenindex at a time, atoms in order, components inside.
    Each batch of rows is formed from the factors ``u``, ``v`` and ``p``, with
    the bits ``funcs`` has; ``funcs`` is neither read nor formed.
    """
    labels = [(range(dec.rank), 0), (dec.space.labels, 1), (range(dec.n), 2)]
    shape = (dec.rank, len(dec.space), dec.n)
    _write_csv(path, ["i", "atom_id", "j", "re", "im"], shape, labels, partial(_entries, dec), im=True)
