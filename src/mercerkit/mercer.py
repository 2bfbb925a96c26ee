"""Eigen-expansions of a kernel: the Mercer series and its scalar frames.

The spectral decomposition turns the kernel into the series
``K(x,t)[l,j] = sum_i sigma_i f_i^l(x) conj(f_i^j(t))`` on the measure
support.  This module evaluates truncations of that series and extracts the
per-component scalar families, which are Parseval frames for the diagonal
scalar kernels.  Kernel-space elements live in :mod:`mercerkit.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .kernels import _factors, _flat, _kernel_blocks, _readonly, _row_blocks, _scatter
from .tables import _Indices, _read_table, _write_csv

if TYPE_CHECKING:
    from .operators import SpectralDecomposition

__all__ = [
    "ScalarFrame",
    "default_tol_recon",
    "extract_frame",
    "frame_check",
    "read_frame",
    "reconstruct",
    "reconstruction_error",
    "write_error_table",
    "write_frame",
]

# Scale factor for reconstruction tolerances.
TOL_RECON_SCALE = 1e-8


def default_tol_recon(dec: SpectralDecomposition) -> float:
    """Reconstruction tolerance ``TOL_RECON_SCALE * (1 + t)``.

    ``t`` is the largest real diagonal entry of any ``K(x, x)`` over the
    atoms, read off ``dec.nu.diagonal``, floored at 0.
    """
    return _tol_recon(dec.nu.diagonal)


def _tol_recon(diagonal: np.ndarray) -> float:
    return TOL_RECON_SCALE * (1.0 + max(float(np.einsum("xll->xl", diagonal).real.max()), 0.0))


def _check_truncation(dec: SpectralDecomposition, m: int) -> None:
    if not 0 <= m <= dec.rank:
        raise ValueError(f"truncation {m} out of range 0..{dec.rank}")


def reconstruct(dec: SpectralDecomposition, x: str, t: str, m: int | None = None) -> np.ndarray:
    """Evaluate the ``m``-term partial series at the atoms labelled ``x`` and ``t`` (default: all terms).

    Entry ``(l, j)`` is ``sum_i sigma_i f_i^l(x) conj(f_i^j(t))``, the rank-m
    eigen-factorization of the block Gram; at full rank it reproduces
    ``K(x,t)`` on the support.
    """
    from .operators import _values

    m = dec.rank if m is None else m
    _check_truncation(dec, m)
    values = _values(dec, np.array([dec.space.index(x), dec.space.index(t)]))
    return np.einsum("i,il,ij->lj", dec.sigmas[:m], values[:m, 0], np.conj(values[:m, 1]))


def reconstruction_error(
    dec: SpectralDecomposition,
    subset: Sequence[str] | None = None,
    ms: Iterable[int] | None = None,
) -> list[tuple[int, float]]:
    """Max-entry deviation of each partial series from the kernel.

    Checks all pairs from ``subset`` (default: the measure support; repeated
    and off-support atoms are allowed).  Returns ``(m, error)`` rows with
    ``error = max |K(x,t) - K_m(x,t)|`` over pairs and components.

    The row ``m = rank`` is computed entry by entry, off the factors of the
    decomposition and slices of the core's Gram.  A row ``m < rank`` is the
    largest diagonal entry of the remainder ``R_m = K - K_m``, ``K(x,x)[l,l]
    - sum_{i<m} sigma_i |f_i^l(x)|^2`` floored at 0, which is the max-entry
    error whenever ``R_m`` is positive semidefinite, since then ``|R_ij| <=
    sqrt(R_ii R_jj)``.  In exact arithmetic it is, for a positive
    semidefinite kernel on any finite atom set: ``R_m`` is the Nystrom
    remainder (a Schur complement of the positive-mass block) plus the
    dropped terms ``sigma_i f_i f_i^H``.  Rounding-level eigenpairs kept
    (``rank_cutoff`` 0) and extended to zero-mass atoms through ``1 /
    sigma_i`` can break that; a row with a diagonal remainder below
    ``-default_tol_recon(dec)`` is then computed entry by entry too.  The
    rows read off the diagonal are nonincreasing in ``m``; rows computed
    entry by entry need not be.
    """
    idx = np.flatnonzero(dec.support) if subset is None else np.array([dec.space.index(a) for a in subset], np.intp)
    steps = sorted(set(int(m) for m in ms)) if ms is not None else list(range(dec.rank + 1))
    for m in steps:
        _check_truncation(dec, m)
    u = dec.u[:, idx, :].reshape(len(dec.u), len(idx) * dec.u.shape[2])  # the core's eigenfunctions there, flat (x, c)
    diag = np.einsum("xll->xl", dec.nu.diagonal[idx]).real.ravel()
    # kept[m] = sum_{i<m} sigma_i |f_i|^2, added in order a block at a time: diag - kept[m] is exactly nonincreasing
    mags, vmags = u.real**2 + u.imag**2, dec.v.real**2 + dec.v.imag**2
    bounds = np.zeros((2, dec.rank + 1))  # the largest and the smallest remainder, each against 0
    bounds[:, 0] = diag.max(initial=0.0), diag.min(initial=0.0)
    total = np.zeros((1, len(diag)))
    for rows in _row_blocks(dec.rank):
        kept = (mags[dec.p[rows], :, None] * vmags.T[rows, None, :]).reshape(rows.stop - rows.start, len(diag))
        kept *= dec.sigmas[rows, None]
        kept[:1] += total
        np.cumsum(kept, axis=0, out=kept)
        total = kept[-1:].copy()
        remainder = np.subtract(diag, kept, out=kept)
        bounds[:, rows.start + 1 : rows.stop + 1] = remainder.max(1, initial=0.0), remainder.min(1, initial=0.0)
    del mags, kept, remainder  # freed before the series is formed
    floor = -default_tol_recon(dec)
    errors = {m: float(bounds[0, m]) for m in steps if m < dec.rank and bounds[1, m] >= floor}
    u = np.conj(u, out=u).astype(np.result_type(u, dec.v), copy=False)  # the series' right factor, as BLAS takes it
    for m in steps:
        if m not in errors:
            errors[m] = _series_error(dec, idx, u, m)
    return [(m, errors[m]) for m in steps]


def _series_error(dec: SpectralDecomposition, idx: np.ndarray, rhs: np.ndarray, m: int) -> float:
    """``max |K - K_m|`` over the atoms at ``idx``, ``K_m`` the first ``m`` terms, ``rhs`` the flat ``conj(u)`` there.

    Entry ``(l, j)`` of ``K_m`` is ``u^T diag(coef[:, l, j]) rhs``, ``coef[p]``
    the sum of ``sigma_i v[:, i] v[:, i]^H`` over the terms of ``u[p]``, and
    of ``K`` the core's Gram times ``B[l, j]``.  Both are formed one block of
    the core's rows (see :func:`_row_blocks`) and one entry of ``B`` at a time.
    """
    _, matrix = _factors(dec.kernel)
    p, v = dec.p[:m], dec.v[:, :m].T
    rhs = rhs[: int(p.max(initial=-1)) + 1]
    coef = np.zeros((len(rhs), *matrix.shape), dtype=dec.v.dtype)
    np.add.at(coef, p, dec.sigmas[:m, None, None] * v[:, :, None] * np.conj(v[:, None, :]))
    c = dec.u.shape[2]
    worst = []
    for rows in _row_blocks(rhs.shape[1]):
        gram = _flat(dec.nu.core_gram[np.ix_(idx[rows.start // c : -(-rows.stop // c)], idx)])
        block = gram[rows.start % c :][: rows.stop - rows.start]
        for (l, j), b in np.ndenumerate(matrix):
            # conj(conj(U)^T conj(coef)) is U^T coef bit for bit
            scaled = rhs.T[rows] * np.conj(coef[:, l, j])
            series = np.conj(scaled, out=scaled) @ rhs
            worst.append(np.max(np.abs(np.subtract(block * b, series, out=series)), initial=0.0))
    return float(np.max(worst))  # where max() would pass over a nan, np.max keeps it


@dataclass(frozen=True, eq=False)
class ScalarFrame:
    """Scaled eigenfunction component values ``sqrt(sigma_i) f_i^j`` over atoms.

    Rows are frame vectors for the scalar kernel cut from one diagonal
    block; the family is Parseval on the measure support.
    """

    atoms: tuple[str, ...]
    values: np.ndarray


def _check_component(dec: SpectralDecomposition, j: int) -> None:
    if not 0 <= j < dec.n:
        raise ValueError(f"component {j} out of range 0..{dec.n - 1}")


def extract_frame(dec: SpectralDecomposition, j: int) -> ScalarFrame:
    """Frame of component ``j`` (zero-based) of the scaled eigenfunctions, off the factors: ``u`` times ``v[j, i]``."""
    _check_component(dec, j)
    c, jb = divmod(j, len(dec.v))
    values = dec.u[dec.p, :, c] if len(dec.v) == 1 else dec.u[dec.p, :, c] * dec.v[jb][:, None]
    values *= np.sqrt(dec.sigmas)[:, None]
    return ScalarFrame(dec.space.labels, _readonly(values))


def frame_check(
    frame: ScalarFrame,
    dec: SpectralDecomposition,
    j: int,
    combinations: Sequence[tuple[Sequence[str], Sequence[complex]]] = (),
) -> float:
    """Max deviation of the Parseval identity for the scalar kernel of component ``j``.

    For every support atom the squared frame coefficients of the kernel
    section must sum to the diagonal value ``K(x,x)[j,j]``; optional
    ``combinations`` extend the check to finite combinations of sections,
    whose squared norm is the Gram double sum.  Returns the largest absolute
    deviation found.
    """
    if frame.atoms != dec.space.labels:
        raise ValueError("frame atoms do not match the decomposition's atom order")
    _check_component(dec, j)
    idx = np.flatnonzero(dec.support)
    targets = dec.nu.diagonal[idx, j, j].real
    totals = np.sum(np.abs(frame.values[:, idx]) ** 2, axis=0)
    deviation = float(np.max(np.abs(targets - totals), initial=0.0))
    for labels, coeffs in combinations:
        idx = [dec.space.index(label) for label in labels]
        a = np.asarray(list(coeffs), dtype=complex)
        block = _kernel_blocks(dec.nu.core_gram, dec.kernel, idx)[:, :, j, j]
        norm_sq = float((np.conj(a) @ block @ a).real)
        frame_coeffs = np.conj(frame.values[:, idx]) @ a
        total = float(np.sum(np.abs(frame_coeffs) ** 2))
        deviation = max(deviation, abs(norm_sq - total))
    return deviation


def write_error_table(table: Sequence[tuple[int, float]], path: str | Path) -> None:
    """Write ``m,max_abs_error`` rows."""
    errors = np.array([float(err) for _, err in table])
    _write_csv(path, ["m", "max_abs_error"], errors.shape, [([int(m) for m, _ in table], 0)], errors)


_FRAME_ROW = np.dtype([("i", np.int64), ("atom_id", object), ("value_re", float), ("value_im", float)])
_FRAME_INDEX = _Indices("frame index must be nonnegative", "frame index", lambda count: count)


def write_frame(frame: ScalarFrame, path: str | Path) -> None:
    """Write ``i,atom_id,value_re,value_im`` rows for one frame, one frame vector at a time."""
    values = frame.values
    _write_csv(path, _FRAME_ROW.names, values.shape, [(range(len(values)), 0), (frame.atoms, 1)], values, im=True)


def read_frame(path: str | Path) -> ScalarFrame:
    """Read a frame CSV back; atom order is first appearance order.

    Every frame index must lie below the number of data rows.  A value
    stored twice keeps its last row, and a value never stored is zero.  The
    frame is built dense, one value per frame index and atom; if that does
    not fit in memory, ``ValueError`` names the path and the shape.  It is
    real (float64) if every ``value_im`` cell is ``+0.0``, bit for bit, as
    :func:`write_frame` writes the frames of a real kernel; a ``-0.0`` cell
    keeps it complex.  Errors name ``path`` as given.
    """
    rows, index = _read_table(path, _FRAME_ROW, ValueError, _FRAME_INDEX)
    shape = (int(rows["i"].max(initial=-1)) + 1, len(index))
    keys, im = (rows["i"], rows["atom_id"]), rows["value_im"]
    try:
        values, _ = _scatter(shape, keys, rows["value_re"], im if im.view(np.int64).any() else None)
    except MemoryError:
        raise ValueError(
            f"cannot read frame file: {path}: a dense frame of shape {shape} does not fit in memory"
        ) from None
    return ScalarFrame(tuple(index), _readonly(values))
