"""Eigen-expansions of a kernel and the Hilbert-space algebra they induce.

The spectral decomposition turns the kernel into the series
``K(x,t)[l,j] = sum_i sigma_i f_i^l(x) conj(f_i^j(t))`` on the measure
support.  This module evaluates truncations of that series, projects kernel
sections onto the scaled eigenfunction basis, and extracts the per-component
scalar families, which are Parseval frames for the diagonal scalar kernels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .kernels import _csv_cells, _flat, _readonly, _write_csv, diagonal_blocks, gram
from .operators import RKHSElement, SpectralDecomposition
from .space import Atom, AtomSpace, SupportSet

__all__ = [
    "MercerExpansion",
    "OffSupportError",
    "ScalarFrame",
    "default_tol_recon",
    "extract_frame",
    "frame_check",
    "pointwise",
    "project",
    "read_frame",
    "reconstruct",
    "reconstruction_error",
    "rkhs_inner",
    "write_error_table",
    "write_frame",
]

# Scale factor for reconstruction tolerances.
TOL_RECON_SCALE = 1e-8


class OffSupportError(ValueError):
    """Raised when a kernel section at a zero-measure atom has no spectral form."""


def default_tol_recon(dec: SpectralDecomposition) -> float:
    """Scale-aware tolerance for series reconstruction deviations."""
    diag = np.einsum("xll->xl", diagonal_blocks(dec.kernel, dec.space.atoms)).real
    return TOL_RECON_SCALE * (1.0 + max(float(diag.max()), 0.0))


def _atom_index(space: AtomSpace, x: str | Atom) -> int:
    return space.index(x.label if isinstance(x, Atom) else x)


@dataclass(frozen=True, eq=False)
class MercerExpansion:
    """A truncation of the eigen-series to its ``m`` leading terms."""

    dec: SpectralDecomposition
    m: int

    def __post_init__(self) -> None:
        if not 0 <= self.m <= self.dec.rank:
            raise ValueError(f"truncation {self.m} out of range 0..{self.dec.rank}")


def reconstruct(exp: MercerExpansion, x: str | Atom, t: str | Atom) -> np.ndarray:
    """Evaluate the ``m``-term partial series at a pair of atoms.

    Entry ``(l, j)`` is ``sum_i sigma_i f_i^l(x) conj(f_i^j(t))``, the rank-m
    eigen-factorization of the block Gram; at full rank it reproduces
    ``K(x,t)`` on the support.
    """
    dec, m = exp.dec, exp.m
    ix = _atom_index(dec.space, x)
    it = _atom_index(dec.space, t)
    return np.einsum(
        "i,il,ij->lj",
        dec.sigmas[:m],
        dec.funcs[:m, ix, :],
        np.conj(dec.funcs[:m, it, :]),
    )


def reconstruction_error(
    dec: SpectralDecomposition,
    subset: Sequence[str] | None = None,
    ms: Iterable[int] | None = None,
) -> list[tuple[int, float]]:
    """Max-entry deviation of each partial series from the kernel.

    Checks all pairs from ``subset`` (default: the measure support).  Returns
    ``(m, error)`` rows with ``error = max |K(x,t) - K_m(x,t)|`` over pairs
    and components.  On the support the diagonal remainder dominates, so the
    table is nonincreasing in ``m`` up to eigen-level noise.
    """
    labels = tuple(subset) if subset is not None else dec.support.members
    idx = [dec.space.index(label) for label in labels]
    steps = sorted(set(int(m) for m in ms)) if ms is not None else list(range(dec.rank + 1))
    for m in steps:
        if not 0 <= m <= dec.rank:
            raise ValueError(f"truncation {m} out of range 0..{dec.rank}")
    # flat (x, l), (t, j) matrices: each term is one rank-one update in place
    resid = _flat(gram(dec.kernel, [dec.space.atoms[i] for i in idx]))
    f_sub = dec.funcs[:, idx, :]
    term = np.empty_like(resid)
    table: list[tuple[int, float]] = []
    prev = 0
    for m in steps:
        for i in range(prev, m):
            f = f_sub[i].reshape(-1)
            np.multiply.outer(f, np.conj(f), out=term)
            term *= dec.sigmas[i]
            resid -= term
        prev = m
        table.append((m, float(np.max(np.abs(resid))) if resid.size else 0.0))
    return table


def pointwise(dec: SpectralDecomposition, element: RKHSElement) -> np.ndarray:
    """Per-atom values of an element, shape ``(N, n)``."""
    if element.is_spectral:
        coeffs = np.asarray(element.coeffs, dtype=complex)
        if coeffs.shape[0] != dec.rank:
            raise ValueError(f"expected {dec.rank} coefficients, got {coeffs.shape[0]}")
        return np.einsum("i,ixl->xl", coeffs * np.sqrt(dec.sigmas), dec.funcs)
    sources, ys = _section_table(dec, element)
    return np.einsum("tslm,sm->tl", gram(dec.kernel, dec.space.atoms, sources), ys)


def _section_table(dec: SpectralDecomposition, element: RKHSElement) -> tuple[list[Atom], np.ndarray]:
    """Base atoms and coefficient vectors ``(S, n)`` of a section-form element."""
    atoms = dec.space.atoms
    sources = [atoms[dec.space.index(label)] for label, _ in element.sections]
    ys = np.array([y for _, y in element.sections], dtype=complex).reshape(len(sources), dec.n)
    return sources, ys


def project(section: RKHSElement, dec: SpectralDecomposition, support: SupportSet | None = None) -> RKHSElement:
    """Spectral coefficients of a kernel-section element.

    By the reproducing property the coefficient against the ``i``-th scaled
    eigenfunction is ``sqrt(sigma_i) * sum_x <y_x, f_i(x)>``.  Sections based
    at atoms outside the measure support have no spectral form and raise
    :class:`OffSupportError`.
    """
    if section.sections is None:
        raise ValueError("project expects a kernel-section element")
    sup = dec.support if support is None else support
    coeffs = np.zeros(dec.rank, dtype=complex)
    for label, y in section.sections:
        if label not in sup:
            raise OffSupportError(
                f"atom {label!r} lies outside the measure support; "
                "the section has no spectral representation"
            )
        ix = dec.space.index(label)
        coeffs += np.conj(dec.funcs[:, ix, :]) @ np.asarray(y, dtype=complex)
    coeffs *= np.sqrt(dec.sigmas)
    return RKHSElement.spectral(coeffs)


def rkhs_inner(
    h1: RKHSElement,
    h2: RKHSElement,
    dec: SpectralDecomposition,
    support: SupportSet | None = None,
) -> complex:
    """Kernel-space inner product, linear in the first argument.

    Spectral forms contract coefficientwise (the scaled eigenfunctions are
    orthonormal).  Section forms evaluate the Gram double sum
    ``sum_{x,t} <K(t,x) y_x, y'_t>`` directly.  Mixed forms project the
    section first, which requires its atoms to lie on the support.
    """
    if h1.is_spectral and h2.is_spectral:
        return complex(np.sum(h1.coeffs * np.conj(h2.coeffs)))
    if not h1.is_spectral and not h2.is_spectral:
        xs, ys = _section_table(dec, h1)
        ts, yps = _section_table(dec, h2)
        return complex(np.einsum("tl,txlm,xm->", np.conj(yps), gram(dec.kernel, ts, xs), ys))
    if h1.is_spectral:
        return rkhs_inner(h1, project(h2, dec, support), dec)
    return rkhs_inner(project(h1, dec, support), h2, dec)


@dataclass(frozen=True, eq=False)
class ScalarFrame:
    """Scaled eigenfunction component values ``sqrt(sigma_i) f_i^j`` over atoms.

    Rows are frame vectors for the scalar kernel cut from diagonal block
    ``block``; the family is Parseval on the measure support.
    """

    block: int
    atoms: tuple[str, ...]
    values: np.ndarray


def extract_frame(dec: SpectralDecomposition, j: int) -> ScalarFrame:
    """Frame of component ``j`` (zero-based) of the scaled eigenfunctions."""
    if not 0 <= j < dec.n:
        raise ValueError(f"component {j} out of range 0..{dec.n - 1}")
    values = np.sqrt(dec.sigmas)[:, None] * dec.funcs[:, :, j]
    return ScalarFrame(j, dec.space.labels, _readonly(values))


def frame_check(
    frame: ScalarFrame,
    dec: SpectralDecomposition,
    support: SupportSet | None = None,
    combinations: Sequence[tuple[Sequence[str], Sequence[complex]]] = (),
) -> float:
    """Max deviation of the Parseval identity for the frame's scalar kernel.

    For every support atom the squared frame coefficients of the kernel
    section must sum to the diagonal value ``K(x,x)[j,j]``; optional
    ``combinations`` extend the check to finite combinations of sections,
    whose squared norm is the Gram double sum.  Returns the largest absolute
    deviation found.
    """
    if frame.atoms != dec.space.labels:
        raise ValueError("frame atoms do not match the decomposition's atom order")
    sup = dec.support if support is None else support
    j = frame.block
    atoms = dec.space.atoms
    idx = [dec.space.index(label) for label in sup.members]
    targets = diagonal_blocks(dec.kernel, [atoms[i] for i in idx])[:, j, j].real
    totals = np.sum(np.abs(frame.values[:, idx]) ** 2, axis=0)
    deviation = float(np.max(np.abs(targets - totals), initial=0.0))
    for labels, coeffs in combinations:
        idx = [dec.space.index(label) for label in labels]
        a = np.asarray(list(coeffs), dtype=complex)
        block = gram(dec.kernel, [atoms[i] for i in idx])[:, :, j, j]
        norm_sq = float((np.conj(a) @ block @ a).real)
        frame_coeffs = np.conj(frame.values[:, idx]) @ a
        total = float(np.sum(np.abs(frame_coeffs) ** 2))
        deviation = max(deviation, abs(norm_sq - total))
    return deviation


def write_error_table(table: Sequence[tuple[int, float]], path: str | Path) -> None:
    """Write ``m,max_abs_error`` rows."""
    rows = ([str(int(m)) for m, _ in table], [repr(float(err)) for _, err in table])
    _write_csv(path, ["m", "max_abs_error"], [rows])


def write_frame(frame: ScalarFrame, path: str | Path) -> None:
    """Write ``i,atom_id,value_re,value_im`` rows for one frame, one frame vector at a time."""
    labels = _csv_cells(frame.atoms)
    chunks = (
        ([str(i)] * len(labels), labels, map(repr, row.real.tolist()), map(repr, row.imag.tolist()))
        for i, row in enumerate(frame.values)
    )
    _write_csv(path, ["i", "atom_id", "value_re", "value_im"], chunks)


def read_frame(path: str | Path) -> ScalarFrame:
    """Read a frame CSV back; atom order is first appearance order."""
    path = Path(path)
    order: list[str] = []
    seen: dict[str, int] = {}
    rows: list[tuple[int, int, complex]] = []
    max_i = -1
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["i", "atom_id", "value_re", "value_im"]:
            raise ValueError(f"{path}: line 1: header must be i,atom_id,value_re,value_im")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: line {line_no}: expected 4 fields, got {len(row)}")
            try:
                i = int(row[0])
                value = complex(float(row[2]), float(row[3]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            if i < 0:
                raise ValueError(f"{path}: line {line_no}: frame index must be nonnegative")
            label = row[1].strip()
            if label not in seen:
                seen[label] = len(order)
                order.append(label)
            rows.append((i, seen[label], value))
            max_i = max(max_i, i)
    values = np.zeros((max_i + 1, len(order)), dtype=complex)
    for i, x, value in rows:
        values[i, x] = value
    return ScalarFrame(0, tuple(order), _readonly(values))
