"""Finite measure spaces and the geometry a matrix kernel induces on them.

An :class:`AtomSpace` is an ordered finite list of labelled points, each
carrying a coordinate vector and a nonnegative measure weight.  A matrix
kernel turns the atom set into a pseudo-metric space: ``quotient`` glues
atoms the kernel cannot distinguish, and ``support`` returns the
tolerance-closure of the positive-mass atoms.  A set or partition of atoms
is a read-only array in atom order, indexed like ``labels``: a ``bool`` mask
for the support, an ``intp`` class id per atom for the quotient.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .kernels import MatrixKernel, _factors, _readonly, _spectral_norms, gram
from .tables import _read_table

__all__ = [
    "Atom",
    "AtomFileError",
    "AtomSpace",
    "PseudoMetricMatrix",
    "load_atoms",
    "merge_classes",
    "pseudo_metric",
    "pseudo_metric_prime",
    "quotient",
    "support",
]

# Scale factor for the zero threshold of the kernel pseudo-metric.
QUOTIENT_TOL_SCALE = 1e-9


class AtomFileError(ValueError):
    """Raised when an atom CSV file cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Atom:
    """A labelled point of the space with its coordinate vector."""

    label: str
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class AtomSpace:
    """Ordered finite set of atoms with coordinates and measure weights.

    Parameters
    ----------
    labels:
        Unique atom identifiers, in declaration order.  The order is part of
        the data model; downstream arrays are indexed by it.
    coords:
        Array of shape ``(N, d)``.  ``d`` may be zero.
    mu:
        Nonnegative measure weights, shape ``(N,)``.
    """

    labels: tuple[str, ...]
    coords: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(label) for label in self.labels)
        if not labels:
            raise ValueError("an atom space needs at least one atom")
        dupes = sorted(label for label, k in Counter(labels).items() if k > 1)
        if dupes:
            raise ValueError(f"duplicate atom labels: {dupes}")
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(len(labels), -1) if coords.size else coords.reshape(len(labels), 0)
        if coords.ndim != 2 or coords.shape[0] != len(labels):
            raise ValueError("coords must be a (n_atoms, dim) array")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if mu.shape[0] != len(labels):
            raise ValueError("mu must provide one weight per atom")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ValueError("mu weights must be finite and nonnegative")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "mu", _readonly(mu))

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(Atom(label, self.coords[i]) for i, label in enumerate(self.labels))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown atom id: {label!r}") from None

    def total_mass(self) -> float:
        return float(np.sum(self.mu))


def load_atoms(path: str | Path) -> AtomSpace:
    """Read an atom CSV file with header ``id,w,c1,...,cd``; errors name ``path`` as given."""

    def row(header: list[str]) -> np.dtype:
        if header != ["id", "w"] + [f"c{k}" for k in range(1, len(header) - 1)]:
            raise AtomFileError(f"{path}: line 1: header must be id,w,c1,...,cd, got {','.join(header)}")
        return np.dtype([("id", object)] + [(name, float) for name in header[1:]])

    rows, index = _read_table(path, row, AtomFileError)
    names = rows.dtype.names[2:]
    coords = np.array([rows[name] for name in names]).reshape(len(names), len(rows)).T  # (N, d), also for d = 0
    labels = list(index)
    try:
        return AtomSpace(tuple(labels[i] for i in rows["id"].tolist()), coords, rows["w"])
    except ValueError as exc:
        raise AtomFileError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class PseudoMetricMatrix:
    """Pairwise kernel distances in atom order plus the scale-aware zero threshold."""

    d: np.ndarray
    quotient_tol: float


def _root_of_product(a: np.ndarray | float, b: float) -> np.ndarray:
    """``sqrt(a * b)`` for ``a, b >= 0``; ``sqrt(a) * sqrt(b)`` where the product overflows and the factors do not."""
    with np.errstate(over="ignore"):
        square = a * b
    over = np.isinf(square) & np.isfinite(a) & math.isfinite(b)
    return np.where(over, np.sqrt(a) * math.sqrt(b), np.sqrt(square)) if over.any() else np.sqrt(square)


def _quotient_tol(norms: np.ndarray, scale: float = 1.0) -> float:
    """Zero threshold of the metric from the spectral norms of the blocks ``K(x, x)``, times ``scale``."""
    top = float(norms.max(initial=0.0))
    return QUOTIENT_TOL_SCALE * (1.0 + float(_root_of_product(max(top, 0.0), scale)))


def _mirror_upper(d: np.ndarray) -> np.ndarray:
    """Symmetric matrix from the strict upper triangle of ``d``; zero diagonal."""
    upper = np.triu(d, 1)
    return _readonly(upper + upper.T)


def pseudo_metric(space: AtomSpace, kernel: MatrixKernel, blocks: np.ndarray | None = None) -> PseudoMetricMatrix:
    """Distance induced by the kernel sections.

    For atoms ``x, t`` the squared distance is the spectral norm of
    ``K(x,x) + K(t,t) - K(x,t) - K(t,x)``, which equals the squared operator
    gap ``sup_{|y| <= 1} |K_x y - K_t y|`` of the section maps, read off the core's Gram ``blocks`` if given.
    """
    blocks = gram(_factors(kernel)[0], space) if blocks is None else blocks
    upper, tol = _distances(kernel, blocks, *np.triu_indices(len(space), 1))  # the pairs x < t only
    d = np.zeros((len(space), len(space)))
    d[np.triu_indices(len(space), 1)] = upper
    return PseudoMetricMatrix(_readonly(d + d.T), tol)


def _distances(
    kernel: MatrixKernel, blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, float]:
    """Kernel distance between the atoms at the broadcast index arrays ``rows`` and ``cols``, and the zero threshold.

    Both are read off the core's Gram ``blocks`` and scaled by ``||B||_2``,
    the spectral norm of the Hermitian part of ``B`` (see :func:`_factors`).
    """
    _, matrix = _factors(kernel)
    diag = np.einsum("xxlj->xlj", blocks)
    delta = (diag[rows] + diag[cols]) - (blocks[rows, cols] + blocks[cols, rows])
    b_norm = float(_spectral_norms(matrix))
    return _root_of_product(_spectral_norms(delta), b_norm), _quotient_tol(_spectral_norms(diag), b_norm)


def pseudo_metric_prime(
    space: AtomSpace, kernel: MatrixKernel, blocks: np.ndarray | None = None
) -> PseudoMetricMatrix:
    """Trace flavour of the kernel distance.

    ``d'(x,t)^2 = tr K(x,x) + tr K(t,t) - 2 Re tr K(t,x)`` sums the squared
    section gaps over components, so ``d <= d' <= sqrt(n) d``.

    It is read off the kernel's core (see :func:`_factors`), its Gram
    ``blocks`` if given, as in :func:`pseudo_metric`: ``tr K = tr k * tr B``.
    ``tr B``, which may overflow where ``||B||_2`` does not, enters as
    ``||B||_2 * tr(B / ||B||_2)``, and the root as in :func:`_distances`.
    """
    core, matrix = _factors(kernel)
    blocks = gram(core, space) if blocks is None else blocks
    diag = np.einsum("xxlj->xlj", blocks)
    traces = np.trace(diag, axis1=1, axis2=2).real
    cross = np.trace(blocks, axis1=2, axis2=3).real.T
    gap = np.maximum(traces[:, None] + traces[None, :] - 2.0 * cross, 0.0)
    b_norm = float(_spectral_norms(matrix))
    share = float(np.sum(np.diagonal(matrix).real / b_norm)) if b_norm else 0.0
    d = _root_of_product(gap * share, b_norm)
    return PseudoMetricMatrix(_mirror_upper(d), _quotient_tol(_spectral_norms(diag), b_norm))


def _close_pairs(metric: PseudoMetricMatrix, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``x < t`` with ``d(x, t) <= tol``; ``tol`` is as in :func:`quotient`."""
    if tol is None:
        tol = metric.quotient_tol
    elif not (math.isfinite(tol := float(tol)) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return np.nonzero(np.triu(metric.d <= tol, 1))


def _components(size: int, i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Root of each of ``size`` atoms' connected component in the graph with edges ``(i, k)``.

    The root is the smallest atom index of the component.
    """
    root = np.arange(size)
    while True:
        lo, hi = np.minimum(root[i], root[k]), np.maximum(root[i], root[k])
        if np.array_equal(lo, hi):
            return root
        # hook the larger root of each close pair under the smaller, then flatten
        np.minimum.at(root, hi, lo)
        while not np.array_equal(root[root], root):
            root = root[root]


def quotient(space: AtomSpace, metric: PseudoMetricMatrix, tol: float | None = None) -> np.ndarray:
    """Class id of each atom, gluing atoms whose distance is at most ``tol`` (transitively closed).

    A read-only ``intp`` array of shape ``(N,)`` in atom order: ``classes[k]``
    is the class of atom ``k``, and classes are numbered ``0, 1, ...`` in order
    of their first atom.  ``tol`` defaults to ``metric.quotient_tol``; a
    negative or non-finite one raises ``ValueError``.
    """
    _, classes = np.unique(_components(len(space), *_close_pairs(metric, tol)), return_inverse=True)
    return _readonly(classes)


def support(space: AtomSpace, metric: PseudoMetricMatrix, tol: float | None = None) -> np.ndarray:
    """Mask of the atoms within ``tol`` of positive mass, transitively closed under ``tol``.

    A read-only ``bool`` array of shape ``(N,)`` in atom order: the atoms of
    the :func:`quotient` classes that hold positive mass; ``tol`` is as there.
    """
    return _holding_mass(space, quotient(space, metric, tol))


def _zero_mass_support(space: AtomSpace, kernel: MatrixKernel, blocks: np.ndarray) -> np.ndarray:
    """:func:`support` at the default ``tol``, from the distances of the zero-mass atoms only.

    Every positive-mass atom is in the support, and a path from a zero-mass
    atom to positive mass, cut at its first positive-mass atom, has only
    edges that touch a zero-mass atom.  So the ``Z x N`` distances from the
    ``Z`` zero-mass atoms, read off ``blocks``, decide the support.
    """
    # the distances as pseudo_metric computes them, on the zero-mass rows only
    zero = np.flatnonzero(space.mu <= 0)
    d, tol = _distances(kernel, blocks, zero[:, None], np.arange(len(space)))
    z, t = np.nonzero(d <= tol)
    return _holding_mass(space, _components(len(space), zero[z], t))


def _holding_mass(space: AtomSpace, classes: np.ndarray) -> np.ndarray:
    """Mask of the atoms whose class shares its id with a positive-mass atom; ``classes`` holds one id per atom."""
    return _readonly(np.isin(classes, classes[space.mu > 0]))


def merge_classes(space: AtomSpace, classes: np.ndarray) -> AtomSpace:
    """Collapse each :func:`quotient` class onto its first atom, summing weights in atom order."""
    _, first = np.unique(classes, return_index=True)
    masses = np.bincount(classes, weights=space.mu)
    return AtomSpace(tuple(space.labels[i] for i in first), space.coords[first], masses)
