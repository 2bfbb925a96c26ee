"""Shared test helpers: the kernel zoo and random atom space builders."""

from __future__ import annotations

import numpy as np

from mercerkit import (
    AtomSpace,
    MatrixKernel,
    RKHSElement,
    ScalarFrame,
    SpectralDecomposition,
    assemble_operator,
    build_kernel,
    eigendecompose,
    gram,
    rescale_measure,
)

# Every kernel description the package ships, with fixed parameters used
# across the suite.  Scalar kernels first, matrix-valued ones after.
ZOO: list[tuple[str, dict]] = [
    ("constant", {"type": "constant", "value": 1.0}),
    ("gaussian", {"type": "gaussian", "gamma": 1.0}),
    ("laplacian", {"type": "laplacian", "gamma": 0.7}),
    ("polynomial", {"type": "polynomial", "degree": 2, "offset": 1.0}),
    (
        "separable",
        {
            "type": "separable",
            "matrix": [[2.0, 1.0], [1.0, 2.0]],
            "scalar": {"type": "gaussian", "gamma": 0.8},
        },
    ),
    (
        "separable_complex",
        {
            "type": "separable",
            "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
            "scalar": {"type": "gaussian", "gamma": 1.2},
        },
    ),
    (
        "diagonal",
        {
            "type": "diagonal",
            "blocks": [{"type": "gaussian", "gamma": 1.0}, {"type": "laplacian", "gamma": 0.5}],
        },
    ),
    (
        "sum",
        {
            "type": "sum",
            "terms": [{"type": "gaussian", "gamma": 1.0}, {"type": "constant", "value": 0.5}],
        },
    ),
    (
        "diagonal3",
        {
            "type": "diagonal",
            "blocks": [
                {"type": "gaussian", "gamma": 1.0},
                {"type": "constant", "value": 1.0},
                {"type": "polynomial", "degree": 1, "offset": 0.5},
            ],
        },
    ),
]

ZOO_IDS = [name for name, _ in ZOO]

# finite, Hermitian and positive definite; tr K(x, x) = 2e308 and squared distances of about 2e308 overflow,
# while the weighted traces and the distances fit in a float
NEAR_MAX_SEPARABLE = {
    "type": "separable",
    "matrix": [[1e308, 0.0], [0.0, 1e308]],
    "scalar": {"type": "gaussian", "gamma": 1.0},
}


def random_space(
    rng: np.random.Generator, n_atoms: int, dim: int = 2, zero_mass: int = 0
) -> AtomSpace:
    """Atom space with N(0,1) positions and weights U(0.5, 1.5).

    The last ``zero_mass`` atoms get weight zero; weights stay well away
    from zero so the rescaled measure never degenerates.
    """
    coords = rng.standard_normal((n_atoms, dim))
    mu = rng.uniform(0.5, 1.5, size=n_atoms)
    if zero_mass:
        mu[-zero_mass:] = 0.0
    labels = tuple(f"x{i}" for i in range(n_atoms))
    return AtomSpace(labels=labels, coords=coords, mu=mu)


def space_from(coords, mu, labels=None) -> AtomSpace:
    """Small hand-built space; 1-d coord lists are fine."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    weights = np.asarray(mu, dtype=float)
    if labels is None:
        labels = tuple(chr(ord("a") + i) for i in range(len(weights)))
    return AtomSpace(labels=tuple(labels), coords=arr, mu=weights)


def delta_kernel(n: int = 1) -> MatrixKernel:
    """Identity matrix on equal atoms, zero elsewhere (label equality)."""
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    eye.setflags(write=False)
    zero.setflags(write=False)

    def ev(x, t):
        return eye if x.label == t.label else zero

    return MatrixKernel(n=n, eval=ev, label=f"delta({n})")


def rank_deficient_table(rng: np.random.Generator, n_atoms: int, rank: int, n: int = 2) -> MatrixKernel:
    """A complex block table ``F^H F`` of ``rank`` random rows, held as a kernel that looks its blocks up."""
    f = (rng.standard_normal((rank, n_atoms * n)) + 1j * rng.standard_normal((rank, n_atoms * n))) / np.sqrt(rank)
    flat = f.conj().T @ f
    blocks = (0.5 * (flat + flat.conj().T)).reshape(n_atoms, n, n_atoms, n).transpose(0, 2, 1, 3).copy()
    return MatrixKernel(n, label="table", batch=lambda space, rows, cols: blocks[np.ix_(rows, cols)])


def frames_of(labels, values: np.ndarray) -> list[ScalarFrame]:
    """One frame per component over ``labels``: ``values[i, x, j]`` is vector ``i`` of component ``j`` at atom ``x``."""
    return [ScalarFrame(tuple(labels), values[..., j]) for j in range(values.shape[2])]


def decompose_space(space: AtomSpace, spec, rank_cutoff: float | None = None) -> SpectralDecomposition:
    """Full pipeline shorthand: build, rescale, assemble, diagonalize."""
    kernel = build_kernel(spec) if isinstance(spec, dict) else spec
    nu = rescale_measure(space, kernel)
    op = assemble_operator(space, kernel, nu)
    return eigendecompose(op, rank_cutoff=rank_cutoff)


def support_labels(dec: SpectralDecomposition) -> tuple[str, ...]:
    """The labels of the atoms in the measure support of ``dec``, in atom order."""
    return tuple(dec.space.labels[i] for i in np.flatnonzero(dec.support))


def pointwise(dec: SpectralDecomposition, element: RKHSElement) -> np.ndarray:
    """Reference values of an element at every atom, shape ``(N, n)``.

    A spectral element is ``sum_i c_i sqrt(sigma_i) f_i``, a section element
    ``sum_s K(., s) y_s``.
    """
    if element.is_spectral:
        return np.einsum("i,ixl->xl", element.coeffs * np.sqrt(dec.sigmas), dec.funcs)
    sources = [dec.space.index(label) for label, _ in element.sections]
    ys = np.array([y for _, y in element.sections], dtype=complex).reshape(len(sources), dec.n)
    return np.einsum("tslm,sm->tl", gram(dec.kernel, dec.space, None, sources), ys)
