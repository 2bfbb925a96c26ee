"""The reconstruction error table against the residual it is read from.

``reconstruction_error`` reads every row below the rank off the diagonal of
the remainder ``K - K_m``, unless a diagonal entry falls below the negated
reconstruction tolerance, and computes the full-rank row entry by entry.
Random spaces, subsets, truncation orders and rank cutoffs from
``hypothesis`` check it against the whole residual, updated one rank-one
term at a time, which is kept here as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ZOO, decompose_space, space_from, support_labels
from mercerkit import MatrixKernel, build_kernel, default_tol_recon, gram, reconstruction_error

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KERNELS = [build_kernel(spec) for _, spec in ZOO]


def reference_table(dec, labels, steps) -> list[float]:
    """``max |K - K_m|`` over all pairs and components of ``labels``, for each ``m`` in ``steps``."""
    idx = [dec.space.index(label) for label in labels]
    resid = gram(dec.kernel, dec.space, idx)
    f = dec.funcs[:, idx, :]
    table, done = [], 0
    for m in steps:
        for i in range(done, m):
            resid = resid - dec.sigmas[i] * np.einsum("xl,tj->xtlj", f[i], np.conj(f[i]))
        done = m
        table.append(float(np.max(np.abs(resid), initial=0.0)))
    return table


def diagonal_remainders(dec, labels, steps) -> list[np.ndarray]:
    """The real diagonal of ``K - K_m`` over ``labels``, for each ``m`` in ``steps``."""
    idx = [dec.space.index(label) for label in labels]
    diag = np.einsum("xxll->xl", gram(dec.kernel, dec.space, idx)).real
    f = dec.funcs[:, idx, :]
    return [diag - np.einsum("i,ixl->xl", dec.sigmas[:m], np.abs(f[:m]) ** 2) for m in steps]


@st.composite
def spaces(draw):
    """Up to 8 atoms on a coarse grid, so repeated atoms are common, with some zero masses."""
    n_atoms = draw(st.integers(1, 8))
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n_atoms, max_size=n_atoms))
    mu = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]), min_size=n_atoms, max_size=n_atoms))
    hypothesis.assume(any(mu))
    return space_from(np.array(cells, dtype=float) * 0.5, mu, labels=tuple(f"x{i}" for i in range(n_atoms)))


def kept_noise_space():
    """Six atoms at one point, two of zero mass: at ``rank_cutoff`` 0 the constant kernel keeps rounding-level
    eigenpairs (sigma = 1.75, 2.2e-17, 1.1e-32, 1.4e-49), extended to ``x0`` through ``1 / sigma`` (``f_2(x0)``
    is about 5.2e15), so the remainders ``K - K_m`` are not positive semidefinite."""
    return space_from(np.zeros((6, 2)), [0.0, 1.0, 1.0, 0.5, 0.5, 0.5], labels=tuple(f"x{i}" for i in range(6)))


class DefaultDraws:
    """Stands in for ``st.data()`` in an explicit example: every draw is ``None``, the default."""

    def draw(self, strategy):
        return None


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.example(
    space=kept_noise_space(), kernel=build_kernel(dict(ZOO)["constant"]), rank_cutoff=0.0, data=DefaultDraws()
)
@hypothesis.given(
    space=spaces(),
    kernel=st.sampled_from(KERNELS),
    rank_cutoff=st.sampled_from([None, 0.0, 0.3, 1e9]),
    data=st.data(),
)
def test_error_table_agrees_with_the_full_residual(space, kernel, rank_cutoff, data):
    dec = decompose_space(space, kernel, rank_cutoff=rank_cutoff)
    # off-support atoms, repeats and the empty subset are all allowed
    subset = data.draw(st.none() | st.lists(st.sampled_from(space.labels), max_size=10))
    ms = data.draw(st.none() | st.lists(st.integers(0, dec.rank), max_size=6))
    table = reconstruction_error(dec, subset, ms)

    steps = list(range(dec.rank + 1)) if ms is None else sorted(set(ms))
    assert [m for m, _ in table] == steps
    labels = support_labels(dec) if subset is None else subset
    expected = reference_table(dec, labels, steps)
    errors = [err for _, err in table]
    np.testing.assert_allclose(errors, expected, rtol=0, atol=default_tol_recon(dec))
    # rows read off the diagonal of the remainder are nonincreasing; exact rows, read where a diagonal
    # remainder falls below the floor, need not be
    if all(np.min(row, initial=0.0) >= -default_tol_recon(dec) for row in diagonal_remainders(dec, labels, steps)):
        below = [err for m, err in table if m < dec.rank]
        assert all(current <= previous for previous, current in zip(below, below[1:]))
    if steps and steps[-1] == dec.rank:
        assert errors[-1] == pytest.approx(expected[-1], rel=1e-12, abs=1e-14)


def test_full_rank_row_is_the_max_entry_of_an_indefinite_remainder():
    # K = [[1, 2], [2, 1]] has eigenvalues 3 and -1: the remainder after the one
    # positive term is [[-0.5, 0.5], [0.5, -0.5]], whose diagonal is negative
    table = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)

    def batch(space, rows, cols):
        return table[np.ix_(rows, cols)][:, :, None, None]

    kernel = MatrixKernel(n=1, batch=batch)
    dec = decompose_space(space_from([0.0, 1.0], [1.0, 1.0]), kernel)
    assert dec.rank == 1
    (m, err), = reconstruction_error(dec, ms=[1])
    assert m == 1
    assert err == pytest.approx(0.5, abs=1e-12)


def test_rows_with_a_negative_diagonal_remainder_are_exact():
    dec = decompose_space(kept_noise_space(), dict(ZOO)["constant"], rank_cutoff=0.0)
    assert dec.rank == 4
    table = reconstruction_error(dec)
    expected = reference_table(dec, support_labels(dec), range(5))
    # row 3 read off the diagonal gave 1.6e-15; its max entry is 0.287
    assert expected[3] == pytest.approx(0.2872, abs=1e-4)
    np.testing.assert_allclose([err for _, err in table], expected, rtol=0, atol=default_tol_recon(dec))
