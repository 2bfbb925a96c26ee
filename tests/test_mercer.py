"""Series reconstruction, projections, inner products, and scalar frames."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ZOO, ZOO_IDS, decompose_space, delta_kernel, random_space, space_from
from mercerkit import (
    MercerExpansion,
    OffSupportError,
    RKHSElement,
    build_kernel,
    default_tol_eig,
    default_tol_recon,
    extract_frame,
    frame_check,
    gram,
    pointwise,
    project,
    read_frame,
    reconstruct,
    reconstruction_error,
    rkhs_inner,
    truncate,
    write_error_table,
    write_frame,
)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_constant_kernel_hand():
    # single eigenpair sigma=1, f=1: the one-term series is exactly K
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    exp = MercerExpansion(dec, dec.rank)
    assert complex(reconstruct(exp, "a", "b")[0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_reconstruct_validates_truncation_order():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        MercerExpansion(dec, dec.rank + 1)
    with pytest.raises(ValueError):
        MercerExpansion(dec, -1)


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_full_rank_reconstruction(spec):
    rng = np.random.default_rng(71)
    space = random_space(rng, 14, dim=2, zero_mass=3)
    dec = decompose_space(space, spec)
    tol = default_tol_recon(dec)
    table = reconstruction_error(dec)
    assert table[-1][0] == dec.rank
    assert table[-1][1] <= tol
    # the partial series converges pointwise on the support too
    exp = MercerExpansion(dec, dec.rank)
    kernel = dec.kernel
    for label in dec.support.members:
        atom = space.atoms[space.index(label)]
        np.testing.assert_allclose(
            reconstruct(exp, label, label), np.asarray(kernel.eval(atom, atom)), atol=tol
        )


def test_error_table_starts_at_max_kernel_entry():
    rng = np.random.default_rng(73)
    space = random_space(rng, 8, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    table = reconstruction_error(dec, ms=[0])
    assert table[0][0] == 0
    assert table[0][1] == pytest.approx(1.0, abs=1e-12)  # gaussian peaks on the diagonal


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_error_table_nonincreasing(spec):
    rng = np.random.default_rng(79)
    space = random_space(rng, 10, dim=2)
    dec = decompose_space(space, spec)
    tol = default_tol_eig(dec)
    errors = [err for _, err in reconstruction_error(dec)]
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + tol


def test_diagonal_remainders_monotone_and_nonnegative():
    rng = np.random.default_rng(83)
    space = random_space(rng, 9, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    tol = default_tol_eig(dec)
    for label in dec.support.members:
        ix = space.index(label)
        atom = space.atoms[ix]
        diag = np.diag(np.asarray(dec.kernel.eval(atom, atom))).real.copy()
        remainders = [float(np.max(diag))]
        for i in range(dec.rank):
            diag = diag - dec.sigmas[i] * np.abs(dec.funcs[i, ix]) ** 2
            remainders.append(float(np.max(diag)))
        for previous, current in zip(remainders, remainders[1:]):
            assert current <= previous + tol
        assert remainders[-1] >= -tol


def test_off_diagonal_remainder_bounded_by_diagonals():
    rng = np.random.default_rng(89)
    space = random_space(rng, 8, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    tol = default_tol_eig(dec)
    labels = dec.support.members
    for m in (0, dec.rank // 2, dec.rank):
        exp = MercerExpansion(dec, m)
        diag_rem = {}
        for label in labels:
            atom = space.atoms[space.index(label)]
            rem = np.asarray(dec.kernel.eval(atom, atom)) - reconstruct(exp, label, label)
            diag_rem[label] = max(float(np.max(np.diag(rem).real)), 0.0)
        for x in labels:
            for t in labels:
                ax = space.atoms[space.index(x)]
                at = space.atoms[space.index(t)]
                rem = np.asarray(dec.kernel.eval(ax, at)) - reconstruct(exp, x, t)
                bound = np.sqrt(diag_rem[x] * diag_rem[t]) + tol
                assert np.max(np.abs(rem)) <= bound


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_reconstruction_error_matches_einsum_reference(spec):
    rng = np.random.default_rng(73)
    space = random_space(rng, 12, dim=2, zero_mass=3)
    dec = decompose_space(space, spec)
    for labels, ms in (
        (None, None),
        (["x0", "x10", "x4", "x11"], [dec.rank, 0, dec.rank // 2, 0]),
        (["x9"], [1]),
        ([], None),
    ):
        subset = dec.support.members if labels is None else labels
        idx = [space.index(label) for label in subset]
        k = gram(dec.kernel, [space.atoms[i] for i in idx])
        f = dec.funcs[:, idx, :]
        steps = range(dec.rank + 1) if ms is None else sorted(set(ms))
        expected = []
        for m in steps:
            km = np.einsum("i,isl,itj->stlj", dec.sigmas[:m], f[:m], np.conj(f[:m]))
            expected.append(float(np.max(np.abs(k - km))) if k.size else 0.0)
        table = reconstruction_error(dec, labels, ms)
        assert [m for m, _ in table] == list(steps)
        np.testing.assert_allclose([err for _, err in table], expected, rtol=0, atol=1e-12)


def test_reconstruction_error_validates_input():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        reconstruction_error(dec, ms=[dec.rank + 1])
    with pytest.raises(KeyError, match="unknown atom id"):
        reconstruction_error(dec, subset=["nope"])


def test_reconstruction_differs_off_support():
    # zero-mass isolated atom: the series vanishes there but the kernel does not
    space = space_from([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    dec = decompose_space(space, delta_kernel(1))
    exp = MercerExpansion(dec, dec.rank)
    assert complex(reconstruct(exp, "c", "c")[0, 0]) == 0.0
    atom = space.atoms[2]
    assert complex(dec.kernel.eval(atom, atom)[0, 0]) == 1.0


# ---------------------------------------------------------------------------
# elements: pointwise evaluation, projection, inner products
# ---------------------------------------------------------------------------


def test_pointwise_section_is_kernel_column():
    rng = np.random.default_rng(97)
    space = random_space(rng, 6, dim=2)
    spec = {
        "type": "separable",
        "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
        "scalar": {"type": "gaussian", "gamma": 1.2},
    }
    dec = decompose_space(space, spec)
    y = np.array([0.3, -0.7 + 0.2j])
    h = RKHSElement.from_sections([("x2", y)])
    values = pointwise(dec, h)
    source = space.atoms[2]
    for i, atom in enumerate(space.atoms):
        np.testing.assert_allclose(values[i], np.asarray(dec.kernel.eval(atom, source)) @ y, atol=1e-14)


def test_project_then_pointwise_round_trips_sections():
    rng = np.random.default_rng(101)
    space = random_space(rng, 8, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    y = np.array([1.0 - 0.5j])
    section = RKHSElement.from_sections([("x1", y), ("x4", [0.25])])
    coeffs = project(section, dec)
    assert coeffs.is_spectral
    np.testing.assert_allclose(
        pointwise(dec, coeffs), pointwise(dec, section), atol=default_tol_recon(dec)
    )


def test_project_off_support_raises():
    space = space_from([0.0, 1.0, 50.0], [1.0, 1.0, 0.0])
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    section = RKHSElement.from_sections([("c", [1.0])])
    with pytest.raises(OffSupportError, match="'c'"):
        project(section, dec)


def test_rkhs_inner_spectral_route():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    h1 = RKHSElement.spectral([2.0])
    h2 = RKHSElement.spectral([1.0 + 1.0j])
    assert rkhs_inner(h1, h2, dec) == pytest.approx(2.0 * (1.0 - 1.0j))


def test_rkhs_inner_section_route_equals_kernel_entry():
    rng = np.random.default_rng(103)
    spec = {
        "type": "separable",
        "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
        "scalar": {"type": "gaussian", "gamma": 1.2},
    }
    space = random_space(rng, 5, dim=2)
    dec = decompose_space(space, spec)
    # <K_t e_j, K_x e_l> = K(x,t)_{lj}
    for (t_label, j, x_label, l) in [("x0", 0, "x1", 1), ("x3", 1, "x2", 0)]:
        h1 = RKHSElement.from_sections([(t_label, np.eye(2)[j])])
        h2 = RKHSElement.from_sections([(x_label, np.eye(2)[l])])
        t_atom = space.atoms[space.index(t_label)]
        x_atom = space.atoms[space.index(x_label)]
        expected = complex(np.asarray(dec.kernel.eval(x_atom, t_atom))[l, j])
        assert rkhs_inner(h1, h2, dec) == pytest.approx(expected, abs=1e-14)


def test_rkhs_inner_mixed_route_is_reproducing():
    # <h, K_x e_j> recovers the j-th component of h at x
    rng = np.random.default_rng(107)
    space = random_space(rng, 7, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    coeffs = rng.standard_normal(dec.rank) + 1j * rng.standard_normal(dec.rank)
    h = RKHSElement.spectral(coeffs)
    values = pointwise(dec, h)
    for label in ("x0", "x3", "x6"):
        section = RKHSElement.from_sections([(label, [1.0])])
        inner = rkhs_inner(h, section, dec)
        assert inner == pytest.approx(complex(values[space.index(label), 0]), abs=1e-10)


def test_rkhs_inner_dual_routes_agree():
    # section Gram versus projected-coefficient contraction
    rng = np.random.default_rng(109)
    space = random_space(rng, 8, dim=2)
    full = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    dec = truncate(full, 1e-6 * float(full.sigmas[0]))
    pairs1 = [("x0", [0.6]), ("x2", [-0.3 + 0.4j])]
    pairs2 = [("x1", [1.0]), ("x5", [0.25j])]
    h1 = RKHSElement.from_sections(pairs1)
    h2 = RKHSElement.from_sections(pairs2)
    direct = rkhs_inner(h1, h2, dec)
    spectral = rkhs_inner(project(h1, dec), project(h2, dec), dec)
    assert spectral == pytest.approx(direct, abs=default_tol_recon(dec))


# ---------------------------------------------------------------------------
# scalar frames
# ---------------------------------------------------------------------------


def test_frame_values_ones_for_rank_one_separable():
    # B = [[1,1],[1,1]] times the constant scalar kernel: sigma = 4/3 and both
    # component frames are identically 1, Parseval for K_j = 1
    spec = {
        "type": "separable",
        "matrix": [[1.0, 1.0], [1.0, 1.0]],
        "scalar": {"type": "constant", "value": 1.0},
    }
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, spec)
    assert dec.rank == 1
    assert float(dec.sigmas[0]) == pytest.approx(4.0 / 3.0, rel=1e-14)
    for j in range(2):
        frame = extract_frame(dec, j)
        np.testing.assert_allclose(frame.values, np.ones((1, 2)), atol=1e-13)
        assert frame_check(frame, dec) <= 1e-13


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_frames_are_parseval_on_support(spec):
    rng = np.random.default_rng(113)
    space = random_space(rng, 10, dim=2, zero_mass=2)
    dec = decompose_space(space, spec)
    tol = default_tol_recon(dec)
    combos = []
    members = dec.support.members
    for _ in range(5):
        labels = list(rng.choice(members, size=min(3, len(members)), replace=False))
        coeffs = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        combos.append((labels, coeffs))
    for j in range(dec.n):
        deviation = frame_check(extract_frame(dec, j), dec, combinations=combos)
        assert deviation <= tol


def test_frame_check_requires_matching_atom_order():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    frame = extract_frame(dec, 0)
    other = space_from([0.0, 1.0], [1.0, 1.0], labels=("u", "v"))
    dec_other = decompose_space(other, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError, match="atom"):
        frame_check(frame, dec_other)


def test_extract_frame_rejects_bad_component():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        extract_frame(dec, 1)


# ---------------------------------------------------------------------------
# invariance under atom reordering
# ---------------------------------------------------------------------------


def test_series_invariant_under_atom_permutation():
    rng = np.random.default_rng(127)
    space = random_space(rng, 9, dim=2)
    perm = rng.permutation(len(space))
    shuffled = space_from(
        space.coords[perm], space.mu[perm], labels=tuple(space.labels[p] for p in perm)
    )
    spec = {"type": "gaussian", "gamma": 1.0}
    dec = decompose_space(space, spec)
    dec_shuffled = decompose_space(shuffled, spec)
    tol = default_tol_recon(dec)
    exp = MercerExpansion(dec, dec.rank)
    exp_shuffled = MercerExpansion(dec_shuffled, dec_shuffled.rank)
    for x in space.labels[:5]:
        for t in space.labels[:5]:
            np.testing.assert_allclose(
                reconstruct(exp, x, t), reconstruct(exp_shuffled, x, t), atol=tol
            )
    for j in range(dec.n):
        assert frame_check(extract_frame(dec, j), dec) <= tol
        assert frame_check(extract_frame(dec_shuffled, j), dec_shuffled) <= tol


# ---------------------------------------------------------------------------
# frame and table files
# ---------------------------------------------------------------------------


def test_write_error_table_format(tmp_path):
    path = tmp_path / "errors.csv"
    write_error_table([(0, 1.0), (1, 0.25)], path)
    lines = path.read_text().splitlines()
    assert lines == ["m,max_abs_error", "0,1.0", "1,0.25"]


def test_frame_roundtrip(tmp_path):
    rng = np.random.default_rng(131)
    space = random_space(rng, 6, dim=2)
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    frame = extract_frame(dec, 0)
    path = tmp_path / "frame.csv"
    write_frame(frame, path)
    back = read_frame(path)
    assert back.atoms == frame.atoms
    np.testing.assert_allclose(back.values, frame.values, atol=1e-16)


def test_read_frame_fills_missing_values_with_zero(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text(
        "i,atom_id,value_re,value_im\n"
        "0,a,1.0,0.0\n"
        "0,b,2.0,0.0\n"
        "1,b,3.0,-1.0\n"
    )
    frame = read_frame(path)
    assert frame.atoms == ("a", "b")
    np.testing.assert_array_equal(frame.values, [[1.0, 2.0], [0.0, 3.0 - 1.0j]])
