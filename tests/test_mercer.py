"""Series reconstruction, projections, inner products, and scalar frames."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    ZOO,
    ZOO_IDS,
    decompose_space,
    delta_kernel,
    pointwise,
    random_space,
    space_from,
    support_labels,
)
from mercerkit import (
    OffSupportError,
    RKHSElement,
    build_kernel,
    default_tol_eig,
    default_tol_recon,
    embedding_norm_bound_check,
    extract_frame,
    frame_check,
    gram,
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
    assert complex(reconstruct(dec, "a", "b")[0, 0]) == pytest.approx(1.0, abs=1e-13)


def test_reconstruct_validates_truncation_order():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError):
        reconstruct(dec, "a", "b", dec.rank + 1)
    with pytest.raises(ValueError):
        reconstruct(dec, "a", "b", -1)


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
    kernel = dec.kernel
    for label in support_labels(dec):
        ix = space.index(label)
        np.testing.assert_allclose(
            reconstruct(dec, label, label), gram(kernel, space, [ix], [ix])[0, 0], atol=tol
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
    for label in support_labels(dec):
        ix = space.index(label)
        diag = np.diag(gram(dec.kernel, space, [ix], [ix])[0, 0]).real.copy()
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
    labels = support_labels(dec)
    for m in (0, dec.rank // 2, dec.rank):
        diag_rem = {}
        for label in labels:
            ix = space.index(label)
            rem = gram(dec.kernel, space, [ix], [ix])[0, 0] - reconstruct(dec, label, label, m)
            diag_rem[label] = max(float(np.max(np.diag(rem).real)), 0.0)
        for x in labels:
            for t in labels:
                k_xt = gram(dec.kernel, space, [space.index(x)], [space.index(t)])[0, 0]
                rem = k_xt - reconstruct(dec, x, t, m)
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
        subset = support_labels(dec) if labels is None else labels
        idx = [space.index(label) for label in subset]
        k = gram(dec.kernel, space, idx)
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
    assert complex(reconstruct(dec, "c", "c")[0, 0]) == 0.0
    assert complex(gram(dec.kernel, space, [2], [2])[0, 0][0, 0]) == 1.0


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
    for i, label in enumerate(space.labels):
        column = gram(dec.kernel, space, [i], [2])[0, 0] @ y
        np.testing.assert_allclose(values[i], column, atol=1e-14)
        # the reproducing property: <K_s y, K_x e_l> = (K(x, s) y)_l
        for l in range(dec.n):
            probe = RKHSElement.from_sections([(label, np.eye(dec.n)[l])])
            assert rkhs_inner(h, probe, dec) == pytest.approx(column[l], abs=1e-14)


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


def test_project_names_an_unknown_atom_as_unknown():
    # "zz" is no atom of the space: unknown, as reconstruct and the section-section product say, not off the support
    space = space_from([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    unknown = RKHSElement.from_sections([("zz", [1.0])])
    spectral = RKHSElement.spectral([1.0] * dec.rank)
    calls = [
        lambda: project(unknown, dec),
        lambda: rkhs_inner(spectral, unknown, dec),
        lambda: rkhs_inner(unknown, unknown, dec),
        lambda: reconstruct(dec, "zz", "a"),
    ]
    for call in calls:
        with pytest.raises(KeyError, match="unknown atom id: 'zz'"):
            call()
    # the zero-mass atom b is known and off the support
    assert dec.support.tolist() == [True, False, True]
    with pytest.raises(OffSupportError, match="'b'"):
        project(RKHSElement.from_sections([("b", [1.0])]), dec)


def test_rkhs_inner_spectral_route():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    h1 = RKHSElement.spectral([2.0])
    h2 = RKHSElement.spectral([1.0 + 1.0j])
    assert rkhs_inner(h1, h2, dec) == pytest.approx(2.0 * (1.0 - 1.0j))


def test_spectral_elements_must_have_one_coefficient_per_eigenpair():
    space = space_from([0.0, 1.0, 2.5], [1.0, 1.0, 1.0])
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    assert dec.rank == 3
    short, full = RKHSElement.spectral([2.0]), RKHSElement.spectral([1.0, 2.0, 3.0])
    for other in (full, RKHSElement.from_sections([("a", [1.0])])):
        for pair in ((short, other), (other, short)):
            with pytest.raises(ValueError, match="^expected 3 coefficients, got 1$"):
                rkhs_inner(*pair, dec)
    with pytest.raises(ValueError, match="^expected 3 coefficients, got 1$"):
        embedding_norm_bound_check(short, dec)


def test_section_vectors_must_have_one_entry_per_component():
    space = space_from([0.0, 1.0, 2.5], [1.0, 1.0, 1.0])
    dec = decompose_space(space, {"type": "gaussian", "gamma": 1.0})
    assert (dec.rank, dec.n) == (3, 1)
    long, fine = RKHSElement.from_sections([("a", [1.0, 2.0])]), RKHSElement.from_sections([("b", [1.0])])
    message = r"^section at atom 'a': expected 1 entries, got 2$"
    for pair in ((long, fine), (fine, long), (long, RKHSElement.spectral([1.0, 2.0, 3.0]))):
        with pytest.raises(ValueError, match=message):
            rkhs_inner(*pair, dec)
    with pytest.raises(ValueError, match=message):
        project(long, dec)


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
        ix, it = space.index(x_label), space.index(t_label)
        expected = complex(gram(dec.kernel, space, [ix], [it])[0, 0][l, j])
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
        assert frame_check(frame, dec, j) <= 1e-13


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_frames_are_parseval_on_support(spec):
    rng = np.random.default_rng(113)
    space = random_space(rng, 10, dim=2, zero_mass=2)
    dec = decompose_space(space, spec)
    tol = default_tol_recon(dec)
    combos = []
    members = support_labels(dec)
    for _ in range(5):
        labels = list(rng.choice(members, size=min(3, len(members)), replace=False))
        coeffs = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        combos.append((labels, coeffs))
    for j in range(dec.n):
        deviation = frame_check(extract_frame(dec, j), dec, j, combinations=combos)
        assert deviation <= tol


def test_frame_check_requires_matching_atom_order():
    space = space_from([0.0, 1.0], [1.0, 1.0])
    dec = decompose_space(space, {"type": "constant", "value": 1.0})
    frame = extract_frame(dec, 0)
    other = space_from([0.0, 1.0], [1.0, 1.0], labels=("u", "v"))
    dec_other = decompose_space(other, {"type": "constant", "value": 1.0})
    with pytest.raises(ValueError, match="atom"):
        frame_check(frame, dec_other, 0)


def test_frame_check_after_file_round_trip(tmp_path):
    # the component comes from the caller, so a frame read back from a file
    # is checked against the diagonal block it was cut from
    spec = {"type": "diagonal", "blocks": [{"type": "gaussian", "gamma": 1.0}, {"type": "constant", "value": 3.0}]}
    rng = np.random.default_rng(8)
    dec = decompose_space(random_space(rng, 8, dim=2), spec)
    frame = extract_frame(dec, 1)
    path = tmp_path / "frame_j1.csv"
    write_frame(frame, path)
    back = read_frame(path)
    assert back.atoms == frame.atoms
    assert frame_check(back, dec, 1) <= 1e-12
    assert frame_check(back, dec, 1) == frame_check(frame, dec, 1)
    with pytest.raises(ValueError, match="component"):
        frame_check(back, dec, 2)


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
    for x in space.labels[:5]:
        for t in space.labels[:5]:
            np.testing.assert_allclose(
                reconstruct(dec, x, t), reconstruct(dec_shuffled, x, t), atol=tol
            )
    for j in range(dec.n):
        assert frame_check(extract_frame(dec, j), dec, j) <= tol
        assert frame_check(extract_frame(dec_shuffled, j), dec_shuffled, j) <= tol


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
