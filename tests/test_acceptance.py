"""Acceptance gate: one test per shipped guarantee.

Run ``pytest -sv tests/test_acceptance.py`` to see one verdict line per
criterion; each line reports PASS/FAIL with the measured margin.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import ZOO, decompose_space, delta_kernel, random_space, rank_deficient_table, space_from, support_labels
from mercerkit import (
    TOL_SYM,
    FrameFamily,
    MatrixKernel,
    RKHSElement,
    build_kernel,
    default_tol_eig,
    default_tol_recon,
    embedding_norm_bound_check,
    extract_frame,
    frame_check,
    gram,
    merge_classes,
    pseudo_metric,
    pseudo_metric_prime,
    quotient,
    reconstruct,
    read_precomputed,
    reconstruction_error,
    rkhs_inner,
    support,
    synthesize_kernel,
    truncate,
    validate_kernel,
    verify_diagonal_blocks,
)
from mercerkit.cli import main
from mercerkit.kernels import _flat


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_kernel_axioms(tmp_path):
    # every zoo kernel, 100 random atom sets each, N <= 50
    rng = np.random.default_rng(1001)
    worst_dev = 0.0
    worst_margin = np.inf
    for _, spec in ZOO:
        kernel = build_kernel(spec)
        for _ in range(100):
            n_atoms = int(rng.integers(2, 51))
            space = random_space(rng, n_atoms, dim=2)
            report = validate_kernel(kernel, space)
            worst_dev = max(worst_dev, report.hermitian_deviation)
            worst_margin = min(worst_margin, report.min_eigenvalue + report.tol_psd)
            if report.hermitian_deviation > 1e-12 or not report.psd_ok:
                break

    # two 2-atom tables, each read from its file, must fail one check each: [[1, 2], [2, 1]] has eigenvalue -1,
    # and the other's off-diagonal pair breaks Hermitian symmetry by 100 TOL_SYM
    planted = []
    for ab, ba in [(2.0, 2.0), (0.5, 0.5 + 100 * TOL_SYM)]:
        path = tmp_path / f"planted{len(planted)}.csv"
        rows = ["a,a,0,0,1.0,0.0", "b,b,0,0,1.0,0.0", f"a,b,0,0,{ab!r},0.0", f"b,a,0,0,{ba!r},0.0"]
        path.write_text("\n".join(["x_id,t_id,l,j,re,im", *rows]) + "\n")
        planted.append(validate_kernel(read_precomputed(path), space_from([0.0, 1.0], [1.0, 1.0])))
    indefinite, asymmetric = planted
    caught = (indefinite.hermitian_ok, indefinite.psd_ok, asymmetric.hermitian_ok, asymmetric.psd_ok)
    ok = worst_dev <= 1e-12 and worst_margin >= 0.0 and caught == (True, False, False, True)
    _verdict(
        1,
        "kernel axioms",
        ok,
        f"max hermitian deviation {worst_dev:.2e}, min PSD margin {worst_margin:.2e}; planted tables fail: "
        f"indefinite psd_ok {indefinite.psd_ok} (min eigenvalue {indefinite.min_eigenvalue:.2e}), "
        f"non-Hermitian hermitian_ok {asymmetric.hermitian_ok} (deviation {asymmetric.hermitian_deviation:.2e})",
    )


def test_criterion_02_trace_identity():
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    for _, spec in ZOO:
        space = random_space(rng, 25, dim=2, zero_mass=3)
        dec = decompose_space(space, spec)
        lhs, rhs = float(np.sum(dec.sigmas)), dec.nu.m_nu
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(rhs))

    # identity kernel over mu = (1, 3): both sides 2
    dec = decompose_space(space_from([0.0, 1.0], [1.0, 3.0]), delta_kernel(1))
    lhs, rhs = float(np.sum(dec.sigmas)), dec.nu.m_nu
    hand1 = rhs == 2.0 and lhs == pytest.approx(2.0, abs=1e-12)
    # constant kernel over mu = (1, 1): both sides 1
    dec = decompose_space(space_from([0.0, 1.0], [1.0, 1.0]), {"type": "constant", "value": 1.0})
    lhs, rhs = float(np.sum(dec.sigmas)), dec.nu.m_nu
    hand2 = rhs == 1.0 and lhs == pytest.approx(1.0, abs=1e-12)

    ok = worst_rel <= 1e-10 and hand1 and hand2
    _verdict(2, "trace identity", ok, f"max relative residual {worst_rel:.2e}, hand cases {hand1 and hand2}")


def test_criterion_03_series_reconstruction():
    rng = np.random.default_rng(1003)
    worst_ratio = 0.0
    monotone = True
    sizes = {"constant": 60, "gaussian": 100, "laplacian": 60, "polynomial": 60}
    for name, spec in ZOO:
        n_atoms = sizes.get(name, 40)
        space = random_space(rng, n_atoms, dim=2, zero_mass=4)
        dec = decompose_space(space, spec)
        tol_recon = default_tol_recon(dec)
        tol_eig = default_tol_eig(dec)
        table = reconstruction_error(dec, ms=[0, dec.rank // 2, dec.rank])
        worst_ratio = max(worst_ratio, table[-1][1] / tol_recon)

        # diagonal remainders K(x,x)_jj - sum_{i<m} sigma_i |f_i^j(x)|^2
        sup_ix = np.flatnonzero(dec.support)
        diag0 = np.array(
            [np.diag(gram(dec.kernel, space, [ix], [ix])[0, 0]).real for ix in sup_ix]
        )
        partial = np.cumsum(
            dec.sigmas[:, None, None] * np.abs(dec.funcs[:, sup_ix, :]) ** 2, axis=0
        )
        remainders = [float(np.max(diag0))]
        remainders += [float(np.max(diag0 - partial[m])) for m in range(dec.rank)]
        steps = np.diff(remainders)
        monotone = monotone and bool(np.all(steps <= tol_eig))
    ok = worst_ratio <= 1.0 and monotone
    _verdict(
        3,
        "series reconstruction",
        ok,
        f"worst full-rank error at {worst_ratio:.2e} of tolerance, diagonal monotone {monotone}",
    )


def test_criterion_04_support_restriction():
    # zero-mass atom under the identity kernel: the series cannot see it
    space = space_from([0.0, 1.0, 2.0], [1.0, 1.0, 0.0])
    dec = decompose_space(space, delta_kernel(1))
    synthesized = complex(reconstruct(dec, "c", "c")[0, 0])
    actual = complex(gram(dec.kernel, space, [2], [2])[0, 0][0, 0])
    ok = synthesized == 0.0 and actual == 1.0
    _verdict(4, "support restriction", ok, f"series value {synthesized}, kernel value {actual}")


def _sigma_gap(dec, other, scale: float = 1.0) -> float:
    """Largest gap between ``other``'s sigmas and ``scale`` times ``dec``'s, in units of the larger sigma_1."""
    if dec.rank != other.rank:
        return np.inf
    return float(np.max(np.abs(other.sigmas - scale * dec.sigmas))) / (scale * float(dec.sigmas[0]))


def _invariance_relations() -> tuple[bool, str]:
    """R1, R4 and R5: relations between two solves that follow from the operator's invariances, and their margins.

    30 atoms in [-2, 2]^2, 5 of zero mass, under a gaussian, that gaussian times a complex 3x3 ``B``, and a
    complex block table of rank 40 with n = 3.  Each relation's margin is its worst deviation.
    """
    rng = np.random.default_rng(1505)
    coords, mu = rng.uniform(-2.0, 2.0, (30, 2)), rng.uniform(0.5, 1.5, 30)
    mu[-5:] = 0.0
    labels = tuple(f"x{i}" for i in range(30))
    space = space_from(coords, mu, labels)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = a @ a.conj().T
    gaussian = {"type": "gaussian", "gamma": 0.7}

    def separable(matrix):
        return {"type": "separable", "matrix": [[[z.real, z.imag] for z in row] for row in matrix], "scalar": gaussian}

    # R1: an atom split into two co-located halves of its mass is one class, and the operator on X/~ is unchanged
    halves = np.append(mu, mu[0] / 2)
    halves[0] /= 2
    split = space_from(np.vstack([coords, coords[0]]), halves, labels + ("x0 half",))
    r1_gap, r1_classes = 0.0, []
    for spec in (gaussian, separable(b)):
        kernel = build_kernel(spec)
        r1_classes += [int(quotient(s, pseudo_metric(s, kernel)).max()) + 1 for s in (space, split)]
        r1_gap = max(r1_gap, _sigma_gap(decompose_space(space, kernel), decompose_space(split, kernel)))
    r1_ok = r1_classes == [30] * 4 and r1_gap <= 1e-10

    # R4: K' = U K U^H for a random unitary U: the same sigmas and distances, and a covariant series
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    table = rank_deficient_table(rng, 30, 40, n=3)
    turned = u @ gram(table, space) @ u.conj().T
    pairs = [
        (build_kernel(separable(b)), build_kernel(separable(u @ b @ u.conj().T))),
        (table, MatrixKernel(3, label="table", batch=lambda space, rows, cols: turned[np.ix_(rows, cols)])),
    ]
    r4_sigmas = r4_series = r4_metric = 0.0
    for kernel, rotated in pairs:
        dec, dec_rotated = decompose_space(space, kernel), decompose_space(space, rotated)
        r4_sigmas = max(r4_sigmas, _sigma_gap(dec, dec_rotated))
        tol_recon = default_tol_recon(dec)
        for x in labels[::3]:  # weighted and zero-mass atoms
            for t in labels[1::4]:
                expected = u @ reconstruct(dec, x, t) @ u.conj().T
                r4_series = max(r4_series, float(np.max(np.abs(reconstruct(dec_rotated, x, t) - expected))) / tol_recon)
        d = pseudo_metric(space, kernel).d
        r4_metric = max(r4_metric, float(np.max(np.abs(pseudo_metric(space, rotated).d - d))) / float(d.max()))
    r4_ok = r4_sigmas <= 1e-10 and r4_series <= 1.0 and r4_metric <= 1e-10

    # R5: mu -> 3 mu scales the operator, so its sigmas and the trace budget m_nu, by 3
    tripled = space_from(coords, 3 * mu, labels)
    r5_gap = 0.0
    for spec in (gaussian, separable(b)):
        dec, heavy = decompose_space(space, spec), decompose_space(tripled, spec)
        r5_gap = max(r5_gap, _sigma_gap(dec, heavy, 3.0), abs(heavy.nu.m_nu - 3 * dec.nu.m_nu) / (3 * dec.nu.m_nu))
    r5_ok = r5_gap <= 1e-10

    detail = (
        f"R1 split atom, 30->31 atoms: classes {r1_classes[0]}->{r1_classes[1]} and {r1_classes[2]}->{r1_classes[3]}, "
        f"sigmas within {r1_gap:.1e} of sigma_1; R4 U K U^H: sigmas within {r4_sigmas:.1e} of sigma_1, "
        f"series at {r4_series:.2e} of tolerance, metric within {r4_metric:.1e} of its largest distance; "
        f"R5 3 mu: sigmas and m_nu within {r5_gap:.1e} of 3 times"
    )
    return r1_ok and r4_ok and r5_ok, detail


def test_criterion_05_orthonormal_feature_family():
    rng = np.random.default_rng(1005)
    worst_hk = 0.0
    worst_l2 = 0.0
    spot_ok = True
    worst_imag, least_real = 0.0, np.inf
    for _, spec in ZOO:
        space = random_space(rng, 12, dim=2)
        full = decompose_space(space, spec)
        tol_recon = default_tol_recon(full)
        tol_eig = default_tol_eig(full)

        # kernel-space Gram of sqrt(sigma_i) f_i via the section expansion
        # v_i = sum_t K(.,t) f_i(t) nu_t / sqrt(sigma_i); ill-conditioned at
        # the spectral tail, so cut the relative rank at 1e-6
        dec = truncate(full, 1e-6 * float(full.sigmas[0]))
        block_gram = _flat(gram(dec.kernel, space))
        weights = dec.nu.weights
        y = (dec.funcs * weights[None, :, None]).reshape(dec.rank, -1).T
        y = y / np.sqrt(dec.sigmas)[None, :]
        hk_gram = y.conj().T @ block_gram @ y
        worst_hk = max(worst_hk, float(np.max(np.abs(hk_gram - np.eye(dec.rank)))) / tol_recon)

        # the same identity through the public inner product, spot-checked
        positive = weights > 0
        for _ in range(3):
            i, k = rng.integers(0, dec.rank, size=2)
            elements = []
            for idx in (i, k):
                pairs = [
                    (label, dec.funcs[idx, x] * weights[x] / np.sqrt(dec.sigmas[idx]))
                    for x, label in enumerate(space.labels)
                    if positive[x]
                ]
                elements.append(RKHSElement.from_sections(pairs))
            value = rkhs_inner(elements[0], elements[1], dec)
            expected = 1.0 if i == k else 0.0
            spot_ok = spot_ok and abs(value - expected) <= tol_recon

        # L2(nu) orthonormality F* D F = I at the default cutoff
        l2_gram = np.einsum("ixl,kxl,x->ik", full.funcs, np.conj(full.funcs), weights)
        worst_l2 = max(worst_l2, float(np.max(np.abs(l2_gram - np.eye(full.rank)))) / tol_eig)

        # phase convention: each eigenvector's first entry above 1e-12 of its peak is real positive
        pos = weights > 0
        vectors = (full.funcs[:, pos, :] * np.sqrt(weights[pos])[None, :, None]).reshape(full.rank, -1)
        mags = np.abs(vectors)
        peaks = mags.max(axis=1)
        lead = vectors[np.arange(full.rank), np.argmax(mags > 1e-12 * peaks[:, None], axis=1)] / peaks
        worst_imag = max(worst_imag, float(np.max(np.abs(lead.imag))))
        least_real = min(least_real, float(np.min(lead.real)))
    phase_ok = worst_imag <= 1e-12 and least_real > 0.0
    relations_ok, relations = _invariance_relations()
    ok = worst_hk <= 1.0 and worst_l2 <= 1.0 and spot_ok and phase_ok and relations_ok
    _verdict(
        5,
        "orthonormal feature family",
        ok,
        f"kernel-space Gram at {worst_hk:.2e} of tolerance, measure-space at {worst_l2:.2e}, spot checks {spot_ok}, "
        f"leading entries real positive: imaginary part at most {worst_imag:.1e}, real part at least {least_real:.2e} "
        f"of the peak; {relations}",
    )


def test_criterion_06_parseval_frames():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _, spec in ZOO:
        space = random_space(rng, 12, dim=2, zero_mass=3)
        dec = decompose_space(space, spec)
        tol_recon = default_tol_recon(dec)
        members = support_labels(dec)
        for j in range(dec.n):
            combos = []
            for _ in range(50):
                labels = list(rng.choice(members, size=min(3, len(members)), replace=False))
                coeffs = rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
                combos.append((labels, coeffs))
            deviation = frame_check(extract_frame(dec, j), dec, j, combinations=combos)
            worst = max(worst, deviation / tol_recon)
    ok = worst <= 1.0
    _verdict(6, "Parseval frames", ok, f"worst deviation at {worst:.2e} of tolerance")


def test_criterion_07_synthesis():
    rng = np.random.default_rng(1007)
    space = random_space(rng, 10, dim=2)

    # round trip: frames of two scalar kernels reproduce their diagonals
    specs = [{"type": "gaussian", "gamma": 1.0}, {"type": "gaussian", "gamma": 2.0}]
    frames = []
    tol_recon = 0.0
    for spec in specs:
        dec = decompose_space(space, spec)
        frames.append(extract_frame(dec, 0))
        tol_recon = max(tol_recon, default_tol_recon(dec))
    family = FrameFamily(space.labels, np.stack([f.values for f in frames], axis=2))
    synthesized = synthesize_kernel(family)
    round_trip = verify_diagonal_blocks(synthesized, [build_kernel(s) for s in specs], space)

    # arbitrary (non-Parseval) families still produce valid kernels
    families_ok = True
    for _ in range(50):
        count = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        values = rng.standard_normal((count, 10, n)) + 1j * rng.standard_normal((count, 10, n))
        report = validate_kernel(synthesize_kernel(FrameFamily(space.labels, values)), space)
        families_ok = families_ok and report.passed and report.hermitian_deviation <= 1e-12

    # halving one frame shrinks its diagonal block to a quarter
    base = decompose_space(space, specs[0])
    halved = FrameFamily(space.labels, 0.5 * extract_frame(base, 0).values[:, :, None])
    deviation = verify_diagonal_blocks(
        synthesize_kernel(halved), [build_kernel(specs[0])], space
    )
    kernel = build_kernel(specs[0])
    top = max(
        float(np.max(np.abs(gram(kernel, space, [x], [t])[0, 0])))
        for x in range(len(space))
        for t in range(len(space))
    )
    counterexample = abs(deviation - 0.75 * top) <= 1e-9

    ok = round_trip <= tol_recon and families_ok and counterexample
    _verdict(
        7,
        "synthesis",
        ok,
        f"round-trip deviation {round_trip:.2e}, 50 random families valid {families_ok}, "
        f"halved-frame deviation {deviation:.6f} vs {0.75 * top:.6f}",
    )


def test_criterion_08_quotient_and_support():
    rng = np.random.default_rng(1008)
    coords = rng.standard_normal((12, 2))
    coords[7] = coords[2]  # exact duplicates
    coords[11] = coords[5]
    mu = rng.uniform(0.5, 1.5, size=12)
    mu[11] = 0.0  # zero-mass duplicate still glues to its twin
    space = space_from(coords, mu)
    spec = {"type": "gaussian", "gamma": 1.0}
    kernel = build_kernel(spec)

    metric = pseudo_metric(space, kernel)
    classes = quotient(space, metric)
    class_count = int(classes.max()) + 1
    merged_count_ok = class_count == 10

    sup = support(space, metric)
    support_mass = float(np.sum(space.mu[sup]))
    mass_ok = support_mass == space.total_mass()

    merged = merge_classes(space, classes)
    dec = decompose_space(space, spec)
    dec_merged = decompose_space(merged, spec)
    tol_eig = default_tol_eig(dec)
    rank_ok = dec.rank == dec_merged.rank
    gap = float(np.max(np.abs(dec.sigmas - dec_merged.sigmas))) if rank_ok else np.inf

    # R2: a zero-mass copy of a weighted atom joins the support and that atom's class, and leaves the spectrum
    copied = space_from(np.vstack([coords, coords[0]]), np.append(mu, 0.0))
    copied_metric = pseudo_metric(copied, kernel)
    copied_classes = quotient(copied, copied_metric)
    joins = bool(support(copied, copied_metric)[12]) and copied_classes[12] == copied_classes[0]
    dec_copied = decompose_space(copied, spec)
    copy_gap = float(np.max(np.abs(dec.sigmas - dec_copied.sigmas))) if dec_copied.rank == dec.rank else np.inf
    copy_ok = joins and copy_gap <= tol_eig

    # R3: an atom at pseudo-distance 1.2e-5 from another is not glued to it; for this gaussian
    # d^2 = 2 - 2 exp(-gamma r^2), so the offset is r = sqrt(-log(1 - d^2 / 2) / gamma)
    offset = np.sqrt(-np.log1p(-(1.2e-5**2) / 2)) / np.sqrt(2.0)
    near = space_from(np.vstack([coords, coords[1] + offset]), np.append(mu, 1.0))
    near_metric = pseudo_metric(near, kernel)
    near_distance = float(near_metric.d[1, 12])
    near_classes = quotient(near, near_metric)
    apart = near_classes[12] not in near_classes[:12]

    ok = merged_count_ok and mass_ok and rank_ok and gap <= tol_eig and copy_ok and apart
    _verdict(
        8,
        "quotient and support",
        ok,
        f"classes 12->{class_count}, support mass exact {mass_ok}, spectrum gap {gap:.2e}; "
        f"R2 zero-mass copy joins support and class {joins}, spectrum gap {copy_gap:.2e}; "
        f"R3 atom at distance {near_distance:.2e} own class {apart}",
    )


def test_criterion_09_eigenfunction_continuity():
    rng = np.random.default_rng(1009)
    worst = -np.inf
    for _, spec in ZOO:
        space = random_space(rng, 30, dim=2, zero_mass=3)
        dec = decompose_space(space, spec)
        tol_eig = default_tol_eig(dec)
        dprime = pseudo_metric_prime(space, dec.kernel, dec.nu.core_gram).d
        sup_ix = np.flatnonzero(dec.support)
        d_sub = dprime[np.ix_(sup_ix, sup_ix)]
        for i in range(dec.rank):
            f_sub = dec.funcs[i, sup_ix, :]
            gaps = np.abs(f_sub[:, None, :] - f_sub[None, :, :])
            bound = d_sub[:, :, None] / np.sqrt(float(dec.sigmas[i])) + tol_eig
            worst = max(worst, float(np.max(gaps - bound)))
    ok = worst <= 0.0
    _verdict(9, "eigenfunction continuity", ok, f"max excess over bound {worst:.2e}")


def test_criterion_10_embedding_norm_bound():
    rng = np.random.default_rng(1010)
    worst = -np.inf
    for _, spec in ZOO:
        space = random_space(rng, 12, dim=2, zero_mass=2)
        dec = decompose_space(space, spec)
        tol_eig = default_tol_eig(dec)
        for _ in range(50):
            coeffs = rng.standard_normal(dec.rank) + 1j * rng.standard_normal(dec.rank)
            l2_sq, bound = embedding_norm_bound_check(RKHSElement.spectral(coeffs), dec)
            worst = max(worst, l2_sq - bound - tol_eig)
    ok = worst <= 0.0
    _verdict(10, "embedding norm bound", ok, f"max excess over bound {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text(
        "id,w,c1,c2\n"
        "a,1.0,0.0,0.0\n"
        "b,0.5,1.0,-0.5\n"
        "c,2.0,0.25,1.5\n"
        "d,0.0,3.0,3.0\n"
        "e,1.25,-1.0,0.75\n"
    )
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"type": "gaussian", "gamma": 1.0}))
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        code = main(["decompose", "--atoms", str(atoms), "--kernel", str(kernel), "--out", str(out)])
        assert code == 0
    names = ["spectrum.csv", "eigenfunctions.csv", "report.json", "report.txt"]
    identical = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names)
    _verdict(11, "CLI determinism", identical, f"{len(names)} output files byte-compared")
