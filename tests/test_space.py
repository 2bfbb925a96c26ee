"""Atom loading, the kernel pseudo-metric, quotient classes, and support."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import (
    NEAR_MAX_SEPARABLE,
    ZOO,
    ZOO_IDS,
    decompose_space,
    delta_kernel,
    random_space,
    rank_deficient_table,
    space_from,
)
from mercerkit import (
    AtomFileError,
    AtomSpace,
    ScalarFrame,
    build_kernel,
    gram,
    load_atoms,
    merge_classes,
    pseudo_metric,
    pseudo_metric_prime,
    quotient,
    support,
    write_frame,
    write_precomputed,
)
from mercerkit import space as space_module
from mercerkit.kernels import _factors, _spectral_norms
from mercerkit.space import _zero_mass_support


def zero_mass_support(space, kernel):
    """``_zero_mass_support`` read off the core's Gram over every atom, as a decomposition hands it on."""
    return _zero_mass_support(space, kernel, gram(_factors(kernel)[0], space))


def labels_of(space, mask):
    """The labels of the atoms a support mask holds, in atom order."""
    return tuple(np.array(space.labels, dtype=object)[mask])


def first_atoms(space, classes):
    """The label of each quotient class's first atom, by class id."""
    return tuple(space.labels[i] for i in np.unique(classes, return_index=True)[1])


# ---------------------------------------------------------------------------
# file loading and AtomSpace validation
# ---------------------------------------------------------------------------


def test_load_atoms_roundtrip(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("id,w,c1,c2\na,1.0,0.0,2.5\nb,0.0,1.0,-3.0\nc,2.25,4.0,0.5\n")
    space = load_atoms(path)
    assert space.labels == ("a", "b", "c")
    assert space.coords.shape == (3, 2)
    np.testing.assert_array_equal(space.mu, [1.0, 0.0, 2.25])
    np.testing.assert_array_equal(space.coords, [[0.0, 2.5], [1.0, -3.0], [4.0, 0.5]])
    assert space.total_mass() == 3.25
    assert space.index("b") == 1


def test_load_atoms_rejects_bad_header(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("name,weight,c1\na,1.0,0.0\n")
    with pytest.raises(AtomFileError, match="header"):
        load_atoms(path)


def test_load_atoms_rejects_non_numeric_with_line(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("id,w,c1\na,1.0,0.0\nb,oops,1.0\n")
    with pytest.raises(AtomFileError, match="line 3"):
        load_atoms(path)


def test_load_atoms_rejects_negative_weight(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("id,w,c1\na,-0.5,0.0\n")
    with pytest.raises(AtomFileError):
        load_atoms(path)


def test_load_atoms_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("id,w,c1\na,1.0,0.0\na,1.0,1.0\n")
    with pytest.raises(AtomFileError):
        load_atoms(path)


def test_atom_space_validates_shapes():
    with pytest.raises(ValueError):
        AtomSpace(labels=(), coords=np.zeros((0, 1)), mu=np.zeros(0))
    with pytest.raises(ValueError):
        AtomSpace(labels=("a",), coords=np.zeros((2, 1)), mu=np.ones(1))
    with pytest.raises(ValueError):
        AtomSpace(labels=("a",), coords=np.array([[np.nan]]), mu=np.ones(1))
    with pytest.raises(ValueError, match="^mu must provide one weight per atom$"):
        AtomSpace(labels=("a", "b"), coords=np.zeros((2, 1)), mu=np.ones(1))
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(KeyError, match="unknown atom id"):
        space.index("zzz")


# ---------------------------------------------------------------------------
# pseudo-metric values
# ---------------------------------------------------------------------------


def test_gaussian_metric_hand_value():
    # d^2 = K(a,a) + K(b,b) - 2 K(a,b) = 2 - 2/e for unit-gamma Gaussian at 0, 1
    space = space_from([0.0, 1.0], [1.0, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    metric = pseudo_metric(space, kernel)
    expected = math.sqrt(2.0 - 2.0 * math.exp(-1.0))
    assert abs(metric.d[space.index("a"), space.index("b")] - expected) < 1e-14
    assert metric.d[space.index("a"), space.index("a")] == 0.0
    prime = pseudo_metric_prime(space, kernel)
    assert abs(prime.d[space.index("a"), space.index("b")] - expected) < 1e-14


def test_constant_kernel_metric_is_zero():
    space = space_from([0.0, 7.0], [1.0, 1.0])
    kernel = build_kernel({"type": "constant", "value": 1.0})
    metric = pseudo_metric(space, kernel)
    assert np.all(metric.d == 0.0)
    q = quotient(space, metric)
    assert first_atoms(space, q) == ("a",)
    assert q.tolist() == [0, 0]
    prime = pseudo_metric_prime(space, kernel)
    assert np.all(prime.d == 0.0)


def test_identity_block_kernel_saturates_norm_ratio():
    # K(x,x) = I_2, cross blocks zero: d = sqrt(2), d' = 2 = sqrt(n) * d
    space = space_from([0.0, 1.0], [1.0, 1.0])
    kernel = delta_kernel(2)
    ab = space.index("a"), space.index("b")
    d = pseudo_metric(space, kernel).d[ab]
    dp = pseudo_metric_prime(space, kernel).d[ab]
    assert abs(d - math.sqrt(2.0)) < 1e-14
    assert abs(dp - 2.0) < 1e-14


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_metric_axioms_and_norm_bounds(spec):
    rng = np.random.default_rng(hash(str(spec)) % (2**32))
    kernel = build_kernel(spec)
    space = random_space(rng, 12, dim=2)
    metric = pseudo_metric(space, kernel)
    prime = pseudo_metric_prime(space, kernel)
    d, dp = metric.d, prime.d

    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), np.zeros(len(space)))
    count = len(space)
    for i in range(count):
        for k in range(count):
            for m in range(count):
                assert d[i, m] <= d[i, k] + d[k, m] + 1e-12
    # operator norm vs trace norm sandwich, slack matching the contract
    root_n = math.sqrt(kernel.n)
    assert np.all(dp <= root_n * d + 1e-9)
    assert np.all(d <= dp + 1e-9)


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_merges_by_transitive_closure():
    # consecutive gaps fall inside the threshold, the end-to-end gap does not
    eps = 2e-8
    space = space_from([0.0, eps, 2 * eps], [1.0, 1.0, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    metric = pseudo_metric(space, kernel)
    tol = 3e-8
    assert metric.d[space.index("a"), space.index("b")] <= tol
    assert metric.d[space.index("b"), space.index("c")] <= tol
    assert metric.d[space.index("a"), space.index("c")] > tol
    q = quotient(space, metric, tol)
    assert q.tolist() == [0, 0, 0]
    assert first_atoms(space, q) == ("a",)


def test_quotient_separates_distant_atoms_by_default():
    space = space_from([0.0, 1.0, 5.0], [1.0, 1.0, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    q = quotient(space, pseudo_metric(space, kernel))
    assert q.tolist() == [0, 1, 2]
    assert first_atoms(space, q) == ("a", "b", "c")


def test_quotient_class_ids_follow_first_occurrence():
    space = space_from([0.0, 5.0, 0.0, 9.0, 5.0], [1.0] * 5)
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    q = quotient(space, pseudo_metric(space, kernel))
    # q[k] is the class of atom k, a read-only intp array in atom order
    assert q.tolist() == [0, 1, 0, 2, 1]
    assert q.dtype == np.intp and q.shape == (len(space),) and not q.flags.writeable
    assert first_atoms(space, q) == ("a", "b", "d")
    assert [labels_of(space, q == c) for c in range(3)] == [("a", "c"), ("b", "e"), ("d",)]


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "gaussian", "gamma": 1.0},
        {
            "type": "separable",
            "matrix": [[2.0, 1.0], [1.0, 2.0]],
            "scalar": {"type": "gaussian", "gamma": 0.8},
        },
    ],
    ids=["gaussian", "separable"],
)
def test_quotient_respects_kernel_values(spec):
    # atoms identified by the quotient have indistinguishable kernel columns
    kernel = build_kernel(spec)
    delta = 1e-9
    space = space_from([0.0, delta, 3.0, 3.0 + delta, 7.0], [1.0] * 5)
    metric = pseudo_metric(space, kernel)
    q = quotient(space, metric)
    assert q.tolist() == [0, 0, 1, 1, 2]
    diag_norm = max(
        float(np.linalg.norm(gram(kernel, space, [s], [s])[0, 0], 2)) for s in range(len(space))
    )
    bound = kernel.n * metric.quotient_tol * (1.0 + math.sqrt(diag_norm))
    for x, t in [(0, 1), (2, 3)]:
        for s in range(len(space)):
            dev = np.max(np.abs(gram(kernel, space, [s], [x])[0, 0] - gram(kernel, space, [s], [t])[0, 0]))
            assert dev <= bound


def test_merge_classes_sums_masses_onto_representatives():
    space = space_from([0.0, 5.0, 0.0], [1.0, 2.0, 0.25])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    merged = merge_classes(space, quotient(space, pseudo_metric(space, kernel)))
    assert merged.labels == ("a", "b")
    np.testing.assert_array_equal(merged.mu, [1.25, 2.0])
    np.testing.assert_array_equal(merged.coords, [[0.0], [5.0]])


def test_merge_classes_identity_when_all_distinct():
    space = space_from([0.0, 2.0], [1.0, 1.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    merged = merge_classes(space, quotient(space, pseudo_metric(space, kernel)))
    assert merged.labels == space.labels
    np.testing.assert_array_equal(merged.mu, space.mu)


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


def test_support_drops_isolated_zero_mass_atoms():
    space = space_from([0.0, 1.0, 50.0], [1.0, 3.0, 0.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    sup = support(space, pseudo_metric(space, kernel))
    # a read-only bool mask in atom order
    assert sup.dtype == bool and sup.shape == (len(space),) and not sup.flags.writeable
    assert sup.tolist() == [True, True, False]
    assert labels_of(space, sup) == ("a", "b")
    assert np.count_nonzero(sup) == 2


def test_support_closure_chains_through_zero_mass_atoms():
    eps = 2e-8
    space = space_from([0.0, eps, 2 * eps, 40.0], [1.0, 0.0, 0.0, 0.0])
    kernel = build_kernel({"type": "gaussian", "gamma": 1.0})
    metric = pseudo_metric(space, kernel)
    tol = 3e-8
    # c is farther than tol from the only massive atom; it joins through b
    assert metric.d[space.index("a"), space.index("c")] > tol
    sup = support(space, metric, tol)
    assert labels_of(space, sup) == ("a", "b", "c")


@pytest.mark.parametrize("spec", [spec for _, spec in ZOO], ids=ZOO_IDS)
def test_support_has_full_measure(spec):
    rng = np.random.default_rng(99)
    kernel = build_kernel(spec)
    space = random_space(rng, 15, dim=2, zero_mass=4)
    sup = support(space, pseudo_metric(space, kernel))
    mass = float(np.sum(space.mu[sup]))
    assert mass == space.total_mass()


def test_metric_prime_matches_trace_formula():
    rng = np.random.default_rng(3)
    kernel = build_kernel(
        {
            "type": "separable",
            "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
            "scalar": {"type": "gaussian", "gamma": 1.2},
        }
    )
    space = random_space(rng, 6, dim=2)
    prime = pseudo_metric_prime(space, kernel)
    for i in range(len(space)):
        for k in range(len(space)):
            kxx = np.trace(gram(kernel, space, [i], [i])[0, 0]).real
            ktt = np.trace(gram(kernel, space, [k], [k])[0, 0]).real
            ktx = np.trace(gram(kernel, space, [k], [i])[0, 0]).real
            expected = math.sqrt(max(kxx + ktt - 2.0 * ktx, 0.0))
            assert abs(prime.d[i, k] - expected) < 1e-12


# ---------------------------------------------------------------------------
# quotient and support against the plain closure algorithms
# ---------------------------------------------------------------------------


def reference_quotient(space, metric, tol):
    """Union-find over every pair, the smaller root kept, class ids by first occurrence."""
    n_atoms = len(space.labels)
    parent = list(range(n_atoms))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n_atoms):
        for k in range(i + 1, n_atoms):
            if metric.d[i, k] <= tol:
                ri, rk = find(i), find(k)
                if ri != rk:
                    lo, hi = (ri, rk) if ri < rk else (rk, ri)
                    parent[hi] = lo
    class_ids, reps, root_to_cid = [], [], {}
    for i in range(n_atoms):
        root = find(i)
        if root not in root_to_cid:
            root_to_cid[root] = len(reps)
            reps.append(space.labels[root])
        class_ids.append(root_to_cid[root])
    return tuple(class_ids), tuple(reps)


def reference_support(space, metric, tol):
    """Atoms within ``tol`` of positive mass, grown until the set stops changing."""
    mask = space.mu > 0
    if mask.any():
        mask = (metric.d[:, mask] <= tol).any(axis=1)
        while True:
            grown = mask | (metric.d[:, mask] <= tol).any(axis=1)
            if np.array_equal(grown, mask):
                break
            mask = grown
    else:
        mask = np.zeros(len(space.labels), dtype=bool)
    return tuple(label for label, keep in zip(space.labels, mask) if keep)


@pytest.mark.parametrize("tol", [None, 0.0, 0.05, 0.5], ids=["default", "0", "0.05", "0.5"])
def test_quotient_and_support_match_reference_closure(tol):
    rng = np.random.default_rng(2024)
    specs = [spec for _, spec in ZOO]
    for case in range(60):
        n_atoms = int(rng.integers(1, 25))
        # coordinates on a coarse grid, so repeated atoms are common
        coords = rng.integers(-3, 4, size=(n_atoms, 2)) * 0.25
        mu = rng.uniform(0.5, 1.5, n_atoms) * (rng.random(n_atoms) < 0.6)
        space = space_from(coords, mu, labels=tuple(f"x{i}" for i in range(n_atoms)))
        metric = pseudo_metric(space, build_kernel(specs[case % len(specs)]))
        used = metric.quotient_tol if tol is None else tol
        q = quotient(space, metric, tol)
        assert (tuple(q.tolist()), first_atoms(space, q)) == reference_quotient(space, metric, used)
        assert labels_of(space, support(space, metric, tol)) == reference_support(space, metric, used)


@pytest.mark.parametrize("tol", [-1e-12, -1.0, float("nan"), float("inf")])
def test_quotient_and_support_reject_bad_tol(tol):
    space = space_from([0.0, 1.0], [1.0, 0.0])
    metric = pseudo_metric(space, build_kernel({"type": "gaussian", "gamma": 1.0}))
    with pytest.raises(ValueError, match="tol"):
        quotient(space, metric, tol)
    with pytest.raises(ValueError, match="tol"):
        support(space, metric, tol)


# ---------------------------------------------------------------------------
# the support from the zero-mass atoms' distances alone
# ---------------------------------------------------------------------------


def file_kernels(tmp_path, space):
    """A ``precomputed`` table and a ``frame_synth`` kernel over ``space``, both 2 x 2."""
    table = tmp_path / "table.csv"
    write_precomputed(build_kernel(dict(ZOO)["separable_complex"]), space, table)
    # frame values are functions of the coordinates, so repeated atoms stay at distance 0
    phases = space.coords @ np.array([[1.0, -0.5, 2.0], [0.3, 1.0, -1.0]])
    paths = []
    for j, scale in enumerate((1.0, 0.5j)):
        paths.append(str(tmp_path / f"frame{j}.csv"))
        write_frame(ScalarFrame(space.labels, scale * np.exp(1j * (j + 1) * phases).T), paths[-1])
    return [
        build_kernel({"type": "precomputed", "path": str(table)}),
        build_kernel({"type": "frame_synth", "frames": paths}),
    ]


def kernels_over(tmp_path, space):
    return [build_kernel(spec) for _, spec in ZOO] + file_kernels(tmp_path, space)


def test_zero_mass_support_equals_full_metric_support(tmp_path):
    rng = np.random.default_rng(4242)
    for case in range(12):
        n_atoms = int(rng.integers(1, 16))
        # coordinates on a coarse grid, so repeated atoms are common
        coords = rng.integers(-2, 3, size=(n_atoms, 2)) * 0.5
        mu = rng.uniform(0.5, 1.5, n_atoms) * (rng.random(n_atoms) < [0.0, 0.5, 1.0][case % 3])
        space = space_from(coords, mu, labels=tuple(f"x{i}" for i in range(n_atoms)))
        for kernel in kernels_over(tmp_path, space):
            expected = support(space, pseudo_metric(space, kernel))
            np.testing.assert_array_equal(zero_mass_support(space, kernel), expected, err_msg=f"{case} {kernel.label}")


def test_zero_mass_support_without_zero_mass_evaluates_no_gram(tmp_path, monkeypatch):
    # every atom holds mass, so every atom is in the support; the distances are read off the Gram it is given
    space = random_space(np.random.default_rng(4245), 9)
    kernels = kernels_over(tmp_path, space)
    grams = [gram(_factors(kernel)[0], space) for kernel in kernels]

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram was evaluated")

    monkeypatch.setattr(space_module, "gram", refuse)
    for kernel, blocks in zip(kernels, grams):
        held = _zero_mass_support(space, kernel, blocks)
        assert held.dtype == bool and held.all() and held.shape == (len(space),), kernel.label


def test_decomposition_support_is_the_full_metric_support(tmp_path):
    rng = np.random.default_rng(4243)
    coords = rng.integers(-2, 3, size=(14, 2)) * 0.5
    mu = rng.uniform(0.5, 1.5, 14) * (rng.random(14) < 0.5)
    mu[0] = 1.0
    space = space_from(coords, mu, labels=tuple(f"x{i}" for i in range(14)))
    for kernel in kernels_over(tmp_path, space):
        expected = support(space, pseudo_metric(space, kernel))
        np.testing.assert_array_equal(decompose_space(space, kernel).support, expected, err_msg=kernel.label)


def feature_frame(labels, steps):
    """One frame vector ``phi`` on a grid of 0.8e-9, so its kernel is ``phi(x) phi(t)``.

    Atoms one step apart are at distance 0.8e-9, below the default zero
    threshold ``1e-9 * (1 + max phi)``; two steps apart, 1.6e-9 is above it.
    So closeness is not transitive, and the support grows only along chains
    of single steps.
    """
    return ScalarFrame(labels, np.asarray(steps, dtype=complex)[None, :] * 0.8e-9)


def chain_space(tmp_path, steps, mu):
    """Atoms ``x0, x1, ...`` with the kernel of :func:`feature_frame`, read through a ``frame_synth`` file."""
    labels = tuple(f"x{i}" for i in range(len(steps)))
    path = tmp_path / "frame.csv"
    write_frame(feature_frame(labels, steps), path)
    kernel = build_kernel({"type": "frame_synth", "frames": [str(path)]})
    return space_from(np.zeros(len(labels)), mu, labels=labels), kernel


def test_zero_mass_support_follows_chains_through_zero_mass_atoms(tmp_path):
    space, kernel = chain_space(tmp_path, [0, 1, 2, 3, 5], [1.0, 0.0, 0.0, 0.0, 0.0])
    metric = pseudo_metric(space, kernel)
    # x3 is three steps from the only mass and joins through x1 and x2; x4 is cut off
    assert metric.d[0, 2] > metric.quotient_tol
    assert labels_of(space, support(space, metric)) == ("x0", "x1", "x2", "x3")
    assert labels_of(space, zero_mass_support(space, kernel)) == ("x0", "x1", "x2", "x3")
    rng = np.random.default_rng(4244)
    for _ in range(40):
        n_atoms = int(rng.integers(2, 12))
        mu = rng.uniform(0.5, 1.5, n_atoms) * (rng.random(n_atoms) < 0.3)
        space, kernel = chain_space(tmp_path, rng.integers(0, 8, n_atoms), mu)
        np.testing.assert_array_equal(zero_mass_support(space, kernel), support(space, pseudo_metric(space, kernel)))


def test_distances_whose_squares_overflow_are_finite():
    # ||K(a,a) + K(b,b) - K(a,b) - K(b,a)||_2 is 2 (1 - e^-16) 1e308, past the largest float; its root is not
    kernel = build_kernel(NEAR_MAX_SEPARABLE)
    space = space_from([0.0, 4.0], [1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        metric = pseudo_metric(space, kernel)
        held = zero_mass_support(space, kernel)
    assert metric.d[0, 1] == pytest.approx(math.sqrt(2.0 * (1.0 - math.exp(-16.0))) * 1e154, rel=1e-15)
    assert metric.quotient_tol == pytest.approx(1e-9 * (1.0 + 1e154))
    assert held.tolist() == [True, False]


def test_trace_distances_whose_squares_overflow_are_finite():
    # tr K(x, x) = 2e308 is past the largest float; d'(a, b) = sqrt(4 (1 - e^-1) 1e308), read off the core, is not
    kernel = build_kernel(NEAR_MAX_SEPARABLE)
    space = space_from([0.0, 1.0], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        metric = pseudo_metric_prime(space, kernel)
    assert metric.d[0, 1] == pytest.approx(math.sqrt(4.0 * (1.0 - math.exp(-1.0))) * 1e154, rel=1e-15)
    assert metric.quotient_tol == pytest.approx(1e-9 * (1.0 + 1e154))


@pytest.mark.parametrize("name", ["gaussian", "complex_table", "separable_complex"])
def test_metric_of_the_upper_pairs_is_the_full_one_mirrored(name):
    # pseudo_metric computes the N (N - 1) / 2 pairs it keeps, not all N^2
    rng = np.random.default_rng(3)
    space = random_space(rng, 40, dim=2, zero_mass=5)
    kernel = rank_deficient_table(rng, 40, 6) if name == "complex_table" else build_kernel(dict(ZOO)[name])
    blocks = gram(_factors(kernel)[0], space)
    diag = np.einsum("xxlj->xlj", blocks)
    delta = (diag[:, None] + diag[None, :]) - (blocks + blocks.swapaxes(0, 1))
    b_norm = float(_spectral_norms(_factors(kernel)[1]))
    full = space_module._mirror_upper(space_module._root_of_product(_spectral_norms(delta), b_norm))
    assert pseudo_metric(space, kernel).d.tobytes() == full.tobytes()
    assert pseudo_metric(space, kernel, blocks).d.tobytes() == full.tobytes()
