"""Independent checks of the files a pipeline run wrote.

Every check reads the written tables (not the verdicts in ``report.json``)
and compares them with a numpy reference built from the generator's own
arrays: the closed-form Gram for the gaussian, laplacian and separable
kernels, ``F^H F`` for the table.  Each check returns a list of problems;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from workloads import Workload

RANK_CUTOFF_REL = 1e-12  # the program's default relative eigenvalue cutoff
TRACE_TOL_REL = 1e-10
METRIC_TOL_SCALE = 1e-9
TOL_RECON_SCALE = 1e-8


def reference_metric(gram: np.ndarray) -> np.ndarray:
    """Closed-form ``sqrt(|K(x,x) + K(t,t) - K(x,t) - K(t,x)|_2)`` for all pairs."""
    diag = np.einsum("xxlj->xlj", gram)
    delta = diag[:, None] + diag[None, :] - gram - np.swapaxes(gram, 0, 1)
    if gram.shape[2] == 1:
        sq = np.abs(delta[:, :, 0, 0].real)
    else:
        delta = 0.5 * (delta + np.conj(np.swapaxes(delta, 2, 3)))
        sq = np.abs(np.linalg.eigvalsh(delta)).max(axis=2)
    d = np.sqrt(sq)
    np.fill_diagonal(d, 0.0)
    return d


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def _report(out: Path, sub: str) -> dict:
    with open(out / sub / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def _flat(gram: np.ndarray) -> np.ndarray:
    n_atoms, _, n, _ = gram.shape
    return gram.transpose(0, 2, 1, 3).reshape(n_atoms * n, n_atoms * n)


def _recon_scale(wl: Workload) -> float:
    diag = np.einsum("xxll->xl", wl.gram).real
    return TOL_RECON_SCALE * (1.0 + max(float(diag.max()), 0.0))


def _rescaled(wl: Workload) -> tuple[np.ndarray, float]:
    """Rescaled weights ``mu / (1 + |K(x,x)|_2)`` and the trace budget."""
    diag = np.einsum("xxlj->xlj", wl.gram)
    norms = np.abs(np.linalg.eigvalsh(diag)).max(axis=1)
    nu = wl.mu / (1.0 + norms)
    return nu, float(np.sum(np.trace(diag, axis1=1, axis2=2).real * nu))


def _read_table(path: Path, header: list[str], shape: tuple[int, ...], labels: list[str]) -> np.ndarray:
    """Read ``i,atom_id,[j,]re,im`` rows laid out in row-major ``shape`` order."""
    rows = _rows(path, header)
    per_atom = shape[2] if len(shape) == 3 else 1
    if len(rows) != shape[0] * len(labels) * per_atom:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected {shape[0] * len(labels) * per_atom}")
    if not rows:
        return np.zeros(shape, dtype=complex)
    cols = list(zip(*rows))
    if list(cols[1]) != [label for label in labels for _ in range(per_atom)] * shape[0]:
        raise ValueError(f"{path.name}: atom rows are not in atom order")
    values = np.array(cols[-2], dtype=float) + 1j * np.array(cols[-1], dtype=float)
    return values.reshape(shape)


def read_spectrum(path: Path) -> np.ndarray:
    rows = _rows(path, ["i", "sigma"])
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("spectrum.csv: indices are not 0..rank-1")
    return np.array([float(r[1]) for r in rows])


def _read_kernel_table(path: Path, wl: Workload, n: int) -> np.ndarray:
    """Read a synthesized block table and restore the lower half by symmetry."""
    index = {label: i for i, label in enumerate(wl.labels)}
    out = np.full((wl.n_atoms, wl.n_atoms, n, n), np.nan, dtype=complex)
    for x, t, l, j, re, im in _rows(path, ["x_id", "t_id", "l", "j", "re", "im"]):
        out[index[x], index[t], int(l), int(j)] = complex(float(re), float(im))
    mirror = np.conj(np.swapaxes(np.swapaxes(out, 0, 1), 2, 3))
    return np.where(np.isnan(out), mirror, out)


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b))) if a.size else 0.0


class Checker:
    """Reference quantities of one workload and the per-subcommand checks."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.nu, self.budget = _rescaled(wl)
        diag_norm = float(np.abs(np.linalg.eigvalsh(np.einsum("xxlj->xlj", wl.gram))).max())
        self.metric_tol = METRIC_TOL_SCALE * (1.0 + np.sqrt(max(diag_norm, 0.0)))
        self.metric = reference_metric(wl.gram)
        self.sup = wl.mu > 0  # grown to its closure under d <= tol, as the program's support is
        while True:
            grown = self.sup | (self.metric[:, self.sup] <= self.metric_tol).any(axis=1)
            if np.array_equal(grown, self.sup):
                break
            self.sup = grown
        self.tol_recon = _recon_scale(wl)
        flat = _flat(wl.gram)
        self.gram_eig_max = float(np.linalg.eigvalsh(flat)[-1])
        pos = np.flatnonzero(self.nu > 0)
        scale = np.sqrt(np.repeat(self.nu[pos], wl.n))
        block = _flat(wl.gram[np.ix_(pos, pos)])
        self.op_eigs = np.linalg.eigvalsh(block * scale[:, None] * scale[None, :])[::-1]
        self.op_dim = block.shape[0]

    def check(self, sub: str, out: Path) -> list[str]:
        """Problems found in the outputs of ``sub`` under ``out`` (a pipeline's out dir)."""
        try:
            return getattr(self, "_" + sub)(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{sub}: unreadable output: {exc}"]

    def _validate(self, out: Path) -> list[str]:
        got = float(_report(out, "validate")["validation"]["max_eigenvalue"])
        ref = self.gram_eig_max
        if abs(got - ref) > 1e-9 * max(1.0, abs(ref)):
            return [f"validate: max Gram eigenvalue {got!r} vs reference {ref!r}"]
        return []

    def _metric(self, out: Path) -> list[str]:
        wl, problems = self.wl, []
        rows = _rows(out / "metric" / "metric.csv", ["id"] + wl.labels)
        if [r[0] for r in rows] != wl.labels:
            return ["metric: metric.csv rows are not in atom order"]
        d = np.array([[float(v) for v in r[1:]] for r in rows])
        dev = _max_dev(d, self.metric)
        if dev > self.metric_tol:
            problems.append(f"metric: metric.csv deviates from the closed form by {dev:.3e}")
        with open(out / "metric" / "support.txt", encoding="utf-8") as fh:
            members = fh.read().split()
        if members != [label for label, keep in zip(wl.labels, self.sup) if keep]:
            problems.append("metric: support.txt differs from the reference support")
        with open(out / "metric" / "quotient.json", encoding="utf-8") as fh:
            classes = json.load(fh)["classes"]
        if [c["members"] for c in classes] != self._reference_classes():
            problems.append("metric: quotient.json differs from the reference quotient classes")
        return problems

    def _reference_classes(self) -> list[list[str]]:
        """Connected components of ``d <= tol``, ordered by first member."""
        labels = self.wl.labels
        root = list(range(len(labels)))

        def find(a: int) -> int:
            while root[a] != a:
                a = root[a]
            return a

        for i, k in zip(*np.nonzero(self.metric <= self.metric_tol)):
            ri, rk = find(int(i)), find(int(k))
            root[max(ri, rk)] = min(ri, rk)
        groups: dict[int, list[str]] = {}
        for i, label in enumerate(labels):
            groups.setdefault(find(i), []).append(label)
        return list(groups.values())

    def _decompose(self, out: Path) -> list[str]:
        wl, problems = self.wl, []
        sigmas = read_spectrum(out / "decompose" / "spectrum.csv")
        rank = sigmas.shape[0]
        sigma1 = float(self.op_eigs[0])
        tol = TRACE_TOL_REL * max(1.0, abs(self.budget)) + self.op_dim * RANK_CUTOFF_REL * sigma1
        if abs(float(np.sum(sigmas)) - self.budget) > tol:
            problems.append(f"decompose: spectrum sums to {float(np.sum(sigmas))!r}, trace budget {self.budget!r}")
        tol_eig = 1e-9 * max(1.0, sigma1)
        if rank == 0 or _max_dev(sigmas, self.op_eigs[:rank]) > tol_eig:
            problems.append("decompose: spectrum differs from the reference operator eigenvalues")
        funcs = _read_table(
            out / "decompose" / "eigenfunctions.csv", ["i", "atom_id", "j", "re", "im"],
            (rank, wl.n_atoms, wl.n), wl.labels,
        )
        sup = np.flatnonzero(self.sup)
        f = funcs[:, sup, :]
        rebuilt = np.einsum("i,ixl,itj->xtlj", sigmas, f, np.conj(f))
        tol_recon = float(_report(out, "reconstruct")["tol_recon"])
        dev = _max_dev(rebuilt, wl.gram[np.ix_(sup, sup)])
        if dev > tol_recon:
            problems.append(f"decompose: eigen-series misses the Gram on the support by {dev:.3e} > {tol_recon:.3e}")
        zero = np.flatnonzero(self.nu <= 0)
        if zero.size:
            pos = np.flatnonzero(self.nu > 0)
            blocks = wl.gram[np.ix_(zero, pos)]  # (z, p, l, m)
            terms = np.einsum("zplm,ipm,p->izpl", blocks, funcs[:, pos, :], self.nu[pos])
            ext = terms.sum(axis=2) / sigmas[:, None, None]
            bound = 1e-10 * np.abs(terms).sum(axis=2) / sigmas[:, None, None] + 1e-300
            if np.any(np.abs(ext - funcs[:, zero, :]) > bound):
                problems.append("decompose: zero-mass values differ from the kernel-sum extension")
        return problems

    def _reconstruct(self, out: Path) -> list[str]:
        wl, problems = self.wl, []
        rows = _rows(out / "reconstruct" / "errors.csv", ["m", "max_abs_error"])
        sigmas = read_spectrum(out / "decompose" / "spectrum.csv")
        rank = sigmas.shape[0]
        if [int(r[0]) for r in rows] != list(range(rank + 1)):
            return [f"reconstruct: errors.csv has orders {rows[0][0]}..{rows[-1][0]}, expected 0..{rank}"]
        errors = np.array([float(r[1]) for r in rows])
        tol_recon = float(_report(out, "reconstruct")["tol_recon"])
        if abs(tol_recon - self.tol_recon) > 1e-12 * self.tol_recon:
            problems.append(f"reconstruct: tol_recon {tol_recon!r} vs reference {self.tol_recon!r}")
        if errors[-1] > tol_recon:
            problems.append(f"reconstruct: full-rank error {errors[-1]!r} exceeds {tol_recon!r}")
        sup = np.flatnonzero(self.sup)
        g = wl.gram[np.ix_(sup, sup)]
        funcs = _read_table(
            out / "decompose" / "eigenfunctions.csv", ["i", "atom_id", "j", "re", "im"],
            (rank, wl.n_atoms, wl.n), wl.labels,
        )[:, sup, :]
        for m in sorted({0, rank // 2}):
            partial = np.einsum("i,ixl,itj->xtlj", sigmas[:m], funcs[:m], np.conj(funcs[:m]))
            ref = float(np.max(np.abs(g - partial)))
            if abs(ref - errors[m]) > tol_recon:
                problems.append(f"reconstruct: error at m={m} is {errors[m]!r}, reference {ref!r}")
        return problems

    def _frame_values(self, out: Path, rank: int) -> list[np.ndarray]:
        return [
            _read_table(
                out / "frames" / f"frame_j{j}.csv", ["i", "atom_id", "value_re", "value_im"],
                (rank, self.wl.n_atoms), self.wl.labels,
            )
            for j in range(self.wl.n)
        ]

    def _frames(self, out: Path) -> list[str]:
        wl, problems = self.wl, []
        rank = read_spectrum(out / "decompose" / "spectrum.csv").shape[0]
        tol_recon = float(_report(out, "frames")["tol_recon"])
        sup = np.flatnonzero(self.sup)
        for j, phi in enumerate(self._frame_values(out, rank)):
            p = phi[:, sup]
            dev = _max_dev(np.einsum("ix,it->xt", p, np.conj(p)), wl.gram[np.ix_(sup, sup)][:, :, j, j])
            if dev > tol_recon:
                problems.append(f"frames: frame_j{j} is {dev:.3e} from Parseval on the support (tol {tol_recon:.3e})")
        return problems

    def _synthesize(self, out: Path) -> list[str]:
        wl, problems = self.wl, []
        synth = _read_kernel_table(out / "synthesize" / "kernel.csv", wl, len(wl.synth_grams) or wl.n)
        if np.isnan(synth).any():
            return ["synthesize: kernel.csv misses blocks"]
        sup = np.flatnonzero(self.sup)
        if wl.synth_grams:
            targets = wl.synth_grams
            tol = TOL_RECON_SCALE * (1.0 + max(float(np.max(np.diag(g))) for g in targets))
        else:
            # synthesis documents K(x,t)[l,j] = sum_i f_i^j(t) conj(f_i^l(x)); from frames
            # of the eigen-series this is the kernel with its arguments swapped, K(t,x).
            rank = read_spectrum(out / "decompose" / "spectrum.csv").shape[0]
            phis = np.stack(self._frame_values(out, rank), axis=2)  # (i, x, j)
            formula = np.einsum("ixl,itj->xtlj", np.conj(phis), phis)
            scale = 1e-12 * max(1.0, float(np.max(np.abs(formula))))
            if _max_dev(synth, formula) > scale:
                problems.append("synthesize: kernel.csv differs from the frame synthesis formula")
            targets = [wl.gram[:, :, j, j].T for j in range(wl.n)]
            tol = self.tol_recon
        for j, target in enumerate(targets):
            dev = _max_dev(synth[np.ix_(sup, sup)][:, :, j, j], target[np.ix_(sup, sup)])
            if dev > tol:
                problems.append(f"synthesize: diagonal block {j} is {dev:.3e} from its kernel (tol {tol:.3e})")
        return problems
