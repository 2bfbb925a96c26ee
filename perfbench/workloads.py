"""Seeded input generation and the subcommand plan of each workload.

Every input file is a pure function of (workload, seed, N): numpy's PCG64
generator draws the numbers and floats are written with ``repr``, so files
round-trip exactly and the same seed gives byte-identical files.  The
generator also returns the exact arrays it wrote, which the output checks
use as their numpy reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Atom counts used by the benchmark.  The baseline sizes in ROADMAP.md are
# larger (scalar N=400); they are scaled down so that several whole
# pipelines fit in one run and the per-run medians are steady.
DEFAULT_N = {"scalar-gauss": 150, "matrix-sep3": 100, "table-lowrank": 120}

SEPARABLE_B = np.array([[2.0, 1j, 0.5], [-1j, 2.0, 0.0], [0.5, 0.0, 1.0]])
SEPARABLE_GAMMA = 0.8
GAUSS_GAMMA = 1.0
LAPLACE_GAMMA = 1.0
TABLE_RANK = 40


@dataclass
class Workload:
    """Generated inputs of one workload plus the numpy reference for checks."""

    name: str
    seed: int
    n_atoms: int
    n: int
    d: int
    labels: list[str]
    coords: np.ndarray
    mu: np.ndarray
    gram: np.ndarray  # reference block Gram, shape (N, N, n, n): gram[x, t] = K(x, t)
    # Grams of the scalar kernels given to ``synthesize --kernel``; empty when
    # ``synthesize`` reads the frame files that ``frames`` wrote
    synth_grams: list[np.ndarray]
    files: dict[str, str]  # input file name -> sha256
    plan: list[tuple[str, list[str]]]  # (subcommand, argv with {out} for the output root)


def _sq_dists(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.einsum("xtk,xtk->xt", diff, diff)


def _write_atoms(path: Path, labels: list[str], mu: np.ndarray, coords: np.ndarray) -> None:
    d = coords.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", "w"] + [f"c{k}" for k in range(1, d + 1)]) + "\n")
        for label, w, row in zip(labels, mu, coords):
            fh.write(",".join([label, repr(float(w))] + [repr(float(c)) for c in row]) + "\n")


def _write_json(path: Path, obj: object) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _write_table(path: Path, labels: list[str], gram: np.ndarray) -> None:
    """Block table in the reader's minimal form: blocks ``x <= t``, upper diagonal blocks."""
    n = gram.shape[2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x_id,t_id,l,j,re,im\n")
        for i, x in enumerate(labels):
            for k in range(i, len(labels)):
                t = labels[k]
                for l in range(n):
                    for j in range(l if i == k else 0, n):
                        v = complex(gram[i, k, l, j])
                        fh.write(f"{x},{t},{l},{j},{v.real!r},{v.imag!r}\n")


def _zero_mass(rng: np.random.Generator, mu: np.ndarray, share: float) -> np.ndarray:
    mu = mu.copy()
    mu[rng.permutation(mu.shape[0])[: int(round(share * mu.shape[0]))]] = 0.0
    return mu


def generate(name: str, seed: int, directory: Path, n_atoms: int | None = None) -> Workload:
    """Write the workload's input files into ``directory`` and return its plan."""
    if name not in DEFAULT_N:
        raise ValueError(f"unknown workload {name!r}")
    n_atoms = DEFAULT_N[name] if n_atoms is None else n_atoms
    directory.mkdir(parents=True, exist_ok=True)
    # the workload name is folded into the seed so workloads never share draws
    rng = np.random.default_rng([seed, sum(name.encode())])
    labels = [f"x{i:04d}" for i in range(n_atoms)]
    subs = ["validate", "metric", "decompose", "reconstruct", "frames"]

    if name == "scalar-gauss":
        n, d = 1, 2
        coords = rng.uniform(-3.0, 3.0, (n_atoms, d))
        mu = rng.uniform(0.5, 2.0, n_atoms)
        sq = _sq_dists(coords)
        gram = np.exp(-GAUSS_GAMMA * sq)[:, :, None, None].astype(complex)
        l1 = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        synth = [gram[:, :, 0, 0].real, np.exp(-LAPLACE_GAMMA * l1)]
        _write_json(directory / "kernel.json", {"type": "gaussian", "gamma": GAUSS_GAMMA})
        _write_json(directory / "laplacian.json", {"type": "laplacian", "gamma": LAPLACE_GAMMA})
        synth_argv = ["--kernel", "kernel.json", "--kernel", "laplacian.json"]
    elif name == "matrix-sep3":
        n, d = 3, 3
        coords = rng.uniform(-4.0, 4.0, (n_atoms, d))
        mu = _zero_mass(rng, rng.uniform(0.1, 3.0, n_atoms), 0.2)
        k = np.exp(-SEPARABLE_GAMMA * _sq_dists(coords))
        gram = k[:, :, None, None] * SEPARABLE_B[None, None, :, :]
        synth = []
        matrix = [[[z.real, z.imag] for z in row] for row in SEPARABLE_B.tolist()]
        spec = {"type": "separable", "matrix": matrix,
                "scalar": {"type": "gaussian", "gamma": SEPARABLE_GAMMA}}
        _write_json(directory / "kernel.json", spec)
        synth_argv = ["--frames"] + [f"{{out}}/frames/frame_j{j}.csv" for j in range(n)]
    else:  # table-lowrank
        n, d = 2, 1
        coords = rng.uniform(0.0, 1.0, (n_atoms, d))
        mu = _zero_mass(rng, rng.uniform(0.1, 3.0, n_atoms), 0.1)
        f = (rng.normal(size=(TABLE_RANK, n_atoms * n))
             + 1j * rng.normal(size=(TABLE_RANK, n_atoms * n))) / np.sqrt(TABLE_RANK)
        flat = f.conj().T @ f
        flat = 0.5 * (flat + flat.conj().T)  # exactly Hermitian, real diagonal
        gram = flat.reshape(n_atoms, n, n_atoms, n).transpose(0, 2, 1, 3)
        synth = []
        _write_table(directory / "table.csv", labels, gram)
        _write_json(directory / "kernel.json", {"type": "precomputed", "path": "table.csv"})
        synth_argv = ["--frames"] + [f"{{out}}/frames/frame_j{j}.csv" for j in range(n)]

    _write_atoms(directory / "atoms.csv", labels, mu, coords)
    common = ["--atoms", "atoms.csv", "--kernel", "kernel.json"]
    plan = [(sub, [sub, *common, "--out", f"{{out}}/{sub}"]) for sub in subs]
    plan.append(("synthesize", ["synthesize", "--atoms", "atoms.csv"] + synth_argv
                 + ["--out", "{out}/synthesize"]))
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }
    return Workload(name, seed, n_atoms, n, d, labels, coords, mu, gram, synth, files, plan)
