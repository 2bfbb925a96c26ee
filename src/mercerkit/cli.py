"""Command line pipeline over atom and kernel files.

Subcommands: validate, metric, decompose, reconstruct, frames, synthesize.
Each writes its tables plus a report (JSON and text) into the output
directory.  Outputs are byte-deterministic for identical inputs.  Exit
codes: 0 success, 1 usage or file errors, 2 kernel validation failure,
3 degenerate input (empty measure support).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .kernels import (
    KernelSpecError,
    MatrixKernel,
    _csv_cells,
    _write_csv,
    diagonal_blocks,
    kernel_from_file,
    validate_kernel,
    write_precomputed,
)
from .mercer import (
    default_tol_recon,
    extract_frame,
    frame_check,
    read_frame,
    reconstruction_error,
    write_error_table,
    write_frame,
)
from .operators import (
    EmptySupportError,
    SpectralDecomposition,
    assemble_operator,
    eigendecompose,
    rescale_measure,
    trace_check,
    truncate,
    write_eigenfunctions,
    write_spectrum,
)
from .space import AtomFileError, AtomSpace, load_atoms, pseudo_metric, quotient, support
from .synthesis import align_frames, synthesize_kernel, verify_diagonal_blocks

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3

# Relative tolerance of the eigenvalue-sum versus trace-budget identity.
TRACE_TOL_REL = 1e-10


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse variant mapping usage errors to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser, multi_kernel: bool = False) -> None:
    parser.add_argument("--atoms", help="atom CSV file (header id,w,c1,...,cd)")
    if multi_kernel:
        parser.add_argument(
            "--kernel", action="append", help="scalar kernel JSON file (repeatable)"
        )
    else:
        parser.add_argument("--kernel", help="kernel description JSON file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    parser.add_argument("--tol-eig", type=float, dest="tol_eig", help="eigenlevel tolerance")
    parser.add_argument("--tol-recon", type=float, dest="tol_recon", help="reconstruction tolerance")
    parser.add_argument("--tol-quotient", type=float, dest="tol_quotient", help="metric zero threshold")
    parser.add_argument("--rank-cutoff", type=float, dest="rank_cutoff", help="eigenvalue cutoff")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mercerkit", description="Spectral pipeline for matrix-valued kernels.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check kernel axioms on the atom set")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metric", help="kernel pseudo-metric, quotient classes and support")
    _add_common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("decompose", help="spectrum and eigenfunctions of the kernel operator")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="truncation error table of the eigen-series")
    _add_common(p)
    p.add_argument("--subset", help="comma-separated atom ids (default: measure support)")
    p.add_argument("--truncations", help="comma-separated truncation orders (default: all)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("frames", help="per-component scalar frames with Parseval checks")
    _add_common(p)
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("synthesize", help="build a matrix kernel from scalar frames")
    _add_common(p, multi_kernel=True)
    p.add_argument("--frames", nargs="+", help="frame CSV files, one per component")
    p.set_defaults(func=cmd_synthesize)

    return parser


# ---------------------------------------------------------------------------
# option resolution and I/O helpers
# ---------------------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    if getattr(args, "config", None) is None:
        return {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE, f"{args.config}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(config, dict):
        raise CliError(EXIT_USAGE, f"{args.config}: config must be a JSON object")
    return config


def _opt(args: argparse.Namespace, config: Mapping[str, Any], key: str, default: Any = None) -> Any:
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _required(args: argparse.Namespace, config: Mapping[str, Any], key: str) -> Any:
    value = _opt(args, config, key)
    if value is None:
        raise CliError(EXIT_USAGE, f"missing required option --{key.replace('_', '-')}")
    return value


def _load_space(path: str) -> AtomSpace:
    try:
        return load_atoms(path)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read atoms file: {exc}") from None
    except AtomFileError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


def _load_kernel(path: str) -> MatrixKernel:
    try:
        return kernel_from_file(path)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read kernel file: {exc}") from None
    except KernelSpecError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None


def _outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot create output directory: {exc}") from None
    return out


def _text_lines(value: Any, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines: list[str] = []
        for key in sorted(value):
            lines.extend(_text_lines(value[key], f"{prefix}{key}."))
        return lines
    return [f"{prefix[:-1]}: {json.dumps(value)}"]


def _native(value: Any) -> Any:
    """Recursively force numpy scalars to plain Python for JSON output.

    Non-finite floats become ``None``, so reports stay strict JSON.
    """
    if isinstance(value, dict):
        return {key: _native(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def _write_report(out: Path, data: dict[str, Any]) -> None:
    data = _native(data)
    with open(out / "report.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out / "report.txt", "w", encoding="utf-8", newline="") as fh:
        for line in _text_lines(data):
            fh.write(line + "\n")


def _csv_list(value: Any, key: str) -> list[str]:
    if isinstance(value, str):
        items = [item.strip() for item in value.split(",")]
    elif isinstance(value, Sequence):
        items = [str(item) for item in value]
    else:
        raise CliError(EXIT_USAGE, f"--{key}: expected a comma-separated list")
    items = [item for item in items if item]
    if not items:
        raise CliError(EXIT_USAGE, f"--{key}: empty list")
    return items


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _validated(space: AtomSpace, kernel: MatrixKernel, out: Path, command: str) -> dict[str, Any]:
    """Run validation; on failure write the report and abort with exit 2."""
    report = validate_kernel(kernel, space.atoms)
    if not report.passed:
        _write_report(
            out,
            {
                "command": command,
                "kernel": kernel.label,
                "n_atoms": len(space),
                "validation": report.to_dict(),
                "passed": False,
            },
        )
        raise SystemExit(EXIT_VALIDATION)
    return report.to_dict()


def _decompose(
    space: AtomSpace, kernel: MatrixKernel, out: Path, command: str, rank_cutoff: float | None
) -> tuple[dict[str, Any], SpectralDecomposition, SpectralDecomposition, tuple[float, float]]:
    validation = _validated(space, kernel, out, command)
    nu = rescale_measure(space, kernel)
    try:
        op = assemble_operator(space, kernel, nu)
    except EmptySupportError as exc:
        _write_report(
            out,
            {
                "command": command,
                "kernel": kernel.label,
                "n_atoms": len(space),
                "validation": validation,
                "degenerate": str(exc),
                "passed": False,
            },
        )
        raise SystemExit(EXIT_DEGENERATE) from None
    full = eigendecompose(op, rank_cutoff=0.0)
    dec = truncate(full, rank_cutoff)
    return validation, full, dec, trace_check(full)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    kernel = _load_kernel(_required(args, config, "kernel"))
    out = _outdir(_required(args, config, "out"))
    report = validate_kernel(kernel, space.atoms)
    _write_report(
        out,
        {
            "command": "validate",
            "kernel": kernel.label,
            "n_atoms": len(space),
            "validation": report.to_dict(),
            "passed": report.passed,
        },
    )
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_metric(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    kernel = _load_kernel(_required(args, config, "kernel"))
    out = _outdir(_required(args, config, "out"))
    validation = _validated(space, kernel, out, "metric")
    metric = pseudo_metric(space, kernel)
    tol = _opt(args, config, "tol_quotient")
    tol = metric.quotient_tol if tol is None else float(tol)
    classes = quotient(space, metric, tol)
    sup = support(space, metric, tol)

    labels = _csv_cells(space.labels)
    # one chunk per row: its label, then its distances joined as one rendered cell
    rows = (([label], [",".join(map(repr, d.tolist()))]) for label, d in zip(labels, metric.d))
    _write_csv(out / "metric.csv", ["id"] + labels, rows)
    payload = {
        "classes": [
            {"id": cid, "representative": rep, "members": list(members)}
            for cid, (rep, members) in enumerate(zip(classes.representatives, classes.classes))
        ]
    }
    with open(out / "quotient.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "support.txt", "w", encoding="utf-8", newline="") as fh:
        for label in sup.members:
            fh.write(label + "\n")

    # summed over the full-length array, so the two sums are equal exactly
    # when no positive mass lies off the support
    in_support = np.array([label in sup for label in space.labels])
    support_mass = float(np.sum(np.where(in_support, space.mu, 0.0)))
    total_mass = space.total_mass()
    _write_report(
        out,
        {
            "command": "metric",
            "kernel": kernel.label,
            "n_atoms": len(space),
            "validation": validation,
            "tol_quotient": tol,
            "class_count": len(classes.representatives),
            "support_size": len(sup),
            "support_mass": support_mass,
            "total_mass": total_mass,
            "mass_ok": support_mass == total_mass,
            "passed": support_mass == total_mass,
        },
    )
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    kernel = _load_kernel(_required(args, config, "kernel"))
    out = _outdir(_required(args, config, "out"))
    cutoff = _opt(args, config, "rank_cutoff")
    validation, full, dec, (lhs, rhs) = _decompose(
        space, kernel, out, "decompose", None if cutoff is None else float(cutoff)
    )
    residual = abs(lhs - rhs)
    trace_tol = TRACE_TOL_REL * max(1.0, abs(rhs))
    write_spectrum(dec, out / "spectrum.csv")
    write_eigenfunctions(dec, out / "eigenfunctions.csv")
    trace_ok = residual <= trace_tol
    _write_report(
        out,
        {
            "command": "decompose",
            "kernel": kernel.label,
            "n_atoms": len(space),
            "positive_atoms": len(dec.positive_indices),
            "validation": validation,
            "m_nu": dec.nu.m_nu,
            "rank": dec.rank,
            "spectrum_head": [float(s) for s in dec.sigmas[:8]],
            "trace": {
                "eigenvalue_sum": lhs,
                "trace_budget": rhs,
                "residual": residual,
                "tol": trace_tol,
                "ok": trace_ok,
            },
            "passed": trace_ok,
        },
    )
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    kernel = _load_kernel(_required(args, config, "kernel"))
    out = _outdir(_required(args, config, "out"))
    cutoff = _opt(args, config, "rank_cutoff")
    validation, full, dec, _ = _decompose(
        space, kernel, out, "reconstruct", None if cutoff is None else float(cutoff)
    )
    sup = dec.support
    subset_opt = _opt(args, config, "subset")
    if subset_opt is None:
        subset = list(sup.members)
    else:
        subset = _csv_list(subset_opt, "subset")
        for label in subset:
            if label not in space.labels:
                raise CliError(EXIT_USAGE, f"--subset: unknown atom id {label!r}")
    off_support = [label for label in subset if label not in sup]

    trunc_opt = _opt(args, config, "truncations")
    if trunc_opt is None:
        steps = None
    else:
        try:
            steps = sorted({int(v) for v in _csv_list(trunc_opt, "truncations")})
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"--truncations: {exc}") from None
        bad = [m for m in steps if not 0 <= m <= dec.rank]
        if bad:
            raise CliError(EXIT_USAGE, f"--truncations: {bad[0]} out of range 0..{dec.rank}")
    table = reconstruction_error(dec, subset, steps)
    write_error_table(table, out / "errors.csv")

    tol_recon = _opt(args, config, "tol_recon")
    tol_recon = default_tol_recon(dec) if tol_recon is None else float(tol_recon)
    full_rows = [err for m, err in table if m == dec.rank]
    guaranteed = not off_support
    recon_ok = bool(full_rows and full_rows[0] <= tol_recon) if guaranteed else None
    _write_report(
        out,
        {
            "command": "reconstruct",
            "kernel": kernel.label,
            "n_atoms": len(space),
            "rank": dec.rank,
            "subset_size": len(subset),
            "off_support": off_support,
            "rows": len(table),
            "final_m": table[-1][0],
            "final_error": table[-1][1],
            "tol_recon": tol_recon,
            "full_rank_ok": recon_ok,
            "passed": recon_ok is not False,
        },
    )
    return EXIT_OK


def cmd_frames(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    kernel = _load_kernel(_required(args, config, "kernel"))
    out = _outdir(_required(args, config, "out"))
    cutoff = _opt(args, config, "rank_cutoff")
    validation, full, dec, _ = _decompose(
        space, kernel, out, "frames", None if cutoff is None else float(cutoff)
    )
    tol_recon = _opt(args, config, "tol_recon")
    tol_recon = default_tol_recon(dec) if tol_recon is None else float(tol_recon)
    blocks = []
    all_ok = True
    for j in range(dec.n):
        frame = extract_frame(dec, j)
        write_frame(frame, out / f"frame_j{j}.csv")
        deviation = frame_check(frame, dec)
        ok = deviation <= tol_recon
        all_ok = all_ok and ok
        blocks.append({"j": j, "deviation": deviation, "ok": ok})
    _write_report(
        out,
        {
            "command": "frames",
            "kernel": kernel.label,
            "n_atoms": len(space),
            "rank": dec.rank,
            "tol_recon": tol_recon,
            "blocks": blocks,
            "passed": all_ok,
        },
    )
    return EXIT_OK


def cmd_synthesize(args: argparse.Namespace) -> int:
    config = _load_config(args)
    space = _load_space(_required(args, config, "atoms"))
    out = _outdir(_required(args, config, "out"))
    kernel_opt = _opt(args, config, "kernel")
    kernel_paths = [kernel_opt] if isinstance(kernel_opt, str) else list(kernel_opt or [])
    frame_opt = _opt(args, config, "frames")
    frame_paths = list(frame_opt) if frame_opt else []
    if not kernel_paths and not frame_paths:
        raise CliError(EXIT_USAGE, "synthesize needs --kernel files or --frames files")

    originals = [_load_kernel(p) for p in kernel_paths]
    for k, kernel in enumerate(originals):
        if kernel.n != 1:
            raise CliError(EXIT_USAGE, f"--kernel: {kernel_paths[k]}: synthesize needs scalar kernels")

    if frame_paths:
        try:
            frames = [read_frame(p) for p in frame_paths]
        except (OSError, ValueError) as exc:
            raise CliError(EXIT_USAGE, str(exc)) from None
    else:
        frames = []
        for kernel in originals:
            _validated(space, kernel, out, "synthesize")
            nu = rescale_measure(space, kernel)
            try:
                op = assemble_operator(space, kernel, nu)
            except EmptySupportError as exc:
                _write_report(
                    out,
                    {"command": "synthesize", "degenerate": str(exc), "passed": False},
                )
                raise SystemExit(EXIT_DEGENERATE) from None
            frames.append(extract_frame(eigendecompose(op), 0))
    try:
        family = align_frames(frames)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from None
    if not family.atoms:
        raise CliError(EXIT_DEGENERATE, "synthesized family has no atoms")
    synth = synthesize_kernel(family)
    try:
        atoms = [space.atoms[space.index(label)] for label in family.atoms]
    except KeyError as exc:
        raise CliError(EXIT_USAGE, f"--frames: {exc.args[0]}") from None
    write_precomputed(synth, atoms, out / "kernel.csv")
    report = validate_kernel(synth, atoms)

    data: dict[str, Any] = {
        "command": "synthesize",
        "n": synth.n,
        "frame_count": int(family.values.shape[0]),
        "n_atoms": len(atoms),
        "validation": report.to_dict(),
        "passed": report.passed,
    }
    if originals:
        deviation = verify_diagonal_blocks(synth, originals, atoms)
        top = max(0.0, *(float(diagonal_blocks(k, atoms)[:, 0, 0].real.max()) for k in originals))
        tol_recon = _opt(args, config, "tol_recon")
        tol_recon = 1e-8 * (1.0 + top) if tol_recon is None else float(tol_recon)
        data["diagonal_deviation"] = deviation
        data["tol_recon"] = tol_recon
        data["diagonal_ok"] = deviation <= tol_recon
        data["passed"] = report.passed and data["diagonal_ok"]
    _write_report(out, data)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"mercerkit: error: {exc.message}", file=sys.stderr)
        return exc.code
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
