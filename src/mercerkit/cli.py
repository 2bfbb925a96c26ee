"""Command line pipeline over atom and kernel files.

Subcommands: validate, metric, decompose, reconstruct, frames, synthesize.
Each writes its tables plus a report (JSON and text) into the output
directory.  The output bytes are a function of the inputs, the numpy/BLAS
build and the BLAS thread count.  Exit codes: 0 success, 1 usage or file
errors, 2 kernel validation failure, 3 degenerate input (empty measure
support).  Run as a command, the process freezes its import-time heap
(``gc.freeze``) before :func:`main` runs, and ends without tearing it down
once the ``atexit`` handlers have run and stdout and stderr are flushed; a
call of ``main`` from Python neither freezes nor exits.  Run as
``python -m mercerkit.cli``, the collector is also off from the first
import to the freeze.

The module imports ``kernels``, ``space`` and ``tables``, which every
subcommand runs; ``operators``, ``mercer`` and ``synthesis`` are imported in
the functions that call them (``from .operators import ...``, not through
the package namespace, which loads every module), so a subcommand compiles
only the modules it runs, and its parser declares only its own arguments.

Each option is declared once as an ``_Option``, with the check that turns a
flag or ``--config`` value into a typed value.  ``_COMMANDS`` lists each
subcommand's options and its body, which returns the report.  A failure
raises ``CliError`` with its exit code, a message and/or the report to write.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # pragma: no cover
    # no collection walks the heap that the imports build; _run freezes it, then turns the collector on
    gc.disable()

import argparse
import atexit
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .kernels import (
    KernelEvaluationError,
    MatrixKernel,
    _factors,
    _kernel_blocks,
    _read_json,
    gram,
    kernel_from_file,
    validate_kernel,
    write_precomputed,
)
from .space import AtomSpace, _holding_mass, load_atoms, pseudo_metric, quotient
from .tables import _write_csv

if TYPE_CHECKING:
    from .operators import DiscreteOperator, SpectralDecomposition

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3

# Relative tolerance of the eigenvalue-sum versus trace-budget identity.
TRACE_TOL_REL = 1e-10


@dataclass(eq=False)
class CliError(Exception):
    """A failed run: its exit code, a stderr message and/or a report to write."""

    code: int
    message: str | None = None
    report: dict[str, Any] | None = None


class _Parser(argparse.ArgumentParser):
    """argparse variant mapping usage errors to exit code 1.

    Each parser rejects the arguments it does not know itself, so a
    subcommand's stray flag is reported with the subcommand's usage line.
    """

    _options: Sequence[_Option] = ()  # added at the first parse, so a run declares one subcommand's arguments

    def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
        for option in self._options:
            self.add_argument(option.flag, dest=option.key, help=option.help, **option.settings)
        self._options = ()
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _path(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a file path, got {json.dumps(value)}")
    return value


def _paths(value: Any) -> list[str]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of file paths, got {json.dumps(value)}")
    return [_path(item) for item in value]


def _nonnegative(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"expected a finite nonnegative number, got {value}")
    return number


def _csv_list(value: Any) -> list[str]:
    if isinstance(value, str):
        items = [item.strip() for item in value.split(",")]
    elif isinstance(value, list):
        items = [str(item) for item in value]
    else:
        raise TypeError("expected a comma-separated list")
    items = [item for item in items if item]
    if not items:
        raise ValueError("empty list")
    return items


def _read(what: str, value: Any, load: Callable[[str], Any]) -> Any:
    """``load`` the file at path ``value``; a missing or malformed file is a usage error."""
    path = _path(value)
    try:
        return load(path)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read {what} file: {exc}") from None
    except ValueError as exc:  # AtomFileError, KernelSpecError, malformed frame rows, a config that is not an object
        raise CliError(EXIT_USAGE, str(exc)) from None


def _scalar_kernels(value: Any) -> list[MatrixKernel]:
    paths = [_path(value)] if isinstance(value, str) else _paths(value)
    kernels = [_read("kernel", path, kernel_from_file) for path in paths]
    for path, kernel in zip(paths, kernels):
        if kernel.n != 1:
            raise CliError(EXIT_USAGE, f"--kernel: {path}: synthesize needs scalar kernels")
    return kernels


def _config(path: str) -> dict[str, Any]:
    config = _read_json(path, "config", lambda value: value)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _frame_kernel(value: Any) -> MatrixKernel | None:
    """The kernel synthesized from the frame files listed in ``value``; ``None`` for no file."""
    from .mercer import read_frame
    from .synthesis import synthesize_kernel

    frames = [_read("frame", path, read_frame) for path in _paths(value)]
    return synthesize_kernel(frames) if frames else None


def _outdir(value: Any) -> Path:
    out = Path(_path(value))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot create output directory: {exc}") from None
    return out


@dataclass(frozen=True)
class _Option:
    """An option: its key (config key and ``dest``), help, check and argparse settings."""

    key: str
    help: str
    check: Callable[[Any], Any]
    required: bool = False
    settings: Mapping[str, Any] = field(default_factory=dict)

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_CONFIG = _Option("config", "JSON config file; explicit flags override it", lambda v: _read("config", v, _config))
_ATOMS = _Option(
    "atoms", "atom CSV file (header id,w,c1,...,cd)", lambda v: _read("atoms", v, load_atoms), required=True
)
_KERNEL = _Option(
    "kernel", "kernel description JSON file", lambda v: _read("kernel", v, kernel_from_file), required=True
)
_KERNELS = _Option(
    "kernel", "scalar kernel JSON file (repeatable)", _scalar_kernels, settings={"action": "append"}
)
_OUT = _Option("out", "output directory", _outdir, required=True)
_TOL_RECON = _Option("tol_recon", "reconstruction tolerance", _nonnegative)
_TOL_QUOTIENT = _Option("tol_quotient", "metric zero threshold", _nonnegative)
_RANK_CUTOFF = _Option("rank_cutoff", "eigenvalue cutoff", _nonnegative)
_SUBSET = _Option(
    "subset", "comma-separated atom ids (default: measure support)", lambda v: list(dict.fromkeys(_csv_list(v)))
)
_TRUNCATIONS = _Option(
    "truncations",
    "comma-separated truncation orders (default: all)",
    lambda v: sorted({int(m) for m in _csv_list(v)}),
)
_FRAMES = _Option("frames", "frame CSV files, one per component", _frame_kernel, settings={"nargs": "+"})


def _resolve(args: argparse.Namespace, options: Sequence[_Option]) -> None:
    """Set each option on ``args`` to its checked value: the flag, else the config key.

    A ``TypeError``/``ValueError`` from a check is reported as ``--flag: message``.
    Config keys that none of ``options`` reads are ignored.
    """
    config = {} if args.config is None else _CONFIG.check(args.config)
    for option in options:
        value = getattr(args, option.key)
        if value is None:
            value = config.get(option.key)
        if value is None:
            if option.required:
                raise CliError(EXIT_USAGE, f"missing required option {option.flag}")
        else:
            try:
                value = option.check(value)
            except (TypeError, ValueError) as exc:
                raise CliError(EXIT_USAGE, f"{option.flag}: {exc}") from None
        setattr(args, option.key, value)


def _text_lines(value: Any, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines: list[str] = []
        for key in sorted(value):
            lines.extend(_text_lines(value[key], f"{prefix}{key}."))
        return lines
    return [f"{prefix[:-1]}: {json.dumps(value)}"]


def _native(value: Any, strict: bool = False, key: str = "") -> Any:
    """Recursively force numpy scalars to plain Python for JSON output.

    Non-finite floats become ``None``, so reports stay strict JSON; with
    ``strict``, the first raises a usage error that names its dotted key.
    """
    if isinstance(value, dict):
        return {k: _native(v, strict, f"{key}{k}.") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v, strict, f"{key}{i}.") for i, v in enumerate(value)]
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if strict and not math.isfinite(value):
            raise CliError(EXIT_USAGE, f"{key[:-1]} overflows the largest float")
        return value if math.isfinite(value) else None
    return value


def _write_text(path: Path, lines: Sequence[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")


def _write_report(out: Path, data: dict[str, Any]) -> None:
    data = _native(data)
    _write_text(out / "report.json", [json.dumps(data, indent=2, sort_keys=True, allow_nan=False)])
    _write_text(out / "report.txt", _text_lines(data))


def _about(args: argparse.Namespace, kernel: MatrixKernel) -> dict[str, Any]:
    return {"kernel": kernel.label, "n_atoms": len(args.atoms)}


def _validation(args: argparse.Namespace, kernel: MatrixKernel) -> tuple[dict[str, Any], np.ndarray]:
    """The axiom report of ``kernel`` and its core's Gram, which later stages read; failed exits 2, overflowing 1."""
    blocks = gram(_factors(kernel)[0], args.atoms)
    report = validate_kernel(kernel, args.atoms, blocks)
    validation = report.to_dict()
    if not report.passed:
        raise CliError(EXIT_VALIDATION, report={**_about(args, kernel), "validation": validation, "passed": False})
    return _native(validation, strict=True, key="validation."), blocks


def _operator(args: argparse.Namespace, kernel: MatrixKernel) -> tuple[dict[str, Any], DiscreteOperator]:
    """Validate, rescale and assemble; an empty measure support exits 3."""
    from .operators import EmptySupportError, assemble_operator, rescale_measure

    validation, blocks = _validation(args, kernel)
    nu = rescale_measure(args.atoms, kernel, blocks)
    try:
        return validation, assemble_operator(args.atoms, kernel, nu)
    except EmptySupportError as exc:
        report = {**_about(args, kernel), "validation": validation, "degenerate": str(exc), "passed": False}
        raise CliError(EXIT_DEGENERATE, report=report) from None


def _spectrum(args: argparse.Namespace) -> tuple[dict[str, Any], SpectralDecomposition, tuple[float, float]]:
    """Validation, the decomposition cut at ``--rank-cutoff``, the trace identity of the whole positive spectrum."""
    from .operators import eigendecompose, trace_check

    validation, op = _operator(args, args.kernel)
    dec = eigendecompose(op, args.rank_cutoff)
    return validation, dec, trace_check(dec)


def _validate_report(args: argparse.Namespace) -> dict[str, Any]:
    return {**_about(args, args.kernel), "validation": _validation(args, args.kernel)[0], "passed": True}


def _metric_report(args: argparse.Namespace) -> dict[str, Any]:
    space, kernel, out = args.atoms, args.kernel, args.out
    validation, blocks = _validation(args, kernel)
    metric = pseudo_metric(space, kernel, blocks)
    if not np.isfinite(metric.d).all():
        raise CliError(EXIT_USAGE, "metric.csv: a kernel distance overflows the largest float")
    tol = metric.quotient_tol if args.tol_quotient is None else args.tol_quotient
    classes = quotient(space, metric, tol)
    sup = _holding_mass(space, classes)

    # one row per atom: its label, then its distance to every atom
    _write_csv(out / "metric.csv", ["id", *space.labels], (len(space),), [(space.labels, 0)], metric.d)
    names = np.array(space.labels, dtype=object)
    sizes = np.bincount(classes)
    # each class's members in atom order; its first is its representative
    members = np.split(names[np.argsort(classes, kind="stable")], np.cumsum(sizes)[:-1])
    payload = {
        "classes": [
            {"id": cid, "representative": group[0], "members": group.tolist()} for cid, group in enumerate(members)
        ]
    }
    _write_text(out / "quotient.json", [json.dumps(payload, indent=2, sort_keys=True)])
    _write_text(out / "support.txt", names[sup].tolist())

    # summed over the full-length array, so the two sums are equal exactly
    # when no positive mass lies off the support
    support_mass = float(np.sum(np.where(sup, space.mu, 0.0)))
    total_mass = space.total_mass()
    return {
        **_about(args, kernel),
        "validation": validation,
        "tol_quotient": tol,
        "class_count": len(sizes),
        "support_size": np.count_nonzero(sup),
        "support_mass": support_mass,
        "total_mass": total_mass,
        "mass_ok": support_mass == total_mass,
        "passed": support_mass == total_mass,
    }


def _spectrum_report(args: argparse.Namespace) -> dict[str, Any]:
    from .operators import write_eigenfunctions, write_spectrum

    validation, dec, (lhs, rhs) = _spectrum(args)
    residual = abs(lhs - rhs)
    trace_tol = TRACE_TOL_REL * max(1.0, abs(rhs))
    write_spectrum(dec, args.out / "spectrum.csv")
    write_eigenfunctions(dec, args.out / "eigenfunctions.csv")
    trace_ok = residual <= trace_tol
    return {
        **_about(args, args.kernel),
        "positive_atoms": np.count_nonzero(dec.nu.weights > 0),
        "validation": validation,
        "m_nu": dec.nu.m_nu,
        "rank": dec.rank,
        "spectrum_head": [float(s) for s in dec.sigmas[:8]],
        "trace": {"eigenvalue_sum": lhs, "trace_budget": rhs, "residual": residual, "tol": trace_tol, "ok": trace_ok},
        "passed": trace_ok,
    }


def _errors_report(args: argparse.Namespace) -> dict[str, Any]:
    from .mercer import default_tol_recon, reconstruction_error, write_error_table

    _, dec, _ = _spectrum(args)
    subset = [args.atoms.labels[i] for i in np.flatnonzero(dec.support)] if args.subset is None else args.subset
    for label in subset:
        if label not in args.atoms._index:
            raise CliError(EXIT_USAGE, f"--subset: unknown atom id {label!r}")
    off_support = [label for label in subset if not dec.support[args.atoms.index(label)]]
    steps = args.truncations
    bad = [m for m in steps or () if not 0 <= m <= dec.rank]
    if bad:
        raise CliError(EXIT_USAGE, f"--truncations: {bad[0]} out of range 0..{dec.rank}")
    table = reconstruction_error(dec, subset, steps)
    write_error_table(table, args.out / "errors.csv")

    tol_recon = default_tol_recon(dec) if args.tol_recon is None else args.tol_recon
    # no verdict off the support, nor without the row m = rank
    full_rows = [err for m, err in table if m == dec.rank]
    recon_ok = None if off_support or not full_rows else bool(full_rows[0] <= tol_recon)
    return {
        **_about(args, args.kernel),
        "rank": dec.rank,
        "subset_size": len(subset),
        "off_support": off_support,
        "rows": len(table),
        "final_m": table[-1][0],
        "final_error": table[-1][1],
        "tol_recon": tol_recon,
        "full_rank_ok": recon_ok,
        "passed": recon_ok is not False,
    }


def _frames_report(args: argparse.Namespace) -> dict[str, Any]:
    from .mercer import default_tol_recon, extract_frame, frame_check, write_frame

    _, dec, _ = _spectrum(args)
    tol_recon = default_tol_recon(dec) if args.tol_recon is None else args.tol_recon
    blocks = []
    for j in range(dec.n):
        frame = extract_frame(dec, j)
        write_frame(frame, args.out / f"frame_j{j}.csv")
        deviation = frame_check(frame, dec, j)
        blocks.append({"j": j, "deviation": deviation, "ok": deviation <= tol_recon})
    return {
        **_about(args, args.kernel),
        "rank": dec.rank,
        "tol_recon": tol_recon,
        "blocks": blocks,
        "passed": all(block["ok"] for block in blocks),
    }


def _synthesis_report(args: argparse.Namespace) -> dict[str, Any]:
    from .synthesis import synthesize_kernel, verify_diagonal_blocks

    space, originals, synth = args.atoms, args.kernel or [], args.frames
    if not originals and synth is None:
        raise CliError(EXIT_USAGE, "synthesize needs --kernel files or --frames files")
    if originals and synth is not None and len(originals) != synth.n:
        expected = f"expected one file per --frames file ({synth.n}), got {len(originals)}"
        raise CliError(EXIT_USAGE, f"--kernel: {expected}")
    grams: Sequence[np.ndarray] = ()  # each original's one Gram: its decomposition's (every atom), or evaluated below
    if synth is None:
        from .mercer import extract_frame
        from .operators import eigendecompose
        decs = (eigendecompose(_operator(args, k)[1]) for k in originals)  # one at a time
        frames, grams = zip(*((extract_frame(dec, 0), _kernel_blocks(dec.nu.core_gram, dec.kernel)) for dec in decs))
        synth = synthesize_kernel(frames)
    index, values = synth.frames
    about = {"n": synth.n, "frame_count": int(values.shape[0]), "n_atoms": len(index)}
    if not index:
        message = "synthesized family has no atoms"
        raise CliError(EXIT_DEGENERATE, message, {**about, "degenerate": message, "passed": False})
    try:
        idx = [space.index(label) for label in index]
    except KeyError as exc:
        raise CliError(EXIT_USAGE, f"--frames: {exc.args[0]}") from None
    # the frames' atoms, in their order: every stage below evaluates over them
    atoms = AtomSpace(tuple(index), space.coords[idx], space.mu[idx])
    report = validate_kernel(synth, atoms)  # off the frames: a Gram only where its entries may overflow
    write_precomputed(synth, atoms, args.out / "kernel.csv")

    data: dict[str, Any] = {**about, "validation": report.to_dict(), "passed": report.passed}
    if originals:
        from .mercer import _tol_recon
        grams = grams or [gram(kernel, atoms) for kernel in originals]
        deviation = verify_diagonal_blocks(synth, originals, atoms, grams)
        default = max(_tol_recon(np.einsum("xxlj->xlj", g)) for g in grams)  # default_tol_recon's rule, over them
        tol_recon = default if args.tol_recon is None else args.tol_recon
        data.update(diagonal_deviation=deviation, tol_recon=tol_recon, diagonal_ok=deviation <= tol_recon)
        data["passed"] = report.passed and data["diagonal_ok"]
    if not report.passed:
        raise CliError(EXIT_VALIDATION, report=data)
    return data


_BASE = (_ATOMS, _KERNEL, _OUT)
_SERIES = _BASE + (_RANK_CUTOFF,)
# name -> (help, the options it reads in the order they are resolved, body)
_COMMANDS: dict[str, tuple[str, tuple[_Option, ...], Callable[[argparse.Namespace], dict[str, Any]]]] = {
    "validate": ("check kernel axioms on the atom set", _BASE, _validate_report),
    "metric": ("kernel pseudo-metric, quotient classes and support", _BASE + (_TOL_QUOTIENT,), _metric_report),
    "decompose": ("spectrum and eigenfunctions of the kernel operator", _SERIES, _spectrum_report),
    "reconstruct": (
        "truncation error table of the eigen-series", _SERIES + (_TOL_RECON, _SUBSET, _TRUNCATIONS), _errors_report
    ),
    "frames": ("per-component scalar frames with Parseval checks", _SERIES + (_TOL_RECON,), _frames_report),
    "synthesize": (
        "build a matrix kernel from scalar frames", (_ATOMS, _KERNELS, _OUT, _TOL_RECON, _FRAMES), _synthesis_report
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mercerkit", description="Spectral pipeline for matrix-valued kernels.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, options, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)._options = (*options, _CONFIG)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, options, body = _COMMANDS[args.command]
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a report number that overflows is named, not warned of
            _resolve(args, options)
            report, code = _native(body(args), strict=True), EXIT_OK
    except (CliError, KernelEvaluationError) as exc:
        # a precomputed table that misses a pair is a bad input file
        error = exc if isinstance(exc, CliError) else CliError(EXIT_USAGE, str(exc))
        if error.message is not None:
            print(f"mercerkit: error: {error.message}", file=sys.stderr)
        report, code = error.report, error.code
    if report is not None:
        _write_report(args.out, {"command": args.command, **report})
    return code


def _run() -> None:
    """The ``mercerkit`` command: :func:`main` on ``sys.argv``, its code the exit status.

    The process ends without tearing its heap down, once the ``atexit`` handlers have run and stdout and stderr
    are flushed; if a flush fails (a closed pipe, say), ``sys.exit`` ends it and the interpreter reports that.
    """
    # the import-time heap lives as long as the process: frozen, no collection walks it, during the run or at exit
    gc.freeze()
    gc.enable()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed or missing stream: the interpreter's own exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    _run()
