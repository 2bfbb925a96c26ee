"""Compare what two mercerkit checkouts write on the benchmark's workloads.

    python3 tools/output_diff.py BASE HEAD [--seed 1 2 3] [--workload NAME ...] [--work DIR]

``BASE`` and ``HEAD`` are the roots of two checkouts.  For each workload and
seed, ``HEAD``'s ``perfbench/workloads.py`` writes the inputs once; each
checkout then runs every subcommand of the workload's plan as
``python -m mercerkit.cli`` with its own ``src`` first on ``PYTHONPATH``, at
one BLAS thread, in its own copy of the inputs with the outputs under
``out``.  The output files, the exit codes and the stderr lines of the two
are compared.  Each checkout also runs ``--help``, ``--help`` of each plan
subcommand and one stray flag, whose stdout, stderr and exit codes are
compared.  A markdown summary goes to stdout: how many of each there are,
and which differ.  The exit status is 1 if anything differs.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("scalar-gauss", "matrix-sep3", "table-lowrank")


def run_cli(root: Path, cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m mercerkit.cli`` of the checkout at ``root`` on ``argv`` in ``cwd``, its stdout and stderr read."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "mercerkit.cli", *argv], cwd=cwd, env=env, capture_output=True,
                          text=True)


def run_plan(root: Path, inputs: Path, plan: list) -> dict[str, tuple[int, list[str]]]:
    """Each subcommand's exit code and stderr lines, run by the checkout at ``root`` in ``inputs``."""
    results = {}
    for sub, argv in plan:
        run = run_cli(root, inputs, [arg.replace("{out}", "out") for arg in argv])
        results[sub] = run.returncode, run.stderr.splitlines()
    return results


def compare_help(base: Path, head: Path, subs: list[str], work: Path) -> tuple[int, list[str]]:
    """Count of help and usage runs, and what differs: ``--help``, each of ``subs`` with ``--help``, a stray flag."""
    runs = [["--help"], *([sub, "--help"] for sub in subs), [subs[0], "--no-such-flag"]]
    differ = []
    for argv in runs:
        old, new = (run_cli(root, work, argv) for root in (base, head))
        command = " ".join(["mercerkit", *argv])
        differ += [f"`{command}` {name}" for name in ("stdout", "stderr", "returncode")
                   if getattr(old, name) != getattr(new, name)]
    return len(runs), differ


def compare(base: Path, head: Path, workload: str, seed: int, work: Path) -> tuple[int, int, int, list[str], list]:
    """Counts of output files, exit codes and stderr lines of one workload and seed, what differs, and its plan."""
    sys.path.insert(0, str(head / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    inputs = work / f"{workload}-{seed}"
    plan = workloads.generate(workload, seed, inputs / "inputs").plan
    runs = {}
    for side, root in (("base", base), ("head", head)):
        shutil.copytree(inputs / "inputs", inputs / side)
        runs[side] = run_plan(root, inputs / side, plan)
    tag = f"{workload} seed {seed}"
    outs = [inputs / side / "out" for side in ("base", "head")]
    files = sorted({str(p.relative_to(out)) for out in outs if out.is_dir() for p in out.rglob("*") if p.is_file()})
    differ = [f"{tag}: {name}" for name in files
              if not all((out / name).is_file() for out in outs)
              or not filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)]
    lines = 0
    for sub, _ in plan:
        (code, err), (head_code, head_err) = runs["base"][sub], runs["head"][sub]
        lines += max(len(err), len(head_err))
        if code != head_code:
            differ.append(f"{tag}: {sub} exit code {code} -> {head_code}")
        differ += [f"{tag}: {sub} stderr line {k + 1}" for k in range(max(len(err), len(head_err)))
                   if err[k:k + 1] != head_err[k:k + 1]]
    return len(files), len(plan), lines, differ, plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    with tempfile.TemporaryDirectory() as temp:
        work = args.work or Path(temp)
        totals, differ, subs = [0, 0, 0], [], {}
        for workload in args.workload:
            for seed in args.seed:
                *counts, found, plan = compare(base, head, workload, seed, work)
                totals = [a + b for a, b in zip(totals, counts)]
                differ += found
                subs.update((sub, None) for sub, _ in plan)
        help_runs, help_differ = compare_help(base, head, list(subs), work)
    seeds = ", ".join(map(str, args.seed))
    print(f"### Outputs against the base, seed {seeds}")
    print(f"- {totals[0]} output files, {totals[1]} exit codes, {totals[2]} stderr lines; {len(differ)} differ")
    print(f"- {help_runs} help and usage runs, each stdout, stderr and exit code; {len(help_differ)} differ")
    print("".join(f"- {item}\n" for item in differ + help_differ), end="")
    return 1 if differ or help_differ else 0


if __name__ == "__main__":
    sys.exit(main())
