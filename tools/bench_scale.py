"""At-scale run of a workload: wall time, exit code, peak RSS, verdict and output bytes of each subcommand.

    python3 tools/bench_scale.py [REV ...] --workload W [W ...] [--atoms N] [--seed 1] [--write LABEL] [--work DIR]

Each workload's inputs are generated once, by ``perfbench.workloads.generate``
at ``--seed`` with ``--atoms`` atoms (default: the benchmark's size), and
every revision runs on the same files.  Each ``REV`` is a git revision of
the repository this script is in, exported with ``git archive`` into ``r0``,
``r1``, ... under one work directory, so the checkouts' paths have the same
length (a child's peak RSS moves with it); without ``REV``, the working tree
runs.  For each workload, the revisions run in turn; each subcommand of the
workload's plan runs once, as a ``python -m mercerkit.cli`` child spawned
through ``perfbench.run.Launcher``, with one BLAS thread, on one core, as in
the benchmark, so its peak RSS is its own ``ru_maxrss``.  The verdict is the
``passed`` of its ``report.json`` (``perfbench.run.report_passed``); the
benchmark's numpy checks of every output are not run.  The output bytes are
those of the files in the subcommand's output directory, which is deleted
once a revision's run is measured.

A markdown table goes to stdout, one row per revision and subcommand, and a
total per revision.  With ``--write LABEL``, the run is added to
``BENCH_<LABEL>.json`` at the root of the repository, after the runs already
there: for each workload and revision, the environment record of
``perfbench.run.environment`` (revision, Python, numpy, BLAS name, version
and threads, core count, input hashes) and the rows.  The exit status is 1
if a child exited with a nonzero code, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # perfbench's modules import each other by their bare names

from run import Launcher, child_env, environment, report_passed, run_children  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"])


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` written into the new directory ``dest``."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", rev).stdout, check=True)


def working_tree() -> str:
    """The commit the working tree is on, marked if tracked files differ from it."""
    rev = git("rev-parse", "HEAD").stdout.decode().strip()
    return rev + "+changes" if git("status", "--porcelain", "--untracked-files=no").stdout else rev


def measure(checkout: Path, inputs: Path, wl, out: str) -> list[dict]:
    """One row per subcommand of ``wl``'s plan, run from ``checkout`` on ``inputs``, writing under ``inputs/out``."""
    walls: dict[str, float] = {}
    launcher = Launcher(child_env(checkout), inputs / f"{out.replace('/', '-')}.log")

    def spawn(sub: str, cmd: list[str], cwd: Path) -> tuple[float, int, int]:
        walls[sub], code, rss = launcher.spawn(cmd, cwd)
        return walls[sub], code, rss

    try:
        result = run_children(wl, inputs, out, spawn)
    finally:
        launcher.close()
    rows = []
    for sub in result["codes"]:
        files = [p for p in (inputs / out / sub).rglob("*") if p.is_file()]
        rows.append({
            "subcommand": sub,
            "wall_s": round(walls[sub], 3),
            "exit": result["codes"][sub],
            "peak_rss_mib": round(result["rss"][sub] / 1024, 1),
            "passed": report_passed(inputs / out, sub),
            "output_bytes": sum(p.stat().st_size for p in files),
        })
    shutil.rmtree(inputs / out)
    return rows


def table(rev: str, rows: list[dict]) -> list[str]:
    """Markdown rows of one revision's run, and its total; the revision's hash is cut to 10 digits."""
    rev = rev[:10] + rev[40:]
    lines = [f"| {rev} | {r['subcommand']} | {r['wall_s']:.2f} s | {r['exit']} | {r['peak_rss_mib']:.1f} MiB "
             f"| {'pass' if r['passed'] else 'FAIL'} | {r['output_bytes'] / 1e6:.2f} MB |" for r in rows]
    total, peak = sum(r["wall_s"] for r in rows), max(r["peak_rss_mib"] for r in rows)
    return lines + [f"| {rev} | total | {total:.2f} s | | {peak:.1f} MiB | | |"]


def label(value: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9._-]+", value):
        raise argparse.ArgumentTypeError(f"expected letters, digits, '.', '_' or '-', got {value!r}")
    return value


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    """The options; ``--workload`` takes one or more names and may be repeated."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="*", help="git revisions to run (default: the working tree)")
    parser.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS, required=True)
    parser.add_argument("--atoms", type=int, help="atoms N of the generated inputs (default: the benchmark's)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", type=label, metavar="LABEL", help="add the run to BENCH_<LABEL>.json at the root")
    parser.add_argument("--work", type=Path, help="a new directory for inputs and checkouts, kept (default: a temporary one)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.rev:
        revs = [git("rev-parse", "--verify", f"{rev}^{{commit}}").stdout.decode().strip() for rev in args.rev]
    else:
        revs = [working_tree()]
    # every child runs on one core, as in the benchmark
    nproc, cpu = len(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runs, failed = [], False
    with tempfile.TemporaryDirectory() as temp:
        work = args.work or Path(temp)
        work.mkdir(parents=True, exist_ok=args.work is None)
        checkouts = [work / f"r{i}" for i in range(len(revs))] if args.rev else [ROOT]
        if args.rev:
            for rev, checkout in zip(revs, checkouts):
                export(rev, checkout)
        for workload in args.workload:
            inputs = work / workload
            wl = generate(workload, args.seed, inputs, args.atoms)
            wl.gram = wl.synth_grams = None  # the numpy reference, not used here
            print(f"### {workload}, N = {wl.n_atoms}, seed {args.seed}\n")
            print("| rev | subcommand | wall | exit | peak RSS | verdict | output |\n|---|---|---|---|---|---|---|")
            for i, (rev, checkout) in enumerate(zip(revs, checkouts)):
                print(f"bench_scale: {workload} N = {wl.n_atoms}: {rev[:10]}", file=sys.stderr)
                rows = measure(checkout, inputs, wl, f"out/r{i}")
                failed = failed or any(r["exit"] for r in rows)
                print("\n".join(table(rev, rows)), flush=True)
                runs.append({"environment": {**environment(checkout, wl, nproc, cpu), "git_rev": rev}, "rows": rows})
            print()
    if args.write:
        path = ROOT / f"BENCH_{args.write}.json"
        before = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
        path.write_text(json.dumps({"runs": before + runs}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
