"""A/B benchmark of two revisions: alternating pairs of untraced perfbench runs, their medians and wins.

    python3 tools/bench_ab.py BASE HEAD [--pairs 10] [--seed 1] [--workload NAME ...] [--seconds 8] [--work DIR]

``BASE`` and ``HEAD`` are git revisions of the repository this script is in.
Each is exported with ``git archive`` into its own directory, ``base`` and
``head`` under one work directory, so the two checkouts' paths have the same
length: a child's peak RSS moves with the length of its checkout's path.
Both sides run the same benchmark, ``HEAD``'s ``perfbench/`` and
``BENCHMARK.json``, copied over ``BASE``'s, in the same environment, this
process's, so ``PYTHONDONTWRITEBYTECODE`` is alike on both (its value heads
the report).  For each workload, pair ``k`` runs
``python3 perfbench/run.py --trace 0`` at ``--seed`` once in each checkout,
``BASE`` first in even pairs and ``HEAD`` first in odd ones.

A markdown report goes to stdout; progress goes to stderr.  For each
workload and each end-to-end metric of ``BENCHMARK.json`` it gives both
medians over the pairs, the change of the median, the interquartile range
of ``BASE``'s runs and the count of pairs in which ``HEAD`` was better.
Runs that were not correct or failed operations are counted under the
table.  The exit status is 1 if a run gave no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("scalar-gauss", "matrix-sep3", "table-lowrank")
SIDES = ("base", "head")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True)


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` written into the new directory ``dest``."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", rev).stdout, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result record of one untraced benchmark run in ``checkout``, or ``None`` if it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"bench_ab: {checkout.name} {workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartile_range(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def table(records: dict[str, list[dict]], declared: list[dict]) -> list[str]:
    """Markdown lines of one workload's end-to-end metrics over its pairs of records."""
    pairs = len(records["base"])
    lines = ["| metric | base median | head median | change | base IQR | head better |", "|---|---|---|---|---|---|"]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        base, head = ([r["metrics"][name]["value"] for r in records[side]] for side in SIDES)
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        old, new = statistics.median(base), statistics.median(head)
        change = f"{(new - old) / old:+.1%}" if old else "-"
        lines.append(f"| {name} | {old:.4g} {unit} | {new:.4g} {unit} | {change} | {quartile_range(base):.3g} {unit} "
                     f"| {wins}/{pairs} |")
    lines.append("")
    for side in SIDES:
        wrong = sum(not r["correct"] for r in records[side])
        failed = sum(r["failed"] for r in records[side])
        attempted = sum(r["attempted"] for r in records[side])
        lines.append(f"- {side}: {wrong} of {pairs} runs not correct, {failed} of {attempted} operations failed")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=8.0, help="seconds of each run (perfbench's --seconds)")
    parser.add_argument("--work", type=Path, help="a new directory for the two checkouts, kept (default: a temporary one)")
    args = parser.parse_args(argv)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").stdout.decode().strip()
            for side, rev in zip(SIDES, (args.base, args.head))}
    with tempfile.TemporaryDirectory() as temp:
        work = args.work or Path(temp)
        checkouts = {side: work / side for side in SIDES}
        for side in SIDES:
            export(revs[side], checkouts[side])
        # one benchmark for both sides: head's
        shutil.rmtree(checkouts["base"] / "perfbench")
        shutil.copytree(checkouts["head"] / "perfbench", checkouts["base"] / "perfbench")
        shutil.copy2(checkouts["head"] / "BENCHMARK.json", checkouts["base"] / "BENCHMARK.json")
        declared = json.loads((checkouts["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE", "unset")
        print(f"### A/B benchmark: base {revs['base'][:10]}, head {revs['head'][:10]}")
        print(f"{args.pairs} alternating pairs at seed {args.seed}, {args.seconds:g} s per run, "
              f"PYTHONDONTWRITEBYTECODE={bytecode}")
        missing = False
        for workload in args.workload:
            records: dict[str, list[dict]] = {side: [] for side in SIDES}
            for k in range(args.pairs):
                results = {}
                for side in SIDES[:: 1 if k % 2 == 0 else -1]:
                    print(f"bench_ab: {workload} pair {k + 1}/{args.pairs}: {side}", file=sys.stderr)
                    results[side] = run(checkouts[side], workload, args.seed, args.seconds)
                if None in results.values():
                    missing = True
                    continue
                for side in SIDES:
                    records[side].append(results[side])
            print(f"\n#### {workload}\n")
            print("\n".join(table(records, declared)) if records["base"] else "no pair gave a result")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
