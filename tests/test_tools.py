"""The command lines of the scripts under ``tools/``, and ``bench_scale`` at a tiny N.

A repeated flag adds to the values of the ones before, and the workloads are
those that the repository's ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
WORKLOADS = ["scalar-gauss", "matrix-sep3", "table-lowrank"]
SUBCOMMANDS = ["validate", "metric", "decompose", "reconstruct", "frames", "synthesize"]


def _parse(tool: str, argv: list[str], tools: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(tool, tools / f"{tool}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.parse(argv)


@pytest.mark.parametrize("tool", ["bench_ab", "output_diff"])
@pytest.mark.parametrize(
    "flags, workloads",
    [
        ([], WORKLOADS),
        (["--workload", "matrix-sep3"], ["matrix-sep3"]),
        (["--workload", "matrix-sep3", "table-lowrank"], ["matrix-sep3", "table-lowrank"]),
        (["--workload", "matrix-sep3", "--workload", "table-lowrank"], ["matrix-sep3", "table-lowrank"]),
        (["--workload", "table-lowrank", "--workload", "scalar-gauss", "matrix-sep3"],
         ["table-lowrank", "scalar-gauss", "matrix-sep3"]),
    ],
    ids=["default", "one", "one_flag_two_names", "repeated_flag", "both_forms"],
)
def test_every_workload_named_is_run(tool, flags, workloads):
    args = _parse(tool, ["BASE", "HEAD", *flags])
    assert (str(args.base), str(args.head)) == ("BASE", "HEAD")
    assert args.workload == workloads


@pytest.mark.parametrize(
    "flags, seeds",
    [([], [1]), (["--seed", "1", "2", "3"], [1, 2, 3]), (["--seed", "1", "--seed", "2", "3"], [1, 2, 3])],
    ids=["default", "one_flag", "repeated_flag"],
)
def test_output_diff_runs_every_seed_named(flags, seeds):
    assert _parse("output_diff", ["BASE", "HEAD", *flags]).seed == seeds


@pytest.mark.parametrize("tool", ["bench_ab", "output_diff"])
def test_workloads_are_read_from_the_benchmark(tmp_path, tool):
    # a copy of the tool in a repository whose benchmark declares a fourth workload
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    benchmark["workloads"].append({"name": "scalar-gauss-large", "why": "a workload no tool names"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    (tmp_path / "tools").mkdir()
    shutil.copy2(TOOLS / f"{tool}.py", tmp_path / "tools")
    assert _parse(tool, ["BASE", "HEAD"], tmp_path / "tools").workload == [*WORKLOADS, "scalar-gauss-large"]
    named = ["BASE", "HEAD", "--workload", "scalar-gauss-large"]
    assert _parse(tool, named, tmp_path / "tools").workload == ["scalar-gauss-large"]


def test_bench_scale_runs_each_revision_and_records_its_rows(tmp_path):
    # a git repository holding this one's tools, benchmark and program; the working tree, then its HEAD
    repo = tmp_path / "repo"
    for name in ("tools", "perfbench", "src"):
        shutil.copytree(TOOLS.parent / name, repo / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(TOOLS.parent / "BENCHMARK.json", repo)
    for argv in (["init", "-q"], ["add", "-A"], ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "t"]):
        subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True, capture_output=True, text=True).stdout
    tool = [sys.executable, str(repo / "tools" / "bench_scale.py")]
    flags = ["--workload", "matrix-sep3", "--atoms", "6", "--seed", "2", "--write", "tiny"]
    for revs in ([], ["HEAD"]):
        done = subprocess.run([*tool, *revs, *flags], cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        rows = [line for line in done.stdout.splitlines() if line.startswith(f"| {head[:10]} |")]
        assert [line.split(" | ")[1] for line in rows] == [*SUBCOMMANDS, "total"]
        assert all(" | 0 | " in line and " | pass | " in line for line in rows[:-1])
    runs = json.loads((repo / "BENCH_tiny.json").read_text(encoding="utf-8"))["runs"]
    assert [run["environment"]["git_rev"] for run in runs] == [head.strip()] * 2
    assert {run["environment"]["N"] for run in runs} == {6}
    for run in runs:
        assert [row["subcommand"] for row in run["rows"]] == SUBCOMMANDS
        assert all(row["exit"] == 0 and row["passed"] and row["output_bytes"] > 0 for row in run["rows"])
        assert all(row["wall_s"] > 0 and row["peak_rss_mib"] > 0 for row in run["rows"])
