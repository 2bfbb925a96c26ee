"""The command lines of the scripts under ``tools/``.

A repeated flag adds to the values of the ones before, and the workloads are
those that the repository's ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
WORKLOADS = ["scalar-gauss", "matrix-sep3", "table-lowrank"]


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
