"""The command lines of the scripts under ``tools/``: a repeated flag adds to the values of the ones before."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
WORKLOADS = ["scalar-gauss", "matrix-sep3", "table-lowrank"]


def _parse(tool: str, argv: list[str]):
    spec = importlib.util.spec_from_file_location(tool, TOOLS / f"{tool}.py")
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
