"""The benchmark's traced run keeps working: ``perfbench/tracer.py`` wraps the library's layers."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mercerkit.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SUBCOMMANDS = ["validate", "metric", "decompose", "reconstruct", "frames"]
SEPARABLE = {
    "type": "separable",
    "matrix": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
    "scalar": {"type": "gaussian", "gamma": 0.8},
}


@pytest.fixture(scope="module")
def tracing():
    """The tracer script, loaded by path as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_traced_pipeline_matches_untraced(tmp_path, tracing):
    labels = [f"x{i}" for i in range(9)]
    # every fourth atom has zero mass, so decompose extends to it
    rows = [f"{x},{0.0 if i % 4 == 3 else 1.0 + 0.1 * i},{0.4 * i},{0.1 * i * i}" for i, x in enumerate(labels)]
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("id,w,c1,c2\n" + "\n".join(rows) + "\n")
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps(SEPARABLE))
    common = ["--atoms", str(atoms), "--kernel", str(kernel)]
    plan = [(sub, [sub, *common, "--out", f"{{out}}/{sub}"]) for sub in SUBCOMMANDS]
    frames = [f"{{out}}/frames/frame_j{j}.csv" for j in range(2)]
    plan.append(("synthesize", ["synthesize", "--atoms", str(atoms), "--frames", *frames, "--out", "{out}/synthesize"]))

    untraced = tracing.run_pipeline(main, plan, str(tmp_path / "untraced"), None, "0")
    tracer = tracing.Tracer(labels)
    tracer.install()
    try:
        traced = tracing.run_pipeline(main, plan, str(tmp_path / "traced"), tracer, "0")
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0, traced["run_ids"], sum(traced["walls"].values()))

    expected = {sub: 0 for sub, _ in plan}
    assert untraced["codes"] == expected
    assert traced["codes"] == expected
    outputs = []
    for run in (untraced, traced):
        root = Path(run["out"])
        outputs.append({str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()})
    assert "synthesize/kernel.csv" in outputs[0]
    assert outputs[0] == outputs[1]
    assert layers["kernels.eval_calls"] == 0
    # the wrappers ran: every subcommand validated its kernel, decompose extended to the zero-mass atoms
    assert layers["kernels.validate_kernel.calls"] >= len(plan)
    assert layers["operators.extended_atoms"] == 2
