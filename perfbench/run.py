"""Pipeline benchmark of the mercerkit command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scalar-gauss --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's inputs from the seed, then runs the
workload's subcommands one after another, each in a fresh child process
(``python -m mercerkit.cli ...`` with ``src`` on ``PYTHONPATH``), as a user
at a shell would: a closed loop with a single client, on one core, with one
BLAS thread.  It repeats whole pipelines until ``--seconds`` are spent,
checks every output against a numpy reference, and reports medians over the
repeats.  Times are normalized to a fixed host speed (see ``SpeedTimer``);
the raw wall-time medians are printed too.

With ``--trace 1`` it instead runs the pipeline in one process
(``perfbench/tracer.py``), once untraced and once with timing wrappers around
each layer, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``attempted``
and ``failed`` count operations, each subcommand once (see ``Runs``); the
lines before it print every metric by name with its unit, the environment
record, and the failed fraction of all subcommand runs with its base.  Metric names and units come from
``BENCHMARK.json``.  ``perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import Checker
from workloads import DEFAULT_N, Workload, generate

# One BLAS thread per child: on a small shared machine this keeps run-to-run
# spread low, and it is at most nproc on every machine.
BLAS_THREADS = 1
SUBCOMMANDS = ("validate", "metric", "decompose", "reconstruct", "frames", "synthesize")
WORK_DIR = ".perfbench_work"
PROBE_REFERENCE_S = 0.04


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Launcher:
    """The slim child process (``launcher.py``) that spawns and times every child.

    Children inherit its environment and, through it, the benchmark's core.
    """

    def __init__(self, env: dict[str, str], log: Path) -> None:
        self.log = str(log)
        script = Path(__file__).resolve().with_name("launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(script)], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, cmd: list[str], cwd: Path, log: bool = True) -> tuple[float, int, int]:
        """Run a child to completion; return wall seconds, exit code and peak RSS in KiB."""
        request = {"cmd": cmd, "cwd": str(cwd), "log": self.log if log else None}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        return answer["wall"], answer["code"], answer["maxrss_kib"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def tree_hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def report_passed(out: Path, sub: str) -> bool:
    try:
        with open(out / sub / "report.json", encoding="utf-8") as fh:
            return json.load(fh).get("passed") is True
    except (OSError, ValueError):
        return False


def _sub_hashes(hashes: dict[str, str], sub: str) -> dict[str, str]:
    return {k: v for k, v in hashes.items() if k.startswith(sub + "/")}


class Runs:
    """Subcommand runs attempted, their failures and the problems found.

    An operation is one subcommand on the workload's inputs.  A run repeats
    the pipeline as often as its seconds allow, and the number of repeats
    follows the host's speed; so the result's ``attempted`` and ``failed``
    count operations, an operation failing if any of its runs failed, and
    stay the same from run to run of one seed.  The counts over all runs,
    which give the failed fraction, are kept beside them.
    """

    def __init__(self, checker: Checker, inputs: Path) -> None:
        self.checker = checker
        self.inputs = inputs
        self.reference: dict[str, str] | None = None
        self.operations: dict[str, bool] = {}
        self.runs_attempted = 0
        self.runs_failed = 0
        self.problems: list[str] = []
        self.verdicts: list[str] = []
        self.raw: dict[str, float] = {}

    def record(self, out: str, codes: dict[str, int], tag: str) -> None:
        """Account one pipeline: exit codes, report verdicts, output checks."""
        directory = self.inputs / out
        hashes = tree_hashes(directory)
        if self.reference is None:
            self.reference = hashes
            checks = {sub: self.checker.check(sub, directory) for sub in codes}
        else:
            checks = {
                sub: [] if _sub_hashes(hashes, sub) == _sub_hashes(self.reference, sub)
                else [f"{sub}: outputs differ from the first run"]
                for sub in codes
            }
        for sub, code in codes.items():
            self.runs_attempted += 1
            passed = report_passed(directory, sub)
            failed = code != 0 or not passed or bool(checks[sub])
            self.operations[sub] = self.operations.get(sub, False) or failed
            if failed:
                self.runs_failed += 1
                self.verdicts.append(f"{tag} {sub}: exit {code}, report passed={passed}")
            self.problems += [f"{tag} {p}" for p in checks[sub]]

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(self.operations.values())


class SpeedTimer:
    """Times children between host-speed probes and normalizes to a fixed speed.

    On a shared host the speed of a core can halve for seconds at a time while
    other tenants load it, which no amount of repetition inside one run
    averages out.  A short fixed probe runs before the first child
    and after every child, on the same core.  A child's time is its wall time
    scaled by ``PROBE_REFERENCE_S`` over the mean of the probes on both sides
    of it: seconds at the speed at which the probe takes ``PROBE_REFERENCE_S``.
    A change to the program moves this time as it moves the wall time; a
    change of host speed moves both the child and the probes and cancels.
    """

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.probes = [self.probe()]
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)

    def probe(self) -> float:
        """Seconds to start and stop a bare interpreter: the host-speed probe.

        Of the probes tried on a shared 2-core host (a numpy loop, a small
        eigensolve, a memory copy, a pure Python loop, a bare interpreter),
        the interpreter's time scaled most nearly 1:1 with the subcommands'
        wall times as the host's speed changed.
        """
        return self.launcher.spawn([sys.executable, "-c", "pass"], Path.cwd(), log=False)[0]

    def spawn(self, key: str, cmd: list[str], cwd: Path, log: bool = True) -> tuple[float, int, int]:
        wall, code, rss = self.launcher.spawn(cmd, cwd, log)
        self.probes.append(self.probe())
        self.samples[key].append((wall, len(self.probes) - 2))
        return wall, code, rss

    def median(self, key: str) -> float:
        """Median normalized seconds of the samples of ``key``."""
        return statistics.median(
            wall * 2.0 * PROBE_REFERENCE_S / (self.probes[i] + self.probes[i + 1])
            for wall, i in self.samples[key]
        )

    def raw_median(self, key: str) -> float:
        return statistics.median(wall for wall, _ in self.samples[key])


def run_children(wl: Workload, inputs: Path, out: str, spawn) -> dict:
    """Run the workload's subcommands as children; ``spawn(sub, cmd, cwd)`` runs one."""
    codes, rss = {}, {}
    for sub, template in wl.plan:
        cmd = [sys.executable, "-m", "mercerkit.cli"] + [arg.replace("{out}", out) for arg in template]
        _, codes[sub], rss[sub] = spawn(sub, cmd, inputs)
    return {"codes": codes, "rss": rss}


def measure_untraced(wl: Workload, inputs: Path, runs: Runs, launcher: Launcher, seconds: float) -> dict[str, float]:
    help_cmd = [sys.executable, "-m", "mercerkit.cli", "--help"]
    launcher.spawn(help_cmd, inputs, log=False)  # fills the bytecode cache; not counted
    timer = SpeedTimer(launcher)
    for _ in range(2):
        timer.spawn("setup", help_cmd, inputs, log=False)
    peaks = []
    start = time.perf_counter()
    last = 0.0
    while not peaks or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        timer.spawn("setup", help_cmd, inputs, log=False)
        out = f"out/r{len(peaks)}"
        result = run_children(wl, inputs, out, timer.spawn)
        runs.record(out, result["codes"], f"run {len(peaks)}")
        if peaks:
            shutil.rmtree(inputs / out)
        peaks.append(max(result["rss"].values()) * 1024 / 1e6)
        last = time.perf_counter() - begin
    runs.raw = {f"{key}_s": timer.raw_median(key) for key in timer.samples}
    runs.raw["probe_s"] = statistics.median(timer.probes)
    metrics = {f"{sub}_s": timer.median(sub) for sub in SUBCOMMANDS}
    metrics["pipeline_s"] = sum(metrics[f"{sub}_s"] for sub in SUBCOMMANDS)
    metrics["setup_s"] = timer.median("setup")
    metrics["peak_rss_mb"] = statistics.median(peaks)
    return metrics


def measure_traced(wl: Workload, inputs: Path, runs: Runs, launcher: Launcher, seconds: float, root: Path) -> dict[str, float]:
    start = time.perf_counter()
    reference = run_children(wl, inputs, "out/r0", lambda sub, cmd, cwd: launcher.spawn(cmd, cwd))
    runs.record("out/r0", reference["codes"], "child run")
    plan = {
        "src": str(root / "src"),
        "cwd": str(inputs),
        "labels": wl.labels,
        "plan": wl.plan,
        "out": "trace",
        "seconds": max(seconds - (time.perf_counter() - start), 0.0),
    }
    plan_path, result_path = inputs / "trace_plan.json", inputs / "trace_result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    tracer = Path(__file__).resolve().with_name("tracer.py")
    _, code, _ = launcher.spawn([sys.executable, str(tracer), str(plan_path), str(result_path)], inputs)
    if code != 0:
        raise RuntimeError(f"traced run exited with {code}; see {launcher.log}")
    passes = json.loads(result_path.read_text(encoding="utf-8"))
    for p in passes:
        runs.record(p["out"], p["codes"], p["out"])
        shutil.rmtree(inputs / p["out"])
    untraced, traced = passes[0::2], passes[1::2]
    names = set().union(*(p["layers"] for p in traced))
    for name in sorted(names):
        if name.endswith(("calls", "operator_dim", "extended_atoms")):
            counts = {p["layers"].get(name, 0) for p in traced}
            if len(counts) > 1:
                runs.problems.append(f"count {name} differs between traced runs: {sorted(counts)}")
    metrics = {
        name: statistics.median(p["layers"].get(name, 0.0) for p in traced) for name in sorted(names)
    }
    # each traced pass runs right after its untraced twin, so the pair shares the host's speed
    metrics["trace.overhead_frac"] = statistics.median(
        sum(t["walls"].values()) / sum(u["walls"].values()) for u, t in zip(untraced, traced)
    ) - 1.0
    return metrics


def git_rev(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(root: Path, wl: Workload, nproc: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "git_rev": git_rev(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "workload": wl.name,
        "seed": wl.seed,
        "N": wl.n_atoms,
        "n": wl.n,
        "d": wl.d,
        "inputs_sha256": wl.files,
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, n_atoms: int | None = None) -> dict:
    """Run one benchmark measurement in ``root``; return the full result record."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    # every child runs on one core, the core the speed probes measure
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = root / WORK_DIR / f"{workload}-{seed}-{'traced' if trace else 'untraced'}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    wl = generate(workload, seed, inputs, n_atoms)
    runs = Runs(Checker(wl), inputs)
    launcher = Launcher(child_env(root), work / "children.log")
    try:
        if trace:
            measured = measure_traced(wl, inputs, runs, launcher, seconds, root)
        else:
            measured = measure_untraced(wl, inputs, runs, launcher, seconds)
    finally:
        launcher.close()
    if trace:
        # a layer that a workload never enters reads 0; the self-test checks
        # that every declared layer metric is measured on some workload
        measured = {m["name"]: 0.0 for m in declared} | measured
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    record = {
        "environment": environment(root, wl, nproc, cpu),
        "correct": not runs.problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "runs_attempted": runs.runs_attempted,
        "runs_failed": runs.runs_failed,
        "failures": runs.verdicts,
        "problems": runs.problems,
        "raw_wall_medians": runs.raw,
        "metrics": {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_N))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mercerkit" / "cli.py").is_file():
        print("perfbench: src/mercerkit/cli.py not found; run from the root of a mercerkit checkout",
              file=sys.stderr)
        return 2
    record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    metrics = record["metrics"]
    for name, metric in metrics.items():
        base = ""
        if name.startswith("kernels.eval_distinct_ratio"):
            calls = metrics[name.replace("eval_distinct_ratio", "eval_calls")]["value"]
            base = f" (of {calls:.0f} evaluator calls)"
        print(f"metric {name} = {metric['value']!r} {metric['unit']}{base}")
    print(f"failed_frac = {record['runs_failed']}/{record['runs_attempted']} subcommand runs "
          f"({record['failed']}/{record['attempted']} operations)")
    if record["raw_wall_medians"]:
        print("raw wall-time medians " + json.dumps(record["raw_wall_medians"]))
    for line in record["failures"] + record["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
