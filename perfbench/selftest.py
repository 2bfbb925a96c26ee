"""Self-test of the benchmark at tiny N.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload untraced and traced at N=12, prints every end-to-end
and per-layer metric by name with its unit, and exits non-zero if any of
these fails:

- the outputs pass the checks and traced outputs equal untraced ones;
- every declared per-layer metric is measured on some workload;
- the evaluator counts of ``scalar-gauss`` follow the pipeline's structure
  (``reconstruct`` 4N^2+2N calls, ``frames`` 3N^2+3N);
- the same seed gives byte-identical inputs and another seed does not;
- the checker flags deliberately corrupted copies of the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from checks import Checker
from run import WORK_DIR, run
from workloads import DEFAULT_N, generate

N = 12


def corrupt(path: Path, column: int) -> None:
    """Perturb the largest value in ``column`` by one part in a million."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    cells = max(rows[1:], key=lambda r: abs(float(r[column])))
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def main() -> int:
    root = Path.cwd()
    errors: list[str] = []
    measured: dict[str, float] = {}
    for workload in sorted(DEFAULT_N):
        for trace in (False, True):
            record = run(root, workload, 1, 0.1, trace, n_atoms=N)
            print(f"{workload} trace={int(trace)}: correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']}")
            for name, metric in record["metrics"].items():
                print(f"  {name} [{metric['unit']}] = {metric['value']!r}")
                if metric["value"] != 0:
                    measured[name] = metric["value"]
            errors += [f"{workload}: {p}" for p in record["problems"]]
            if trace and workload == "scalar-gauss":
                counts = {sub: record["metrics"][f"kernels.eval_calls.{sub}"]["value"]
                          for sub in ("reconstruct", "frames")}
                if counts != {"reconstruct": 4 * N * N + 2 * N, "frames": 3 * N * N + 3 * N}:
                    errors.append(f"scalar-gauss evaluator counts {counts} break 4N^2+2N / 3N^2+3N")

    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    errors += [f"per-layer metric {name} is 0 on every workload" for name in declared if name not in measured]

    work = root / WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    for workload in sorted(DEFAULT_N):
        first = generate(workload, 7, work / "a", N).files
        again = generate(workload, 7, work / "b", N).files
        other = generate(workload, 8, work / "c", N).files
        if first != again or first["atoms.csv"] == other["atoms.csv"]:
            errors.append(f"{workload}: generator is not a function of the seed")

    # corrupted copies of a correct run's outputs must be flagged
    wl = generate("scalar-gauss", 1, work / "inputs", N)
    source = root / WORK_DIR / "scalar-gauss-1-untraced" / "inputs" / "out" / "r0"
    checker = Checker(wl)
    for sub, name, column in (("decompose", "spectrum.csv", 1), ("frames", "frame_j0.csv", 2),
                              ("metric", "metric.csv", 2)):
        copy = work / f"corrupt-{sub}"
        shutil.copytree(source, copy)
        if checker.check(sub, copy):
            errors.append(f"checker flags the untouched copy of {sub}")
        corrupt(copy / sub / name, column)
        if not checker.check(sub, copy):
            errors.append(f"checker missed a corrupted {name}")
    shutil.rmtree(work)

    for line in errors:
        print(f"selftest: FAIL {line}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
