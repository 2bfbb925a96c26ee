"""In-process traced run: timing wrappers around mercerkit's layers.

Run as ``python3 perfbench/tracer.py PLAN.json RESULT.json``.  The process
imports mercerkit from the plan's source tree and calls
``mercerkit.cli.main(argv)`` for each subcommand of the pipeline, in pairs of
untraced and traced passes until the plan's time budget is spent.  For the
traced pass, wrappers are installed on the names each module calls through
(``mercerkit.cli.validate_kernel``, ``mercerkit.operators.pseudo_metric``,
...), so nested work gets its own child span.  The kernel returned by
``kernel_from_file`` gets a counting evaluator.  Spans stay in memory and are
written out when the run ends.  The program's code is not modified.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "space", "kernels", "operators", "mercer", "synthesis")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    extra: dict = dataclasses.field(default_factory=dict)


class EvalCounter:
    """Per-subcommand count of evaluator calls and of the distinct pairs seen."""

    def __init__(self, labels: list[str]) -> None:
        self.index = {label: i for i, label in enumerate(labels)}
        self.calls = 0
        self.seen = bytearray(len(labels) * len(labels))

    @property
    def distinct(self) -> int:
        return self.seen.count(1)


class Tracer:
    """Span recorder plus the install/uninstall of the layer wrappers."""

    def __init__(self, labels: list[str]) -> None:
        self.labels = labels
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counters: dict[str, EvalCounter] = {}
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, run_id: str | None = None) -> int:
        if run_id is not None:
            self.run_id = run_id
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def _count_evals(self, kernel):
        counter = self.counters.setdefault(self.run_id, EvalCounter(self.labels))
        index, seen, width, inner = counter.index, counter.seen, len(self.labels), kernel.eval

        def counted(x, t):
            counter.calls += 1
            seen[index[x.label] * width + index[t.label]] = 1
            return inner(x, t)

        return dataclasses.replace(kernel, eval=counted)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                extra = tracer.spans[index].extra
                if name == "kernels.kernel_from_file":
                    result = tracer._count_evals(result)
                elif name == "operators.assemble_operator":
                    extra["operator_dim"] = int(result.matrix.shape[0])
                elif name == "operators.eigendecompose":
                    op = args[0]
                    extra["extended_atoms"] = len(op.space.labels) - len(op.indices)
                elif fn.__name__.startswith("write_"):
                    extra["bytes"] = os.path.getsize(args[-1])
                return result
            finally:
                tracer.close(index)

        return wrapper

    def install(self) -> None:
        """Wrap every public mercerkit function at each module name it is called through.

        Functions defined in ``cli`` itself stay unwrapped: their time is the
        subcommand's own (``cli.<subcommand>.self_s``).
        """
        wrapped: dict[int, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"mercerkit.{short}")
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__.startswith("mercerkit.")
                    and fn.__module__ != "mercerkit.cli"
                ):
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(fn)
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_metrics(tracer: Tracer, first_span: int, run_ids: dict[str, str], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline from its spans.

    ``run_ids`` maps each subcommand to the run id of its spans.  Names are
    ``<module>.<function>.<quantity>``: ``s`` inclusive seconds, ``self_s``
    seconds not covered by child spans, ``calls``, ``bytes`` written.
    """
    spans = tracer.spans[first_span:]
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for offset, span in enumerate(spans):
        dur = span.end - span.start
        self_s = dur - child_time[first_span + offset]
        if span.parent is None:
            root_time += dur
            out[f"{span.name}.self_s"] += self_s
            continue
        out[f"{span.name}.s"] += dur
        out[f"{span.name}.self_s"] += self_s
        out[f"{span.name}.calls"] += 1
        for key, value in span.extra.items():
            if key == "bytes":
                out[f"{span.name}.bytes"] += value
            else:
                out[f"operators.{key}"] = max(out[f"operators.{key}"], value)
    out["trace.uncovered_s"] = wall - root_time
    calls = distinct = 0
    for sub, run_id in run_ids.items():
        counter = tracer.counters.get(run_id)
        sub_calls = counter.calls if counter else 0
        sub_distinct = counter.distinct if counter else 0
        out[f"kernels.eval_calls.{sub}"] = sub_calls
        out[f"kernels.eval_distinct_ratio.{sub}"] = sub_distinct / sub_calls if sub_calls else 0.0
        calls += sub_calls
        distinct += sub_distinct
    out["kernels.eval_calls"] = calls
    out["kernels.eval_distinct_ratio"] = distinct / calls if calls else 0.0
    return dict(out)


def run_pipeline(main, plan: list, out: str, tracer: Tracer | None, tag: str) -> dict:
    """Call ``main(argv)`` for each subcommand; return walls, exit codes and run ids."""
    walls, codes, run_ids = {}, {}, {}
    for sub, template in plan:
        argv = [arg.replace("{out}", out) for arg in template]
        start = time.perf_counter()
        if tracer is None:
            codes[sub] = main(argv)
        else:
            run_ids[sub] = f"{sub}-{tag}"
            root = tracer.open(f"cli.{sub}", run_ids[sub])
            try:
                codes[sub] = main(argv)
            finally:
                tracer.close(root)
        walls[sub] = time.perf_counter() - start
    return {"out": out, "walls": walls, "codes": codes, "run_ids": run_ids}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    os.chdir(plan["cwd"])
    cli = importlib.import_module("mercerkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"tracer: mercerkit imported from {cli.__file__}, not the checkout", file=sys.stderr)
        return 1
    tracer = Tracer(plan["labels"])
    deadline = time.perf_counter() + plan["seconds"]
    passes = []
    pair_time = 0.0
    while not passes or time.perf_counter() + pair_time < deadline:
        k = len(passes) // 2
        start = time.perf_counter()
        untraced = run_pipeline(cli.main, plan["plan"], f"{plan['out']}/untraced{k}", None, str(k))
        tracer.install()
        first = len(tracer.spans)
        try:
            traced = run_pipeline(cli.main, plan["plan"], f"{plan['out']}/traced{k}", tracer, str(k))
        finally:
            tracer.uninstall()
        traced["layers"] = layer_metrics(tracer, first, traced["run_ids"], sum(traced["walls"].values()))
        passes += [untraced, traced]
        pair_time = time.perf_counter() - start
    with open(Path(plan["out"]) / "spans.json", "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
