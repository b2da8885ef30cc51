"""Spans around the public functions of the `mbc` modules, recorded from
outside the program.

`Tracer.install` wraps every public function defined in `generate`,
`props`, `stability`, `linalg`, `polytope` and `cli`, plus the class methods
in `METHODS`, and rebinds each wrapper wherever an `mbc` module holds the
original (so `props.enumerate_vertices`, imported from `polytope`, is
wrapped where `props` looks it up).  No source file changes.  A span is
(id, name, start_ns, end_ns, parent id); a generator gets one span per
resume.  `layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("generate", "props", "stability", "linalg", "polytope", "cli")

# Class methods traced besides the module-level functions.
METHODS = {
    "generate": {"MbcDatabase": ("load", "save")},
    "props": {"BalancedIndex": ("__init__",),
              "FeasibilityOracle": ("__init__", "feasible")},
}

STAGES = ("balancedness", "singleton-exactness", "vital-exactness",
          "core-describing", "feasibility", "blocking", "weak-extendability",
          "nested-balancedness")

# Per-layer metrics: name -> unit.  The traced run reports every one of
# them (0 where a layer does no work on the workload).
LAYER_METRICS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "cli.report_bytes": "bytes",
    "generate.peleg_s": "s",
    "generate.save_s": "s",
    "generate.save_bytes": "bytes",
    "generate.load_s": "s",
    "generate.collections": "count",
    "props.balanced_index_s": "s",
    "props.is_exact_s": "s",
    "props.is_exact_calls": "count",
    "props.sve_family_s": "s",
    "props.balancedness_witness_s": "s",
    "props.feasibility_oracle_s": "s",
    "props.feasible_collections_s": "s",
    "props.feasible_tested": "count",
    "props.feasible_found": "count",
    "props.feasible_yield": "ratio",
    "props.is_core_describing_s": "s",
    "props.is_extendable_s": "s",
    "props.is_extendable_calls": "count",
    "polytope.enumerate_vertices_s": "s",
    "polytope.enumerate_vertices_calls": "count",
    "stability.nested_s": "s",
    "stability.nested_calls": "count",
    "stability.admissible_s": "s",
    "stability.mbs_s": "s",
    "stability.mbs_calls": "count",
    "stability.mbs_found": "count",
    "stability.mbs_yield": "ratio",
    **{f"stability.stage.{s}_s": "s" for s in STAGES},
    "linalg.solve_unique_s": "s",
    "linalg.solve_unique_calls": "count",
    "trace.overhead_ratio": "ratio",
}

# metric -> span name whose outermost spans give its total time
TIMED = {
    "generate.peleg_s": "generate.peleg",
    "generate.save_s": "generate.MbcDatabase.save",
    "generate.load_s": "generate.MbcDatabase.load",
    "props.balanced_index_s": "props.BalancedIndex.__init__",
    "props.is_exact_s": "props.is_exact",
    "props.sve_family_s": "props.sve_family",
    "props.balancedness_witness_s": "props.balancedness_witness",
    "props.feasibility_oracle_s": "props.FeasibilityOracle.__init__",
    "props.feasible_collections_s": "props.feasible_collections",
    "props.is_core_describing_s": "props.is_core_describing",
    "props.is_extendable_s": "props.is_extendable",
    "polytope.enumerate_vertices_s": "polytope.enumerate_vertices",
    "stability.nested_s": "stability.nested_balancedness_ok",
    "stability.admissible_s": "stability.admissible_collections",
    "stability.mbs_s": "stability.minimal_balanced_sets",
    "linalg.solve_unique_s": "linalg.solve_unique",
}

# metric -> span name whose spans are counted
CALLS = {
    "props.is_exact_calls": "props.is_exact",
    "props.feasible_tested": "props.FeasibilityOracle.feasible",
    "props.is_extendable_calls": "props.is_extendable",
    "polytope.enumerate_vertices_calls": "polytope.enumerate_vertices",
    "stability.nested_calls": "stability.nested_balancedness_ok",
    "stability.mbs_calls": "stability.minimal_balanced_sets",
    "linalg.solve_unique_calls": "linalg.solve_unique",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, name, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.stage_timings: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, 0, 0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(span[0])
        span[2] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    tracer.add(name + ".items", 1)
                    yield item

            traced_generator.__wrapped__ = fn
            return traced_generator

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap and rebind; meant for a process that is discarded after the
        traced call, so nothing is unwrapped."""
        import mbc

        modules = {m: importlib.import_module(f"mbc.{m}") for m in MODULES}
        hooks = {
            "generate.MbcDatabase.load": _count_collections,
            "generate.MbcDatabase.save": _count_saved_bytes,
            "stability.minimal_balanced_sets": _count_mbs,
            "stability.is_core_stable": _keep_stage_timings,
        }
        replaced = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(
                            self.wrap(name, raw.__func__, hooks.get(name))))
                    else:
                        setattr(cls, meth, self.wrap(name, raw, hooks.get(name)))
        for module in [mbc, *(m for k, m in sys.modules.items()
                              if k.startswith("mbc."))]:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_collections(tracer, args, db):
    tracer.add("generate.collections", len(db))


def _count_saved_bytes(tracer, args, result):
    tracer.add("generate.save_bytes", os.path.getsize(args[1]))


def _count_mbs(tracer, args, result):
    tracer.add("stability.mbs_found", len(result))


def _keep_stage_timings(tracer, args, report):
    for stage, seconds in report.timings.items():
        tracer.stage_timings[stage] = tracer.stage_timings.get(stage, 0.0) + seconds


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, start, end, _ in spans:
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def outermost(spans, name: str):
    """Spans of `name` with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    for span in spans:
        if span[1] != name:
            continue
        parent = span[4]
        while parent >= 0 and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent < 0:
            yield span


def layer_metrics(tracer: Tracer, report_bytes: int, overhead_ratio: float) -> dict:
    spans = tracer.spans
    values = dict.fromkeys(LAYER_METRICS, 0)
    for span, own in zip(spans, self_times(spans)):
        values[span[1].split(".", 1)[0] + ".self_s"] += own / 1e9
    for metric, name in TIMED.items():
        values[metric] = sum(s[3] - s[2] for s in outermost(spans, name)) / 1e9
    for metric, name in CALLS.items():
        values[metric] = sum(1 for s in spans if s[1] == name)
    for key in ("generate.collections", "generate.save_bytes", "stability.mbs_found"):
        values[key] = tracer.counts.get(key, 0)
    found = tracer.counts.get("props.feasible_collections.items", 0)
    values["props.feasible_found"] = found
    tested = values["props.feasible_tested"]
    values["props.feasible_yield"] = found / tested if tested else 0.0
    names = {s[0]: s[1] for s in spans}
    leaf_solves = sum(1 for s in spans if s[1] == "linalg.solve_unique"
                      and names.get(s[4]) == "stability.minimal_balanced_sets")
    values["stability.mbs_yield"] = (
        values["stability.mbs_found"] / leaf_solves if leaf_solves else 0.0)
    for stage, seconds in tracer.stage_timings.items():
        if stage in STAGES:
            values[f"stability.stage.{stage}_s"] = seconds
    values["cli.report_bytes"] = report_bytes
    values["trace.overhead_ratio"] = overhead_ratio
    return values
