"""Fast self-check of the harness on the 4-player fixture (seconds, not
minutes):

    python3 perfbench/selfcheck.py

It runs the three commands at n = 4 through the same measurement code as
the benchmark, and checks that
- the metric names and units match BENCHMARK.json, untraced and traced,
  and layer_map.json names only known metrics and workloads;
- every output passes its gate, and a corrupted recorded digest, file
  digest or fact fails it;
- span self times are each span's duration minus what its children cover.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run
import spans
import workloads
from workloads import HERE, ROOT


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {what}")


def check_self_times() -> None:
    # parent 0..100 with children 10..30 and 50..60; grandchild 12..20;
    # a generator resume span 70..75; a same-name nested span inside it
    synthetic = [
        [0, "cli.main", 0, 100, -1],
        [1, "props.sve_family", 10, 30, 0],
        [2, "props.is_exact", 12, 20, 1],
        [3, "linalg.solve_unique", 50, 60, 0],
        [4, "props.feasible_collections", 70, 75, 0],
        [5, "props.is_exact", 14, 16, 2],
    ]
    check(spans.self_times(synthetic) == [65, 12, 6, 10, 5, 2], "self times")
    outer = [s[0] for s in spans.outermost(synthetic, "props.is_exact")]
    check(outer == [2], "outermost same-name spans")
    tracer = spans.Tracer()
    tracer.spans = synthetic
    layers = spans.layer_metrics(tracer, 7, 1.5)
    check(set(layers) == set(spans.LAYER_METRICS), "layer metric names")
    check(math.isclose(layers["cli.self_s"], 65e-9), "cli self time")
    check(math.isclose(layers["props.self_s"], 25e-9), "props self time")
    check(math.isclose(layers["props.is_exact_s"], 8e-9), "outermost inclusive time")
    check(layers["props.is_exact_calls"] == 2, "call count")
    check(layers["trace.overhead_ratio"] == 1.5, "overhead ratio")


def check_gates(expected: dict) -> None:
    seed = 0
    for name, workload in workloads.SELFCHECK_WORKLOADS.items():
        workdir = run.OUT / "selfcheck" / name
        run.setup(workload, seed, workdir)
        result = run.in_child(lambda: run.timed_call(workload.argv(workdir, 0)))
        good = expected[name]
        check(result["code"] == 0, f"{name} exit code")
        check(workload.gate(result["stdout"], workdir, seed, True, good) == [],
              f"{name} gate on the recorded output")
        for key in ("stdout_sha256", "file_sha256"):
            if key in good:
                bad = dict(good, **{key: "0" * 64})
                check(workload.gate(result["stdout"], workdir, seed, True, bad),
                      f"{name} gate misses a corrupted {key}")
        if "facts" in good:
            bad = copy.deepcopy(good)
            first = next(iter(bad["facts"]))
            bad["facts"][first] = "corrupted"
            check(workload.gate(result["stdout"], workdir, 1, False, bad),
                  f"{name} gate misses a corrupted fact")


def check_layer_map(spec: dict) -> None:
    layer_map = json.loads((HERE / "layer_map.json").read_text())["map"]
    check(set(layer_map) == set(spans.LAYER_METRICS), "layer_map.json metric names")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    for metric, entry in layer_map.items():
        check(set(entry["moves"]) <= end_to_end, f"{metric}: unknown end-to-end metric")
        check(set(entry["on"]) | set(entry["zero_on"]) <= names,
              f"{metric}: unknown workload")


def check_metrics(expected: dict, spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(per_layer == spans.LAYER_METRICS, "per_layer in BENCHMARK.json")
    for name, workload in workloads.SELFCHECK_WORKLOADS.items():
        for trace, names in ((False, end_to_end), (True, per_layer)):
            line = run.measure(workload, expected[name], 1, 0.5, trace)
            check(line["correct"] and line["failed"] == 0, f"{name} trace={trace} correct")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == names, f"{name} trace={trace} metric names and units")
            json.dumps(line)


def main() -> int:
    workloads.use_source_tree()
    expected = json.loads((HERE / "expected.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_self_times()
    check_layer_map(spec)
    check_gates(expected)
    check_metrics(expected, spec)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
