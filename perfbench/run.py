"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload gen6 --seed 1 --seconds 16 --trace 0

Set-up writes the workload's inputs in a fresh interpreter, several times
when it is cheap, and `setup_s` is the median.  Then each call runs
`mbc.cli.main(argv)` in a forked child with standard output captured, and
the parent checks the output outside the timed region; calls go on until
every input has been used and `--seconds` have passed, and each timing is
the median over calls.  A fork per call gives every call the cold state of
a fresh CLI process and its own peak RSS.

With `--trace 1` the calls use the first input only and every second call
runs with spans recorded (see `spans.py`); the per-layer metrics of the
last traced call replace the end-to-end ones, and `trace.overhead_ratio`
is the median traced wall time over the median untraced one.

The last line of standard output is the JSON result.  The lines above it
give each timing with its sample count and high percentile, the failure
ratio, the environment, and the result file (under `.perfbench/` in the
checkout, next to the span files).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import HERE, ROOT

OUT = ROOT / ".perfbench"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_SAMPLES = 20       # set-up repetitions when they are cheap ...
SETUP_BUDGET_S = 4.0     # ... and stop repeating once this much has passed


def in_child(fn):
    """Run fn() in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns from here
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = {"ok": True, "value": fn()}
            except BaseException:
                payload = {"ok": False, "error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh)
            code = 0 if payload["ok"] else 1
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as fh:
            data = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    payload = json.loads(data) if data else {"ok": False, "error": f"status {status}"}
    if not payload["ok"]:
        raise RuntimeError(f"child failed:\n{payload['error']}")
    return payload["value"]


def timed_call(argv) -> dict:
    """One CLI call in this (child) process: wall, CPU, exit code, output."""
    from mbc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
            "code": code, "stdout": out.getvalue()}


def traced_call(argv, span_path: Path) -> dict:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    result = timed_call(argv)
    tracer.write(span_path)
    result["layers"] = layer_metrics(tracer, len(result["stdout"].encode()), 0.0)
    return result


def setup(workload, seed: int, workdir: Path) -> list[float]:
    """Write the inputs in a fresh interpreter; returns each set-up's time."""
    # -I -S: no site-packages start-up hooks, which belong to the machine,
    # not to the program; `workloads.py` puts the checkout's src/ on the path
    cmd = [sys.executable, "-I", "-S", str(HERE / "workloads.py"), workload.name,
           str(seed), str(workdir)]
    times = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
        if (len(times) >= SETUP_SAMPLES
                or time.perf_counter() - started >= SETUP_BUDGET_S):
            return times


def high_percentile(values):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    beyond = n - 10
    if beyond < 1:
        return None
    p = 100 * beyond // n
    ordered = sorted(values)
    return p, ordered[max(0, -(-p * n // 100) - 1)]


def environment() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None   # a checkout without .git has no commit to report
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        if (ROOT / ".git").exists():
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


def measure(workload, expected: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line."""
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env["loadavg_before"] = os.getloadavg()

    setup_times = setup(workload, seed, workdir)
    games = workload.games(seed)
    n_inputs = max(1, len(games))
    identity = tuple(range(workload.n))

    samples = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    attempted = failed = 0

    def call(i, traced=False):
        nonlocal attempted, failed
        argv = workload.argv(workdir, i)
        attempted += 1
        try:
            if traced:
                span_path = OUT / "spans" / f"{tag}.jsonl"
                span_path.parent.mkdir(parents=True, exist_ok=True)
                result = in_child(lambda: traced_call(argv, span_path))
            else:
                result = in_child(lambda: timed_call(argv))
        except RuntimeError as exc:
            failed += 1
            print(f"call {i} failed: {exc}", file=sys.stderr)
            return None
        as_printed = bool(games) and games[i][0] == identity
        problems = [f"exit code {result['code']}"] if result["code"] else []
        problems += workload.gate(result["stdout"], workdir, seed,
                                  as_printed, expected)
        if problems:
            failed += 1
            print(f"call {i} ({' '.join(argv)}): " + "; ".join(problems),
                  file=sys.stderr)
        return result

    # Every input at least once, then on until `seconds` have passed.  A
    # traced run alternates untraced and traced calls on the first input, so
    # that the overhead ratio compares like with like.
    traced_walls, layers = [], None
    cover = 2 if trace else n_inputs
    started = time.perf_counter()
    i = 0
    while i < cover or time.perf_counter() - started < seconds:
        traced = trace and i % 2 == 1
        result = call(0 if trace else i % n_inputs, traced)
        i += 1
        if result is None:
            continue
        if traced:
            traced_walls.append(result["wall_s"])
            layers = result["layers"]
        else:
            for key in samples:
                samples[key].append(result[key])

    metrics = {}
    if trace:
        if layers is not None and samples["wall_s"]:
            from spans import LAYER_METRICS

            layers["trace.overhead_ratio"] = (
                statistics.median(traced_walls) / statistics.median(samples["wall_s"]))
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in LAYER_METRICS.items()}
    else:
        all_samples = {**samples, "setup_s": setup_times}
        for key, unit in END_TO_END.items():
            values = all_samples[key]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
    env["loadavg_after"] = os.getloadavg()

    for key, values in {**samples, "setup_s": setup_times}.items():
        if values:
            pct = high_percentile(values)
            tail = f", p{pct[0]} {pct[1]:.4f}" if pct else ", no percentile (<11 samples)"
            print(f"{workload.name} {key}: median {statistics.median(values):.4f}"
                  f" over {len(values)} samples{tail}")
    print(f"{workload.name} fail_ratio: {failed}/{attempted}")
    print("environment: " + json.dumps(env))

    correct = failed == 0 and bool(metrics)
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {**line, "workload": workload.name, "seed": seed,
              "seconds": seconds, "trace": trace, "samples": samples,
              "traced_wall_s": traced_walls,
              "setup_samples": setup_times, "environment": env}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file: {(results / f'{tag}.json').relative_to(ROOT)}")
    shutil.rmtree(workdir, ignore_errors=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        workloads.use_source_tree()
    except ImportError as exc:
        print(f"error: cannot import mbc from the checkout: {exc}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    line = measure(workloads.WORKLOADS[args.workload], expected[args.workload],
                   args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
