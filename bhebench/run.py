"""Benchmark entry point: one workload, one seed, one closed-loop caller.

    python3 bhebench/run.py --workload frame-verify --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``bhe`` from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics.  Every task's output is checked.  The last line of
standard output is the result object; the line before it holds provenance
and details that are not metrics.  See bhebench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh interpreters per run.  The first few interpreters started after a
# pause import about 60% slower than the rest, so they are discarded.
SETUP_WARMUPS = 3
SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # each of untraced and traced, alternating
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def _fail(msg: str) -> None:
    print(f"bhebench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> str:
    """Thread count of the BLAS numpy loaded, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def provenance(args) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up: fresh interpreters
# ---------------------------------------------------------------------------


def setup_samples(workload: str, seed: int) -> list[dict]:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    out = []
    for i in range(SETUP_WARMUPS + SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        if i >= SETUP_WARMUPS:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the reason for each failed kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.known: dict[str, str] = {}

    def record(self, task, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if task.defect:
            self.known[f"{task.defect} {task.kind}"] = reason
        else:
            self.unexpected[task.kind] = reason


def run_pass(tasks, tally: Tally) -> tuple[float, list[float]]:
    """One pass over the task list: program seconds and headline latencies."""
    program_s = 0.0
    latencies = []
    sink = io.StringIO()
    for task in tasks:
        with contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                out = task.call()
            except Exception as exc:  # a raised exception is a failed operation
                out = exc
            dt = time.perf_counter() - t0
        program_s += dt
        if task.headline:
            latencies.append(dt)
        reason = task.check(out)
        if reason is None and task.outdir and os.path.isdir(task.outdir):
            digest = workloads.dir_digest(task.outdir)
            if task.digest is None:
                task.digest = digest
            elif digest != task.digest:
                reason = "artifacts differ from the first pass"
        tally.record(task, reason)
        sink.seek(0)
        sink.truncate()
    return program_s, latencies


def tail(latencies: list[float], wanted: int) -> tuple[int, float]:
    """The wanted percentile, or the highest lower multiple of 5 with >= 10 samples beyond it."""
    for p in range(wanted, 50, -5):
        value = float(np.percentile(latencies, p))
        if sum(1 for x in latencies if x > value) >= 10:
            return p, value
    return 50, float(np.percentile(latencies, 50))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bhe", "__init__.py")):
        _fail(f"no bhe package under {os.path.join(ROOT, 'src')}; run from a source checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    inputs = workloads.make_inputs(args.workload, args.seed)
    digest = workloads.input_digest(inputs)
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result, values, details = measure(args, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # This process has imported bhe already, so set-up is timed in fresh ones.
    setups = setup_samples(args.workload, args.seed)
    if any(s["input_digest"] != digest for s in setups):
        _fail("set-up probe generated different inputs from the same seed")

    details["input_digest"] = digest
    details["setup_samples_s"] = [s["total_s"] for s in setups]
    if args.trace:
        values["catalog.load_catalog.self_s"] = statistics.median(s["catalog_s"] for s in setups)
        units = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
    else:
        values["setup_s"] = statistics.median(s["total_s"] for s in setups)
        units = [(name, unit) for name, unit in END_TO_END]
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print(json.dumps({"provenance": provenance(args), "details": details}))
    print(json.dumps(result))


def measure(args, inputs, workdir) -> tuple[dict, dict, dict]:
    """Warm-up plus measured passes: the result skeleton, metric values and details."""
    tasks = workloads.build_tasks(args.workload, inputs, workdir)
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    run_pass(tasks, tally)  # warm-up; fixes the artifact digests
    walls = [time.perf_counter() - start]

    plain_s, traced_s, latencies, per_pass = [], [], [], []
    while True:
        t0 = time.perf_counter()
        if tracer and len(plain_s) > len(traced_s):
            tracer.install()
            mark = tracer.mark()
            try:
                program_s, _ = run_pass(tasks, tally)
            finally:
                tracer.uninstall()
            per_pass.append(tracing.pass_metrics(tracer, mark))
            traced_s.append(program_s)
        else:
            program_s, lat = run_pass(tasks, tally)
            plain_s.append(program_s)
            latencies.extend(lat)
        walls.append(time.perf_counter() - t0)
        done = len(traced_s) >= MIN_TRACED_PASSES if tracer else len(plain_s) >= MIN_PASSES
        if done and time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    details = {
        "passes": len(plain_s) + len(traced_s),
        "tasks_per_pass": len(tasks),
        "task_mix": workloads.task_mix(tasks),
        "known_failures": tally.known,
        "unexpected_failures": tally.unexpected,
    }
    if tracer:
        values = tracing.median_metrics(per_pass)
        values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        details["untraced_layers"] = tracer.missing
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "raised"], "spans": tracer.spans}, fh)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        pct, tail_s = tail(latencies, workloads.TAIL_PERCENTILE[args.workload])
        details["op_tail_percentile"] = pct
        details["op_samples"] = len(latencies)
        details["op_samples_beyond_tail"] = sum(1 for x in latencies if x > tail_s)
        values = {
            "pass_s": statistics.median(plain_s),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
    result = {"correct": not tally.unexpected, "attempted": tally.attempted, "failed": tally.failed}
    return result, values, details


if __name__ == "__main__":
    main()
