"""Seed-invariance self-test of the benchmark.

    python3 bhebench/selftest.py                 # every workload
    python3 bhebench/selftest.py --workload pde-solve

For each workload it makes three short traced runs of run.py: seed A, seed
A again, and seed B.  The work counts (calls, grid points, Jacobian
columns and bytes, iterations, line-search trials, solver flags, exit
codes) and the task mix must be identical in all three; the input digest
must repeat for seed A and differ for seed B.  It also checks that
BENCHMARK.json lists exactly the metrics run.py reports.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_workload(workload: str, seed_a: int, seed_b: int) -> list[str]:
    errors = []
    runs = {label: traced_run(workload, seed) for label, seed in
            (("A", seed_a), ("A again", seed_a), ("B", seed_b))}
    counts = {label: {k: res["metrics"][k]["value"] for k in tracing.INVARIANT_COUNTS}
              for label, (_, res) in runs.items()}
    for label in ("A again", "B"):
        diff = {k: (counts["A"][k], counts[label][k]) for k in counts["A"] if counts["A"][k] != counts[label][k]}
        if diff:
            errors.append(f"{workload}: work counts of seed A and {label} differ: {diff}")
        if runs[label][0]["details"]["task_mix"] != runs["A"][0]["details"]["task_mix"]:
            errors.append(f"{workload}: task mix of seed A and {label} differ")
    digests = {label: info["details"]["input_digest"] for label, (info, _) in runs.items()}
    if digests["A"] != digests["A again"]:
        errors.append(f"{workload}: seed A gave two input digests {digests}")
    if digests["A"] == digests["B"]:
        errors.append(f"{workload}: seeds A and B gave the same inputs")
    for label, (_, res) in runs.items():
        if not res["correct"]:
            errors.append(f"{workload} seed {label}: unexpected output failures")
    nonzero = sum(1 for v in counts["A"].values() if v)
    print(f"{workload}: {nonzero} nonzero work counts identical across seeds {seed_a}, {seed_a}, {seed_b}; "
          f"inputs {digests['A']} vs {digests['B']}; {'FAIL' if errors else 'ok'}", flush=True)
    return errors


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    args = ap.parse_args()

    errors = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end does not match run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        errors.append("BENCHMARK.json per_layer does not match tracing.PER_LAYER")
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        errors += check_workload(workload, 1, 2)
    for e in errors:
        print(e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
