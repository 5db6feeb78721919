"""Steadiness check: run one workload k times and compare spreads with the bounds.

    python3 bhebench/steady.py --workload pde-solve --runs 10
    python3 bhebench/steady.py --workload pde-solve --runs 10 --save a.json
    python3 bhebench/steady.py --workload pde-solve --runs 10 --seed0 100 --compare a.json

Each run is ``bhebench/run.py`` with its own seed (seed0, seed0+1, ...) and
the run length of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  A spread must stay
within the bound (set-up time excepted) and should stay below a third of
it.  With ``--compare`` it also checks that no median is worse than the
saved set's median by more than the bound.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--compare", help="JSON file of an earlier set (from --save) to compare medians with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    ok = True
    for i in range(args.runs):
        seed = args.seed0 + i
        res = run_once(args.workload, seed, seconds, 0)
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {line}", flush=True)
        ok &= bool(res["correct"])
        for name in values:
            values[name].append(res["metrics"][name]["value"])

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["values"]
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}{'/3':>6}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        med, q1, q3, spread = summarize(values[name])
        verdict = []
        if name != "setup_s" and spread > bound:
            verdict.append("SPREAD>BOUND")
            ok = False
        elif spread > bound / 3:
            verdict.append("spread>bound/3")
        if earlier is not None:
            med0 = statistics.median(earlier[name])
            worse = (med - med0) / med0 if m["better"] == "lower" else (med0 - med) / med0
            verdict.append(f"vs earlier {worse:+.3f}")
            if worse > bound:
                verdict.append("WORSE>BOUND")
                ok = False
        print(f"{name:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.4f}{bound:>8.3f}{bound / 3:>6.3f}  "
              + (" ".join(verdict) or "ok"))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "values": values}, fh, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
