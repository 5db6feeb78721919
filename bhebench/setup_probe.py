"""Set-up probe, run in a fresh interpreter by run.py.

Times the three steps every fresh process pays before its first operation:
``import bhe`` (numpy included), ``catalog.load_catalog()`` and generating
the workload's inputs from the seed.  Prints one JSON line.

    python3 bhebench/setup_probe.py --workload frame-verify --seed 1
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    t0 = time.perf_counter()
    import bhe  # noqa: F401  (numpy is imported here)

    t1 = time.perf_counter()
    from bhe import catalog

    catalog.load_catalog()
    t2 = time.perf_counter()
    import workloads  # the benchmark's own code: not part of set-up

    t3 = time.perf_counter()
    inputs = workloads.make_inputs(args.workload, args.seed)
    t4 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "catalog_s": t2 - t1,
        "inputs_s": t4 - t3,
        "total_s": (t2 - t0) + (t4 - t3),
        "input_digest": workloads.input_digest(inputs),
    }))


if __name__ == "__main__":
    main()
