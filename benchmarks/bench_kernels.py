"""Timings of the numpy kernels and of one full model report.

Usage:
    python benchmarks/bench_kernels.py

The workloads are the two inner loops that dominate the frame algebra:
antisymmetrization of full index arrays (wedge products, alternation
checks) and invariant exterior derivatives from structure constants.
"""

import time

import numpy as np

import bhe._kernels as K
from bhe.catalog import build_model


def timeit(fn, *args, repeats=30):
    fn(*args)  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def main():
    rng = np.random.default_rng(0)
    print(f"{'workload':<38}{'time':>12}")
    rows = []

    for m in (3, 4, 5, 6):
        T = rng.standard_normal((6,) * m)
        rows.append((f"alt_sum dim 6 degree {m}", timeit(K.alt_sum, T)))

    c = build_model("su2xsu2").algebra.c
    for k in (2, 3, 4):
        b = K.alt_sum(rng.standard_normal((6,) * k)) / K.factorial(k)
        rows.append((f"exterior derivative degree {k}", timeit(K.dform_core, c, b, k)))

    for name, t in rows:
        print(f"{name:<38}{t * 1e6:>10.1f}us")

    print()
    print("end-to-end: full identity report on the six-dimensional models")
    from bhe.cli import model_report

    for model in ("su2xsu2", "su2xRxC"):
        # a fresh model per repeat, so its cached geometry is rebuilt each time
        t = timeit(lambda: model_report(build_model(model)), repeats=3)
        print(f"  model_report({model}): {t * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
