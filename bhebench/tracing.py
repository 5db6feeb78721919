"""Spans and work counts around calls into the program's layers.

The tracer replaces each listed function in every ``bhe`` module namespace
that binds it, so calls made inside the package (``reduction`` calls
``bismut_torsion`` through its own imported name) are seen as well as
calls from the benchmark.  A wrapper records one span (name, start, end,
parent) in memory and, for a few functions, adds work counts computed from
array shapes.  ``uninstall`` puts the original functions back, so untraced
passes run the program's code unchanged.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, function) -> span name.  Span names are metric prefixes, so they
# start with a letter: ``_kernels`` is reported as ``kernels`` and private
# helpers lose their underscore.
TRACED = {
    ("bhe._kernels", "alt_sum"): "kernels.alt_sum",
    ("bhe._kernels", "dform_core"): "kernels.dform_core",
    ("bhe.forms", "wedge"): "forms.wedge",
    ("bhe.forms", "j_conjugate"): "forms.j_conjugate",
    ("bhe.forms", "type_decompose"): "forms.type_decompose",
    ("bhe.frame_geometry", "levi_civita"): "frame_geometry.levi_civita",
    ("bhe.frame_geometry", "bismut_torsion"): "frame_geometry.bismut_torsion",
    ("bhe.frame_geometry", "bismut_connection"): "frame_geometry.bismut_connection",
    ("bhe.frame_geometry", "curvature"): "frame_geometry.curvature",
    ("bhe.frame_geometry", "exterior_derivative"): "frame_geometry.exterior_derivative",
    ("bhe.frame_geometry", "bhe_residual"): "frame_geometry.bhe_residual",
    ("bhe.frame_geometry", "change_frame"): "frame_geometry.change_frame",
    ("bhe.frame_geometry", "covariant_derivative"): "frame_geometry.covariant_derivative",
    ("bhe.frame_geometry", "verify_lrho"): "frame_geometry.verify_lrho",
    ("bhe.catalog", "get_model"): "catalog.get_model",
    ("bhe.reduction", "reduce"): "reduction.reduce",
    ("bhe.reduction", "einstein_maxwell_residual"): "reduction.einstein_maxwell_residual",
    ("bhe.reduction", "lemma_suite"): "reduction.lemma_suite",
    ("bhe.reduction", "p3_residuals"): "reduction.p3_residuals",
    ("bhe.reduction", "torsion_split_residual"): "reduction.torsion_split_residual",
    ("bhe.reduction", "assemble"): "reduction.assemble",
    ("bhe.toric", "pde_residual"): "toric.pde_residual",
    ("bhe.toric", "p4d_forward"): "toric.p4d_forward",
    ("bhe.toric", "topo_invariants"): "toric.topo_invariants",
    ("bhe.toric", "manufactured_truncation_error"): "toric.manufactured_truncation_error",
    ("bhe.solver", "newton_solve"): "solver.newton_solve",
    ("bhe.solver", "_jacobian"): "solver.jacobian",
    ("bhe.solver", "_residual"): "solver.residual",
    ("bhe.cli", "main"): "cli.main",
    ("bhe.cli", "model_report"): "cli.model_report",
    ("bhe.cli", "write_csv"): "cli.write_csv",
    ("bhe.cli", "write_json"): "cli.write_json",
    ("bhe.cli", "_residual_rows"): "cli.residual_rows",
}

# Per-layer metrics in output order: (name, unit, better).  Starred work
# counts in README.md are the ones computed from array shapes.
_CALLS_SELF = [
    "kernels.alt_sum", "kernels.dform_core",
    "forms.wedge", "forms.j_conjugate", "forms.type_decompose",
    "reduction.reduce", "toric.pde_residual", "solver.newton_solve", "solver.jacobian",
    "cli.write_csv", "cli.write_json",
]
_CALLS_ONLY = [
    "frame_geometry.levi_civita", "frame_geometry.bismut_torsion",
    "frame_geometry.bismut_connection", "frame_geometry.curvature",
    "frame_geometry.exterior_derivative", "frame_geometry.bhe_residual",
    "frame_geometry.change_frame", "catalog.get_model", "cli.main",
]
_SELF_ONLY = [
    "frame_geometry.covariant_derivative", "frame_geometry.verify_lrho",
    "reduction.einstein_maxwell_residual", "reduction.lemma_suite", "reduction.p3_residuals",
    "reduction.torsion_split_residual", "reduction.assemble",
    "toric.p4d_forward", "toric.topo_invariants", "toric.manufactured_truncation_error",
    "cli.model_report", "cli.residual_rows",
]
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"{s}.calls", "count", "lower") for s in _CALLS_SELF + _CALLS_ONLY]
    + [(f"{s}.self_s", "s", "lower") for s in _CALLS_SELF + _SELF_ONLY]
    + [
        ("catalog.load_catalog.self_s", "s", "lower"),
        ("kernels.alt_sum.perm_terms", "count", "lower"),
        ("frame_geometry.levi_civita.calls_per_model", "ratio", "lower"),
        ("toric.pde_residual.grid_points", "count", "lower"),
        ("solver.jacobian.columns", "count", "lower"),
        ("solver.jacobian_bytes_max", "B", "lower"),
        ("solver.iterations", "count", "lower"),
        ("solver.line_search_trials", "count", "lower"),
        ("solver.accept_ratio", "ratio", "higher"),
        ("solver.flag.converged", "count", "higher"),
        ("solver.flag.stalled", "count", "lower"),
        ("solver.flag.max-iterations", "count", "lower"),
        ("cli.exit.0", "count", "higher"),
        ("cli.exit.1", "count", "lower"),
        ("cli.exit.2", "count", "higher"),
        ("cli.exit.exception", "count", "lower"),
        ("cli.write_csv.bytes", "B", "lower"),
        ("cli.write_json.bytes", "B", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

# Work counts that must repeat exactly between runs and between seeds.
INVARIANT_COUNTS = tuple(
    [f"{s}.calls" for s in _CALLS_SELF + _CALLS_ONLY]
    + [
        "kernels.alt_sum.perm_terms", "frame_geometry.levi_civita.calls_per_model",
        "toric.pde_residual.grid_points", "solver.jacobian.columns", "solver.jacobian_bytes_max",
        "solver.iterations", "solver.line_search_trials", "solver.flag.converged",
        "solver.flag.stalled", "solver.flag.max-iterations", "cli.exit.0", "cli.exit.1",
        "cli.exit.2", "cli.exit.exception",
    ]
)


# ---------------------------------------------------------------------------
# work counters: (tracer counts, args, result) -> None
# ---------------------------------------------------------------------------


def _count_alt_sum(c: Counter, args, out) -> None:
    T = args[0]
    if T.ndim > 1:
        c["kernels.alt_sum.perm_terms"] += math.factorial(T.ndim) * T.size


def _count_pde_residual(c: Counter, args, out) -> None:
    c["toric.pde_residual.grid_points"] += out.E.size


def _count_jacobian(c: Counter, args, out) -> None:
    c["solver.jacobian.columns"] += out.shape[1]
    c["solver.jacobian_bytes_max"] = max(c["solver.jacobian_bytes_max"], out.nbytes)


def _count_solve(c: Counter, args, out) -> None:
    c["solver.iterations"] += out.iterations
    c[f"solver.flag.{out.flag}"] += 1


def _count_exit(c: Counter, args, out) -> None:
    c[f"cli.exit.{out}"] += 1


def _count_bytes(name: str) -> Callable:
    def count(c: Counter, args, out) -> None:
        c[f"{name}.bytes"] += os.path.getsize(args[0])

    return count


_COUNTERS: dict[str, Callable] = {
    "kernels.alt_sum": _count_alt_sum,
    "toric.pde_residual": _count_pde_residual,
    "solver.jacobian": _count_jacobian,
    "solver.newton_solve": _count_solve,
    "cli.main": _count_exit,
    "cli.write_csv": _count_bytes("cli.write_csv"),
    "cli.write_json": _count_bytes("cli.write_json"),
}


class Tracer:
    """Records spans [name, start, end, parent, raised] for wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a ``bhe`` module binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if (k == "bhe" or k.startswith("bhe.")) and m]
        self.missing = []
        for (modname, attr), name in TRACED.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.missing.append(name)  # renamed or removed by the program
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Start of a pass: the span index and a snapshot of the counts."""
        self.counts["solver.jacobian_bytes_max"] = 0  # a per-pass maximum, not a sum
        return len(self.spans), Counter(self.counts)


def pass_metrics(tracer: Tracer, start: tuple[int, Counter]) -> dict[str, float]:
    """Per-layer values of one traced pass, from the spans and counts since ``start``."""
    first, counts0 = start
    spans = tracer.spans
    calls: Counter = Counter()
    child: Counter = Counter()  # time covered by child spans, per span index
    under_report = {}  # span index -> inside a cli.model_report span
    lc_in_report = 0
    trials = 0
    raised_main = 0
    for i in range(first, len(spans)):
        name, t0, t1, parent, raised = spans[i]
        calls[name] += 1
        if parent >= first:
            child[parent] += t1 - t0
        inside = name == "cli.model_report" or under_report.get(parent, False)
        under_report[i] = inside
        if inside and name == "frame_geometry.levi_civita":
            lc_in_report += 1
        if name == "solver.residual" and parent >= first and spans[parent][0] == "solver.newton_solve":
            trials += 1
        if name == "cli.main" and raised:
            raised_main += 1
    self_s: Counter = Counter()
    for i in range(first, len(spans)):
        self_s[spans[i][0]] += (spans[i][2] - spans[i][1]) - child.get(i, 0.0)

    counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
    out: dict[str, float] = {}
    for s in _CALLS_SELF + _CALLS_ONLY:
        out[f"{s}.calls"] = calls[s]
    for s in _CALLS_SELF + _SELF_ONLY:
        out[f"{s}.self_s"] = self_s[s]
    for key in ("kernels.alt_sum.perm_terms", "toric.pde_residual.grid_points", "solver.jacobian.columns",
                "solver.jacobian_bytes_max", "solver.iterations", "solver.flag.converged",
                "solver.flag.stalled", "solver.flag.max-iterations", "cli.exit.0", "cli.exit.1",
                "cli.exit.2", "cli.write_csv.bytes", "cli.write_json.bytes"):
        out[key] = counts.get(key, 0)
    out["cli.exit.exception"] = raised_main
    reports = calls["cli.model_report"]
    out["frame_geometry.levi_civita.calls_per_model"] = lc_in_report / reports if reports else 0.0
    # The first _residual call of a solve is its starting point, not a trial.
    trials = max(0, trials - calls["solver.newton_solve"])
    out["solver.line_search_trials"] = trials
    out["solver.accept_ratio"] = out["solver.iterations"] / trials if trials else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
