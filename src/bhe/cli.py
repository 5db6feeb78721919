"""Batch front-end: verification suites, reduction dumps, PDE runs.

Commands
    bhe verify   --model NAME [--tol X] --out DIR
    bhe reduce   --model NAME --out DIR
    bhe pde solve|residual --config FILE --out DIR
    bhe converge --config FILE --out DIR

All outputs are deterministic: floats are printed with 17 significant
digits in scientific notation, files are written atomically, and repeated
runs produce byte-identical artifacts.  Exit codes: 0 pass, 1 tolerance
failure, 2 invalid input.

``residual.csv`` holds a header plus (n+1)^2 rows ``z1,z2,E`` in z1-major
order (a flat-torus factor has n nodes, not n+1).  It is streamed one grid
row at a time, so writing it takes O(n) extra memory.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import catalog, reduction, solver, toric
from .frame_geometry import (
    HermitianModel,
    KahlerInputError,
    ValidationError,
    bhe_residual,
    covariant_derivative,
    exterior_derivative,
    gauduchon_residual,
    nijenhuis,
    verify_lrho,
)
from .report import Report

EXIT_PASS, EXIT_FAIL, EXIT_INVALID = 0, 1, 2


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    """17 significant digits, scientific notation."""
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return f"{x:.16e}"


def _to_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad} {json.dumps(str(k))}: {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad} {_to_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_atomic(path: str, chunks) -> None:
    """Write ``chunks`` (one string, or an iterable of strings) to ``path``.

    The chunks are streamed into a temporary file in the same directory,
    which replaces ``path`` only after the last chunk is written.  If
    anything raises on the way, the temporary file is removed and ``path``
    keeps its old contents.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_atomic(path, _to_json(obj) + "\n")


def format_row(row: tuple) -> str:
    """One CSV line: floats as ``%.16e``, ``None`` as an empty cell, else ``str``."""
    cells = []
    for v in row:
        if isinstance(v, (float, np.floating)):
            cells.append(f"{float(v):.16e}")
        elif v is None:
            cells.append("")
        else:
            cells.append(str(v))
    return ",".join(cells) + "\n"


def write_csv(path: str, header: list[str], lines) -> None:
    """Write the ``header`` line, then the text chunks of ``lines``, atomically.

    Each chunk holds whole lines that end in a newline: one ``format_row``
    line, or a block such as one grid row of ``_residual_lines``.  Chunks
    are streamed to the file as they come, never joined into one string.
    """

    def chunks():
        yield ",".join(header) + "\n"
        yield from lines

    write_atomic(path, chunks())


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: str | None = None
    tolerance: float = 1e-10
    out: str = "."
    c1: float = 2.0
    c2: float = 2.0
    kind1: str = "sphere"
    kind2: str = "sphere"
    a: float = 0.0
    n: int = 64
    perturb_eps: float = 0.0
    perturb_mode: str = "odd"
    solver_tol: float = 1e-8
    max_iterations: int = 50

    def __post_init__(self):
        if self.command not in ("verify", "reduce", "pde-solve", "pde-residual", "converge"):
            raise ValidationError(f"unrecognized command {self.command!r}")
        if self.command in ("verify", "reduce") and self.model not in catalog.MODEL_NAMES:
            raise ValidationError(
                f"unknown model {self.model!r}; catalog: {', '.join(catalog.MODEL_NAMES)}"
            )
        for name in ("n", "max_iterations"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValidationError(f"{name} must be an integer (got {v!r})")
        for name in ("c1", "c2", "a", "perturb_eps", "tolerance", "solver_tol"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValidationError(f"{name} must be a finite number (got {v!r})")
        if self.perturb_mode not in ("odd", "even"):
            raise ValidationError(f"perturb_mode must be 'odd' or 'even' (got {self.perturb_mode!r})")
        if self.n < 16:
            raise ValidationError("grid size must be at least 16")
        if self.kind1 not in ("sphere", "flat-torus") or self.kind2 not in (
            "sphere",
            "flat-torus",
        ):
            raise ValidationError("factor kinds must be 'sphere' or 'flat-torus'")


def _surface_config(path: str, command: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    known = {
        "c1", "c2", "kind1", "kind2", "a", "n",
        "perturb_eps", "perturb_mode", "solver_tol", "max_iterations",
    }
    bad = set(raw) - known
    if bad:
        raise ValidationError(f"unknown config keys: {sorted(bad)}")
    return RunConfig(command=command, **raw)


def _build_surface(cfg: RunConfig, n: int | None = None, perturbed: bool = False) -> toric.ProductSurface:
    n = n or cfg.n
    factors = []
    for c, kind in ((cfg.c1, cfg.kind1), (cfg.c2, cfg.kind2)):
        if kind == "sphere":
            if perturbed and cfg.perturb_eps:
                factors.append(
                    toric.SphereProfile.round_perturbed(c, n, cfg.perturb_eps, cfg.perturb_mode)
                )
            else:
                factors.append(toric.SphereProfile.round(c, n))
        else:
            factors.append(toric.SphereProfile.flat(c, n))
    return toric.ProductSurface(factors[0], factors[1], cfg.a)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def model_report(m: HermitianModel) -> Report:
    """Every identity check that applies to the given model."""
    rep = Report(m.name)
    rep.record("jacobi_identity", m.algebra.jacobi_residual())
    rep.record("complex_structure_integrable", float(np.max(np.abs(nijenhuis(m.algebra, m.J)))))
    geo = m.geometry
    t1, t2 = geo.lee_pair
    rep.record("lee_form_agreement", (t1 - t2).sup_norm())
    rep.record("bismut_ricci_flat", bhe_residual(m))
    H = geo.H
    dH = exterior_derivative(H, m.algebra)
    rep.record("pluriclosed", dH.sup_norm())
    gb = geo.bismut
    rep.record("bismut_parallel_torsion", float(np.max(np.abs(covariant_derivative(H.components, gb)))))
    V = m.sharp(t1)
    eta = m.metric.g @ V
    jeta = m.metric.g @ (m.J @ V)
    rep.record("bismut_parallel_V", float(np.max(np.abs(covariant_derivative(eta, gb)))))
    rep.record("bismut_parallel_JV", float(np.max(np.abs(covariant_derivative(jeta, gb)))))
    rep.record("gauduchon", gauduchon_residual(m))
    pluriclosed = dH.sup_norm() <= 1e-10 * max(1.0, H.sup_norm())
    if pluriclosed:
        rep.merge(verify_lrho(m))
    else:
        rep.notes["ricci_form_identity"] = "skipped: model is not pluriclosed"

    vnorm2 = float(V @ m.metric.g @ V)
    if vnorm2 < 1e-12:
        rep.notes["reduction"] = "V vanishes: Kahler Calabi-Yau; reduction suite skipped"
        return rep
    if not pluriclosed or bhe_residual(m) > 1e-10:
        rep.notes["reduction"] = "skipped: model is not BHE"
        return rep
    r = reduction.reduce(m)
    rep.merge(reduction.torsion_split_residual(r))
    rep.merge(reduction.p3_residuals(r))
    rep.merge(reduction.einstein_maxwell_residual(r))
    if m.dim == 6:
        rep.merge(reduction.lemma_suite(r))
    return rep


def run_verify(cfg: RunConfig) -> int:
    model = catalog.get_model(cfg.model)
    rep = model_report(model)
    body = rep.to_dict(cfg.tolerance)
    payload = {
        "model": cfg.model,
        "tolerance": cfg.tolerance,
        "checks": body["checks"],
        "pass": body["pass"],
    }
    notes = {k: v for k, v in rep.notes.items() if k not in rep.residuals}
    if notes:
        payload["notes"] = notes
    write_json(os.path.join(cfg.out, "report.json"), payload)
    return EXIT_PASS if body["pass"] else EXIT_FAIL


def run_reduce(cfg: RunConfig) -> int:
    model = catalog.get_model(cfg.model)
    r = reduction.reduce(model)
    write_json(os.path.join(cfg.out, "reduction.json"), r.to_dict())
    rep = Report(cfg.model)
    rep.merge(reduction.torsion_split_residual(r))
    rep.merge(reduction.p3_residuals(r))
    rep.merge(reduction.einstein_maxwell_residual(r))
    if model.dim == 6:
        rep.merge(reduction.lemma_suite(r))
    payload = rep.to_dict(cfg.tolerance)
    payload["model"] = cfg.model
    write_json(os.path.join(cfg.out, "report.json"), payload)
    return EXIT_PASS if rep.passes(cfg.tolerance) else EXIT_FAIL


# ---------------------------------------------------------------------------
# pde commands
# ---------------------------------------------------------------------------


def _surface_rows(s: toric.ProductSurface) -> list[tuple]:
    k1, k2 = toric.ricci_form_coeffs(s)
    z1, z2 = s.factor1.z, s.factor2.z
    th1, th2 = s.factor1.theta, s.factor2.theta
    rows = []
    for j in range(max(len(z1), len(z2))):
        rows.append(
            (
                float(z1[j]) if j < len(z1) else None,
                float(th1[j]) if j < len(th1) else None,
                float(th2[j]) if j < len(th2) else None,
                float(k1[j]) if j < len(k1) else None,
                float(k2[j]) if j < len(k2) else None,
            )
        )
    return rows


def _residual_lines(field: toric.PdeResidualField):
    """``z1,z2,E`` lines in z1-major order, one chunk per z1 node.

    Each node is formatted once and each grid row's E values by a single
    ``%`` call, so the text equals ``format_row`` on every (z1, z2, E)
    while the extra memory stays one grid row.
    """
    z2_cells = ["%.16e,%%.16e" % z for z in field.z2.tolist()]
    for i, z1 in enumerate(field.z1.tolist()):
        head = "%.16e," % z1
        template = head + ("\n" + head).join(z2_cells) + "\n"
        yield template % tuple(field.E[i].tolist())


def _write_surface_artifacts(cfg: RunConfig, s: toric.ProductSurface) -> toric.PdeResidualField:
    field = toric.pde_residual(s)
    write_csv(
        os.path.join(cfg.out, "surface.csv"),
        ["z", "Theta1", "Theta2", "kappa1", "kappa2"],
        map(format_row, _surface_rows(s)),
    )
    write_csv(os.path.join(cfg.out, "residual.csv"), ["z1", "z2", "E"], _residual_lines(field))
    return field


def _diagnostics(s: toric.ProductSurface, field: toric.PdeResidualField) -> dict:
    diag: dict = {
        "residual_sup": field.sup,
        "residual_l2": field.l2,
        "topology": toric.topo_invariants(s),
        "harmonic_asd": toric.harmonic_asd(s).residuals,
    }
    try:
        fields, rep = toric.p4d_forward(s)
        diag["forward_map"] = rep.residuals
        diag["forward_map_C_estimate"] = float(fields["C_estimate"])
    except ValidationError as exc:
        diag["forward_map_note"] = str(exc)
    return diag


def _class_violation_exit(cfg: RunConfig, exc: ValidationError) -> int:
    """Constraint violations still leave a topology report behind."""
    area1 = 4.0 * np.pi * cfg.c1
    area2 = 4.0 * np.pi * cfg.c2
    write_json(
        os.path.join(cfg.out, "diagnostics.json"),
        {
            "error": str(exc),
            "class_data": {
                "a": cfg.a,
                "factor1_area": area1,
                "factor2_area": area2,
                "area_defect": abs(area1 - area2),
            },
        },
    )
    print(f"bhe: invalid input: {exc}", file=sys.stderr)
    return EXIT_INVALID


def run_pde_residual(cfg: RunConfig) -> int:
    try:
        s = _build_surface(cfg, perturbed=bool(cfg.perturb_eps))
    except ValidationError as exc:
        return _class_violation_exit(cfg, exc)
    field = _write_surface_artifacts(cfg, s)
    write_json(os.path.join(cfg.out, "diagnostics.json"), _diagnostics(s, field))
    return EXIT_PASS


def run_pde_solve(cfg: RunConfig) -> int:
    try:
        s0 = _build_surface(cfg, perturbed=bool(cfg.perturb_eps))
    except ValidationError as exc:
        return _class_violation_exit(cfg, exc)
    scfg = solver.SolverConfig(max_iterations=cfg.max_iterations, tolerance=cfg.solver_tol)
    trace = solver.newton_solve(s0, scfg)
    field = _write_surface_artifacts(cfg, trace.surface)
    payload = trace.to_dict()
    payload["diagnostics"] = _diagnostics(trace.surface, field)
    write_json(os.path.join(cfg.out, "trace.json"), payload)
    write_csv(
        os.path.join(cfg.out, "history.csv"),
        ["iteration", "residual", "step"],
        map(format_row, trace.history_rows()),
    )
    return EXIT_PASS if trace.flag in ("converged", "at-floor") else EXIT_FAIL


def run_converge(cfg: RunConfig) -> int:
    grids = (64, 128, 256)
    residuals = []
    kappa_errs = []
    manufactured = []
    for n in grids:
        try:
            s = _build_surface(cfg, n=n)
        except ValidationError as exc:
            return _class_violation_exit(cfg, exc)
        residuals.append(toric.pde_residual(s).sup)
        k1 = toric.gauss_curvature(s.factor1)
        target = 1.0 / cfg.c1 if cfg.kind1 == "sphere" else 0.0
        kappa_errs.append(float(np.max(np.abs(k1 - target))))
        manufactured.append(toric.manufactured_truncation_error(cfg.c1, 1e-2, n))

    def order_entries(vals):
        return [
            ("at-floor" if o == float("inf") else o) for o in toric.observed_orders(vals)
        ]

    res_orders = order_entries(residuals)
    kap_orders = order_entries(kappa_errs)
    man_orders = order_entries(manufactured)

    def orders_ok(entries):
        return all(e == "at-floor" or e >= 1.9 for e in entries)

    ok = orders_ok(res_orders) and orders_ok(kap_orders) and orders_ok(man_orders)
    payload = {
        "grids": list(grids),
        "residual_sup": residuals,
        "residual_orders": res_orders,
        "kappa_errors": kappa_errs,
        "kappa_orders": kap_orders,
        "manufactured_truncation": manufactured,
        "manufactured_orders": man_orders,
        "pass": ok,
    }
    write_json(os.path.join(cfg.out, "converge.json"), payload)
    rows = [
        (n, residuals[i], kappa_errs[i], manufactured[i]) for i, n in enumerate(grids)
    ]
    write_csv(
        os.path.join(cfg.out, "orders.csv"),
        ["n", "residual_sup", "kappa_error", "manufactured_error"],
        map(format_row, rows),
    )
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bhe", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite on a catalog model")
    v.add_argument("--model", required=True)
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--out", required=True)

    rd = sub.add_parser("reduce", help="dump the torus reduction of a catalog model")
    rd.add_argument("--model", required=True)
    rd.add_argument("--tol", type=float, default=1e-10)
    rd.add_argument("--out", required=True)

    p = sub.add_parser("pde", help="transverse surface equation runs")
    psub = p.add_subparsers(dest="pde_command", required=True)
    for name in ("solve", "residual"):
        pp = psub.add_parser(name)
        pp.add_argument("--config", required=True)
        pp.add_argument("--out", required=True)

    cv = sub.add_parser("converge", help="grid refinement study")
    cv.add_argument("--config", required=True)
    cv.add_argument("--out", required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = RunConfig("verify", model=args.model, tolerance=args.tol, out=args.out)
            return run_verify(cfg)
        if args.command == "reduce":
            cfg = RunConfig("reduce", model=args.model, tolerance=args.tol, out=args.out)
            return run_reduce(cfg)
        if args.command == "pde":
            command = f"pde-{args.pde_command}"
            cfg = _surface_config(args.config, command)
            cfg = RunConfig(**{**cfg.__dict__, "out": args.out})
            if command == "pde-solve":
                return run_pde_solve(cfg)
            return run_pde_residual(cfg)
        if args.command == "converge":
            cfg = _surface_config(args.config, "converge")
            cfg = RunConfig(**{**cfg.__dict__, "out": args.out})
            return run_converge(cfg)
        raise ValidationError(f"unrecognized command {args.command!r}")
    except (ValidationError, KahlerInputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"bhe: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
