"""Batch front-end: verification suites, reduction dumps, PDE runs.

Commands
    bhe verify   --model NAME [--tol X] --out DIR
    bhe reduce   --model NAME --out DIR
    bhe pde solve|residual --config FILE --out DIR
    bhe converge --config FILE --out DIR

All outputs are deterministic: floats are printed with 17 significant
digits in scientific notation, files are written atomically, and repeated
runs produce byte-identical artifacts.  Exit codes: 0 pass, 1 tolerance
failure, 2 invalid input; an invalid input, a surface that ``toric``
refuses included, writes no file.  The surface commands read their class
data only from the ``toric.ProductSurface`` they build, and each factor's
curvature only from its cached ``SphereProfile.kappa``; ``converge``
measures each sphere factor against its own 1/c.

``residual.csv`` holds a header plus (n+1)^2 rows ``z1,z2,E`` in z1-major
order (a flat-torus factor has n nodes, not n+1).  It is streamed in the
row blocks of ``toric._row_blocks``: whole grid rows with at most
``toric.BLOCK_VALUES`` = 2**13 values, or 3 to 5 rows where a row is
longer, a few MB of extra memory at any n.  The floats of every CSV go through
one vectorized numpy kernel (``bhe._format``), exactly rounded and
byte-identical to ``"%.16e" % x``: it scales |x| by a power of ten in
longdouble and reads off the 17 digits wherever a proven error bound
decides the rounding.  The values it cannot decide fall back to Python's
``%``: 0 and -0, nan and +-inf, and values within the bound of a rounding
tie (about 1% of a residual field).  Where longdouble is plain double,
every value falls back.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import _format, catalog, reduction, solver, toric
from .frame_geometry import (
    BHE_TOL,
    HermitianModel,
    KahlerInputError,
    ValidationError,
    bhe_residual,
    covariant_derivative,
    gauduchon_residual,
    is_pluriclosed,
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
    """Write ``chunks`` (one bytes object, or an iterable of bytes-like chunks) to ``path``.

    The chunks are streamed into a temporary binary file in the same
    directory, which replaces ``path`` only after the last chunk is written.
    If anything raises on the way, the temporary file is removed and
    ``path`` keeps its old contents.
    """
    if isinstance(chunks, bytes):
        chunks = (chunks,)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_atomic(path, (_to_json(obj) + "\n").encode("utf-8"))


def write_csv(path: str, header: list[str], chunks) -> None:
    """Write the ``header`` line, then the bytes ``chunks``, atomically.

    Each chunk holds whole lines, as ``_csv_columns`` and ``_residual_lines``
    print them; chunks are streamed to the file as they come, never joined.
    """
    write_atomic(path, itertools.chain([(",".join(header) + "\n").encode()], chunks))


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
    solver_tol: float = solver.SolverConfig.tolerance
    max_iterations: int = solver.SolverConfig.max_iterations

    def __post_init__(self):
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
        if self.tolerance < 0:
            raise ValidationError(f"tolerance must be non-negative (got {self.tolerance!r})")
        if self.perturb_mode not in ("odd", "even"):
            raise ValidationError(f"perturb_mode must be 'odd' or 'even' (got {self.perturb_mode!r})")
        if self.n < 16:
            raise ValidationError("grid size must be at least 16")
        # a solve holds about four (n+1)^2 residual fields, its step O(n) more: 0.43 GB measured at n = 4096
        if self.n > 4096:
            raise ValidationError(f"grid size must be at most 4096 (got {self.n})")
        if self.command == "converge" and self.n != 64:
            raise ValidationError(f"converge runs the grids 64, 128 and 256, so n must be 64 (got {self.n})")
        if self.kind1 not in ("sphere", "flat-torus") or self.kind2 not in (
            "sphere",
            "flat-torus",
        ):
            raise ValidationError("factor kinds must be 'sphere' or 'flat-torus'")
        if self.perturb_eps and self.kind1 == self.kind2 == "flat-torus":
            raise ValidationError("perturb_eps perturbs sphere factors, and both factors are flat")
        if self.command == "converge" and self.kind1 == self.kind2 == "flat-torus":
            raise ValidationError("converge measures sphere factors, and both factors are flat")


_SURFACE_KEYS = {"c1", "c2", "kind1", "kind2", "a", "n"}
_CONFIG_KEYS = {  # the config keys each surface command reads
    "converge": _SURFACE_KEYS,
    "pde-residual": _SURFACE_KEYS | {"perturb_eps", "perturb_mode"},
    "pde-solve": _SURFACE_KEYS | {"perturb_eps", "perturb_mode", "solver_tol", "max_iterations"},
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a key given twice is refused, not read as its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"duplicate config key {key!r}")
        obj[key] = value
    return obj


def _surface_config(path: str, command: str, out: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    known = _CONFIG_KEYS[command]
    bad = set(raw) - known
    if bad:
        raise ValidationError(
            f"unknown config keys: {sorted(bad)}; bhe {command.replace('-', ' ')} "
            f"reads only {', '.join(sorted(known))}"
        )
    if "perturb_mode" in raw and not raw.get("perturb_eps"):
        raise ValidationError("perturb_mode is read only with a non-zero perturb_eps")
    return RunConfig(command=command, out=out, **raw)


def _build_surface(cfg: RunConfig, n: int | None = None) -> toric.ProductSurface:
    n = n or cfg.n
    factors = []
    for c, kind in ((cfg.c1, cfg.kind1), (cfg.c2, cfg.kind2)):
        if kind == "flat-torus":
            factors.append(toric.SphereProfile.flat(c, n))
        elif cfg.perturb_eps:
            factors.append(toric.SphereProfile.round_perturbed(c, n, cfg.perturb_eps, cfg.perturb_mode))
        else:
            factors.append(toric.SphereProfile.round(c, n))
    return toric.ProductSurface(factors[0], factors[1], cfg.a)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def model_report(m: HermitianModel) -> Report:
    """Every identity check that applies to the given model."""
    rep = Report(m.name)
    rep.record("jacobi_identity", m.algebra.jacobi_residual())
    rep.record("complex_structure_integrable", float(np.abs(nijenhuis(m.algebra, m.J)).max()))
    t1, t2 = m.lee_pair
    rep.record("lee_form_agreement", (t1 - t2).sup_norm())
    rep.record("bismut_ricci_flat", bhe_residual(m))
    H = m.H
    rep.record("pluriclosed", m.dH.sup_norm())
    gb = m.bismut
    rep.record("bismut_parallel_torsion", float(np.abs(covariant_derivative(H.components, gb)).max()))
    V = m.V
    eta = m.metric.g @ V
    jeta = m.metric.g @ (m.J @ V)
    rep.record("bismut_parallel_V", float(np.abs(covariant_derivative(eta, gb)).max()))
    rep.record("bismut_parallel_JV", float(np.abs(covariant_derivative(jeta, gb)).max()))
    rep.record("gauduchon", gauduchon_residual(m))
    pluriclosed = is_pluriclosed(H, m.dH)
    if pluriclosed:
        rep.merge(verify_lrho(m))
    else:
        rep.notes["ricci_form_identity"] = "skipped: model is not pluriclosed"

    vnorm2 = float(V @ m.metric.g @ V)
    if vnorm2 < 1e-12:
        rep.notes["reduction"] = "V vanishes: Kahler Calabi-Yau; reduction suite skipped"
        return rep
    if not pluriclosed or rep.residuals["bismut_ricci_flat"] > BHE_TOL:
        rep.notes["reduction"] = "skipped: model is not BHE"
        return rep
    rep.merge(reduction.identity_suite(reduction.reduce(m)))
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
    rep = reduction.identity_suite(r, cfg.model)
    payload = rep.to_dict(cfg.tolerance)
    payload["model"] = cfg.model
    write_json(os.path.join(cfg.out, "report.json"), payload)
    return EXIT_PASS if rep.passes(cfg.tolerance) else EXIT_FAIL


# ---------------------------------------------------------------------------
# pde commands
# ---------------------------------------------------------------------------


def _lines(*columns) -> bytearray:
    """The text of ``columns`` of NUL-padded ``_format.CELL``s, broadcast side by side.

    One ``translate`` deletes every NUL; the ``bytearray`` goes to the file as it is.
    """
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    buf = bytearray(math.prod(shape) * len(columns) * _format.CELL.itemsize)
    lines = np.frombuffer(buf, _format.CELL).reshape(*shape, len(columns))
    for j, c in enumerate(columns):
        lines[..., j] = c
    return buf.translate(None, b"\0")


def _csv_columns(*columns) -> bytearray:
    """CSV lines of ``columns``: floats as ``%.16e`` cells, integers as ``%d``.

    A column shorter than the longest ends in empty cells (a flat-torus
    factor has n nodes, not n+1).
    """
    rows = max(map(len, columns))
    text = "S%d" % _format.CELL.itemsize
    cells = []
    for j, col in enumerate(map(np.asarray, columns)):
        end = "\n" if j == len(columns) - 1 else ","
        c = np.full(rows, end.encode(), text).view(_format.CELL)
        if col.dtype.kind in "iu":
            c[: col.size] = np.array(["%d%s" % (v, end) for v in col.tolist()], text).view(_format.CELL)
        else:
            c[: col.size] = _format.e16_cells(col, end)
        cells.append(c)
    return _lines(*cells)


def _residual_lines(z1: np.ndarray, z2: np.ndarray, E: np.ndarray):
    """``z1,z2,E`` lines in z1-major order, one ``_lines`` chunk per block of grid rows.

    The blocks are ``toric._row_blocks``, as for the l2 norm and the
    forward map: whole grid rows, up to ``toric.BLOCK_VALUES`` values, or
    3 to 5 rows where a row is longer, so the extra memory stays one block.
    """
    z1 = _format.e16_cells(z1, ",")
    z2 = _format.e16_cells(z2, ",")
    for i0, i1 in toric._row_blocks(*E.shape):
        block = E[i0:i1]
        yield _lines(z1[i0:i1, None], z2, _format.e16_cells(block, "\n").reshape(block.shape))


def _write_surface_artifacts(cfg: RunConfig, s: toric.ProductSurface) -> tuple[float, float]:
    """Write surface.csv and residual.csv; return the residual's sup and l2 norms.

    The residual grid E is dropped once residual.csv is written.
    """
    field = toric.pde_residual(s)
    p1, p2 = s.factor1, s.factor2
    write_csv(
        os.path.join(cfg.out, "surface.csv"),
        ["z", "Theta1", "Theta2", "kappa1", "kappa2"],
        [_csv_columns(p1.z, p1.theta, p2.theta, p1.kappa, p2.kappa)],
    )
    write_csv(os.path.join(cfg.out, "residual.csv"), ["z1", "z2", "E"], _residual_lines(p1.z, p2.z, field.E))
    return field.sup, field.l2


def _diagnostics(s: toric.ProductSurface, sup: float, l2: float) -> dict:
    diag: dict = {
        "residual_sup": sup,
        "residual_l2": l2,
        "topology": toric.topo_invariants(s),
    }
    try:
        C, rep = toric.p4d_forward(s)
        diag["forward_map"] = rep.residuals
        diag["forward_map_C_estimate"] = C
    except ValidationError as exc:
        diag["forward_map_note"] = str(exc)
    return diag


def run_pde_residual(cfg: RunConfig) -> int:
    s = _build_surface(cfg)
    sup, l2 = _write_surface_artifacts(cfg, s)
    write_json(os.path.join(cfg.out, "diagnostics.json"), _diagnostics(s, sup, l2))
    return EXIT_PASS


def run_pde_solve(cfg: RunConfig) -> int:
    s0 = _build_surface(cfg)
    scfg = solver.SolverConfig(max_iterations=cfg.max_iterations, tolerance=cfg.solver_tol)
    trace = solver.newton_solve(s0, scfg)
    sup, l2 = _write_surface_artifacts(cfg, trace.surface)
    payload = trace.to_dict()
    payload["diagnostics"] = _diagnostics(trace.surface, sup, l2)
    write_json(os.path.join(cfg.out, "trace.json"), payload)
    write_csv(
        os.path.join(cfg.out, "history.csv"),
        ["iteration", "residual", "step"],
        [_csv_columns(np.arange(len(trace.residual_sup)), trace.residual_sup, [0.0, *trace.steps])],
    )
    return EXIT_PASS if trace.flag in ("converged", "at-floor") else EXIT_FAIL


def run_converge(cfg: RunConfig) -> int:
    grids = (64, 128, 256)
    residuals, kappa_errs, manufactured = [], [], []
    res_floors, kap_floors, man_floors = [], [], []  # round-off floors, one per grid
    for n in grids:
        s = _build_surface(cfg, n=n)
        # pde_residual's sup, without the quadrature l2 norm it also builds
        residuals.append(float(np.abs(toric._residual_grid(s)).max()))
        res_floors.append(max(toric.roundoff_floor(p, 2) for p in (s.factor1, s.factor2)))
        spheres = [p for p in (s.factor1, s.factor2) if p.kind == "sphere"]
        # each curvature error is judged against its own factor's floor
        err, floor = max(
            (float(np.max(np.abs(p.kappa - 1.0 / p.c))), toric.roundoff_floor(p, 1))
            for p in spheres
        )
        kappa_errs.append(err)
        kap_floors.append(floor)
        # one quartic bump, at the largest half-length: below c = 1 the c^-3 scale keeps
        # its error clear of its floor, and 100/c caps eps c at 1 for every c, so its
        # pole-slope error 8 eps c h^2 stays under the 50 h^2 pole gate
        c = max(p.c for p in spheres)
        err, floor = toric.manufactured_truncation_error(c, 1e-2 * min(max(1.0, c**-3), 100.0 / c), n)
        manufactured.append(err)
        man_floors.append(floor)

    def order_entries(vals, floors):
        return [
            ("at-floor" if o == float("inf") else o) for o in toric.observed_orders(vals, floors)
        ]

    res_orders = order_entries(residuals, res_floors)
    kap_orders = order_entries(kappa_errs, kap_floors)
    man_orders = order_entries(manufactured, man_floors)

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
    write_csv(
        os.path.join(cfg.out, "orders.csv"),
        ["n", "residual_sup", "kappa_error", "manufactured_error"],
        [_csv_columns(grids, residuals, kappa_errs, manufactured)],
    )
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(prog="bhe", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suite on a catalog model")
    v.add_argument("--model", required=True)
    v.add_argument("--tol", type=float, default=RunConfig.tolerance)
    v.add_argument("--out", required=True)

    rd = sub.add_parser("reduce", help="dump the torus reduction of a catalog model")
    rd.add_argument("--model", required=True)
    rd.add_argument("--tol", type=float, default=RunConfig.tolerance)
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
            cfg = _surface_config(args.config, command, args.out)
            if command == "pde-solve":
                return run_pde_solve(cfg)
            return run_pde_residual(cfg)
        # argparse admits no command but these four
        return run_converge(_surface_config(args.config, "converge", args.out))
    except (ValidationError, KahlerInputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"bhe: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
