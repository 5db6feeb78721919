"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the summary lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json

import numpy as np
import pytest

from bhe import catalog, reduction, solver, toric
from bhe.cli import main as cli_main
from bhe.forms import FormTensor
from bhe.frame_geometry import (
    HermitianModel,
    KahlerInputError,
    bhe_residual,
    bismut_connection,
    bismut_torsion,
    covariant_derivative,
    exterior_derivative,
    lee_form_both,
    lee_vector,
    verify_lrho,
)

from helpers import random_compatible_metric

FLAT_MODELS = ("su2xsu2", "su2xRxC", "hopf")


def _report(tag: str, detail: str) -> None:
    print(f"[PASS] {tag}: {detail}")


def _fail(tag: str, detail: str) -> None:
    print(f"[FAIL] {tag}: {detail}")


class TestAcceptance:
    def test_a1_bismut_flat_models(self):
        tag = "A1 bismut-flat catalog models"
        worst = 0.0
        try:
            for name in FLAT_MODELS:
                m = catalog.get_model(name)
                gb = bismut_connection(m)
                H = bismut_torsion(m)
                V = lee_vector(m)
                residuals = (
                    bhe_residual(m),
                    exterior_derivative(H, m.algebra).sup_norm(),
                    float(np.max(np.abs(covariant_derivative(H.components, gb)))),
                    float(np.max(np.abs(covariant_derivative(m.metric.g @ V, gb)))),
                    float(np.max(np.abs(covariant_derivative(m.metric.g @ (m.J @ V), gb)))),
                )
                worst = max(worst, *residuals)
                assert max(residuals) <= 1e-12, (name, residuals)
        except AssertionError:
            _fail(tag, "a flatness residual exceeded 1e-12")
            raise
        _report(tag, f"rho_B, dH, nabla_B H, nabla_B V, nabla_B JV all <= {worst:.2e}")

    def test_a2_identity_suite(self):
        tag = "A2 Lee form and Ricci form identities"
        try:
            base = catalog.get_model("su2xsu2")
            worst_lee = 0.0
            for seed in range(100):
                mf = random_compatible_metric(base.J, np.random.default_rng(seed))
                m = HermitianModel(base.algebra, mf, base.J)
                t1, t2 = lee_form_both(m)
                worst_lee = max(worst_lee, (t1 - t2).sup_norm())
            assert worst_lee <= 1e-12
            worst_rho = 0.0
            for name in ("su2xsu2", "su2xRxC", "hopf", "flat-torus"):
                rep = verify_lrho(catalog.get_model(name))
                worst_rho = max(worst_rho, rep.max_residual())
            assert worst_rho <= 1e-12
        except AssertionError:
            _fail(tag, "identity residual exceeded 1e-12")
            raise
        _report(tag, f"100 random metrics, lee gap {worst_lee:.2e}; ricci identity {worst_rho:.2e}")

    def test_a3_reduction_suite(self):
        tag = "A3 reduction suite on the two threefolds"
        try:
            worst = 0.0
            for name in ("su2xsu2", "su2xRxC"):
                r = reduction.reduce(catalog.get_model(name))
                trace_jv = float((r.omega_h * r.fjv).sum())
                assert abs(trace_jv + 2.0) <= 1e-13, (name, trace_jv)
                for rep in (
                    reduction.p3_residuals(r),
                    reduction.torsion_split_residual(r),
                    reduction.einstein_maxwell_residual(r),
                    reduction.lemma_suite(r),
                ):
                    worst = max(worst, rep.max_residual())
                    assert rep.max_residual() <= 1e-12, (name, rep.name, rep.residuals)
        except AssertionError:
            _fail(tag, "a reduction residual exceeded 1e-12")
            raise
        _report(tag, f"structure, Einstein-Maxwell, dilaton, component suites <= {worst:.2e}")

    def test_a4_assembly_round_trip(self):
        tag = "A4 assembly round trip"
        try:
            r = reduction.reduce(catalog.get_model("su2xsu2"))
            trans, F_V4, F_JV4, f = reduction.transverse_package(r)
            asm = reduction.assemble(trans, F_V4, F_JV4, f)
            res = bhe_residual(asm)
            assert res <= 1e-12
            gap = float(
                np.max(
                    np.abs(
                        reduction.curvature_operator_spectrum(r.parent)
                        - reduction.curvature_operator_spectrum(asm)
                    )
                )
            )
            assert gap <= 1e-10
            r2 = reduction.reduce(asm)
            _, G_V, G_JV, f2 = reduction.transverse_package(r2)
            rec = max(
                float(np.max(np.abs(G_V.components - F_V4.components))),
                float(np.max(np.abs(G_JV.components - F_JV4.components))),
                abs(f2 - f),
            )
            assert rec <= 1e-12
        except AssertionError:
            _fail(tag, "assembly round trip out of tolerance")
            raise
        _report(tag, f"bhe residual {res:.2e}, spectrum gap {gap:.2e}, data recovery {rec:.2e}")

    def test_a5_toric_exactness_and_orders(self):
        tag = "A5 toric exactness and convergence order"
        try:
            grids = (64, 128, 256)
            sups = {}
            for label, build in {
                "round2xround2": lambda n: toric.ProductSurface(
                    toric.SphereProfile.round(2.0, n), toric.SphereProfile.round(2.0, n), 0.5
                ),
                "round1xflat": lambda n: toric.ProductSurface(
                    toric.SphereProfile.round(1.0, n), toric.SphereProfile.flat(1.0, n), 0.0
                ),
            }.items():
                surfaces = [build(n) for n in grids]
                vals = [toric.pde_residual(s).sup for s in surfaces]
                for n, v in zip(grids, vals):
                    assert v <= 0.01 * (4.0 / n) ** 2, (label, n, v)  # C h^2 with C = 0.01
                floors = [max(toric.roundoff_floor(s.factor1, 2), toric.roundoff_floor(s.factor2, 2))
                          for s in surfaces]
                orders = toric.observed_orders(vals, floors)
                assert all(o == float("inf") or o >= 1.9 for o in orders), (label, vals)
                sups[label] = max(vals)
            man, man_floors = zip(*(toric.manufactured_truncation_error(2.0, 1e-2, n) for n in grids))
            man_orders = toric.observed_orders(man, man_floors)
            assert all(o >= 1.9 for o in man_orders), man
            s = toric.ProductSurface(
                toric.SphereProfile.round(2.0, 64), toric.SphereProfile.round(2.0, 64), 0.5
            )
            topo = toric.topo_invariants(s)
            assert abs(topo["A_dot_A"] + 8.0) <= 1e-10
            assert abs(topo["c1_squared"] - 8.0) <= 1e-10
            s2 = toric.ProductSurface(
                toric.SphereProfile.round(1.0, 64), toric.SphereProfile.flat(1.0, 64), 0.0
            )
            topo2 = toric.topo_invariants(s2)
            assert max(abs(topo2["A_dot_A"]), abs(topo2["c1_squared"])) <= 1e-10
        except AssertionError:
            _fail(tag, "residual bound, order, or intersection data failed")
            raise
        _report(
            tag,
            "residuals at the exact floor "
            f"({sups}); manufactured truncation orders {[f'{o:.3f}' for o in man_orders]}; "
            "intersection data (A.A, c1^2) = (-8,8) and (0,0)",
        )

    def test_a6_forward_map(self):
        tag = "A6 forward map to reduced data"
        try:
            worst = 0.0
            for s in (
                toric.ProductSurface(
                    toric.SphereProfile.round(2.0, 64), toric.SphereProfile.round(2.0, 64), 0.5
                ),
                toric.ProductSurface(
                    toric.SphereProfile.round(1.0, 64), toric.SphereProfile.flat(1.0, 64), 0.0
                ),
            ):
                _, rep = toric.p4d_forward(s)
                worst = max(worst, rep.max_residual())
                h2 = max(s.factor1.h, s.factor2.h) ** 2
                assert rep.max_residual() <= 0.01 * h2, rep.residuals  # C h^2, C = 0.01
                assert rep.residuals["principal_norm_identity"] <= 0.01 * h2
        except AssertionError:
            _fail(tag, "forward-map residual exceeded C h^2")
            raise
        _report(tag, f"structure residuals and unit norm identity <= {worst:.2e}")

    def test_a7_solver(self):
        tag = "A7 Gauss-Newton solver"
        try:
            s0 = toric.ProductSurface(
                toric.SphereProfile.round_perturbed(2.0, 64, 1e-2, "odd"),
                toric.SphereProfile.round_perturbed(2.0, 64, 1e-2, "odd"),
                0.5,
            )
            trace = solver.newton_solve(s0)
            assert trace.flag == "converged"
            assert trace.iterations <= 50
            assert trace.final_residual < 1e-8
            kdev = 0.0
            for p in (trace.surface.factor1, trace.surface.factor2):
                kdev = max(kdev, float(np.max(np.abs(p.kappa - 0.5))))
            assert kdev < 1e-6
            bad = toric.ProductSurface(
                toric.SphereProfile.round(2.0, 64), toric.SphereProfile.round(2.0, 64), 0.25
            )
            stalled = solver.newton_solve(bad)
            assert stalled.flag == "stalled"
            assert stalled.final_residual > 0.01
        except AssertionError:
            _fail(tag, "solver behavior out of contract")
            raise
        _report(
            tag,
            f"converged in {trace.iterations} iterations to {trace.final_residual:.2e}, "
            f"curvature recovered to {kdev:.2e}; inconsistent class stalls at "
            f"{stalled.final_residual:.3f}",
        )

    def test_a8_negative_controls(self):
        tag = "A8 negative controls"
        try:
            res = bhe_residual(catalog.get_model("perturbed-control"))
            assert res >= 1e-4
            with pytest.raises(KahlerInputError):
                reduction.reduce(catalog.get_model("flat-torus"))
        except AssertionError:
            _fail(tag, "the suite would be vacuous")
            raise
        _report(tag, f"perturbed metric residual {res:.2e} >= 1e-4; Kahler input routed")

    def test_a9_determinism(self, tmp_path):
        tag = "A9 byte-identical reports"
        try:
            outs = []
            for sub in ("a", "b"):
                out = tmp_path / sub
                assert cli_main(["verify", "--model", "su2xsu2", "--out", str(out)]) == 0
                outs.append((out / "report.json").read_bytes())
            assert outs[0] == outs[1]
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                json.dumps(
                    {"c1": 2.0, "c2": 2.0, "kind1": "sphere", "kind2": "sphere", "a": 0.5, "n": 32}
                ),
                encoding="utf-8",
            )
            arts = []
            for sub in ("p", "q"):
                out = tmp_path / sub
                assert cli_main(["pde", "residual", "--config", str(cfg), "--out", str(out)]) == 0
                arts.append(
                    (out / "residual.csv").read_bytes() + (out / "diagnostics.json").read_bytes()
                )
            assert arts[0] == arts[1]
        except AssertionError:
            _fail(tag, "repeated runs differ")
            raise
        _report(tag, "verify and pde artifacts byte-identical across repeated runs")
