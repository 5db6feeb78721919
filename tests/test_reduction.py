"""Torus reduction, component identity suites, and total-space assembly."""

import numpy as np
import pytest

from bhe import catalog, reduction
from bhe.cli import model_report
from bhe.forms import FormTensor, MetricFrame
from bhe.frame_geometry import (
    HermitianModel,
    KahlerInputError,
    StructureAlgebra,
    ValidationError,
    bhe_residual,
    change_frame,
    curvature,
    levi_civita,
    scale_metric,
)


@pytest.fixture(scope="module")
def reduced():
    return {
        name: reduction.reduce(catalog.build_model(name))
        for name in ("su2xsu2", "su2xRxC", "hopf")
    }


class TestReduce:
    def test_su2xsu2_lee_vector_antidiagonal(self, reduced):
        r = reduced["su2xsu2"]
        expect = np.zeros(6)
        expect[2], expect[5] = 0.5, -0.5
        assert np.allclose(r.V, expect)
        assert r.V @ r.parent.metric.g @ r.V == pytest.approx(1.0)

    def test_su2xrxc_has_no_first_principal_curvature(self, reduced):
        assert reduced["su2xRxC"].F_V.sup_norm() == 0.0

    def test_kahler_input_rejected(self):
        with pytest.raises(KahlerInputError):
            reduction.reduce(catalog.build_model("flat-torus"))

    def test_non_bhe_input_rejected(self):
        with pytest.raises(ValidationError):
            reduction.reduce(catalog.build_model("perturbed-control"))

    def test_nan_invariant_rejected(self, monkeypatch):
        def nan_parts(b, J):
            nan = FormTensor._of(2, b.dim, np.full(b.components.shape, np.nan))
            return nan, nan

        monkeypatch.setattr(reduction, "type_decompose", nan_parts)
        with pytest.raises(ValidationError, match="F_V_type11"):
            reduction.reduce(catalog.build_model("su2xsu2"))

    def test_scaling_is_recovered(self):
        # reduce() must renormalize arbitrary positive rescalings
        m = catalog.build_model("su2xsu2")
        m2 = HermitianModel(m.algebra, MetricFrame(3.0 * m.metric.g), m.J, name="scaled")
        r = reduction.reduce(m2)
        assert r.V @ r.parent.metric.g @ r.V == pytest.approx(1.0, abs=1e-13)
        assert abs(reduction._transverse_trace(r, r.F_JV) + 2.0) < 1e-12

    def test_invariants_eta_duality(self, reduced):
        for r in reduced.values():
            assert float(r.eta.components @ r.V) == pytest.approx(1.0, abs=1e-13)
            assert float(r.eta.components @ r.JV) == pytest.approx(0.0, abs=1e-13)
            assert float(r.Jeta.components @ r.JV) == pytest.approx(1.0, abs=1e-13)
            assert float(r.Jeta.components @ r.V) == pytest.approx(0.0, abs=1e-13)

    def test_reduction_dump_schema(self, reduced):
        d = reduced["su2xsu2"].to_dict()
        assert d["dim"] == 6
        assert all(len(entry) == 3 for entry in d["F_V"])  # i, j, value
        assert len(d["g_T"]) == 36


class TestStructureResiduals:
    def test_torsion_split(self, reduced):
        for name, r in reduced.items():
            assert reduction.torsion_split_residual(r).max_residual() < 1e-13, name

    def test_transverse_kahler_means_no_horizontal_torsion(self, reduced):
        for r in reduced.values():
            assert r.H_T.sup_norm() < 1e-13

    def test_wedge_degree_bookkeeping(self, reduced):
        from bhe.forms import j_conjugate, wedge

        r = reduced["su2xsu2"]
        jf = j_conjugate(r.F_V, r.parent.J)
        assert wedge(jf, r.eta).degree == 3

    def test_structure_suite(self, reduced):
        for name, r in reduced.items():
            rep = reduction.p3_residuals(r)
            assert rep.max_residual() < 1e-12, (name, rep.residuals)

    def test_trace_normalization_is_exact(self, reduced):
        for name, r in reduced.items():
            assert abs(reduction._transverse_trace(r, r.F_JV) + 2.0) < 1e-13, name
            assert abs(reduction._transverse_trace(r, r.F_V)) < 1e-13, name

    def test_einstein_maxwell(self, reduced):
        for name, r in reduced.items():
            rep = reduction.einstein_maxwell_residual(r, frame_samples=4)
            assert rep.max_residual() < 1e-12, (name, rep.residuals)

    def test_transverse_ricci_eigenvalues(self, reduced):
        RT = reduction.transverse_curvature(reduced["su2xsu2"])
        eig = np.sort(np.linalg.eigvalsh(np.einsum("ijki->jk", RT)))
        assert np.allclose(eig, 0.5)
        RT = reduction.transverse_curvature(reduced["su2xRxC"])
        eig = np.sort(np.linalg.eigvalsh(np.einsum("ijki->jk", RT)))
        assert np.allclose(eig, [0.0, 0.0, 1.0, 1.0])

    def test_dilaton_value_is_unity_on_catalog(self, reduced):
        for r in reduced.values():
            assert reduction.dilaton_scalar(r) == pytest.approx(1.0, abs=1e-12)

    def test_torsion_norm_factor_calibration(self, reduced):
        # the full-sum norm convention is the one under which the total and
        # transverse torsion norms split as |H|^2 = |H^T|^2 + 3 |F|^2 and the
        # two dilaton expressions (1/6)|H|^2 and (1/6)|H^T|^2 + (1/2)|F|^2
        # take the same constant value
        from bhe.forms import norm2
        from bhe.frame_geometry import bismut_torsion

        for name, r in reduced.items():
            h2 = norm2(bismut_torsion(r.parent), r.parent.metric)
            ht2 = float(np.sum(r.restrict3(r.H_T) ** 2))
            f2 = float(
                np.sum(r.restrict2(r.F_V) ** 2) + np.sum(r.restrict2(r.F_JV) ** 2)
            )
            assert h2 == pytest.approx(ht2 + 3.0 * f2, abs=1e-12), name
            assert h2 / 6.0 == pytest.approx(ht2 / 6.0 + f2 / 2.0, abs=1e-12), name

    def test_scalar_invariants_frame_constant(self, reduced):
        r = reduced["su2xsu2"]
        m = r.parent
        base = (
            float(np.sum(r.restrict2(r.F_V) ** 2)),
            float(np.sum(r.restrict2(r.F_JV) ** 2)),
            reduction.dilaton_scalar(r),
        )
        rng = np.random.default_rng(2)
        for _ in range(3):
            A = rng.standard_normal((6, 6))
            S = A - A.T
            S = 0.5 * (S - m.J @ S @ m.J)
            Q = np.linalg.solve(np.eye(6) - 0.5 * S, np.eye(6) + 0.5 * S)
            r2 = reduction.reduce(change_frame(m, Q))
            vals = (
                float(np.sum(r2.restrict2(r2.F_V) ** 2)),
                float(np.sum(r2.restrict2(r2.F_JV) ** 2)),
                reduction.dilaton_scalar(r2),
            )
            assert np.allclose(vals, base, atol=1e-12)


class TestComponentIdentities:
    def test_suite_passes_on_threefolds(self, reduced):
        for name in ("su2xsu2", "su2xRxC"):
            rep = reduction.lemma_suite(reduced[name])
            assert rep.max_residual() < 1e-12, (name, rep.residuals)

    def test_suite_passes_in_a_generic_frame(self):
        # conjugating by a J-commuting orthogonal map leaves nothing diagonal:
        # every contraction runs on dense data and must still come out exact
        m = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(41)
        A = rng.standard_normal((6, 6))
        S = A - A.T
        S = 0.5 * (S - m.J @ S @ m.J)
        Q = np.linalg.solve(np.eye(6) - 0.5 * S, np.eye(6) + 0.5 * S)
        r = reduction.reduce(change_frame(m, Q))
        for rep in (
            reduction.p3_residuals(r),
            reduction.torsion_split_residual(r),
            reduction.lemma_suite(r),
        ):
            assert rep.max_residual() < 1e-12, rep.residuals

    @pytest.mark.parametrize("name", ["su2xsu2", "su2xRxC"])
    def test_model_report_passes_in_a_non_orthonormal_frame(self, name):
        # the identities are frame-independent, so a sheared frame, whose
        # horizontal projector is not symmetric, must pass every check
        S = np.eye(6) + 0.05 * np.random.default_rng(20240823).standard_normal((6, 6))
        rep = model_report(change_frame(catalog.build_model(name), S))
        assert len(rep.residuals) == 38
        assert rep.passes(1e-12), {k: v for k, v in rep.residuals.items() if v > 1e-12}

    def test_requires_six_dimensions(self, reduced):
        with pytest.raises(ValidationError):
            reduction.lemma_suite(reduced["hopf"])

    def test_norm_identity_values(self, reduced):
        r = reduced["su2xsu2"]
        assert float(np.sum(r.restrict2(r.F_V) ** 2)) == pytest.approx(1.0)
        assert float(np.sum(r.restrict2(r.F_JV) ** 2)) == pytest.approx(1.0)
        r = reduced["su2xRxC"]
        assert float(np.sum(r.restrict2(r.F_V) ** 2)) == pytest.approx(0.0)
        assert float(np.sum(r.restrict2(r.F_JV) ** 2)) == pytest.approx(2.0)

    def test_negative_control_reports_nonzero_vertical_riemann(self):
        # a generic compatible metric on the same algebra is not BHE; the
        # component R(V, JV, ., .) need not vanish there.  Reported, not asserted.
        m = catalog.build_model("perturbed-control")
        R = curvature(levi_civita(m), m.algebra).R
        # crude vertical pair: the catalog directions of the unperturbed model
        V = np.zeros(6)
        V[2], V[5] = 0.5, -0.5
        JV = m.J @ V
        block = np.einsum("abcd,a,b->cd", R, V, JV)
        assert np.max(np.abs(block)) > 1e-6


class TestAssembly:
    def test_round_trip_su2xsu2(self, reduced):
        r = reduced["su2xsu2"]
        trans, F_V4, F_JV4, f = reduction.transverse_package(r)
        asm = reduction.assemble(trans, F_V4, F_JV4, f, name="asm")
        assert bhe_residual(asm) < 1e-12
        s1 = reduction.curvature_operator_spectrum(r.parent)
        s2 = reduction.curvature_operator_spectrum(asm)
        assert np.max(np.abs(s1 - s2)) < 1e-10
        r2 = reduction.reduce(asm)
        _, G_V, G_JV, f2 = reduction.transverse_package(r2)
        assert np.max(np.abs(G_V.components - F_V4.components)) < 1e-12
        assert np.max(np.abs(G_JV.components - F_JV4.components)) < 1e-12
        assert abs(f2 - f) < 1e-15

    def test_round_trip_su2xrxc(self, reduced):
        r = reduced["su2xRxC"]
        trans, F_V4, F_JV4, f = reduction.transverse_package(r)
        asm = reduction.assemble(trans, F_V4, F_JV4, f)
        assert bhe_residual(asm) < 1e-12
        s1 = reduction.curvature_operator_spectrum(r.parent)
        s2 = reduction.curvature_operator_spectrum(asm)
        assert np.max(np.abs(s1 - s2)) < 1e-10
        assert F_V4.sup_norm() == 0.0

    def test_flat_data_assembles_to_abelian_kahler_model(self):
        J4 = np.zeros((4, 4))
        J4[1, 0] = J4[3, 2] = 1.0
        J4[0, 1] = J4[2, 3] = -1.0
        flat = HermitianModel(
            StructureAlgebra(np.zeros((4, 4, 4))), MetricFrame(np.eye(4)), J4
        )
        zero = FormTensor.zero(2, 4)
        asm = reduction.assemble(flat, zero, zero)
        assert np.max(np.abs(asm.algebra.c)) == 0.0
        assert bhe_residual(asm) == 0.0

    def test_scalar_signatures_match(self, reduced):
        r = reduced["su2xsu2"]
        trans, F_V4, F_JV4, f = reduction.transverse_package(r)
        asm = reduction.assemble(trans, F_V4, F_JV4, f)
        sig1 = reduction.scalar_signature(r.parent)
        sig2 = reduction.scalar_signature(asm)
        for k in sig1:
            assert sig1[k] == pytest.approx(sig2[k], abs=1e-12)

    def test_rejects_non_type11_curvature(self):
        J4 = np.zeros((4, 4))
        J4[1, 0] = J4[3, 2] = 1.0
        J4[0, 1] = J4[2, 3] = -1.0
        flat = HermitianModel(
            StructureAlgebra(np.zeros((4, 4, 4))), MetricFrame(np.eye(4)), J4
        )
        bad = np.zeros((4, 4))
        bad[0, 2] = 1.0
        bad[2, 0] = -1.0
        bad[1, 3] = -1.0
        bad[3, 1] = 1.0  # anti-invariant under J4
        with pytest.raises(ValidationError):
            reduction.assemble(flat, FormTensor(2, 4, bad), FormTensor.zero(2, 4))

    def test_rejects_non_closed_curvature(self):
        # over a nonabelian transverse algebra, a constant mixed 2-form
        # fails closedness and must be refused
        c4 = np.zeros((4, 4, 4))
        c4[0, 1, 1] = 1.0
        c4[1, 0, 1] = -1.0  # affine 2-plane times flat factor
        J4 = np.zeros((4, 4))
        J4[1, 0] = J4[3, 2] = 1.0
        J4[0, 1] = J4[2, 3] = -1.0
        trans = HermitianModel(StructureAlgebra(c4), MetricFrame(np.eye(4)), J4)
        bad = np.zeros((4, 4))
        bad[0, 2], bad[2, 0] = 1.0, -1.0
        bad[1, 3], bad[3, 1] = 1.0, -1.0  # u0^u2 + u1^u3: (1,1) but not closed
        from bhe.frame_geometry import exterior_derivative
        from bhe.forms import type_decompose

        F = FormTensor(2, 4, bad)
        assert type_decompose(F, J4)[1].sup_norm() < 1e-14
        assert exterior_derivative(F, trans.algebra).sup_norm() > 0.5
        with pytest.raises(ValidationError):
            reduction.assemble(trans, F, FormTensor.zero(2, 4))

    def test_rejects_jacobi_incompatible_curvature_pair(self):
        J4 = np.zeros((4, 4))
        J4[1, 0] = J4[3, 2] = 1.0
        J4[0, 1] = J4[2, 3] = -1.0
        flat = HermitianModel(
            StructureAlgebra(np.zeros((4, 4, 4))), MetricFrame(np.eye(4)), J4
        )
        w1 = np.zeros((4, 4))
        w1[0, 1], w1[1, 0] = 1.0, -1.0
        w2 = np.zeros((4, 4))
        w2[2, 3], w2[3, 2] = 1.0, -1.0
        # the triple Jacobi identity forces a^2 = b1 b2 for diagonal data
        # a (w1 - w2), -(b1 w1 + b2 w2); this pair violates it
        F_V = FormTensor(2, 4, 0.5 * (w1 - w2))
        F_JV = FormTensor(2, 4, -(w1 + w2))
        with pytest.raises(ValidationError):
            reduction.assemble(flat, F_V, F_JV)

    def test_round_trip_rotated_scaled_variant(self):
        # a J-commuting rotation plus a metric scale of su2xsu2 is exactly
        # BHE; its assembled brackets carry a Jacobi residual of ~7e-14 from
        # round-off, which the Jacobi tolerance must accept
        m = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(46)
        A = rng.standard_normal((6, 6))
        S = A - A.T
        S = 0.5 * (S - m.J @ S @ m.J)
        Q = np.linalg.solve(np.eye(6) - 0.5 * S, np.eye(6) + 0.5 * S)
        scale = float(rng.uniform(0.8, 1.25))
        r = reduction.reduce(scale_metric(change_frame(m, Q), scale))
        trans, F_V4, F_JV4, f = reduction.transverse_package(r)
        asm = reduction.assemble(trans, F_V4, F_JV4, f)
        assert bhe_residual(asm) < 1e-12
        _, G_V, G_JV, f2 = reduction.transverse_package(reduction.reduce(asm))
        assert np.max(np.abs(G_V.components - F_V4.components)) < 1e-12
        assert np.max(np.abs(G_JV.components - F_JV4.components)) < 1e-12
        assert abs(f2 - f) < 1e-15
