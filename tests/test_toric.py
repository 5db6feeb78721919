"""Momentum-profile surfaces: curvature, Laplacian, residuals, topology."""

import numpy as np
import pytest

from bhe import toric
from bhe.frame_geometry import ValidationError
from bhe.toric import ProductSurface, SphereProfile


def poly_kappa(c, eps):
    """Analytic curvature of the quartic-bump profile, via exact polynomials."""
    P = np.polynomial.Polynomial
    z = P([0.0, 1.0])
    theta = (c * c - z * z) / c + eps * (c * c - z * z) ** 2
    return (-0.5 * theta.deriv(2))


class TestProfiles:
    def test_round_profile_data(self):
        p = SphereProfile.round(2.0, 64)
        assert p.area == pytest.approx(8 * np.pi)
        assert p.theta[0] == 0.0 and p.theta[-1] == 0.0
        assert np.all(p.theta[1:-1] > 0)

    def test_rejects_negative_interior(self):
        p = SphereProfile.round(1.0, 32)
        theta = p.theta.copy()
        theta[5] = -0.1
        with pytest.raises(ValidationError):
            SphereProfile(1.0, 32, theta)

    def test_rejects_conical_poles(self):
        z = np.linspace(-1, 1, 33)
        theta = 0.25 * (1 - z * z)  # Theta'(-1) = 1/2, a cone angle defect
        with pytest.raises(ValidationError):
            SphereProfile(1.0, 32, theta)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SphereProfile.round(float("nan"), 32),
            lambda: SphereProfile(float("inf"), 32, SphereProfile.round(1.0, 32).theta),
            lambda: SphereProfile(1.0, 32, np.where(np.arange(33) == 5, np.nan, 1 - np.linspace(-1, 1, 33) ** 2)),
            lambda: SphereProfile.flat(1.0, 32, float("nan")),
            lambda: SphereProfile.flat(1.0, 32, float("inf")),
        ],
        ids=["nan-c", "inf-c", "nan-interior", "nan-flat", "inf-flat"],
    )
    def test_rejects_non_finite(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_flat_profile_constant(self):
        p = SphereProfile.flat(1.0, 32, 2.0)
        assert np.all(p.theta == 2.0)
        with pytest.raises(ValidationError):
            SphereProfile(1.0, 32, np.linspace(1, 2, 32), "flat-torus")


class TestGaussCurvature:
    def test_round_two_exactly_half(self):
        p = SphereProfile.round(2.0, 64)
        assert np.array_equal(toric.gauss_curvature(p), np.full(65, 0.5))

    def test_round_one_exactly_one(self):
        p = SphereProfile.round(1.0, 64)
        assert np.max(np.abs(toric.gauss_curvature(p) - 1.0)) < 1e-13

    def test_flat_factor_zero(self):
        p = SphereProfile.flat(1.0, 64)
        assert np.max(np.abs(toric.gauss_curvature(p))) == 0.0

    def test_quartic_bump_second_order(self):
        # kappa of the quartic-bump profile against its exact polynomial value
        kap_exact = poly_kappa(2.0, 1e-2)
        errs = []
        for n in (64, 128, 256):
            z = -2.0 + (4.0 / n) * np.arange(n + 1)
            P = np.polynomial.Polynomial
            zz = P([0.0, 1.0])
            theta_q = (4.0 - zz**2) / 2.0 + 1e-2 * (4.0 - zz**2) ** 2
            pq = SphereProfile(2.0, n, theta_q(z), "sphere")
            errs.append(float(np.max(np.abs(toric.gauss_curvature(pq) - kap_exact(z)))))
        orders = toric.observed_orders(errs)
        assert all(o == float("inf") or o > 1.9 for o in orders), (errs, orders)

    def test_gauss_bonnet_for_arbitrary_profiles(self):
        # total curvature 2 per sphere factor, forced by the pole conditions
        for n in (64, 128):
            for eps, mode in ((0.0, "odd"), (5e-3, "odd"), (5e-3, "even")):
                p = SphereProfile.round_perturbed(2.0, n, eps, mode)
                total = float(np.sum(toric.gauss_curvature(p) * p.weights()))
                assert total == pytest.approx(2.0, abs=20 * p.h**2)


class TestLaplacian:
    def test_constant_in_kernel(self):
        s = ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.flat(1.0, 32))
        h = np.ones((33, 32))
        assert np.max(np.abs(toric.invariant_laplacian(s, h))) == 0.0

    def test_coordinate_function_on_round_sphere(self):
        p = SphereProfile.round(1.0, 64)
        lap = toric.laplacian_1d(p, p.z)
        assert np.max(np.abs(lap + 2 * p.z)) < 1e-12

    def test_discrete_integration_by_parts(self):
        p = SphereProfile.round(1.0, 96)
        z = p.z
        w = p.weights()
        h = np.exp(-(z**2)) * (1 + z)
        v = np.cos(z) + 0.3 * z**2
        lhs = float(np.sum(toric.laplacian_1d(p, h) * v * w))
        dh = toric._d1(p, h)
        dv = toric._d1(p, v)
        rhs = -float(np.sum(p.theta * dh * dv * w))
        assert lhs == pytest.approx(rhs, abs=30 * p.h**2)


class TestResidual:
    def test_round22_with_halved_class_is_exact(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        assert toric.pde_residual(s).sup == 0.0

    def test_round1_flat_is_exact(self):
        s = ProductSurface(SphereProfile.round(1.0, 64), SphereProfile.flat(1.0, 64), 0.0)
        assert toric.pde_residual(s).sup == 0.0

    def test_missing_class_leaves_constant_violation(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.0)
        field = toric.pde_residual(s)
        assert field.sup == pytest.approx(0.5)
        assert np.allclose(field.E, -0.5)

    def test_manufactured_truncation_order(self):
        errs = [toric.manufactured_truncation_error(2.0, 1e-2, n) for n in (64, 128, 256)]
        orders = toric.observed_orders(errs)
        assert all(o >= 1.9 for o in orders), (errs, orders)


class TestHarmonicASD:
    def test_zero_class(self):
        s = ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(2.0, 32), 0.0)
        assert toric.harmonic_asd(s).max_residual() == 0.0

    def test_unit_norm_at_halved_class(self):
        s = ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(2.0, 32), 0.5)
        rep = toric.harmonic_asd(s)
        assert rep.max_residual() == 0.0
        assert "1.0" in rep.notes["norm2_minus_4a2"]

    def test_class_constraint_gate(self):
        with pytest.raises(ValidationError):
            ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(1.0, 32), 0.5)

    def test_self_intersection_number(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        topo = toric.topo_invariants(s)
        assert topo["A_dot_A"] == pytest.approx(-8.0, abs=1e-10)


class TestTopology:
    def test_round22_intersection_data(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        topo = toric.topo_invariants(s)
        assert topo["Omega_dot_A"] == 0.0
        assert topo["A_dot_A"] == pytest.approx(-8.0, abs=1e-10)
        assert topo["c1_squared"] == pytest.approx(8.0, abs=1e-10)
        assert topo["constraint_defect_selfintersection"] < 1e-10

    def test_ruled_flat_product_data(self):
        s = ProductSurface(SphereProfile.round(1.0, 64), SphereProfile.flat(1.0, 64), 0.0)
        topo = toric.topo_invariants(s)
        assert topo["Omega_dot_A"] == 0.0
        assert topo["A_dot_A"] == 0.0
        assert topo["c1_squared"] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_class_flagged(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.25)
        topo = toric.topo_invariants(s)
        assert topo["A_dot_A"] == pytest.approx(-2.0, abs=1e-10)
        assert topo["constraint_defect_selfintersection"] == pytest.approx(6.0, abs=1e-9)


class TestForwardMap:
    def test_round22_halved_class(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        fields, rep = toric.p4d_forward(s)
        assert np.max(np.abs(fields["f"])) == 0.0
        assert rep.max_residual() < 1e-13
        assert rep.residuals["principal_trace_JV"] == 0.0

    def test_ruled_surface_rank_degenerate_ricci(self):
        s = ProductSurface(SphereProfile.round(1.0, 64), SphereProfile.flat(1.0, 64), 0.0)
        fields, rep = toric.p4d_forward(s)
        assert rep.max_residual() < 1e-13
        k1, k2 = fields["ricci_eigenvalue_samples"]
        assert k1 == pytest.approx(1.0) and k2 == pytest.approx(0.0)

    def test_rescaled_areas_violate_normalization(self):
        # doubling both half-lengths halves the curvatures: the class datum
        # a = 1/2 no longer matches and the anomaly residual reports it
        s = ProductSurface(SphereProfile.round(4.0, 64), SphereProfile.round(4.0, 64), 0.5)
        _, rep = toric.p4d_forward(s)
        assert rep.residuals["anomaly_cancellation"] == pytest.approx(0.375, abs=1e-10)

    def test_positive_curvature_gate(self):
        # a saddle-heavy profile drives R negative somewhere
        n = 64
        p = SphereProfile.round_perturbed(2.0, n, 0.1, "even")
        s = ProductSurface(p, SphereProfile.round(2.0, n), 0.0)
        with pytest.raises(ValidationError, match=r"min -"):
            toric.p4d_forward(s)

    def test_residual_second_order_on_perturbed_surface(self):
        sups = []
        for n in (64, 128, 256):
            P = np.polynomial.Polynomial
            zz = P([0.0, 1.0])
            theta_q = (4.0 - zz**2) / 2.0 + 1e-3 * (4.0 - zz**2) ** 2
            p = SphereProfile(2.0, n, theta_q(-2.0 + (4.0 / n) * np.arange(n + 1)), "sphere")
            s = ProductSurface(p, p, 0.5)
            _, rep = toric.p4d_forward(s)
            # the conformally-balanced residual is the h^2-limited entry here
            sups.append(rep.residuals["transverse_lee_is_df"])
        orders = toric.observed_orders(sups)
        assert all(o == float("inf") or o > 1.8 for o in orders), (sups, orders)
