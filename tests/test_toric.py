"""Momentum-profile surfaces: curvature, Laplacian, residuals, topology."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from bhe import toric
from bhe.frame_geometry import ValidationError
from bhe.report import Report
from bhe.toric import ProductSurface, SphereProfile
from helpers import flat_profile


def laplacian(p, u):
    """(Theta u')' of p along axis 0 of u, with p's own Theta on every column."""
    return toric.flux_laplacian(p, p.theta.reshape((-1,) + (1,) * (u.ndim - 1)), u)


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
            lambda: flat_profile(1.0, 32, float("nan")),
            lambda: flat_profile(1.0, 32, float("inf")),
        ],
        ids=["nan-c", "inf-c", "nan-interior", "nan-flat", "inf-flat"],
    )
    def test_rejects_non_finite(self, make):
        with pytest.raises(ValidationError):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SphereProfile.round(1e300, 32),
            lambda: SphereProfile.round(-1e300, 32),
            lambda: SphereProfile.round_perturbed(1e155, 32, 1e-2),
            lambda: SphereProfile.round_perturbed(1e100, 32, 1e-2),
            lambda: SphereProfile.round_perturbed(2.0, 32, 1e308),
            lambda: toric.manufactured_truncation_error(1e100, 1e-2, 32),
        ],
        ids=["round-1e300", "round-minus-1e300", "perturbed-1e155", "perturbed-1e100",
             "perturbed-eps-1e308", "manufactured-1e100"],
    )
    def test_rejects_overflowing_half_length(self, make):
        # warnings are errors under pytest: the refusal comes before numpy
        # forms inf - inf
        with pytest.raises(ValidationError, match="too large"):
            make()

    def test_pole_gate_prints_defects_and_bound(self):
        # below c ~ 5e-7 the bound 50 h^2 falls under round-off: the refusal
        # shows why, where six fixed decimals would print 2.000000 twice
        with pytest.raises(ValidationError) as info:
            SphereProfile.round(1e-7, 64)
        assert re.fullmatch(
            r"pole smoothness violated: \|Theta'\(-c\) - 2\| = \d\.\d{3}e-\d\d and "
            r"\|Theta'\(c\) \+ 2\| = \d\.\d{3}e-\d\d must be at most 50 h\^2 = 4\.883e-16",
            str(info.value),
        )

    def test_flat_profile_constant(self):
        assert np.all(SphereProfile.flat(1.0, 32).theta == 1.0)
        assert np.all(flat_profile(1.0, 32, 2.0).theta == 2.0)
        with pytest.raises(ValidationError):
            SphereProfile(1.0, 32, np.linspace(1, 2, 32), "flat-torus")


class TestGaussCurvature:
    def test_round_two_exactly_half(self):
        p = SphereProfile.round(2.0, 64)
        assert np.array_equal(p.kappa, np.full(65, 0.5))

    def test_round_one_exactly_one(self):
        p = SphereProfile.round(1.0, 64)
        assert np.max(np.abs(p.kappa - 1.0)) < 1e-13

    def test_flat_factor_zero(self):
        p = SphereProfile.flat(1.0, 64)
        assert np.max(np.abs(p.kappa)) == 0.0
        # +0.0, not -Theta''/2 = -0.0, so surface.csv prints no negative zero
        assert not np.signbit(p.kappa).any()

    def test_quartic_bump_second_order(self):
        # kappa of the quartic-bump profile against its exact polynomial value
        kap_exact = poly_kappa(2.0, 1e-2)
        errs, floors = [], []
        for n in (64, 128, 256):
            z = -2.0 + (4.0 / n) * np.arange(n + 1)
            P = np.polynomial.Polynomial
            zz = P([0.0, 1.0])
            theta_q = (4.0 - zz**2) / 2.0 + 1e-2 * (4.0 - zz**2) ** 2
            pq = SphereProfile(2.0, n, theta_q(z), "sphere")
            errs.append(float(np.max(np.abs(pq.kappa - kap_exact(z)))))
            floors.append(toric.roundoff_floor(pq, 1))
        orders = toric.observed_orders(errs, floors)
        assert all(o == float("inf") or o > 1.9 for o in orders), (errs, orders)

    def test_gauss_bonnet_for_arbitrary_profiles(self):
        # total curvature 2 per sphere factor, forced by the pole conditions
        for n in (64, 128):
            for eps, mode in ((0.0, "odd"), (5e-3, "odd"), (5e-3, "even")):
                p = SphereProfile.round_perturbed(2.0, n, eps, mode)
                total = float(np.sum(p.kappa * p.weights()))
                assert total == pytest.approx(2.0, abs=20 * p.h**2)


class TestProfileCache:
    """Theta is a read-only copy, and the cached kappa is read-only too."""

    @pytest.mark.parametrize("make", [lambda: SphereProfile.round(2.0, 32), lambda: SphereProfile.flat(1.0, 32)],
                             ids=["sphere", "flat"])
    def test_theta_and_kappa_read_only(self, make):
        p = make()
        for arr in (p.theta, p.kappa):
            with pytest.raises(ValueError):
                arr[3] = 1.0

    def test_theta_is_a_copy(self):
        # writing into the caller's array later cannot reach the profile or its kappa
        theta = SphereProfile.round(2.0, 32).theta.copy()
        p = SphereProfile(2.0, 32, theta, "sphere")
        theta[5:9] *= 2.0
        assert np.array_equal(p.kappa, np.full(33, 0.5))


class TestLaplacian:
    def test_constant_in_kernel(self):
        s = ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.flat(1.0, 32))
        h = np.ones((33, 32))
        assert np.max(np.abs(laplacian(s.factor1, h))) == 0.0
        assert np.max(np.abs(laplacian(s.factor2, h.T).T)) == 0.0

    def test_coordinate_function_on_round_sphere(self):
        p = SphereProfile.round(1.0, 64)
        lap = laplacian(p, p.z)
        assert np.max(np.abs(lap + 2 * p.z)) < 1e-12

    def test_discrete_integration_by_parts(self):
        p = SphereProfile.round(1.0, 96)
        z = p.z
        w = p.weights()
        h = np.exp(-(z**2)) * (1 + z)
        v = np.cos(z) + 0.3 * z**2
        lhs = float(np.sum(laplacian(p, h) * v * w))
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
        grids = (64, 128, 256)
        errs, floors = zip(*(toric.manufactured_truncation_error(2.0, 1e-2, n) for n in grids))
        orders = toric.observed_orders(errs, floors)
        assert all(o >= 1.9 for o in orders), (errs, orders)


class TestRoundoffFloor:
    # K is pinned from both sides: an exact round surface sits at its floors
    # (over c in [0.3, 150], which a floor linear in max|Theta| misses above
    # c = 40), and the manufactured truncation error stays above its own

    @pytest.mark.parametrize("c", [0.3, 0.61, 2.05, 2.2, 2.45, 41.0, 150.0])
    def test_round_surface_at_its_floors(self, c):
        for n in (64, 128, 256):
            p = SphereProfile.round(c, n)
            assert toric.pde_residual(ProductSurface(p, p, 1.0 / c)).sup <= toric.roundoff_floor(p, 2)
            assert np.abs(p.kappa - 1.0 / c).max() <= toric.roundoff_floor(p, 1)

    @pytest.mark.parametrize("c", [2.05, 2.2, 2.25, 2.45])
    def test_manufactured_error_above_its_floor(self, c):
        for n in (64, 128, 256):
            err, floor = toric.manufactured_truncation_error(c, 1e-2, n)
            assert err > floor

    def test_flat_factor_has_no_floor(self):
        assert toric.roundoff_floor(SphereProfile.flat(2.0, 64), 2) == 0.0

    def test_orders_use_one_floor_per_value(self):
        # the finer value at its floor gives no order; the coarser one's floor
        # does not matter
        assert toric.observed_orders([1.0, 3.0, 0.75], [9.0, 4.0, 0.5]) == [float("inf"), 2.0]
        assert toric.observed_orders([8.0, 1.0], [1.0, 1.0]) == [float("inf")]
        assert toric.observed_orders([2.0, 1.0], [1.0, 0.5]) == [1.0]
        assert toric.observed_orders([2.0, 0.0], [0.0, 0.0]) == [float("inf")]


class TestClassDatum:
    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf"), 1e200, 1e100])
    def test_rejects_non_finite_or_overflowing(self, a):
        with pytest.raises(ValidationError, match="class datum"):
            ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(2.0, 32), a)

    @pytest.mark.parametrize(
        "c, a",
        [(1e154, 0.5), (1e154, 0.0), (1e100, 1e76)],
        ids=["area-product-inf", "area-product-inf-a0", "a2-times-areas-inf"],
    )
    def test_rejects_overflowing_intersection_numbers(self, c, a):
        # c^2 and 2 a^2 are finite, but A.A = -2 a^2 (4 pi c)^2 / (2 pi)^2 is
        # not; with a = 0 the infinite area product would make it 0 * inf
        p = SphereProfile.round(c, 32)
        with pytest.raises(ValidationError, match="intersection numbers overflow"):
            ProductSurface(p, p, a)

    def test_large_finite_class_keeps_a_finite_residual(self):
        s = ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(2.0, 32), 1e76)
        f = toric.pde_residual(s)
        assert np.isfinite(f.sup) and np.isfinite(f.l2)


class TestHarmonicASD:
    """The class datum alpha = a (omega_1 - omega_2)."""

    def test_class_constraint_gate(self):
        with pytest.raises(ValidationError, match="^the class datum a = 0.5 != 0 needs equal factor areas"):
            ProductSurface(SphereProfile.round(2.0, 32), SphereProfile.round(1.0, 32), 0.5)

    def test_self_intersection_number(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        topo = toric.topo_invariants(s)
        assert topo["A_dot_A"] == pytest.approx(-8.0, abs=1e-10)


class TestTopology:
    def test_round22_intersection_data(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        topo = toric.topo_invariants(s)
        assert topo["A_dot_A"] == pytest.approx(-8.0, abs=1e-10)
        assert topo["c1_squared"] == pytest.approx(8.0, abs=1e-10)
        assert topo["constraint_defect_selfintersection"] < 1e-10

    def test_ruled_flat_product_data(self, monkeypatch):
        flat = SphereProfile.flat(1.0, 64)
        s = ProductSurface(SphereProfile.round(1.0, 64), flat, 0.0)
        topo = toric.topo_invariants(s)
        # +0.0, so diagnostics.json prints no "-0" at a = 0
        assert topo["A_dot_A"] == 0.0 and math.copysign(1.0, topo["A_dot_A"]) == 1.0
        assert topo["c1_squared"] == pytest.approx(0.0, abs=1e-12)
        gb = topo["gauss_bonnet_factor2"]
        assert gb == 0.0 and math.copysign(1.0, gb) == 1.0
        # the flat factor's value is its curvature quadrature, not a literal
        monkeypatch.setattr(toric, "_kappa_integral", lambda p: 0.25 if p is flat else 2.0)
        assert toric.topo_invariants(s)["gauss_bonnet_factor2"] == 0.25

    def test_quarter_class_flagged(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.25)
        topo = toric.topo_invariants(s)
        assert topo["A_dot_A"] == pytest.approx(-2.0, abs=1e-10)
        assert topo["constraint_defect_selfintersection"] == pytest.approx(6.0, abs=1e-9)


class TestForwardMap:
    def test_round22_halved_class(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        _, rep = toric.p4d_forward(s)
        k1, k2 = s.factor1.kappa, s.factor2.kappa
        assert np.max(np.abs(np.log(k1[:, None] + k2))) == 0.0  # f = log(R/2)
        assert rep.max_residual() < 1e-13

    def test_ruled_surface_rank_degenerate_ricci(self):
        s = ProductSurface(SphereProfile.round(1.0, 64), SphereProfile.flat(1.0, 64), 0.0)
        _, rep = toric.p4d_forward(s)
        assert rep.max_residual() < 1e-13
        k1, k2 = s.factor1.kappa, s.factor2.kappa
        assert k1[len(k1) // 2] == pytest.approx(1.0) and k2[len(k2) // 2] == pytest.approx(0.0)

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
        # the conformally-balanced residual is the h^2-limited entry here
        sups = [toric.p4d_forward(quartic_surface(n))[1].residuals["transverse_lee_is_df"]
                for n in QUARTIC_GRIDS]
        assert second_order(sups), sups


QUARTIC_GRIDS = (64, 128, 256)


def quartic_surface(n):
    """Square of the c = 2 sphere with a 1e-3 quartic bump, a = 1/2: exact poles, smooth O(h^2) error."""
    zz = np.polynomial.Polynomial([0.0, 1.0])
    theta_q = (4.0 - zz**2) / 2.0 + 1e-3 * (4.0 - zz**2) ** 2
    p = SphereProfile(2.0, n, theta_q(-2.0 + (4.0 / n) * np.arange(n + 1)), "sphere")
    return ProductSurface(p, p, 0.5)


def second_order(values):
    """Observed orders above 1.8; no floor, as the h^2 truncation error is far above round-off."""
    return all(o == float("inf") or o > 1.8 for o in toric.observed_orders(values, [0.0] * len(values)))


def consistent_round(a=0.5, n=64):
    """round(2)^2: a = 1/2 is the consistent class, A.A = -8, c1^2 = 8, each factor integrates kappa to 2."""
    p = SphereProfile.round(2.0, n)
    return ProductSurface(p, p, a)


TOPOLOGY_EXACT = {"A_dot_A": -8.0, "c1_squared": 8.0, "constraint_defect_selfintersection": 0.0,
                  "gauss_bonnet_factor1": 2.0, "gauss_bonnet_factor2": 2.0}


def _class_datum_off_by_one_percent(monkeypatch):
    return consistent_round(a=0.505)


def _pole_half_weights_dropped(monkeypatch):
    monkeypatch.setattr(toric, "_kappa_integral",
                        lambda p: float(np.sum(p.kappa) * p.h))
    return consistent_round()


class TestDiagnosticsCanFail:
    """One targeted mutation per recorded PDE diagnostic lifts it past the bound its tests use."""

    @pytest.mark.parametrize("key, mutate", [
        ("A_dot_A", _class_datum_off_by_one_percent),
        ("constraint_defect_selfintersection", _class_datum_off_by_one_percent),
        ("c1_squared", _pole_half_weights_dropped),
        ("gauss_bonnet_factor1", _pole_half_weights_dropped),
        ("gauss_bonnet_factor2", _pole_half_weights_dropped),
    ])
    def test_topology(self, monkeypatch, key, mutate):
        topo = toric.topo_invariants(consistent_round())
        assert set(topo) == set(TOPOLOGY_EXACT)
        assert abs(topo[key] - TOPOLOGY_EXACT[key]) <= 1e-10
        assert abs(toric.topo_invariants(mutate(monkeypatch))[key] - TOPOLOGY_EXACT[key]) > 1e-10

    def test_forward_map_records_three_checks(self):
        assert list(toric.p4d_forward(quartic_surface(64))[1].residuals) == [
            "transverse_lee_is_df", "anomaly_cancellation", "principal_norm_identity"]

    def test_norm_identity_class_datum(self):
        # e^-2f (4 a^2 + 2 gamma1^2 + 2 gamma2^2) = 1 holds pointwise iff a^2 = kappa1 kappa2
        def norm_id(s):
            return toric.p4d_forward(s)[1].residuals["principal_norm_identity"]

        assert norm_id(consistent_round()) < 1e-13
        assert norm_id(consistent_round(a=0.505)) > 1e-13

    def test_lee_first_order_pole_stencil(self, monkeypatch):
        # f is constant on a round surface, so only the order on a bumped one shows the stencil
        monkeypatch.setattr(toric, "_pole_d1",
                            lambda u, h: ((u[1] - u[0]) / h, (u[-1] - u[-2]) / h))
        sups = [toric.p4d_forward(quartic_surface(n))[1].residuals["transverse_lee_is_df"]
                for n in QUARTIC_GRIDS]
        assert not second_order(sups), sups

    def test_anomaly_scaled_laplacian(self, monkeypatch):
        # e^f (Lap f + |grad f|^2) = Lap e^f = Lap R / 2, so anomaly_cancellation
        # is sup|E| through a second discretization: the two agree to O(h^2)
        surfaces = [quartic_surface(n) for n in QUARTIC_GRIDS]
        sups = [toric.pde_residual(s).sup for s in surfaces]

        def gaps():
            return [abs(toric.p4d_forward(s)[1].residuals["anomaly_cancellation"] - e)
                    for s, e in zip(surfaces, sups)]

        assert second_order(gaps()), gaps()
        flux_laplacian = toric.flux_laplacian
        monkeypatch.setattr(toric, "flux_laplacian", lambda p, theta, u: 1.01 * flux_laplacian(p, theta, u))
        assert not second_order(gaps()), gaps()


# ---------------------------------------------------------------------------
# whole-grid references: the residual and forward map as computed before
# they were built from factor data and row blocks
# ---------------------------------------------------------------------------


def whole_grid_residual(s):
    """E = (1/2) Lap R - 2 k1 k2 + 2 a^2 with 2-D stencils on the full grid, and R."""
    k1, k2 = s.factor1.kappa, s.factor2.kappa
    R = 2.0 * k1[:, None] + 2.0 * k2[None, :]
    lap = laplacian(s.factor1, R) + laplacian(s.factor2, R.T).T
    return 0.5 * lap - 2.0 * np.outer(k1, k2) + 2.0 * s.a**2, R


def whole_grid_norms(E, weights):
    """(sup, l2) of E with the full (n+1)^2 weight matrix."""
    sup = float(np.max(np.abs(E)))
    return sup, float(np.sqrt(np.sum(E**2 * np.outer(*weights))))


def whole_grid_forward(s):
    """Residuals and notes of the forward map, every check on the whole grid."""
    k1, k2 = s.factor1.kappa, s.factor2.kappa
    R = 2.0 * k1[:, None] + 2.0 * k2[None, :]
    rmin = float(np.min(R))
    if rmin <= 0:
        raise ValidationError(f"transverse scalar curvature must be positive (min {rmin:.6f})")
    f = np.log(R / 2.0)
    ef = R / 2.0
    a = s.a
    rep = Report("forward_map")
    res_lee = 0.0
    df = []
    for p, ef_p, f_p in ((s.factor1, ef, f), (s.factor2, ef.T, f.T)):
        # the second factor runs along axis 0 of the transposed grid
        lhs = toric._d1(p, ef_p)
        df.append(toric._d1(p, f_p))
        res_lee = max(res_lee, float(np.max(np.abs(lhs - ef_p * df[-1]))))
    rep.record("transverse_lee_is_df", res_lee)
    lap_f = laplacian(s.factor1, f) + laplacian(s.factor2, f.T).T
    df1, df2 = df[0], df[1].T
    grad2 = s.factor1.theta[:, None] * df1**2 + s.factor2.theta[None, :] * df2**2
    lhs_anomaly = ef * (lap_f + grad2)
    rhs_anomaly = -2.0 * a * a + 2.0 * np.outer(k1, k2)
    rep.record("anomaly_cancellation", float(np.max(np.abs(lhs_anomaly - rhs_anomaly))))
    gamma1 = 0.5 * ef - k1[:, None]
    gamma2 = 0.5 * ef - k2[None, :]
    norm_id = np.exp(-2 * f) * (4 * a * a + 2 * gamma1**2 + 2 * gamma2**2)
    rep.record("principal_norm_identity", float(np.max(np.abs(norm_id - 1.0))))
    h2 = max(s.factor1.h, s.factor2.h) ** 2
    rep.notes["C_estimate"] = repr(rep.max_residual() / h2)
    return rep.residuals, rep.notes


def layout_surface(layout, n, mode="odd", a=0.0, c=2.2, eps=0.01):
    """Sphere-sphere, sphere-flat or flat-sphere surface with a perturbed sphere."""
    sphere = SphereProfile.round_perturbed(c, n, eps, mode)
    flat = SphereProfile.flat(c, n)
    f1, f2 = {"sphere-sphere": (sphere, sphere), "sphere-flat": (sphere, flat),
              "flat-sphere": (flat, sphere)}[layout]
    return ProductSurface(f1, f2, a)


LAYOUTS = ["sphere-sphere", "sphere-flat", "flat-sphere"]


class TestRowBlocks:
    def test_blocks_cover_rows_with_at_least_three(self, monkeypatch):
        for block in (1, 7, 40, toric.BLOCK_VALUES):
            monkeypatch.setattr(toric, "BLOCK_VALUES", block)
            for rows in range(3, 40):
                for cols in (1, 5, 17, 4096):
                    blocks = toric._row_blocks(rows, cols)
                    assert blocks[0][0] == 0 and blocks[-1][1] == rows
                    assert all(b[1] == c[0] for b, c in zip(blocks, blocks[1:]))
                    assert all(i1 - i0 >= 3 for i0, i1 in blocks)
                    # at most BLOCK_VALUES values, or 3 rows if those are more,
                    # plus the at most 2 rows of a merged short last block
                    assert all((i1 - i0) * cols <= max(block, 3 * cols) + 2 * cols for i0, i1 in blocks)

    @pytest.mark.parametrize("kind", ["sphere", "flat-torus"])
    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_halo_blocks_reproduce_whole_grid_stencils(self, monkeypatch, n, kind):
        # the forward map's fields are constant along a flat factor, so a
        # wrong periodic halo would not show there; a random field does
        monkeypatch.setattr(toric, "BLOCK_VALUES", 1)
        p = SphereProfile.round_perturbed(2.0, n, 0.01) if kind == "sphere" else flat_profile(2.0, n, 1.7)
        u = np.random.default_rng(n).standard_normal((p.theta.size, 5))
        d1, lap = toric._d1(p, u), laplacian(p, u)
        for i0, i1 in toric._row_blocks(*u.shape):
            rows, keep = toric._halo_rows(p, i0, i1)
            assert np.array_equal(toric._d1(p, u[rows])[keep], d1[i0:i1])
            assert np.array_equal(toric.flux_laplacian(p, p.theta[rows, None], u[rows])[keep], lap[i0:i1])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [16, 17, 100, 255, 256, 512])
    def test_forward_map_equals_whole_grid(self, n, layout):
        for mode in ("odd", "even"):
            for a in (0.0, 1.0 / 2.2, 0.3):
                s = layout_surface(layout, n, mode, a)
                C, rep = toric.p4d_forward(s)
                residuals, notes = whole_grid_forward(s)
                assert rep.residuals == residuals and rep.notes == notes, (mode, a)
                assert C == rep.max_residual() / max(s.factor1.h, s.factor2.h) ** 2

    @pytest.mark.parametrize("block", [1, 40])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_forward_map_equals_whole_grid_in_small_blocks(self, monkeypatch, n, layout, block):
        # 3-row blocks leave every remainder of rows mod 3 on both factor
        # kinds, so short last blocks merge and halos meet the poles
        monkeypatch.setattr(toric, "BLOCK_VALUES", block)
        for a in (0.0, 0.3):
            s = layout_surface(layout, n, "even", a)
            assert toric.p4d_forward(s)[1].residuals == whole_grid_forward(s)[0]

    @pytest.mark.parametrize(
        "s",
        [
            ProductSurface(SphereProfile.round_perturbed(2.0, 64, 0.1, "even"), SphereProfile.round(2.0, 64)),
            ProductSurface(SphereProfile.flat(1.0, 32), SphereProfile.flat(1.0, 32)),
        ],
        ids=["saddle", "flat-flat"],
    )
    def test_positive_curvature_gate_message_unchanged(self, s):
        with pytest.raises(ValidationError) as want:
            whole_grid_forward(s)
        with pytest.raises(ValidationError) as got:
            toric.p4d_forward(s)
        assert str(got.value) == str(want.value)


class TestPositiveCurvatureGate:
    def test_factor_minima_equal_whole_grid_minimum(self):
        # rounding is monotone, so 2 min k1 + 2 min k2 is the least R on the
        # grid exactly, and the gate trips on the same surfaces
        rng = np.random.default_rng(2025)
        tripped = passed = 0
        for _ in range(1000):
            n = int(rng.integers(16, 40))
            c = float(rng.uniform(1.0, 3.0))
            try:
                p1 = SphereProfile.round_perturbed(c, n, float(rng.uniform(-0.15, 0.15)),
                                                   str(rng.choice(["odd", "even"])))
                p2 = (flat_profile(c, n, float(rng.uniform(0.5, 2.0))) if rng.random() < 0.3
                      else SphereProfile.round_perturbed(c, n, float(rng.uniform(-0.05, 0.05)), "even"))
            except ValidationError:  # a profile that turns nonpositive
                continue
            s = ProductSurface(p1, p2)
            k1, k2 = s.factor1.kappa, s.factor2.kappa
            assert 2.0 * k1.min() + 2.0 * k2.min() == np.min(2.0 * k1[:, None] + 2.0 * k2[None, :])
            try:
                want = whole_grid_forward(s)
            except ValidationError as exc:
                tripped += 1
                with pytest.raises(ValidationError) as got:
                    toric.p4d_forward(s)
                assert str(got.value) == str(exc)
                continue
            passed += 1
            assert toric.p4d_forward(s)[1].residuals == want[0]
        assert tripped >= 100 and passed >= 100, (tripped, passed)


class TestSeparableResidual:
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_within_roundoff_of_whole_grid(self, n):
        # the 2-D stencils difference R = 2 k1 + 2 k2 and divide by h^2
        # twice; E from factor data skips adding the constant k2[j] first
        eps = np.finfo(float).eps
        for c in (2.05, 2.25, 2.45):
            for mode in ("odd", "even"):
                s = layout_surface("sphere-sphere", n, mode, 1.0 / c, c=c)
                E_ref, R = whole_grid_residual(s)
                bound = 8.0 * eps * np.abs(R).max() / s.factor1.h**2
                assert np.abs(toric.pde_residual(s).E - E_ref).max() <= bound, (c, mode)

    @pytest.mark.parametrize("layout", ["sphere-flat", "flat-sphere"])
    @pytest.mark.parametrize("n", [16, 17, 256])
    def test_exact_on_sphere_flat(self, n, layout):
        # k = -0.0 and A = 0.0 on the flat factor: no rounding to differ
        for mode in ("odd", "even"):
            for a in (0.0, 0.3):
                s = layout_surface(layout, n, mode, a)
                field = toric.pde_residual(s)
                E_ref, _ = whole_grid_residual(s)
                assert np.array_equal(field.E, E_ref)
                assert np.array_equal(np.signbit(field.E), np.signbit(E_ref))
                assert (field.sup, field.l2) == whole_grid_norms(
                    E_ref, (s.factor1.weights(), s.factor2.weights()))

    @pytest.mark.parametrize("n", [16, 255, 256])
    def test_norms_of_a_given_field_unchanged(self, n):
        s = layout_surface("sphere-sphere", n, "odd", 0.3)
        field = toric.pde_residual(s)
        weights = (s.factor1.weights(), s.factor2.weights())
        assert (field.sup, field.l2) == whole_grid_norms(field.E, weights)

    def test_manufactured_error_matches_whole_grid(self):
        # the exact residual of the quartic bump, built on the full grid
        c, eps = 2.0, 1e-2
        _, kappa_pol, flux_pol = toric._poly_profile_fields(c, eps)
        for n in (64, 128):
            z = -c + (2.0 * c / n) * np.arange(n + 1)
            p = SphereProfile(c, n, (c * c - z * z) / c + eps * (c * c - z * z) ** 2, "sphere")
            E_h, R = whole_grid_residual(ProductSurface(p, p))
            kap = kappa_pol(z)
            E_exact = 0.5 * (flux_pol(z)[:, None] + flux_pol(z)[None, :]) - 2.0 * np.outer(kap, kap)
            ref = float(np.max(np.abs(E_h - E_exact)))
            got, _ = toric.manufactured_truncation_error(c, eps, n)
            assert abs(got - ref) <= 16.0 * np.finfo(float).eps * np.abs(R).max() / p.h**2


def peak_grids(fn, n):
    """tracemalloc peak of a warm call of fn, in units of one float64 (n+1) x (n+1) grid."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / ((n + 1) ** 2 * 8)
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_pde_residual_peak(self):
        # E and the one work array of the norms
        s = layout_surface("sphere-sphere", 256, "odd", 0.5, c=2.0)
        assert peak_grids(lambda: toric.pde_residual(s), 256) <= 3.1

    def test_forward_map_peak(self):
        # one row block of R, f, e^f and their temporaries, and no grid
        s = layout_surface("sphere-sphere", 256, "odd", 0.5, c=2.0)
        assert peak_grids(lambda: toric.p4d_forward(s), 256) <= 2.6

    def test_forward_map_peak_shrinks_with_n(self):
        # the block holds at most BLOCK_VALUES values, so at n=512 it is
        # a smaller share of a grid
        s = layout_surface("sphere-sphere", 512, "odd", 0.5, c=2.0)
        assert peak_grids(lambda: toric.p4d_forward(s), 512) <= 1.0
