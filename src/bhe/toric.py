"""Discretized axially symmetric product Kahler surfaces in momentum gauge.

Each factor carries the metric dz^2/Theta + Theta dt^2 on [-c, c] x S^1,
encoded by the momentum profile Theta > 0 with Theta(+-c) = 0 and
Theta'(-+c) = +-2 (smooth poles).  Gauss curvature is -Theta''/2, the area
is 4 pi c independently of Theta, and torus-invariant calculus reduces to
one-dimensional finite differences:

    Lap h = d/dz1 (Theta1 dh/dz1) + d/dz2 (Theta2 dh/dz2),
    (dd^c h) ^ omega = (Lap h) dV.

Invariant 2-forms are pairs (P, Q) of grid functions against the factor
area forms omega_1, omega_2; then (P,Q) ^ (P',Q') = (P Q' + Q P') dV, the
Hodge star swaps the pair, and the full double-sum norm is
|P omega_1 + Q omega_2|^2 = 2 P^2 + 2 Q^2 in the product metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frame_geometry import ValidationError
from .report import Report

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereProfile:
    """Momentum profile of one axially symmetric factor."""

    c: float
    n: int
    theta: np.ndarray
    kind: str = "sphere"  # "sphere" | "flat-torus"

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        # written as not (x > 0) so that NaN fails the test
        if not (0.0 < self.c < math.inf) or self.n < 4:
            raise ValidationError("profile needs finite c > 0 and at least 4 intervals")
        if not np.all(np.isfinite(theta)):
            raise ValidationError("profile values must be finite")
        if self.kind == "sphere":
            if theta.shape != (self.n + 1,):
                raise ValidationError("sphere profile stores n+1 nodes")
            scale = max(1.0, float(np.max(np.abs(theta))))
            if abs(theta[0]) > 1e-12 * scale or abs(theta[-1]) > 1e-12 * scale:
                raise ValidationError("sphere profile must vanish at the poles")
            if not np.all(theta[1:-1] > 0):
                raise ValidationError("profile must be positive at interior nodes")
            h = self.h
            dl = (-3 * theta[0] + 4 * theta[1] - theta[2]) / (2 * h)
            dr = (3 * theta[-1] - 4 * theta[-2] + theta[-3]) / (2 * h)
            tol = 50.0 * h * h
            if abs(dl - 2.0) > tol or abs(dr + 2.0) > tol:
                raise ValidationError(
                    f"pole smoothness violated: Theta'(-c)={dl:.6f}, Theta'(c)={dr:.6f}"
                )
        elif self.kind == "flat-torus":
            if theta.shape != (self.n,):
                raise ValidationError("flat profile stores n periodic nodes")
            if not np.all(theta > 0):
                raise ValidationError("profile must be positive")
            if np.max(np.abs(theta - theta[0])) > 0:
                raise ValidationError("flat factor requires constant Theta")
        else:
            raise ValidationError(f"unknown factor kind {self.kind!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.c / self.n

    @property
    def z(self) -> np.ndarray:
        if self.kind == "sphere":
            return -self.c + self.h * np.arange(self.n + 1)
        return -self.c + self.h * np.arange(self.n)

    @property
    def area(self) -> float:
        return 2.0 * TWO_PI * self.c  # 4 pi c, independent of Theta

    def weights(self) -> np.ndarray:
        """Quadrature weights in dz (trapezoid / periodic uniform)."""
        if self.kind == "sphere":
            w = np.full(self.n + 1, self.h)
            w[0] = w[-1] = 0.5 * self.h
            return w
        return np.full(self.n, self.h)

    @staticmethod
    def round(c: float, n: int) -> "SphereProfile":
        """Constant-curvature profile Theta = (c^2 - z^2)/c, kappa = 1/c."""
        _check_profile_scale(c)
        z = -c + (2.0 * c / n) * np.arange(n + 1)
        return SphereProfile(c, n, (c * c - z * z) / c, "sphere")

    @staticmethod
    def flat(c: float, n: int, value: float = 1.0) -> "SphereProfile":
        return SphereProfile(c, n, np.full(n, float(value)), "flat-torus")

    @staticmethod
    def round_perturbed(c: float, n: int, eps: float, mode: str = "odd") -> "SphereProfile":
        """Round profile plus eps (c^2 - z^2)^2 * w(z); pole conditions survive."""
        _check_profile_scale(c, eps)
        z = -c + (2.0 * c / n) * np.arange(n + 1)
        bump = (c * c - z * z) ** 2
        w = np.sin(z) if mode == "odd" else np.cos(z)
        return SphereProfile(c, n, (c * c - z * z) / c + eps * bump * w, "sphere")


def _check_profile_scale(c: float, eps: float | None = None) -> None:
    """Reject a half-length whose profile formula overflows, before numpy warns about it.

    The round profile forms c^2, the quartic bump also eps (c^2)^2.  The
    test multiplies Python floats, which overflow to inf silently.
    """
    c2 = float(c) * float(c)
    top = c2 if eps is None else c2 * c2 * max(1.0, abs(float(eps)))
    if top == math.inf:
        raise ValidationError(f"half-length c = {c!r} is too large: the profile formula overflows")


def _d1(p: SphereProfile, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """Second-order first derivative along the profile grid."""
    if axis:
        u = np.moveaxis(u, axis, 0)
    h = p.h
    if p.kind == "flat-torus":
        out = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
    else:
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2 * h)
        out[0], out[-1] = _pole_d1(u, h)
    return np.moveaxis(out, 0, axis) if axis else out


def _pole_d1(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided second-order first derivative at rows 0 and -1 of u."""
    return (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h), (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)


def _d2(p: SphereProfile, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """Second-order second derivative along the profile grid."""
    if axis:
        u = np.moveaxis(u, axis, 0)
    h2 = p.h * p.h
    if p.kind == "flat-torus":
        out = (np.roll(u, -1, axis=0) - 2 * u + np.roll(u, 1, axis=0)) / h2
    else:
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h2
        # one-sided stencil with the same h^2 error coefficient as the
        # central one, so the error field stays smooth across the boundary
        out[0] = (3 * u[0] - 9 * u[1] + 10 * u[2] - 5 * u[3] + u[4]) / h2
        out[-1] = (3 * u[-1] - 9 * u[-2] + 10 * u[-3] - 5 * u[-4] + u[-5]) / h2
    return np.moveaxis(out, 0, axis) if axis else out


def gauss_curvature(p: SphereProfile) -> np.ndarray:
    """kappa = -Theta''/2 by central differences, one-sided at the poles."""
    return -0.5 * _d2(p, p.theta)


def laplacian_1d(p: SphereProfile, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """(Theta u')' in conservative form; pole rows use Theta'(pole) u'(pole)."""
    u_m = np.moveaxis(u, axis, 0)
    th = p.theta
    h = p.h
    if p.kind == "flat-torus":
        flux = th[0] * (np.roll(u_m, -1, axis=0) - u_m) / h
        out = (flux - np.roll(flux, 1, axis=0)) / h
        return np.moveaxis(out, 0, axis)
    th_b = th.reshape((-1,) + (1,) * (u_m.ndim - 1))
    return np.moveaxis(sphere_flux_laplacian(p, th_b, u_m), 0, axis)


def sphere_flux_laplacian(p: SphereProfile, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(theta u')' along axis 0 on the sphere grid of p, for any node values theta.

    theta broadcasts against u, so one call can apply the stencil of many
    profiles at once (one profile per column).  Pole rows use
    theta'(pole) u'(pole).
    """
    h = p.h
    half = 0.5 * (theta[1:] + theta[:-1])
    flux = half * (u[1:] - u[:-1]) / h
    out = np.empty_like(u)
    out[1:-1] = (flux[1:] - flux[:-1]) / h
    dth0, dth1 = _pole_d1(theta, h)
    du0, du1 = _pole_d1(u, h)
    out[0] = dth0 * du0
    out[-1] = dth1 * du1
    return out


# ---------------------------------------------------------------------------
# product surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductSurface:
    """Product of two axially symmetric factors with class datum alpha = a (w1 - w2)."""

    factor1: SphereProfile
    factor2: SphereProfile
    a: float = 0.0

    def __post_init__(self):
        # pde_residual adds 2 a^2 to E and its l2 norm squares E.  Python
        # float products overflow to inf without raising or warning, and
        # not (x < inf) fails NaN too.
        a2 = 2.0 * float(self.a) * float(self.a)
        if not a2 * a2 < math.inf:
            raise ValidationError(f"class datum a = {self.a!r} must be finite with (2 a^2)^2 finite")
        if self.a != 0.0 and abs(self.factor1.area - self.factor2.area) > 1e-12:
            raise ValidationError(
                "class constraint Omega . A != 0: the anti-diagonal class needs equal "
                f"factor areas (got {self.factor1.area:.6f}, {self.factor2.area:.6f})"
            )

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        return self.factor1.z, self.factor2.z


def ricci_form_coeffs(s: ProductSurface) -> tuple[np.ndarray, np.ndarray]:
    """rho = kappa1 omega_1 + kappa2 omega_2 in the product ansatz."""
    return gauss_curvature(s.factor1), gauss_curvature(s.factor2)


def invariant_laplacian(s: ProductSurface, h: np.ndarray) -> np.ndarray:
    """Lap h = (Theta1 h_z1)_z1 + (Theta2 h_z2)_z2 on the tensor grid."""
    return laplacian_1d(s.factor1, h, axis=0) + laplacian_1d(s.factor2, h, axis=1)


@dataclass(frozen=True)
class PdeResidualField:
    """Grid values of the scalar residual with its norms."""

    E: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    sup: float = field(init=False)
    l2: float = field(init=False)
    weights: np.ndarray | None = None

    def __post_init__(self):
        sup = float(np.max(np.abs(self.E)))
        w = self.weights
        l2 = float(np.sqrt(np.sum(self.E**2 * w))) if w is not None else float(
            np.sqrt(np.mean(self.E**2))
        )
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "l2", l2)


def pde_residual(s: ProductSurface) -> PdeResidualField:
    """E = (1/2) Lap R - 2 kappa1 kappa2 + 2 a^2.

    The fourth-order scalar equation balancing the square of the Ricci form
    against the square of the harmonic anti-self-dual representative; round
    profiles with a^2 = kappa1 kappa2 satisfy it exactly.
    """
    k1, k2 = ricci_form_coeffs(s)
    R = 2.0 * k1[:, None] + 2.0 * k2[None, :]
    E = 0.5 * invariant_laplacian(s, R) - 2.0 * np.outer(k1, k2) + 2.0 * s.a**2
    w = np.outer(s.factor1.weights(), s.factor2.weights())
    return PdeResidualField(E, s.factor1.z, s.factor2.z, weights=w)


# ---------------------------------------------------------------------------
# harmonic anti-self-dual representative and class data
# ---------------------------------------------------------------------------


def harmonic_asd(s: ProductSurface) -> Report:
    """alpha = a (omega_1 - omega_2): closed, primitive, anti-self-dual.

    The factor area forms are parallel for the product metric, so this IS
    the harmonic representative of its class; the checks below are exact
    coefficient identities, recorded as residuals for uniformity.
    """
    a = s.a
    rep = Report("harmonic_asd")
    rep.record("closed", 0.0, note="constant coefficients against parallel area forms")
    rep.record("primitive_trace", (2.0 * a) - (2.0 * a))
    # star swaps the pair: *(P, Q) = (Q, P), so *(a, -a) = -(a, -a)
    rep.record("anti_self_dual", abs((-a) - (-a)))
    rep.record("norm2_minus_4a2", abs(2 * a * a + 2 * a * a - 4 * a * a),
               note=f"|alpha|^2 = {4 * a * a!r}")
    return rep


def _kappa_integral(p: SphereProfile) -> float:
    return float(np.sum(gauss_curvature(p) * p.weights()))


def topo_invariants(s: ProductSurface) -> dict:
    """Quadrature values of the intersection data (Omega.A, A.A, c1^2)."""
    a = s.a
    ar1, ar2 = s.factor1.area, s.factor2.area
    # omega ^ alpha has pointwise coefficient 1*(-a) + 1*(+a) = 0
    omega_dot_a = 0.0
    a_dot_a = (-2.0 * a * a) * ar1 * ar2 / (TWO_PI**2)
    k1 = _kappa_integral(s.factor1)
    k2 = _kappa_integral(s.factor2)
    c1_sq = 2.0 * k1 * k2
    out = {
        "Omega_dot_A": omega_dot_a,
        "A_dot_A": a_dot_a,
        "c1_squared": c1_sq,
        "constraint_defect_orthogonality": abs(omega_dot_a),
        "constraint_defect_selfintersection": abs(a_dot_a + c1_sq),
        "gauss_bonnet_factor1": k1 if s.factor1.kind == "sphere" else 0.0,
        "gauss_bonnet_factor2": k2 if s.factor2.kind == "sphere" else 0.0,
    }
    return out


# ---------------------------------------------------------------------------
# forward map to reduced transverse data
# ---------------------------------------------------------------------------


def p4d_forward(s: ProductSurface) -> tuple[dict, Report]:
    """Reduced data (g^T, F_V, F_JV, f) sampled on the grid, with checks.

    g^T = (R/2) g_K, F_V = alpha, F_JV = -rho, f = log(R/2); requires R > 0
    everywhere.  Residuals are reported together with their ratio to h^2.
    """
    k1, k2 = ricci_form_coeffs(s)
    R = 2.0 * k1[:, None] + 2.0 * k2[None, :]
    rmin = float(np.min(R))
    if rmin <= 0:
        raise ValidationError(f"transverse scalar curvature must be positive (min {rmin:.6f})")
    f = np.log(R / 2.0)
    ef = R / 2.0
    a = s.a

    rep = Report("forward_map")
    # conformally balanced: d(e^f) = e^f df along both factors
    res_lee = 0.0
    df = []  # df along each factor, reused by the anomaly check below
    for axis, p in ((0, s.factor1), (1, s.factor2)):
        lhs = _d1(p, ef, axis=axis)
        df.append(_d1(p, f, axis=axis))
        rhs = ef * df[-1]
        res_lee = max(res_lee, float(np.max(np.abs(lhs - rhs))))
    rep.record("transverse_lee_is_df", res_lee)
    rep.record("principal_trace_V", 0.0, note="exact: alpha is primitive in the ansatz")
    rep.record("principal_trace_JV", float(np.max(np.abs(2.0 - np.exp(-f) * R))))

    lap_f = invariant_laplacian(s, f)
    df1, df2 = df
    th1 = s.factor1.theta[:, None]
    th2 = s.factor2.theta[None, :]
    grad2 = th1 * df1**2 + th2 * df2**2
    lhs_anomaly = ef * (lap_f + grad2)
    rhs_anomaly = -2.0 * a * a + 2.0 * np.outer(k1, k2)
    rep.record("anomaly_cancellation", float(np.max(np.abs(lhs_anomaly - rhs_anomaly))))

    gamma1 = 0.5 * ef - k1[:, None]
    gamma2 = 0.5 * ef - k2[None, :]
    norm_id = np.exp(-2 * f) * (4 * a * a + 2 * gamma1**2 + 2 * gamma2**2)
    rep.record("principal_norm_identity", float(np.max(np.abs(norm_id - 1.0))))

    h2 = max(s.factor1.h, s.factor2.h) ** 2
    fields = {
        "R": R,
        "f": f,
        "conformal_factor": ef,
        "F_V_coeffs": (a, -a),
        "F_JV_coeffs": (-k1, -k2),
        "ricci_eigenvalue_samples": (float(k1[len(k1) // 2]), float(k2[len(k2) // 2])),
        "h_squared": h2,
        "C_estimate": rep.max_residual() / h2,
    }
    rep.notes["C_estimate"] = repr(fields["C_estimate"])
    return fields, rep


# ---------------------------------------------------------------------------
# convergence measurement
# ---------------------------------------------------------------------------


def observed_orders(values: list[float], floor: float = 1e-11) -> list[float]:
    """log2 ratios of successive residuals; inf where both sit at the floor."""
    orders = []
    for a, b in zip(values, values[1:]):
        if abs(a) <= floor and abs(b) <= floor:
            orders.append(float("inf"))
        elif b == 0.0:
            orders.append(float("inf"))
        else:
            orders.append(math.log2(abs(a) / abs(b)))
    return orders


def _poly_profile_fields(c: float, eps: float) -> tuple[np.polynomial.Polynomial, ...]:
    """Exact polynomial Theta, kappa and flux derivative for the quartic bump."""
    P = np.polynomial.Polynomial
    z = P([0.0, 1.0])
    theta = (c * c - z * z) / c + eps * (c * c - z * z) ** 2
    kappa = -0.5 * theta.deriv(2)
    flux_div = (theta * (2.0 * kappa).deriv()).deriv()  # d/dz (Theta dR_1/dz)
    return theta, kappa, flux_div


def manufactured_truncation_error(c: float, eps: float, n: int, a: float = 0.0) -> float:
    """Sup-norm discretization error of the residual on a quartic-bump surface.

    The bump keeps the pole conditions exact while making Theta quartic, so
    differences pick up genuine O(h^2) truncation measured against the
    polynomial-exact residual.
    """
    _check_profile_scale(c, eps)
    z = -c + (2.0 * c / n) * np.arange(n + 1)
    _, kappa_pol, flux_pol = _poly_profile_fields(c, eps)
    p1 = SphereProfile(c, n, (c * c - z * z) / c + eps * (c * c - z * z) ** 2, "sphere")
    s = ProductSurface(p1, p1, a)
    E_h = pde_residual(s).E
    kap = kappa_pol(z)
    lapR = flux_pol(z)[:, None] + flux_pol(z)[None, :]
    E_exact = 0.5 * lapR - 2.0 * np.outer(kap, kap) + 2.0 * a * a
    return float(np.max(np.abs(E_h - E_exact)))
