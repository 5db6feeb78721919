"""Discretized axially symmetric product Kahler surfaces in momentum gauge.

Each factor carries the metric dz^2/Theta + Theta dt^2 on [-c, c] x S^1,
encoded by the momentum profile Theta > 0 with Theta(+-c) = 0 and
Theta'(-+c) = +-2 (smooth poles).  Gauss curvature is -Theta''/2, the area
is 4 pi c independently of Theta, and torus-invariant calculus reduces to
one-dimensional finite differences:

    Lap h = d/dz1 (Theta1 dh/dz1) + d/dz2 (Theta2 dh/dz2),
    (dd^c h) ^ omega = (Lap h) dV.

Each factor has two grid operators, the first difference _d1 and the
conservative flux Laplacian flux_laplacian, (Theta u')'.  Both act along
axis 0 for either factor kind; along the second factor of a product grid
they act on the transposed array.

Invariant 2-forms are pairs (P, Q) of grid functions against the factor
area forms omega_1, omega_2; then (P,Q) ^ (P',Q') = (P Q' + Q P') dV, the
Hodge star swaps the pair, and the full double-sum norm is
|P omega_1 + Q omega_2|^2 = 2 P^2 + 2 Q^2 in the product metric.

A profile caches its curvature SphereProfile.kappa, which every consumer
reads.  Every field on the product grid is built from one-dimensional
factor data or in row blocks.  The scalar residual separates exactly,

    E[i, j] = A1[i] + A2[j] - 2 k1[i] k2[j] + 2 a^2,   A_f = L_f(k_f),

so it is one outer product and two broadcast adds, and its two norms share
one work array.  The forward map checks its identities over row blocks of
at most BLOCK_VALUES grid values, with one halo row on each side for the
differences along the first factor, and builds R, f and e^f block by
block, so it holds only one block: it returns its report and C estimate,
no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frame_geometry import ValidationError
from .report import Report

TWO_PI = 2.0 * math.pi
BLOCK_VALUES = 1 << 13  # grid values per row block (forward map, residual.csv)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereProfile:
    """Momentum profile of one axially symmetric factor; theta is a read-only copy, so kappa stays valid."""

    c: float
    n: int
    theta: np.ndarray
    kind: str = "sphere"  # "sphere" | "flat-torus"

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        theta.flags.writeable = False
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
            dl, dr = _pole_d1(theta, h)
            tol = 50.0 * h * h
            if abs(dl - 2.0) > tol or abs(dr + 2.0) > tol:
                raise ValidationError(
                    f"pole smoothness violated: |Theta'(-c) - 2| = {abs(dl - 2.0):.3e} and "
                    f"|Theta'(c) + 2| = {abs(dr + 2.0):.3e} must be at most 50 h^2 = {tol:.3e}"
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
        z = _nodes(self.c, self.n)
        return z if self.kind == "sphere" else z[:-1]

    @cached_property
    def kappa(self) -> np.ndarray:
        """Gauss curvature -Theta''/2, one-sided at the poles, +0.0 where Theta'' is 0; cached, read-only."""
        k = -0.5 * _d2(self, self.theta) + 0.0
        k.flags.writeable = False
        return k

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
        z = _nodes(c, n)
        return SphereProfile(c, n, (c * c - z * z) / c, "sphere")

    @staticmethod
    def flat(c: float, n: int) -> "SphereProfile":
        return SphereProfile(c, n, np.ones(n), "flat-torus")

    @staticmethod
    def quartic_bump(c: float, n: int, eps: float) -> "SphereProfile":
        """Round profile plus eps (c^2 - z^2)^2: Theta is a quartic and the pole conditions are exact."""
        _check_profile_scale(c, eps)
        z = _nodes(c, n)
        return SphereProfile(c, n, (c * c - z * z) / c + eps * (c * c - z * z) ** 2, "sphere")

    @staticmethod
    def round_perturbed(c: float, n: int, eps: float, mode: str = "odd") -> "SphereProfile":
        """Round profile plus eps (c^2 - z^2)^2 * w(z); pole conditions survive."""
        _check_profile_scale(c, eps)
        z = _nodes(c, n)
        bump = (c * c - z * z) ** 2
        w = np.sin(z) if mode == "odd" else np.cos(z)
        return SphereProfile(c, n, (c * c - z * z) / c + eps * bump * w, "sphere")


def _nodes(c: float, n: int) -> np.ndarray:
    """The n + 1 nodes -c + h i of a sphere grid, h = 2c/n; a flat grid is the first n."""
    return -c + (2.0 * c / n) * np.arange(n + 1)


def _check_profile_scale(c: float, eps: float | None = None) -> None:
    """Reject a half-length whose profile formula overflows, before numpy warns about it.

    The round profile forms c^2, the quartic bump also eps (c^2)^2.  The
    test multiplies Python floats, which overflow to inf silently.
    """
    c2 = float(c) * float(c)
    top = c2 if eps is None else c2 * c2 * max(1.0, abs(float(eps)))
    if top == math.inf:
        raise ValidationError(f"half-length c = {c!r} is too large: the profile formula overflows")


def _d1(p: SphereProfile, u: np.ndarray) -> np.ndarray:
    """Second-order first derivative along axis 0 of the profile grid."""
    h = p.h
    if p.kind == "flat-torus":
        return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2 * h)
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    out[0], out[-1] = _pole_d1(u, h)
    return out


def _pole_d1(u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided second-order first derivative at rows 0 and -1 of u."""
    return (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h), (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)


def _d2(p: SphereProfile, u: np.ndarray) -> np.ndarray:
    """Second-order second derivative along axis 0 of the profile grid."""
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
    return out


def flux_laplacian(p: SphereProfile, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(theta u')' in conservative form along axis 0 of u, on the grid of p.

    theta holds node values on the rows of u and broadcasts against it, so
    one call can apply the stencil of many profiles at once (one profile
    per column).  A flat factor's grid is periodic and its constant theta
    multiplies each flux; a sphere factor's fluxes take theta at the half
    points, and its pole rows use theta'(pole) u'(pole).
    """
    h = p.h
    if p.kind == "flat-torus":
        flux = theta * (np.roll(u, -1, axis=0) - u) / h
        return (flux - np.roll(flux, 1, axis=0)) / h
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
                f"the class datum a = {self.a!r} != 0 needs equal factor areas "
                f"(got {self.factor1.area:.6f}, {self.factor2.area:.6f})"
            )
        # topo_invariants scales the area product by 2 a^2; with a = 0 an
        # infinite area product would still give 0 * inf = nan
        ar1, ar2 = self.factor1.area, self.factor2.area
        a_dot_a = _self_intersection(self.a, ar1, ar2)
        if not (ar1 * ar2 < math.inf and abs(a_dot_a) < math.inf):
            raise ValidationError(
                "intersection numbers overflow: A.A = -2 a^2 area1 area2 / (2 pi)^2 is not finite "
                f"for class datum a = {self.a!r} and factor areas {ar1!r}, {ar2!r}"
            )


def _separable_residual(A1: np.ndarray, A2: np.ndarray, k1: np.ndarray, k2: np.ndarray,
                        a: float) -> np.ndarray:
    """E[i, j] = A1[i] + A2[j] - 2 k1[i] k2[j] + 2 a^2: one outer product, two adds."""
    E = np.multiply.outer(-2.0 * k1, k2)
    E += A1[:, None]
    E += A2 + 2.0 * a * a
    return E


def _residual_grid(s: ProductSurface) -> np.ndarray:
    """The residual field E of s from its factor data.

    The Ricci form is rho = k1 omega_1 + k2 omega_2 with k_f the factor's
    kappa.  (1/2) Lap R with R = 2 k1 (x) 1 + 1 (x) 2 k2 is
    L1(k1) (x) 1 + 1 (x) L2(k2), because each factor's operator annihilates
    the constants, so E needs only A_f = L_f(k_f) on each factor.  This is
    the only code that builds E.
    """
    p1, p2 = s.factor1, s.factor2
    A1 = flux_laplacian(p1, p1.theta, p1.kappa)
    A2 = flux_laplacian(p2, p2.theta, p2.kappa)
    return _separable_residual(A1, A2, p1.kappa, p2.kappa, s.a)


@dataclass(frozen=True)
class PdeResidualField:
    """Grid values of the scalar residual with its sup and quadrature l2 norms."""

    E: np.ndarray
    sup: float
    l2: float


def pde_residual(s: ProductSurface) -> PdeResidualField:
    """E = (1/2) Lap R - 2 kappa1 kappa2 + 2 a^2, with its sup and quadrature l2 norms.

    The fourth-order scalar equation balancing the square of the Ricci form
    against the square of the harmonic anti-self-dual representative; round
    profiles with a^2 = kappa1 kappa2 satisfy it exactly.  E is built from
    factor data (see _residual_grid).  The l2 norm is taken against the
    outer product of the factor quadrature weights; both norms go through
    one work array the size of E, and the outer product of the weights is
    formed one block of rows at a time.
    """
    E = _residual_grid(s)
    work = np.abs(E)
    sup = float(work.max())
    np.multiply(E, E, out=work)
    w1, w2 = s.factor1.weights(), s.factor2.weights()
    for i0, i1 in _row_blocks(*E.shape):
        work[i0:i1] *= np.outer(w1[i0:i1], w2)
    return PdeResidualField(E, sup, float(np.sqrt(np.sum(work))))


def _row_blocks(rows: int, cols: int) -> list[tuple[int, int]]:
    """Row ranges [i0, i1) covering a rows x cols grid in blocks of whole rows, up to BLOCK_VALUES values.

    No block has fewer than 3 rows, so that a sphere factor's one-sided
    pole stencils fit inside a block with its halo; a short last block is
    merged into the one before it, which then holds up to 2 rows more.
    """
    step = max(3, BLOCK_VALUES // cols)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [rows]))


# ---------------------------------------------------------------------------
# class data
# ---------------------------------------------------------------------------


def _kappa_integral(p: SphereProfile) -> float:
    return float(np.sum(p.kappa * p.weights()))


def _self_intersection(a: float, area1: float, area2: float) -> float:
    """A.A of alpha = a (omega_1 - omega_2) on factors of the given areas; +0.0 at a = 0."""
    return (-2.0 * a * a) * area1 * area2 / (TWO_PI**2) + 0.0


def topo_invariants(s: ProductSurface) -> dict:
    """Quadrature values of the intersection data (A.A, c1^2) and Gauss-Bonnet integrals.

    ProductSurface refuses a surface for which these overflow.
    """
    a_dot_a = _self_intersection(s.a, s.factor1.area, s.factor2.area)
    k1 = _kappa_integral(s.factor1)
    k2 = _kappa_integral(s.factor2)
    c1_sq = 2.0 * k1 * k2
    return {
        "A_dot_A": a_dot_a,
        "c1_squared": c1_sq,
        "constraint_defect_selfintersection": abs(a_dot_a + c1_sq),
        "gauss_bonnet_factor1": k1,
        "gauss_bonnet_factor2": k2,
    }


# ---------------------------------------------------------------------------
# forward map to reduced transverse data
# ---------------------------------------------------------------------------


def _halo_rows(p: SphereProfile, i0: int, i1: int) -> tuple[slice | np.ndarray, slice]:
    """Grid rows i0..i1 of p with one halo row on each side, and the slice that drops the halo.

    A flat factor is periodic, so its halo wraps around.  A sphere factor's
    ends are poles: there the block has no halo row and keeps the grid's
    own one-sided stencils, which need at least 3 rows (see _row_blocks).
    """
    if p.kind == "flat-torus":
        return np.arange(i0 - 1, i1 + 1) % p.n, slice(1, -1)
    lo, hi = max(i0 - 1, 0), min(i1 + 1, p.n + 1)
    return slice(lo, hi), slice(i0 - lo, i1 - lo)


def p4d_forward(s: ProductSurface) -> tuple[float, Report]:
    """Checks of the reduced data (g^T, F_V, F_JV, f) on the grid, and their C estimate.

    g^T = (R/2) g_K, F_V = alpha, F_JV = -rho, f = log(R/2); requires R > 0
    everywhere.  Returns max residual / h^2 (also noted in the report as
    C_estimate) and the report.  Only identities that the differences can
    break are recorded: alpha is primitive and tr F_JV = -R e^-f = -2 by
    construction.

    The forward map holds one row block at a time: e^f = R/2 and f are built
    for each block of _row_blocks straight from the factors' kappa, with
    its halo rows (_halo_rows) for the differences along the first factor,
    so every grid value gets the same stencil and arithmetic as on the
    whole grid and each recorded maximum is exactly the whole-grid one.
    The R > 0 gate reads the factor minima: rounding is monotone, so
    2 min k1 + 2 min k2 is exactly the least R on the grid.
    """
    k1, k2 = s.factor1.kappa, s.factor2.kappa
    rmin = float(2.0 * k1.min() + 2.0 * k2.min())
    if rmin <= 0:
        raise ValidationError(f"transverse scalar curvature must be positive (min {rmin:.6f})")
    a = s.a
    p1, p2 = s.factor1, s.factor2
    th2 = p2.theta[None, :]

    # running maxima of: lee along factor 1 and factor 2 (conformally
    # balanced, d(e^f) = e^f df), anomaly cancellation, norm identity
    worst = np.zeros(4)
    for i0, i1 in _row_blocks(k1.size, k2.size):
        rows, keep = _halo_rows(p1, i0, i1)
        ef_h = (2.0 * k1[rows, None] + 2.0 * k2) / 2.0
        f_h = np.log(ef_h)
        fb, efb = f_h[keep], ef_h[keep]
        df1 = _d1(p1, f_h)[keep]
        df2 = _d1(p2, fb.T).T
        lee1 = np.abs(_d1(p1, ef_h)[keep] - efb * df1).max()
        lee2 = np.abs(_d1(p2, efb.T).T - efb * df2).max()

        lap_f = flux_laplacian(p1, p1.theta[rows, None], f_h)[keep]
        lap_f += flux_laplacian(p2, p2.theta[:, None], fb.T).T
        grad2 = p1.theta[i0:i1, None] * df1**2 + th2 * df2**2
        rhs_anomaly = -2.0 * a * a + 2.0 * np.outer(k1[i0:i1], k2)
        anomaly = np.abs(efb * (lap_f + grad2) - rhs_anomaly).max()

        gamma1 = 0.5 * efb - k1[i0:i1, None]
        gamma2 = 0.5 * efb - k2[None, :]
        norm_id = np.exp(-2 * fb) * (4 * a * a + 2 * gamma1**2 + 2 * gamma2**2)
        np.maximum(worst, (lee1, lee2, anomaly, np.abs(norm_id - 1.0).max()), out=worst)

    rep = Report("forward_map")
    rep.record("transverse_lee_is_df", float(worst[:2].max()))
    rep.record("anomaly_cancellation", float(worst[2]))
    rep.record("principal_norm_identity", float(worst[3]))

    C = rep.max_residual() / max(p1.h, p2.h) ** 2
    rep.notes["C_estimate"] = repr(C)
    return C, rep


# ---------------------------------------------------------------------------
# convergence measurement
# ---------------------------------------------------------------------------


ROUNDOFF_UNITS = 2.0**8  # K of roundoff_floor


def roundoff_floor(p: SphereProfile, operators: int) -> float:
    """K u (max|Theta| / h^2)^m: round-off floor of a value built by m second-difference operators.

    u = eps/2 is the unit round-off.  kappa = -Theta''/2 applies one
    operator to Theta (m = 1); the residual E and its truncation error
    apply L to kappa, a second one (m = 2).  Each operator divides by h^2
    and multiplies by at most about max|Theta|, so the floor has the units
    of the value.  For c in [0.2, 200] and n <= 256 the round-off of an
    exact round surface stays below 19 of these units in E and 35 in
    kappa, while for c in [2.05, 2.45] the manufactured truncation error
    stays above 2800; K = 2^8 sits near the geometric middle.  The
    constant Theta of a flat factor has differences that are exactly 0,
    so its floor is 0.
    """
    if p.kind == "flat-torus":
        return 0.0
    u = 0.5 * np.finfo(float).eps
    return ROUNDOFF_UNITS * u * (float(np.abs(p.theta).max()) / p.h**2) ** operators


def observed_orders(values: list[float], floors: list[float]) -> list[float]:
    """log2 ratios of successive values, one floor per value; inf where the finer value is at its floor.

    A value at or below its round-off floor (exactly 0 included) holds no
    truncation error to measure, so a pair that ends there has no order.
    """
    return [
        float("inf") if abs(b) <= fb else math.log2(abs(a) / abs(b))
        for a, b, fb in zip(values, values[1:], floors[1:])
    ]


def _poly_profile_fields(c: float, eps: float) -> tuple[np.polynomial.Polynomial, ...]:
    """Exact polynomial Theta, kappa and flux derivative for the quartic bump."""
    P = np.polynomial.Polynomial
    z = P([0.0, 1.0])
    theta = (c * c - z * z) / c + eps * (c * c - z * z) ** 2
    kappa = -0.5 * theta.deriv(2)
    flux_div = (theta * (2.0 * kappa).deriv()).deriv()  # d/dz (Theta dR_1/dz)
    return theta, kappa, flux_div


def manufactured_truncation_error(c: float, eps: float, n: int) -> tuple[float, float]:
    """Sup-norm discretization error of the residual on a quartic-bump surface, and its round-off floor.

    The bump keeps the pole conditions exact while making Theta quartic, so
    differences pick up genuine O(h^2) truncation measured against the
    polynomial-exact residual.  The floor is roundoff_floor(bump, 2) of the
    same bump profile.
    """
    p1 = SphereProfile.quartic_bump(c, n, eps)
    z = p1.z
    _, kappa_pol, flux_pol = _poly_profile_fields(c, eps)
    E_h = _residual_grid(ProductSurface(p1, p1))
    kap = kappa_pol(z)
    A = 0.5 * flux_pol(z)  # L(kappa) = (1/2) d/dz (Theta dR_1/dz)
    E_h -= _separable_residual(A, A, kap, kap, 0.0)
    return float(np.abs(E_h, out=E_h).max()), roundoff_floor(p1, 2)
