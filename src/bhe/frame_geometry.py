"""Invariant Hermitian geometry on Lie-algebra frames.

Everything is computed pointwise and exactly from structure constants:
exterior derivatives lose their directional terms on invariant data, the
Koszul formula becomes algebraic, and curvature reduces to quadratic
expressions in the connection coefficients plus one bracket term.

Sign conventions:

* brackets  [e_i, e_j] = c[i, j, m] e_m;
* curvature R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  stored fully lowered as R[a,b,c,d] = <R(e_a,e_b) e_c, e_d>;
* Ricci Rc(Y,Z) = sum_i <R(eps_i, Y) Z, eps_i> over any orthonormal frame;
* torsion three-form H(X,Y,Z) = d omega(JX, JY, JZ), the sign under which
  the Bismut connection is Hermitian and the soliton vector field is
  Bismut-parallel on the shipped models;
* codifferential (d* psi)(...) = -sum_i (nabla_{eps_i} psi)(eps_i, ...),
  so the function Laplacian -d*d f agrees with the geometers' convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .forms import (
    FormTensor,
    MetricFrame,
    ValidationError,
    interior_product,
    j_conjugate,
    omega_trace,
    pullback,
    type_decompose,
)
from .report import Report


class KahlerInputError(ValueError):
    """Operation undefined on Kahler input (the Lee vector field vanishes)."""


def _read_only(obj):
    """Mark every array held by a cached object read-only; returns obj."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
        for item in obj:
            _read_only(item)
    else:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return obj


# ---------------------------------------------------------------------------
# structure algebras and Hermitian models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureAlgebra:
    """Constant structure data [e_i, e_j] = c[i, j, m] e_m."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValidationError(f"structure constants shape {c.shape}, expected cube")
        if not np.isfinite(c).all():
            raise ValidationError("structure constants not finite")
        skew = np.abs(c + c.swapaxes(0, 1)).max()
        if not skew <= 1e-12 * max(1.0, np.abs(c).max()):
            raise ValidationError(f"structure constants not antisymmetric (defect {skew:.3e})")
        jac = self.jacobi_residual()
        if not jac <= 1e-12 * max(1.0, np.abs(c).max() ** 2):
            raise ValidationError(f"Jacobi identity fails (residual {jac:.3e})")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def jacobi_residual(self) -> float:
        c = self.c
        term = np.einsum("abe,ecd->abcd", c, c)
        cyc = term + np.einsum("bce,ead->abcd", c, c) + np.einsum("cae,ebd->abcd", c, c)
        return float(np.abs(cyc).max())


def nijenhuis(algebra: StructureAlgebra, J: np.ndarray) -> np.ndarray:
    """N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] on frame pairs."""
    c = algebra.c
    J = np.asarray(J, dtype=float)
    n = c.shape[0]
    cJ = (J.T @ c.reshape(n, -1)).reshape(c.shape)  # [JX, Y] for X, Y = e_a, e_b
    # J.T @ T contracts T's middle slot with J (batched over the first);
    # T @ J.T applies J to the bracket in the last slot
    t1 = J.T @ cJ  # [JX, JY]
    t2 = cJ @ J.T  # J[JX, Y]
    t3 = (J.T @ c) @ J.T  # J[X, JY]
    return t1 - t2 - t3 - c


@dataclass(frozen=True)
class HermitianModel:
    """Invariant metric and integrable complex structure on a frame."""

    algebra: StructureAlgebra
    metric: MetricFrame
    J: np.ndarray
    f: float = 0.0
    name: str = ""

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "J", J)
        n = self.algebra.dim
        if self.metric.dim != n or J.shape != (n, n):
            raise ValidationError("algebra / metric / J dimensions disagree")
        if not np.isfinite(J).all():
            raise ValidationError("J not finite")
        jj = np.abs(J @ J + np.eye(n)).max()
        if not jj <= 1e-12:
            raise ValidationError(f"J^2 != -I (defect {jj:.3e})")
        g = self.metric.g
        compat = np.abs(J.T @ g @ J - g).max()
        if not compat <= 1e-12 * max(1.0, np.abs(g).max()):
            raise ValidationError(f"metric not J-compatible (defect {compat:.3e})")
        nij = np.abs(nijenhuis(self.algebra, J)).max()
        if not nij <= 1e-12 * max(1.0, np.abs(self.algebra.c).max()):
            raise ValidationError(f"J not integrable (Nijenhuis residual {nij:.3e})")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    # The derived objects below are computed on first use, each by one call
    # of its module-level function, and then shared by every check on this
    # model.  Their arrays are read-only, so a mutation fails instead of
    # leaking into later checks.

    @cached_property
    def omega(self) -> FormTensor:
        """omega(X, Y) = g(JX, Y)."""
        return _read_only(FormTensor(2, self.dim, self.J.T @ self.metric.g))

    @cached_property
    def domega(self) -> FormTensor:
        return _read_only(exterior_derivative(self.omega, self.algebra))

    @cached_property
    def H(self) -> FormTensor:
        return _read_only(bismut_torsion(self))

    @cached_property
    def dH(self) -> FormTensor:
        return _read_only(exterior_derivative(self.H, self.algebra))

    @cached_property
    def lc(self) -> ConnectionCoeffs:
        return _read_only(levi_civita(self))

    @cached_property
    def bismut(self) -> ConnectionCoeffs:
        return _read_only(bismut_connection(self))

    @cached_property
    def lc_curvature(self) -> CurvatureTensor:
        return _read_only(curvature(self.lc, self.algebra))

    @cached_property
    def bismut_curvature(self) -> CurvatureTensor:
        return _read_only(curvature(self.bismut, self.algebra))

    @cached_property
    def rho_B(self) -> FormTensor:
        return _read_only(bismut_ricci_form(self))

    @cached_property
    def lee_pair(self) -> tuple[FormTensor, FormTensor]:
        return _read_only(lee_form_both(self))

    @cached_property
    def theta(self) -> FormTensor:
        """The Lee form; raises if its two formulas disagree (see lee_form)."""
        return _read_only(lee_form(self))

    @cached_property
    def V(self) -> np.ndarray:
        return _read_only(lee_vector(self))

    def orthonormal_frame(self) -> np.ndarray:
        """Columns form a g-orthonormal frame (Cholesky-based, deterministic)."""
        L = np.linalg.cholesky(self.metric.g)
        return np.linalg.inv(L).T


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Gamma[a, b, c] = <nabla_{e_a} e_b, e_c>, all indices down."""

    gamma: np.ndarray
    metric: MetricFrame

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        if not np.isfinite(gamma).all():
            raise ValidationError("connection coefficients not finite")
        defect = np.abs(gamma + gamma.swapaxes(1, 2)).max()
        if not defect <= 1e-10 * max(1.0, np.abs(gamma).max()):
            raise ValidationError(f"connection not metric (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    @cached_property
    def raised(self) -> np.ndarray:
        """Gamma[a, b, m] with the last index raised: nabla_a e_b = G[a,b,m] e_m.

        Computed once per connection; the array is read-only.
        """
        G = np.einsum("abc,cm->abm", self.gamma, self.metric.inv)
        G.flags.writeable = False
        return G


@dataclass(frozen=True)
class CurvatureTensor:
    """Fully lowered curvature R[a, b, c, d]."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "R", R)
        if not np.isfinite(R).all():
            raise ValidationError("curvature not finite")
        scale = max(1.0, np.abs(R).max())
        d1 = np.abs(R + R.swapaxes(0, 1)).max()
        d2 = np.abs(R + R.swapaxes(2, 3)).max()
        if not (d1 <= 1e-10 * scale and d2 <= 1e-10 * scale):
            raise ValidationError("curvature lacks antisymmetry in (a,b) or (c,d)")

    def sup_norm(self) -> float:
        return float(np.abs(self.R).max())


# ---------------------------------------------------------------------------
# differential operators on invariant data
# ---------------------------------------------------------------------------


def exterior_derivative(b: FormTensor, algebra: StructureAlgebra) -> FormTensor:
    """d of a constant-coefficient form, from structure constants alone."""
    if b.degree + 1 > algebra.dim:
        raise ValueError(f"d raises degree {b.degree} beyond dimension {algebra.dim}")
    comp = _kernels.dform_core(algebra.c, b.components, b.degree)
    return FormTensor._of(b.degree + 1, algebra.dim, comp)


def covariant_derivative(T: np.ndarray, conn: ConnectionCoeffs) -> np.ndarray:
    """(nabla_a T)_{b1..bk} for an all-lower-index invariant tensor."""
    return _kernels.connection_core(conn.raised, np.asarray(T, dtype=float))


def codifferential(b: FormTensor, conn: ConnectionCoeffs) -> FormTensor:
    """d* b = -trace of the covariant derivative (adjoint of d)."""
    nab = covariant_derivative(b.components, conn)
    comp = -np.einsum("ab...,ab->...", nab, conn.metric.inv)
    return FormTensor._of(b.degree - 1, b.dim, comp if b.degree > 1 else comp.reshape(()))


def lie_derivative_metric(X: np.ndarray, m: HermitianModel) -> np.ndarray:
    """(L_X g)(Y,Z) = -g([X,Y],Z) - g(Y,[X,Z]) for invariant g."""
    c, g = m.algebra.c, m.metric.g
    ad = np.einsum("a,abm->bm", np.asarray(X, dtype=float), c)
    return -(ad @ g + (ad @ g).T)


# ---------------------------------------------------------------------------
# connections and curvature
# ---------------------------------------------------------------------------


def levi_civita(m: HermitianModel) -> ConnectionCoeffs:
    """Invariant Koszul: 2 Gamma_abc = c_abc - c_bca + c_cab (all lowered)."""
    c_low = np.einsum("abm,mc->abc", m.algebra.c, m.metric.g)
    # array with entry [a,b,c] = c_{bca} is transpose (2,0,1); c_{cab} is (1,2,0)
    gamma = 0.5 * (c_low - np.transpose(c_low, (2, 0, 1)) + np.transpose(c_low, (1, 2, 0)))
    return ConnectionCoeffs(gamma, m.metric)


def bismut_torsion(m: HermitianModel) -> FormTensor:
    """H = d omega pulled back through (J, J, J); vanishes exactly on Kahler input."""
    return j_conjugate(m.domega, m.J)


def bismut_connection(m: HermitianModel) -> ConnectionCoeffs:
    return ConnectionCoeffs(m.lc.gamma + 0.5 * m.H.components, m.metric)


def curvature(conn: ConnectionCoeffs, algebra: StructureAlgebra) -> CurvatureTensor:
    """R_abcd from the quadratic-plus-bracket formula for invariant data."""
    G = conn.raised
    quad = np.einsum("bce,aed->abcd", G, conn.gamma)
    brk = np.einsum("abe,ecd->abcd", algebra.c, conn.gamma)
    R = quad - quad.swapaxes(0, 1) - brk
    return CurvatureTensor(R)


def ricci_tensor(curv: CurvatureTensor, g: MetricFrame) -> np.ndarray:
    """Rc[b,c] = g^{ad} R_{abcd}; positive on round spheres."""
    return np.einsum("abcd,ad->bc", curv.R, g.inv)


def bismut_ricci_form(m: HermitianModel) -> FormTensor:
    """rho_B(X,Y) = (1/2) <R^B(X,Y) J eps_i, eps_i> over an orthonormal frame."""
    RB = m.bismut_curvature
    comp = 0.5 * np.einsum("abcd,cm,md->ab", RB.R, m.J, m.metric.inv)
    return FormTensor._of(2, m.dim, comp)


def bhe_residual(m: HermitianModel) -> float:
    return m.rho_B.sup_norm()


BHE_TOL = 1e-10  # a model with bhe_residual(m) <= BHE_TOL counts as BHE


def is_pluriclosed(H: FormTensor, dH: FormTensor) -> bool:
    """Whether the torsion H counts as closed: |dH| <= 1e-10 * max(1, |H|)."""
    return dH.sup_norm() <= 1e-10 * max(1.0, H.sup_norm())


# ---------------------------------------------------------------------------
# Lee form and identity verifiers
# ---------------------------------------------------------------------------


def lee_form_both(m: HermitianModel) -> tuple[FormTensor, FormTensor]:
    """The Lee form by trace of d omega and by -d* omega o J, independently."""
    theta_tr = 0.5 * omega_trace(m.domega, m.omega, m.metric)
    dstar = codifferential(m.omega, m.lc)
    theta_cod = FormTensor._of(1, m.dim, -np.einsum("c,ca->a", dstar.components, m.J))
    return theta_tr, theta_cod


def lee_form(m: HermitianModel) -> FormTensor:
    """Lee form; errors if the two defining formulas disagree."""
    theta_tr, theta_cod = m.lee_pair
    gap = (theta_tr - theta_cod).sup_norm()
    if gap > 1e-12 * max(1.0, theta_tr.sup_norm()):
        raise ValidationError(f"Lee form formulas disagree (gap {gap:.3e})")
    return theta_tr


def lee_vector(m: HermitianModel) -> np.ndarray:
    """V = theta#  - grad f; f is constant on invariant frames, so V = theta#."""
    return m.metric.inv @ m.theta.components


def gauduchon_residual(m: HermitianModel) -> float:
    """|d* theta|; zero exactly when the model is Gauduchon."""
    dstar = codifferential(m.theta, m.lc)
    return float(abs(dstar.components))


def h2_tensor(H: FormTensor, g: MetricFrame) -> np.ndarray:
    """H^2(X,Y) = <i_X H, i_Y H> with the full double-sum inner product."""
    return np.einsum("apq,bst,ps,qt->ab", H.components, H.components, g.inv, g.inv)


def verify_lrho(m: HermitianModel) -> Report:
    """Check both components of the Bismut Ricci form identity.

    The (1,1) part against Rc - H^2/4 + Lie_theta# g / 2, the (2,0)+(0,2)
    part against -d*H/2 + d theta/2 - i_theta# H / 2, every ingredient
    computed from an independent code path.
    """
    H = m.H
    if not is_pluriclosed(H, m.dH):
        raise ValidationError(
            f"model is not pluriclosed (|dH| = {m.dH.sup_norm():.3e}); identity undefined"
        )
    theta = m.theta
    theta_sharp = m.V
    lc = m.lc
    Rc = ricci_tensor(m.lc_curvature, m.metric)
    rho11, rho20 = type_decompose(m.rho_B, m.J)

    lhs_sym = np.einsum("am,mb->ab", rho11.components, m.J)
    rhs_sym = Rc - 0.25 * h2_tensor(H, m.metric) + 0.5 * lie_derivative_metric(theta_sharp, m)

    lhs_skew = np.einsum("am,mb->ab", rho20.components, m.J)
    dstar_H = codifferential(H, lc)
    dtheta = exterior_derivative(theta, m.algebra)
    iota = interior_product(theta_sharp, H)
    rhs_skew = -0.5 * dstar_H.components + 0.5 * dtheta.components - 0.5 * iota.components

    rep = Report("bismut_ricci_identity")
    rep.record("ricci_form_symmetric_part", np.abs(lhs_sym - rhs_sym).max())
    rep.record("ricci_form_skew_part", np.abs(lhs_skew - rhs_skew).max())
    return rep


# ---------------------------------------------------------------------------
# frame changes and rescaling
# ---------------------------------------------------------------------------


def change_frame(m: HermitianModel, S: np.ndarray) -> HermitianModel:
    """Model in the new frame u_p = S[:, p]; all scalars are unchanged."""
    S = np.asarray(S, dtype=float)
    Sinv = np.linalg.inv(S)
    c_new = pullback(m.algebra.c, S, S, Sinv.T)
    g_new = S.T @ m.metric.g @ S
    J_new = Sinv @ m.J @ S
    return HermitianModel(
        StructureAlgebra(c_new), MetricFrame(g_new), J_new, f=m.f, name=m.name
    )


def scale_metric(m: HermitianModel, factor: float) -> HermitianModel:
    if factor <= 0:
        raise ValidationError("metric scale factor must be positive")
    return HermitianModel(
        m.algebra, MetricFrame(factor * m.metric.g), m.J, f=m.f, name=m.name
    )


__all__ = [
    "ValidationError",
    "KahlerInputError",
    "StructureAlgebra",
    "HermitianModel",
    "ConnectionCoeffs",
    "CurvatureTensor",
    "nijenhuis",
    "exterior_derivative",
    "covariant_derivative",
    "codifferential",
    "lie_derivative_metric",
    "levi_civita",
    "bismut_torsion",
    "bismut_connection",
    "curvature",
    "ricci_tensor",
    "bismut_ricci_form",
    "bhe_residual",
    "is_pluriclosed",
    "lee_form",
    "lee_form_both",
    "lee_vector",
    "gauduchon_residual",
    "h2_tensor",
    "verify_lrho",
    "change_frame",
    "scale_metric",
]
