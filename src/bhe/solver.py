"""Damped Gauss-Newton on momentum profiles.

The unknowns are interior profile values with the two pole-smoothness
constraints eliminated per sphere factor; the class data (half-lengths,
hence areas, and the anti-self-dual coefficient) never move.  The residual
is the full tensor-grid field of the fourth-order scalar equation, so the
system is rectangular and least-squares is the natural formulation.

The residual separates over the two factors:

    E[i, j] = A1[i] + A2[j] - 2 k1[i] k2[j] + 2 a^2,
    k_f = -Theta_f''/2,  A_f = L_f(k_f),

so E and every Jacobian column lie in

    U = R^{N1} (x) span(1, k2) + span(1, k1) (x) R^{N2},

a space of dimension at most 2 N1 + 2 N2 rather than N1 N2.  With Q_f an
orthonormal basis of span(1, k_f), the map

    B^T vec(E) = [E Q2, Q1^T E (I - Q2 Q2^T)]

is an isometry on U, so min |J p + r| and min |B^T J p + B^T r| have the
same solutions and B^T J has the singular values of J.  Each step solves
the compressed system, built from forward differences of the 1-D factor
data (A_f, k_f); the (n+1)^2-row Jacobian is never formed.  See C. F. Van
Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math. 123
(2000).

B^T J has full column rank: Dk_f is injective, because a profile change
with zero second difference and fixed poles is zero.  So the least-squares
step is unique and is solved exactly by one Householder QR of
[B^T J, B^T r], with no singular values truncated.  cond(B^T J) grows like
n^4, so any fixed truncation cut drops genuine directions at some n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame_geometry import ValidationError
from .toric import (
    ProductSurface,
    SphereProfile,
    _d2,
    pde_residual,
    ricci_form_coeffs,
    sphere_flux_laplacian,
)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 50
    tolerance: float = 1e-8
    damping: float = 0.5
    min_step: float = 1e-6
    fd_step: float = 1e-6

    def __post_init__(self):
        ok = (
            self.max_iterations > 0
            and 0 < self.tolerance < 1
            and 0 < self.damping < 1
            and self.min_step > 0
            and self.fd_step > 0
        )
        if not ok:
            raise ValidationError("solver configuration out of range")


@dataclass
class SolveTrace:
    """Verbatim iteration history of a Gauss-Newton run."""

    flag: str
    surface: ProductSurface
    residual_sup: list[float] = field(default_factory=list)
    residual_l2: list[float] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_residual(self) -> float:
        return self.residual_sup[-1]

    def to_dict(self) -> dict:
        return {
            "flag": self.flag,
            "iterations": self.iterations,
            "final_residual_sup": self.final_residual,
            "residual_sup": list(self.residual_sup),
            "residual_l2": list(self.residual_l2),
            "steps": list(self.steps),
        }

    def history_rows(self) -> list[tuple[int, float, float]]:
        rows = [(0, self.residual_sup[0], 0.0)]
        for i, (r, s) in enumerate(zip(self.residual_sup[1:], self.steps), start=1):
            rows.append((i, r, s))
        return rows


# ---------------------------------------------------------------------------
# profile parametrization with pole constraints eliminated
# ---------------------------------------------------------------------------


def _pack(s: ProductSurface) -> np.ndarray:
    parts = []
    for p in (s.factor1, s.factor2):
        if p.kind == "sphere":
            parts.append(p.theta[2:-2])
    return np.concatenate(parts) if parts else np.zeros(0)


def _sphere_theta(p: SphereProfile, inner: np.ndarray) -> np.ndarray:
    """Node values from interior unknowns along axis 0, poles constrained.

    Further axes of `inner` are independent profiles (one per column).
    """
    h = p.h
    theta = np.empty((p.n + 1,) + inner.shape[1:])
    theta[0] = theta[-1] = 0.0
    theta[2:-2] = inner
    # pole smoothness: one-sided Theta'(-c) = 2, Theta'(c) = -2
    theta[1] = (4.0 * h + inner[0]) / 4.0
    theta[-2] = (4.0 * h + inner[-1]) / 4.0
    return theta


def _unpack(s0: ProductSurface, x: np.ndarray) -> ProductSurface:
    factors = []
    pos = 0
    for p in (s0.factor1, s0.factor2):
        if p.kind == "sphere":
            m = p.n - 3
            factors.append(SphereProfile(p.c, p.n, _sphere_theta(p, x[pos : pos + m]), "sphere"))
            pos += m
        else:
            factors.append(p)
    return ProductSurface(factors[0], factors[1], s0.a)


def _residual(s0: ProductSurface, x: np.ndarray) -> np.ndarray:
    return pde_residual(_unpack(s0, x)).E.ravel()


# ---------------------------------------------------------------------------
# compressed Gauss-Newton step
# ---------------------------------------------------------------------------


def _factor_derivatives(p: SphereProfile, fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences of (A, k) = (L k, -Theta''/2) over the unknowns of p.

    Unknown j moves by fd_step * max(1, |x_j|) through the pole-constraint
    map; all perturbed profiles are stacked as columns and differentiated
    in one pass.  Returns (DA, Dk), each (n+1) x (n-3).
    """
    inner = p.theta[2:-2]
    m = inner.size
    delta = fd_step * np.maximum(1.0, np.abs(inner))
    X = np.repeat(inner[:, None], m + 1, axis=1)  # column 0 stays unperturbed
    X[np.arange(m), np.arange(1, m + 1)] += delta
    theta = _sphere_theta(p, X)
    k = -0.5 * _d2(p, theta)
    A = sphere_flux_laplacian(p, theta, k)
    return (A[:, 1:] - A[:, :1]) / delta, (k[:, 1:] - k[:, :1]) / delta


def _span_basis(k: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(1, k): one column when k is constant to round-off."""
    Q, R = np.linalg.qr(np.column_stack([np.ones_like(k), k]))
    if abs(R[1, 1]) <= k.size * np.finfo(float).eps * np.linalg.norm(k):
        return Q[:, :1]
    return Q


def _compress(E: np.ndarray, Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """B^T vec(E) = [E Q2, Q1^T E (I - Q2 Q2^T)]; an isometry on U."""
    Y = Q1.T @ E
    Y -= (Y @ Q2) @ Q2.T
    return np.concatenate([(E @ Q2).ravel(), Y.ravel()])


def _jacobian(s: ProductSurface, Q1: np.ndarray, Q2: np.ndarray, fd_step: float) -> np.ndarray:
    """B^T J: the finite-difference Jacobian at s in the coordinates of _compress.

    A factor-1 column is DA1 (x) 1 - 2 Dk1 (x) k2 and a factor-2 column is
    1 (x) DA2 - 2 k1 (x) Dk2, so each block is a product of 1-D factor
    data with the small matrices Q^T 1, Q^T k.  J itself is never formed.
    """
    k1, k2 = ricci_form_coeffs(s)
    N1, N2 = k1.size, k2.size
    r1, r2 = Q1.shape[1], Q2.shape[1]
    blocks = []
    if s.factor1.kind == "sphere":
        DA, Dk = _factor_derivatives(s.factor1, fd_step)
        m = DA.shape[1]
        ones2, kk2 = Q2.sum(axis=0), Q2.T @ k2  # Q2^T 1, Q2^T k2
        X = DA[:, None, :] * ones2[None, :, None] - 2.0 * Dk[:, None, :] * kk2[None, :, None]
        # (I - Q2 Q2^T) annihilates 1 and k2, so these columns have no Y rows
        blocks.append(np.vstack([X.reshape(N1 * r2, m), np.zeros((r1 * N2, m))]))
    if s.factor2.kind == "sphere":
        DA, Dk = _factor_derivatives(s.factor2, fd_step)
        m = DA.shape[1]
        QDA, QDk = Q2.T @ DA, Q2.T @ Dk
        X = QDA[None, :, :] - 2.0 * k1[:, None, None] * QDk[None, :, :]
        PDA, PDk = DA - Q2 @ QDA, Dk - Q2 @ QDk  # (I - Q2 Q2^T) applied
        ones1, kk1 = Q1.sum(axis=0), Q1.T @ k1
        Y = ones1[:, None, None] * PDA[None] - 2.0 * kk1[:, None, None] * PDk[None]
        blocks.append(np.vstack([X.reshape(N1 * r2, m), Y.reshape(r1 * N2, m)]))
    return np.hstack(blocks)


def _gauss_newton_step(s: ProductSurface, r: np.ndarray, fd_step: float) -> np.ndarray | None:
    """Least-squares step p minimizing |J p + r|, solved on the compressed system.

    One Householder QR of [B^T J, B^T r] gives R, and the step solves
    R[:-1, :-1] p = -R[:-1, -1]; B^T J has full column rank, so nothing is
    truncated.  Returns None when R has a numerically zero diagonal entry
    or the step is not finite.
    """
    Q1, Q2 = (_span_basis(k) for k in ricci_form_coeffs(s))
    rhs = _compress(r.reshape(s.factor1.theta.size, s.factor2.theta.size), Q1, Q2)
    R = np.linalg.qr(np.column_stack([_jacobian(s, Q1, Q2, fd_step), rhs]), mode="r")
    diag = np.abs(np.diag(R)[:-1])
    if not np.all(diag > R.shape[0] * np.finfo(float).eps * diag.max()):
        return None
    p = np.linalg.solve(R[:-1, :-1], -R[:-1, -1])
    return p if np.all(np.isfinite(p)) else None


def newton_solve(s0: ProductSurface, cfg: SolverConfig | None = None) -> SolveTrace:
    """Damped Gauss-Newton on the profile unknowns.

    Each step is the exact least-squares solution of the compressed
    system, from one QR factorization (see _gauss_newton_step).  Accepted
    steps strictly decrease the l2 residual; steps that make a profile
    nonpositive are rejected and damped like any other failed step.  A
    numerically singular or non-finite step ends the run as "stalled".
    """
    cfg = cfg or SolverConfig()
    x = _pack(s0)
    r = _residual(s0, x)
    trace = SolveTrace(flag="", surface=_unpack(s0, x))
    trace.residual_sup.append(float(np.max(np.abs(r))))
    trace.residual_l2.append(float(np.linalg.norm(r)))
    if trace.residual_sup[0] <= cfg.tolerance:
        trace.flag = "at-floor"
        return trace
    if x.size == 0:
        trace.flag = "stalled"
        return trace

    for _ in range(cfg.max_iterations):
        p = _gauss_newton_step(_unpack(s0, x), r, cfg.fd_step)
        lam = 1.0
        norm0 = np.linalg.norm(r)
        accepted = False
        while p is not None and lam >= cfg.min_step:
            x_try = x + lam * p
            try:
                r_try = _residual(s0, x_try)
            except ValidationError:
                lam *= cfg.damping  # positivity or smoothness violated
                continue
            if np.linalg.norm(r_try) < norm0:
                accepted = True
                break
            lam *= cfg.damping
        if not accepted:
            trace.flag = "stalled"
            trace.surface = _unpack(s0, x)
            return trace
        x, r = x_try, r_try
        trace.residual_sup.append(float(np.max(np.abs(r))))
        trace.residual_l2.append(float(np.linalg.norm(r)))
        trace.steps.append(lam)
        if trace.residual_sup[-1] <= cfg.tolerance:
            trace.flag = "converged"
            trace.surface = _unpack(s0, x)
            return trace

    trace.flag = "max-iterations"
    trace.surface = _unpack(s0, x)
    return trace
