"""Damped Gauss-Newton on momentum profiles.

The unknowns are interior profile values with the two pole-smoothness
constraints eliminated per sphere factor; the class data (half-lengths,
hence areas, and the anti-self-dual coefficient) never move.  The residual
is the full tensor-grid field of the fourth-order scalar equation, so the
system is rectangular and least-squares is the natural formulation.

The residual separates over the two factors:

    E[i, j] = A1[i] + A2[j] - 2 k1[i] k2[j] + 2 a^2,
    k_f = -Theta_f''/2,  A_f = L_f(k_f) = toric.flux_laplacian(p_f, Theta_f, k_f),

and toric._residual_grid builds E that way, from the factor data and one
outer product; the solver calls it directly for each trial point, and
each step reads k_f from the profile's cached kappa.  E and every
Jacobian column lie in

    U = R^{N1} (x) span(1, k2) + span(1, k1) (x) R^{N2},

a space of dimension at most 2 N1 + 2 N2 rather than N1 N2.  With Q_f an
orthonormal basis of span(1, k_f) and P_f = I - Q_f Q_f^T, U splits
orthogonally into three blocks,

    P1 E Q2,    Q1^T E P2,    Q1^T E Q2,

of sizes N1 r2, r1 N2 and r1 r2 <= 4 (r_f = 1 or 2 columns of Q_f), so
min |J p + r| has the same solutions in these coordinates and the
(n+1)^2-row Jacobian is never formed.  A factor-1 column
DA1 (x) 1 - 2 Dk1 (x) k2 has no rows in Q1^T E P2, because P2 annihilates
1 and k2; symmetrically a factor-2 column has no rows in P1 E Q2.  The
factors meet only in the r1 r2 coupling rows Q1^T E Q2: least squares
with a few added rows (A. Bjorck, Numerical Methods for Least Squares
Problems, SIAM 1996, ch. 3; C. F. Van Loan, "The ubiquitous Kronecker
product", J. Comput. Appl. Math. 123 (2000)).

Each step is therefore solved block by block.  One Householder QR per
sphere factor triangularizes its own block; the first also carries the
coupling rows with an identity in place of the other factor's unknowns,
and hands the triangle of what is left of them to the second, which folds
them in exactly.  One triangular solve per factor gives the step.  This is
the same least-squares solution as one QR of the whole compressed system,
from two QRs of about 2n x n instead of one of about 4n x 2n.

Each factor's Jacobian has full column rank: Dk_f is injective, because a
profile change with zero second difference and fixed poles is zero.  So
the step is unique and solved exactly, with no singular values truncated.
cond(J) grows like n^4, so any fixed truncation cut drops genuine
directions at some n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame_geometry import ValidationError
from .toric import ProductSurface, SphereProfile, _d2, _residual_grid, flux_laplacian


DAMPING = 0.5  # step factor after a rejected trial point
MIN_STEP = 1e-6  # smallest step length tried before the run stalls
FD_STEP = 1e-6  # relative forward-difference step of the Jacobian


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 50
    tolerance: float = 1e-8

    def __post_init__(self):
        if not (self.max_iterations > 0 and 0 < self.tolerance < 1):
            raise ValidationError(
                "solver configuration out of range: max_iterations must be positive and tolerance "
                f"in (0, 1) (got max_iterations={self.max_iterations!r}, tolerance={self.tolerance!r})"
            )


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


def _residual(s0: ProductSurface, x: np.ndarray) -> tuple[ProductSurface, np.ndarray]:
    """The surface at unknowns x and its raveled residual field."""
    s = _unpack(s0, x)
    return s, _residual_grid(s).ravel()


# ---------------------------------------------------------------------------
# block Gauss-Newton step
# ---------------------------------------------------------------------------


def _factor_derivatives(p: SphereProfile) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences of (A, k) = (L k, -Theta''/2) over the unknowns of p.

    Unknown j moves by FD_STEP * max(1, |x_j|) through the pole-constraint
    map; all perturbed profiles are stacked as columns and differentiated
    in one pass, flux_laplacian taking each column's own Theta.  Returns
    (DA, Dk), each (n+1) x (n-3).
    """
    inner = p.theta[2:-2]
    m = inner.size
    delta = FD_STEP * np.maximum(1.0, np.abs(inner))
    X = np.repeat(inner[:, None], m + 1, axis=1)  # column 0 stays unperturbed
    X[np.arange(m), np.arange(1, m + 1)] += delta
    theta = _sphere_theta(p, X)
    k = -0.5 * _d2(p, theta)
    A = flux_laplacian(p, theta, k)
    return (A[:, 1:] - A[:, :1]) / delta, (k[:, 1:] - k[:, :1]) / delta


def _span_basis(k: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(1, k): one column when k is constant to round-off.

    The second column is k minus its mean, taken twice so that it stays
    orthogonal to 1 when k is nearly constant.
    """
    N = k.size
    d = k - k.mean()
    d -= d.mean()
    norm = np.linalg.norm(d)
    if norm <= N * np.finfo(float).eps * np.linalg.norm(k):
        return np.full((N, 1), N**-0.5)
    return np.column_stack([np.full(N, N**-0.5), d / norm])


def _compress(E: np.ndarray, Q1: np.ndarray, Q2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P1 E Q2, (Q1^T E P2)^T, Q1^T E Q2): the three blocks of E in U.

    Each block is laid out with its own factor's grid first, like the rows
    of _jacobian; their squared norms add up to |E|^2 when E lies in U.
    """
    EQ2 = E @ Q2
    C = Q1.T @ EQ2
    return EQ2 - Q1 @ C, (Q1.T @ E - C @ Q2.T).T, C


def _jacobian(p: SphereProfile, Q: np.ndarray, Qo: np.ndarray, ko: np.ndarray) -> np.ndarray:
    """Compressed Jacobian columns of the unknowns of one sphere factor p.

    Q is the span basis of p's own curvature, Qo and ko those of the other
    factor.  A column is DA (x) 1 - 2 Dk (x) ko on the grid (own, other),
    so against the other factor it only meets Qo^T 1 and Qo^T ko.  The
    rows are (I - Q Q^T) X, the factor's own block, followed by the
    coupling rows Q^T X, in (own, other) order, with X = DA (x) Qo^T 1 -
    2 Dk (x) Qo^T ko.  J itself is never formed.
    """
    DA, Dk = _factor_derivatives(p)
    N, m = DA.shape
    X = DA[:, None, :] * Qo.sum(axis=0)[:, None] - 2.0 * Dk[:, None, :] * (Qo.T @ ko)[:, None]
    X = X.reshape(N, -1)
    C = Q.T @ X
    X -= Q @ C
    return np.concatenate([X.reshape(-1, m), C.reshape(-1, m)])


def _triangle(R: np.ndarray, m: int) -> bool:
    """True when the first m diagonal entries of R are numerically nonzero."""
    diag = np.abs(np.diagonal(R)[:m])
    return bool(np.all(diag > (m + 1) * np.finfo(float).eps * diag.max()))


def _gauss_newton_step(s: ProductSurface, r: np.ndarray) -> np.ndarray | None:
    """Least-squares step p minimizing |J p + r|, solved block by block.

    In the coordinates of _compress the problem is

        min |M1 p1 + g1|^2 + |M2 p2 + g2|^2 + |C1 p1 + C2 p2 + c|^2,

    with at most four coupling rows.  Put w = C2 p2 + c.  A Householder QR
    of [[M1, 0, g1], [C1, I, 0]] (unknowns p1, w) gives the best p1 for
    any w from R11 p1 = -(R1w w + h), and leaves |T w + t|^2 from its
    last rows.  A QR of [[M2, g2], [T C2, T c + t]] then gives p2, and p1
    follows; one triangular solve per factor.  With one sphere factor only
    the second QR runs, with T = I and t = 0.  Returns None when a
    factor's triangle has a numerically zero diagonal entry or the step is
    not finite.
    """
    k = (s.factor1.kappa, s.factor2.kappa)
    Q = [_span_basis(kf) for kf in k]
    own1, own2, c = _compress(r.reshape(k[0].size, k[1].size), Q[0], Q[1])
    r1, r2 = c.shape
    blocks = []  # (own rows, coupling rows in (factor 1, factor 2) order, own rhs)
    for f, (p, g) in enumerate(((s.factor1, own1), (s.factor2, own2))):
        if p.kind != "sphere":
            continue
        M = _jacobian(p, Q[f], Q[1 - f], k[1 - f])
        C = M[g.size:]
        if f:
            C = C.reshape(r2, r1, -1).transpose(1, 0, 2).reshape(r1 * r2, -1)
        blocks.append((M[: g.size], C, g.ravel()))
    c = c.ravel()
    T, t = np.eye(c.size), np.zeros(c.size)
    head = None  # factor 1's triangle when factor 2 follows it
    if len(blocks) == 2:
        M1, C1, g1 = blocks.pop(0)
        rows, m1 = M1.shape
        A = np.zeros((rows + c.size, m1 + c.size + 1))
        A[:rows, :m1], A[:rows, -1] = M1, g1
        A[rows:, :m1], A[rows:, m1:-1] = C1, T
        head = np.linalg.qr(A, mode="r")
        if not _triangle(head, m1):
            return None
        T, t = head[m1:-1, m1:-1], head[m1:-1, -1]
    (M, C, g), = blocks
    rows, m = M.shape
    A = np.empty((rows + c.size, m + 1))
    A[:rows, :m], A[:rows, -1] = M, g
    A[rows:, :m], A[rows:, -1] = T @ C, T @ c + t
    R = np.linalg.qr(A, mode="r")
    if not _triangle(R, m):
        return None
    p = np.linalg.solve(R[:m, :m], -R[:m, -1])
    if head is not None:
        w = C @ p + c
        p = np.concatenate([np.linalg.solve(head[:m1, :m1], -(head[:m1, m1:-1] @ w + head[:m1, -1])), p])
    return p if np.all(np.isfinite(p)) else None


def newton_solve(s0: ProductSurface, cfg: SolverConfig | None = None) -> SolveTrace:
    """Damped Gauss-Newton on the profile unknowns.

    Each step is the exact least-squares solution of the compressed
    system, from two per-factor QR factorizations (see _gauss_newton_step).
    Accepted steps strictly decrease the l2 residual; steps that make a
    profile nonpositive are rejected and damped like any other failed step.
    A numerically singular or non-finite step ends the run as "stalled".
    """
    cfg = cfg or SolverConfig()
    x = _pack(s0)
    s, r = _residual(s0, x)
    norm = np.linalg.norm(r)
    trace = SolveTrace(flag="", surface=s)
    trace.residual_sup.append(float(np.abs(r).max()))
    trace.residual_l2.append(float(norm))
    if trace.residual_sup[0] <= cfg.tolerance:
        trace.flag = "at-floor"
        return trace
    if x.size == 0:
        trace.flag = "stalled"
        return trace

    for _ in range(cfg.max_iterations):
        p = _gauss_newton_step(s, r)
        lam = 1.0
        accepted = False
        while p is not None and lam >= MIN_STEP:
            x_try = x + lam * p
            try:
                s_try, r_try = _residual(s0, x_try)
            except ValidationError:
                lam *= DAMPING  # positivity or smoothness violated
                continue
            norm_try = np.linalg.norm(r_try)
            if norm_try < norm:
                accepted = True
                break
            lam *= DAMPING
        if not accepted:
            trace.flag = "stalled"
            trace.surface = s
            return trace
        x, s, r, norm = x_try, s_try, r_try, norm_try
        trace.residual_sup.append(float(np.abs(r).max()))
        trace.residual_l2.append(float(norm))
        trace.steps.append(lam)
        if trace.residual_sup[-1] <= cfg.tolerance:
            trace.flag = "converged"
            trace.surface = s
            return trace

    trace.flag = "max-iterations"
    trace.surface = s
    return trace
