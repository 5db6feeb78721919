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
each step reads k_f from the profile's cached kappa.  With Q_f an
orthonormal basis of span(1, k_f), a factor-1 Jacobian column is X1 Q2^T
on the grid and a factor-2 column Q1 X2^T, where X_f = DA_f (x) Q_o^T 1 -
2 Dk_f (x) Q_o^T k_o has one row per (grid node, Q_o column).  The
(n+1)^2-row Jacobian is never formed (C. F. Van Loan, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 123 (2000)).

A step is O(n) beyond E and its products with Q_f:

- Forward differences in band storage.  Unknown j's difference touches
  BAND = 7 grid rows, which no unknown BAND away touches, so the unknowns
  fall into BAND colours and one stacked pass of _d2 and flux_laplacian
  differences them all (Curtis, Powell and Reid 1974).  The values are
  those of the dense differences, bit for bit.
- Unprojected blocks.  With Q~_f = Q_f (x) I and P = I - Q~ Q~^T,
  |P X p + g|^2 + |Q~^T X p + w|^2 = |X p + g + Q~ w|^2, so each factor
  solves a banded problem [X_f | Q~_f | rhs] instead of a projected dense
  block: factor 1 with factor 2's share of the coupling rows as its
  trailing unknowns, factor 2 with free trailing unknowns.
- Blocked Householder QR.  Each banded problem is triangularized in
  panels of at most PANEL columns and PANEL_ENTRIES values, one
  np.linalg.qr per panel over its new rows and the triangle the panel
  before it left; one triangular solve per panel gives the step.
- Schur fold.  The at most four coupling rows that factor 1 leaves enter
  factor 2's triangle through an r1 r2 x r1 r2 Schur complement, so every
  panel stays narrow (A. Bjorck, Numerical Methods for Least Squares
  Problems, SIAM 1996, ch. 6).

Each factor's Jacobian has full column rank: Dk_f is injective, because a
profile change with zero second difference and fixed poles is zero.  So
the step is unique and solved exactly, with no singular values truncated.
cond(J) grows like n^4, so any fixed truncation cut drops genuine
directions at some n.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

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
        m, tol = self.max_iterations, self.tolerance
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValidationError(f"max_iterations must be an integer (got {m!r})")
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValidationError(f"tolerance must be a real number (got {tol!r})")
        if not (m > 0 and 0 < tol < 1):
            raise ValidationError(
                "solver configuration out of range: max_iterations must be positive and tolerance "
                f"in (0, 1) (got max_iterations={m!r}, tolerance={tol!r})"
            )


@dataclass
class SolveTrace:
    """Verbatim iteration history of a Gauss-Newton run."""

    flag: str
    surface: ProductSurface
    residual_sup: list[float]
    residual_l2: list[float]
    steps: list[float]

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
# banded Gauss-Newton step
# ---------------------------------------------------------------------------


BAND = 7  # grid rows of one unknown's window: rows q-3 .. q+3 around its node q
PANEL = 64  # most band columns of one Householder panel
# most values of one panel matrix: above about 9000, OpenBLAS's QR costs more
# per flop on two cores (1.4x at 134 x 73 and 2.7x at 196 x 101, against 130 x 66)
PANEL_ENTRIES = 9000


def _band_starts(n: int) -> np.ndarray:
    """First grid row of each unknown's BAND rows.

    Unknown j moves node q = j + 2, and its forward difference touches rows
    q-2 .. q+2, inside the window q-3 .. q+3.  The three unknowns at each end
    also reach a pole row through its one-sided stencils, so their windows
    are the first or last BAND rows of the grid.
    """
    start = np.arange(n - 3) - 1
    start[:3] = 0
    start[-3:] = n - 6
    return start


def _factor_derivatives(p: SphereProfile) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences of (A, k) = (L k, -Theta''/2) over the unknowns of p, in band storage.

    Unknown j moves by FD_STEP * max(1, |x_j|) through the pole-constraint
    map.  Returns (DA, Dk), each BAND x (n-3): column j holds grid rows
    _band_starts(n)[j] onward, and every other row of the difference is
    exactly 0.  Unknowns BAND apart never touch each other's BAND rows, pole
    stencils included, so unknown j moves in column 1 + j % BAND of one
    stacked profile whose column 0 is the base point (A. R. Curtis, M. J. D.
    Powell, J. K. Reid, "On the estimation of sparse Jacobian matrices",
    J. Inst. Maths Applics 13 (1974)).  Each value is that of differencing
    its perturbed profile alone on the whole grid, bit for bit.
    """
    inner = p.theta[2:-2]
    m = inner.size
    delta = FD_STEP * np.maximum(1.0, np.abs(inner))
    col = 1 + np.arange(m) % BAND
    X = np.repeat(inner[:, None], min(BAND, m) + 1, axis=1)  # column 0 stays unperturbed
    X[np.arange(m), col] += delta
    theta = _sphere_theta(p, X)
    k = -0.5 * _d2(p, theta)
    A = flux_laplacian(p, theta, k)
    rows = _band_starts(p.n) + np.arange(BAND)[:, None]
    return (A[rows, col] - A[rows, 0]) / delta, (k[rows, col] - k[rows, 0]) / delta


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


def _jacobian(p: SphereProfile, Qo: np.ndarray, ko: np.ndarray) -> np.ndarray:
    """Band of the unprojected Jacobian block X of the unknowns of one sphere factor p.

    Qo and ko are the span basis and curvature of the other factor.  A
    column is DA (x) 1 - 2 Dk (x) ko on the grid (own, other), that is
    X Qo^T with X = DA (x) Qo^T 1 - 2 Dk (x) Qo^T ko, whose rows are (own
    grid row, Qo column).  Returns X in band storage, BAND * r_o rows per
    column starting at row _band_starts(n)[j] * r_o; J itself is never
    formed.
    """
    DA, Dk = _factor_derivatives(p)
    X = DA[:, None, :] * Qo.sum(axis=0)[:, None] - 2.0 * Dk[:, None, :] * (Qo.T @ ko)[:, None]
    return X.reshape(-1, DA.shape[1])


@lru_cache(maxsize=16)
def _panel_plan(n: int, r_o: int, t: int) -> tuple:
    """Panels of a sphere factor's band with r_o rows per grid row and t dense columns.

    Column j of the band holds BAND * r_o rows from row _band_starts(n)[j] * r_o
    on.  The band columns are split into the fewest near-equal panels of at
    most PANEL columns whose matrices hold at most PANEL_ENTRIES values each.
    A panel's matrix stacks the triangle the panel before it left, over its
    band columns c0..reach and D, on its new rows row0..row1, over the band
    columns c0..c2 those rows reach and D.  Each entry is (c0, c1, c2, reach,
    row0, row1, shape, dst, src): the band entries at flat positions src go
    to the flat positions dst of the panel matrix.  This depends only on the
    shapes, so it is built once per grid.
    """
    start = _band_starts(n) * r_o
    height, m = BAND * r_o, n - 3
    rows = start + np.arange(height)[:, None]
    count = -(-m // PANEL)
    while True:
        bounds = [m * i // count for i in range(count + 1)]
        plan, nc, reach, row0 = [], 0, 0, 0
        for c0, c1 in zip(bounds, bounds[1:]):
            row1 = int(rows[-1, c1 - 1]) + 1
            c2 = int(np.searchsorted(start, row1))
            shape = (nc + row1 - row0, c2 - c0 + t)
            plan.append((c0, c1, c2, reach, row0, row1, shape))
            nc, reach, row0 = min(shape) - (c1 - c0), c2, row1
        if count == m or max(a * b for *_, (a, b) in plan) <= PANEL_ENTRIES:
            break
        count += 1
    out = []
    for c0, c1, c2, reach, row0, row1, shape in plan:
        li, lj = np.nonzero((rows[:, c0:c2] >= row0) & (rows[:, c0:c2] < row1))
        nc = shape[0] - (row1 - row0)
        dst = (nc + rows[li, c0 + lj] - row0) * shape[1] + lj
        src = li * m + c0 + lj
        for index in (dst, src):
            index.flags.writeable = False
        out.append((c0, c1, c2, reach, row0, row1, shape, dst, src))
    return tuple(out)


def _panel_qr(band: np.ndarray, plan: tuple, dense: np.ndarray) -> tuple[list, np.ndarray]:
    """Householder QR of [B | D], B the banded matrix that band stores, D dense, one QR per panel of plan.

    Returns the panels, each (c0, c1, c2, R) with R the rows of the
    triangle for band columns c0..c1, over band columns c0..c2 and then D,
    and the triangle over D that the last panel leaves.
    """
    t = dense.shape[1]
    panels, carry = [], np.zeros((0, t))
    for c0, c1, c2, reach, row0, row1, shape, dst, src in plan:
        A = np.zeros(shape)
        nc = carry.shape[0]
        A[:nc, : reach - c0] = carry[:, :-t]
        A[:nc, -t:] = carry[:, -t:]
        np.put(A, dst, band.take(src))
        A[nc:, -t:] = dense[row0:row1]
        R = np.linalg.qr(A, mode="r")
        k = c1 - c0
        panels.append((c0, c1, c2, R[:k]))
        carry = R[k:, k:]
    return panels, carry


def _diagonal(panels: list) -> np.ndarray:
    return np.concatenate([np.diagonal(R) for _, _, _, R in panels])


def _back_substitute(panels: list, g: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Band unknowns p with R p = g - R_D tail, one triangular solve per panel from the last.

    R_D are the panel rows over D; tail holds the values of D's unknowns
    and a final 1 for its right-hand-side column.
    """
    p = np.zeros(panels[-1][1])
    for c0, c1, c2, R in reversed(panels):
        k = c1 - c0
        b = g[c0:c1] - R[:, k : c2 - c0] @ p[c1:c2] - R[:, c2 - c0 :] @ tail
        p[c0:c1] = np.linalg.solve(R[:, :k], b)
    return p


def _coupled(Q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The dense columns [Q (x) I | g] of a coupled factor, g being its N x r_o right-hand side.

    Column (a, b) of Q (x) I is Q[:, a] on the rows (i, b), so the unknowns
    behind it are in (a, b) order.
    """
    N, r_o = g.shape
    r = Q.shape[1] * r_o
    D = np.zeros((N, r_o, r + 1))
    for b in range(r_o):
        D[:, b, b:r:r_o] = Q
    D[:, :, -1] = g
    return D.reshape(N * r_o, -1)


def _triangle(diag: np.ndarray, scale: float | None = None) -> bool:
    """True when every diagonal entry of a triangle is numerically nonzero.

    Nonzero means above (size + 1) eps times scale, by default the largest entry.
    """
    d = np.abs(diag)
    return bool(np.all(d > (d.size + 1) * np.finfo(float).eps * (d.max() if scale is None else scale)))


def _gauss_newton_step(s: ProductSurface, r: np.ndarray) -> np.ndarray | None:
    """Least-squares step p minimizing |J p + r|, solved factor by factor.

    With X_f the unprojected block of factor f (_jacobian) and Q~_f =
    Q_f (x) I, the problem is

        min |X1 p1 + Q~1 C2 p2 + E Q2|^2 + min_v |X2 p2 + Q~2 v + E^T Q1|^2,

    where C2 p2 = Q~2^T X2 p2 is factor 2's share of the coupling rows.
    A panel QR of [X1 | Q~1 | E Q2] (unknowns p1, w = C2 p2) gives the best
    p1 for any w, and leaves |T w + t|^2 from its last rows.  A panel QR
    of [X2 | Q~2 | E^T Q1] gives the triangle R over (p2, v); the rows
    T C2 p2 + t are folded into it through an r1 r2 x r1 r2 Schur
    complement.  With one sphere factor its QR alone has rhs E Q_other.
    Returns None when a triangle has a numerically zero diagonal entry or
    the step is not finite.
    """
    k = (s.factor1.kappa, s.factor2.kappa)
    Q = [_span_basis(kf) for kf in k]
    E = r.reshape(k[0].size, k[1].size)
    EQ2 = E @ Q[1]
    rhs = (EQ2, E.T @ Q[0])
    factors = (s.factor1, s.factor2)

    def factor_qr(f: int, dense: np.ndarray) -> tuple[list, np.ndarray]:
        band = _jacobian(factors[f], Q[1 - f], k[1 - f])
        return _panel_qr(band, _panel_plan(factors[f].n, Q[1 - f].shape[1], dense.shape[1]), dense)

    spheres = [f for f in (0, 1) if factors[f].kind == "sphere"]
    if len(spheres) == 1:
        panels, _ = factor_qr(spheres[0], rhs[spheres[0]].reshape(-1, 1))
        if not _triangle(_diagonal(panels)):
            return None
        p = _back_substitute(panels, np.zeros(panels[-1][1]), np.ones(1))
        return p if np.all(np.isfinite(p)) else None

    r1, r2 = Q[0].shape[1], Q[1].shape[1]
    r = r1 * r2
    panels1, tail1 = factor_qr(0, _coupled(Q[0], rhs[0]))
    panels2, tail2 = factor_qr(1, _coupled(Q[1], rhs[1]))
    Rvv, hv = tail2[:r, :r], tail2[:r, r]
    # Rvv is judged against the unit norm of the columns of Q~2
    band_ok = _triangle(_diagonal(panels1)) and _triangle(_diagonal(panels2))
    if not (band_ok and _triangle(np.diagonal(Rvv), 1.0)):
        return None
    # The rows T C2 p2 + t are B z + t with B = [T P Q~2^T X2, 0] over z = (p2, v),
    # P reordering v's (b, a) layout to the (a, b) of w.  The v columns of
    # [X2 | Q~2] are Q~2 itself, so R^{-T} B^T = (R[:, v] - [0; Rvv^{-T}]) (T P)^T
    # with no solve against R.  Then z = R^{-1} (u - h), where u minimizes
    # |u|^2 + |W^T u + e|^2 with W = R^{-T} B^T and e = t - W^T h.
    T, t = tail1[:r, :r], tail1[:r, r]
    TP = T.reshape(r, r1, r2).transpose(0, 2, 1).reshape(r, r)
    Rinv = np.linalg.inv(Rvv)
    G = np.vstack([R[:, c2 - c0 : c2 - c0 + r] for c0, _, c2, R in panels2] + [Rvv - Rinv.T])
    W = G @ TP.T
    h = np.concatenate([R[:, -1] for *_, R in panels2] + [hv])
    e = t - W.T @ h
    u = -W @ np.linalg.solve(np.eye(r) + W.T @ W, e)
    v = Rinv @ (u[-r:] - hv)
    p2 = _back_substitute(panels2, u[:-r], np.append(v, 1.0))
    # v minimizes factor 2's first term, so C2 p2 = -P v - Q1^T E Q2
    w = -v.reshape(r2, r1).T.ravel() - (Q[0].T @ EQ2).ravel()
    p1 = _back_substitute(panels1, np.zeros(panels1[-1][1]), np.append(w, 1.0))
    p = np.concatenate([p1, p2])
    return p if np.all(np.isfinite(p)) else None


def newton_solve(s0: ProductSurface, cfg: SolverConfig | None = None) -> SolveTrace:
    """Damped Gauss-Newton on the profile unknowns.

    Each step is the exact least-squares solution of the compressed
    system, from one banded panel QR per sphere factor (see
    _gauss_newton_step).  A sphere factor needs at least 9 intervals, so
    that no unknown's band reaches both poles.
    Accepted steps strictly decrease the l2 residual; steps that make a
    profile nonpositive are rejected and damped like any other failed step.
    Each iterate, the start included, is recorded once, and the run ends
    with one of four flags (`bhe pde solve` exits 0 on the first two, 1 on
    the others):

        at-floor        sup |E| <= tolerance at the start, with no step taken
        converged       sup |E| <= tolerance after an accepted step
        max-iterations  max_iterations steps accepted, sup |E| still above tolerance
        stalled         no step: the surface has no unknowns, the step is
                        numerically singular or not finite, or the line
                        search falls below MIN_STEP

    trace.surface is the last recorded iterate.
    """
    cfg = cfg or SolverConfig()
    for p in (s0.factor1, s0.factor2):
        if p.kind == "sphere" and p.n < 9:
            raise ValidationError(
                f"the solver needs at least 9 intervals on a sphere factor, so that no unknown's band "
                f"reaches both poles (got n = {p.n})"
            )
    sup, l2, steps = [], [], []
    x = _pack(s0)
    s, r = _residual(s0, x)
    norm = np.linalg.norm(r)
    while True:
        sup.append(float(np.abs(r).max()))
        l2.append(float(norm))
        if sup[-1] <= cfg.tolerance:
            flag = "converged" if steps else "at-floor"
            break
        if len(steps) == cfg.max_iterations:
            flag = "max-iterations"
            break
        p = _gauss_newton_step(s, r) if x.size else None
        lam = 1.0
        while p is not None and lam >= MIN_STEP:
            x_try = x + lam * p
            try:
                s_try, r_try = _residual(s0, x_try)
            except ValidationError:
                lam *= DAMPING  # positivity or smoothness violated
                continue
            norm_try = np.linalg.norm(r_try)
            if norm_try < norm:
                break
            lam *= DAMPING
        else:
            flag = "stalled"
            break
        x, s, r, norm = x_try, s_try, r_try, norm_try
        steps.append(lam)
    return SolveTrace(flag, s, sup, l2, steps)
