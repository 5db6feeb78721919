"""Torus-symmetry reduction of non-Kahler Bismut-Hermitian-Einstein models.

Splits a model along the commuting unit Killing fields V, JV generated by
the Lee form, produces the principal curvatures F_V, F_JV and the
transverse Hermitian data, and verifies the component identities relating
Bismut curvature, Riemann curvature, torsion derivatives and principal
curvatures.  The converse direction rebuilds a six-dimensional model from
four-dimensional transverse data.

Transverse curvature is obtained from the submersion correction

    R^T(X,Y,Z,W) = R(X,Y,Z,W) - 1/2 <v[X,Y], v[Z,W]>
                   + 1/4 <v[X,W], v[Y,Z]> - 1/4 <v[X,Z], v[Y,W]>,

with v the vertical part of the bracket; this is the classical O'Neill
correction in our curvature sign convention (it has all curvature
symmetries, satisfies the first Bianchi identity, and reduces to
K_base = K_total + (3/4)|v[X,Y]|^2 on sections).

Each derived object is computed once and shared by every suite.  The parent
model caches its own geometry (``r.parent.lc``, ``r.parent.H``,
``r.parent.bismut_curvature``, ...), and the reduction caches the horizontal
components of F_V, F_JV, H^T and omega_T (``r.fv``, ``r.fjv``, ``r.ht``,
``r.omega_h``), the derivatives ``r.d_omega_T`` and ``r.dF``, and the
transverse curvature and connection (``r.R_T``, ``r.gamma_T``).  Each
restriction of a parent tensor to the adapted frame (horizontal frame and
vertical fields) is one call of ``forms.pullback``, which contracts one slot
per matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .forms import (
    FormTensor,
    MetricFrame,
    interior_product,
    j_conjugate,
    norm2,
    pullback,
    type_decompose,
    wedge,
)
from .frame_geometry import (
    BHE_TOL,
    HermitianModel,
    KahlerInputError,
    StructureAlgebra,
    ValidationError,
    _read_only,
    bhe_residual,
    covariant_derivative,
    exterior_derivative,
    scale_metric,
)
from .report import Report


@dataclass(frozen=True)
class ReductionData:
    """The torus-reduction package of a non-Kahler BHE model.

    All forms live on the (rescaled) parent frame; `horizontal` holds an
    orthonormal basis of the horizontal distribution as columns.
    """

    parent: HermitianModel
    V: np.ndarray
    JV: np.ndarray
    eta: FormTensor
    Jeta: FormTensor
    F_V: FormTensor
    F_JV: FormTensor
    omega_T: FormTensor
    omega_V: FormTensor
    H_T: FormTensor
    g_T: np.ndarray
    f: float
    horizontal: np.ndarray

    @property
    def dim(self) -> int:
        return self.parent.dim

    # Derived data, each computed once on first use and read-only.  The
    # horizontal components are in the orthonormal frame `horizontal`.

    @cached_property
    def fv(self) -> np.ndarray:
        E = self.horizontal
        return _read_only(pullback(self.F_V.components, E, E))

    @cached_property
    def fjv(self) -> np.ndarray:
        E = self.horizontal
        return _read_only(pullback(self.F_JV.components, E, E))

    @cached_property
    def ht(self) -> np.ndarray:
        E = self.horizontal
        return _read_only(pullback(self.H_T.components, E, E, E))

    @cached_property
    def omega_h(self) -> np.ndarray:
        E = self.horizontal
        return _read_only(pullback(self.omega_T.components, E, E))

    @cached_property
    def d_omega_T(self) -> FormTensor:
        return _read_only(exterior_derivative(self.omega_T, self.parent.algebra))

    @cached_property
    def dF(self) -> tuple[FormTensor, FormTensor]:
        """(d F_V, d F_JV) on the parent frame."""
        alg = self.parent.algebra
        return _read_only((exterior_derivative(self.F_V, alg), exterior_derivative(self.F_JV, alg)))

    @cached_property
    def R_T(self) -> np.ndarray:
        """Transverse curvature (see transverse_curvature)."""
        return _read_only(transverse_curvature(self))

    @cached_property
    def gamma_T(self) -> np.ndarray:
        """Transverse connection (see transverse_connection)."""
        return _read_only(transverse_connection(self))

    def to_dict(self) -> dict:
        def form_entries(b: FormTensor) -> list:
            comp = b.components
            out = []
            for idx in np.argwhere(comp != 0.0):
                tup = tuple(int(i) for i in idx)
                if all(tup[i] < tup[i + 1] for i in range(len(tup) - 1)):
                    out.append([*tup, float(comp[tup])])
            return out

        return {
            "name": self.parent.name,
            "dim": self.dim,
            "V": [float(x) for x in self.V],
            "JV": [float(x) for x in self.JV],
            "f": float(self.f),
            "eta": form_entries(self.eta),
            "Jeta": form_entries(self.Jeta),
            "F_V": form_entries(self.F_V),
            "F_JV": form_entries(self.F_JV),
            "omega_T": form_entries(self.omega_T),
            "omega_V": form_entries(self.omega_V),
            "H_T": form_entries(self.H_T),
            "g_T": [float(x) for x in self.g_T.ravel()],
        }


def _horizontal_frame(m: HermitianModel, V: np.ndarray, JV: np.ndarray) -> np.ndarray:
    """Deterministic g-orthonormal basis of the complement of span(V, JV)."""
    g = m.metric.g
    # each basis vector b with b @ g and b @ g @ b, both evaluated left to right
    basis = []
    for b in (V, JV):
        bg = b @ g
        basis.append((b, bg, bg @ b))
    cols = []
    for k in range(m.dim):
        cand = np.zeros(m.dim)
        cand[k] = 1.0
        for b, bg, bgb in basis:
            cand = cand - (bg @ cand) / bgb * b
        nrm2 = cand @ g @ cand
        if nrm2 > 1e-8:
            cand = cand / np.sqrt(nrm2)
            bg = cand @ g
            basis.append((cand, bg, bg @ cand))
            cols.append(cand)
        if len(cols) == m.dim - 2:
            break
    if len(cols) != m.dim - 2:
        raise ValidationError("failed to build a horizontal orthonormal frame")
    return np.stack(cols, axis=1)


def reduce(m: HermitianModel) -> ReductionData:
    """Split a BHE model along its canonical torus symmetry.

    Rescales the metric so the Lee vector field has unit length; rejects
    Kahler input (vanishing Lee vector field) and models that are not
    Bismut-Ricci-flat to within `BHE_TOL`.
    """
    res = bhe_residual(m)
    if res > BHE_TOL:
        raise ValidationError(f"model is not BHE (|rho_B| = {res:.3e} > {BHE_TOL:.1e})")
    V0 = m.V
    nrm2 = float(V0 @ m.metric.g @ V0)
    if nrm2 < 1e-12:
        raise KahlerInputError("V vanishes: the model is Kahler Calabi-Yau")
    if abs(nrm2 - 1.0) > 1e-13:
        m = scale_metric(m, nrm2)
    g = m.metric.g
    V = m.V  # f constant on invariant frames, so V = theta#
    JV = m.J @ V
    eta = FormTensor._of(1, m.dim, g @ V)
    Jeta = FormTensor._of(1, m.dim, g @ JV)

    F_V = exterior_derivative(eta, m.algebra)
    F_JV = exterior_derivative(Jeta, m.algebra)
    omega_V = wedge(eta, Jeta)
    omega_T = m.omega - omega_V

    P = np.eye(m.dim) - np.outer(V, eta.components) - np.outer(JV, Jeta.components)
    H_T = j_conjugate(m.H, P)  # pullback through the horizontal projector
    g_T = g - np.outer(eta.components, eta.components) - np.outer(
        Jeta.components, Jeta.components
    )
    r = ReductionData(
        parent=m, V=V, JV=JV, eta=eta, Jeta=Jeta, F_V=F_V, F_JV=F_JV,
        omega_T=omega_T, omega_V=omega_V, H_T=H_T, g_T=g_T, f=m.f,
        horizontal=_horizontal_frame(m, V, JV),
    )

    # structural invariants of the reduction
    checks = {
        "unit_V": abs(V @ g @ V - 1.0),
        "unit_JV": abs(JV @ g @ JV - 1.0),
        "orthogonal_V_JV": abs(V @ g @ JV),
        "eta_V": abs(float(eta.components @ V) - 1.0),
        "eta_JV": abs(float(eta.components @ JV)),
    }
    for name, F, dF in (("F_V", F_V, r.dF[0]), ("F_JV", F_JV, r.dF[1])):
        checks[f"{name}_horizontal"] = max(
            interior_product(V, F).sup_norm(), interior_product(JV, F).sup_norm()
        )
        checks[f"{name}_type11"] = type_decompose(F, m.J)[1].sup_norm()
        checks[f"{name}_closed"] = dF.sup_norm()
    bad = {k: v for k, v in checks.items() if not v <= 1e-12}
    if bad:
        raise ValidationError(f"reduction invariants violated: {bad}")
    return r


# ---------------------------------------------------------------------------
# residual suites
# ---------------------------------------------------------------------------


def torsion_split_residual(r: ReductionData) -> Report:
    """H = H^T + (J F_V) ^ eta + (J F_JV) ^ Jeta, checked componentwise."""
    m = r.parent
    H = m.H
    JF_V = j_conjugate(r.F_V, m.J)
    JF_JV = j_conjugate(r.F_JV, m.J)
    recon = r.H_T + wedge(JF_V, r.eta) + wedge(JF_JV, r.Jeta)
    rep = Report("torsion_split")
    rep.record("torsion_split", (H - recon).sup_norm())
    return rep


def p3_residuals(r: ReductionData) -> Report:
    """Conformally-balanced, Hermitian-Yang-Mills trace, and anomaly checks.

    The transverse Lee form and the principal traces are full double sums
    against omega_T over the horizontal frame.
    """
    m = r.parent
    rep = Report("reduction_structure")
    E, om = r.horizontal, r.omega_h
    d_h = pullback(r.d_omega_T.components, E, E, E)
    lee_T = 0.5 * om.ravel() @ d_h.reshape(om.size, -1)
    rep.record("transverse_lee_is_df", np.abs(lee_T).max())
    rep.record("principal_trace_V", float((om * r.fv).sum()))
    tr_jv = float((om * r.fjv).sum())
    rep.record("principal_trace_JV", tr_jv + 2.0, note=f"tr = {tr_jv!r}")
    dc_omega_T = -1.0 * j_conjugate(r.d_omega_T, m.J)
    ddc = exterior_derivative(dc_omega_T, m.algebra)
    anomaly = ddc - wedge(r.F_V, r.F_V) - wedge(r.F_JV, r.F_JV)
    rep.record("anomaly_cancellation", anomaly.sup_norm())
    return rep


def transverse_curvature(r: ReductionData) -> np.ndarray:
    """R^T in the horizontal orthonormal frame via the submersion correction."""
    E = r.horizontal
    RMh = pullback(r.parent.lc_curvature.R, E, E, E, E)
    # Q[i,j,k,l] = <v[E_i,E_j], v[E_k,E_l]> from the principal curvatures
    fv, fjv = r.fv, r.fjv
    Q = np.einsum("ij,kl->ijkl", fv, fv) + np.einsum("ij,kl->ijkl", fjv, fjv)
    return (
        RMh
        - 0.5 * Q
        + 0.25 * np.einsum("iljk->ijkl", Q)
        - 0.25 * np.einsum("ikjl->ijkl", Q)
    )


def transverse_connection(r: ReductionData) -> np.ndarray:
    """Levi-Civita coefficients of g^T in the horizontal orthonormal frame."""
    E = r.horizontal
    return pullback(r.parent.lc.gamma, E, E, E)


def dilaton_scalar(r: ReductionData) -> float:
    """(1/6)|H^T|^2 + (1/2)|F|^2 + Lap f - |grad f|^2 (f constant here)."""
    ht, fv, fjv = r.ht, r.fv, r.fjv
    return float((ht * ht).sum() / 6.0 + 0.5 * ((fv * fv).sum() + (fjv * fjv).sum()))


def einstein_maxwell_residual(r: ReductionData) -> Report:
    """The twisted Einstein-Maxwell system of the transverse geometry.

    The dilaton (1/6)|H^T|^2 + (1/2)|F|^2 = (1/6)|H|^2 is the constant 1:
    (1/6)|H|^2 = |V|^2 on a BHE model, and `reduce` rescales to |V| = 1.
    ``dilaton_constancy`` records the distance to 1.
    """
    rep = Report("einstein_maxwell")
    RcT = np.einsum("ijki->jk", r.R_T)
    ht, fv, fjv = r.ht, r.fv, r.fjv
    ht2 = np.einsum("ipq,jpq->ij", ht, ht)
    F2 = fv @ fv.T + fjv @ fjv.T  # <i_X F, i_Y F> summed over both curvatures
    rep.record(
        "einstein_maxwell_symmetric",
        np.abs(RcT - 0.25 * ht2 - F2).max(),
        note="eigenvalues of Rc^T: " + repr([round(x, 12) for x in np.linalg.eigvalsh(RcT)]),
    )
    rep.record("principal_closed_V", r.dF[0].sup_norm())
    rep.record("principal_closed_JV", r.dF[1].sup_norm())

    gammaT = r.gamma_T
    for label, F in (("V", fv), ("JV", fjv)):
        nab = _kernels.connection_core(gammaT, F)
        dstar = -np.einsum("aab->b", nab)
        twist = -0.5 * np.einsum("jab,ab->j", ht, F)
        rep.record(f"principal_coclosed_{label}", np.abs(dstar + twist).max())

    value = dilaton_scalar(r)
    rep.record("dilaton_constancy", value - 1.0, note=f"value = {value!r}")
    return rep


def lemma_suite(r: ReductionData) -> Report:
    """Componentwise curvature/torsion identities in the adapted frame.

    Left sides come from the parent curvature tensors (Levi-Civita and
    Bismut), right sides from principal-curvature quadratics and transverse
    data, so each identity is checked across independent code paths.
    """
    m = r.parent
    if m.dim != 6:
        raise ValidationError("component identity suite requires a six-dimensional model")
    rep = Report("component_identities")
    E, V, JV = r.horizontal, r.V, r.JV
    lc, gb = m.lc, m.bismut
    RM, RB = m.lc_curvature.R, m.bismut_curvature.R
    H = m.H
    fv, fjv, ht = r.fv, r.fjv, r.ht

    # vertical Christoffel rows of the Bismut connection equal F components
    nab_eta_B = covariant_derivative(r.eta.components, gb)
    nab_jeta_B = covariant_derivative(r.Jeta.components, gb)
    for label, nab, vert, F in (
        ("V", nab_eta_B, V, fv),
        ("JV", nab_jeta_B, JV, fjv),
    ):
        lhs = pullback(nab, E, E) + pullback(H.components, vert, E, E)
        rep.record(f"vertical_christoffel_{label}", np.abs(lhs - F).max())

    # horizontal block of the Bismut curvature
    RBh = pullback(RB, E, E, E, E)
    RT = r.R_T
    gammaT = r.gamma_T
    nab_ht = _kernels.connection_core(gammaT, ht)
    ht_terms = (
        nab_ht
        - np.transpose(nab_ht, (1, 0, 2, 3))
        + 0.5 * np.einsum("jkm,iml->ijkl", ht, ht)
        - 0.5 * np.einsum("ikm,jml->ijkl", ht, ht)
    )
    rhs_h = (
        RT
        + np.einsum("ij,kl->ijkl", fv, fv)
        + np.einsum("ij,kl->ijkl", fjv, fjv)
        + 0.5 * ht_terms
    )
    rep.record("curvature_horizontal_block", np.abs(RBh - rhs_h).max())

    # vertical-pair block: R^B(V, JV, ., .) against the F commutator
    lhs_vp = pullback(RB, V, JV, E, E)
    rhs_vp = fv @ fjv.T - fjv @ fv.T
    rep.record("curvature_vertical_pair_block", np.abs(lhs_vp - rhs_vp).max())

    # mixed block: R^B(V, X, Y, Z) = -(nabla^B_X F_V)(Y, Z)
    RB_mixed = {"V": pullback(RB, V, E, E, E), "JV": pullback(RB, JV, E, E, E)}
    for label, F in (("V", r.F_V), ("JV", r.F_JV)):
        lhs = RB_mixed[label]
        nabF = covariant_derivative(F.components, gb)
        rhs = -pullback(nabF, E, E, E)
        rep.record(f"curvature_mixed_block_{label}", np.abs(lhs - rhs).max())

    # torsion covariant-derivative components (Levi-Civita connection)
    nabH = covariant_derivative(H.components, lc)
    for label, vert, F in (("V", V, r.F_V), ("JV", JV, r.F_JV)):
        lhs = pullback(nabH, E, vert, E, E)
        nabF = covariant_derivative(F.components, lc)
        rhs = pullback(nabF, E, E, E)
        rep.record(f"torsion_derivative_principal_{label}", np.abs(lhs - rhs).max())
    lhs_52 = pullback(nabH, E, V, JV, E)
    rhs_52 = -0.5 * lhs_vp
    rep.record("torsion_derivative_vertical_pair", np.abs(lhs_52 - rhs_52).max())
    lhs_53 = pullback(nabH, V, JV, E, E)
    rep.record("torsion_derivative_vertical_direction", np.abs(lhs_53 - 0.5 * lhs_vp).max())

    # Riemann curvature against Bismut curvature
    for label, vert in (("V", V), ("JV", JV)):
        lhsR = pullback(RM, vert, E, E, E)
        rep.record(f"riemann_vs_bismut_mixed_{label}", np.abs(lhsR - 0.5 * RB_mixed[label]).max())
    lhs_62 = pullback(RM, V, JV, E, E)
    rep.record("riemann_vs_bismut_vertical_pair", np.abs(lhs_62 - 0.25 * lhs_vp).max())
    lhs_63 = pullback(RM, V, E, E, JV)
    rhs_63 = 0.25 * np.einsum("jk,ik->ij", fv, fjv)
    rep.record("riemann_mixed_vertical_pair", np.abs(lhs_63 - rhs_63).max())
    rep.record("riemann_vertical_pair_vanishes", np.abs(lhs_62).max())

    # constant principal-curvature norms and the unit norm identity
    a2 = float((fv * fv).sum())
    gamma_h = fjv + 0.5 * r.omega_h
    g2 = float((gamma_h * gamma_h).sum())
    rep.record(
        "principal_norm_identity",
        a2 + g2 - 1.0,
        note=f"|F_V|^2 = {a2!r}, |F_JV|^2 = {float((fjv * fjv).sum())!r}",
    )
    return rep


def identity_suite(r: ReductionData, name: str = "") -> Report:
    """Every reduction check that applies to r, as one report of that name.

    The torsion split, P3 and Einstein-Maxwell suites, and on a six-dimensional
    model the component lemma suite.
    """
    rep = Report(name)
    rep.merge(torsion_split_residual(r))
    rep.merge(p3_residuals(r))
    rep.merge(einstein_maxwell_residual(r))
    if r.dim == 6:
        rep.merge(lemma_suite(r))
    return rep


# ---------------------------------------------------------------------------
# assembly of total spaces from transverse data
# ---------------------------------------------------------------------------


def transverse_package(r: ReductionData) -> tuple[HermitianModel, FormTensor, FormTensor, float]:
    """Transverse model plus principal curvatures, in the horizontal frame."""
    E = r.horizontal
    hd = E.shape[1]
    g = r.parent.metric.g
    # horizontal part of horizontal brackets, expanded in the orthonormal frame
    cH = pullback(r.parent.algebra.c, E, E, g @ E)
    J4 = E.T @ g @ (r.parent.J @ E)  # component of J E_j along E_i
    model = HermitianModel(
        StructureAlgebra(cH), MetricFrame(np.eye(hd)), J4, f=r.f,
        name=f"{r.parent.name}-transverse",
    )
    F_V4 = FormTensor(2, hd, r.fv)
    F_JV4 = FormTensor(2, hd, r.fjv)
    return model, F_V4, F_JV4, r.f


def assemble(
    transverse: HermitianModel, F_V: FormTensor, F_JV: FormTensor, f: float = 0.0
) -> HermitianModel:
    """Total model over four-dimensional transverse data with curvatures F.

    Horizontal brackets acquire the vertical components -F_V(.,.) V
    - F_JV(.,.) JV; the vertical fields act on the horizontal frame through
    the endomorphisms F# dual to the curvatures.  A pure central extension
    ([e_i, V] = 0) cannot carry curved transverse geometry with constant
    structure data, and the F#-twist is exactly what invariance of the frame
    under the torus flow demands; the Jacobi validator rejects incompatible
    curvature pairs.
    """
    hd = transverse.dim
    if hd != 4:
        raise ValidationError("assembly expects four-dimensional transverse data")
    for label, F in (("F_V", F_V), ("F_JV", F_JV)):
        if F.degree != 2 or F.dim != hd:
            raise ValidationError(f"{label} must be a transverse 2-form")
        if exterior_derivative(F, transverse.algebra).sup_norm() > 1e-12:
            raise ValidationError(f"{label} is not closed over the transverse algebra")
        if type_decompose(F, transverse.J)[1].sup_norm() > 1e-12:
            raise ValidationError(f"{label} is not of type (1,1)")
    n = hd + 2
    iv, ijv = hd, hd + 1
    ginv4 = transverse.metric.inv
    sharp_v = F_V.components @ ginv4.T
    sharp_jv = F_JV.components @ ginv4.T
    c = np.zeros((n, n, n))
    c[:hd, :hd, :hd] = transverse.algebra.c
    c[:hd, :hd, iv] = -F_V.components
    c[:hd, :hd, ijv] = -F_JV.components
    c[:hd, iv, :hd] = sharp_v
    c[iv, :hd, :hd] = -sharp_v
    c[:hd, ijv, :hd] = sharp_jv
    c[ijv, :hd, :hd] = -sharp_jv
    try:
        algebra = StructureAlgebra(c)
    except ValidationError as exc:
        raise ValidationError(f"assembled brackets violate the Jacobi identity: {exc}") from exc
    g = np.zeros((n, n))
    g[:hd, :hd] = transverse.metric.g
    g[iv, iv] = g[ijv, ijv] = 1.0
    J = np.zeros((n, n))
    J[:hd, :hd] = transverse.J
    J[ijv, iv] = 1.0
    J[iv, ijv] = -1.0
    return HermitianModel(algebra, MetricFrame(g), J, f=f, name="assembled")


# ---------------------------------------------------------------------------
# frame-isomorphism fingerprints
# ---------------------------------------------------------------------------


def curvature_operator_spectrum(m: HermitianModel) -> np.ndarray:
    """Sorted eigenvalues of the Riemann curvature operator on 2-forms."""
    E = m.orthonormal_frame()
    Ron = pullback(m.lc_curvature.R, E, E, E, E)
    n = m.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    M = np.empty((len(pairs), len(pairs)))
    for p, (a, b) in enumerate(pairs):
        for q, (cc, d) in enumerate(pairs):
            M[p, q] = Ron[a, b, cc, d]
    return np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))


def scalar_signature(m: HermitianModel) -> dict[str, float]:
    """Frame-independent scalars used when comparing assembled models."""
    return {
        "lee_norm2": norm2(m.theta, m.metric),
        "torsion_norm2": norm2(m.H, m.metric),
        "bhe_residual": bhe_residual(m),
        "f": float(m.f),
    }
