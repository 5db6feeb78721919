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

The suites share the parent's cached geometry (``r.parent.geometry``): the
Levi-Civita and Bismut connections, their curvatures and the torsion are
computed once per model, and the transverse curvature and connection once
per reduction (``r.R_T``, ``r.gamma_T``).  Restrictions of parent tensors
to the adapted frame (horizontal frame and vertical fields) are each one
call of ``forms.pullback``, which contracts one slot per matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    ConnectionCoeffs,
    HermitianModel,
    KahlerInputError,
    StructureAlgebra,
    ValidationError,
    _read_only,
    bhe_residual,
    change_frame,
    covariant_derivative,
    exterior_derivative,
    lee_form,
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

    @property
    def hdim(self) -> int:
        return self.horizontal.shape[1]

    @cached_property
    def R_T(self) -> np.ndarray:
        """Transverse curvature, computed once (see transverse_curvature)."""
        return _read_only(transverse_curvature(self))

    @cached_property
    def gamma_T(self) -> np.ndarray:
        """Transverse connection, computed once (see transverse_connection)."""
        return _read_only(transverse_connection(self))

    def restrict2(self, b: FormTensor) -> np.ndarray:
        """Components of a parent 2-form in the horizontal orthonormal frame."""
        E = self.horizontal
        return pullback(b.components, E, E)

    def restrict3(self, b: FormTensor) -> np.ndarray:
        E = self.horizontal
        return pullback(b.components, E, E, E)

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
    basis = [V, JV]
    cols = []
    for k in range(m.dim):
        cand = np.zeros(m.dim)
        cand[k] = 1.0
        for b in basis:
            cand = cand - (b @ g @ cand) / (b @ g @ b) * b
        nrm2 = cand @ g @ cand
        if nrm2 > 1e-8:
            cand = cand / np.sqrt(nrm2)
            basis.append(cand)
            cols.append(cand)
        if len(cols) == m.dim - 2:
            break
    if len(cols) != m.dim - 2:
        raise ValidationError("failed to build a horizontal orthonormal frame")
    return np.stack(cols, axis=1)


def reduce(m: HermitianModel, bhe_tol: float = 1e-10) -> ReductionData:
    """Split a BHE model along its canonical torus symmetry.

    Rescales the metric so the Lee vector field has unit length; rejects
    Kahler input (vanishing Lee vector field) and models that are not
    Bismut-Ricci-flat to within `bhe_tol`.
    """
    res = bhe_residual(m)
    if res > bhe_tol:
        raise ValidationError(f"model is not BHE (|rho_B| = {res:.3e} > {bhe_tol:.1e})")
    V0 = m.geometry.V
    nrm2 = float(V0 @ m.metric.g @ V0)
    if nrm2 < 1e-12:
        raise KahlerInputError("V vanishes: the model is Kahler Calabi-Yau")
    if abs(nrm2 - 1.0) > 1e-13:
        m = scale_metric(m, nrm2)
    g = m.metric.g
    geo = m.geometry
    V = geo.V  # f constant on invariant frames, so V = theta#
    JV = m.J @ V
    eta = FormTensor._of(1, m.dim, g @ V)
    Jeta = FormTensor._of(1, m.dim, g @ JV)

    F_V = exterior_derivative(eta, m.algebra)
    F_JV = exterior_derivative(Jeta, m.algebra)
    omega = geo.omega
    omega_V = wedge(eta, Jeta)
    omega_T = omega - omega_V

    H = geo.H
    P = np.eye(m.dim) - np.outer(V, eta.components) - np.outer(JV, Jeta.components)
    H_T = j_conjugate(H, P)  # pullback through the horizontal projector
    g_T = g - np.outer(eta.components, eta.components) - np.outer(
        Jeta.components, Jeta.components
    )

    # structural invariants of the reduction
    checks = {
        "unit_V": abs(V @ g @ V - 1.0),
        "unit_JV": abs(JV @ g @ JV - 1.0),
        "orthogonal_V_JV": abs(V @ g @ JV),
        "eta_V": abs(float(eta.components @ V) - 1.0),
        "eta_JV": abs(float(eta.components @ JV)),
    }
    for name, F in (("F_V", F_V), ("F_JV", F_JV)):
        checks[f"{name}_horizontal"] = max(
            interior_product(V, F).sup_norm(), interior_product(JV, F).sup_norm()
        )
        checks[f"{name}_type11"] = type_decompose(F, m.J)[1].sup_norm()
        checks[f"{name}_closed"] = exterior_derivative(F, m.algebra).sup_norm()
    bad = {k: v for k, v in checks.items() if not v <= 1e-12}
    if bad:
        raise ValidationError(f"reduction invariants violated: {bad}")

    E = _horizontal_frame(m, V, JV)
    return ReductionData(
        parent=m, V=V, JV=JV, eta=eta, Jeta=Jeta, F_V=F_V, F_JV=F_JV,
        omega_T=omega_T, omega_V=omega_V, H_T=H_T, g_T=g_T, f=m.f, horizontal=E,
    )


# ---------------------------------------------------------------------------
# residual suites
# ---------------------------------------------------------------------------


def torsion_split_residual(r: ReductionData) -> Report:
    """H = H^T + (J F_V) ^ eta + (J F_JV) ^ Jeta, checked componentwise."""
    m = r.parent
    H = m.geometry.H
    JF_V = j_conjugate(r.F_V, m.J)
    JF_JV = j_conjugate(r.F_JV, m.J)
    recon = r.H_T + wedge(JF_V, r.eta) + wedge(JF_JV, r.Jeta)
    rep = Report("torsion_split")
    rep.record("torsion_split", (H - recon).sup_norm())
    return rep


def _transverse_trace(r: ReductionData, b: FormTensor) -> float:
    """Full double-sum trace of b against omega_T over the horizontal frame."""
    om = r.restrict2(r.omega_T)
    return float(np.sum(om * r.restrict2(b)))


def transverse_lee_form(r: ReductionData) -> np.ndarray:
    """Lee form of the transverse Hermitian structure, horizontal components."""
    m = r.parent
    d_omega_T = exterior_derivative(r.omega_T, m.algebra)
    omega_up = r.restrict2(r.omega_T)
    d_h = r.restrict3(d_omega_T)
    return 0.5 * omega_up.ravel() @ d_h.reshape(omega_up.size, -1)


def p3_residuals(r: ReductionData) -> Report:
    """Conformally-balanced, Hermitian-Yang-Mills trace, and anomaly checks."""
    m = r.parent
    rep = Report("reduction_structure")
    rep.record("transverse_lee_is_df", np.max(np.abs(transverse_lee_form(r))))
    rep.record("principal_trace_V", _transverse_trace(r, r.F_V))
    tr_jv = _transverse_trace(r, r.F_JV)
    rep.record("principal_trace_JV", tr_jv + 2.0, note=f"tr = {tr_jv!r}")
    d_omega_T = exterior_derivative(r.omega_T, m.algebra)
    dc_omega_T = -1.0 * j_conjugate(d_omega_T, m.J)
    ddc = exterior_derivative(dc_omega_T, m.algebra)
    anomaly = ddc - wedge(r.F_V, r.F_V) - wedge(r.F_JV, r.F_JV)
    rep.record("anomaly_cancellation", anomaly.sup_norm())
    return rep


def _vertical_bracket_products(r: ReductionData) -> np.ndarray:
    """Q[i,j,k,l] = <v[E_i,E_j], v[E_k,E_l]> from the principal curvatures."""
    fv = r.restrict2(r.F_V)
    fjv = r.restrict2(r.F_JV)
    return np.einsum("ij,kl->ijkl", fv, fv) + np.einsum("ij,kl->ijkl", fjv, fjv)


def transverse_curvature(r: ReductionData) -> np.ndarray:
    """R^T in the horizontal orthonormal frame via the submersion correction."""
    RM = r.parent.geometry.lc_curvature.R
    E = r.horizontal
    RMh = pullback(RM, E, E, E, E)
    Q = _vertical_bracket_products(r)
    return (
        RMh
        - 0.5 * Q
        + 0.25 * np.einsum("iljk->ijkl", Q)
        - 0.25 * np.einsum("ikjl->ijkl", Q)
    )


def transverse_connection(r: ReductionData) -> np.ndarray:
    """Levi-Civita coefficients of g^T in the horizontal orthonormal frame."""
    E = r.horizontal
    return pullback(r.parent.geometry.lc.gamma, E, E, E)


def _transverse_covariant(gammaT: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(nabla^T_a T)_{b...} in the orthonormal horizontal frame."""
    out = np.zeros((gammaT.shape[0],) + T.shape)
    for slot in range(T.ndim):
        contr = np.tensordot(gammaT, T, axes=([2], [slot]))
        contr = np.moveaxis(contr, 1, slot + 1)
        out -= contr
    return out


def dilaton_scalar(r: ReductionData) -> float:
    """(1/6)|H^T|^2 + (1/2)|F|^2 + Lap f - |grad f|^2 (f constant here)."""
    ht = r.restrict3(r.H_T)
    fv = r.restrict2(r.F_V)
    fjv = r.restrict2(r.F_JV)
    return float(np.sum(ht * ht) / 6.0 + 0.5 * (np.sum(fv * fv) + np.sum(fjv * fjv)))


def einstein_maxwell_residual(r: ReductionData, frame_samples: int = 6) -> Report:
    """The twisted Einstein-Maxwell system of the transverse geometry."""
    m = r.parent
    rep = Report("einstein_maxwell")
    RT = r.R_T
    RcT = np.einsum("ijki->jk", RT)
    ht = r.restrict3(r.H_T)
    fv = r.restrict2(r.F_V)
    fjv = r.restrict2(r.F_JV)
    ht2 = np.einsum("ipq,jpq->ij", ht, ht)
    F2 = fv @ fv.T + fjv @ fjv.T  # <i_X F, i_Y F> summed over both curvatures
    rep.record(
        "einstein_maxwell_symmetric",
        np.max(np.abs(RcT - 0.25 * ht2 - F2)),
        note="eigenvalues of Rc^T: " + repr([round(x, 12) for x in np.linalg.eigvalsh(RcT)]),
    )
    rep.record("principal_closed_V", exterior_derivative(r.F_V, m.algebra).sup_norm())
    rep.record("principal_closed_JV", exterior_derivative(r.F_JV, m.algebra).sup_norm())

    gammaT = r.gamma_T
    for label, F in (("V", fv), ("JV", fjv)):
        nab = _transverse_covariant(gammaT, F)
        dstar = -np.einsum("aab->b", nab)
        twist = -0.5 * np.einsum("jab,ab->j", ht, F)
        rep.record(f"principal_coclosed_{label}", np.max(np.abs(dstar + twist)))

    base = dilaton_scalar(r)
    spread = 0.0
    rng = np.random.default_rng(12345)
    for _ in range(frame_samples):
        A = rng.standard_normal((m.dim, m.dim))
        S = A - A.T
        S = 0.5 * (S - m.J @ S @ m.J)  # commutes with J, stays skew
        Q = np.linalg.solve(np.eye(m.dim) - 0.5 * S, np.eye(m.dim) + 0.5 * S)
        m2 = change_frame(m, Q)
        r2 = reduce(m2)
        spread = max(spread, abs(dilaton_scalar(r2) - base))
    rep.record("dilaton_constancy", spread, note=f"value = {base!r}")
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
    geo = m.geometry
    lc, gb = geo.lc, geo.bismut
    RM, RB = geo.lc_curvature.R, geo.bismut_curvature.R
    H = geo.H
    fv, fjv = r.restrict2(r.F_V), r.restrict2(r.F_JV)
    ht = r.restrict3(r.H_T)

    # vertical Christoffel rows of the Bismut connection equal F components
    nab_eta_B = covariant_derivative(r.eta.components, gb)
    nab_jeta_B = covariant_derivative(r.Jeta.components, gb)
    for label, nab, vert, F in (
        ("V", nab_eta_B, V, fv),
        ("JV", nab_jeta_B, JV, fjv),
    ):
        lhs = pullback(nab, E, E) + pullback(H.components, vert, E, E)
        rep.record(f"vertical_christoffel_{label}", np.max(np.abs(lhs - F)))

    # horizontal block of the Bismut curvature
    RBh = pullback(RB, E, E, E, E)
    RT = r.R_T
    gammaT = r.gamma_T
    nab_ht = _transverse_covariant(gammaT, ht)
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
    rep.record("curvature_horizontal_block", np.max(np.abs(RBh - rhs_h)))

    # vertical-pair block: R^B(V, JV, ., .) against the F commutator
    lhs_vp = pullback(RB, V, JV, E, E)
    rhs_vp = fv @ fjv.T - fjv @ fv.T
    rep.record("curvature_vertical_pair_block", np.max(np.abs(lhs_vp - rhs_vp)))

    # mixed block: R^B(V, X, Y, Z) = -(nabla^B_X F_V)(Y, Z)
    for label, vert, F in (("V", V, r.F_V), ("JV", JV, r.F_JV)):
        lhs = pullback(RB, vert, E, E, E)
        nabF = covariant_derivative(F.components, gb)
        rhs = -pullback(nabF, E, E, E)
        rep.record(f"curvature_mixed_block_{label}", np.max(np.abs(lhs - rhs)))

    # torsion covariant-derivative components (Levi-Civita connection)
    nabH = covariant_derivative(H.components, lc)
    for label, vert, F in (("V", V, r.F_V), ("JV", JV, r.F_JV)):
        lhs = pullback(nabH, E, vert, E, E)
        nabF = covariant_derivative(F.components, lc)
        rhs = pullback(nabF, E, E, E)
        rep.record(f"torsion_derivative_principal_{label}", np.max(np.abs(lhs - rhs)))
    lhs_52 = pullback(nabH, E, V, JV, E)
    rhs_52 = -0.5 * lhs_vp
    rep.record("torsion_derivative_vertical_pair", np.max(np.abs(lhs_52 - rhs_52)))
    lhs_53 = pullback(nabH, V, JV, E, E)
    rep.record("torsion_derivative_vertical_direction", np.max(np.abs(lhs_53 - 0.5 * lhs_vp)))

    # Riemann curvature against Bismut curvature
    for label, vert in (("V", V), ("JV", JV)):
        lhsR = pullback(RM, vert, E, E, E)
        lhsB = pullback(RB, vert, E, E, E)
        rep.record(f"riemann_vs_bismut_mixed_{label}", np.max(np.abs(lhsR - 0.5 * lhsB)))
    lhs_62 = pullback(RM, V, JV, E, E)
    rep.record("riemann_vs_bismut_vertical_pair", np.max(np.abs(lhs_62 - 0.25 * lhs_vp)))
    lhs_63 = pullback(RM, V, E, E, JV)
    rhs_63 = 0.25 * np.einsum("jk,ik->ij", fv, fjv)
    rep.record("riemann_mixed_vertical_pair", np.max(np.abs(lhs_63 - rhs_63)))
    rep.record("riemann_vertical_pair_vanishes", np.max(np.abs(lhs_62)))

    # constant principal-curvature norms and the unit norm identity
    a2 = float(np.sum(fv * fv))
    omega_h = r.restrict2(r.omega_T)
    gamma_h = fjv + 0.5 * omega_h
    g2 = float(np.sum(gamma_h * gamma_h))
    rep.record(
        "principal_norm_identity",
        a2 + g2 - 1.0,
        note=f"|F_V|^2 = {a2!r}, |F_JV|^2 = {float(np.sum(fjv * fjv))!r}",
    )
    return rep


# ---------------------------------------------------------------------------
# assembly of total spaces from transverse data
# ---------------------------------------------------------------------------


def transverse_package(r: ReductionData) -> tuple[HermitianModel, FormTensor, FormTensor, float]:
    """Transverse model plus principal curvatures, in the horizontal frame."""
    E = r.horizontal
    hd = r.hdim
    g = r.parent.metric.g
    # horizontal part of horizontal brackets, expanded in the orthonormal frame
    cH = pullback(r.parent.algebra.c, E, E, g @ E)
    J4 = E.T @ g @ (r.parent.J @ E)  # component of J E_j along E_i
    model = HermitianModel(
        StructureAlgebra(cH), MetricFrame(np.eye(hd)), J4, f=r.f,
        name=f"{r.parent.name}-transverse",
    )
    F_V4 = FormTensor(2, hd, r.restrict2(r.F_V))
    F_JV4 = FormTensor(2, hd, r.restrict2(r.F_JV))
    return model, F_V4, F_JV4, r.f


def assemble(
    transverse: HermitianModel, F_V: FormTensor, F_JV: FormTensor, f: float = 0.0,
    name: str = "assembled",
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
    return HermitianModel(algebra, MetricFrame(g), J, f=f, name=name)


# ---------------------------------------------------------------------------
# frame-isomorphism fingerprints
# ---------------------------------------------------------------------------


def curvature_operator_spectrum(m: HermitianModel) -> np.ndarray:
    """Sorted eigenvalues of the Riemann curvature operator on 2-forms."""
    E = m.orthonormal_frame()
    Ron = pullback(m.geometry.lc_curvature.R, E, E, E, E)
    n = m.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    M = np.empty((len(pairs), len(pairs)))
    for p, (a, b) in enumerate(pairs):
        for q, (cc, d) in enumerate(pairs):
            M[p, q] = Ron[a, b, cc, d]
    return np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))


def scalar_signature(m: HermitianModel) -> dict[str, float]:
    """Frame-independent scalars used when comparing assembled models."""
    theta = lee_form(m)
    H = m.geometry.H
    return {
        "lee_norm2": norm2(theta, m.metric),
        "torsion_norm2": norm2(H, m.metric),
        "bhe_residual": bhe_residual(m),
        "f": float(m.f),
    }
