"""Connection, curvature and identity tests on Lie-frame models."""

import itertools
import math

import numpy as np
import pytest

from bhe import catalog
from bhe.forms import FormTensor, MetricFrame
from bhe.frame_geometry import (
    ConnectionCoeffs,
    HermitianModel,
    StructureAlgebra,
    ValidationError,
    bhe_residual,
    bismut_connection,
    bismut_ricci_form,
    bismut_torsion,
    change_frame,
    covariant_derivative,
    curvature,
    exterior_derivative,
    gauduchon_residual,
    lee_form,
    lee_form_both,
    lee_vector,
    levi_civita,
    nijenhuis,
    ricci_tensor,
    verify_lrho,
)
from helpers import random_compatible_metric


def su2_algebra():
    c = np.zeros((3, 3, 3))
    for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[a, b, k] = 1.0
        c[b, a, k] = -1.0
    return StructureAlgebra(c)


def random_form(k, dim, rng):
    comp = rng.standard_normal((dim,) * k)
    out = np.zeros_like(comp)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        out += sign * np.transpose(comp, perm)
    return FormTensor(k, dim, out / math.factorial(k))


def bracket(alg, u, v):
    """[u, v] = u^a v^b c[a, b, m] e_m."""
    return np.einsum("abm,a,b->m", alg.c, u, v)


def koszul_oracle(m):
    """2 <nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>, by explicit loops."""
    n, g, alg = m.dim, m.metric.g, m.algebra
    gamma = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ea, eb, ec = np.eye(n)[a], np.eye(n)[b], np.eye(n)[c]
                gamma[a, b, c] = 0.5 * (
                    bracket(alg, ea, eb) @ g @ ec
                    - bracket(alg, eb, ec) @ g @ ea
                    + bracket(alg, ec, ea) @ g @ eb
                )
    return gamma


def curvature_oracle(conn, alg):
    """R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z, by explicit loops."""
    n = conn.dim
    G = conn.raised

    def nab(a, v):  # nabla_{e_a} of the constant-coefficient field v
        return np.einsum("bm,b->m", G[a], v)

    R = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ec = np.eye(n)[c]
                term = nab(a, nab(b, ec)) - nab(b, nab(a, ec))
                br = bracket(alg, np.eye(n)[a], np.eye(n)[b])
                term = term - np.einsum("e,ebm,b->m", br, G, ec)
                R[a, b, c] = term @ conn.metric.g
    return R


class TestExteriorDerivative:
    def test_abelian_kills_everything(self):
        alg = StructureAlgebra(np.zeros((4, 4, 4)))
        rng = np.random.default_rng(0)
        for k in (1, 2, 3):
            b = random_form(k, 4, rng)
            assert exterior_derivative(b, alg).sup_norm() == 0.0

    @pytest.mark.parametrize("model", ["su2xsu2", "hopf"])
    def test_zero_form_is_closed(self, model):
        # an invariant function is constant, so d of it is the zero 1-form
        alg = catalog.build_model(model).algebra
        d = exterior_derivative(FormTensor(0, alg.dim, np.array(2.5)), alg)
        assert d.degree == 1
        assert d.components.shape == (alg.dim,)
        assert np.array_equal(d.components, np.zeros(alg.dim))

    def test_su2_dual_one_form(self):
        # d sigma^1 = -sigma^2 ^ sigma^3 for the cyclic su(2) frame
        alg = su2_algebra()
        sigma1 = FormTensor(1, 3, np.array([1.0, 0.0, 0.0]))
        d = exterior_derivative(sigma1, alg)
        expect = np.zeros((3, 3))
        expect[1, 2] = -1.0
        expect[2, 1] = 1.0
        assert np.allclose(d.components, expect)

    def test_d_squared_zero_on_random_forms(self):
        m = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            b = random_form(k, 6, rng)
            dd = exterior_derivative(exterior_derivative(b, m.algebra), m.algebra)
            assert dd.sup_norm() < 1e-13

    def test_d_squared_zero_on_conjugated_algebras(self):
        # arbitrary linear frame changes of a valid algebra stay Jacobi-valid
        # and d must still square to zero on them
        base = catalog.build_model("su2xRxC").algebra
        rng = np.random.default_rng(6)
        for _ in range(5):
            S = rng.standard_normal((6, 6)) + 3 * np.eye(6)
            Sinv = np.linalg.inv(S)
            c = np.einsum("ap,bq,abk,rk->pqr", S, S, base.c, Sinv)
            alg = StructureAlgebra(c)
            b = random_form(2, 6, rng)
            dd = exterior_derivative(exterior_derivative(b, alg), alg)
            assert dd.sup_norm() < 1e-10 * max(1.0, np.max(np.abs(c)) ** 2)


class TestStructureValidation:
    def test_rejects_non_jacobi(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0
        c[1, 0, 2] = -1.0
        c[1, 2, 2] = 1.0
        c[2, 1, 2] = -1.0
        c[0, 2, 1] = 1.0
        c[2, 0, 1] = -1.0
        with pytest.raises(ValidationError):
            StructureAlgebra(c)

    def test_rejects_non_integrable_J(self):
        m = catalog.build_model("su2xsu2")
        J = np.zeros((6, 6))
        # pairing each direction with its mirror in the other factor is
        # almost complex but not integrable: N(e_0, e_1) = e_5 - e_2 != 0
        for a, b in ((0, 3), (1, 4), (2, 5)):
            J[b, a] = 1.0
            J[a, b] = -1.0
        assert np.max(np.abs(nijenhuis(m.algebra, J))) > 0.1
        with pytest.raises(ValidationError):
            HermitianModel(m.algebra, MetricFrame(np.eye(6)), J)


class TestConnections:
    def test_koszul_matches_oracle_on_random_metric(self):
        base = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(7)
        mf = random_compatible_metric(base.J, rng)
        m = HermitianModel(base.algebra, mf, base.J)
        assert np.allclose(levi_civita(m).gamma, koszul_oracle(m), atol=1e-12)

    def test_abelian_connection_vanishes(self):
        m = catalog.build_model("flat-torus")
        assert np.max(np.abs(levi_civita(m).gamma)) == 0.0

    def test_biinvariant_half_structure_constants(self):
        alg = su2_algebra()
        J = None  # no complex structure needed for this check
        g = MetricFrame(np.eye(3))
        c_low = np.einsum("abm,mc->abc", alg.c, g.g)
        gamma = 0.5 * (
            c_low - np.einsum("bca->abc", c_low) + np.einsum("cab->abc", c_low)
        )
        assert np.allclose(gamma, 0.5 * c_low)

    def test_metric_compatibility_residual(self):
        base = catalog.build_model("su2xRxC")
        rng = np.random.default_rng(13)
        mf = random_compatible_metric(base.J, rng)
        m = HermitianModel(base.algebra, mf, base.J)
        gamma = levi_civita(m).gamma
        assert np.max(np.abs(gamma + np.swapaxes(gamma, 1, 2))) < 1e-12

    def test_bismut_equals_levi_civita_on_kahler(self):
        m = catalog.build_model("flat-torus")
        assert np.allclose(bismut_connection(m).gamma, levi_civita(m).gamma)

    def test_bismut_is_hermitian_connection(self):
        # nabla^B omega = 0 pins the torsion sign on generic Hermitian models
        base = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(19)
        mf = random_compatible_metric(base.J, rng)
        m = HermitianModel(base.algebra, mf, base.J)
        gb = bismut_connection(m)
        nab = covariant_derivative(m.omega.components, gb)
        assert np.max(np.abs(nab)) < 1e-12
        nab_g = covariant_derivative(m.metric.g, gb)  # metric is parallel too
        assert np.max(np.abs(nab_g)) < 1e-12


class TestCurvature:
    def test_matches_definition_oracle(self):
        base = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(23)
        mf = random_compatible_metric(base.J, rng)
        m = HermitianModel(base.algebra, mf, base.J)
        conn = levi_civita(m)
        assert np.allclose(curvature(conn, m.algebra).R, curvature_oracle(conn, m.algebra), atol=1e-11)

    def test_abelian_flat(self):
        m = catalog.build_model("flat-torus")
        assert curvature(levi_civita(m), m.algebra).sup_norm() == 0.0

    def test_round_su2_sectional_curvature(self):
        # bi-invariant sectional curvature is |[X,Y]|^2/4 on orthonormal pairs
        alg = su2_algebra()
        g = MetricFrame(np.eye(3))
        gamma = ConnectionCoeffs(0.5 * np.einsum("abm,mc->abc", alg.c, g.g), g)
        R = curvature(gamma, alg).R
        for a, b in ((0, 1), (1, 2), (0, 2)):
            br = bracket(alg, np.eye(3)[a], np.eye(3)[b])
            assert R[a, b, b, a] == pytest.approx(0.25 * br @ br)

    def test_su2xsu2_bismut_flat(self):
        m = catalog.build_model("su2xsu2")
        RB = curvature(bismut_connection(m), m.algebra)
        assert RB.sup_norm() < 1e-14

    def test_biinvariant_torsion_connection_is_flat_pm_cartan(self):
        # Gamma + H/2 lands on one of the two flat connections {0, c_abc};
        # the calibrated torsion sign selects the zero one, the opposite
        # sign gives exactly the Cartan coefficients
        m = catalog.build_model("hopf")
        H = bismut_torsion(m)
        lc = levi_civita(m)
        gb = ConnectionCoeffs(lc.gamma + 0.5 * H.components, m.metric)
        assert np.max(np.abs(gb.gamma)) < 1e-14
        other = ConnectionCoeffs(lc.gamma - 0.5 * H.components, m.metric)
        c_low = np.einsum("abm,mc->abc", m.algebra.c, m.metric.g)
        assert np.allclose(other.gamma, c_low)
        assert curvature(other, m.algebra).sup_norm() < 1e-14

    def test_first_bianchi_levi_civita(self):
        base = catalog.build_model("su2xsu2")
        rng = np.random.default_rng(29)
        mf = random_compatible_metric(base.J, rng)
        m = HermitianModel(base.algebra, mf, base.J)
        R = curvature(levi_civita(m), m.algebra).R
        cyc = R + np.einsum("bcad->abcd", R) + np.einsum("cabd->abcd", R)
        assert np.max(np.abs(cyc)) < 1e-11

    def test_ricci_positive_on_round_sphere_frame(self):
        alg = su2_algebra()
        g = MetricFrame(np.eye(3))
        gamma = ConnectionCoeffs(0.5 * np.einsum("abm,mc->abc", alg.c, g.g), g)
        Rc = ricci_tensor(curvature(gamma, alg), g)
        assert np.allclose(Rc, 0.5 * np.eye(3))


class TestLeeForm:
    def test_flat_torus_balanced(self):
        m = catalog.build_model("flat-torus")
        assert lee_form(m).sup_norm() == 0.0

    def test_hopf_lee_dual_to_central_direction(self):
        m = catalog.build_model("hopf")
        theta = lee_form(m)
        expect = np.array([0.0, 0.0, 0.0, -1.0])
        assert np.allclose(theta.components, expect)

    def test_su2xsu2_constant_norm(self):
        m = catalog.build_model("su2xsu2")
        theta = lee_form(m)
        nrm = theta.components @ m.metric.inv @ theta.components
        assert nrm == pytest.approx(1.0)

    def test_formulas_agree_on_100_random_metrics(self):
        base = catalog.build_model("su2xsu2")
        worst = 0.0
        for seed in range(100):
            mf = random_compatible_metric(base.J, np.random.default_rng(seed))
            m = HermitianModel(base.algebra, mf, base.J)
            t1, t2 = lee_form_both(m)
            worst = max(worst, (t1 - t2).sup_norm())
        assert worst < 1e-12


class TestTorsion:
    def test_kahler_torsion_vanishes(self):
        m = catalog.build_model("flat-torus")
        assert bismut_torsion(m).sup_norm() == 0.0

    def test_hopf_torsion_is_signed_structure_form(self):
        m = catalog.build_model("hopf")
        H = bismut_torsion(m)
        expect = np.zeros((4, 4, 4))
        for perm in itertools.permutations((0, 1, 2)):
            sign = 1
            for a in range(3):
                for b in range(a + 1, 3):
                    if perm[a] > perm[b]:
                        sign = -sign
            expect[perm] = -sign
        assert np.allclose(H.components, expect)

    def test_pluriclosed_on_biinvariant_models(self):
        for name in ("su2xsu2", "su2xRxC", "hopf"):
            m = catalog.build_model(name)
            dH = exterior_derivative(bismut_torsion(m), m.algebra)
            assert dH.sup_norm() < 1e-14


class TestRicciFormAndIdentities:
    def test_catalog_models_bismut_ricci_flat(self):
        for name in ("su2xsu2", "su2xRxC", "hopf", "flat-torus"):
            assert bhe_residual(catalog.build_model(name)) < 1e-14

    def test_perturbed_metric_not_ricci_flat(self):
        m = catalog.build_model("perturbed-control")
        assert bhe_residual(m) > 1e-4

    def test_identity_on_all_pluriclosed_catalog_models(self):
        for name in ("su2xsu2", "su2xRxC", "hopf", "flat-torus"):
            rep = verify_lrho(catalog.build_model(name))
            assert rep.max_residual() < 1e-12, name

    def test_identity_on_rescaled_models(self):
        for lam in (0.5, 1.0, 2.5):
            m = catalog.build_model("su2xsu2")
            m = HermitianModel(m.algebra, MetricFrame(lam * m.metric.g), m.J)
            assert verify_lrho(m).max_residual() < 1e-12

    def test_identity_rejects_non_pluriclosed(self):
        m = catalog.build_model("perturbed-control")
        with pytest.raises(ValidationError):
            verify_lrho(m)

    def test_gauduchon_on_catalog(self):
        for name in ("su2xsu2", "su2xRxC", "hopf", "flat-torus"):
            assert gauduchon_residual(catalog.build_model(name)) < 1e-13

    def test_parallel_torsion_and_lee_field(self):
        for name in ("su2xsu2", "su2xRxC", "hopf"):
            m = catalog.build_model(name)
            gb = bismut_connection(m)
            H = bismut_torsion(m)
            assert np.max(np.abs(covariant_derivative(H.components, gb))) < 1e-13
            V = lee_vector(m)
            eta = m.metric.g @ V
            jeta = m.metric.g @ (m.J @ V)
            assert np.max(np.abs(covariant_derivative(eta, gb))) < 1e-13
            assert np.max(np.abs(covariant_derivative(jeta, gb))) < 1e-13


class TestFrameCovariance:
    def _conjugate(self, m, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m.dim, m.dim))
        S = A - A.T
        S = 0.5 * (S - m.J @ S @ m.J)
        Q = np.linalg.solve(np.eye(m.dim) - 0.5 * S, np.eye(m.dim) + 0.5 * S)
        return change_frame(m, Q)

    def test_scalars_invariant_under_orthogonal_frame_changes(self):
        m = catalog.build_model("su2xsu2")
        theta = lee_form(m)
        base = (
            float(theta.components @ m.metric.inv @ theta.components),
            bhe_residual(m),
            verify_lrho(m).max_residual(),
        )
        for seed in range(4):
            m2 = self._conjugate(m, seed)
            theta2 = lee_form(m2)
            vals = (
                float(theta2.components @ m2.metric.inv @ theta2.components),
                bhe_residual(m2),
                verify_lrho(m2).max_residual(),
            )
            assert np.allclose(vals, base, atol=1e-12)

    def test_ricci_form_zero_is_frame_independent(self):
        m = catalog.build_model("perturbed-control")
        base = bhe_residual(m)
        for seed in range(3):
            m2 = self._conjugate(m, seed)
            # sup norm is frame-dependent; positivity is not
            assert bhe_residual(m2) > 1e-4
        assert base > 1e-4


class TestBismutRicciForm:
    def test_vanishes_exactly_on_catalog_only(self):
        vals = {n: bhe_residual(catalog.build_model(n)) for n in catalog.MODEL_NAMES}
        for name in ("su2xsu2", "su2xRxC", "hopf", "flat-torus"):
            assert vals[name] < 1e-14
        assert vals["perturbed-control"] > 1e-4

    def test_form_is_antisymmetric(self):
        rho = bismut_ricci_form(catalog.build_model("perturbed-control"))
        assert np.max(np.abs(rho.components + rho.components.T)) < 1e-12
