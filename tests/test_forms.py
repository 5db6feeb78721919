"""Frame-algebra tests against independent brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from bhe.forms import (
    DegreeOverflowError,
    FormTensor,
    MetricFrame,
    ValidationError,
    inner,
    interior_product,
    j_conjugate,
    norm2,
    omega_trace,
    type_decompose,
    wedge,
)


def basis_form(indices, dim):
    """e^{i1} ^ ... ^ e^{ik} built by explicit alternation."""
    k = len(indices)
    comp = np.zeros((dim,) * k)
    for perm in itertools.permutations(range(k)):
        sign = perm_sign(perm)
        comp[tuple(indices[p] for p in perm)] = sign
    return FormTensor(k, dim, comp)


def perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def random_form(k, dim, rng):
    comp = rng.standard_normal((dim,) * k)
    out = np.zeros_like(comp)
    for perm in itertools.permutations(range(k)):
        out += perm_sign(perm) * np.transpose(comp, perm)
    return FormTensor(k, dim, out / math.factorial(k))


def wedge_oracle(a, b):
    """Shuffle-sum definition, independent from the alternation kernel."""
    k, l, n = a.degree, b.degree, a.dim
    m = k + l
    comp = np.zeros((n,) * m)
    for idx in itertools.product(range(n), repeat=m):
        val = 0.0
        for subset in itertools.combinations(range(m), k):
            rest = tuple(i for i in range(m) if i not in subset)
            sign = perm_sign_of_split(subset, rest)
            val += sign * a.components[tuple(idx[i] for i in subset)] * b.components[
                tuple(idx[i] for i in rest)
            ]
        comp[idx] = val
    return FormTensor(m, n, comp)


def perm_sign_of_split(subset, rest):
    order = list(subset) + list(rest)
    return perm_sign(order)


def gram_schmidt(g):
    """Explicit orthonormal frame for the metric, by modified Gram-Schmidt."""
    n = g.shape[0]
    frame = []
    for k in range(n):
        v = np.zeros(n)
        v[k] = 1.0
        for u in frame:
            v = v - (u @ g @ v) * u
        frame.append(v / np.sqrt(v @ g @ v))
    return frame


class TestWedge:
    def test_antisymmetry_of_basis_product(self):
        e1 = basis_form((0,), 4)
        e2 = basis_form((1,), 4)
        w = wedge(e1, e2)
        assert w.components[1, 0] == -1.0
        assert w.components[0, 1] == 1.0

    def test_top_degree_volume_coefficient(self):
        e12 = basis_form((0, 1), 4)
        e34 = basis_form((2, 3), 4)
        w = wedge(e12, e34)
        assert w.components[0, 1, 2, 3] == pytest.approx(1.0)

    def test_antidiagonal_square_on_product_frame(self):
        # alpha = (w1 - w2)/2 squares to -dV/2 on an orthonormal 4-frame
        w1 = basis_form((0, 1), 4)
        w2 = basis_form((2, 3), 4)
        alpha = 0.5 * (w1 - w2)
        sq = wedge(alpha, alpha)
        oracle = wedge_oracle(alpha, alpha)
        assert np.allclose(sq.components, oracle.components, atol=1e-14)
        assert sq.components[0, 1, 2, 3] == pytest.approx(-0.5)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)])
    def test_matches_shuffle_oracle(self, k, l):
        rng = np.random.default_rng(11 * k + l)
        a = random_form(k, 5, rng)
        b = random_form(l, 5, rng)
        assert np.allclose(wedge(a, b).components, wedge_oracle(a, b).components, atol=1e-12)

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_graded_commutativity(self, k, l):
        rng = np.random.default_rng(5 * k + l)
        a = random_form(k, 6, rng)
        b = random_form(l, 6, rng)
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert np.allclose(ab.components, (-1.0) ** (k * l) * ba.components, atol=1e-12)

    def test_degree_overflow(self):
        rng = np.random.default_rng(0)
        a = random_form(2, 3, rng)
        with pytest.raises(DegreeOverflowError):
            wedge(a, a)


class TestHodge:
    def test_asd_square_doubled_norm_identity(self):
        # *b = -b implies b ^ b = -(|b|^2/2) (w ^ w / 2) with the doubled norm;
        # e12 - e34, e13 + e24 and e14 - e23 span the anti-self-dual forms
        rng = np.random.default_rng(17)
        g = MetricFrame(np.eye(4))
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        dv = 0.5 * wedge(omega, omega)
        basis = [basis_form((0, 1), 4) - basis_form((2, 3), 4),
                 basis_form((0, 2), 4) + basis_form((1, 3), 4),
                 basis_form((0, 3), 4) - basis_form((1, 2), 4)]
        for _ in range(5):
            x = rng.standard_normal(3)
            asd = x[0] * basis[0] + x[1] * basis[1] + x[2] * basis[2]
            sq = wedge(asd, asd)
            expect = -0.5 * norm2(asd, g) * dv.components
            assert np.allclose(sq.components, expect, atol=1e-12)


class TestTrace:
    def test_trace_of_kahler_form_is_doubled_dim(self):
        g = MetricFrame(np.eye(4))
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        assert omega_trace(omega, omega, g) == pytest.approx(4.0)

    def test_trace_against_orthonormal_frame_oracle(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((4, 4))
        g = MetricFrame(A @ A.T + 4 * np.eye(4))
        omega = random_form(2, 4, rng)
        b = random_form(2, 4, rng)
        frame = gram_schmidt(g.g)
        oracle = sum(
            (ei @ omega.components @ ej) * (ei @ b.components @ ej)
            for ei in frame
            for ej in frame
        )
        assert omega_trace(b, omega, g) == pytest.approx(oracle, rel=1e-12)

    def test_primitive_form_traceless(self):
        g = MetricFrame(np.eye(4))
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        prim = basis_form((0, 1), 4) - basis_form((2, 3), 4)
        assert omega_trace(prim, omega, g) == pytest.approx(0.0, abs=1e-14)

    def test_conformal_scaling_law(self):
        rng = np.random.default_rng(29)
        g = MetricFrame(np.eye(4))
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        b = random_form(2, 4, rng)
        lam = 1.7
        g2 = MetricFrame(lam * g.g)
        omega2 = lam * omega
        assert omega_trace(b, omega2, g2) == pytest.approx(
            omega_trace(b, omega, g) / lam, rel=1e-12
        )


class TestTypeDecompose:
    def _J(self):
        J = np.zeros((4, 4))
        J[1, 0] = J[3, 2] = 1.0
        J[0, 1] = J[2, 3] = -1.0
        return J

    def test_kahler_form_is_invariant(self):
        J = self._J()
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        inv, anti = type_decompose(omega, J)
        assert np.allclose(inv.components, omega.components)
        assert anti.sup_norm() < 1e-14

    def test_anti_invariant_form(self):
        J = self._J()
        b = basis_form((0, 2), 4) - basis_form((1, 3), 4)
        inv, anti = type_decompose(b, J)
        assert inv.sup_norm() < 1e-14
        assert np.allclose(anti.components, b.components)

    def test_parts_sum_orthogonal_idempotent(self):
        rng = np.random.default_rng(31)
        J = self._J()
        g = MetricFrame(np.eye(4))
        b = random_form(2, 4, rng)
        inv, anti = type_decompose(b, J)
        assert np.allclose((inv + anti).components, b.components)
        assert inner(inv, anti, g) == pytest.approx(0.0, abs=1e-12)
        inv2, anti2 = type_decompose(inv, J)
        assert np.allclose(inv2.components, inv.components)
        assert anti2.sup_norm() < 1e-13

    def test_rejects_non_complex_structure(self):
        rng = np.random.default_rng(1)
        b = random_form(2, 4, rng)
        with pytest.raises(ValueError):
            type_decompose(b, np.eye(4))

    def test_rejects_nan_complex_structure(self):
        J = self._J()
        J[0, 1] = np.nan
        with pytest.raises(ValueError):
            type_decompose(basis_form((0, 1), 4), J)


class TestInterior:
    def test_contraction_matches_slot_evaluation(self):
        rng = np.random.default_rng(37)
        b = random_form(3, 5, rng)
        X = rng.standard_normal(5)
        ib = interior_product(X, b)
        oracle = np.einsum("a,abc->bc", X, b.components)
        assert np.allclose(ib.components, oracle)

    def test_two_form_is_contracted_in_its_first_slot(self):
        # on even degrees the first and the last slot differ by sign
        rng = np.random.default_rng(38)
        b = random_form(2, 5, rng)
        X = rng.standard_normal(5)
        assert np.allclose(interior_product(X, b).components, np.einsum("a,ab->b", X, b.components))

    def test_j_conjugate_of_invariant_form(self):
        J = np.zeros((4, 4))
        J[1, 0] = J[3, 2] = 1.0
        J[0, 1] = J[2, 3] = -1.0
        omega = basis_form((0, 1), 4) + basis_form((2, 3), 4)
        assert np.allclose(j_conjugate(omega, J).components, omega.components)


class TestValidation:
    def test_rejects_non_antisymmetric(self):
        comp = np.ones((3, 3))
        with pytest.raises(ValueError):
            FormTensor(2, 3, comp)

    def test_rejects_degree_above_dimension(self):
        with pytest.raises(DegreeOverflowError):
            FormTensor(4, 3, np.zeros((3, 3, 3, 3)))

    def test_metric_rejects_indefinite(self):
        with pytest.raises(ValueError):
            MetricFrame(np.diag([1.0, -1.0]))

    def test_metric_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MetricFrame(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered in det")
    def test_metric_rejects_overflowing_volume(self):
        # det g = 1e360 overflows, so sqrt(det g) is not finite
        with pytest.raises(ValidationError):
            MetricFrame(1e60 * np.eye(6))
