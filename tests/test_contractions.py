"""Callers of the matmul contraction primitive, and the checking constructors."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bhe import catalog
from bhe import frame_geometry as fg
from bhe.forms import FormTensor, MetricFrame, j_conjugate, raise_indices, wedge


def _nijenhuis_einsum(c, J):
    """N(e_a, e_b) written out as three three-operand einsums."""
    t1 = np.einsum("pa,qb,pqm->abm", J, J, c)
    t2 = np.einsum("md,pa,pbd->abm", J, J, c)
    t3 = np.einsum("md,qb,aqd->abm", J, J, c)
    return t1 - t2 - t3 - c


def _slotwise_tensordot(comp, M):
    """Each slot contracted with M in place: the tensordot + moveaxis loop."""
    for axis in range(comp.ndim):
        comp = np.tensordot(comp, M, axes=([axis], [0]))
        comp = np.moveaxis(comp, -1, axis)
    return comp


def _random_form(k, n, rng):
    comp = rng.standard_normal((n,) * k)
    out = np.zeros_like(comp)
    for axes in itertools.permutations(range(k)):
        out += _sign(axes) * np.transpose(comp, axes)
    return FormTensor(k, n, out)


def _sign(perm):
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1.0 if inversions % 2 else 1.0


def _relative_gap(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


class TestNijenhuis:
    def test_matches_three_einsum_formula(self):
        rng = np.random.default_rng(21)
        n = 6
        J0 = np.kron(np.eye(3), np.array([[0.0, -1.0], [1.0, 0.0]]))
        for _ in range(5):
            c = rng.standard_normal((n, n, n))
            P = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            J = P @ J0 @ np.linalg.inv(P)  # almost complex, not integrable for c
            ref = _nijenhuis_einsum(c, J)
            out = fg.nijenhuis(SimpleNamespace(c=c), J)
            assert np.max(np.abs(ref)) > 1.0  # J really is non-integrable
            assert _relative_gap(out, ref) <= 1e-13


class TestSlotwiseForms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_j_conjugate_matches_tensordot_loop(self, k):
        rng = np.random.default_rng(30 + k)
        b = _random_form(k, 6, rng)
        J = rng.standard_normal((6, 6))
        ref = _slotwise_tensordot(b.components, J)
        assert _relative_gap(j_conjugate(b, J).components, ref) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_raise_indices_matches_tensordot_loop(self, k):
        rng = np.random.default_rng(40 + k)
        b = _random_form(k, 6, rng)
        A = rng.standard_normal((6, 6))
        g = MetricFrame(A @ A.T + 6 * np.eye(6))
        ref = _slotwise_tensordot(b.components, g.inv)
        assert _relative_gap(raise_indices(b, g), ref) <= 1e-14


class TestChangeFrame:
    @pytest.mark.parametrize("name", ["su2xsu2", "su2xRxC", "hopf"])
    def test_round_trip_recovers_model(self, name):
        m = catalog.build_model(name)
        rng = np.random.default_rng(50)
        S = np.eye(m.dim) + 0.3 * rng.standard_normal((m.dim, m.dim))
        back = fg.change_frame(fg.change_frame(m, S), np.linalg.inv(S))
        assert np.max(np.abs(back.algebra.c - m.algebra.c)) <= 1e-13
        assert np.max(np.abs(back.metric.g - m.metric.g)) <= 1e-13
        assert np.max(np.abs(back.J - m.J)) <= 1e-13

    def test_matches_four_operand_einsum(self):
        m = catalog.build_model("su2xRxC")
        rng = np.random.default_rng(51)
        S = np.eye(m.dim) + 0.3 * rng.standard_normal((m.dim, m.dim))
        ref = np.einsum("ap,bq,abk,rk->pqr", S, S, m.algebra.c, np.linalg.inv(S))
        assert _relative_gap(fg.change_frame(m, S).algebra.c, ref) <= 1e-13


class TestCheckingConstructors:
    """Internal results skip the antisymmetry check; direct construction does not."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_direct_form_rejects_non_antisymmetric(self, k):
        rng = np.random.default_rng(60 + k)
        comp = _random_form(k, 4, rng).components.copy()
        FormTensor(k, 4, comp)
        comp[(0, 1, 2)[:k]] += 1e-3  # breaks one adjacent-swap pair
        with pytest.raises(ValueError, match="antisymmetric"):
            FormTensor(k, 4, comp)

    def test_form_results_stay_alternating(self):
        rng = np.random.default_rng(70)
        m = catalog.build_model("su2xRxC")
        a, b = _random_form(1, 6, rng), _random_form(2, 6, rng)
        results = [
            a + a, b - b * 2.0, -b, fg.exterior_derivative(b, m.algebra),
            j_conjugate(b, m.J), wedge(a, b),
        ]
        for form in results:
            # each unchecked result passes the checking constructor
            FormTensor(form.degree, form.dim, form.components)


def _put(arr, index, value):
    out = np.array(arr, dtype=float)
    out[index] = value
    return out


def _su2xsu2():
    return catalog.build_model("su2xsu2")


BAD_INPUT = {
    "FormTensor": lambda m, x: FormTensor(2, 4, _put(np.zeros((4, 4)), (0, 1), x)),
    "FormTensor-1": lambda m, x: FormTensor(1, 4, _put(np.zeros(4), 2, x)),
    "MetricFrame": lambda m, x: MetricFrame(_put(np.eye(3), (1, 1), x)),
    "StructureAlgebra": lambda m, x: fg.StructureAlgebra(np.full((3, 3, 3), x)),
    "StructureAlgebra-entry": lambda m, x: fg.StructureAlgebra(_put(m.algebra.c, (0, 1, 2), x)),
    "HermitianModel": lambda m, x: fg.HermitianModel(m.algebra, m.metric, np.full((6, 6), x)),
    "HermitianModel-entry": lambda m, x: fg.HermitianModel(
        m.algebra, m.metric, _put(m.J, (0, 1), x)),
    "ConnectionCoeffs": lambda m, x: fg.ConnectionCoeffs(
        _put(m.geometry.lc.gamma, (0, 1, 2), x), m.metric, "levi_civita"),
    "CurvatureTensor": lambda m, x: fg.CurvatureTensor(
        _put(m.geometry.lc_curvature.R, (0, 1, 2, 3), x)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_constructor_rejects_non_finite(case, value):
    # the constructor's own finiteness check, not a later guard tripping on
    # NaN by accident or a failure deep inside numpy.linalg
    with pytest.raises(ValueError, match="finite") as info:
        BAD_INPUT[case](_su2xsu2(), value)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_jacobi_check_overflow_is_not_a_pass():
    # finite constants whose Jacobi terms overflow: the residual is NaN, and
    # a NaN residual must fail the check rather than slip past "jac > tol"
    c = 1e200 * catalog.build_model("su2xsu2").algebra.c
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(fg.ValidationError, match="Jacobi"):
        fg.StructureAlgebra(c)
