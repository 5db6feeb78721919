"""Callers of the matmul contraction primitive, the bit-exact kernels, and the
checking constructors."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bhe import _kernels as K
from bhe import catalog, reduction
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
        _put(m.lc.gamma, (0, 1, 2), x), m.metric),
    "CurvatureTensor": lambda m, x: fg.CurvatureTensor(
        _put(m.lc_curvature.R, (0, 1, 2, 3), x)),
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


# ---------------------------------------------------------------------------
# bit-exact kernels: each one against the formulation it replaced
# ---------------------------------------------------------------------------


def _dform_moveaxis(c, b, k):
    """dform_core as a moveaxis loop with each term multiplied by (-1)^(s+t)."""
    n = c.shape[0]
    if k == 0:
        return np.zeros(n)
    out = np.zeros((n,) * (k + 1))
    bracket = np.einsum("abm,m...->ab...", c, b)
    for s in range(k + 1):
        for t in range(s + 1, k + 1):
            out += ((-1) ** (s + t)) * np.moveaxis(bracket, (0, 1), (s, t))
    return out


def _alt_sum_sign_multiply(T):
    """alt_sum as a loop of np.transpose terms multiplied by their signs."""
    m = T.ndim
    if m <= 1:
        return T.copy()
    perms, signs = K.perm_table(m)
    out = np.zeros_like(T)
    for p, s in zip(perms, signs):
        out += s * np.transpose(T, axes=tuple(p))
    return out


def _covariant_tensordot(G, T):
    """-sum over slots of np.tensordot(G, T) with the new axis moved into place."""
    out = np.zeros((G.shape[0],) + T.shape)
    for slot in range(T.ndim):
        contr = np.tensordot(G, T, axes=([2], [slot]))
        contr = np.moveaxis(contr, 1, slot + 1)
        out -= contr
    return out


def _horizontal_frame_gram_schmidt(m, V, JV):
    """Gram-Schmidt against V, JV and the kept columns, every product recomputed."""
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
    return np.stack(cols, axis=1)


def _assert_identical(out, ref):
    """Equal entry for entry with no tolerance, and zeros carry the same sign."""
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def _exact_models():
    """Catalog models (sparse data, many exact zeros) and seeded variants."""
    models = [catalog.build_model(name) for name in ("su2xsu2", "su2xRxC", "hopf")]
    for seed in range(3):
        for name in ("su2xsu2", "su2xRxC"):
            m = catalog.build_model(name)
            rng = np.random.default_rng(80 + seed)
            n = m.dim
            A = rng.standard_normal((n, n))
            S = A - A.T
            S = 0.5 * (S - m.J @ S @ m.J)
            Q = np.linalg.solve(np.eye(n) - 0.5 * S, np.eye(n) + 0.5 * S)
            models.append(fg.scale_metric(fg.change_frame(m, Q), float(rng.uniform(0.8, 1.25))))
    shear = np.eye(6) + 0.05 * np.random.default_rng(90).standard_normal((6, 6))
    models.append(fg.change_frame(catalog.build_model("su2xsu2"), shear))
    return models


class TestExactKernels:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_dform_core_matches_moveaxis_loop(self, k):
        rng = np.random.default_rng(100 + k)
        cases = []
        for m in _exact_models():
            forms = {1: [m.V], 2: [m.omega.components], 3: [m.H.components]}
            cases += [(m.algebra.c, b) for b in forms.get(k, [np.zeros(())])]
            cases.append((m.algebra.c, _random_form(k, m.dim, rng).components))
        c = rng.standard_normal((6, 6, 6))
        cases.append((c - c.transpose(1, 0, 2), _random_form(k, 6, rng).components))
        for c, b in cases:
            _assert_identical(K.dform_core(c, b, k), _dform_moveaxis(c, b, k))

    @pytest.mark.parametrize("shape", [(6,), (6, 6), (6, 6, 6), (4,) * 4, (3,) * 5])
    def test_alt_sum_matches_sign_multiply_loop(self, shape):
        rng = np.random.default_rng(len(shape))
        T = rng.standard_normal(shape)
        # exact zeros of both signs, so the sign of a zero sum is checked too
        T[T < -0.5] = 0.0
        T[T > 0.5] = -0.0
        _assert_identical(K.alt_sum(T), _alt_sum_sign_multiply(T))
        # a wedge-style outer product, whose permuted terms cancel in pairs
        a = _random_form(1, shape[0], rng).components
        T = np.multiply.outer(a, _alt_sum_sign_multiply(rng.standard_normal(shape[1:])))
        _assert_identical(K.alt_sum(T), _alt_sum_sign_multiply(T))

    def test_covariant_derivative_matches_tensordot_loop(self):
        rng = np.random.default_rng(110)
        for m in _exact_models():
            tensors = [m.V, m.omega.components, m.H.components,
                       m.lc_curvature.R, _random_form(2, m.dim, rng).components]
            for conn in (m.lc, m.bismut):
                for T in tensors:
                    out = fg.covariant_derivative(T, conn)
                    _assert_identical(out, _covariant_tensordot(conn.raised, T))

    def test_transverse_covariant_matches_tensordot_loop(self):
        for m in _exact_models():
            if m.dim != 6:
                continue
            r = reduction.reduce(m)
            for T in (r.fv, r.fjv, r.ht, r.R_T):
                out = K.connection_core(r.gamma_T, T)
                _assert_identical(out, _covariant_tensordot(r.gamma_T, T))

    def test_horizontal_frame_matches_gram_schmidt(self):
        rng = np.random.default_rng(120)
        for m in _exact_models():
            r = reduction.reduce(m)
            ref = _horizontal_frame_gram_schmidt(r.parent, r.V, r.JV)
            _assert_identical(reduction._horizontal_frame(r.parent, r.V, r.JV), ref)
            _assert_identical(r.horizontal, ref)
            # a non-orthonormal pair in a random metric exercises every projection
            A = rng.standard_normal((m.dim, m.dim))
            g = MetricFrame(A @ A.T + m.dim * np.eye(m.dim))
            mg = SimpleNamespace(metric=g, dim=m.dim)
            V, W = rng.standard_normal(m.dim), rng.standard_normal(m.dim)
            _assert_identical(reduction._horizontal_frame(mg, V, W),
                              _horizontal_frame_gram_schmidt(mg, V, W))


class TestRaisedConnection:
    def test_computed_once(self, monkeypatch):
        conn = fg.levi_civita(catalog.build_model("su2xsu2"))
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        G = conn.raised
        assert conn.raised is G
        fg.covariant_derivative(np.ones(6), conn)
        assert calls == ["abc,cm->abm"]
        ref = einsum("abc,cm->abm", conn.gamma, conn.metric.inv)
        _assert_identical(G, ref)

    def test_read_only(self):
        conn = fg.bismut_connection(catalog.build_model("su2xRxC"))
        G = conn.raised
        assert not G.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0, 0] = 1.0
