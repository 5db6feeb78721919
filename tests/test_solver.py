"""Damped Gauss-Newton behavior."""

import numpy as np
import pytest

from bhe import solver, toric
from bhe.frame_geometry import ValidationError
from bhe.solver import SolverConfig, newton_solve
from bhe.toric import ProductSurface, SphereProfile


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.max_iterations == 50 and cfg.tolerance == 1e-8

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            SolverConfig(tolerance=2.0)


def perturbed_surface(n=64, eps=1e-2, mode="odd", a=0.5):
    return ProductSurface(
        SphereProfile.round_perturbed(2.0, n, eps, mode),
        SphereProfile.round_perturbed(2.0, n, eps, mode),
        a,
    )


def full_jacobian(s, fd_step):
    """Dense (n+1)^2-row Jacobian assembled from the factor derivatives.

    Column j of factor 1 is DA1[:, j] (x) 1 - 2 Dk1[:, j] (x) k2, and of
    factor 2 is 1 (x) DA2[:, j] - 2 k1 (x) Dk2[:, j].
    """
    k1, k2 = toric.ricci_form_coeffs(s)
    cols = []
    if s.factor1.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor1, fd_step)
        cols += [np.kron(a, np.ones_like(k2)) - 2.0 * np.kron(b, k2) for a, b in zip(DA.T, Dk.T)]
    if s.factor2.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor2, fd_step)
        cols += [np.kron(np.ones_like(k1), a) - 2.0 * np.kron(k1, b) for a, b in zip(DA.T, Dk.T)]
    return np.column_stack(cols)


def dense_step(s0, fd_step=1e-6):
    """Reference step: one pde_residual per Jacobian column, then dense lstsq."""
    x = solver._pack(s0)
    r0 = solver._residual(s0, x)
    J = np.empty((r0.size, x.size))
    for k in range(x.size):
        delta = fd_step * max(1.0, abs(x[k]))
        xk = x.copy()
        xk[k] += delta
        J[:, k] = (solver._residual(s0, xk) - r0) / delta
    p, *_ = np.linalg.lstsq(J, -r0, rcond=1e-10)
    return p, r0


class TestCompressedStep:
    @pytest.mark.parametrize("flat2", [False, True], ids=["sphere-sphere", "sphere-flat"])
    def test_matches_dense_reference(self, flat2):
        c, n = 2.2, 64
        f1 = SphereProfile.round_perturbed(c, n, 0.013)
        f2 = SphereProfile.flat(c, n) if flat2 else f1
        s0 = ProductSurface(f1, f2, 0.0 if flat2 else 1.0 / c)
        s = solver._unpack(s0, solver._pack(s0))
        p_dense, r0 = dense_step(s)
        p = solver._gauss_newton_step(s, r0, 1e-6)
        assert np.linalg.norm(p - p_dense) <= 1e-9 * np.linalg.norm(p_dense)

        Q1, Q2 = (solver._span_basis(k) for k in toric.ricci_form_coeffs(s))
        assert (Q1.shape[1], Q2.shape[1]) == ((2, 1) if flat2 else (2, 2))
        Btr = solver._compress(r0.reshape(n + 1, -1), Q1, Q2)
        assert abs(np.linalg.norm(Btr) - np.linalg.norm(r0)) <= 1e-12 * np.linalg.norm(r0)
        BtJ = np.column_stack(
            [solver._compress(col.reshape(n + 1, -1), Q1, Q2) for col in full_jacobian(s, 1e-6).T]
        )
        M = solver._jacobian(s, Q1, Q2, 1e-6)
        assert M.shape == (Btr.size, p.size)
        assert np.max(np.abs(M - BtJ)) <= 1e-12 * np.max(np.abs(BtJ))

    def test_step_keeps_every_direction_at_n1024(self):
        # cond(B^T J) grows like n^4; a step that truncates small singular
        # values leaves genuine directions unsolved (relative 0.041 here)
        c, n = 2.2, 1024
        f = SphereProfile.round_perturbed(c, n, 0.013)
        s0 = ProductSurface(f, f, 1.0 / c)
        x = solver._pack(s0)
        s = solver._unpack(s0, x)
        r = solver._residual(s0, x)
        p = solver._gauss_newton_step(s, r, 1e-6)
        Q1, Q2 = (solver._span_basis(k) for k in toric.ricci_form_coeffs(s))
        M = solver._jacobian(s, Q1, Q2, 1e-6)
        rhs = solver._compress(r.reshape(n + 1, n + 1), Q1, Q2)
        assert np.linalg.norm(M @ p + rhs) <= 0.03 * np.linalg.norm(rhs)


class TestGaussNewton:
    def test_exact_start_flags_at_floor(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.5)
        trace = newton_solve(s)
        assert trace.flag == "at-floor"
        assert trace.iterations == 0

    def test_perturbed_start_recovers_round_solution(self):
        trace = newton_solve(perturbed_surface())
        assert trace.flag == "converged"
        assert trace.iterations <= 50
        assert trace.final_residual < 1e-8
        for p in (trace.surface.factor1, trace.surface.factor2):
            kap = toric.gauss_curvature(p)
            assert np.max(np.abs(kap - 0.5)) < 1e-6

    def test_inconsistent_class_data_stalls(self):
        s = ProductSurface(SphereProfile.round(2.0, 64), SphereProfile.round(2.0, 64), 0.25)
        trace = newton_solve(s)
        assert trace.flag == "stalled"
        assert trace.final_residual > 0.1

    def test_singular_step_stalls(self, monkeypatch):
        jacobian = solver._jacobian

        def duplicated_column(*args):
            M = jacobian(*args)
            M[:, 1] = M[:, 0]
            return M

        monkeypatch.setattr(solver, "_jacobian", duplicated_column)
        trace = newton_solve(perturbed_surface(n=32))
        assert trace.flag == "stalled"
        assert trace.iterations == 0

    def test_accepted_steps_never_increase_residual(self):
        trace = newton_solve(perturbed_surface())
        l2 = trace.residual_l2
        assert all(b < a for a, b in zip(l2, l2[1:]))

    def test_jacobian_matches_directional_differences(self):
        s0 = perturbed_surface(n=32)
        x = solver._pack(s0)
        s = solver._unpack(s0, x)
        r0 = solver._residual(s0, x)
        J = full_jacobian(s, 1e-6)
        rng = np.random.default_rng(4)
        for _ in range(3):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            t = 1e-6
            dd = (solver._residual(s0, x + t * d) - r0) / t
            rel = np.linalg.norm(J @ d - dd) / max(1.0, np.linalg.norm(dd))
            assert rel < 1e-4

    def test_reflection_symmetry_preserved(self):
        # an even perturbation is z -> -z symmetric; the solution stays so
        trace = newton_solve(perturbed_surface(eps=5e-3, mode="even"))
        assert trace.flag in ("converged", "at-floor")
        for p in (trace.surface.factor1, trace.surface.factor2):
            assert np.max(np.abs(p.theta - p.theta[::-1])) < 1e-9

    def test_class_data_never_moves(self):
        s0 = perturbed_surface()
        trace = newton_solve(s0)
        assert trace.surface.a == s0.a
        assert trace.surface.factor1.c == s0.factor1.c
        topo = toric.topo_invariants(trace.surface)
        assert topo["constraint_defect_selfintersection"] < 1e-9

    def test_history_rows_shape(self):
        trace = newton_solve(perturbed_surface(n=32))
        rows = trace.history_rows()
        assert rows[0][0] == 0
        assert len(rows) == trace.iterations + 1
