"""Damped Gauss-Newton behavior."""

import json

import numpy as np
import pytest

from bhe import cli, solver, toric
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


def full_jacobian(s):
    """Dense (n+1)^2-row Jacobian assembled from the factor derivatives.

    Column j of factor 1 is DA1[:, j] (x) 1 - 2 Dk1[:, j] (x) k2, and of
    factor 2 is 1 (x) DA2[:, j] - 2 k1 (x) Dk2[:, j].
    """
    k1, k2 = s.factor1.kappa, s.factor2.kappa
    cols = []
    if s.factor1.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor1)
        cols += [np.kron(a, np.ones_like(k2)) - 2.0 * np.kron(b, k2) for a, b in zip(DA.T, Dk.T)]
    if s.factor2.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor2)
        cols += [np.kron(np.ones_like(k1), a) - 2.0 * np.kron(k1, b) for a, b in zip(DA.T, Dk.T)]
    return np.column_stack(cols)


def dense_step(s0, fd_step=1e-6):
    """Reference step: one pde_residual per Jacobian column, then dense lstsq."""
    x = solver._pack(s0)
    _, r0 = solver._residual(s0, x)
    J = np.empty((r0.size, x.size))
    for k in range(x.size):
        delta = fd_step * max(1.0, abs(x[k]))
        xk = x.copy()
        xk[k] += delta
        J[:, k] = (solver._residual(s0, xk)[1] - r0) / delta
    p, *_ = np.linalg.lstsq(J, -r0, rcond=1e-10)
    return p, r0


def reference_system(s, r):
    """The full compressed system [B^T J, B^T r] of one step, built as one matrix.

    B^T vec(E) = [E Q2, Q1^T E (I - Q2 Q2^T)] is an isometry on the span of
    E and the Jacobian columns; factor-1 columns have no rows in its second
    part.
    """
    k1, k2 = s.factor1.kappa, s.factor2.kappa
    Q1, Q2 = solver._span_basis(k1), solver._span_basis(k2)
    N1, N2 = k1.size, k2.size
    r1, r2 = Q1.shape[1], Q2.shape[1]

    def compress(E):
        Y = Q1.T @ E
        Y -= (Y @ Q2) @ Q2.T
        return np.concatenate([(E @ Q2).ravel(), Y.ravel()])

    blocks = []
    if s.factor1.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor1)
        X = DA[:, None, :] * Q2.sum(axis=0)[None, :, None] - 2.0 * Dk[:, None, :] * (Q2.T @ k2)[None, :, None]
        blocks.append(np.vstack([X.reshape(N1 * r2, -1), np.zeros((r1 * N2, DA.shape[1]))]))
    if s.factor2.kind == "sphere":
        DA, Dk = solver._factor_derivatives(s.factor2)
        QDA, QDk = Q2.T @ DA, Q2.T @ Dk
        X = QDA[None] - 2.0 * k1[:, None, None] * QDk[None]
        PDA, PDk = DA - Q2 @ QDA, Dk - Q2 @ QDk
        Y = Q1.sum(axis=0)[:, None, None] * PDA[None] - 2.0 * (Q1.T @ k1)[:, None, None] * PDk[None]
        blocks.append(np.vstack([X.reshape(N1 * r2, -1), Y.reshape(r1 * N2, -1)]))
    return np.hstack(blocks), compress(r.reshape(N1, N2))


def reference_step(s, r):
    """Reference step: one Householder QR of the full compressed system."""
    M, rhs = reference_system(s, r)
    R = np.linalg.qr(np.column_stack([M, rhs]), mode="r")
    return np.linalg.solve(R[:-1, :-1], -R[:-1, -1])


def surface_pair(kind, c=2.2, n=64):
    """Start surfaces of the step tests, by factor kinds and class."""
    f = SphereProfile.round_perturbed(c, n, 0.013)
    flat = SphereProfile.flat(c, n)
    return {
        "sphere-sphere": lambda: ProductSurface(f, f, 1.0 / c),
        "sphere-flat": lambda: ProductSurface(f, flat, 0.0),
        "flat-sphere": lambda: ProductSurface(flat, f, 0.0),
        "round-inconsistent": lambda: ProductSurface(
            SphereProfile.round(2.0, n), SphereProfile.round(2.0, n), 0.25),
    }[kind]()


class TestCompressedStep:
    @pytest.mark.parametrize(
        "kind, ranks",
        [("sphere-sphere", (2, 2)), ("sphere-flat", (2, 1)), ("flat-sphere", (1, 2)),
         ("round-inconsistent", (1, 1))],
    )
    def test_matches_full_compressed_qr(self, kind, ranks):
        s0 = surface_pair(kind)
        s, r = solver._residual(s0, solver._pack(s0))
        assert tuple(solver._span_basis(p.kappa).shape[1] for p in (s.factor1, s.factor2)) == ranks
        p_ref = reference_step(s, r)
        p = solver._gauss_newton_step(s, r)
        assert np.linalg.norm(p - p_ref) <= 1e-9 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("kind", ["sphere-sphere", "sphere-flat", "flat-sphere"])
    def test_matches_dense_reference(self, kind):
        s0 = surface_pair(kind)
        s = solver._unpack(s0, solver._pack(s0))
        p_dense, r0 = dense_step(s)
        p = solver._gauss_newton_step(s, r0)
        assert np.linalg.norm(p - p_dense) <= 1e-9 * np.linalg.norm(p_dense)

    @pytest.mark.parametrize("kind", ["sphere-sphere", "sphere-flat", "flat-sphere"])
    def test_blocks_are_the_compressed_jacobian(self, kind):
        # factor-1 columns have no rows in (Q1^T E P2)^T, factor-2 columns
        # none in P1 E Q2; _jacobian returns the own block, then the
        # coupling rows in (own, other) order
        s0 = surface_pair(kind)
        s, r0 = solver._residual(s0, solver._pack(s0))
        k = (s.factor1.kappa, s.factor2.kappa)
        N1, N2 = s.factor1.theta.size, s.factor2.theta.size
        Q = [solver._span_basis(kf) for kf in k]
        parts = solver._compress(r0.reshape(N1, N2), *Q)
        norm = np.sqrt(sum(np.sum(b**2) for b in parts))
        assert abs(norm - np.linalg.norm(r0)) <= 1e-12 * np.linalg.norm(r0)

        J = full_jacobian(s)
        col = 0
        for f, p in enumerate((s.factor1, s.factor2)):
            if p.kind != "sphere":
                continue
            M = solver._jacobian(p, Q[f], Q[1 - f], k[1 - f])
            m = M.shape[1]
            own = []
            for j in range(col, col + m):
                blocks = solver._compress(J[:, j].reshape(N1, N2), *Q)
                assert np.max(np.abs(blocks[1 - f])) <= 1e-12 * np.max(np.abs(M))
                own.append(np.concatenate([blocks[f].ravel(), (blocks[2].T if f else blocks[2]).ravel()]))
            BtJ = np.column_stack(own)
            assert M.shape == BtJ.shape
            assert np.max(np.abs(M - BtJ)) <= 1e-12 * np.max(np.abs(BtJ))
            col += m

    def test_step_keeps_every_direction_at_n1024(self):
        # cond(B^T J) grows like n^4; a step that truncates small singular
        # values leaves genuine directions unsolved (relative 0.041 here)
        s0 = surface_pair("sphere-sphere", n=1024)
        s, r = solver._residual(s0, solver._pack(s0))
        p = solver._gauss_newton_step(s, r)
        M, rhs = reference_system(s, r)
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
            kap = p.kappa
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

    def test_flat_sphere_mirrors_sphere_flat(self):
        # with the flat factor first, the step solves factor 2's block alone
        c, n = 2.2, 64
        f, flat = SphereProfile.round_perturbed(c, n, 0.013), SphereProfile.flat(c, n)
        sf = newton_solve(ProductSurface(f, flat, 0.0))
        fs = newton_solve(ProductSurface(flat, f, 0.0))
        assert sf.flag == fs.flag == "converged"
        assert sf.iterations == fs.iterations
        assert np.max(np.abs(sf.surface.factor1.theta - fs.surface.factor2.theta)) <= 1e-12
        assert np.all(fs.surface.factor1.theta == flat.theta)

    def test_accepted_steps_never_increase_residual(self):
        trace = newton_solve(perturbed_surface())
        l2 = trace.residual_l2
        assert all(b < a for a, b in zip(l2, l2[1:]))

    def test_jacobian_matches_directional_differences(self):
        s0 = perturbed_surface(n=32)
        x = solver._pack(s0)
        s, r0 = solver._residual(s0, x)
        J = full_jacobian(s)
        rng = np.random.default_rng(4)
        for _ in range(3):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            t = 1e-6
            dd = (solver._residual(s0, x + t * d)[1] - r0) / t
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

    def test_history_rows_shape(self, tmp_path):
        # history.csv: one row for the start and one per accepted step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c1": 2.0, "c2": 2.0, "a": 0.5, "n": 32, "perturb_eps": 1e-2}))
        assert cli.main(["pde", "solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        iterations = json.loads((tmp_path / "trace.json").read_text())["iterations"]
        assert iterations > 0
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "iteration,residual,step"
        assert len(lines) == iterations + 2
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(iterations + 1))
