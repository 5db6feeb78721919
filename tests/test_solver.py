"""Damped Gauss-Newton behavior."""

import json

import numpy as np
import pytest

from bhe import cli, solver, toric
from bhe.frame_geometry import ValidationError
from bhe.solver import SolverConfig, newton_solve
from bhe.toric import ProductSurface, SphereProfile
from helpers import band_to_dense, dense_factor_derivatives


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
        DA, Dk = dense_factor_derivatives(s.factor1)
        cols += [np.kron(a, np.ones_like(k2)) - 2.0 * np.kron(b, k2) for a, b in zip(DA.T, Dk.T)]
    if s.factor2.kind == "sphere":
        DA, Dk = dense_factor_derivatives(s.factor2)
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
        DA, Dk = dense_factor_derivatives(s.factor1)
        X = DA[:, None, :] * Q2.sum(axis=0)[None, :, None] - 2.0 * Dk[:, None, :] * (Q2.T @ k2)[None, :, None]
        blocks.append(np.vstack([X.reshape(N1 * r2, -1), np.zeros((r1 * N2, DA.shape[1]))]))
    if s.factor2.kind == "sphere":
        DA, Dk = dense_factor_derivatives(s.factor2)
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


def ls_residual(M, rhs, p):
    """|M p + rhs| summed in extended precision: in double its rounding exceeds 1e-9 relative at n = 1024."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    return float(np.linalg.norm(M.astype(np.longdouble) @ p.astype(np.longdouble) + rhs))


KINDS = ["sphere-sphere", "sphere-flat", "flat-sphere", "round-inconsistent"]


class TestCompressedStep:
    @pytest.mark.parametrize("n", [16, 17, 64, 96, 1024])
    @pytest.mark.parametrize("profile", ["odd", "even", "round"])
    def test_band_is_the_dense_forward_difference(self, n, profile):
        # the same arithmetic, bit for bit; zero outside the band
        p = (SphereProfile.round(2.2, n) if profile == "round"
             else SphereProfile.round_perturbed(2.2, n, 0.013, profile))
        band, ref = solver._factor_derivatives(p), dense_factor_derivatives(p)
        for b, d in zip(band, ref):
            assert b.shape == (solver.BAND, n - 3)
            assert np.array_equal(band_to_dense(b, n), d)

    @pytest.mark.parametrize(
        "kind, ranks",
        [("sphere-sphere", (2, 2)), ("sphere-flat", (2, 1)), ("flat-sphere", (1, 2)),
         ("round-inconsistent", (1, 1))],
    )
    def test_matches_full_compressed_qr(self, kind, ranks):
        # n = 64: one panel per factor
        s0 = surface_pair(kind)
        s, r = solver._residual(s0, solver._pack(s0))
        assert tuple(solver._span_basis(p.kappa).shape[1] for p in (s.factor1, s.factor2)) == ranks
        assert len(solver._panel_plan(64, 2, 5)) == 1
        p_ref = reference_step(s, r)
        p = solver._gauss_newton_step(s, r)
        assert np.linalg.norm(p - p_ref) <= 1e-9 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_full_compressed_qr_in_two_panels(self, kind):
        s0 = surface_pair(kind, n=96)
        s, r = solver._residual(s0, solver._pack(s0))
        assert len(solver._panel_plan(96, 2, 5)) == 2
        p_ref = reference_step(s, r)
        p = solver._gauss_newton_step(s, r)
        assert np.linalg.norm(p - p_ref) <= 1e-9 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("n, kinds", [(160, KINDS), (256, KINDS), (1024, ["sphere-sphere"])])
    def test_least_squares_residual_no_larger_than_reference(self, n, kinds):
        # cond(J) grows like n^4, so past n = 128 two exact solvers agree in
        # their residual, not in every digit of the step; n = 160 has three panels
        assert n != 160 or len(solver._panel_plan(n, 2, 5)) == 3
        for kind in kinds:
            s0 = surface_pair(kind, n=n)
            s, r = solver._residual(s0, solver._pack(s0))
            M, rhs = reference_system(s, r)
            R = np.linalg.qr(np.column_stack([M, rhs]), mode="r")  # reference_step, on the same system
            p_ref = np.linalg.solve(R[:-1, :-1], -R[:-1, -1])
            p = solver._gauss_newton_step(s, r)
            assert ls_residual(M, rhs, p) <= ls_residual(M, rhs, p_ref) * (1 + 1e-9), kind

    @pytest.mark.parametrize("kind", ["sphere-sphere", "sphere-flat", "flat-sphere"])
    def test_matches_dense_reference(self, kind):
        s0 = surface_pair(kind)
        s = solver._unpack(s0, solver._pack(s0))
        p_dense, r0 = dense_step(s)
        p = solver._gauss_newton_step(s, r0)
        assert np.linalg.norm(p - p_dense) <= 1e-9 * np.linalg.norm(p_dense)

    @pytest.mark.parametrize("kind", ["sphere-sphere", "sphere-flat", "flat-sphere"])
    def test_blocks_are_the_compressed_jacobian(self, kind):
        # a factor-f column of J is X Qo^T on the grid (own, other): _jacobian
        # holds X, with rows (own grid row, other Q column), in band storage
        s0 = surface_pair(kind)
        s, _ = solver._residual(s0, solver._pack(s0))
        k = (s.factor1.kappa, s.factor2.kappa)
        N1, N2 = k[0].size, k[1].size
        Q = [solver._span_basis(kf) for kf in k]
        J = full_jacobian(s)
        col = 0
        for f, p in enumerate((s.factor1, s.factor2)):
            if p.kind != "sphere":
                continue
            Qo = Q[1 - f]
            band = solver._jacobian(p, Qo, k[1 - f])
            X = band_to_dense(band, p.n, Qo.shape[1])
            m = X.shape[1]
            for j in range(col, col + m):
                G = J[:, j].reshape(N1, N2)
                if f:
                    G = G.T
                Xj = X[:, j - col].reshape(-1, Qo.shape[1])
                assert np.max(np.abs(G - Xj @ Qo.T)) <= 1e-12 * np.max(np.abs(G))
                assert np.max(np.abs(G @ Qo - Xj)) <= 1e-12 * np.max(np.abs(Xj))
            col += m

    def test_step_keeps_every_direction_at_n1024(self):
        # cond(B^T J) grows like n^4; a step that truncates small singular
        # values leaves genuine directions unsolved (relative 0.041 here)
        s0 = surface_pair("sphere-sphere", n=1024)
        s, r = solver._residual(s0, solver._pack(s0))
        p = solver._gauss_newton_step(s, r)
        M, rhs = reference_system(s, r)
        assert np.linalg.norm(M @ p + rhs) <= 0.03 * np.linalg.norm(rhs)

    def test_no_dense_factor_array(self, monkeypatch):
        # no step allocates an (n+1) x (n-3) array: the band and each panel are O(n)
        n = 256
        shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda A, mode: shapes.append(A.shape) or qr(A, mode))
        s0 = surface_pair("sphere-sphere", n=n)
        s, r = solver._residual(s0, solver._pack(s0))
        assert solver._jacobian(s.factor1, solver._span_basis(s.factor2.kappa), s.factor2.kappa).shape == (
            2 * solver.BAND, n - 3)
        solver._gauss_newton_step(s, r)
        assert len(shapes) == 2 * len(solver._panel_plan(n, 2, 5))
        assert max(a * b for a, b in shapes) <= solver.PANEL_ENTRIES


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
        self.check_singular_step_stalls(monkeypatch, 32)

    def test_singular_step_stalls_in_three_panels(self, monkeypatch):
        assert len(solver._panel_plan(160, 2, 5)) == 3
        self.check_singular_step_stalls(monkeypatch, 160)

    @staticmethod
    def check_singular_step_stalls(monkeypatch, n):
        # unknowns 0 and 1 share their band rows, so a copied band column is
        # a copied Jacobian column
        jacobian = solver._jacobian

        def duplicated_column(*args):
            M = jacobian(*args)
            M[:, 1] = M[:, 0]
            return M

        monkeypatch.setattr(solver, "_jacobian", duplicated_column)
        trace = newton_solve(perturbed_surface(n=n))
        assert trace.flag == "stalled"
        assert trace.iterations == 0

    @pytest.mark.parametrize("c", [2.05, 2.45])
    @pytest.mark.parametrize("eps", [0.011, 0.015])
    @pytest.mark.parametrize("n", [48, 64, 96, 128])
    def test_band_corners_converge_in_four_unit_steps(self, c, eps, n):
        p = SphereProfile.round_perturbed(c, n, eps)
        trace = newton_solve(ProductSurface(p, p, 1.0 / c))
        assert trace.flag == "converged"
        assert trace.steps == [1.0] * 4

    def test_small_sphere_grid_refused(self):
        p = SphereProfile.round_perturbed(2.0, 8, 1e-2)
        with pytest.raises(ValidationError, match="at least 9 intervals"):
            newton_solve(ProductSurface(p, p, 0.5))

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
