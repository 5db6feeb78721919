"""Command-line contract: artifacts, exit codes, determinism."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bhe import cli, solver, toric
from bhe.cli import main, write_atomic, write_csv


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(tmp_path, name="cfg.json", **kw):
    cfg = {"c1": 2.0, "c2": 2.0, "kind1": "sphere", "kind2": "sphere", "a": 0.5, "n": 64}
    cfg.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestVerify:
    def test_catalog_model_passes(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--model", "su2xsu2", "--tol", "1e-10", "--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        assert report["pass"] is True
        assert all(c["residual"] <= 1e-12 for c in report["checks"])

    def test_kahler_model_routes_to_note(self, tmp_path):
        out = tmp_path / "flat"
        assert main(["verify", "--model", "flat-torus", "--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        assert "V vanishes" in report["notes"]["reduction"]

    def test_negative_control_fails(self, tmp_path):
        out = tmp_path / "pc"
        assert main(["verify", "--model", "perturbed-control", "--out", str(out)]) == 1
        report = json.loads(read(out / "report.json"))
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["bismut_ricci_flat"]["residual"] > 1e-4
        assert by_name["bismut_ricci_flat"]["pass"] is False

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        line = (
            "bhe: invalid input: unknown model 'zzz'; "
            "catalog: su2xsu2, su2xRxC, hopf, flat-torus, perturbed-control\n"
        )
        for command in ("verify", "reduce"):
            assert main([command, "--model", "zzz", "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == line
        assert list(tmp_path.iterdir()) == []

    def test_negative_tolerance_exit_2(self, tmp_path, capsys):
        line = "bhe: invalid input: tolerance must be non-negative (got -1.0)\n"
        for command, model in (("verify", "su2xsu2"), ("reduce", "hopf")):
            assert main([command, "--model", model, "--tol", "-1", "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == line
        assert list(tmp_path.iterdir()) == []
        # zero stays a valid tolerance
        assert main(["reduce", "--model", "hopf", "--tol", "0", "--out", str(tmp_path)]) != 2
        assert json.loads(read(tmp_path / "report.json"))["tolerance"] == 0.0


class TestReduce:
    def test_reduction_dump(self, tmp_path):
        out = tmp_path / "r"
        assert main(["reduce", "--model", "su2xRxC", "--out", str(out)]) == 0
        dump = json.loads(read(out / "reduction.json"))
        assert dump["dim"] == 6
        assert dump["F_V"] == []  # the ruled model has no first curvature

    def test_kahler_input_exit_2(self, tmp_path):
        assert main(["reduce", "--model", "flat-torus", "--out", str(tmp_path)]) == 2


class TestPde:
    def test_residual_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, a=0.0, kind2="flat-torus", c1=1.0, c2=1.0)
        out = tmp_path / "res"
        assert main(["pde", "residual", "--config", cfg, "--out", str(out)]) == 0
        for name in ("surface.csv", "residual.csv", "diagnostics.json"):
            assert (out / name).exists()
        diag = json.loads(read(out / "diagnostics.json"))
        assert list(diag) == ["residual_sup", "residual_l2", "topology", "forward_map",
                              "forward_map_C_estimate"]
        assert diag["residual_sup"] == 0.0
        assert diag["topology"]["c1_squared"] == pytest.approx(0.0)

    def test_solve_perturbed_converges(self, tmp_path):
        cfg = write_config(tmp_path, perturb_eps=0.01)
        out = tmp_path / "solve"
        assert main(["pde", "solve", "--config", cfg, "--out", str(out)]) == 0
        trace = json.loads(read(out / "trace.json"))
        assert trace["flag"] in ("converged", "at-floor")
        assert trace["final_residual_sup"] < 1e-8
        history = read(out / "history.csv").decode()
        assert history.splitlines()[0] == "iteration,residual,step"

    def test_singular_step_exit_1(self, tmp_path, monkeypatch):
        self.check_singular_step_exit_1(tmp_path, monkeypatch, 32)

    def test_singular_step_exit_1_in_three_panels(self, tmp_path, monkeypatch):
        self.check_singular_step_exit_1(tmp_path, monkeypatch, 160)

    @staticmethod
    def check_singular_step_exit_1(tmp_path, monkeypatch, n):
        # unknowns 0 and 1 share their band rows: a copied band column is a copied Jacobian column
        jacobian = solver._jacobian

        def duplicated_column(*args):
            M = jacobian(*args)
            M[:, 1] = M[:, 0]
            return M

        monkeypatch.setattr(solver, "_jacobian", duplicated_column)
        cfg = write_config(tmp_path, perturb_eps=0.01, n=n)
        out = tmp_path / "solve"
        assert main(["pde", "solve", "--config", cfg, "--out", str(out)]) == 1
        trace = json.loads(read(out / "trace.json"))
        assert trace["flag"] == "stalled" and trace["iterations"] == 0

    def test_unequal_areas_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, c2=1.0)
        assert main(["pde", "solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        # the gate is on the factor areas; Omega.A vanishes for every surface
        err = capsys.readouterr().err
        assert err.startswith("bhe: invalid input: the class datum a = 0.5 != 0 needs equal factor areas")

    def test_small_grid_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, n=8)
        assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_large_grid_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=4097)
        line = "bhe: invalid input: grid size must be at most 4096 (got 4097)\n"
        for command in (["pde", "residual"], ["pde", "solve"], ["converge"]):
            assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == line
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
        # the bound itself is a valid size; no solve is run at that size
        assert cli.RunConfig("pde-solve", n=4096).n == 4096

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "probe",
        [
            {"n": "64"},
            {"a": float("nan")},
            {"c1": float("nan")},
            {"perturb_eps": 0.01, "perturb_mode": "zigzag"},
        ],
        ids=["string-n", "nan-a", "nan-c1", "unknown-perturb-mode"],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, probe):
        cfg = write_config(tmp_path, **probe)
        assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bhe: invalid input:") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command", [["pde", "residual"], ["pde", "solve"], ["converge"]], ids=lambda c: "-".join(c)
)
def test_overflowing_class_datum_exit_2(tmp_path, capsys, command):
    # 2 a^2 overflows a float; the surface is refused before any residual
    cfg = write_config(tmp_path, a=1e200)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bhe: invalid input: class datum a = 1e+200") and err.count("\n") == 1


@pytest.mark.parametrize("a", [0.5, 0.0])
def test_overflowing_intersection_numbers_exit_2(tmp_path, capsys, a):
    # c^2 is finite but the area product (4 pi c)^2 is not: without the gate
    # the topology block would hold A_dot_A -inf (a = 1/2) or nan (a = 0,
    # as 0 * inf); the refused surface leaves no file
    cfg = write_config(tmp_path, c1=1e154, c2=1e154, a=a, n=32)
    assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bhe: invalid input: intersection numbers overflow") and err.count("\n") == 1
    assert not (tmp_path / "x" / "residual.csv").exists()
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize(
    "probe, reason",
    [
        ({"c2": 2.5}, "the class datum a = 0.5 != 0 needs equal factor areas (got 25.132741, 31.415927)"),
        ({"c1": 1e154, "c2": 1e154},
         "intersection numbers overflow: A.A = -2 a^2 area1 area2 / (2 pi)^2 is not finite for class datum "
         "a = 0.5 and factor areas 1.2566370614359172e+155, 1.2566370614359172e+155"),
        ({"a": 1e200}, "class datum a = 1e+200 must be finite with (2 a^2)^2 finite"),
    ],
    ids=["unequal-areas", "area-product-overflow", "class-datum-overflow"],
)
@pytest.mark.parametrize(
    "command", [["pde", "residual"], ["pde", "solve"], ["converge"]], ids=lambda c: "-".join(c)
)
def test_refused_surface_writes_no_file(tmp_path, capsys, command, probe, reason):
    # a surface that toric refuses is an invalid input like any other: one
    # stderr line, exit 2 and no --out directory
    cfg = write_config(tmp_path, **probe)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"bhe: invalid input: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize(
    "probe, got",
    [({"solver_tol": 2.0}, "max_iterations=50, tolerance=2.0"), ({"max_iterations": 0}, "max_iterations=0, tolerance=1e-08")],
    ids=["solver-tol", "max-iterations"],
)
def test_solver_config_out_of_range_exit_2(tmp_path, capsys, probe, got):
    cfg = write_config(tmp_path, n=32, **probe)
    assert main(["pde", "solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "bhe: invalid input: solver configuration out of range: max_iterations must be positive "
        f"and tolerance in (0, 1) (got {got})\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_pde_residual_memory_peak(tmp_path):
    # a warm n=256 command holds E, then R, f and e^f, and one block of
    # formatted text, in units of one float64 grid
    n = 256
    cfg = write_config(tmp_path, n=n, perturb_eps=0.01)
    argv = ["pde", "residual", "--config", cfg, "--out", str(tmp_path / "res")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * (n + 1) ** 2 * 8


def test_pde_residual_memory_peak_n512(tmp_path):
    # E and the one work array of its norms; the forward map holds one row
    # block and no grid, and E is dropped once residual.csv is written
    n = 512
    cfg = write_config(tmp_path, n=n, perturb_eps=0.01)
    argv = ["pde", "residual", "--config", cfg, "--out", str(tmp_path / "res")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (n + 1) ** 2 * 8


def test_huge_half_length_one_stderr_line(tmp_path):
    # a fresh interpreter with numpy's default warning filters: c^2 overflows,
    # and the one line on stderr is the refusal, with no RuntimeWarning
    cfg = write_config(tmp_path, c1=1e300, c2=1e300)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "bhe.cli", "pde", "residual", "--config", cfg,
                          "--out", str(tmp_path / "x")], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("bhe: invalid input: half-length c = 1e+300")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["pde", "residual"], ["pde", "solve"], ["converge"]], ids=lambda c: "-".join(c)
)
def test_tolerance_key_rejected(tmp_path, capsys, command):
    # Only verify/reduce read a tolerance (--tol); in a surface config it is
    # an unknown key, not one silently ignored.
    cfg = write_config(tmp_path, tolerance=1e-6)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bhe: invalid input: unknown config keys: ['tolerance']")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["pde", "residual"], "solver_tol", 0.5),
        (["pde", "residual"], "max_iterations", 1),
        (["converge"], "perturb_eps", 0.5),
        (["converge"], "perturb_mode", "even"),
        (["converge"], "solver_tol", 0.5),
        (["converge"], "max_iterations", 1),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_unread_key_rejected(tmp_path, capsys, command, key, value):
    # pde solve reads every surface key; the other two commands read fewer,
    # and a key the command would ignore exits 2 like an unknown one
    cfg = write_config(tmp_path, n=32, **{key: value})
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bhe: invalid input: unknown config keys: [{key!r}]; bhe {' '.join(command)} reads only")
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "probe, reason",
    [
        ({"perturb_mode": "even"}, "perturb_mode is read only with a non-zero perturb_eps"),
        ({"perturb_mode": "even", "perturb_eps": 0.0}, "perturb_mode is read only with a non-zero perturb_eps"),
        ({"kind1": "flat-torus", "kind2": "flat-torus", "c1": 1.0, "c2": 1.0, "a": 0.0, "perturb_eps": 0.01},
         "perturb_eps perturbs sphere factors, and both factors are flat"),
    ],
    ids=["mode-without-eps", "mode-with-zero-eps", "eps-on-flat-flat"],
)
@pytest.mark.parametrize("command", [["pde", "residual"], ["pde", "solve"]], ids=lambda c: "-".join(c))
def test_perturbation_without_effect_rejected(tmp_path, capsys, command, probe, reason):
    # converge reads neither key; the two pde commands read them only where they perturb a profile
    cfg = write_config(tmp_path, n=32, **probe)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"bhe: invalid input: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize(
    "command", [["pde", "residual"], ["pde", "solve"], ["converge"]], ids=lambda c: "-".join(c)
)
def test_duplicate_key_rejected(tmp_path, capsys, command):
    # json.load would keep the last value and run n = 32
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"c1": 2.0, "c2": 2.0, "a": 0.5, "n": 64, "n": 32}', encoding="utf-8")
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "bhe: invalid input: duplicate config key 'n'\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", ["5", "null", '"x"', "[1]"], ids=["int", "null", "str", "list"])
@pytest.mark.parametrize(
    "command", [["pde", "residual"], ["pde", "solve"], ["converge"]], ids=lambda c: "-".join(c)
)
def test_non_object_config_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "bhe: invalid input: config must be a JSON object\n"
    assert not (tmp_path / "x").exists()


class TestConverge:
    def test_orders_reported(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        assert data["grids"] == [64, 128, 256]
        assert all(o == "at-floor" or o >= 1.9 for o in data["residual_orders"])
        assert all(o >= 1.9 for o in data["manufactured_orders"])

    @pytest.mark.parametrize("n", [32, 128, 1024])
    def test_grid_other_than_64_exit_2(self, tmp_path, capsys, n):
        # the grids are fixed at 64, 128 and 256; another n is refused, not ignored
        cfg = write_config(tmp_path, n=n)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"bhe: invalid input: converge runs the grids 64, 128 and 256, so n must be 64 (got {n})\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("c", [0.61, 2.05, 2.2, 2.45, 41.0])
    def test_round_surface_at_floor(self, tmp_path, c):
        # the exact solution a = 1/c: its round-off grows like h^-4, which
        # a fixed floor read as negative orders; the manufactured bump,
        # scaled by c^-3 below c = 1, shows second order on both pairs
        cfg = write_config(tmp_path, c1=c, c2=c, a=1.0 / c)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        assert data["residual_orders"] == data["kappa_orders"] == ["at-floor", "at-floor"]
        assert "at-floor" not in data["manufactured_orders"] and min(data["manufactured_orders"]) >= 1.9

    @pytest.mark.parametrize("c", [0.01, 0.03])
    def test_small_round_surface_passes(self, tmp_path, c):
        # eps c is capped at 1, so the bump's pole-slope error stays under
        # the pole gate; c^-3 alone put it over the gate below c ~ 0.04
        cfg = write_config(tmp_path, c1=c, c2=c, a=1.0 / c)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        assert data["manufactured_truncation"] == [
            toric.manufactured_truncation_error(c, 1.0 / c, n)[0] for n in data["grids"]]

    @pytest.mark.parametrize("c", [700.0, 1e6])
    def test_large_round_surface_passes(self, tmp_path, c):
        # 100/c caps eps c at 1 above c = 100 too: with eps = 1e-2 the bump's
        # pole-slope error 8 eps c h^2 went over the 50 h^2 pole gate near c = 630
        cfg = write_config(tmp_path, c1=c, c2=c, a=1.0 / c)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        assert data["residual_orders"] == data["kappa_orders"] == ["at-floor", "at-floor"]
        assert min(data["manufactured_orders"]) >= 1.9
        assert data["manufactured_truncation"] == [
            toric.manufactured_truncation_error(c, 1e-2 * (100.0 / c), n)[0] for n in data["grids"]]

    def test_sphere_factor_measured_in_either_slot(self, tmp_path):
        # the one sphere has c = 2.2; the flat factor's c = 1 is never read
        runs = []
        for flat_first in (True, False):
            kinds = ("flat-torus", "sphere") if flat_first else ("sphere", "flat-torus")
            cs = (1.0, 2.2) if flat_first else (2.2, 1.0)
            cfg = write_config(tmp_path, c1=cs[0], c2=cs[1], kind1=kinds[0], kind2=kinds[1], a=0.0)
            out = tmp_path / f"conv{len(runs)}"
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
            runs.append(json.loads(read(out / "converge.json")))
        assert runs[0]["kappa_errors"] == runs[1]["kappa_errors"]
        assert all(e > 0 for e in runs[0]["kappa_errors"])
        for data in runs:
            assert data["manufactured_truncation"] == [
                toric.manufactured_truncation_error(2.2, 1e-2, n)[0] for n in data["grids"]]

    def test_larger_sphere_factor_reported(self, tmp_path):
        # each factor is measured at its own c, and the larger error is reported
        cfg = write_config(tmp_path, c1=1.0, c2=3.0, a=0.0)
        out = tmp_path / "conv"
        # at a = 0 two round spheres leave E = -2 k1 k2, a constant that no grid refines
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        data = json.loads(read(out / "converge.json"))
        kappa = [max(float(np.max(np.abs(toric.SphereProfile.round(c, n).kappa - 1.0 / c)))
                     for c in (1.0, 3.0)) for n in data["grids"]]
        assert data["kappa_errors"] == kappa
        small = [toric.manufactured_truncation_error(1.0, 1e-2, n)[0] for n in data["grids"]]
        large = [toric.manufactured_truncation_error(3.0, 1e-2, n)[0] for n in data["grids"]]
        assert data["manufactured_truncation"] == large
        assert all(x > y for x, y in zip(large, small))

    def test_flat_flat_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, c1=1.0, c2=1.0, kind1="flat-torus", kind2="flat-torus", a=0.0)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "bhe: invalid input: converge measures sphere factors, and both factors are flat\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_inconsistent_class_fails(self, tmp_path):
        cfg = write_config(tmp_path, c1=2.2, c2=2.2, a=0.3)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        data = json.loads(read(out / "converge.json"))
        assert data["pass"] is False and "at-floor" not in data["residual_orders"]


@pytest.mark.parametrize("command, d2_calls", [(["pde", "residual"], 2), (["converge"], 9)])
def test_each_curvature_computed_once(tmp_path, monkeypatch, command, d2_calls):
    # one _d2 per sphere profile built: two factors, and for converge also
    # the manufactured bump, on each of its three grids
    calls = []
    d2 = toric._d2
    monkeypatch.setattr(toric, "_d2", lambda p, u: calls.append(p) or d2(p, u))
    cfg = write_config(tmp_path, c1=2.2, c2=2.2, a=1.0 / 2.2)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == d2_calls


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["verify", "--model", "su2xsu2", "--out", str(a)])
        main(["verify", "--model", "su2xsu2", "--out", str(b)])
        assert read(a / "report.json") == read(b / "report.json")

    def test_pde_artifacts_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, perturb_eps=0.01, n=32)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["pde", "solve", "--config", cfg, "--out", str(a)])
        main(["pde", "solve", "--config", cfg, "--out", str(b)])
        for name in ("trace.json", "history.csv", "surface.csv", "residual.csv"):
            assert read(a / name) == read(b / name), name

    def test_float_format_scientific_17(self, tmp_path):
        out = tmp_path / "fmt"
        main(["verify", "--model", "su2xsu2", "--out", str(out)])
        text = read(out / "report.json").decode()
        assert "1.0000000000000000e-10" in text


def reference_csv(header, rows):
    """The per-cell CSV text every artifact had before rows were streamed."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.16e}")
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvWriter:
    def test_cells_match_reference(self, tmp_path):
        # Homogeneous columns; the shorter ones end in empty cells.
        columns = [
            [float("nan"), 5e-324, np.float64("nan"), 2.5e-17],
            [float("inf"), 1e300, -0.0],
            [float("-inf"), np.float64(-1.0 / 3.0), np.float32(0.1)],
            [0, 7, -12],
            [],
        ]
        rows = list(itertools.zip_longest(*columns))
        path = tmp_path / "cells.csv"
        write_csv(str(path), ["a", "b", "c", "d", "e"], [cli._csv_columns(*columns)])
        assert read(path) == reference_csv(["a", "b", "c", "d", "e"], rows)

    @pytest.mark.parametrize(
        "kinds",
        [("sphere", "sphere"), ("sphere", "flat-torus"), ("flat-torus", "sphere")],
        ids=lambda k: "-x-".join(k),
    )
    def test_surface_csv_matches_reference(self, tmp_path, kinds):
        # A flat factor has n nodes, so its columns end in one empty cell.
        n = 32
        cfg = write_config(tmp_path, n=n, c1=1.0, c2=1.0, a=0.0, perturb_eps=0.01,
                           kind1=kinds[0], kind2=kinds[1])
        out = tmp_path / "res"
        assert main(["pde", "residual", "--config", cfg, "--out", str(out)]) == 0
        f1, f2 = (
            toric.SphereProfile.round_perturbed(1.0, n, 0.01)
            if kind == "sphere" else toric.SphereProfile.flat(1.0, n)
            for kind in kinds
        )
        s = toric.ProductSurface(f1, f2, 0.0)
        k1, k2 = s.factor1.kappa, s.factor2.kappa
        rows = [
            tuple(None if v is None else float(v) for v in row)
            for row in itertools.zip_longest(f1.z, f1.theta, f2.theta, k1, k2)
        ]
        assert len(rows) == n + 1
        want = reference_csv(["z", "Theta1", "Theta2", "kappa1", "kappa2"], rows)
        assert read(out / "surface.csv") == want
        # a flat factor's kappa column is +0.0 on every node
        assert b"-0.0000000000000000e+00" not in want

    @pytest.mark.parametrize(
        "body, flag, code",
        [
            ({"a": 0.5, "perturb_eps": 0.01}, "converged", 0),
            ({"a": 0.25}, "stalled", 1),  # some of its steps are damped
        ],
        ids=["converged", "stalled"],
    )
    def test_history_csv_matches_reference(self, tmp_path, body, flag, code):
        cfg = write_config(tmp_path, n=32, **body)
        out = tmp_path / "solve"
        assert main(["pde", "solve", "--config", cfg, "--out", str(out)]) == code
        trace = json.loads(read(out / "trace.json"))
        assert trace["flag"] == flag
        steps = [0.0, *trace["steps"]]
        assert (min(steps[1:]) < 1.0) == (flag == "stalled")
        rows = list(zip(range(len(steps)), trace["residual_sup"], steps))
        assert read(out / "history.csv") == reference_csv(["iteration", "residual", "step"], rows)

    def test_orders_csv_matches_reference(self, tmp_path):
        # a round surface with a = 1/c: every column holds nonzero values
        cfg = write_config(tmp_path, c1=2.2, c2=2.2, a=1.0 / 2.2)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        rows = list(zip(data["grids"], data["residual_sup"], data["kappa_errors"],
                        data["manufactured_truncation"]))
        assert len(rows) == 3
        want = reference_csv(["n", "residual_sup", "kappa_error", "manufactured_error"], rows)
        assert read(out / "orders.csv") == want

    @pytest.mark.parametrize(
        "n, body, factors",
        [
            pytest.param(n, body, factors, id=name + suffix)
            for n, suffix in ((32, ""), (256, "-n256"))
            for name, body, factors in (
                (
                    "sphere-x-sphere-perturbed",
                    {"a": 0.5, "perturb_eps": 0.01},
                    lambda n: [toric.SphereProfile.round_perturbed(2.0, n, 0.01)] * 2,
                ),
                (
                    "sphere-x-flat",
                    {"c1": 1.0, "c2": 1.0, "kind2": "flat-torus", "a": 0.0, "perturb_eps": 0.01},
                    lambda n: [toric.SphereProfile.round_perturbed(1.0, n, 0.01),
                               toric.SphereProfile.flat(1.0, n)],
                ),
            )
        ],
    )
    def test_residual_csv_matches_reference(self, tmp_path, n, body, factors):
        # n=256 spans several blocks of grid rows and a partial last block.
        cfg = write_config(tmp_path, n=n, **body)
        out = tmp_path / "res"
        assert main(["pde", "residual", "--config", cfg, "--out", str(out)]) == 0
        f1, f2 = factors(n)
        field = toric.pde_residual(toric.ProductSurface(f1, f2, body["a"]))
        rows = [
            (float(z1), float(z2), float(field.E[i, j]))
            for i, z1 in enumerate(f1.z)
            for j, z2 in enumerate(f2.z)
        ]
        assert read(out / "residual.csv") == reference_csv(["z1", "z2", "E"], rows)

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_residual_lines_special_values(self, monkeypatch, block):
        # Blocks of one value, of a partial row and of the whole field.
        monkeypatch.setattr(toric, "BLOCK_VALUES", block)
        z1 = np.array([-0.0, 5e-324, 1e200, -2.5e-308])
        z2 = np.array([np.nan, -np.inf, 0.0, 1.7976931348623157e308, -1e-100])
        E = np.array(
            [
                [np.nan, np.inf, -np.inf, -0.0, 0.0],
                [5e-324, -2.2250738585072014e-308, 1e-300, -1e-100, 1.0 + 2.0**-17],
                [1e150, -123.456, 9.999999999999999e-5, 0.1, -1e-10],
                [1e-5, 3.0e-320, -1e99, 1e100, 0.5],
            ]
        )
        rows = [(z1[i], z2[j], E[i, j]) for i in range(4) for j in range(5)]
        text = b"".join(cli._residual_lines(z1, z2, E))
        assert b"z1,z2,E\n" + text == reference_csv(["z1", "z2", "E"], rows)


class TestAtomicWrite:
    def test_failing_stream_keeps_old_file(self, tmp_path):
        path = tmp_path / "residual.csv"
        path.write_bytes(b"z1,z2,E\nold\n")

        def chunks():
            yield b"1.0,2.0,3.0\n" * 1000
            yield b"4.0,5.0,6.0\n" * 1000
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(str(path), ["z1", "z2", "E"], chunks())
        assert read(path) == b"z1,z2,E\nold\n"
        assert sorted(os.listdir(tmp_path)) == ["residual.csv"]

    def test_failing_stream_leaves_no_file(self, tmp_path):
        def chunks():
            yield b"partial\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomic(str(tmp_path / "out" / "new.csv"), chunks())
        assert os.listdir(tmp_path / "out") == []

    def test_bare_string_written_whole(self, tmp_path, monkeypatch):
        writes = []

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def writelines(self, chunks):
                for chunk in chunks:
                    writes.append(chunk)
                    self.fh.write(chunk)

        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *a, **k: Recorder(fdopen(*a, **k)))
        write_atomic(str(tmp_path / "a.json"), b"{}\n")
        assert writes == [b"{}\n"]
        assert read(tmp_path / "a.json") == b"{}\n"


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_one_process_runs_commands_in_turn(self, tmp_path, capsys):
        # the shared parser keeps no state from one call to the next
        out = tmp_path / "v"
        assert main(["verify", "--model", "su2xsu2", "--out", str(out)]) == 0
        assert json.loads(read(out / "report.json"))["pass"] is True
        cfg = write_config(tmp_path, a=0.0, kind2="flat-torus", c1=1.0, c2=1.0, n=32)
        assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert read(tmp_path / "r" / "residual.csv").count(b"\n") == 33 * 32 + 1
        with pytest.raises(SystemExit) as info:
            main(["verify", "--out", str(tmp_path / "x")])  # --model is missing
        assert info.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert main(["reduce", "--model", "flat-torus", "--out", str(tmp_path / "k")]) == 2
