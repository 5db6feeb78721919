"""Command-line contract: artifacts, exit codes, determinism."""

import json
import os

import pytest

from bhe.cli import main


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

    def test_unknown_model_exit_2(self, tmp_path):
        assert main(["verify", "--model", "zzz", "--out", str(tmp_path)]) == 2


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

    def test_unequal_areas_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, c2=1.0)
        assert main(["pde", "solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_small_grid_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, n=8)
        assert main(["pde", "residual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

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


class TestConverge:
    def test_orders_reported(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(read(out / "converge.json"))
        assert data["grids"] == [64, 128, 256]
        assert all(o == "at-floor" or o >= 1.9 for o in data["residual_orders"])
        assert all(o >= 1.9 for o in data["manufactured_orders"])


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
