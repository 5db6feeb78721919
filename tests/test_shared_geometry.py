"""Geometry cached once per model and reduction, pinned report residuals, slot-wise pullback."""

import gc
import json
import os
import weakref
from collections import Counter

import numpy as np
import pytest

from bhe import catalog, reduction
from bhe import frame_geometry as fg
from bhe.cli import model_report
from bhe.forms import pullback

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "model_report_residuals.json")


def _j_rotation(J, rng):
    """Cayley transform of a random J-commuting skew matrix."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    S = A - A.T
    S = 0.5 * (S - J @ S @ J)
    return np.linalg.solve(np.eye(n) - 0.5 * S, np.eye(n) + 0.5 * S)


def _variant(name, seed):
    m = catalog.build_model(name)
    rng = np.random.default_rng(seed)
    Q = _j_rotation(m.J, rng)
    return fg.scale_metric(fg.change_frame(m, Q), float(rng.uniform(0.8, 1.25)))


def _counting(monkeypatch, module, name, key, counts, keep):
    """Replace module.name by a wrapper that counts calls per key(args)."""
    original = getattr(module, name)

    def wrapper(*args):
        keep.append(args)  # keeps ids unique for the whole report
        counts[(name,) + key(*args)] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


class TestGeometryCache:
    def test_each_object_computed_once_per_model(self, monkeypatch):
        m = _variant("su2xsu2", 3)
        counts, keep = Counter(), []
        for name in ("levi_civita", "bismut_torsion", "bismut_ricci_form", "lee_form"):
            _counting(monkeypatch, fg, name, lambda mm: (id(mm),), counts, keep)
        _counting(monkeypatch, fg, "curvature",
                  lambda conn, alg: (id(conn),), counts, keep)
        # reduction binds exterior_derivative under its own name
        for module in (fg, reduction):
            _counting(monkeypatch, module, "exterior_derivative",
                      lambda b, alg: (id(b),), counts, keep)
        _counting(monkeypatch, reduction, "transverse_curvature", lambda r: (id(r),), counts, keep)
        _counting(monkeypatch, reduction, "transverse_connection", lambda r: (id(r),), counts, keep)
        rep = model_report(m)
        assert rep.passes(1e-12)
        assert set(counts.values()) == {1}, {k: v for k, v in counts.items() if v != 1}
        per_function = Counter(k[0] for k in counts)
        # the variant and its unit-|V| rescaling
        assert per_function["levi_civita"] == 2
        assert per_function["bismut_torsion"] == 2
        assert per_function["lee_form"] == 2
        # only the variant is tested for Bismut-Ricci-flatness
        assert per_function["bismut_ricci_form"] == 1
        # d of omega on both models, of H and theta on the variant, and of
        # eta, Jeta, F_V, F_JV, omega_T and d^c omega_T in the reduction
        assert per_function["exterior_derivative"] == 10
        # both models need their Bismut curvature (bhe_residual, lemma_suite)
        # and their Riemann curvature: the variant for verify_lrho, its
        # rescaling for the transverse curvature
        models = {id(a[0]): a[0] for a in keep if isinstance(a[0], fg.HermitianModel)}
        assert len(models) == 2
        curved = {k[1] for k in counts if k[0] == "curvature"}
        assert curved == {id(conn) for mm in models.values() for conn in (mm.lc, mm.bismut)}
        # the reduction suites share one transverse curvature and connection
        assert per_function["transverse_curvature"] == 1
        assert per_function["transverse_connection"] == 1

    def test_geometry_is_per_model(self):
        m = catalog.build_model("su2xsu2")
        assert m.lc is m.lc
        m2 = fg.scale_metric(m, 2.0)
        assert m2.lc is not m.lc
        assert np.array_equal(m2.lc.gamma, fg.levi_civita(m2).gamma)

    def test_model_is_freed_without_the_cycle_collector(self):
        # the model holds its cache and nothing in the cache refers back to
        # it, so both go as soon as the last reference to the model does
        m = _variant("su2xsu2", 4)
        model_report(m)
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_cached_arrays_are_read_only(self):
        m = _variant("su2xsu2", 5)
        r = reduction.reduce(m)
        t1, t2 = m.lee_pair
        dF_V, dF_JV = r.dF
        arrays = [
            m.omega.components, m.domega.components, m.H.components, m.dH.components,
            m.lc.gamma, m.bismut.gamma, m.lc_curvature.R, m.bismut_curvature.R,
            m.rho_B.components, t1.components, t2.components, m.theta.components, m.V,
            r.fv, r.fjv, r.ht, r.omega_h, r.d_omega_T.components,
            dF_V.components, dF_JV.components, r.R_T, r.gamma_T,
        ]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        # a fresh computation is still writable
        fg.levi_civita(m).gamma[0, 0, 0] = 1.0


class TestPinnedResiduals:
    """model_report residuals recorded before the geometry cache and pullback."""

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(FIXTURE, encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _close(new, old):
        assert list(new) == list(old)
        for k, v in old.items():
            gap = abs(new[k] - v)
            assert gap <= 1e-15 or gap <= 1e-12 * abs(v), (k, new[k], v)

    def test_catalog_models(self, pinned):
        assert sorted(pinned["models"]) == sorted(catalog.MODEL_NAMES)
        for name, residuals in pinned["models"].items():
            self._close(model_report(catalog.build_model(name)).residuals, residuals)

    def test_seeded_variants(self, pinned):
        assert len(pinned["variants"]) == 2
        for v in pinned["variants"]:
            m = fg.scale_metric(fg.change_frame(catalog.build_model(v["base"]), np.array(v["Q"])),
                                v["scale"])
            self._close(model_report(m).residuals, v["residuals"])


class TestPullback:
    @pytest.mark.parametrize("subscripts, kinds", [
        ("abcd,ai,bj,ck,dl->ijkl", "MMMM"),
        ("abcd,a,bi,cj,dk->ijk", "vMMM"),
        ("abcd,ai,b,cj,dk->ijk", "MvMM"),
        ("abcd,a,bi,cj,d->ij", "vMMv"),
        ("abcd,a,b,ci,dj->ij", "vvMM"),
        ("abcd,ai,b,c,dj->ij", "MvvM"),
        ("abc,ai,b,ck->ik", "MvM"),
        ("ab,a,b->", "vv"),
    ])
    def test_matches_einsum(self, subscripts, kinds):
        rng = np.random.default_rng(len(subscripts) + 7 * kinds.count("v"))
        for _ in range(5):
            T = rng.standard_normal((6,) * len(kinds))
            factors = [rng.standard_normal(6) if k == "v" else rng.standard_normal((6, 4))
                       for k in kinds]
            ref = np.einsum(subscripts, T, *factors)
            out = pullback(T, *factors)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_non_contiguous_input_and_frame(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            T = rng.standard_normal((6, 6, 6, 6)).transpose(2, 0, 3, 1)
            E = rng.standard_normal((4, 6)).T  # a non-contiguous 6 x 4 frame
            F = rng.standard_normal((6, 4))
            u = rng.standard_normal(6)
            assert not (T.flags.c_contiguous or E.flags.c_contiguous)
            ref = np.einsum("abcd,ai,b,cj,dk->ijk", T, E, u, F, E)
            out = pullback(T, E, u, F, E)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValueError):
            pullback(np.zeros((3, 3)), np.zeros(3))
