"""Catalog content: one name -> builder table, shared models built on demand."""

import os
import subprocess
import sys

import numpy as np
import pytest

from bhe import catalog


class TestContent:
    def test_all_models_load(self):
        cat = catalog.load_catalog()
        # the benchmark's task mix iterates MODEL_NAMES, so the order is fixed
        assert tuple(cat) == catalog.MODEL_NAMES == (
            "su2xsu2", "su2xRxC", "hopf", "flat-torus", "perturbed-control",
        )

    def test_shared_models_are_one_object(self):
        cat = catalog.load_catalog()
        for name in catalog.MODEL_NAMES:
            m = catalog.get_model(name)
            assert catalog.get_model(name) is m and cat[name] is m
            assert catalog.build_model(name) is not m

    def test_normalization_unit_lee_vector(self):
        from bhe.frame_geometry import lee_vector

        for name in ("su2xsu2", "su2xRxC", "hopf"):
            m = catalog.get_model(name)
            V = lee_vector(m)
            assert V @ m.metric.g @ V == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.get_model("nonexistent")


_RANDOM_PROBE = """
import sys
from bhe import catalog
catalog.get_model(sys.argv[1])
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("name, loaded", [("su2xsu2", "False"), ("perturbed-control", "True")])
def test_numpy_random_only_for_the_perturbed_control(name, loaded):
    # only the perturbed control draws random numbers; asking for any other
    # model in a fresh interpreter must not pay for importing numpy.random
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _RANDOM_PROBE, name], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == loaded


class TestGenerators:
    def test_random_compatible_metric_properties(self):
        m = catalog.build_model("su2xsu2")
        for seed in range(5):
            mf = catalog.random_compatible_metric(m.J, np.random.default_rng(seed))
            assert np.max(np.abs(m.J.T @ mf.g @ m.J - mf.g)) < 1e-12
            assert np.min(np.linalg.eigvalsh(mf.g)) > 0

    def test_perturbation_is_deterministic(self):
        a = catalog.perturbed_model(catalog.build_model("su2xsu2"), 1e-2)
        b = catalog.perturbed_model(catalog.build_model("su2xsu2"), 1e-2)
        assert np.array_equal(a.metric.g, b.metric.g)
