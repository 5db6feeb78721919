"""The jitted kernels agree with their pure-numpy fallbacks."""

import os
import subprocess
import sys

import numpy as np

import bhe._kernels as K


def test_alt_sum_matches_numpy_path():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4, 5):
        T = rng.standard_normal((5,) * m)
        perms, signs = K.perm_table(m)
        a = K.alt_sum(T)
        b = K._alt_sum_numpy(T, perms, signs)
        assert np.max(np.abs(a - b)) < 1e-12


def test_dform_matches_numpy_path():
    from bhe.catalog import build_model

    c = build_model("su2xsu2").algebra.c
    rng = np.random.default_rng(1)
    for k in (1, 2, 3):
        b = K.alt_sum(rng.standard_normal((6,) * k)) / K.factorial(k)
        assert np.max(np.abs(K.dform_core(c, b, k) - K._dform_numpy(c, b, k))) < 1e-12


def test_perm_table_signs():
    perms, signs = K.perm_table(3)
    assert perms.shape == (6, 3)
    assert np.sum(signs) == 0.0  # equal numbers of even and odd permutations


def test_numpy_fallback_env_flag():
    """A fresh interpreter with the flag set must run the numpy path."""
    code = (
        "import os; os.environ['BHE_DISABLE_NUMBA']='1';"
        "import bhe._kernels as K; import numpy as np;"
        "assert not K.USING_NUMBA;"
        "T = np.arange(16.0).reshape(4,4);"
        "print(float(K.alt_sum(T)[1,2]))"
    )
    # The child imports the same bhe as this process, also when pytest put
    # src/ on sys.path itself rather than through PYTHONPATH.
    src = os.path.dirname(os.path.dirname(os.path.abspath(K.__file__)))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    T = np.arange(16.0).reshape(4, 4)
    assert float(out.stdout.strip()) == float(K.alt_sum(T)[1, 2])
