"""The numpy kernels agree with explicit-loop references."""

import itertools

import numpy as np

import bhe._kernels as K


def _sign(p):
    inversions = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
    return -1.0 if inversions % 2 else 1.0


def _alt_sum_reference(T):
    """sum_sigma sign(sigma) T[I_sigma(0), ..., I_sigma(m-1)], entry by entry."""
    m = T.ndim
    out = np.zeros_like(T)
    for idx in itertools.product(range(T.shape[0]), repeat=m):
        out[idx] = sum(
            _sign(p) * T[tuple(idx[p[a]] for a in range(m))]
            for p in itertools.permutations(range(m))
        )
    return out


def _dform_reference(c, b, k):
    """db(e_j0..e_jk) = sum_{s<t} (-1)^{s+t} b([e_js, e_jt], e_j0..^s..^t..e_jk)."""
    n = c.shape[0]
    out = np.zeros((n,) * (k + 1))
    for idx in itertools.product(range(n), repeat=k + 1):
        val = 0.0
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(idx[a] for a in range(k + 1) if a not in (s, t))
                for m in range(n):
                    val += (-1) ** (s + t) * c[idx[s], idx[t], m] * b[(m,) + rest]
        out[idx] = val
    return out


def test_alt_sum_matches_numpy_path():
    # the only path is numpy; it must match the explicit permutation sum
    rng = np.random.default_rng(0)
    for n, m in ((5, 2), (4, 3), (4, 4), (3, 5)):
        T = rng.standard_normal((n,) * m)
        ref = _alt_sum_reference(T)
        assert np.max(np.abs(K.alt_sum(T) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_dform_matches_numpy_path():
    from bhe.catalog import build_model

    rng = np.random.default_rng(1)
    for name in ("su2xsu2", "hopf"):
        c = build_model(name).algebra.c
        n = c.shape[0]
        # Maurer-Cartan on basis 1-forms: de^m(e_a, e_b) = -c[a, b, m]
        for m in range(n):
            e = np.zeros(n)
            e[m] = 1.0
            assert np.array_equal(K.dform_core(c, e, 1), -c[:, :, m])
        for k in (1, 2, 3):
            b = _alt_sum_reference(rng.standard_normal((n,) * k))
            ref = _dform_reference(c, b, k)
            assert np.max(np.abs(K.dform_core(c, b, k) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_perm_table_signs():
    perms, signs = K.perm_table(3)
    assert perms.shape == (6, 3)
    assert np.sum(signs) == 0.0  # equal numbers of even and odd permutations
