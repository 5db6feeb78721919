"""Hot numeric kernels, in numpy.

The frame algebra spends much of its time antisymmetrizing index arrays
(wedge products, the Levi-Civita symbol) and expanding invariant exterior
derivatives from structure constants.  A traced frame-verify run of
``bhebench/run.py`` reports the calls and self time of both kernels
(``kernels.alt_sum``, ``kernels.dform_core``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_PERM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def perm_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations of range(m) as an (m!, m) int array plus their signs."""
    if m not in _PERM_CACHE:
        perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
        perms = perms.reshape(-1, m)
        signs = np.empty(len(perms))
        for i, p in enumerate(perms):
            # count inversions
            inv = sum(1 for a in range(m) for b in range(a + 1, m) if p[a] > p[b])
            signs[i] = -1.0 if inv % 2 else 1.0
        _PERM_CACHE[m] = (perms, signs)
    return _PERM_CACHE[m]


def alt_sum(T: np.ndarray) -> np.ndarray:
    """Signed sum over all permutations of the axes of T (no 1/m! factor)."""
    m = T.ndim
    if m <= 1:
        return T.copy()
    perms, signs = perm_table(m)
    out = np.zeros_like(T)
    for p, s in zip(perms, signs):
        out += s * np.transpose(T, axes=tuple(p))
    return out


def dform_core(c: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Invariant exterior derivative of a constant-coefficient k-form.

    c holds structure constants c[i,j,m] of [e_i, e_j] = c[i,j,m] e_m; the
    directional terms drop for invariant data, leaving only bracket terms:
    db(X_0..X_k) = sum_{s<t} (-1)^{s+t} b([X_s, X_t], X_0..^s..^t..X_k).
    """
    n = c.shape[0]
    if k == 0:
        return np.zeros(n)
    out = np.zeros((n,) * (k + 1))
    bracket = np.einsum("abm,m...->ab...", c, b)  # b([e_a, e_b], ...)
    for s in range(k + 1):
        for t in range(s + 1, k + 1):
            # place axes (a, b) at slots (s, t), remaining axes keep order
            out += ((-1) ** (s + t)) * np.moveaxis(bracket, (0, 1), (s, t))
    return out


def factorial(m: int) -> int:
    return math.factorial(m)
