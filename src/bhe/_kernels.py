"""Hot numeric kernels, in numpy.

The frame algebra spends much of its time antisymmetrizing index arrays
(wedge products, the Levi-Civita symbol), expanding invariant exterior
derivatives from structure constants and contracting connection
coefficients into tensor slots.  A traced frame-verify run of
``bhebench/run.py`` reports the calls and self time of the first two
kernels (``kernels.alt_sum``, ``kernels.dform_core``).

The arrays are tiny (at most 6^4 entries), so the cost is numpy's per-call
overhead rather than arithmetic.  The kernels keep that low without
changing a single floating-point operation: axis permutations are cached
tuples applied with ``ndarray.transpose`` (the view ``np.moveaxis``
builds, minus its argument normalization), signed terms are added or
subtracted instead of multiplied by +-1 (x - y is x + (-y) in IEEE
arithmetic), and each slot contraction is the one matrix product
``np.tensordot`` would issue.  Every result is bit-identical to the
moveaxis / tensordot formulation; ``tests/test_contractions.py`` checks
that with ``np.array_equal`` and the sign bits of zeros.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

@functools.cache
def perm_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations of range(m) as an (m!, m) int array plus their signs."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    perms = perms.reshape(-1, m)
    signs = np.empty(len(perms))
    for i, p in enumerate(perms):
        # count inversions
        inv = sum(1 for a in range(m) for b in range(a + 1, m) if p[a] > p[b])
        signs[i] = -1.0 if inv % 2 else 1.0
    return perms, signs


@functools.cache
def _signed_axes(m: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """perm_table(m) as (transpose axes, is even) pairs, in the same order."""
    perms, signs = perm_table(m)
    return tuple((tuple(int(a) for a in p), bool(s > 0)) for p, s in zip(perms, signs))


def alt_sum(T: np.ndarray) -> np.ndarray:
    """Signed sum over all permutations of the axes of T (no 1/m! factor)."""
    m = T.ndim
    if m <= 1:
        return T.copy()
    out = np.zeros_like(T)
    for axes, even in _signed_axes(m):
        if even:
            out += T.transpose(axes)
        else:
            out -= T.transpose(axes)
    return out


@functools.cache
def _dform_axes(k: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """For each s < t: the axes placing bracket axes (0, 1) at slots (s, t), and (-1)^(s+t) > 0."""
    terms = []
    for s in range(k + 1):
        for t in range(s + 1, k + 1):
            axes = list(range(2, k + 1))  # remaining axes keep their order
            axes.insert(s, 0)
            axes.insert(t, 1)
            terms.append((tuple(axes), (s + t) % 2 == 0))
    return tuple(terms)


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
    for axes, even in _dform_axes(k):
        if even:
            out += bracket.transpose(axes)
        else:
            out -= bracket.transpose(axes)
    return out


@functools.cache
def _slot_axes(ndim: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per slot of an ndim-tensor T: the axes that bring the slot to the front
    of T, and the axes that move axis 1 of the (a, slot, rest) product back
    to position slot + 1."""
    terms = []
    for slot in range(ndim):
        front = (slot,) + tuple(k for k in range(ndim) if k != slot)
        back = [0] + list(range(2, ndim + 1))
        back.insert(slot + 1, 1)
        terms.append((front, tuple(back)))
    return tuple(terms)


def connection_core(G: np.ndarray, T: np.ndarray) -> np.ndarray:
    """-sum over the slots of T of G[a, b, m] contracted into that slot.

    With G[a, b, m] the connection coefficients nabla_{e_a} e_b = G[a,b,m] e_m
    of an invariant frame, this is (nabla_a T)_{b1..bk} for an all-lower
    tensor T.  Each slot is one matrix product ``G.reshape(-1, n) @ T_slot``
    with T's slot moved to the front, the product ``np.tensordot(G, T,
    axes=([2], [slot]))`` computes, followed by a cached transpose.
    """
    n_a, n_b, n = G.shape
    out = np.zeros((n_a,) + T.shape)
    G2 = G.reshape(-1, n)
    for front, back in _slot_axes(T.ndim):
        Ts = T.transpose(front)
        contr = (G2 @ Ts.reshape(n, -1)).reshape((n_a, n_b) + Ts.shape[1:])
        out -= contr.transpose(back)
    return out
