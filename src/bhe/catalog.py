"""The shipped model catalog, built in code.

Four geometries: the two bi-invariant Bismut-flat threefold families, the
Bismut-flat Hopf surface, and a flat Kahler control, each normalized so the
Lee vector field is unit length.  A deterministically perturbed copy of the
first model serves as the negative control.

Each model is built on first request and then shared: ``get_model`` and
``load_catalog`` hand out the same objects, so cached geometry persists.
Only the perturbed control draws random numbers, so asking for any other
model leaves ``numpy.random`` unimported.
"""

from __future__ import annotations

import numpy as np

from .forms import MetricFrame
from .frame_geometry import HermitianModel, StructureAlgebra


def _su2_block(c: np.ndarray, i0: int) -> None:
    """Write su(2) cyclic structure constants onto indices i0, i0+1, i0+2."""
    for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i0 + a, i0 + b, i0 + k] = 1.0
        c[i0 + b, i0 + a, i0 + k] = -1.0


def _pair_J(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Complex structure sending e_a -> e_b for each listed pair (a, b)."""
    J = np.zeros((n, n))
    for a, b in pairs:
        J[b, a] = 1.0
        J[a, b] = -1.0
    return J


def _build_su2xsu2() -> HermitianModel:
    c = np.zeros((6, 6, 6))
    _su2_block(c, 0)
    _su2_block(c, 3)
    # bi-invariant metric 2*I is the unique scale with |V| = 1
    g = 2.0 * np.eye(6)
    J = _pair_J(6, [(0, 1), (3, 4), (2, 5)])
    return HermitianModel(StructureAlgebra(c), MetricFrame(g), J, f=0.0, name="su2xsu2")


def _build_su2xrxc() -> HermitianModel:
    c = np.zeros((6, 6, 6))
    _su2_block(c, 0)
    g = np.eye(6)
    J = _pair_J(6, [(0, 1), (2, 3), (4, 5)])
    return HermitianModel(StructureAlgebra(c), MetricFrame(g), J, f=0.0, name="su2xRxC")


def _build_hopf() -> HermitianModel:
    c = np.zeros((4, 4, 4))
    _su2_block(c, 0)
    g = np.eye(4)
    J = _pair_J(4, [(0, 1), (2, 3)])
    return HermitianModel(StructureAlgebra(c), MetricFrame(g), J, f=0.0, name="hopf")


def _build_flat_torus() -> HermitianModel:
    c = np.zeros((6, 6, 6))
    g = np.eye(6)
    J = _pair_J(6, [(0, 1), (2, 3), (4, 5)])
    return HermitianModel(StructureAlgebra(c), MetricFrame(g), J, f=0.0, name="flat-torus")


def compatible_symmetric(J: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric matrix commuting with the Hermitian pairing of J."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    S = 0.5 * (A + A.T)
    return 0.5 * (S + J.T @ S @ J)


def perturbed_model(
    base: HermitianModel, eps: float, seed: int = 20250423, name: str = ""
) -> HermitianModel:
    """J-compatible metric perturbation of a model; generically not BHE."""
    rng = np.random.default_rng(seed)
    S = compatible_symmetric(base.J, rng)
    g = base.metric.g + eps * S
    return HermitianModel(base.algebra, MetricFrame(g), base.J, f=base.f, name=name)


def random_compatible_metric(J: np.ndarray, rng: np.random.Generator) -> MetricFrame:
    """Random J-compatible positive-definite metric."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    P = A @ A.T + n * np.eye(n)
    return MetricFrame(0.5 * (P + J.T @ P @ J))


def _build_perturbed_control() -> HermitianModel:
    return perturbed_model(_build_su2xsu2(), 1e-2, name="perturbed-control")


_BUILDERS = {
    "su2xsu2": _build_su2xsu2,
    "su2xRxC": _build_su2xrxc,
    "hopf": _build_hopf,
    "flat-torus": _build_flat_torus,
    "perturbed-control": _build_perturbed_control,
}

MODEL_NAMES = tuple(_BUILDERS)


def build_model(name: str) -> HermitianModel:
    """A fresh model, with its own empty geometry cache."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown model {name!r}; catalog: {', '.join(MODEL_NAMES)}")
    return _BUILDERS[name]()


_SHARED: dict[str, HermitianModel] = {}


def _shared(name: str) -> HermitianModel:
    # load_catalog calls this, not get_model, so a wrapper around get_model
    # counts direct requests only.  setdefault keeps the first of two
    # concurrent builds, so every caller gets the same object.
    if name not in _SHARED:
        _SHARED.setdefault(name, build_model(name))
    return _SHARED[name]


def get_model(name: str) -> HermitianModel:
    """The shared model of that name, built on first request.

    Every call returns the same object, so its cached geometry is reused.
    """
    return _shared(name)


def load_catalog() -> dict[str, HermitianModel]:
    """The shared models of every name, keyed by name."""
    return {name: _shared(name) for name in MODEL_NAMES}
