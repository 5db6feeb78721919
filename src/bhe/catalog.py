"""The shipped model catalog and its JSON serialization.

Four geometries: the two bi-invariant Bismut-flat threefold families, the
Bismut-flat Hopf surface, and a flat Kahler control, each normalized so the
Lee vector field is unit length.  A deterministically perturbed copy of the
first model serves as the negative control.

Serialized schema (UTF-8 JSON):
    {"name": str, "dim": int, "c": [[i, j, k, value], ...] with i < j,
     "g": row-major list, "J": row-major list, "f": float}
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .forms import MetricFrame
from .frame_geometry import HermitianModel, StructureAlgebra

MODEL_NAMES = ("su2xsu2", "su2xRxC", "hopf", "flat-torus", "perturbed-control")


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


def _builders() -> dict:
    base = {
        "su2xsu2": _build_su2xsu2,
        "su2xRxC": _build_su2xrxc,
        "hopf": _build_hopf,
        "flat-torus": _build_flat_torus,
    }
    return base


def build_model(name: str) -> HermitianModel:
    builders = _builders()
    if name in builders:
        return builders[name]()
    if name == "perturbed-control":
        return perturbed_model(_build_su2xsu2(), 1e-2, name="perturbed-control")
    raise KeyError(f"unknown model {name!r}; catalog: {', '.join(MODEL_NAMES)}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def model_to_dict(m: HermitianModel) -> dict:
    n = m.dim
    triples = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = m.algebra.c[i, j, k]
                if v != 0.0:
                    triples.append([i, j, k, float(v)])
    return {
        "name": m.name,
        "dim": n,
        "c": triples,
        "g": [float(x) for x in m.metric.g.ravel()],
        "J": [float(x) for x in m.J.ravel()],
        "f": float(m.f),
    }


def model_from_dict(d: dict) -> HermitianModel:
    n = int(d["dim"])
    c = np.zeros((n, n, n))
    for i, j, k, v in d["c"]:
        c[int(i), int(j), int(k)] = float(v)
        c[int(j), int(i), int(k)] = -float(v)
    g = np.array(d["g"], dtype=float).reshape(n, n)
    J = np.array(d["J"], dtype=float).reshape(n, n)
    return HermitianModel(
        StructureAlgebra(c), MetricFrame(g), J, f=float(d.get("f", 0.0)),
        name=str(d.get("name", "")),
    )


_CATALOG_CACHE: dict[str, HermitianModel] | None = None


def load_catalog() -> dict[str, HermitianModel]:
    """Catalog keyed by name, loaded from the shipped JSON data file."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        text = resources.files("bhe").joinpath("data/catalog.json").read_text("utf-8")
        data = json.loads(text)
        _CATALOG_CACHE = {d["name"]: model_from_dict(d) for d in data["models"]}
    return dict(_CATALOG_CACHE)


def get_model(name: str) -> HermitianModel:
    cat = load_catalog()
    if name not in cat:
        raise KeyError(f"unknown model {name!r}; catalog: {', '.join(sorted(cat))}")
    return cat[name]
