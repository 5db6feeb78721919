"""Shared test data generators."""

import numpy as np

from bhe.forms import MetricFrame
from bhe.toric import SphereProfile


def random_compatible_metric(J: np.ndarray, rng: np.random.Generator) -> MetricFrame:
    """Random J-compatible positive-definite metric."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    P = A @ A.T + n * np.eye(n)
    return MetricFrame(0.5 * (P + J.T @ P @ J))


def flat_profile(c: float, n: int, value: float) -> SphereProfile:
    """Flat-torus factor with the constant Theta = value (SphereProfile.flat has Theta = 1)."""
    return SphereProfile(c, n, np.full(n, float(value)), "flat-torus")
