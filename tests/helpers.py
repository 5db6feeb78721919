"""Shared test data generators."""

import numpy as np

from bhe import solver
from bhe.forms import MetricFrame
from bhe.toric import SphereProfile, _d2, flux_laplacian


def random_compatible_metric(J: np.ndarray, rng: np.random.Generator) -> MetricFrame:
    """Random J-compatible positive-definite metric."""
    n = J.shape[0]
    A = rng.standard_normal((n, n))
    P = A @ A.T + n * np.eye(n)
    return MetricFrame(0.5 * (P + J.T @ P @ J))


def flat_profile(c: float, n: int, value: float) -> SphereProfile:
    """Flat-torus factor with the constant Theta = value (SphereProfile.flat has Theta = 1)."""
    return SphereProfile(c, n, np.full(n, float(value)), "flat-torus")


def dense_factor_derivatives(p: SphereProfile) -> tuple[np.ndarray, np.ndarray]:
    """Reference forward differences of (A, k) over the unknowns of p, on the whole grid.

    Each unknown moves by solver.FD_STEP * max(1, |x_j|) through the
    pole-constraint map; all perturbed profiles are stacked as columns and
    differentiated in one pass.  Returns (DA, Dk), each (n+1) x (n-3).
    """
    inner = p.theta[2:-2]
    m = inner.size
    delta = solver.FD_STEP * np.maximum(1.0, np.abs(inner))
    X = np.repeat(inner[:, None], m + 1, axis=1)  # column 0 stays unperturbed
    X[np.arange(m), np.arange(1, m + 1)] += delta
    theta = solver._sphere_theta(p, X)
    k = -0.5 * _d2(p, theta)
    A = flux_laplacian(p, theta, k)
    return (A[:, 1:] - A[:, :1]) / delta, (k[:, 1:] - k[:, :1]) / delta


def band_to_dense(band: np.ndarray, n: int, r_o: int = 1) -> np.ndarray:
    """The (n+1) r_o x (n-3) matrix that a band from solver._factor_derivatives or solver._jacobian stores."""
    m = band.shape[1]
    rows = solver._band_starts(n) * r_o + np.arange(band.shape[0])[:, None]
    D = np.zeros(((n + 1) * r_o, m))
    D[rows, np.arange(m)] = band
    return D
