"""Workbench for non-Kahler Bismut-Hermitian-Einstein frame geometry."""

from .forms import FormTensor, MetricFrame, inner, norm2, omega_trace, type_decompose, wedge
from .frame_geometry import (
    HermitianModel,
    KahlerInputError,
    StructureAlgebra,
    ValidationError,
    bhe_residual,
    bismut_connection,
    bismut_ricci_form,
    bismut_torsion,
    curvature,
    exterior_derivative,
    lee_form,
    levi_civita,
    verify_lrho,
)
from .report import Report

__version__ = "0.1.0"
