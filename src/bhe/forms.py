"""Exact multilinear algebra of alternating tensors on a finite frame.

Conventions, fixed once for the whole package:

* A degree-k form stores the full antisymmetric component array
  b[i1,...,ik] = b(e_{i1},...,e_{ik}); degree 0 is a scalar.
* Inner products of k-forms use the full ordered-index sum
  <a,b> = a_{I} b^{I} (all indices raised through g), so |omega|^2 = 2n on
  a Hermitian 2n-frame.  This "doubled" 2-form norm is the one under which
  the torsion and principal-curvature norm identities close without stray
  factors.
* The Hodge star satisfies a ^ *b = (1/k!) <a,b> dV, which is the classical
  normalization: *(e^1^e^2) = e^3^e^4 on an orthonormal 4-frame.
* Frames need not be orthonormal; every contraction goes through g and
  its inverse explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels


class DegreeOverflowError(ValueError):
    """Raised when an operation would exceed the frame dimension."""


class ValidationError(ValueError):
    """Input data violates a structural invariant (with diagnostics)."""


def _antisym_defect(components: np.ndarray) -> float:
    # adjacent transpositions generate the symmetric group, so checking
    # b + swap(b, i, i+1) = 0 for every i is equivalent to full antisymmetry
    k = components.ndim
    if k < 2:
        return 0.0
    defect = 0.0
    for axis in range(k - 1):
        swapped = np.swapaxes(components, axis, axis + 1)
        defect = max(defect, float(np.max(np.abs(components + swapped))))
    return defect


@dataclass(frozen=True)
class FormTensor:
    """Alternating k-tensor on an n-dimensional frame."""

    degree: int
    dim: int
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        if not 0 <= self.degree <= self.dim:
            raise DegreeOverflowError(
                f"degree {self.degree} out of range for dimension {self.dim}"
            )
        expected = () if self.degree == 0 else (self.dim,) * self.degree
        if comp.shape != expected:
            raise ValueError(f"components shape {comp.shape}, expected {expected}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("components not finite")
        scale = max(1.0, float(np.max(np.abs(comp))) if comp.size else 0.0)
        defect = _antisym_defect(comp)
        if not defect <= 1e-10 * scale:
            raise ValueError(f"components not antisymmetric (defect {defect:.3e})")

    @classmethod
    def _of(cls, degree: int, dim: int, components: np.ndarray) -> "FormTensor":
        """Wrap a result that is alternating by construction, without re-checking it.

        For results of the operations in this package only; data from
        outside goes through the checking constructor.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "components", np.asarray(components, dtype=float))
        return out

    @staticmethod
    def zero(degree: int, dim: int) -> "FormTensor":
        shape = () if degree == 0 else (dim,) * degree
        return FormTensor._of(degree, dim, np.zeros(shape))

    def __add__(self, other: "FormTensor") -> "FormTensor":
        self._check_compatible(other)
        return FormTensor._of(self.degree, self.dim, self.components + other.components)

    def __sub__(self, other: "FormTensor") -> "FormTensor":
        self._check_compatible(other)
        return FormTensor._of(self.degree, self.dim, self.components - other.components)

    def __mul__(self, scalar: float) -> "FormTensor":
        return FormTensor._of(self.degree, self.dim, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "FormTensor":
        return FormTensor._of(self.degree, self.dim, -self.components)

    def _check_compatible(self, other: "FormTensor"):
        if self.degree != other.degree or self.dim != other.dim:
            raise ValueError("form degree/dimension mismatch")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.components))) if self.components.size else 0.0


@dataclass(frozen=True)
class MetricFrame:
    """Symmetric positive-definite metric on an n-dimensional frame."""

    g: np.ndarray
    inv: np.ndarray = field(init=False, repr=False)
    sqrt_det: float = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric must be a square matrix")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric has non-finite entries")
        if not np.max(np.abs(g - g.T)) <= 1e-12 * max(1.0, np.max(np.abs(g))):
            raise ValueError("metric not symmetric")
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0:
            raise ValueError(f"metric not positive-definite (min eigenvalue {eigs[0]:.3e})")
        sqrt_det = float(np.sqrt(np.linalg.det(g)))
        if not np.isfinite(sqrt_det):
            raise ValidationError("metric volume sqrt(det g) overflows")
        object.__setattr__(self, "inv", np.linalg.inv(g))
        object.__setattr__(self, "sqrt_det", sqrt_det)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def volume_form(self) -> FormTensor:
        """dV with dV(e_1,...,e_n) = sqrt(det g)."""
        n = self.dim
        return FormTensor._of(n, n, self.sqrt_det * levi_civita(n))


_EPS_CACHE: dict[int, np.ndarray] = {}


def levi_civita(n: int) -> np.ndarray:
    """Totally antisymmetric symbol with eps[0,1,...,n-1] = 1."""
    if n not in _EPS_CACHE:
        seed = np.zeros((n,) * n)
        seed[tuple(range(n))] = 1.0
        _EPS_CACHE[n] = _kernels.alt_sum(seed)
    return _EPS_CACHE[n]


def wedge(a: FormTensor, b: FormTensor) -> FormTensor:
    """Alternating product, normalized so (e^1 ^ e^2)(e_1, e_2) = 1."""
    if a.dim != b.dim:
        raise ValueError("frame dimension mismatch")
    k, l = a.degree, b.degree
    if k + l > a.dim:
        raise DegreeOverflowError(f"wedge degree {k}+{l} exceeds dimension {a.dim}")
    if k == 0:
        return FormTensor._of(l, b.dim, float(a.components) * b.components)
    if l == 0:
        return FormTensor._of(k, a.dim, float(b.components) * a.components)
    T = np.multiply.outer(a.components, b.components)
    comp = _kernels.alt_sum(T) / (_kernels.factorial(k) * _kernels.factorial(l))
    return FormTensor._of(k + l, a.dim, comp)


def raise_indices(b: FormTensor, g: MetricFrame) -> np.ndarray:
    return pullback(b.components, *(g.inv,) * b.degree)


def inner(a: FormTensor, b: FormTensor, g: MetricFrame) -> float:
    """Full ordered-index inner product a_I b^I (no 1/k!)."""
    a._check_compatible(b)
    if a.degree == 0:
        return float(a.components) * float(b.components)
    return float(np.tensordot(a.components, raise_indices(b, g), axes=a.degree))


def norm2(b: FormTensor, g: MetricFrame) -> float:
    return inner(b, b, g)


def hodge_star(a: FormTensor, g: MetricFrame) -> FormTensor:
    """Hodge dual: a ^ (*b) = (1/k!) <a,b> dV for all k-forms a, b."""
    n, k = g.dim, a.degree
    if a.dim != n:
        raise ValueError("frame dimension mismatch")
    eps = levi_civita(n)
    if k == 0:
        comp = float(a.components) * g.sqrt_det * eps
        return FormTensor._of(n, n, comp)
    raised = raise_indices(a, g)
    comp = np.tensordot(raised, eps, axes=(tuple(range(k)), tuple(range(k))))
    comp *= g.sqrt_det / _kernels.factorial(k)
    return FormTensor._of(n - k, n, comp if n > k else comp.reshape(()))


def interior_product(X: np.ndarray, b: FormTensor) -> FormTensor:
    """Contraction of the first slot with the frame vector X."""
    if b.degree == 0:
        raise DegreeOverflowError("cannot contract a 0-form")
    comp = np.asarray(X, dtype=float) @ b.components.reshape(b.dim, -1)
    return FormTensor._of(b.degree - 1, b.dim, comp.reshape(b.components.shape[1:]))


def j_conjugate(b: FormTensor, J: np.ndarray) -> FormTensor:
    """Pullback b(J., ..., J.) through an endomorphism of the frame."""
    J = np.asarray(J, dtype=float)
    return FormTensor._of(b.degree, b.dim, pullback(b.components, *(J,) * b.degree))


def pullback(T: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Contract every slot of T with a vector or an n x k frame, slot by slot.

    pullback(T, u, E) is T(u, E.) = einsum("ab,a,bi->i", T, u, E): a vector
    slot is consumed, a frame slot leaves one output axis, and the output
    axes follow the order of the frame factors.  Each slot is one matrix
    product: the leading axis is contracted and the new axis is appended.
    """
    out = np.asarray(T)
    if len(factors) != out.ndim:
        raise ValueError(f"{out.ndim}-slot tensor needs {out.ndim} factors, got {len(factors)}")
    for F in factors:
        rest = out.shape[1:]
        out = (out.reshape(out.shape[0], -1).T @ F).reshape(rest + F.shape[1:])
    return out


def omega_trace(b: FormTensor, omega: FormTensor, g: MetricFrame) -> float | FormTensor:
    """Trace over the first two slots against omega, full double-sum.

    Equals sum_{i,j} omega(eps_i, eps_j) b(eps_i, eps_j, ...) over any
    g-orthonormal frame; on a Hermitian 2n-frame tr_omega(omega) = 2n.
    """
    if b.degree < 2 or omega.degree != 2:
        raise ValueError("omega_trace needs a 2-form omega and degree >= 2 input")
    omega_up = raise_indices(omega, g)
    comp = omega_up.ravel() @ b.components.reshape(omega_up.size, -1)
    if b.degree == 2:
        return float(comp[0])
    return FormTensor._of(b.degree - 2, b.dim, comp.reshape(b.components.shape[2:]))


def type_decompose(b: FormTensor, J: np.ndarray) -> tuple[FormTensor, FormTensor]:
    """Split a 2-form into its J-invariant and J-anti-invariant parts."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if not np.max(np.abs(J @ J + np.eye(n))) <= 1e-10:
        raise ValueError("J is not an almost-complex structure (J^2 != -I)")
    if b.degree != 2:
        raise ValueError("type decomposition implemented for 2-forms")
    bJJ = j_conjugate(b, J)
    inv = FormTensor._of(2, b.dim, 0.5 * (b.components + bJJ.components))
    anti = FormTensor._of(2, b.dim, 0.5 * (b.components - bJJ.components))
    return inv, anti
