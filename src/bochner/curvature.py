"""Algebraic curvature tensors, their operators and their decompositions.

A curvature tensor here is a purely pointwise object: a real rank-4
tensor with the pair symmetries and the first Bianchi identity, no
manifold attached.  It is one real (d, d, d, d) array from file to sharp.
Files hold the upper triangle of its operator; the reader also takes the
[re, im] pairs that stdout prints, refusing imaginary parts above
1e-8 max(1, |Re|_max).  Its curvature operator R on Lambda^2 V is a view
of the same object: `AlgebraicCurvatureTensor.operator` is the symmetric
matrix in the wedge-orthonormal basis, computed once per tensor, and
the restricted Gram matrix and the leakage off a holonomy algebra are
read from the tensor.  The module provides

* the operator view and its inverse `from_operator`,
* Ricci contractions and the Kulkarni-Nomizu product,
* model tensors: flat, constant sectional curvature, constant
  holomorphic sectional curvature (chsc) and the quaternionic projective
  model (hpm),
* the standard splitting of a Kahler curvature tensor into scalar,
  Ricci and totally trace-free (Bochner) parts, and the quaternionic
  splitting into a model multiple plus a Ricci-flat remainder,
* restricted spectra on holonomy subalgebras and the sharp-norm
  identities that relate |Rm^g|^2 to the component norms,
* random generators for curvature classes supported on a holonomy
  subalgebra, drawn on closed-form orthonormal bases of those classes.

Norm bookkeeping: |Rm|^2 always denotes the full rank-4 tensor norm and
equals 4 |R|^2, where |R|^2 is the Frobenius norm of the operator.  The
sharp norm |Rm^g|^2 sums full-tensor slice norms; its operator-scaled
variant |Rm^g|^2 / 4 is reported alongside, since the component
identities below take their cleanest form in that scaling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partialmethod

import numpy as np

from .holonomy import AlgebraKind, _sp_m_commutant, cached_algebra, sharp
from .tensors import (_avatars, _coframe, _component_array, _file_space, _finite_floats,
                      _read_json, _space_header, _tensor_doc, _write_json, wedge_pairs)

__all__ = [
    "AlgebraicCurvatureTensor",
    "KahlerDecomposition",
    "QuaternionDecomposition",
    "from_operator",
    "ricci",
    "scalar_curvature",
    "tf_ricci",
    "ricci_form",
    "primitive_ricci_form",
    "kulkarni_nomizu",
    "model",
    "flat_model",
    "constant_sectional_model",
    "chsc_model",
    "quaternionic_projective_model",
    "kahler_decompose",
    "quaternion_decompose",
    "restricted_spectrum",
    "kahler_sharp_identity",
    "quaternion_sharp_identity",
    "sharp_norm_identities",
    "random_curvature",
    "random_kahler_curvature",
    "random_hyperkahler_curvature",
    "random_quaternion_kahler_curvature",
    "curvature_to_json",
    "curvature_from_json",
    "save_curvature",
    "load_curvature",
]


# An operator leaks off an algebra when its residual on the complement (the
# spectral norm of R Q) exceeds SUPPORT_TOL * max(1, |R|_max).
SUPPORT_TOL = 1e-8


def _refuse_leak(source, leak, values):
    """Raise ValueError when `leak` exceeds SUPPORT_TOL * max(1, max |values|),
    `values` being the operator, or the eigenvalues, that the leak belongs to."""
    if leak > SUPPORT_TOL * np.abs(values).max(initial=1.0):
        raise ValueError(f"{source} leaks off the algebra: residual {leak:.3e}")


def _kahler_form_array(space):
    """omega_{ab} = g(J e_a, e_b), the Kahler 2-form of the complex structure."""
    return space.j_matrix().T


def _bianchi_residual(arr):
    return arr + np.transpose(arr, (1, 2, 0, 3)) + np.transpose(arr, (2, 0, 1, 3))


def _symmetric_operator(M):
    """0.5 (M + M^T), read-only, of a matrix symmetric to 1e-9 |M|_max; a copy
    of an exactly symmetric M, whose entries cannot overflow in the sum."""
    dev = np.abs(M - M.T).max()
    if dev > 1e-9 * max(1.0, np.abs(M).max()):
        raise ValueError("curvature operator must be symmetric")
    M = 0.5 * (M + M.T) if dev else M.copy()
    M.setflags(write=False)
    return M


def _pair_symmetry_residual(arr):
    r1 = arr + np.transpose(arr, (1, 0, 2, 3))
    r2 = arr + np.transpose(arr, (0, 1, 3, 2))
    r3 = arr - np.transpose(arr, (2, 3, 0, 1))
    return max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())


class AlgebraicCurvatureTensor:
    """Real rank-4 tensor with curvature symmetries and first Bianchi identity."""

    components = property(lambda self: self.array)  # as `sharp` and `_tensor_doc` read it

    def __init__(self, space, rm, kahler=False, quaternion=False, validate=True):
        self.space = space
        if np.iscomplexobj(rm):
            raise TypeError("curvature components must be a real array")
        arr = np.array(rm, dtype=float)
        if arr.shape != (space.dim,) * 4:
            raise ValueError(f"components shape {arr.shape} incompatible with dim {space.dim}")
        arr.setflags(write=False)
        self.array = arr
        self._operator = None
        self.kahler = bool(kahler)
        self.quaternion = bool(quaternion)
        if validate:
            self._validate()

    def _validate(self):
        if not np.isfinite(self.array).all():
            raise ValueError("curvature components must be finite")
        self._require_finite_norm()
        tol = 1e-8 * max(1.0, np.abs(self.array).max())
        dev = _pair_symmetry_residual(self.array)
        if dev > tol:
            raise ValueError(f"curvature pair symmetries violated, deviation {dev:.2e}")
        dev = np.abs(_bianchi_residual(self.array)).max()
        if dev > tol:
            raise ValueError(f"first Bianchi identity violated, deviation {dev:.2e}")
        if self.kahler:
            J = self.space.j_matrix()
            # one J at a time: both at once is one d^6 loop, over ten times slower at d = 10
            jj = np.einsum("by,ayzw->abzw", J, np.einsum("ax,xyzw->ayzw", J, self.array))
            dev = np.abs(jj - self.array).max()
            if dev > tol:
                raise ValueError(f"Kahler pair invariance violated, deviation {dev:.2e}")
        if self.quaternion and self.space.quaternionic_structure is None:
            raise ValueError("quaternion flag requires a quaternionic structure")

    def _require_finite_norm(self):
        """Refuse a tensor whose |Rm|^2 overflows, as its contractions would."""
        with np.errstate(over="ignore"):
            rm2 = self.norm2()
        if not math.isfinite(rm2):
            raise ValueError("curvature norm |Rm|^2 overflows a float; rescale the tensor")

    @property
    def operator(self):
        """Curvature operator with g(R(e_i ^ e_j), e_k ^ e_l) = Rm(e_i, e_j, e_k, e_l).

        The read-only (P, P) matrix on the wedge-orthonormal basis, built on
        first use.  The duality |Rm|^2 = 4 |R|^2 is checked then; it holds
        identically once the pair symmetries do.
        """
        if self._operator is None:
            k, l = np.array(wedge_pairs(self.space.dim)).T
            M = _symmetric_operator(self.array[k[:, None], l[:, None], k, l])
            rm2, op2 = self.norm2(), float(np.sum(M * M))
            if rm2 > 0 and abs(rm2 - 4 * op2) > 1e-8 * rm2:
                raise ValueError(f"norm duality |Rm|^2 = 4|R|^2 violated: "
                                 f"{rm2:.6g} vs {4 * op2:.6g}")
            self._operator = M
        return self._operator

    def restricted_gram(self, algebra):
        """The Gram restriction [g(R Xi_a, Xi_b)] of the operator to the algebra."""
        B = algebra.coeff_matrix
        return B @ self.operator @ B.T

    def leakage(self, algebra):
        """Spectral norm of R applied to the orthogonal complement of the algebra."""
        Q = algebra.complement_projector()
        return float(np.linalg.norm(self.operator @ Q, 2))

    def norm2(self):
        return float(np.sum(self.array * self.array))

    def _combine(self, other, op):
        return AlgebraicCurvatureTensor(self.space, op(self.array, other.array),
                                        kahler=self.kahler and other.kahler,
                                        quaternion=self.quaternion and other.quaternion,
                                        validate=False)

    __add__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)

    def __mul__(self, scalar):
        return AlgebraicCurvatureTensor(self.space, self.array * scalar,
                                        kahler=self.kahler, quaternion=self.quaternion,
                                        validate=False)

    __rmul__ = __mul__

    def __repr__(self):
        flags = [f for f in ("kahler", "quaternion") if getattr(self, f)]
        extra = f", flags={flags}" if flags else ""
        return f"AlgebraicCurvatureTensor(dim={self.space.dim}{extra})"


def from_operator(space, matrix, validate=True, kahler=False, quaternion=False):
    """Rank-4 tensor of a symmetric operator on Lambda^2 V, a (P, P) matrix with
    P = d (d - 1) / 2; inverse of `AlgebraicCurvatureTensor.operator`."""
    d = space.dim
    P = d * (d - 1) // 2
    M = np.asarray(matrix, dtype=float)
    if M.shape != (P, P):
        raise ValueError(f"operator matrix has shape {M.shape}, expected ({P}, {P})")
    M = _symmetric_operator(M)
    k, l = np.array(wedge_pairs(d)).T
    i, j = k[:, None], l[:, None]
    arr = np.zeros((d, d, d, d))
    arr[i, j, k, l] = arr[j, i, l, k] = M
    arr[j, i, k, l] = arr[i, j, l, k] = 0.0 - M  # a zero entry is +0.0 in all four slots
    return AlgebraicCurvatureTensor(space, arr, kahler=kahler, quaternion=quaternion,
                                    validate=validate)


def ricci(rm_tensor):
    """Ric(Y, W) = sum_i Rm(e_i, Y, e_i, W); symmetric."""
    return np.einsum("iyiw->yw", rm_tensor.array)


def scalar_curvature(rm_tensor):
    return float(np.trace(ricci(rm_tensor)))


def tf_ricci(rm_tensor):
    """Trace-free Ricci tensor Ric - (scal / d) g."""
    ric = ricci(rm_tensor)
    d = rm_tensor.space.dim
    return ric - (np.trace(ric) / d) * np.eye(d)


def ricci_form(rm_tensor):
    """rho(X, Y) = Ric(J X, Y); antisymmetric for Kahler input."""
    if rm_tensor.space.complex_structure is None:
        raise ValueError("Ricci form needs a complex structure")
    J = rm_tensor.space.j_matrix()
    return np.einsum("xa,xb->ab", J, ricci(rm_tensor))


def primitive_ricci_form(rm_tensor):
    """rho - (scal / d) omega, orthogonal to the Kahler form."""
    d = rm_tensor.space.dim
    scal = scalar_curvature(rm_tensor)
    return ricci_form(rm_tensor) - (scal / d) * _kahler_form_array(rm_tensor.space)


def kulkarni_nomizu(h, k):
    """(h ow k)(X,Y,Z,W) = h(X,Z)k(Y,W) + h(Y,W)k(X,Z) - h(X,W)k(Y,Z) - h(Y,Z)k(X,W).

    For symmetric inputs the output has the curvature pair symmetries
    and satisfies the first Bianchi identity.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if h.shape != k.shape or h.ndim != 2:
        raise ValueError("Kulkarni-Nomizu inputs must be rank-2 arrays of equal shape")
    return (np.einsum("xz,yw->xyzw", h, k) + np.einsum("yw,xz->xyzw", h, k)
            - np.einsum("xw,yz->xyzw", h, k) - np.einsum("yz,xw->xyzw", h, k))


def _outer22(a, b):
    return np.einsum("xy,zw->xyzw", a, b)


def _structure_model(forms):
    """1/2 g ow g + the sum of 1/2 om ow om + 2 om (x) om over the 2-forms om."""
    g = np.eye(len(forms[0]))
    arr = 0.5 * kulkarni_nomizu(g, g)
    for om in forms:
        arr = arr + 0.5 * kulkarni_nomizu(om, om) + 2.0 * _outer22(om, om)
    return arr


def flat_model(space):
    # the zero tensor satisfies every symmetry, so it carries whatever
    # flags the space supports
    return AlgebraicCurvatureTensor(space, np.zeros((space.dim,) * 4),
                                    kahler=space.complex_structure is not None,
                                    quaternion=space.quaternionic_structure is not None,
                                    validate=False)


def constant_sectional_model(space, c=1.0):
    """Sectional curvature c: (c/2) g ow g, the identity operator scaled by c."""
    g = np.eye(space.dim)
    return AlgebraicCurvatureTensor(space, (c / 2.0) * kulkarni_nomizu(g, g), validate=False)


def chsc_model(space, c=1.0):
    """Constant holomorphic sectional curvature c.

    (c/4) (1/2 g ow g + 1/2 omega ow omega + 2 omega (x) omega); Einstein
    with Ric = c (n+1)/2 g and scal = c n (n+1).
    """
    arr = (c / 4.0) * _structure_model([_kahler_form_array(space)])
    return AlgebraicCurvatureTensor(space, arr, kahler=True, validate=False)


def quaternionic_projective_model(space):
    """The quaternionic projective model operator in tensor form.

    R(X ^ Y) = X ^ Y + sum_A (A X ^ A Y + 2 g(X ^ Y, omega_A) omega_A)
    over A in {I, J, K}; Einstein with scal = 16 m (m+2).  Restricted to
    the holonomy algebra it acts as 4 on sp(m) and 4m on sp(1) and
    annihilates the complement.
    """
    if space.quaternionic_structure is None:
        raise ValueError("quaternionic projective model needs a quaternionic structure")
    arr = _structure_model([A.T for A in space.quaternionic_structure])
    return AlgebraicCurvatureTensor(space, arr, quaternion=True, validate=False)


def model(kind, space, c=1.0):
    """Dispatch on the model name: flat | cs | chsc | hpm.  The scale c must be
    finite, and so must |Rm|^2 of the model."""
    if not math.isfinite(c):
        raise ValueError(f"model scale c must be finite, got {c}")
    kind = str(kind)
    if kind == "flat":
        rm = flat_model(space)
    elif kind == "cs":
        rm = constant_sectional_model(space, c)
    elif kind == "chsc":
        rm = chsc_model(space, c)
    elif kind == "hpm":
        rm = quaternionic_projective_model(space)
    else:
        raise ValueError(f"unknown model {kind!r}")
    rm._require_finite_norm()
    return rm


@dataclass
class KahlerDecomposition:
    """Scalar + Ricci + Bochner splitting of a Kahler curvature tensor."""

    scalar_part: AlgebraicCurvatureTensor
    ricci_part: AlgebraicCurvatureTensor
    bochner: AlgebraicCurvatureTensor
    scal: float
    tf_ricci: np.ndarray
    ricci_form: np.ndarray
    primitive_ricci_form: np.ndarray

    def reassembled(self):
        return self.scalar_part + self.ricci_part + self.bochner

    def bochner_traces(self):
        """Max absolute value of the two trace sums of the Bochner part."""
        tr2 = np.einsum("bi,ibzw->zw", self.bochner.space.j_matrix().T, self.bochner.array)
        return float(np.abs(ricci(self.bochner)).max()), float(np.abs(tr2).max())


def kahler_decompose(rm_tensor):
    """Split a Kahler curvature tensor into scalar, Ricci and Bochner parts.

    scalar_part = the chsc model with c = scal / (n (n+1))
    ricci_part  = 1/(2(n+2)) (tfRic ow g + rho0 ow omega + 2 (rho0 (x) omega + omega (x) rho0))
    bochner     = remainder, totally trace-free.
    """
    if not rm_tensor.kahler:
        raise ValueError("Kahler decomposition needs a Kahler curvature tensor")
    space = rm_tensor.space
    n = space.n
    g = np.eye(space.dim)
    om = _kahler_form_array(space)
    scal = scalar_curvature(rm_tensor)
    tfric = tf_ricci(rm_tensor)
    rho0 = primitive_ricci_form(rm_tensor)
    scalar_part = chsc_model(space, scal / (n * (n + 1)))
    ricci_part = AlgebraicCurvatureTensor(space, (1.0 / (2.0 * (n + 2))) * (
        kulkarni_nomizu(tfric, g) + kulkarni_nomizu(rho0, om)
        + 2.0 * (_outer22(rho0, om) + _outer22(om, rho0))), kahler=True, validate=False)
    return KahlerDecomposition(scalar_part, ricci_part, rm_tensor - scalar_part - ricci_part,
                               scal, tfric, ricci_form(rm_tensor), rho0)


@dataclass
class QuaternionDecomposition:
    """Model multiple plus Ricci-flat remainder of a quaternionic curvature tensor."""

    hp_coefficient: float
    r0: AlgebraicCurvatureTensor
    leakage: float

    def ricci_residual(self):
        return float(np.abs(ricci(self.r0)).max())


def quaternion_decompose(rm_tensor):
    """Split Rm = coeff * hpm + R0 with coeff = scal / (16 m (m+2)).

    The input operator must annihilate the complement of sp(m)+sp(1):
    a leak (`SUPPORT_TOL`) is raised as an error, and the measured
    leakage is reported otherwise.  The remainder is Ricci-flat.
    """
    space = rm_tensor.space
    if space.quaternionic_structure is None:
        raise ValueError("quaternionic decomposition needs a quaternionic structure")
    m = space.m
    if m < 2:
        raise ValueError("quaternionic decomposition needs m >= 2")
    algebra = cached_algebra(space, AlgebraKind.SP_SP1)
    leak = rm_tensor.leakage(algebra)
    _refuse_leak("operator", leak, rm_tensor.operator)
    scal = scalar_curvature(rm_tensor)
    coeff = scal / (16.0 * m * (m + 2))
    r0 = AlgebraicCurvatureTensor(
        space, rm_tensor.array - coeff * quaternionic_projective_model(space).array,
        quaternion=True, validate=False)
    return QuaternionDecomposition(coeff, r0, leak)


def restricted_spectrum(rm_tensor, algebra):
    """Ascending eigenvalues of the Gram restriction [g(R Xi_a, Xi_b)].

    Returns (eigenvalues, leakage); leakage is the spectral norm of the
    operator applied to the complement of the algebra and is reported,
    never raised.
    """
    vals = np.linalg.eigvalsh(rm_tensor.restricted_gram(algebra))
    return vals, rm_tensor.leakage(algebra)


# ---------------------------------------------------------------------------
# sharp-norm identities


def _relative_deviation(lhs, rhs, coefficient, rm_tensor):
    """|lhs - rhs| over max(|lhs|, |rhs|), floored at the rounding scale eps * coefficient
    * |Rm|^2 (and 1e-300); eps * coefficient comes first, so it cannot overflow."""
    floor = np.finfo(float).eps * coefficient * rm_tensor.norm2()
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor, 1e-300)


def kahler_sharp_identity(rm_tensor):
    """Norm identity between the u(n) sharp of Rm and its component norms.

    With full-tensor norms the identity reads

        |Rm^u|^2 = 4 (n+1) |Rm - S|^2 - 16 |tfRic|^2,

    where S is the constant-holomorphic-sectional part of the splitting.
    Dividing the two curvature norms by 4 (the operator scaling) turns
    the Ricci coefficient into 4, which is the form the report exposes
    as lhs_operator / rhs_operator.  Both scalings are returned, along
    with the trace-free-operator variant of |Rm - S|^2 for comparison.
    """
    if not rm_tensor.kahler:
        raise ValueError("identity applies to Kahler curvature tensors")
    space = rm_tensor.space
    n = space.n
    algebra = cached_algebra(space, AlgebraKind.U)
    dec = kahler_decompose(rm_tensor)
    lhs = sharp(rm_tensor, algebra).norm2()
    ringed_norm2 = (rm_tensor - dec.scalar_part).norm2()
    tfric_norm2 = float(np.sum(dec.tf_ricci * dec.tf_ricci))
    # the trace-free Gram restriction does not vanish on the chsc model,
    # so it cannot play the role of the ringed norm; exposed for comparison
    gram = rm_tensor.restricted_gram(algebra)
    gram_tf = gram - (np.trace(gram) / gram.shape[0]) * np.eye(gram.shape[0])
    rhs_tensor = 4.0 * (n + 1) * ringed_norm2 - 16.0 * tfric_norm2
    return {
        "n": n,
        "lhs_tensor": lhs,
        "rhs_tensor": rhs_tensor,
        "lhs_operator": lhs / 4.0,
        "rhs_operator": (n + 1) * ringed_norm2 - 4.0 * tfric_norm2,
        "ringed_norm2_tensor": ringed_norm2,
        "ringed_norm2_operator": ringed_norm2 / 4.0,
        "ringed_norm2_gram_tracefree": float(np.sum(gram_tf * gram_tf)),
        "tf_ricci_norm2": tfric_norm2,
        "relative_deviation": _relative_deviation(lhs, rhs_tensor, 4 * (n + 1), rm_tensor),
    }


def quaternion_sharp_identity(rm_tensor):
    """Norm ratio between the sp(m)+sp(1) sharp of Rm and its remainder.

    The sharp norm of a quaternionic curvature tensor comes entirely
    from the Ricci-flat remainder R0 (the model part is invariant and
    the sp(1) slices of R0 vanish since sp(1) centralizes sp(m)).  The
    invariant ratio is

        |Rm^sp|^2 = 4 (m+2) |R0|^2

    in full-tensor norms.  The factor is a Casimir eigenvalue:
    |Rm^sp|^2 = <Rm, C Rm> with C = -sum_a Xi_a^2 over the orthonormal
    basis, and R0 spans the irreducible sp(m)-module S^4 E (E = C^{2m}),
    so by Schur's lemma C is a scalar there.  On V = R^{4m} (two copies
    of E after complexification) the sp(m) basis gives C = (2m+1)/2.
    Casimir eigenvalues scale as <lam, lam + 2 rho> with rho =
    (m, m-1, .., 1), and <4e1, 4e1 + 2rho> / <e1, e1 + 2rho> =
    8(m+2)/(2m+1), so C = 4(m+2) on S^4 E.

    `measured_coefficient` is this closed form, not a fitted number;
    `relative_deviation_measured` compares it with the computed sharp
    norm.  The report also evaluates the nominal (4/3)(3m+4)
    coefficient for comparison.
    """
    space = rm_tensor.space
    m = space.m
    algebra = cached_algebra(space, AlgebraKind.SP_SP1)
    dec = quaternion_decompose(rm_tensor)
    sh = sharp(rm_tensor, algebra)
    lhs = sh.norm2()
    r0_norm2 = dec.r0.norm2()
    report = {
        "m": m,
        "lhs_tensor": lhs,
        "r0_norm2": r0_norm2,
        "measured_coefficient": 4.0 * (m + 2),
        "rhs_measured": 4.0 * (m + 2) * r0_norm2,
        "nominal_coefficient": (4.0 / 3.0) * (3 * m + 4),
        "rhs_nominal": (4.0 / 3.0) * (3 * m + 4) * r0_norm2,
        "sp1_slice_norm2": float(np.sum(sh.slice_norms2()[:3])),
        "hp_coefficient": dec.hp_coefficient,
    }
    for key in ("measured", "nominal"):
        report[f"relative_deviation_{key}"] = _relative_deviation(
            lhs, report[f"rhs_{key}"], 4 * (m + 2), rm_tensor)
    return report


def sharp_norm_identities(rm_tensor):
    """The applicable sharp-norm identity report by flag; a report with a value
    that overflows a float is refused."""
    if not (rm_tensor.kahler or rm_tensor.quaternion):
        raise ValueError("tensor carries neither the kahler nor the quaternion flag")
    with np.errstate(over="ignore", invalid="ignore"):
        report = (kahler_sharp_identity if rm_tensor.kahler else quaternion_sharp_identity)(rm_tensor)
    if not all(map(math.isfinite, report.values())):
        raise ValueError("sharp-norm report overflows a float; rescale the tensor")
    return report


# ---------------------------------------------------------------------------
# random generators


def random_curvature(space, rng):
    """Random algebraic curvature tensor (full so(d) support).

    Draws a random symmetric operator on Lambda^2 and removes the
    rank-4 alternation, which is the orthogonal projection onto the
    subspace satisfying the first Bianchi identity.
    """
    P = space.dim * (space.dim - 1) // 2
    M = rng.standard_normal((P, P))
    M = 0.5 * (M + M.T)
    arr = from_operator(space, M, validate=False).array
    return AlgebraicCurvatureTensor(space, arr - _bianchi_residual(arr) / 3.0, validate=False)


def _unitary_frame(k):
    """Z_i = (e_{2i} - i e_{2i+1}) / sqrt 2 as columns: J Z_i = i Z_i, Z^* Z = 1."""
    return _coframe(k)[:k].conj().T / math.sqrt(2)


def _table_basis(lams, Y, terms, keep_imag):
    """(S, L): unit forms Re S_r, then Im S_r where keep_imag[r]; L = lams flattened.

    S_r = sum W[:, x] W[:, y]^T over the pairs (x, y) in terms[r], made exactly
    symmetric, with W_a = Z^* lam_a Y on the unitary frame Z and x = (i, j)
    at i k + j.  Rows are summed a chunk at a time, so no complex array the
    size of S is built.
    """
    k = Y.shape[1]
    Wt = (_unitary_frame(k).conj().T @ lams @ Y).reshape(len(lams), -1).T
    R = len(terms)
    forms = np.empty((R + np.count_nonzero(keep_imag),) + (len(lams),) * 2)
    dest = R - 1 + np.cumsum(keep_imag)
    for lo in range(0, R, 64):
        rows = slice(lo, lo + 64)
        S = np.matmul(Wt[terms[rows, :, 0]].transpose(0, 2, 1), Wt[terms[rows, :, 1]])
        S = S + S.transpose(0, 2, 1)
        forms[:R][rows] = S.real
        forms[dest[rows][keep_imag[rows]]] = S.imag[keep_imag[rows]]
    forms /= np.sqrt(np.einsum("rab,rab->r", forms, forms))[:, None, None]
    return forms, lams.reshape(len(lams), -1)


def _random_supported(space, forms, L, rng, kahler=False, quaternion=False):
    """Rm = L^T M L with M = sum_r c_r S_r for standard normal c_r."""
    coeffs = rng.standard_normal(len(forms))
    M = np.tensordot(coeffs, forms, axes=1)
    arr = (L.T @ M @ L).reshape((space.dim,) * 4)
    return AlgebraicCurvatureTensor(space, arr, kahler=kahler, quaternion=quaternion,
                                    validate=False)


@lru_cache(maxsize=None)
def _kahler_basis(algebra):
    """Supported-curvature basis on a u(n) algebra: n^2 (n+1)^2 / 4 forms.

    W_a(i, j) = lam_a(Zbar_i, Z_j) is unitary on u(n), and sum_ab S_ab
    lam_a (x) lam_b is Kahler exactly when R(Zbar_i, Z_j, Zbar_k, Z_l) is
    symmetric in (i, k) and in (j, l): a Hermitian form on Sym^2 C^n.  Row
    P <= Q sums over the orderings (i, k) of P and (j, l) of Q, x = ij, y = kl.
    """
    n = algebra.space.n
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    rows = [(P, Q) for a, P in enumerate(pairs) for Q in pairs[a:]]
    terms = [[(i * n + j, k * n + l) for i, k in itertools.permutations(P)
              for j, l in itertools.permutations(Q)] for P, Q in rows]
    return _table_basis(algebra.matrices.transpose(0, 2, 1), _unitary_frame(n), np.array(terms),
                        np.array([P != Q for P, Q in rows]))


@lru_cache(maxsize=None)
def _hyperkahler_basis(space):
    """Ricci-flat supported-curvature basis on sp(m): C(2m+3, 4) forms.

    V_a(i, j) = lam_a(Zbar_i, J^T Zbar_j), which is W_a tau^T for the signed
    permutation tau = Zbar^T J Zbar, is complex symmetric and identifies
    sp(m) (x) C with S^2 C^{2m}; the tensors are the real points of
    S^4 C^{2m}.  tau pairs 2a with 2a + 1, so conjugation maps the monomial
    t to sorted(t ^ 1): each pair of monomials gives a real and an imaginary
    part, a monomial paired with itself its real part.
    """
    k = 2 * space.m
    partner = {t: tuple(sorted(x ^ 1 for x in t))
               for t in itertools.combinations_with_replacement(range(k), 4)}
    mono = [t for t, u in partner.items() if t <= u]
    terms = [[(i * k + p, j * k + q) for i, p, j, q in itertools.permutations(t)] for t in mono]
    return _table_basis(_avatars(space.dim, _sp_m_commutant(space)).transpose(0, 2, 1),
                        space.quaternionic_structure[1].T @ _unitary_frame(k).conj(),
                        np.array(terms), np.array([t != partner[t] for t in mono]))


def random_kahler_curvature(space, rng):
    """Random Kahler curvature tensor: u(n)-supported symmetric form with Bianchi."""
    return _random_supported(space, *_kahler_basis(cached_algebra(space, AlgebraKind.U)), rng,
                             kahler=True)


def random_hyperkahler_curvature(space, rng):
    """Random Ricci-flat curvature tensor supported on sp(m) alone."""
    if space.quaternionic_structure is None:
        raise ValueError("hyperkahler generator needs a quaternionic structure")
    return _random_supported(space, *_hyperkahler_basis(space), rng, quaternion=True)


def random_quaternion_kahler_curvature(space, rng):
    """Model multiple plus a random hyperkahler remainder."""
    base = quaternionic_projective_model(space) * (0.5 + rng.random())
    return base + random_hyperkahler_curvature(space, rng)


# ---------------------------------------------------------------------------
# JSON


def _curvature_doc(rm_tensor, compact=False):
    """A curvature document.  Compact, it is the file format: "format": "operator"
    and the operator's upper triangle with its diagonal, row-major in `wedge_pairs`
    order, read from the array without the checks of `.operator`.  Otherwise it is
    the "components" document of stdout, its [re, 0.0] rows one array (`_tensor_doc`)."""
    if compact:
        k, l = np.array(wedge_pairs(rm_tensor.space.dim)).T
        a, b = np.triu_indices(len(k))
        obj = {**_space_header(rm_tensor.space), "format": "operator",
               "operator": rm_tensor.array[k[a], l[a], k[b], l[b]].tolist()}
    else:
        obj = _tensor_doc(rm_tensor)
    obj["kind"] = "curvature"
    flags = [f for f in ("kahler", "quaternion") if getattr(rm_tensor, f)]
    if flags:
        obj["flags"] = flags
    return obj


def curvature_to_json(rm_tensor):
    """The curvature-file dict, the compact "operator" document."""
    return _curvature_doc(rm_tensor, compact=True)


def curvature_from_json(obj):
    """The tensor of a curvature document, compact or with "components"."""
    if not isinstance(obj, dict) or obj.get("kind") != "curvature":
        raise ValueError("not a curvature file (missing kind == 'curvature')")
    flags = obj.get("flags", [])
    if not isinstance(flags, list):
        raise ValueError(f"curvature file \"flags\" must be a list, got {flags!r}")
    space = _file_space(obj, flags)
    kahler, quaternion = "kahler" in flags, "quaternion" in flags
    if "format" not in obj:
        comps = _component_array(obj, space.dim)
        if np.abs(comps.imag).max() > 1e-8 * max(1.0, np.abs(comps.real).max()):
            raise ValueError("curvature components must be real")
        return AlgebraicCurvatureTensor(space, comps.real, kahler=kahler, quaternion=quaternion)
    if obj["format"] != "operator":
        raise ValueError(f'curvature file "format" must be "operator", got {obj["format"]!r}')
    P = len(wedge_pairs(space.dim))
    i, j = np.triu_indices(P)
    upper = _finite_floats(obj.get("operator"),
                           'curvature file "operator" must be a list of finite numbers')
    if upper.size != len(i):
        raise ValueError(f'curvature file "operator" needs {len(i)} numbers, got {upper.size}')
    M = np.zeros((P, P))
    M[i, j] = M[j, i] = upper
    return from_operator(space, M, kahler=kahler, quaternion=quaternion)


def save_curvature(rm_tensor, path):
    _write_json(curvature_to_json(rm_tensor), path)


def load_curvature(path):
    return curvature_from_json(_read_json(path))
