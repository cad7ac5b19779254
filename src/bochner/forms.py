"""(p,q)-forms, Kahler form powers, wedge strata and the sharp-norm checks.

Forms live in the complexified exterior algebra of a space with complex
structure.  The unitary coframe is dz^a = e*_{2a-1} + i e*_{2a} in the
block convention, so dz^a (d/dz_b) = delta_ab with
d/dz_b = (e_{2b-1} - i e_{2b}) / 2.

Wedges use the determinant convention: a product of k distinct coframe
elements has components +-1 over all index orders, matching the
orthonormal wedge-basis normalization in which |e_{i_1} ^ ... ^ e_{i_k}|
is one after dividing the full-tensor norm by sqrt(k!).

The space V^{p,q}_k collects products psi_1 ^ Omega^k ^ psi_2 with
psi_1 of type (p-k, 0) and psi_2 of type (0, q-k).  Such a product
splits further into Lefschetz strata Omega^{k+j} ^ (primitive forms);
the sharp-norm coefficient below is exact on the j = 0 stratum and an
upper bound on the rest, which is why the coefficient check reports
deviations instead of asserting.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .criteria import serre_remap
from .holonomy import AlgebraKind, cached_algebra, sharp
from .tensors import (
    Bivector,
    ComplexTensor,
    alternate,
    hermitian_inner,
    nullspace,
    pullback,
)

__all__ = [
    "PQForm",
    "kahler_form",
    "kahler_form_bivector",
    "omega_power",
    "dz_covector",
    "dzbar_covector",
    "wedge",
    "pq_project",
    "build_pq_basis",
    "construct_Vpqk",
    "circ",
    "sharp_coefficient",
    "sharp_norm_coefficient_check",
    "action_bound_check",
    "primitive_pq_basis",
    "stratum_basis",
    "random_pq_form",
    "random_stratum_form",
    "pqform_to_json",
    "pqform_from_json",
]

log = logging.getLogger(__name__)


def kahler_form(space):
    """The Kahler 2-form omega(X, Y) = g(J X, Y) as a rank-2 tensor."""
    return ComplexTensor(space, space.j_matrix().T.astype(complex))


def kahler_form_bivector(space):
    """omega as an element of Lambda^2 V; |omega|^2 = n."""
    return Bivector.from_two_form(space, space.j_matrix().T)


_OMEGA_POWER_CACHE: dict = {}


def omega_power(space, p):
    """Omega^p as a rank-2p antisymmetric tensor (cached per space)."""
    key = (space, p)
    if key not in _OMEGA_POWER_CACHE:
        if p == 0:
            out = ComplexTensor(space, np.array(1.0 + 0j))
        elif p == 1:
            out = kahler_form(space)
        else:
            out = wedge(omega_power(space, p - 1), kahler_form(space))
        _OMEGA_POWER_CACHE[key] = out
    return _OMEGA_POWER_CACHE[key]


def dz_covector(space, a):
    """dz^a = e*_{2a-1} + i e*_{2a} (0-based a)."""
    v = np.zeros(space.dim, dtype=complex)
    v[2 * a] = 1.0
    v[2 * a + 1] = 1j
    return ComplexTensor(space, v)


def dzbar_covector(space, a):
    return dz_covector(space, a).conj()


def wedge(A, B):
    """Wedge product of antisymmetric tensors, determinant convention.

    (A ^ B)(X_1, ..., X_{a+b}) = 1/(a! b!) sum_sigma sign(sigma)
    A(X_sigma(1..a)) B(X_sigma(a+1..a+b)); for coframe monomials this
    reproduces components +-1.
    """
    a, b = A.rank, B.rank
    T = ComplexTensor(A.space, np.multiply.outer(A.components, B.components))
    out = alternate(T)
    return ComplexTensor(A.space, out.components * (math.factorial(a + b)
                                                    / (math.factorial(a) * math.factorial(b))))


def _rotation(space, theta):
    J = space.j_matrix()
    return math.cos(theta) * np.eye(space.dim) + math.sin(theta) * J


def pq_project(T, p, q):
    """Projection of a rank (p+q) form onto type (p, q).

    Uses the circle action generated by J: a type (p, q) form picks up
    e^{i (p - q) theta} under pullback by cos(theta) + sin(theta) J, so
    averaging with the conjugate character isolates the component.  The
    discretization with 2(p+q) + 1 nodes is exact.
    """
    k = p + q
    if T.rank != k:
        raise ValueError(f"tensor rank {T.rank} does not match p + q = {k}")
    N = 2 * k + 1
    out = np.zeros_like(T.components)
    for t in range(N):
        theta = 2.0 * math.pi * t / N
        rot = pullback(T, _rotation(T.space, theta))
        out += np.exp(-1j * (p - q) * theta) * rot.components
    return ComplexTensor(T.space, out / N)


class PQForm:
    """Antisymmetric tensor of pure type (p, q), optionally with a declared
    wedge-stratum index k certifying the shape psi_1 ^ Omega^k ^ psi_2."""

    def __init__(self, space, p, q, tensor, k=None, validate=True, atol=1e-9):
        self.space = space
        self.p = int(p)
        self.q = int(q)
        self.k = None if k is None else int(k)
        self.tensor = tensor
        if validate:
            self._validate(atol)

    def _validate(self, atol):
        if self.tensor.rank != self.p + self.q:
            raise ValueError(f"rank {self.tensor.rank} does not match (p, q) = ({self.p}, {self.q})")
        if self.k is not None and self.k > min(self.p, self.q):
            raise ValueError(f"declared k = {self.k} exceeds min(p, q)")
        scale = math.sqrt(self.tensor.norm2())
        if scale == 0.0:
            return
        alt = alternate(self.tensor)
        if not np.allclose(alt.components, self.tensor.components, atol=atol * scale):
            raise ValueError("tensor is not antisymmetric")
        proj = pq_project(self.tensor, self.p, self.q)
        if not np.allclose(proj.components, self.tensor.components, atol=atol * scale):
            raise ValueError(f"tensor is not of pure type ({self.p}, {self.q})")

    def norm2(self):
        return self.tensor.norm2()

    def form_norm2(self):
        return self.tensor.form_norm2()

    def __add__(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("cannot add forms of different type")
        k = self.k if self.k == other.k else None
        return PQForm(self.space, self.p, self.q, self.tensor + other.tensor, k=k, validate=False)

    def __mul__(self, scalar):
        return PQForm(self.space, self.p, self.q, self.tensor * scalar, k=self.k, validate=False)

    __rmul__ = __mul__

    def __repr__(self):
        kk = f", k={self.k}" if self.k is not None else ""
        return f"PQForm(({self.p},{self.q}){kk}, dim={self.space.dim})"


def _wedge_monomial(space, covectors):
    out = ComplexTensor(space, np.array(1.0 + 0j))
    for c in covectors:
        out = wedge(out, c)
    return out


def build_pq_basis(space, p, q):
    """The C(n,p) C(n,q) products dz^I ^ dzbar^J, I and J increasing.

    Iteration order: I lexicographic outer, J lexicographic inner.
    """
    n = space.n
    if p < 0 or q < 0 or p > n or q > n:
        raise ValueError(f"(p, q) = ({p}, {q}) out of range for n = {n}")
    out = []
    for I in itertools.combinations(range(n), p):
        wI = _wedge_monomial(space, [dz_covector(space, a) for a in I])
        for J in itertools.combinations(range(n), q):
            wJ = _wedge_monomial(space, [dzbar_covector(space, a) for a in J])
            out.append(PQForm(space, p, q, wedge(wI, wJ), k=0, validate=False))
    return out


def construct_Vpqk(psi1, psi2, k):
    """psi_1 ^ Omega^k ^ psi_2 with the stratum index recorded.

    psi_1 must be of type (p-k, 0) and psi_2 of type (0, q-k).
    """
    if psi1.q != 0:
        raise ValueError(f"psi1 must have type (*, 0), got ({psi1.p}, {psi1.q})")
    if psi2.p != 0:
        raise ValueError(f"psi2 must have type (0, *), got ({psi2.p}, {psi2.q})")
    if k < 0:
        raise ValueError("stratum index k must be nonnegative")
    space = psi1.space
    T = wedge(wedge(psi1.tensor, omega_power(space, k)), psi2.tensor)
    return PQForm(space, psi1.p + k, psi2.q + k, T, k=k, validate=False)


def circ(phi, normalization="orthogonal"):
    """Remove the Omega^p component of a (p, p)-form; identity otherwise.

    `normalization="orthogonal"` divides the projection coefficient by
    |Omega^p|^2 so the result is exactly orthogonal to Omega^p.  The
    `"printed"` variant divides by the first power of the norm instead;
    it does not produce an orthogonal remainder and exists to make the
    difference between the two readings observable.
    """
    if phi.p != phi.q:
        return PQForm(phi.space, phi.p, phi.q, phi.tensor.copy(), k=phi.k, validate=False)
    omp = omega_power(phi.space, phi.p)
    inner = hermitian_inner(phi.tensor, omp)
    if normalization == "orthogonal":
        coeff = inner / hermitian_inner(omp, omp)
    elif normalization == "printed":
        coeff = inner / math.sqrt(hermitian_inner(omp, omp).real)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    return PQForm(phi.space, phi.p, phi.q, phi.tensor - coeff * omp, k=phi.k, validate=False)


def sharp_coefficient(n, p, q, k):
    """2 (p-k)(q-k) + (p+q-2k)((n+1) - (p+q-2k)).

    Equals (p+q-2k) times the stratum eigenvalue constant; exact for
    forms whose (p-k, q-k) content is primitive.
    """
    return 2 * (p - k) * (q - k) + (p + q - 2 * k) * ((n + 1) - (p + q - 2 * k))


def sharp_norm_coefficient_check(phi, algebra=None):
    """Compare |phi^u|^2 against the closed-form multiple of |circ(phi)|^2.

    Report-only: returns both values, the coefficient and the relative
    deviation.  The equality is exact when the reduced content of phi is
    primitive; products whose factors share a complex index mix
    Lefschetz strata and come out strictly below the coefficient.
    """
    if phi.k is None:
        raise ValueError("coefficient check needs a declared stratum index k")
    space = phi.space
    n = space.n
    p, q, k = phi.p, phi.q, phi.k
    pr, qr, kr = p, q, k
    if p + q > n:
        # duality preserves the primitive content (p-k, q-k), so the
        # stratum index shifts along with the type
        pr, qr, _ = serre_remap(n, p, q)
        kr = k - (p + q - n)
        log.info("remapping (p, q, k) = (%d, %d, %d) to the complementary (%d, %d, %d)",
                 p, q, k, pr, qr, kr)
        if kr < 0:
            raise ValueError(f"stratum k = {k} is empty for type ({p}, {q}) at n = {n}")
    coeff = float(sharp_coefficient(n, pr, qr, kr))
    if algebra is None:
        algebra = cached_algebra(space, AlgebraKind.U)
    lhs = sharp(phi.tensor, algebra).norm2()
    ringed = circ(phi)
    rhs_base = ringed.norm2()
    rhs = coeff * rhs_base
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {
        "n": n, "p": p, "q": q, "k": k,
        "coefficient": coeff,
        "sharp_norm2": lhs,
        "circ_norm2": rhs_base,
        "coefficient_times_circ": rhs,
        "relative_deviation": abs(lhs - rhs) / denom,
        "vacuous": rhs_base < 1e-300,
    }


def action_bound_check(phi, algebra=None):
    """sup over unit L in u(n) of |L phi|^2 / ((p+q-2k) |L|^2 |circ(phi)|^2).

    The supremum is exact (`SharpDecomposition.max_action_norm2`); the
    bound predicts it never exceeds one.  Degenerate strata (p + q = 2k)
    and forms with vanishing reduced part report as vacuous.
    """
    if phi.k is None:
        raise ValueError("action bound check needs a declared stratum index k")
    space = phi.space
    p, q, k = phi.p, phi.q, phi.k
    weight = p + q - 2 * k
    ringed2 = circ(phi).norm2()
    if weight == 0 or ringed2 < 1e-14 * max(phi.norm2(), 1e-300):
        return {"p": p, "q": q, "k": k, "max_ratio": 0.0, "vacuous": True}
    if algebra is None:
        algebra = cached_algebra(space, AlgebraKind.U)
    ratio = sharp(phi.tensor, algebra).max_action_norm2() / (weight * ringed2)
    return {"p": p, "q": q, "k": k, "max_ratio": ratio, "vacuous": False}


def _omega_contraction_matrix(space, basis):
    """Matrix of the trace against omega on the span of the given forms."""
    om = space.j_matrix().T
    cols = []
    for f in basis:
        c = np.tensordot(om, f.tensor.components, axes=([0, 1], [0, 1]))
        cols.append(np.asarray(c).reshape(-1))
    return np.array(cols).T


def primitive_pq_basis(space, p, q):
    """Orthonormal basis of the primitive (omega-trace-free) (p, q)-forms."""
    basis = build_pq_basis(space, p, q)
    if p + q <= 1:
        # nothing to contract against omega; already primitive
        return [PQForm(space, p, q, f.tensor * (1.0 / math.sqrt(f.tensor.norm2())),
                       k=0, validate=False) for f in basis]
    n = space.n
    lowered = math.comb(n, p - 1) * math.comb(n, q - 1) if p and q else 0
    null = nullspace(_omega_contraction_matrix(space, basis),
                     max(0, math.comb(n, p) * math.comb(n, q) - lowered))
    out = []
    for coeffs in null:
        T = ComplexTensor(space, sum(c * f.tensor.components for c, f in zip(coeffs, basis)))
        out.append(PQForm(space, p, q, T * (1.0 / math.sqrt(T.norm2())), k=0, validate=False))
    return out


def stratum_basis(space, p, q, k):
    """Spanning forms Omega^k ^ (primitive (p-k, q-k) basis): the subspace
    on which the sharp-norm coefficient is exact."""
    prim = primitive_pq_basis(space, p - k, q - k)
    omk = omega_power(space, k)
    out = []
    for f in prim:
        T = wedge(omk, f.tensor)
        out.append(PQForm(space, p, q, T, k=k, validate=False))
    return out


def random_pq_form(space, p, q, rng, k=0):
    """Random complex combination of the (p, q) wedge basis."""
    basis = build_pq_basis(space, p, q)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    T = ComplexTensor(space, sum(c * f.tensor.components for c, f in zip(coeffs, basis)))
    return PQForm(space, p, q, T, k=k, validate=False)


def random_stratum_form(space, p, q, k, rng):
    """Random element of the exact stratum Omega^k ^ primitive (p-k, q-k)."""
    basis = stratum_basis(space, p, q, k)
    if not basis:
        raise ValueError(f"stratum Omega^{k} ^ primitive({p - k}, {q - k}) is empty "
                         f"at n = {space.n}")
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    T = ComplexTensor(space, sum(c * f.tensor.components for c, f in zip(coeffs, basis)))
    return PQForm(space, p, q, T, k=k, validate=False)


def pqform_to_json(phi):
    """Tensor interchange dict extended with the type and stratum index."""
    from .tensors import tensor_to_json

    obj = tensor_to_json(phi.tensor)
    obj["p"] = phi.p
    obj["q"] = phi.q
    if phi.k is not None:
        obj["k"] = phi.k
    return obj


def pqform_from_json(obj, space=None, validate=True):
    from .tensors import tensor_from_json

    T = tensor_from_json(obj, space=space)
    return PQForm(T.space, int(obj["p"]), int(obj["q"]), T,
                  k=obj.get("k"), validate=validate)
