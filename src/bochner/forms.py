"""(p,q)-forms, Kahler form powers, wedge strata and the sharp-norm checks.

The unitary coframe is theta = (dz^1..dz^n, dzbar^1..dzbar^n) with
dz^a = e*_{2a-1} + i e*_{2a} in the block convention, so
dz^a (d/dz_b) = delta_ab with d/dz_b = (e_{2b-1} - i e_{2b}) / 2.  A
degree-k form sum_I c_I theta^I is stored as its coefficients on the
C(2n, k) increasing multi-indices I; it has type (p, q) when only
multi-indices with p unbarred entries carry coefficients.  Wedges use
the determinant convention: theta^I takes the value det B[I, J] on e_J,
where row a of the coframe matrix B holds theta^a.  As B B^* = 2, the
full-tensor norm over all index orders is k! 2^k sum_I |c_I|^2, and
dividing by k! gives the norm in which real wedge monomials are unit
vectors.  The full tensor itself, `Form.tensor`, is only the boundary
to JSON, the Weitzenbock action and the tests.

The space V^{p,q}_k collects products psi_1 ^ Omega^k ^ psi_2 with
psi_1 of type (p-k, 0) and psi_2 of type (0, q-k).  Such a product
splits further into Lefschetz strata Omega^{k+j} ^ (primitive forms);
the sharp-norm coefficient below is exact on the j = 0 stratum and an
upper bound on the rest, which is why the coefficient check reports
deviations instead of asserting.

Each stratum Omega^k ^ primitive(p-k, q-k) is read off a Lefschetz block
table: on the monomials dz^A ^ dzbar^B with fixed free parts (A - B, B - A),
Omega ^ is, up to signs, the up map of a Boolean lattice, so no rank is
decided numerically.  The stratum is empty when k < p + q - n.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .criteria import _check_type, check_stratum, serre_remap, serre_stratum
from .holonomy import AlgebraKind, SharpDecomposition, cached_algebra
from .tensors import (ComplexTensor, _coframe, _complex_gaussian, _int_field, tensor_from_json,
                      tensor_to_json)

__all__ = [
    "Form",
    "PQForm",
    "omega_power",
    "wedge",
    "build_pq_basis",
    "construct_Vpqk",
    "circ",
    "sharp_form",
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

# ---------------------------------------------------------------------------
# index tables, cached per size


@lru_cache(maxsize=None)
def _multi_indices(m, k):
    """Increasing k-subsets of range(m), lexicographic, as a (C(m,k), k) array."""
    return np.array(list(itertools.combinations(range(m), k)), dtype=int).reshape(math.comb(m, k), k)


@lru_cache(maxsize=None)
def _masks(m, k):
    """Bitmasks of the increasing k-subsets of range(m), lexicographic."""
    return (1 << _multi_indices(m, k)).sum(axis=1)


@lru_cache(maxsize=None)
def _lex_rank(m, k):
    """Lexicographic position of each k-subset of range(m), by its bitmask."""
    rank = np.zeros(2 ** m, dtype=int)
    rank[_masks(m, k)] = np.arange(math.comb(m, k))
    return rank


@lru_cache(maxsize=None)
def _compound(n, k):
    """The k x k minors det B[I, J]: theta^I on the increasing real
    multi-indices J, indexed (I, J)."""
    if k == 0:
        return np.ones((1, 1), dtype=complex)
    idx = _multi_indices(2 * n, k)
    return np.linalg.det(_coframe(n)[idx[:, None, :, None], idx[None, :, None, :]])


@lru_cache(maxsize=None)
def _scatter(d, k):
    """Flat positions in d^k of every ordering of each increasing real
    multi-index, with the sign of that ordering: (C(d,k), k!) each."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=int).reshape(math.factorial(k), k)
    signs = (-1.0) ** np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    ordered = _multi_indices(d, k)[:, perms]
    pos = (ordered * d ** np.arange(k - 1, -1, -1)).sum(axis=-1)
    return pos, signs


@lru_cache(maxsize=None)
def _type_mask(n, p, q):
    """Multi-indices of degree p + q with p unbarred entries (index < n)."""
    return (_multi_indices(2 * n, p + q) < n).sum(axis=1) == p


@lru_cache(maxsize=None)
def _wedge_table(m, a, b):
    """Disjoint pairs (I, J) of degrees (a, b): their positions, the
    position of the sorted union K and the sign of theta^I ^ theta^J = +-theta^K."""
    mI, mJ = _masks(m, a), _masks(m, b)
    iI, iJ = np.nonzero(mI[:, None] & mJ[None, :] == 0)
    I, J = _multi_indices(m, a)[iI], _multi_indices(m, b)[iJ]
    sign = (-1.0) ** (I[:, :, None] > J[:, None, :]).sum(axis=(1, 2))
    return iI, iJ, _lex_rank(m, a + b)[mI[iI] | mJ[iJ]], sign


@lru_cache(maxsize=None)
def _derivation_table(m, k):
    """Gather tables of the elementary derivations E_xy, theta^x -> theta^y
    in every slot, on degree k: (E_xy c)[K] = sign[xy, K] c[source[xy, K]],
    where the padding source C(m, k) holds zero.  Shapes (m*m, C(m, k))."""
    size = math.comb(m, k)
    source = np.full((m * m, size), size, dtype=int)
    sign = np.zeros((m * m, size))
    I, masks, y = _multi_indices(m, k), _masks(m, k), np.arange(m)
    # slot s of row i holds x; y replaces it unless y is another entry of I
    i, s, y = np.nonzero((I[:, :, None] == y) | (masks[:, None, None] >> y & 1 == 0))
    x = I[i, s]
    col = _lex_rank(m, k)[masks[i] ^ (1 << x) | (1 << y)]
    source[x * m + y, col] = i
    # the sorting sign counts the entries strictly between x and y
    between = (I[i] > np.minimum(x, y)[:, None]) & (I[i] < np.maximum(x, y)[:, None])
    sign[x * m + y, col] = (-1.0) ** between.sum(axis=1)
    return source, sign


@lru_cache(maxsize=None)
def _coframe_action(algebra):
    """Each basis element as a map of the coframe, Xi_a theta^x =
    sum_y A_a[x, y] theta^y with A_a = -B M_a B^* / 2; shape (N, m*m)."""
    B = _coframe(algebra.space.n)
    return (-0.5 * (B @ algebra.matrices @ B.conj().T)).reshape(algebra.dim, -1)


# ---------------------------------------------------------------------------
# forms


class Form:
    """A complex k-form sum_I c_I theta^I on the coframe multi-indices."""

    def __init__(self, space, degree, coeffs):
        self.space = space
        self.degree = int(degree)
        c = np.array(coeffs, dtype=complex)
        if c.shape != (math.comb(2 * space.n, self.degree),):
            raise ValueError(f"{c.shape} coefficients do not fit degree {self.degree} "
                             f"at n = {space.n}")
        c.setflags(write=False)
        self.coeffs = c
        self._tensor = None

    @classmethod
    def from_tensor(cls, T, atol=1e-9):
        """Read a dense antisymmetric tensor off through the coframe minors,
        c = conj(C) t / 2^k on its increasing components t.  Unless `atol`
        is None, a tensor the coefficients do not reproduce is rejected."""
        n, k = T.space.n, T.rank
        t = T.components.reshape(-1)[_scatter(T.space.dim, k)[0][:, 0]]
        form = cls(T.space, k, np.conj(_compound(n, k)) @ t / 2 ** k)
        if atol is None:
            return form
        if not np.allclose(form.tensor.components, T.components,
                           atol=atol * math.sqrt(T.norm2())):
            raise ValueError("tensor is not antisymmetric")
        form._tensor = T  # reproduced to atol, and keeps JSON round trips exact
        return form

    @property
    def tensor(self):
        """The full tensor over all index orders (computed once)."""
        if self._tensor is None:
            d, k = self.space.dim, self.degree
            pos, signs = _scatter(d, k)
            flat = np.zeros(d ** k, dtype=complex)
            flat[pos] = (_compound(self.space.n, k).T @ self.coeffs)[:, None] * signs
            self._tensor = ComplexTensor(self.space, flat.reshape((d,) * k))
        return self._tensor

    def inner(self, other):
        """Hermitian full-tensor inner product <self, other>."""
        scale = math.factorial(self.degree) * 2 ** self.degree
        return complex(scale * np.vdot(other.coeffs, self.coeffs))

    def norm2(self):
        return self.inner(self).real

    def form_norm2(self):
        return self.norm2() / math.factorial(self.degree)

    def __repr__(self):
        return f"Form(degree={self.degree}, dim={self.space.dim})"


class PQForm(Form):
    """Form of pure type (p, q), optionally with a declared wedge-stratum
    index k certifying the shape psi_1 ^ Omega^k ^ psi_2.

    `tensor` is a Form or a dense antisymmetric ComplexTensor, which is
    read off through the coframe minors."""

    def __init__(self, space, p, q, tensor, k=None, validate=True):
        self.p = int(p)
        self.q = int(q)
        self.k = None if k is None else int(k)
        form = tensor
        if isinstance(tensor, ComplexTensor):
            form = Form.from_tensor(tensor, atol=1e-9 if validate else None)
        if form.degree != self.p + self.q:
            raise ValueError(f"degree {form.degree} does not match (p, q) = ({self.p}, {self.q})")
        super().__init__(space, form.degree, form.coeffs)
        self._tensor = form._tensor
        if not validate:
            return
        if self.k is not None:
            check_stratum(self.p, self.q, self.k)
        pure = np.where(_type_mask(space.n, self.p, self.q), self.coeffs, 0)
        if not np.allclose(pure, self.coeffs, atol=1e-9 * math.sqrt(self.norm2())):
            raise ValueError(f"tensor is not of pure type ({self.p}, {self.q})")

    def __add__(self, other):
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("cannot add forms of different type")
        k = self.k if self.k == other.k else None
        return _pq(self.space, self.p, self.q, self.coeffs + other.coeffs, k)

    def __mul__(self, scalar):
        return _pq(self.space, self.p, self.q, self.coeffs * scalar, self.k)

    __rmul__ = __mul__

    def __repr__(self):
        kk = f", k={self.k}" if self.k is not None else ""
        return f"PQForm(({self.p},{self.q}){kk}, dim={self.space.dim})"


def _pq(space, p, q, coeffs, k=None):
    return PQForm(space, p, q, Form(space, p + q, coeffs), k=k, validate=False)


def _unit(space, p, q, position):
    c = np.zeros(math.comb(2 * space.n, p + q), dtype=complex)
    c[position] = 1.0
    return _pq(space, p, q, c, 0)


def omega_power(space, p):
    """Omega^p, with omega = (i/2) sum_a dz^a ^ dzbar^a (cached per space)."""
    if p < 0:
        raise ValueError(f"Omega^{p}: the power must be nonnegative")
    return _omega_power(space, p)


@lru_cache(maxsize=None)
def _omega_power(space, p):
    # the stratum Omega^p ^ primitive(0, 0)
    return _pq(space, p, p, _stratum_rows(space, p, p, p)[0], p)


def wedge(A, B):
    """Wedge product in the determinant convention, by the sign table
    theta^I ^ theta^J = +-theta^(I u J) for disjoint I, J.  Two PQForms
    wedge to a PQForm of the summed type."""
    m = 2 * A.space.n
    iI, iJ, iK, sign = _wedge_table(m, A.degree, B.degree)
    prod = sign * A.coeffs[iI] * B.coeffs[iJ]
    size = math.comb(m, A.degree + B.degree)
    c = np.bincount(iK, prod.real, size) + 1j * np.bincount(iK, prod.imag, size)
    out = Form(A.space, A.degree + B.degree, c)
    if isinstance(A, PQForm) and isinstance(B, PQForm):
        return PQForm(A.space, A.p + B.p, A.q + B.q, out, validate=False)
    return out


def build_pq_basis(space, p, q):
    """The C(n,p) C(n,q) products dz^I ^ dzbar^J, I and J increasing.

    Iteration order: I lexicographic outer, J lexicographic inner.
    """
    _check_type(space.n, p, q)
    return [_unit(space, p, q, x) for x in np.flatnonzero(_type_mask(space.n, p, q))]


def construct_Vpqk(psi1, psi2, k):
    """psi_1 ^ Omega^k ^ psi_2 with the stratum index recorded.

    psi_1 must be of type (p-k, 0) and psi_2 of type (0, q-k).
    """
    if psi1.q != 0:
        raise ValueError(f"psi1 must have type (*, 0), got ({psi1.p}, {psi1.q})")
    if psi2.p != 0:
        raise ValueError(f"psi2 must have type (0, *), got ({psi2.p}, {psi2.q})")
    check_stratum(psi1.p + k, psi2.q + k, k)
    out = wedge(wedge(psi1, omega_power(psi1.space, k)), psi2)
    return _pq(out.space, out.p, out.q, out.coeffs, k)


def circ(phi):
    """Remove the Omega^p component of a (p, p)-form; identity otherwise.

    The projection coefficient is divided by |Omega^p|^2, so the result is
    exactly orthogonal to Omega^p.
    """
    if phi.p != phi.q:
        return _pq(phi.space, phi.p, phi.q, phi.coeffs, phi.k)
    omp = omega_power(phi.space, phi.p)
    coeff = phi.inner(omp) / omp.inner(omp)
    return _pq(phi.space, phi.p, phi.q, phi.coeffs - coeff * omp.coeffs, phi.k)


def sharp_form(phi, algebra):
    """Sharp decomposition of a form over any algebra: every basis element
    acts on the coframe and, as a derivation, on the multi-indices.  The
    stack holds the slice coefficients scaled by sqrt(k! 2^k), so that its
    inner products are the full-tensor ones."""
    m, k = 2 * phi.space.n, phi.degree
    source, sign = _derivation_table(m, k)
    moved = sign * np.append(phi.coeffs, 0)[source]
    stack = _coframe_action(algebra) @ moved
    stack *= math.sqrt(math.factorial(k) * 2 ** k)
    return SharpDecomposition(algebra, phi, stack)


def sharp_coefficient(n, p, q, k):
    """2 (p-k)(q-k) + (p+q-2k)((n+1) - (p+q-2k)).

    Equals (p+q-2k) times the stratum eigenvalue constant; exact for
    forms whose (p-k, q-k) content is primitive.
    """
    return 2 * (p - k) * (q - k) + (p + q - 2 * k) * ((n + 1) - (p + q - 2 * k))


def sharp_norm_coefficient_check(phi):
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
    kr = serre_stratum(n, p, q, k)
    pr, qr, _ = serre_remap(n, p, q)
    coeff = float(sharp_coefficient(n, pr, qr, kr))
    lhs = sharp_form(phi, cached_algebra(space, AlgebraKind.U)).norm2()
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


def action_bound_check(phi):
    """sup over unit L in u(n) of |L phi|^2 / ((p+q-2k) |L|^2 |circ(phi)|^2).

    The supremum is exact (`SharpDecomposition.max_action_norm2`); the
    bound predicts it never exceeds one.  Degenerate strata (p + q = 2k)
    and forms with vanishing reduced part report as vacuous.
    """
    if phi.k is None:
        raise ValueError("action bound check needs a declared stratum index k")
    p, q, k = phi.p, phi.q, phi.k
    weight = p + q - 2 * k
    ringed2 = circ(phi).norm2()
    if weight == 0 or ringed2 < 1e-14 * max(phi.norm2(), 1e-300):
        return {"p": p, "q": q, "k": k, "max_ratio": 0.0, "vacuous": True}
    algebra = cached_algebra(phi.space, AlgebraKind.U)
    ratio = sharp_form(phi, algebra).max_action_norm2() / (weight * ringed2)
    return {"p": p, "q": q, "k": k, "max_ratio": ratio, "vacuous": False}


@lru_cache(maxsize=None)
def _inclusion(f, r, s):
    """The 0/1 matrix of r-subsets of range(f) inside s-subsets, (C(f, r), C(f, s))."""
    return (_masks(f, r)[:, None] & ~_masks(f, s)[None, :] == 0).astype(float)


@lru_cache(maxsize=None)
def _primitive_block(f, r):
    """Orthonormal rows spanning the kernel of the down map on the r-subsets
    of range(f), 2r <= f: the first C(f, r) - C(f, r-1) eigenvectors of
    down^T down, an integer matrix whose other eigenvalues are at least 2."""
    down = _inclusion(f, r - 1, r) if r else np.zeros((0, 1))
    return np.linalg.eigh(down.T @ down)[1][:, :down.shape[1] - down.shape[0]].T


def _block_rows(n, p, q, k, r):
    """Stratum rows of the blocks with free parts A', B' of sizes p-k-r, q-k-r.
    On the forms dz^A' ^ dzbar^B' ^ prod_{c in S} dz^c ^ dzbar^c, S among the
    f other indices, Omega ^ is i/2 times the up map: the primitive forms are
    the kernel of the down map and Omega^k ^ is k! (i/2)^k times inclusion.
    Each such form is its sorted monomial times the sign
    (-1)^(|S| |A'| + C(|S|, 2)) prod_{c in S} eps_c, where
    eps_c = (-1)^#{x in A' u B' : x < c} = (-1)^(c - j) for the j-th other c."""
    a, b = p - k - r, q - k - r
    f, degree = n - a - b, p + q - 2 * k
    blocks = [(A, B) for A in itertools.combinations(range(n), a)
              for B in itertools.combinations(sorted(set(range(n)) - set(A)), b)]
    free = np.array([sorted(set(range(n)) - set(A) - set(B)) for A, B in blocks], dtype=int)
    mA, mB = (np.array([sum(1 << x for x in X) for X in side])[:, None] for side in zip(*blocks))
    S = _multi_indices(f, r + k)
    chosen = free[:, S]
    mS = (1 << chosen).sum(axis=-1)
    sign = (-1.0) ** ((chosen - S).sum(axis=-1) + (r + k) * a + math.comb(r + k, 2))
    cols = _lex_rank(2 * n, p + q)[mA | mS | (mB | mS) << n]
    scale = math.factorial(k) * 0.5j ** k / math.sqrt(math.factorial(degree) * 2 ** degree)
    lifted = scale * (_primitive_block(f, r) @ _inclusion(f, r, r + k))
    rows = np.zeros((len(blocks), len(lifted), math.comb(2 * n, p + q)), dtype=complex)
    rows[np.arange(len(blocks))[:, None, None], np.arange(len(lifted))[:, None],
         cols[:, None, :]] = sign[:, None, :] * lifted
    return rows.reshape(-1, rows.shape[-1])


@lru_cache(maxsize=None)
def _stratum_rows(space, p, q, k):
    """Coefficient rows of Omega^k ^ (orthonormal primitive (p-k, q-k) basis)
    as one read-only (dim, C(2n, p+q)) array, built once per space; empty
    when k < p + q - n, the rule of `serre_stratum`."""
    n = space.n
    _check_type(n, p, q)
    check_stratum(p, q, k)
    rows = np.zeros((0, math.comb(2 * n, p + q)), dtype=complex)
    if k >= p + q - n:
        rows = np.concatenate([_block_rows(n, p, q, k, r) for r in range(min(p, q) - k + 1)])
    rows.setflags(write=False)
    return rows


def primitive_pq_basis(space, p, q):
    """Orthonormal basis of the primitive (omega-trace-free) (p, q)-forms."""
    return stratum_basis(space, p, q, 0)


def stratum_basis(space, p, q, k):
    """Spanning forms Omega^k ^ (primitive (p-k, q-k) basis): the subspace
    on which the sharp-norm coefficient is exact."""
    return [_pq(space, p, q, c, k) for c in _stratum_rows(space, p, q, k)]


def random_pq_form(space, p, q, rng, k=0):
    """Random complex combination of the (p, q) wedge basis."""
    _check_type(space.n, p, q)
    mask = _type_mask(space.n, p, q)
    coeffs = np.zeros(len(mask), dtype=complex)
    coeffs[mask] = _complex_gaussian(rng, np.count_nonzero(mask))
    return _pq(space, p, q, coeffs, k)


def random_stratum_form(space, p, q, k, rng):
    """Random element of the exact stratum Omega^k ^ primitive (p-k, q-k)."""
    rows = _stratum_rows(space, p, q, k)
    if not len(rows):
        raise ValueError(f"stratum Omega^{k} ^ primitive({p - k}, {q - k}) is empty "
                         f"at n = {space.n}")
    return _pq(space, p, q, _complex_gaussian(rng, len(rows)) @ rows, k)


def pqform_to_json(phi):
    """Tensor interchange dict extended with the type and stratum index."""
    obj = tensor_to_json(phi.tensor)
    obj["p"] = phi.p
    obj["q"] = phi.q
    if phi.k is not None:
        obj["k"] = phi.k
    return obj


def pqform_from_json(obj):
    """Inverse of `pqform_to_json`: "p", "q" and an optional "k" are integers."""
    T = tensor_from_json(obj)
    p, q = _int_field(obj, "p"), _int_field(obj, "q")
    k = None if obj.get("k") is None else _int_field(obj, "k")
    return PQForm(T.space, p, q, T, k=k)
