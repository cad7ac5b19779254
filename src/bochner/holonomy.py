"""Holonomy subalgebras of so(V) and the sharp decomposition of tensors.

Builds orthonormal bases of so(d), u(n) and sp(m)+sp(1) inside
Lambda^2 V and computes, for a tensor T, the stack of slices
{Xi_alpha T} whose squared norms sum to |T^g|^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .tensors import Bivector, _act_matrix, _avatars, _wedge_coefficients, nullspace, wedge_pairs

__all__ = [
    "AlgebraKind",
    "HolonomySubalgebra",
    "SharpDecomposition",
    "build_algebra",
    "sharp",
    "project_bivector",
    "gram_schmidt",
]

class AlgebraKind(str, Enum):
    SO = "so"
    U = "u"
    SP_SP1 = "sp"


def gram_schmidt(vectors, against=(), drop_tol=1e-12):
    """Orthonormalize rows in order, dropping near-dependent entries.

    `against` supplies already-orthonormal vectors that the result must
    also be orthogonal to (they are not returned).
    """
    basis = [np.asarray(v, dtype=float) for v in against]
    kept = []
    for v in vectors:
        w = np.asarray(v, dtype=float).copy()
        for b in basis:
            w -= (w @ b) * b
        # second pass for numerical stability
        for b in basis:
            w -= (w @ b) * b
        nrm = np.linalg.norm(w)
        if nrm > drop_tol:
            w /= nrm
            basis.append(w)
            kept.append(w)
    return kept


class HolonomySubalgebra:
    """Ordered orthonormal basis {Xi_alpha} of a Lie subalgebra of Lambda^2 V.

    `coeff_matrix` holds the basis as rows of wedge coefficients and
    `matrices` as the read-only (N, d, d) stack of their matrix avatars.
    """

    def __init__(self, space, kind, basis, validate=True, atol=1e-9):
        self.space = space
        self.kind = AlgebraKind(kind)
        self.basis = list(basis)
        # rows = coefficient vectors on the wedge basis
        self.coeff_matrix = np.array([b.coeffs for b in self.basis])
        self.matrices = _avatars(space.dim, self.coeff_matrix)
        self.matrices.setflags(write=False)
        if validate:
            self._validate(atol)

    @property
    def dim(self):
        return len(self.basis)

    def projector(self):
        """Orthogonal projector onto span{Xi_alpha} in wedge coordinates."""
        return self.coeff_matrix.T @ self.coeff_matrix

    def complement_projector(self):
        P = self.projector()
        return np.eye(P.shape[0]) - P

    def random_element(self, rng, unit=False):
        c = rng.standard_normal(self.dim)
        if unit:
            c /= np.linalg.norm(c)
        return self.element(c)

    def element(self, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        return Bivector(self.space, self.coeff_matrix.T @ coefficients)

    def coordinates(self, L):
        """Coefficients of the projection of L onto the algebra."""
        return self.coeff_matrix @ L.coeffs

    def _validate(self, atol):
        gram = self.coeff_matrix @ self.coeff_matrix.T
        if not np.allclose(gram, np.eye(self.dim), atol=1e-10):
            raise ValueError("algebra basis is not orthonormal")
        expected = _expected_dim(self.space, self.kind)
        if self.dim != expected:
            raise ValueError(f"{self.kind.value} basis has {self.dim} elements, expected {expected}")
        Ms = self.matrices
        complement = self.complement_projector()
        # one row a of brackets [M_a, M_b], b > a, at a time: an (N, d, d)
        # array rather than all N^2 products; the first failing pair in
        # a < b order is the one reported
        for a in range(self.dim - 1):
            rest = Ms[a + 1:]
            brackets = _wedge_coefficients(Ms[a] @ rest - rest @ Ms[a])
            leaks = np.linalg.norm(brackets @ complement, axis=-1)
            bad = np.flatnonzero(leaks > atol)
            if bad.size:
                raise ValueError(f"basis not closed under brackets, leak {leaks[bad[0]]:.2e}")
        if self.kind == AlgebraKind.U:
            J = self.space.j_matrix()
            if not np.allclose(Ms @ J, J @ Ms, atol=atol):
                raise ValueError("u(n) element does not commute with J")

    def __repr__(self):
        return f"HolonomySubalgebra({self.kind.value}, dim={self.dim}, ambient={self.space.dim})"


def _expected_dim(space, kind):
    d = space.dim
    if kind == AlgebraKind.SO:
        return d * (d - 1) // 2
    if kind == AlgebraKind.U:
        n = d // 2
        return n * n
    m = d // 4
    return m * (2 * m + 1) + 3


def _sp_m_commutant(space):
    """Orthonormal wedge-coefficient basis of sp(m) = {A skew : [A, I] = [A, J] = 0}."""
    d = space.dim
    m = d // 4
    I, J, _ = space.quaternionic_structure
    S = _avatars(d, np.eye(len(wedge_pairs(d))))
    rows = np.concatenate([(S @ X - X @ S).reshape(len(S), -1) for X in (I, J)], axis=1)
    return nullspace(rows.T, m * (2 * m + 1))


def _u_spanning_set(space, permutation=None):
    """Canonical u(n) spanning set in the block convention.

    Families, in order: {eps_i ^ eps_j + J eps_i ^ J eps_j : i < j},
    {eps_i ^ J eps_i}, {eps_i ^ J eps_j + eps_j ^ J eps_i : i < j},
    where eps_i = e_{2i-1} and J eps_i = e_{2i}.
    """
    n = space.dim // 2
    out = []
    for i, j in itertools.combinations(range(n), 2):
        out.append(Bivector.wedge(space, 2 * i, 2 * j) + Bivector.wedge(space, 2 * i + 1, 2 * j + 1))
    for i in range(n):
        out.append(Bivector.wedge(space, 2 * i, 2 * i + 1))
    for i, j in itertools.combinations(range(n), 2):
        out.append(Bivector.wedge(space, 2 * i, 2 * j + 1) + Bivector.wedge(space, 2 * j, 2 * i + 1))
    if permutation is not None:
        out = [out[p] for p in permutation]
    return out


def structure_two_form_bivector(space, A):
    """Bivector of the 2-form omega_A(X, Y) = g(A X, Y) for a structure matrix A."""
    return Bivector.from_two_form(space, np.asarray(A).T)


def build_algebra(space, kind, permutation=None):
    """Construct a holonomy subalgebra basis.

    so(d) uses the wedge basis directly.  u(n) orthonormalizes the
    canonical commuting-with-J spanning set by Gram-Schmidt in a fixed
    order.  sp(m)+sp(1) places the normalized structure 2-forms
    omega_I, omega_J, omega_K first and then the skew commutant of
    {I, J, K}, orthonormalized against them.

    `permutation` reorders the spanning set before orthonormalization
    (used to exercise basis independence); the resulting span is
    unchanged.
    """
    kind = AlgebraKind(kind)
    if kind == AlgebraKind.SO:
        basis = [Bivector.wedge(space, i, j) for (i, j) in wedge_pairs(space.dim)]
        if permutation is not None:
            basis = [basis[p] for p in permutation]
        return HolonomySubalgebra(space, kind, basis)
    if kind == AlgebraKind.U:
        if space.complex_structure is None:
            raise ValueError("u(n) needs a complex structure")
        if space.dim % 2 != 0:
            raise ValueError("u(n) needs even real dimension")
        spanning = _u_spanning_set(space, permutation)
        rows = gram_schmidt([b.coeffs for b in spanning])
        basis = [Bivector(space, r) for r in rows]
        return HolonomySubalgebra(space, kind, basis)
    # sp(m) + sp(1)
    if space.quaternionic_structure is None:
        raise ValueError("sp(m)+sp(1) needs a quaternionic structure")
    if space.dim % 4 != 0:
        raise ValueError("sp(m)+sp(1) needs real dimension divisible by 4")
    m = space.dim // 4
    if m < 2:
        raise ValueError("sp(m)+sp(1) needs m >= 2")
    I, J, K = space.quaternionic_structure
    sp1 = [structure_two_form_bivector(space, A) for A in (I, J, K)]
    sp1_rows = [b.coeffs / b.norm() for b in sp1]
    commutant = _sp_m_commutant(space)
    if permutation is not None:
        commutant = commutant[list(permutation)]
    spm_rows = gram_schmidt(list(commutant), against=sp1_rows)
    basis = [Bivector(space, r) for r in sp1_rows + spm_rows]
    return HolonomySubalgebra(space, AlgebraKind.SP_SP1, basis)


def cached_algebra(space, kind):
    """Memoized build_algebra; spaces are hashable by identity.  The kind is
    normalised first: AlgebraKind.U and "u" compare equal but hash apart."""
    return _cached_algebra(space, AlgebraKind(kind))


@lru_cache(maxsize=None)
def _cached_algebra(space, kind):
    return build_algebra(space, kind)


@dataclass
class SharpDecomposition:
    """The slices Xi_alpha T of a tensor over an algebra basis, as one stack.

    Axis 0 of `stack` is indexed by the basis; its trailing axes hold the
    dense components of each slice for `sharp`, and the coframe
    coefficients scaled by sqrt(k! 2^k) for `forms.sharp_form`.  Either
    way the Hermitian inner products of the rows are the full-tensor
    ones.  T^g itself is sum_alpha stack[alpha] (x) Xi_alpha; its squared
    norm is the sum of the squared slice norms.  The indices taken by
    `evaluate`, and the leading axes of `reconstruct`, address the
    stack's trailing axes.
    """

    algebra: HolonomySubalgebra
    tensor: object
    stack: np.ndarray

    def norm2(self):
        return float(sum(self.slice_norms2()))

    def slice_norms2(self):
        # row by row: no second array the size of the stack
        return np.array([np.vdot(s, s).real for s in self.stack])

    def pairings(self):
        """Hermitian slice Gram matrix P_ab = <Xi_a T, Xi_b T>."""
        flat = self.stack.reshape(len(self.stack), -1)
        return flat @ np.conj(flat.T)

    def max_action_norm2(self):
        """Exact sup |L T|^2 over unit L = sum_a c_a Xi_a in the algebra:
        |L T|^2 = c^T (Re P) c, so it is the top eigenvalue of Re P."""
        return float(np.linalg.eigvalsh(self.pairings().real)[-1])

    def evaluate(self, L, multi_index):
        """g(L, T^g(multi_index)) for a bivector L, by expanding over the basis."""
        entries = self.stack[(slice(None),) + tuple(multi_index)]
        return complex(self.algebra.coordinates(L) @ entries)

    def reconstruct(self):
        """Components of T^g as an array with a trailing wedge-coefficient axis."""
        return np.tensordot(self.stack, self.algebra.coeff_matrix, axes=([0], [0]))


def sharp(T, algebra):
    """Decompose a dense tensor over the algebra: stack[alpha] = Xi_alpha T."""
    if not T.space.compatible(algebra.space):
        raise ValueError(f"dimension mismatch: {T.space.dim} vs {algebra.space.dim}")
    return SharpDecomposition(algebra, T, _act_matrix(algebra.matrices, T.components))


def project_bivector(L, algebra):
    """Orthogonal projection of a bivector onto the algebra span."""
    if not L.space.compatible(algebra.space):
        raise ValueError(f"dimension mismatch: {L.space.dim} vs {algebra.space.dim}")
    return Bivector(L.space, algebra.projector() @ L.coeffs)
