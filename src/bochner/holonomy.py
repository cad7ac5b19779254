"""Holonomy subalgebras of so(V) and the sharp decomposition of tensors.

Builds orthonormal bases of so(d), u(n) and sp(m)+sp(1) inside
Lambda^2 V in closed form and computes, for a tensor T, the stack of
slices {Xi_alpha T} whose squared norms sum to |T^g|^2.  An algebra is
held once, as its (N, P) array of wedge-coefficient rows and the
read-only (N, d, d) stack of their matrix avatars; an element of it is
a coefficient vector c, the bivector c @ coeff_matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .tensors import _act_matrix, _avatars, _check_same_space, _wedge_coefficients, wedge_pairs

__all__ = [
    "AlgebraKind",
    "HolonomySubalgebra",
    "SharpDecomposition",
    "build_algebra",
    "cached_algebra",
    "sharp",
]

class AlgebraKind(str, Enum):
    SO = "so"
    U = "u"
    SP_SP1 = "sp"


class HolonomySubalgebra:
    """Ordered orthonormal basis {Xi_alpha} of a Lie subalgebra of Lambda^2 V.

    `coeff_matrix` holds the basis as the read-only (N, P) array of rows
    of wedge coefficients and `matrices` as the read-only (N, d, d) stack
    of their matrix avatars.  `rows` must be such an (N, P) array.
    """

    def __init__(self, space, kind, rows):
        self.space = space
        self.kind = AlgebraKind(kind)
        # a C-order copy: the BLAS products downstream, and so the printed
        # digits, depend on the layout
        self.coeff_matrix = np.array(rows, dtype=float, order="C")
        P = len(wedge_pairs(space.dim))
        if self.coeff_matrix.ndim != 2 or self.coeff_matrix.shape[1] != P:
            raise ValueError(f"algebra rows have shape {self.coeff_matrix.shape}, expected (N, {P})")
        self.coeff_matrix.setflags(write=False)
        self.matrices = _avatars(space.dim, self.coeff_matrix)
        self.matrices.setflags(write=False)
        self._validate()

    @property
    def dim(self):
        return len(self.coeff_matrix)

    def projector(self):
        """Orthogonal projector onto span{Xi_alpha} in wedge coordinates."""
        return self.coeff_matrix.T @ self.coeff_matrix

    def complement_projector(self):
        P = self.projector()
        return np.eye(P.shape[0]) - P

    def _validate(self):
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
            bad = np.flatnonzero(leaks > 1e-9)
            if bad.size:
                raise ValueError(f"basis not closed under brackets, leak {leaks[bad[0]]:.2e}")
        if self.kind == AlgebraKind.U:
            J = self.space.j_matrix()
            if not np.allclose(Ms @ J, J @ Ms, atol=1e-9):
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


# the anti-self-dual forms e12 - e34, e13 + e24, e14 - e23 on a block of four;
# they commute with the self-dual e12 + e34, e13 - e24, e14 + e23 by which
# I, J and K act there
_ANTI_SELF_DUAL = _avatars(4, [[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]])


def _unit_rows(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _sp_m_commutant(space):
    """Orthonormal wedge-coefficient rows of sp(m), the skew commutant of I, J, K.

    The avatars E_ab (x) X - E_ba (x) X^T, with X = 1_4 for a < b and X an
    anti-self-dual form for a <= b, commute with I, J and K.  Their wedge
    supports are disjoint across (a, b) and orthogonal within one, so they
    are m(2m + 1) orthogonal elements: a basis once normalised.
    """
    m = space.m
    blocks = [(a, b, X) for a, b in itertools.combinations_with_replacement(range(m), 2)
              for X in ([np.eye(4)] if a < b else []) + list(_ANTI_SELF_DUAL)]
    M = np.zeros((len(blocks), m, 4, m, 4))
    for r, (a, b, X) in enumerate(blocks):
        M[r, a, :, b] += X
        M[r, b, :, a] -= X.T
    return _unit_rows(_wedge_coefficients(M.reshape(len(blocks), space.dim, space.dim)))


def _u_spanning_set(space):
    """Canonical u(n) spanning set in the block convention, as wedge rows.

    Families, in order: {eps_i ^ eps_j + J eps_i ^ J eps_j : i < j},
    {eps_i ^ J eps_i}, {eps_i ^ J eps_j + eps_j ^ J eps_i : i < j},
    where eps_i = e_{2i-1} and J eps_i = e_{2i}.  The elements have
    disjoint wedge supports, so they are pairwise orthogonal.
    """
    n = space.dim // 2
    pairs = list(itertools.combinations(range(n), 2))
    # the avatar of e_x ^ e_y sends e_x to e_y
    terms = ([[(2 * i, 2 * j), (2 * i + 1, 2 * j + 1)] for i, j in pairs]
             + [[(2 * i, 2 * i + 1)] for i in range(n)]
             + [[(2 * i, 2 * j + 1), (2 * j, 2 * i + 1)] for i, j in pairs])
    M = np.zeros((len(terms), space.dim, space.dim))
    for r, wedges in enumerate(terms):
        for x, y in wedges:
            M[r, y, x], M[r, x, y] = 1.0, -1.0
    return _wedge_coefficients(M)


def build_algebra(space, kind):
    """Construct a holonomy subalgebra basis in closed form.

    so(d) is the wedge basis.  u(n) is the canonical spanning set of
    `_u_spanning_set`, each element divided by its norm.  sp(m)+sp(1)
    places the structure 2-forms omega_I, omega_J, omega_K, divided by
    sqrt(2m), first and the sp(m) rows of `_sp_m_commutant` after them.
    Each basis is orthonormal by construction; `HolonomySubalgebra`
    checks that, the known dimension and closure under brackets.
    """
    kind = AlgebraKind(kind)
    if kind == AlgebraKind.SO:
        rows = np.eye(len(wedge_pairs(space.dim)))
    elif kind == AlgebraKind.U:
        if space.complex_structure is None:
            raise ValueError("u(n) needs a complex structure")
        rows = _unit_rows(_u_spanning_set(space))
    else:
        if space.quaternionic_structure is None:
            raise ValueError("sp(m)+sp(1) needs a quaternionic structure")
        m = space.m
        if m < 2:
            raise ValueError("sp(m)+sp(1) needs m >= 2")
        sp1 = _wedge_coefficients(np.array(space.quaternionic_structure)) / np.sqrt(2 * m)
        rows = np.concatenate([sp1, _sp_m_commutant(space)])
    return HolonomySubalgebra(space, kind, rows)


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
    norm is the sum of the squared slice norms.  The leading axes of
    `reconstruct` address the stack's trailing axes.
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

    def reconstruct(self):
        """Components of T^g as an array with a trailing wedge-coefficient axis."""
        return np.tensordot(self.stack, self.algebra.coeff_matrix, axes=([0], [0]))


def sharp(T, algebra):
    """stack[alpha] = Xi_alpha T for a ComplexTensor or a (real) curvature tensor T."""
    _check_same_space(T, algebra)
    return SharpDecomposition(algebra, T, _act_matrix(algebra.matrices, T.components))
