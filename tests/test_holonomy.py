"""Holonomy algebra construction and the sharp decomposition."""

import numpy as np
import pytest

from bochner import ComplexTensor, EuclideanSpace, build_algebra, sharp
from bochner.forms import build_pq_basis, omega_power
from bochner.holonomy import AlgebraKind, HolonomySubalgebra, _sp_m_commutant, cached_algebra
from bochner.tensors import _act_matrix, _avatars, _wedge_coefficients

from oracles import (
    act_matrix_naive,
    action_supremum_naive,
    bracket_naive,
    gram_projection_naive,
    skew_commutant_naive,
)


def test_dimensions(c3, h2):
    so6 = build_algebra(c3, "so")
    assert so6.dim == 15
    u3 = build_algebra(c3, "u")
    assert u3.dim == 9
    sp2 = build_algebra(h2, "sp")
    assert sp2.dim == 13


def test_cached_algebra_is_one_object_per_space_and_kind(c2, h2):
    # AlgebraKind.U == "u", but the two hash apart
    assert cached_algebra(c2, "u") is cached_algebra(c2, AlgebraKind.U)
    assert cached_algebra(h2, "sp") is cached_algebra(h2, AlgebraKind.SP_SP1)
    assert EuclideanSpace.complex_space(2) is c2


def test_u_requires_complex_structure():
    with pytest.raises(ValueError):
        build_algebra(EuclideanSpace.euclidean(4), "u")


def test_sp_requires_quaternionic_structure(c2):
    with pytest.raises(ValueError):
        build_algebra(c2, "sp")
    with pytest.raises(ValueError):
        build_algebra(EuclideanSpace.quaternionic_space(1), "sp")


def test_basis_orthonormal_and_closed(c2, h2):
    # construction already validates; re-check the Gram matrix here
    for alg in (build_algebra(c2, "u"), build_algebra(h2, "sp")):
        G = alg.coeff_matrix @ alg.coeff_matrix.T
        assert np.abs(G - np.eye(alg.dim)).max() < 1e-10
        Q = alg.complement_projector()
        Ms = alg.matrices
        worst = 0.0
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                br = _wedge_coefficients(bracket_naive(Ms[a], Ms[b]))
                worst = max(worst, np.linalg.norm(Q @ br))
        assert worst < 1e-9


def test_u_basis_commutes_with_j(c3):
    J = c3.j_matrix()
    for M in build_algebra(c3, "u").matrices:
        assert np.abs(M @ J - J @ M).max() < 1e-12


def test_sp_basis_structure(h2):
    """sp(m) block commutes with I, J, K; sp(1) block spans the structure forms."""
    I, J, K = h2.quaternionic_structure
    alg = build_algebra(h2, "sp")
    sp1, spm = alg.matrices[:3], alg.matrices[3:]
    for M in spm:
        for X in (I, J, K):
            assert np.abs(M @ X - X @ M).max() < 1e-9
    # the first three elements are the normalized structure 2-forms
    for M, X in zip(sp1, (I, J, K)):
        assert np.abs(M * np.sqrt(2 * h2.m) - X).max() < 1e-9


def _closed_form_case(kind, size):
    """(rows, structures they commute with, known dimension) of u(n) or sp(m)."""
    if kind == "u":
        space = EuclideanSpace.complex_space(size)
        return build_algebra(space, "u").coeff_matrix, [space.j_matrix()], size * size
    space = EuclideanSpace.quaternionic_space(size)
    return _sp_m_commutant(space), list(space.quaternionic_structure), size * (2 * size + 1)


_CLOSED_FORM_CASES = [("u", n) for n in range(1, 9)] + [("sp", m) for m in range(1, 7)]


@pytest.mark.parametrize("kind,size", _CLOSED_FORM_CASES,
                         ids=[f"{k}-{s}" for k, s in _CLOSED_FORM_CASES])
def test_closed_form_rows_are_orthonormal_members_of_the_known_dimension(kind, size):
    # independent members of the known number span the commutant
    rows, structures, dim = _closed_form_case(kind, size)
    assert rows.shape == (dim, len(rows[0]))
    assert np.abs(rows @ rows.T - np.eye(dim)).max() <= 1e-12
    Ms = _avatars(structures[0].shape[0], rows)
    for X in structures:
        assert np.abs(Ms @ X - X @ Ms).max() <= 1e-14


@pytest.mark.parametrize("kind,size", [("u", n) for n in range(1, 5)] + [("sp", m) for m in range(1, 4)])
def test_closed_form_rows_span_the_commutant_oracle(kind, size):
    rows, structures, dim = _closed_form_case(kind, size)
    ref = skew_commutant_naive(structures)
    assert ref.shape == rows.shape
    # the largest principal-angle sine between the two spans
    assert np.linalg.norm(rows - (rows @ ref.T) @ ref, 2) <= 1e-12


@pytest.mark.parametrize("m", range(2, 7))
def test_sp_algebra_is_sp1_then_the_sp_m_rows(m):
    space = EuclideanSpace.quaternionic_space(m)
    algebra = build_algebra(space, "sp")
    assert algebra.dim == m * (2 * m + 1) + 3
    assert np.array_equal(algebra.coeff_matrix[3:], _sp_m_commutant(space))
    for M, X in zip(algebra.matrices[:3], space.quaternionic_structure):
        assert np.abs(M * np.sqrt(2 * m) - X).max() <= 1e-14


def test_constructor_takes_only_wedge_rows_of_the_ambient_length(c2):
    with pytest.raises(ValueError, match=r"^algebra rows have shape \(4, 4\), expected \(N, 6\)$"):
        HolonomySubalgebra(c2, "u", np.eye(4))
    # the rows are copied and frozen
    rows = build_algebra(c2, "u").coeff_matrix.copy()
    algebra = HolonomySubalgebra(c2, "u", rows)
    rows[0] = 0.0
    assert not algebra.coeff_matrix.flags.writeable
    assert np.array_equal(algebra.coeff_matrix, build_algebra(c2, "u").coeff_matrix)


def test_validate_rejects_a_basis_not_closed_under_brackets(c2):
    # u(2) with its first element replaced by e_1 ^ e_3, which is a unit
    # vector orthogonal to the other three
    rows = build_algebra(c2, "u").coeff_matrix.copy()
    rows[0] = np.eye(6)[1]
    with pytest.raises(ValueError, match=r"^basis not closed under brackets, leak 7\.07e-01$"):
        HolonomySubalgebra(c2, "u", rows)


def test_validate_rejects_a_u_basis_not_commuting_with_j(c2):
    # u(2) conjugated by the swap of e_3 and e_4: a closed orthonormal set
    # commuting with the conjugated J, not with J
    P = np.eye(4)[[0, 1, 3, 2]]
    rows = _wedge_coefficients(P @ build_algebra(c2, "u").matrices @ P.T)
    with pytest.raises(ValueError, match=r"^u\(n\) element does not commute with J$"):
        HolonomySubalgebra(c2, "u", rows)


_STACK_CASES = ([(rank, kind, 2, "complex") for kind in ("so", "u", "sp") for rank in (1, 2, 3, 4)]
                + [(2, "u", 2, "transposed"), (3, "sp", 2, "transposed"),
                   (2, "so", 2, "real"), (3, "sp", 2, "real"), (4, "sp", 3, "complex")])


@pytest.mark.parametrize("rank,kind,size,layout", _STACK_CASES,
                         ids=["-".join(map(str, c[:3])) + ("" if c[3] == "complex" else f"-{c[3]}")
                              for c in _STACK_CASES])
def test_sharp_stack_rows_are_the_loop_action(rank, kind, size, layout, rng):
    # row a of the stack is Xi_a T, against the literal derivation loops, for
    # a transposed (not C-contiguous) tensor, a real float64 array and a
    # rank-4 sp(3)+sp(1) stack (24 slices of 332 kB) spanning several
    # 1 MiB scratch blocks
    space = (EuclideanSpace.quaternionic_space(size) if kind == "sp"
             else EuclideanSpace.complex_space(size))
    algebra = build_algebra(space, kind)
    T = ComplexTensor.random(space, rank, rng)
    if layout == "transposed":
        T = ComplexTensor(space, T.components.T)
        assert not T.components.flags.c_contiguous
    if layout == "real":
        arr = T.components.real.copy()
        stack = _act_matrix(algebra.matrices, arr)
        assert stack.dtype == np.float64
    else:
        arr = T.components
        stack = sharp(T, algebra).stack
    assert stack.shape == (algebra.dim,) + arr.shape
    rows = range(algebra.dim)
    if arr.nbytes * algebra.dim > 1 << 20:
        # the loops take about a second a row here: they check the first and
        # the last block, and each row must equal its one-element stack
        rows = (0, algebra.dim - 1)
        for M, row in zip(algebra.matrices, stack):
            assert np.array_equal(row, _act_matrix(M[None], arr)[0])
    for a in rows:
        expected = act_matrix_naive(algebra.matrices[a], arr.astype(complex))
        assert np.abs(stack[a] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_sharp_invariant_tensor_has_zero_slices(c2):
    om = omega_power(c2, 1).tensor
    dec = sharp(om, build_algebra(c2, "u"))
    assert dec.norm2() < 1e-20


def test_sharp_single_generator(c1):
    u1 = build_algebra(c1, "u")
    assert u1.dim == 1
    T = ComplexTensor.basis_covector(c1, 0)
    dec = sharp(T, u1)
    assert len(dec.stack) == 1
    assert dec.norm2() == pytest.approx(1.0)


def test_sharp_one_zero_form_norm(c2, c3):
    # |phi^u|^2 = n |phi|^2 for (1, 0)-forms
    for space in (c2, c3):
        u = build_algebra(space, "u")
        phi = build_pq_basis(space, 1, 0)[0].tensor
        dec = sharp(phi, u)
        assert dec.norm2() == pytest.approx(space.n * phi.norm2(), rel=1e-12)


def test_sharp_equivariance(c2, rng):
    # g(L, T^g(indices)) = (L T)(indices) for L in the algebra, with T^g
    # reconstructed on the wedge basis and L T from L's avatar
    u = build_algebra(c2, "u")
    worst = 0.0
    for _ in range(100):
        rank = int(rng.integers(1, 4))
        T = ComplexTensor.random(c2, rank, rng)
        L = rng.standard_normal(u.dim) @ u.coeff_matrix
        dec = sharp(T, u)
        idx = tuple(rng.integers(0, 4, size=rank))
        lhs = dec.reconstruct()[idx] @ L
        rhs = _act_matrix(_avatars(4, L)[None], T.components)[0][idx]
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9


def test_sharp_norm_reconstruction(c2, rng):
    u = build_algebra(c2, "u")
    T = ComplexTensor.random(c2, 2, rng)
    dec = sharp(T, u)
    # |T^g|^2 from the reconstructed coefficient array agrees with slice sums
    rec = dec.reconstruct()
    assert np.sum(np.abs(rec) ** 2) == pytest.approx(dec.norm2(), rel=1e-12)


def test_basis_independence_of_sharp_norm(c2, h2, rng):
    # rotating the basis rows by an orthogonal matrix keeps |T^g|^2
    for space, kind, draws in ((c2, "u", 3), (h2, "sp", 1)):
        algebra = build_algebra(space, kind)
        T = ComplexTensor.random(space, 2, rng)
        base = sharp(T, algebra).norm2()
        for _ in range(draws):
            Q = np.linalg.qr(rng.standard_normal((algebra.dim, algebra.dim)))[0]
            rotated = HolonomySubalgebra(space, kind, Q @ algebra.coeff_matrix)
            assert abs(sharp(T, rotated).norm2() - base) < 1e-9 * max(base, 1.0)


def test_projector_splits_identity(c2):
    u = build_algebra(c2, "u")
    P = u.projector()
    Q = u.complement_projector()
    assert np.abs(P + Q - np.eye(6)).max() < 1e-12
    assert np.abs(P @ P - P).max() < 1e-10


def test_project_bivector(c2, rng):
    u = build_algebra(c2, "u")
    P = u.projector()
    # elements of the span project to themselves
    L = rng.standard_normal(u.dim) @ u.coeff_matrix
    assert np.allclose(P @ L, L, atol=1e-12)
    # orthogonal complement projects to zero
    Q = u.complement_projector()
    Lp = Q @ rng.standard_normal(6)
    assert np.linalg.norm(P @ Lp) < 1e-12
    # generic: agrees with the normal-equation oracle, norm non-increasing
    for _ in range(10):
        L = rng.standard_normal(6)
        proj = P @ L
        expected = gram_projection_naive(list(u.coeff_matrix), L)
        assert np.allclose(proj, expected, atol=1e-10)
        assert np.linalg.norm(proj) <= np.linalg.norm(L) + 1e-12


def test_wedge_projects_into_u2_with_norm_at_most_one(c2):
    u = build_algebra(c2, "u")
    L = np.eye(6)[0]  # e_1 ^ e_2
    proj = u.projector() @ L
    assert 0.0 < np.linalg.norm(proj) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# exact supremum of |L T|^2 over unit L


@pytest.mark.parametrize("kind,size", [("u", 2), ("u", 3), ("sp", 2)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_max_action_norm2_is_the_supremum(kind, size, rank):
    rng = np.random.default_rng(100 * size + 10 * rank + len(kind))
    space = (EuclideanSpace.complex_space(size) if kind == "u"
             else EuclideanSpace.quaternionic_space(size))
    algebra = build_algebra(space, kind)
    T = ComplexTensor.random(space, rank, rng)
    dec = sharp(T, algebra)
    sup = dec.max_action_norm2()
    # agrees with the loop-built Gram matrix
    assert sup == pytest.approx(action_supremum_naive(algebra, T.components), rel=1e-10)
    # attained by the L of the top eigenvector
    vals, vecs = np.linalg.eigh(dec.pairings().real)
    L = vecs[:, -1] @ algebra.coeff_matrix
    assert np.linalg.norm(L) == pytest.approx(1.0, rel=1e-12)
    LT = _act_matrix(_avatars(space.dim, L)[None], T.components)[0]
    assert np.vdot(LT, LT).real == pytest.approx(sup, rel=1e-10)
    # no random unit direction exceeds it
    C = rng.standard_normal((200, algebra.dim))
    C /= np.linalg.norm(C, axis=1)[:, None]
    LTs = _act_matrix(_avatars(space.dim, C @ algebra.coeff_matrix), T.components)
    sampled = max(np.vdot(x, x).real for x in LTs)
    assert sampled <= sup * (1 + 1e-12)
