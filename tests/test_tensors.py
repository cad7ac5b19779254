"""Tensor core: wedge rows and avatars, the derivation action, brackets,
inner products, JSON round trips."""

import json

import numpy as np
import pytest

from bochner import (
    ComplexTensor,
    EuclideanSpace,
    build_algebra,
    hermitian_inner,
    sharp,
    tensor_from_json,
    tensor_to_json,
)
from bochner.forms import omega_power
from bochner.tensors import _act_matrix, _avatars, _wedge_coefficients, wedge_pairs

from oracles import act_matrix_naive, bracket_naive


def e(space, i):
    v = np.zeros(space.dim)
    v[i] = 1.0
    return v


def test_space_structures_validate():
    c2 = EuclideanSpace.complex_space(2)
    J = c2.j_matrix()
    assert np.allclose(J @ J, -np.eye(4))
    assert np.allclose(J.T @ J, np.eye(4))
    h2 = EuclideanSpace.quaternionic_space(2)
    I, Jq, K = h2.quaternionic_structure
    assert np.allclose(I @ Jq, K)
    assert np.allclose(Jq @ I, -K)
    # the complex structure of a quaternionic space is I
    assert np.allclose(h2.j_matrix(), I)
    with pytest.raises(ValueError):
        EuclideanSpace(3)


def test_space_kinds_hold_the_block_structures():
    for space in (EuclideanSpace.complex_space(3), EuclideanSpace.quaternionic_space(2)):
        J = space.j_matrix()
        assert not J.flags.writeable
        assert np.array_equal(J[1::2, ::2], np.eye(space.dim // 2))
    h2 = EuclideanSpace.quaternionic_space(2)
    assert h2.complex_structure is h2.quaternionic_structure[0]
    assert EuclideanSpace.euclidean(4).complex_structure is None
    with pytest.raises(ValueError, match="divisible by 4"):
        EuclideanSpace(6, "quaternionic")
    with pytest.raises(ValueError, match="unknown structure 'hyper'"):
        EuclideanSpace(4, "hyper")


def wedge_row(space, i, j):
    """Wedge coefficients of e_i ^ e_j, i < j."""
    return np.eye(space.dim * (space.dim - 1) // 2)[wedge_pairs(space.dim).index((i, j))]


def random_avatar(space, rng, unit=False):
    c = rng.standard_normal(space.dim * (space.dim - 1) // 2)
    return _avatars(space.dim, c / np.linalg.norm(c) if unit else c)


def test_bivector_action_defining_formula(c2):
    # the avatar of e_1 ^ e_2 sends e_1 to e_2 and e_2 to -e_1
    M = _avatars(4, wedge_row(c2, 0, 1))
    assert np.allclose(M @ e(c2, 0), e(c2, 1))
    assert np.allclose(M @ e(c2, 2), 0.0)
    M2 = _avatars(4, wedge_row(c2, 0, 1) + wedge_row(c2, 2, 3))
    assert np.allclose(M2 @ e(c2, 1), -e(c2, 0))


def test_bivector_action_linearity(c2, rng):
    a1 = rng.standard_normal(6)
    a2 = rng.standard_normal(6)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)
    M1, M2 = _avatars(4, a1), _avatars(4, a2)
    lhs = _avatars(4, a1 + 2.5 * a2) @ (3.0 * v - w)
    rhs = 3.0 * (M1 @ v + 2.5 * (M2 @ v)) - (M1 @ w + 2.5 * (M2 @ w))
    assert np.allclose(lhs, rhs)


def test_bivector_matrix_is_skew(c3, rng):
    for _ in range(10):
        M = random_avatar(c3, rng)
        assert np.allclose(M + M.T, 0.0, atol=1e-12)
        assert np.array_equal(_avatars(6, _wedge_coefficients(M)), M)


def test_bivector_dimension_mismatch(c2, c3, rng):
    # an algebra of bivectors on R^4 cannot act on a tensor over R^6
    with pytest.raises(ValueError, match="^dimension mismatch: 6 vs 4$"):
        sharp(ComplexTensor.random(c3, 1, rng), build_algebra(c2, "u"))
    with pytest.raises(ValueError, match="^dimension mismatch: 4 vs 6$"):
        hermitian_inner(ComplexTensor.random(c2, 1, rng), ComplexTensor.random(c3, 1, rng))


def test_lie_bracket_examples(c2, c3):
    def bracket(r1, r2):
        M1, M2 = _avatars(4, r1), _avatars(4, r2)
        return _wedge_coefficients(M1 @ M2 - M2 @ M1)

    L = wedge_row(c2, 0, 1)
    assert np.linalg.norm(bracket(L, L)) < 1e-14
    # adjacent wedge pair: [e1^e2, e2^e3] = -(e1^e3)
    b = bracket(wedge_row(c2, 0, 1), wedge_row(c2, 1, 2))
    assert np.allclose(b, -1.0 * wedge_row(c2, 0, 2))
    # disjoint pairs commute
    assert np.linalg.norm(bracket(wedge_row(c2, 0, 1), wedge_row(c2, 2, 3))) < 1e-14


def test_lie_bracket_matches_matrix_commutator(c3, rng):
    # the commutator of two avatars is skew, so its wedge coefficients
    # give it back
    for _ in range(20):
        M1 = random_avatar(c3, rng)
        M2 = random_avatar(c3, rng)
        via_matrix = bracket_naive(M1, M2)
        assert np.allclose(_avatars(6, _wedge_coefficients(M1 @ M2 - M2 @ M1)), via_matrix,
                           atol=1e-12)


def test_act_on_tensor_rank1(c2):
    M = _avatars(4, wedge_row(c2, 0, 1))
    T = ComplexTensor.basis_covector(c2, 0)
    LT = _act_matrix(M[None], T.components)[0]
    # (L T)(e2) = -T(L e2) = -T(-e1) = +1, so the dual of e1 maps to the
    # dual of e2 (value frozen from the naive oracle)
    expected = act_matrix_naive(M, T.components)
    assert np.allclose(expected, ComplexTensor.basis_covector(c2, 1).components)
    assert np.allclose(LT, expected)
    assert np.linalg.norm(_act_matrix(np.zeros((1, 4, 4)), T.components)) == 0.0


def test_act_on_tensor_matches_naive(c2, rng):
    for rank in (1, 2, 3):
        M = random_avatar(c2, rng)
        T = ComplexTensor.random(c2, rank, rng)
        expected = act_matrix_naive(M, T.components)
        assert np.allclose(_act_matrix(M[None], T.components)[0], expected, atol=1e-12)


def test_act_on_tensor_is_representation(c2, rng):
    # act([M1, M2], T) = act(M1, act(M2, T)) - act(M2, act(M1, T)), the
    # second actions read off the two-element stack of the first
    worst = 0.0
    for _ in range(50):
        rank = int(rng.integers(1, 4))
        M1 = random_avatar(c2, rng)
        M2 = random_avatar(c2, rng)
        T = ComplexTensor.random(c2, rank, rng)
        lhs = _act_matrix(bracket_naive(M1, M2)[None], T.components)[0]
        M1T, M2T = _act_matrix(np.array([M1, M2]), T.components)
        rhs = _act_matrix(M1[None], M2T)[0] - _act_matrix(M2[None], M1T)[0]
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-10


def test_action_is_inner_product_derivation(c3, rng):
    # real L: <LT, S> + <T, LS> = 0
    for _ in range(20):
        rank = int(rng.integers(1, 4))
        M = random_avatar(c3, rng)
        T = ComplexTensor.random(c3, rank, rng)
        S = ComplexTensor.random(c3, rank, rng)
        LT, LS = (ComplexTensor(c3, _act_matrix(M[None], X.components)[0]) for X in (T, S))
        total = hermitian_inner(LT, S) + hermitian_inner(T, LS)
        assert abs(total) < 1e-10 * max(1.0, np.sqrt(T.norm2() * S.norm2()))


def test_exponential_of_action_is_orthogonal(c2, rng):
    # exp(t M(L)) is a rotation for every t, since M + M^T = 0
    def expm_series(A):
        out = np.eye(A.shape[0])
        term = np.eye(A.shape[0])
        for k in range(1, 30):
            term = term @ A / k
            out = out + term
        return out

    for t in (0.1, 0.5, 1.0):
        M = random_avatar(c2, rng, unit=True)
        E = expm_series(t * M)
        assert np.allclose(E.T @ E, np.eye(4), atol=1e-12)


def test_hermitian_inner_basics(c2, rng):
    T = ComplexTensor.basis_covector(c2, 0)
    assert hermitian_inner(T, T) == pytest.approx(1.0)
    S = ComplexTensor.basis_covector(c2, 2)
    assert hermitian_inner(T, S) == 0.0
    A = ComplexTensor.random(c2, 2, rng)
    B = ComplexTensor.random(c2, 2, rng)
    assert hermitian_inner(A, B) == pytest.approx(np.conj(hermitian_inner(B, A)))
    assert hermitian_inner(A, A).real > 0
    assert abs(hermitian_inner(A, A).imag) < 1e-14
    with pytest.raises(ValueError):
        hermitian_inner(A, ComplexTensor.random(c2, 3, rng))


def test_kahler_form_norm_c2(c2):
    # the standard 2-form on C^2 has four nonzero components, all +-1
    om = omega_power(c2, 1).tensor
    nz = np.abs(om.components) > 0
    assert nz.sum() == 4
    assert hermitian_inner(om, om) == pytest.approx(4.0)
    assert om.form_norm2() == pytest.approx(2.0)


def test_wedge_monomial_unit_norm(c3):
    L = wedge_row(c3, 1, 4)
    assert L @ L == pytest.approx(1.0)
    # its 2-form, the transposed avatar
    two_form = ComplexTensor(c3, _avatars(6, L).T.astype(complex))
    assert two_form.form_norm2() == pytest.approx(1.0)


def test_json_round_trip(c2, rng):
    for rank in (0, 1, 2, 3):
        T = ComplexTensor.random(c2, rank, rng)
        obj = tensor_to_json(T)
        # through an actual serialization, to exercise float formatting
        back = tensor_from_json(json.loads(json.dumps(obj)))
        assert back.space.dim == 4
        assert np.array_equal(back.components, T.components)
    assert tensor_to_json(ComplexTensor.random(c2, 1, rng))["j_convention"] == "block"


def test_json_errors(c2):
    obj = tensor_to_json(ComplexTensor.zero(c2, 2))
    obj["components"] = obj["components"][:-1]
    with pytest.raises(ValueError):
        tensor_from_json(obj)
