"""Tensor core: bivector actions, brackets, inner products, JSON round trips."""

import json

import numpy as np
import pytest

from bochner import (
    Bivector,
    ComplexTensor,
    EuclideanSpace,
    act_on_tensor,
    bivector_action,
    hermitian_inner,
    lie_bracket,
    tensor_from_json,
    tensor_to_json,
)
from bochner.forms import kahler_form

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


def test_bivector_action_defining_formula(c2):
    L = Bivector.wedge(c2, 0, 1)
    assert np.allclose(bivector_action(L, e(c2, 0)), e(c2, 1))
    assert np.allclose(bivector_action(L, e(c2, 2)), 0.0)
    L2 = Bivector.wedge(c2, 0, 1) + Bivector.wedge(c2, 2, 3)
    assert np.allclose(bivector_action(L2, e(c2, 1)), -e(c2, 0))


def test_bivector_action_linearity(c2, rng):
    L1 = Bivector.random(c2, rng)
    L2 = Bivector.random(c2, rng)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)
    lhs = bivector_action(L1 + 2.5 * L2, 3.0 * v - w)
    rhs = 3.0 * (bivector_action(L1, v) + 2.5 * bivector_action(L2, v)) \
        - (bivector_action(L1, w) + 2.5 * bivector_action(L2, w))
    assert np.allclose(lhs, rhs)


def test_bivector_matrix_is_skew(c3, rng):
    for _ in range(10):
        M = Bivector.random(c3, rng).matrix()
        assert np.allclose(M + M.T, 0.0, atol=1e-12)


def test_bivector_dimension_mismatch(c2, c3):
    with pytest.raises(ValueError):
        bivector_action(Bivector.wedge(c2, 0, 1), np.zeros(6))
    with pytest.raises(ValueError):
        lie_bracket(Bivector.wedge(c2, 0, 1), Bivector.wedge(c3, 0, 1))


def test_lie_bracket_examples(c2, c3):
    L = Bivector.wedge(c2, 0, 1)
    assert lie_bracket(L, L).norm() < 1e-14
    # adjacent wedge pair: [e1^e2, e2^e3] = -(e1^e3)
    b = lie_bracket(Bivector.wedge(c2, 0, 1), Bivector.wedge(c2, 1, 2))
    expected = -1.0 * Bivector.wedge(c2, 0, 2)
    assert np.allclose(b.coeffs, expected.coeffs)
    # disjoint pairs commute
    b = lie_bracket(Bivector.wedge(c2, 0, 1), Bivector.wedge(c2, 2, 3))
    assert b.norm() < 1e-14


def test_lie_bracket_matches_matrix_commutator(c3, rng):
    for _ in range(20):
        L1 = Bivector.random(c3, rng)
        L2 = Bivector.random(c3, rng)
        via_matrix = bracket_naive(L1.matrix(), L2.matrix())
        assert np.allclose(lie_bracket(L1, L2).matrix(), via_matrix, atol=1e-12)


def test_jacobi_identity(c2, rng):
    for _ in range(100):
        a, b, c = (Bivector.random(c2, rng) for _ in range(3))
        total = (lie_bracket(a, lie_bracket(b, c))
                 + lie_bracket(b, lie_bracket(c, a))
                 + lie_bracket(c, lie_bracket(a, b)))
        assert total.norm() < 1e-10


def test_act_on_tensor_rank1(c2):
    L = Bivector.wedge(c2, 0, 1)
    T = ComplexTensor.basis_covector(c2, 0)
    LT = act_on_tensor(L, T)
    # (L T)(e2) = -T(L e2) = -T(-e1) = +1, so the dual of e1 maps to the
    # dual of e2 (value frozen from the naive oracle)
    expected = act_matrix_naive(L.matrix(), T.components)
    assert np.allclose(expected, ComplexTensor.basis_covector(c2, 1).components)
    assert np.allclose(LT.components, expected)
    assert act_on_tensor(Bivector.zero(c2), T).norm2() == 0.0


def test_act_on_tensor_matches_naive(c2, rng):
    for rank in (1, 2, 3):
        L = Bivector.random(c2, rng)
        T = ComplexTensor.random(c2, rank, rng)
        expected = act_matrix_naive(L.matrix(), T.components)
        assert np.allclose(act_on_tensor(L, T).components, expected, atol=1e-12)


def test_act_on_tensor_is_representation(c2, rng):
    # act([L1, L2], T) = act(L1, act(L2, T)) - act(L2, act(L1, T))
    worst = 0.0
    for _ in range(50):
        rank = int(rng.integers(1, 4))
        L1 = Bivector.random(c2, rng)
        L2 = Bivector.random(c2, rng)
        T = ComplexTensor.random(c2, rank, rng)
        lhs = act_on_tensor(lie_bracket(L1, L2), T)
        rhs = act_on_tensor(L1, act_on_tensor(L2, T)) - act_on_tensor(L2, act_on_tensor(L1, T))
        worst = max(worst, np.abs(lhs.components - rhs.components).max())
    assert worst < 1e-10


def test_action_is_inner_product_derivation(c3, rng):
    # real L: <LT, S> + <T, LS> = 0
    for _ in range(20):
        rank = int(rng.integers(1, 4))
        L = Bivector.random(c3, rng)
        T = ComplexTensor.random(c3, rank, rng)
        S = ComplexTensor.random(c3, rank, rng)
        total = hermitian_inner(act_on_tensor(L, T), S) + hermitian_inner(T, act_on_tensor(L, S))
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
        M = Bivector.random(c2, rng, unit=True).matrix()
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
    om = kahler_form(c2)
    nz = np.abs(om.components) > 0
    assert nz.sum() == 4
    assert hermitian_inner(om, om) == pytest.approx(4.0)
    assert om.form_norm2() == pytest.approx(2.0)


def test_wedge_monomial_unit_norm(c3):
    L = Bivector.wedge(c3, 1, 4)
    assert L.norm2() == pytest.approx(1.0)
    assert L.as_tensor().form_norm2() == pytest.approx(1.0)


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
