"""Weitzenbock action, curvature terms and the eigenvalue-sum bound."""

import numpy as np
import pytest

from bochner import (
    ComplexTensor,
    chsc_model,
    constant_sectional_model,
    curvature_term,
    flat_model,
    lichnerowicz_zero_order,
    quaternionic_projective_model,
    random_kahler_curvature,
    verify_eigenvalue_sum_bound,
    verify_weitzenbock_restriction,
    weitzenbock_ric,
)
from bochner import circ
from bochner.forms import omega_power, random_pq_form, random_stratum_form
from bochner.holonomy import cached_algebra
from bochner.criteria import stratum_constant, form_constant

from oracles import (
    act_matrix_naive,
    action_supremum_naive,
    curvature_term_naive,
    weitzenbock_naive,
)


def test_flat_gives_zero(c2, rng):
    rm = flat_model(c2)
    for rank in (1, 2):
        T = ComplexTensor.random(c2, rank, rng)
        assert weitzenbock_ric(rm, T).norm2() == 0.0


def test_constant_sectional_one_form_eigenvalue(c2, c3):
    # a 1-form is an eigenvector with eigenvalue d - 1 at curvature one
    for space in (c2, c3):
        d = space.dim
        rm = constant_sectional_model(space, 1.0)
        T = ComplexTensor.basis_covector(space, 0)
        out = weitzenbock_ric(rm, T)
        assert np.allclose(out.components, (d - 1) * T.components, atol=1e-12)


def test_weitzenbock_matches_naive_double_sum(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    for rank in (1, 2, 3):
        T = ComplexTensor.random(c2, rank, rng)
        expected = weitzenbock_naive(rm.array, T.components)
        got = weitzenbock_ric(rm, T)
        assert np.allclose(got.components, expected, atol=1e-10)


def test_weitzenbock_linear_and_self_adjoint(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    T = ComplexTensor.random(c2, 2, rng)
    S = ComplexTensor.random(c2, 2, rng)
    from bochner import hermitian_inner

    left = hermitian_inner(weitzenbock_ric(rm, T), S)
    right = hermitian_inner(T, weitzenbock_ric(rm, S))
    assert abs(left - right) < 1e-9 * max(1.0, abs(left))
    combo = weitzenbock_ric(rm, 2.0 * T - 1.5j * S)
    expected = 2.0 * weitzenbock_ric(rm, T) - 1.5j * weitzenbock_ric(rm, S)
    assert np.allclose(combo.components, expected.components, atol=1e-10)


def test_lichnerowicz_scaling(c2, rng):
    rm = random_kahler_curvature(c2, rng)
    T = ComplexTensor.random(c2, 2, rng)
    base = weitzenbock_ric(rm, T)
    assert np.allclose(lichnerowicz_zero_order(rm, T, 1.0).components,
                       base.components)
    assert np.allclose(lichnerowicz_zero_order(rm, T, 0.5).components,
                       0.5 * base.components)
    for c in (0.3, 1.7):
        assert np.allclose(lichnerowicz_zero_order(rm, T, c).components,
                           c * base.components)
    with pytest.raises(ValueError):
        lichnerowicz_zero_order(rm, T, 0.0)


# ---------------------------------------------------------------------------
# curvature term


def test_curvature_term_invariant_tensor(c2):
    u = cached_algebra(c2, "u")
    rm = chsc_model(c2, 2.0)
    term = curvature_term(rm, u, omega_power(c2, 1).tensor)
    assert abs(term.value) < 1e-18
    assert abs(term.gram_value) < 1e-18


def test_curvature_term_flat(c2, rng):
    u = cached_algebra(c2, "u")
    term = curvature_term(flat_model(c2), u, ComplexTensor.random(c2, 2, rng))
    assert term.value == 0.0
    assert term.gram_value == 0.0


def test_curvature_term_two_routes_agree(c2, rng):
    u = cached_algebra(c2, "u")
    for _ in range(10):
        rm = random_kahler_curvature(c2, rng)
        T = ComplexTensor.random(c2, int(rng.integers(1, 4)), rng)
        term = curvature_term(rm, u, T)
        assert term.route_deviation < 1e-9
        assert term.imag_residual < 1e-9 * max(1.0, abs(term.value))
        # reconstruction invariants
        assert term.value == pytest.approx(
            sum(mu * w for mu, w in term.per_eigenvalue), rel=1e-10)
        assert term.sharp_norm2 == pytest.approx(
            sum(w for _, w in term.per_eigenvalue), rel=1e-10)


def test_curvature_term_matches_naive_gram_contraction(c2, rng):
    from bochner import sharp

    u = cached_algebra(c2, "u")
    rm = random_kahler_curvature(c2, rng)
    T = ComplexTensor.random(c2, 2, rng)
    term = curvature_term(rm, u, T)
    gram = rm.restricted_gram(u)
    slices = list(sharp(T, u).stack)
    expected = curvature_term_naive(gram, slices)
    assert term.gram_value == pytest.approx(expected.real, rel=1e-10)


def test_curvature_term_positive_on_chsc_forms(c2, rng):
    # strictly positive on nonzero (1, 0)-forms for a positive model
    u = cached_algebra(c2, "u")
    rm = chsc_model(c2, 3.0)
    for _ in range(10):
        phi = random_pq_form(c2, 1, 0, rng)
        term = curvature_term(rm, u, phi.tensor)
        assert term.value > 0


# ---------------------------------------------------------------------------
# restriction identity


def test_restriction_identity_models(c2, c3, h2, rng):
    targets = [(chsc_model(c2, 4.0), cached_algebra(c2, "u")),
               (chsc_model(c3, 1.0), cached_algebra(c3, "u")),
               (quaternionic_projective_model(h2), cached_algebra(h2, "sp"))]
    for rm, alg in targets:
        for rank in (1, 2, 3):
            for _ in range(5):
                T = ComplexTensor.random(rm.space, rank, rng)
                r, = verify_weitzenbock_restriction(rm, alg, [T])
                assert r["deviation"] < 1e-8
                assert r["route_deviation"] < 1e-9


def test_restriction_identity_flat(c2, rng):
    r, = verify_weitzenbock_restriction(flat_model(c2), cached_algebra(c2, "u"),
                                        [ComplexTensor.random(c2, 2, rng)])
    assert r["lhs"] == 0.0
    assert r["rhs"] == 0.0


def test_restriction_identity_random_kahler(c2, rng):
    # holds for every operator supported on the algebra, not just models
    u = cached_algebra(c2, "u")
    for _ in range(10):
        rm = random_kahler_curvature(c2, rng)
        T = ComplexTensor.random(c2, 2, rng)
        r, = verify_weitzenbock_restriction(rm, u, [T])
        assert r["deviation"] < 1e-8


def test_restriction_identity_rejects_leaky_operator(c2, rng):
    from bochner import random_curvature

    rm = random_curvature(c2, rng)  # full so(4) support
    with pytest.raises(ValueError, match="leak"):
        verify_weitzenbock_restriction(rm, cached_algebra(c2, "u"),
                                       [ComplexTensor.random(c2, 1, rng)])


# ---------------------------------------------------------------------------
# eigenvalue-sum lower bound


def test_eigenvalue_sum_bound_nonnegative_spectrum(c2, rng):
    # kappa = 0 with a nonnegative spectrum: the term is nonnegative on
    # every admitted sample
    u = cached_algebra(c2, "u")
    G = np.diag([0.0, 0.5, 1.0, 2.0])
    tensors = [random_pq_form(c2, 1, 0, rng).tensor for _ in range(20)]
    r = verify_eigenvalue_sum_bound(G, u, C=2.0, ell=1, kappa=0.0, tensors=tensors)
    assert r["premise_holds"]
    assert r["all_pass"]
    assert r["admitted"] == 20
    for case in r["cases"]:
        assert case["lhs"] >= -1e-12


def test_eigenvalue_sum_bound_chsc_one_zero_forms(c2, rng):
    # (1, 0)-forms satisfy the hypothesis with C = n; the model passes
    u = cached_algebra(c2, "u")
    rm = chsc_model(c2, 4.0)
    tensors = [random_pq_form(c2, 1, 0, rng).tensor for _ in range(20)]
    r = verify_eigenvalue_sum_bound(rm.restricted_gram(u), u, C=2.0, ell=2, kappa=-1.0,
                                    tensors=tensors)
    assert r["premise_holds"] and r["strict_premise"]
    assert r["admitted"] == 20
    assert r["all_pass"]


def test_eigenvalue_sum_bound_zero_spectrum(c2, rng):
    u = cached_algebra(c2, "u")
    G = np.zeros((4, 4))
    tensors = [random_pq_form(c2, 1, 0, rng).tensor for _ in range(5)]
    r = verify_eigenvalue_sum_bound(G, u, C=2.0, ell=1, kappa=0.0, tensors=tensors)
    assert r["premise_holds"]
    for case in r["cases"]:
        assert case["lhs"] == pytest.approx(0.0, abs=1e-15)
        assert case["rhs"] == 0.0


def test_eigenvalue_sum_bound_rejects_bad_tensors(c2, rng):
    # symmetric 2-tensors anti-invariant under J mostly have an action
    # ratio sup |L T|^2 / |T^g|^2 above 1/2, violating the hypothesis at C = 2
    u = cached_algebra(c2, "u")
    J = c2.j_matrix()
    G = np.eye(4)
    bad = []
    for _ in range(10):
        h = rng.standard_normal((4, 4))
        h = h + h.T
        anti = 0.5 * (h - J.T @ h @ J)
        bad.append(ComplexTensor(c2, anti.astype(complex)))
    r = verify_eigenvalue_sum_bound(G, u, C=2.0, ell=1, kappa=0.0, tensors=bad)
    assert r["rejected"] > 0


def test_eigenvalue_sum_bound_admits_exactly_the_hypothesis(c2):
    # rank-2 tensors at n = 2 with C = 3: admitted iff the exact action
    # ratio sup |L T|^2 / |T^g|^2 is at most 1/3, both sides from the oracle
    rng = np.random.default_rng(20240802)
    u = cached_algebra(c2, "u")
    tensors = [ComplexTensor.random(c2, 2, rng) for _ in range(100)]
    expected = set()
    for idx, T in enumerate(tensors):
        tg2 = sum(np.sum(np.abs(act_matrix_naive(M, T.components)) ** 2)
                  for M in u.matrices)
        ratio = action_supremum_naive(u, T.components) / tg2
        assert abs(ratio - 1.0 / 3.0) > 1e-6  # no tensor sits on the boundary
        if ratio <= 1.0 / 3.0:
            expected.add(idx)
    r = verify_eigenvalue_sum_bound(np.eye(4), u, C=3.0, ell=1, kappa=0.0, tensors=tensors)
    assert {case["id"] for case in r["cases"]} == expected
    assert r["admitted"] + r["rejected"] == 100
    assert 0 < len(expected) < 100


def test_eigenvalue_sum_bound_argument_validation(c2):
    u = cached_algebra(c2, "u")
    G = np.eye(4)
    with pytest.raises(ValueError):
        verify_eigenvalue_sum_bound(G, u, C=2.0, ell=3, kappa=0.0, tensors=[])
    with pytest.raises(ValueError):
        verify_eigenvalue_sum_bound(G, u, C=2.0, ell=1, kappa=0.5, tensors=[])
    with pytest.raises(ValueError):
        verify_eigenvalue_sum_bound(G, u, C=0.5, ell=1, kappa=0.0, tensors=[])


def test_non_finite_arguments_are_rejected(c2, rng):
    # an infinite slack passed every case, an infinite C overflowed in floor,
    # and a NaN kappa or scale went through to a NaN result
    u = cached_algebra(c2, "u")
    for kwargs, name in (({"C": np.inf}, "C"), ({"kappa": np.nan}, "kappa"),
                         ({"slack": np.inf}, "slack")):
        args = {"C": 2.0, "ell": 1, "kappa": 0.0, "tensors": [], **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {args[name]}$"):
            verify_eigenvalue_sum_bound(np.eye(4), u, **args)
    rm = random_kahler_curvature(c2, rng)
    with pytest.raises(ValueError, match="^c must be finite, got nan$"):
        lichnerowicz_zero_order(rm, ComplexTensor.random(c2, 1, rng), np.nan)


# ---------------------------------------------------------------------------
# stratum lower bounds driven by the constants


def _premise_kappa(gram, C):
    spec = np.linalg.eigvalsh(gram)
    ell = int(np.floor(C))
    S = float(np.sum(spec[:ell]))
    if ell < len(spec):
        S += (C - ell) * spec[ell]
    return min(S / (ell + 1), 0.0), ell


def test_stratum_lower_bound_on_sampled_forms(c3, rng):
    # kappa chosen so the premise holds with equality; the curvature term
    # on stratum forms dominates kappa (floor(C)+1)(p+q-2k) |circ|^2
    u = cached_algebra(c3, "u")
    n = 3
    for (p, q, k) in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, 1)):
        C = float(stratum_constant(n, p, q, k).value)
        for _ in range(3):
            rm = random_kahler_curvature(c3, rng)
            gram = rm.restricted_gram(u)
            kappa, ell = _premise_kappa(gram, C)
            for _ in range(5):
                phi = random_stratum_form(c3, p, q, k, rng)
                term = curvature_term(rm, u, phi.tensor)
                ringed2 = circ(phi).norm2()
                bound = kappa * (ell + 1) * (p + q - 2 * k) * ringed2
                assert term.gram_value >= bound - 1e-9 * max(1.0, abs(bound))


def test_form_constant_lower_bound_grouped(c3, rng):
    # with the k = 0 constant, the grouped constant (n+2-|p-q|)(p+q)
    # bounds the term on stratum forms
    u = cached_algebra(c3, "u")
    n = 3
    for (p, q) in ((1, 0), (2, 1), (1, 1)):
        C = float(form_constant(n, p, q).value)
        for _ in range(3):
            rm = random_kahler_curvature(c3, rng)
            gram = rm.restricted_gram(u)
            kappa, _ = _premise_kappa(gram, C)
            for _ in range(5):
                phi = random_stratum_form(c3, p, q, 0, rng)
                term = curvature_term(rm, u, phi.tensor)
                ringed2 = circ(phi).norm2()
                bound = kappa * (n + 2 - abs(p - q)) * (p + q) * ringed2
                assert term.gram_value >= bound - 1e-9 * max(1.0, abs(bound))
