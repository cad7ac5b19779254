"""Closed-form constants (exact arithmetic) and verdict checkers."""

import itertools
from fractions import Fraction

import pytest

from bochner import (
    EuclideanSpace,
    VacuousStratumError,
    bochner_parity_coefficient,
    check_bochner,
    check_einstein_flat,
    check_lq_nonneg,
    check_pq,
    check_quaternion,
    chsc_model,
    form_constant,
    kappa_bound,
    kappa_bound_harmonic_field,
    kato_constant,
    quaternion_parity_coefficient,
    restricted_spectrum,
    stratum_constant,
    to_operator,
)
from bochner import criteria
from bochner.criteria import serre_remap, serre_stratum, weighted_partial_sum
from bochner.holonomy import cached_algebra


# ---------------------------------------------------------------------------
# constants: exact rational values


def test_stratum_constant_values():
    assert stratum_constant(3, 1, 1, 0).value == 3
    assert stratum_constant(3, 1, 1, 0).floor == 3
    for n in (1, 2, 3, 5):
        assert stratum_constant(n, 1, 0, 0).value == n
    assert stratum_constant(3, 2, 1, 0).value == Fraction(7, 3)
    with pytest.raises(VacuousStratumError):
        stratum_constant(3, 1, 1, 1)
    with pytest.raises(ValueError):
        stratum_constant(3, 1, 0, 1)


@pytest.mark.parametrize("call", [
    lambda: criteria.check_stratum(2, 1, 2),
    lambda: criteria.check_stratum(2, 1, -1),
    lambda: stratum_constant(3, 1, 1, -1),
    lambda: serre_stratum(3, 2, 2, -1),
    lambda: check_pq([1.0] * 9, 3, 1, 1, k=-1),
    lambda: check_pq([1.0] * 9, 3, 2, 2, k=3),
], ids=["above-min", "negative", "stratum-constant", "serre-negative", "check-pq-negative",
        "check-pq-above-min-before-remap"])
def test_stratum_index_outside_zero_to_min_pq_is_out_of_range(call):
    # one rule, 0 <= k <= min(p, q), on the declared type before any remap
    with pytest.raises(ValueError, match=r"^stratum k = -?\d+ out of range for type"):
        call()


def test_form_constant_values():
    assert form_constant(3, 2, 1).value == Fraction(7, 3)
    assert form_constant(3, 2, 1).floor == 2
    assert form_constant(3, 2, 1).fractional == Fraction(1, 3)
    for n in (2, 3, 4):
        assert form_constant(n, 1, 0).value == n
    assert form_constant(4, 2, 2).value == 3
    with pytest.raises(ValueError):
        form_constant(3, 0, 0)


def test_form_constant_equals_zero_stratum():
    for n in (2, 3, 4, 5):
        for p in range(0, n + 1):
            for q in range(0, n + 1 - p):
                if p + q == 0:
                    continue
                assert form_constant(n, p, q).value == stratum_constant(n, p, q, 0).value
    # exactly the same constant, floor included, on every type up to n = 6
    for n in range(1, 7):
        for p, q in itertools.product(range(n + 1), repeat=2):
            if p + q:
                assert form_constant(n, p, q) == stratum_constant(n, p, q, 0)


def test_kato_constant_values():
    assert kato_constant(2, 2, 0) == Fraction(1, 2)
    assert kato_constant(2, 1, 0) == Fraction(9, 16)
    assert kato_constant(3, 1, 1) == Fraction(25, 36)
    with pytest.raises(ValueError):
        kato_constant(2, 3, 0)


def test_kato_constant_piecewise_oracle():
    # evaluate the piecewise formula independently with Fractions
    def oracle(n, p, q):
        if p == n or q == n:
            return Fraction(1, 2)

        def mx(s):
            return max(Fraction(2 * s + 1, 2 * s + 2),
                       Fraction(2 * n - 2 * s + 1, 2 * n - 2 * s + 2))

        return min(mx(p), mx(q)) ** 2

    for n in (1, 2, 3, 4):
        for p in range(n + 1):
            for q in range(n + 1):
                assert kato_constant(n, p, q) == oracle(n, p, q)


def test_kappa_bound_values():
    assert kappa_bound(2, 1, 0) == 1
    assert kappa_bound(2, Fraction(1, 2), 0) == 2
    with pytest.raises(ValueError):
        kappa_bound(1, 1, 0)
    with pytest.raises(ValueError):
        kappa_bound(2, 0, 0)


def test_kappa_bound_harmonic_field_composed():
    # D(2,1,0) = 9/16, so 4 (2 + 16/9 - 3) / 4 = 7/9
    assert kappa_bound_harmonic_field(2, 1, 0, 2, 1) == Fraction(7, 9)
    # reduces to 1/D - 1 at Q = 2, c = 1
    for (n, p, q) in ((3, 1, 1), (3, 2, 1), (4, 1, 0)):
        D = kato_constant(n, p, q)
        assert kappa_bound_harmonic_field(n, p, q, 2, 1) == 1 / D - 1


def test_parity_coefficients():
    assert bochner_parity_coefficient(3) == 0
    assert bochner_parity_coefficient(4) == Fraction(1, 2)
    assert {bochner_parity_coefficient(n) for n in range(2, 9)} == {Fraction(0), Fraction(1, 2)}
    assert quaternion_parity_coefficient(2) == Fraction(2, 3)
    assert quaternion_parity_coefficient(3) == Fraction(1, 6)
    assert {quaternion_parity_coefficient(m) for m in range(2, 9)} == {Fraction(1, 6), Fraction(2, 3)}


def test_weighted_partial_sum():
    spec = [-1.0, 0.0, 2.0, 5.0]
    assert weighted_partial_sum(spec, 2) == -1.0
    assert weighted_partial_sum(spec, 2, Fraction(1, 2)) == 0.0
    # zero weight does not touch mu_{count+1}, so a full-length count works
    assert weighted_partial_sum(spec, 4) == 6.0
    with pytest.raises(ValueError):
        weighted_partial_sum(spec, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        weighted_partial_sum([1.0, 0.0], 1)
    # exact, then rounded once: no float cancellation, and the weighted
    # term is the product of the exact weight and eigenvalue
    assert weighted_partial_sum([-1e16, -1.0, 1e16], 3) == -1.0
    assert weighted_partial_sum([-1.0, 49.0], 1, Fraction(1, 49)) == 0.0
    # a step down within the 1e-12 ordering slack still sums the smallest values
    assert weighted_partial_sum([1e-13, 0.0], 1) == 0.0
    assert weighted_partial_sum([2e-13, 1e-13, 0.0], 1, Fraction(1, 2)) == 5e-14


# ---------------------------------------------------------------------------
# check_pq


def test_check_pq_flat_parallel():
    v = check_pq([0.0] * 4, 2, 1, 0, kappa=0.0)
    assert v.conclusion == "parallel"
    assert v.condition_value == 0.0
    assert v.theorem_id == "T3_2"


def test_check_pq_chsc_vanishing(c2):
    spec, _ = restricted_spectrum(to_operator(chsc_model(c2, 4.0)), cached_algebra(c2, "u"))
    v = check_pq(list(spec), 2, 1, 0, kappa=0.0)
    assert v.conclusion == "vanishing"
    assert v.condition_value > 0


def test_check_pq_negative_inconclusive():
    v = check_pq([-10.0, 0.0, 0.0, 0.0], 2, 1, 0, kappa=0.0)
    assert v.conclusion == "inconclusive"


def test_check_pq_equal_types_route():
    v = check_pq([0.0] * 4, 2, 1, 1, kappa=0.0)
    assert v.theorem_id == "T3_4"
    assert "orthogonal to the Kahler form" in v.notes


def test_check_pq_weighted_route():
    # positive spectrum, admissible kappa
    v = check_pq([1.0, 1.0, 1.0, 2.0], 2, 1, 0, kappa=0.5, rho=1.0, Q=2)
    assert v.theorem_id == "T3_6"
    assert v.kappa_admissible  # bound is 7/9 at (2,1,0)
    assert v.conclusion == "vanishing"
    v2 = check_pq([1.0, 1.0, 1.0, 2.0], 2, 1, 0, kappa=0.9, rho=1.0, Q=2)
    assert not v2.kappa_admissible
    assert v2.conclusion == "inconclusive"


def test_check_pq_serre_remap_invariance():
    spec = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    a = check_pq(spec, 3, 1, 0, kappa=0.0)
    b = check_pq(spec, 3, 2, 3, kappa=0.0)
    assert a.condition_value == b.condition_value


def test_check_pq_stratum_constant():
    spec = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    v = check_pq(spec, 3, 2, 1, kappa=0.0, k=1)
    # C(3,2,1,1) = 3: integer floor, no fractional term
    assert v.arithmetic["C"] == 3
    assert v.condition_value == pytest.approx(0.5 + 1.0 + 1.5)


def test_check_pq_stratum_remap_beyond_half_degree():
    spec = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]
    a = check_pq(spec, 3, 2, 2, kappa=0.0, k=1)
    b = check_pq(spec, 3, 1, 1, kappa=0.0, k=0)
    assert a.condition_value == b.condition_value
    with pytest.raises(ValueError, match="empty"):
        check_pq(spec, 3, 2, 2, kappa=0.0, k=0)


@pytest.mark.parametrize("p,q", [(3, 0), (0, 3), (-1, 2), (2, -1), (0, 0)])
def test_check_pq_rejects_types_out_of_range(p, q):
    # (3, 0) at n = 2 used to remap to (-1, 2) and print "vanishing"
    with pytest.raises(ValueError, match="out of range"):
        check_pq([1.0] * 4, 2, p, q, kappa=0.0)


def test_check_pq_scale_covariance():
    spec = [0.5, 1.0, 1.5, 2.0]
    v1 = check_pq(spec, 2, 1, 0, kappa=0.0)
    v2 = check_pq([3.0 * x for x in spec], 2, 1, 0, kappa=0.0)
    assert v2.condition_value == pytest.approx(3.0 * v1.condition_value)
    assert v1.conclusion == v2.conclusion


def test_check_pq_monotone_in_spectrum(rng):
    # raising any eigenvalue never flips pass to fail
    base = sorted(rng.standard_normal(4))
    v0 = check_pq(list(base), 2, 1, 0, kappa=0.0)
    for i in range(4):
        bumped = sorted(base[:i] + [base[i] + abs(rng.standard_normal())] + base[i + 1:])
        v1 = check_pq(bumped, 2, 1, 0, kappa=0.0)
        if v0.conclusion != "inconclusive":
            assert v1.conclusion != "inconclusive"


# ---------------------------------------------------------------------------
# parity-sum checks


def test_check_bochner_parity_and_bound():
    v3 = check_bochner([0.0] * 9, 3, k=0.0, Q=2)
    assert v3.arithmetic["parity_coefficient"] == 0
    assert v3.conclusion == "bochner_flat"
    v4 = check_bochner([0.0] * 16, 4, k=0.0, Q=2)
    assert v4.arithmetic["parity_coefficient"] == Fraction(1, 2)
    # admissibility: k < (Q-1)/Q^2 = 1/4 at Q = 2
    v = check_bochner([1.0] * 9, 3, k=0.25, Q=2)
    assert not v.kappa_admissible
    v = check_bochner([1.0] * 9, 3, k=0.2, Q=2)
    assert v.kappa_admissible


def test_check_bochner_odd_n_condition_is_two_terms():
    spec = sorted([-1.0, -0.5] + [5.0] * 7)
    v = check_bochner(spec, 3, k=0.0, Q=2)
    assert v.condition_value == pytest.approx(-1.5)
    assert v.conclusion == "inconclusive"


def test_check_einstein_flat(c2):
    v = check_einstein_flat([0.0] * 16, 4, k=0.0, Q=2)
    assert v.conclusion == "flat"
    assert v.theorem_id == "T4_1"
    # strictly positive chsc spectrum at n = 4
    space = EuclideanSpace.complex_space(4)
    spec, _ = restricted_spectrum(to_operator(chsc_model(space, 2.0)),
                                  cached_algebra(space, "u"))
    v = check_einstein_flat(list(spec), 4, k=0.0, Q=2)
    assert v.conclusion == "flat"
    assert v.condition_value > 0
    # small dimension warning
    v = check_einstein_flat([0.0] * 4, 2, k=0.0, Q=2)
    assert "below the stated range" in v.notes
    # k = 1/4 inadmissible at Q = 2
    v = check_einstein_flat([1.0] * 16, 4, k=0.25, Q=2)
    assert not v.kappa_admissible


def test_check_quaternion():
    spec = [0.0] * 13
    v = check_quaternion(spec, 2, k=0.0, Q=2)
    assert v.arithmetic["parity_coefficient"] == Fraction(2, 3)
    assert v.conclusion == "flat"
    assert "scalar-flatness hypothesis is not needed" in v.notes
    v = check_quaternion([0.0] * 24, 3, k=0.0, Q=2)
    assert v.arithmetic["parity_coefficient"] == Fraction(1, 6)
    # admissibility k < (Q-1)/Q = 1/2 at Q = 2
    v = check_quaternion(spec, 2, k=0.6, Q=2)
    assert not v.kappa_admissible
    assert v.conclusion == "inconclusive"
    with pytest.raises(ValueError):
        check_quaternion([0.0] * 12, 2)


def test_check_lq_nonneg():
    assert check_lq_nonneg([1.0] * 9, 3).conclusion == "vanishing"
    assert check_lq_nonneg([0.0] * 4, 2).conclusion == "parallel"
    v = check_lq_nonneg([-1.0, 0.0, 0.0, 0.0], 2)
    assert v.conclusion == "inconclusive"
    assert v.condition_value == -1.0


def test_check_lq_nonneg_chsc(c3):
    spec, _ = restricted_spectrum(to_operator(chsc_model(c3, 1.0)), cached_algebra(c3, "u"))
    v = check_lq_nonneg(list(spec), 3)
    assert v.conclusion == "vanishing"
    assert v.condition_value > 0


def test_strict_verdict_implies_positive_curvature_term(c2, rng):
    # a strictly passing kappa = 0 verdict on a Kahler model forces the
    # restricted curvature term to be positive on sampled forms
    from bochner import curvature_term
    from bochner.forms import random_pq_form

    u = cached_algebra(c2, "u")
    rm = chsc_model(c2, 4.0)
    spec, _ = restricted_spectrum(to_operator(rm), u)
    v = check_pq(list(spec), 2, 1, 0, kappa=0.0)
    assert v.conclusion == "vanishing" and v.condition_value > 0
    for _ in range(10):
        phi = random_pq_form(c2, 1, 0, rng)
        assert curvature_term(rm, u, phi.tensor).gram_value > 0


def test_verdict_json_shape():
    v = check_pq([0.0] * 4, 2, 1, 0)
    obj = v.to_json()
    assert set(obj) == {"theorem_id", "condition_value", "threshold",
                        "kappa_admissible", "conclusion", "notes", "arithmetic"}


def test_criteria_serre_remap():
    assert serre_remap(3, 2, 2) == (1, 1, True)
    assert serre_remap(3, 1, 1) == (1, 1, False)


def test_serre_stratum_shifts_k_with_the_type():
    assert serre_stratum(3, 1, 1, 1) == 1
    assert serre_stratum(3, 2, 2, 1) == 0
    assert serre_stratum(3, 3, 1, 1) == 0
    empty = r"^stratum k = 0 is empty for type \(2, 2\) at n = 3$"
    with pytest.raises(ValueError, match=empty):
        serre_stratum(3, 2, 2, 0)
    # check_pq remaps through it, with the same message
    with pytest.raises(ValueError, match=empty):
        check_pq([1.0] * 9, 3, 2, 2, k=0)
