"""Closed-form constants (exact arithmetic) and verdict checkers."""

import itertools
import math
import re
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


@pytest.mark.parametrize("c", [0, -1])
def test_kappa_bounds_reject_a_nonpositive_c(c):
    # kappa_bound_harmonic_field once divided by c = 0 and returned -7/9 at c = -1
    for bound in (lambda: kappa_bound(2, c), lambda: kappa_bound_harmonic_field(2, 1, 0, 2, c)):
        with pytest.raises(ValueError, match=f"^c must be positive, got {c}$"):
            bound()


@pytest.mark.parametrize("call", [
    lambda: kappa_bound(1, 1),
    lambda: kappa_bound_harmonic_field(2, 1, 0, 1),
    lambda: check_pq([0.0] * 4, 2, 1, 0, kappa=0.1, Q=1),
    lambda: check_bochner([0.0] * 4, 2, Q=1),
    lambda: check_einstein_flat([0.0] * 4, 2, Q=1),
    lambda: check_quaternion([0.0] * 13, 2, Q=1),
], ids=["kappa_bound", "harmonic_field", "pq", "bochner", "einstein", "quaternion"])
def test_every_weight_window_needs_q_at_least_two(call):
    with pytest.raises(ValueError, match="^Q must be >= 2, got 1$"):
        call()


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
    # finite values whose exact sum is beyond the largest float
    with pytest.raises(ValueError, match="overflows"):
        weighted_partial_sum([1e308] * 4, 2)
    with pytest.raises(ValueError, match="overflows"):
        weighted_partial_sum([-1e308] * 4, 3, Fraction(1, 2))


# ---------------------------------------------------------------------------
# check_pq


def test_check_pq_flat_parallel():
    v = check_pq([0.0] * 4, 2, 1, 0, kappa=0.0)
    assert v.conclusion == "parallel"
    assert v.condition_value == 0.0
    assert v.theorem_id == "T3_2"


def test_check_pq_chsc_vanishing(c2):
    spec, _ = restricted_spectrum(chsc_model(c2, 4.0), cached_algebra(c2, "u"))
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
    spec, _ = restricted_spectrum(chsc_model(space, 2.0), cached_algebra(space, "u"))
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
    spec, _ = restricted_spectrum(chsc_model(c3, 1.0), cached_algebra(c3, "u"))
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
    spec, _ = restricted_spectrum(rm, u)
    v = check_pq(list(spec), 2, 1, 0, kappa=0.0)
    assert v.conclusion == "vanishing" and v.condition_value > 0
    for _ in range(10):
        phi = random_pq_form(c2, 1, 0, rng)
        assert curvature_term(rm, u, phi.tensor).gram_value > 0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call,name", [
    (lambda x: check_pq([0.0] * 4, 2, 1, 0, kappa=x), "kappa"),
    (lambda x: check_pq([0.0] * 4, 2, 1, 0, kappa=0.1, rho=x), "rho"),
    (lambda x: check_pq([0.0] * 4, 2, 1, 0, Q=x), "Q"),
    (lambda x: check_bochner([0.0] * 4, 2, k=x), "k"),
    (lambda x: check_einstein_flat([0.0] * 4, 2, rho=x), "rho"),
    (lambda x: check_quaternion([0.0] * 13, 2, Q=x), "Q"),
    (lambda x: kappa_bound(x, 1), "Q"),
    (lambda x: kappa_bound(2, 1, a=x), "a"),
    (lambda x: kappa_bound_harmonic_field(2, 1, 0, 2, c=x), "c"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_non_finite_weights_are_rejected(call, name, value):
    # an infinite weight once turned into a -inf threshold and a passing
    # verdict, or an OverflowError in Fraction; a NaN one into a NaN threshold
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        call(value)


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


@pytest.mark.parametrize("call,message", [
    (lambda: criteria.check_lq_nonneg([-1.0, 2.0, 3.0, 4.0], -2), "n must be an integer"),
    (lambda: criteria.check_lq_nonneg([5.0], 2), "differs from n^2 = 4"),
    (lambda: criteria.check_lq_nonneg([-1.0, 2.0, 3.0, 4.0], 3), "differs from n^2 = 9"),
    (lambda: criteria.check_quaternion([1.0, 2.0, 3.0], 0), "m must be an integer"),
    (lambda: criteria.check_quaternion([-1.0, 2.0, 3.0, 4.0], -1), "m must be an integer"),
    (lambda: criteria.check_bochner([5.0], -1), "n must be an integer"),
    (lambda: criteria.check_einstein_flat([0.0] * 4, 2.0), "n must be an integer"),
    (lambda: criteria.check_pq([0.0], True, 1, 0), "n must be an integer"),
    (lambda: criteria.check_pq([1.0, 1.0, 1.0], 2, 1, 0), "spectrum length 3 differs from n^2 = 4"),
    (lambda: criteria.weighted_partial_sum([1.0, 2.0], -1), "count must be nonnegative"),
    (lambda: criteria.check_quaternion([1.0] * 6, 1), "sp spectrum needs m >= 2, got 1"),
], ids=["lq-negative-n", "lq-short", "lq-n3-four-values", "quaternion-m0",
        "quaternion-negative-m", "bochner-negative-n", "einstein-float-n", "pq-bool-n",
        "pq-short", "negative-count", "quaternion-m1"])
def test_checkers_reject_bad_dimensions(call, message):
    # each of these printed a verdict from too few values, or a TypeError
    # traceback from (-1) ** -1 inside Fraction
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# the verdict rule, theorem by theorem


# theorem id: (check on the constant spectrum [x, ..., x] at weight w, the x
# whose condition equals the threshold at the weight inside the window, that
# weight, and the window's exact bound, None for the unweighted theorems)
_VERDICT_CASES = {
    "T3_2": (lambda x, w: check_pq([x] * 4, 2, 1, 0), 0.0, None, None),
    "T3_4": (lambda x, w: check_pq([x] * 4, 2, 1, 1), 0.0, None, None),
    "C3_3": (lambda x, w: check_lq_nonneg([x] * 4, 2), 0.0, None, None),
    # C = 2: S / (C + 1) = -1 = -kappa rho at x = -3/2
    "T3_6": (lambda x, w: check_pq([x] * 4, 2, 1, 0, kappa=w, rho=2.0), -1.5, 0.5, Fraction(7, 9)),
    "C3_8": (lambda x, w: check_pq([x] * 4, 2, 1, 1, kappa=w, rho=2.0), -1.5, 0.5, Fraction(7, 9)),
    # S = x + x / 2 = -3/2 = -k rho at x = -1
    "T1_5": (lambda x, w: check_bochner([x] * 4, 2, k=w, rho=12.0), -1.0, 0.125, Fraction(1, 4)),
    "T4_1": (lambda x, w: check_einstein_flat([x] * 4, 2, k=w, rho=12.0), -1.0, 0.125,
             Fraction(1, 4)),
    # S = x + 2 x / 3 = -5 = -k rho at x = -3
    "T4_4": (lambda x, w: check_quaternion([x] * 13, 2, k=w, rho=20.0), -3.0, 0.25, Fraction(1, 2)),
}


@pytest.mark.parametrize("theorem_id,strict,equality", [
    ("T3_2", "vanishing", "parallel"),
    ("T3_4", "vanishing", "parallel"),
    ("C3_3", "vanishing", "parallel"),
    ("T3_6", "vanishing", "vanishing"),
    ("C3_8", "vanishing", "vanishing"),
    ("T1_5", "bochner_flat", "bochner_flat"),
    ("T4_1", "flat", "flat"),
    ("T4_4", "flat", "flat"),
])
def test_each_theorem_follows_the_one_verdict_rule(theorem_id, strict, equality):
    check, at, weight, bound = _VERDICT_CASES[theorem_id]
    for x, expected in ((at - 1.0, "inconclusive"), (at, equality), (at + 1.0, strict)):
        v = check(x, weight)
        assert (v.theorem_id, v.conclusion, v.kappa_admissible) == (theorem_id, expected, True)
        assert (v.condition_value == v.threshold) == (x == at)
    if bound is not None:
        # just past the window's edge the threshold is lower still, so only
        # the window makes the verdict inconclusive
        outside = math.nextafter(float(bound), math.inf)
        assert Fraction(outside) > bound
        v = check(at, outside)
        assert (v.theorem_id, v.conclusion, v.kappa_admissible) == (theorem_id, "inconclusive", False)
        assert v.condition_value > v.threshold


FORMS = ("completeness, finite L^Q norm and, for weighted bounds, the weighted Poincare "
         "inequality with a positive-at-infinity weight on a nonparabolic space are "
         "user-asserted and not verified here")
FLATNESS = FORMS.replace("completeness, ", "completeness, infinite volume, ")
GROUPED = "threshold constant follows the grouped reading (n + 2 - |p - q|) (p + q)"
ORTHOGONAL = "applies to forms orthogonal to the Kahler form power only"


@pytest.mark.parametrize("call,theorem_id,notes", [
    (lambda: check_pq([1.0] * 9, 3, 1, 0), "T3_2", [FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 3, 1), "T3_2",
     ["type remapped to (0, 2) by duality", FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 2, 1, k=1), "T3_2",
     ["stratum constant at k = 1", FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 3, 2, k=2), "T3_2",
     ["type remapped to (0, 1) by duality", "stratum constant at k = 0", FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 1, 1), "T3_4", [ORTHOGONAL, FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 1, 0, kappa=0.1, rho=1.0), "T3_6", [FORMS, GROUPED]),
    (lambda: check_pq([1.0] * 9, 3, 1, 1, kappa=0.1, rho=1.0), "C3_8",
     [ORTHOGONAL, FORMS, GROUPED]),
    (lambda: check_lq_nonneg([1.0] * 9, 3), "C3_3",
     [FORMS, "odd-degree reduced L^2 cohomology vanishes when the check passes"]),
    (lambda: check_bochner([1.0] * 9, 3), "T1_5",
     [FLATNESS, "requires a divergence-free totally trace-free part"]),
    (lambda: check_einstein_flat([1.0] * 9, 3), "T4_1",
     ["complex dimension 3 is below the stated range n >= 4", FLATNESS,
      "input asserted Kahler-Einstein"]),
    (lambda: check_einstein_flat([1.0] * 16, 4), "T4_1",
     [FLATNESS, "input asserted Kahler-Einstein"]),
    (lambda: check_quaternion([1.0] * 13, 2), "T4_4",
     ["k = 0: the scalar-flatness hypothesis is not needed", FLATNESS]),
    (lambda: check_quaternion([1.0] * 13, 2, k=0.1, rho=1.0, scalar_flat=True), "T4_4",
     ["scalar curvature asserted zero by the caller", FLATNESS]),
    (lambda: check_quaternion([1.0] * 13, 2, k=0.1, rho=1.0), "T4_4",
     ["warning: k > 0 requires the scalar-flatness assertion", FLATNESS]),
], ids=["pq", "pq-remapped", "pq-stratum", "pq-remapped-stratum", "pq-equal-types",
        "pq-kappa", "pq-equal-types-kappa", "lq", "bochner", "einstein-n3", "einstein-n4",
        "quaternion-k0", "quaternion-scalar-flat", "quaternion-k-without-scalar-flat"])
def test_each_checker_path_prints_its_exact_notes(call, theorem_id, notes):
    # the checker's own notes first, then its theorem's; the flatness theorems
    # name infinite volume, without which the compact Gr(2,4) would be flat
    v = call()
    assert v.theorem_id == theorem_id
    assert v.notes == "; ".join(notes)


def test_readme_theorem_table_is_the_table():
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([TC]\d_\d)` \| `(\w+)` \| `(\w+)` \| `(\w+)` \| (.+?) \|$", text, re.M)
    assert sorted(theorem_id for theorem_id, *_ in rows) == sorted(criteria.THEOREMS)
    for theorem_id, strict, equality, algebra, hypotheses in rows:
        row_strict, row_equality, row_algebra, notes = criteria.THEOREMS[theorem_id]
        assert (strict, equality, algebra) == (row_strict, row_equality, row_algebra)
        # the global hypotheses open the note that says the user asserts them
        assert [note for note in notes if note.endswith(criteria._ASSERTED)] == \
            [hypotheses + criteria._ASSERTED]
