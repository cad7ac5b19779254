"""Closed-form constants and eigenvalue-condition checkers.

Every vanishing-type statement handled here reduces to the same shape:
the full ascending list of curvature-operator eigenvalues restricted to
the holonomy algebra (its length is checked), a weighted partial sum

    S(C) = mu_1 + ... + mu_floor(C) + (C - floor(C)) mu_{floor(C)+1},

a threshold -kappa rho at the weight value rho of the point under test,
and an admissibility window for kappa (or k) that needs Q >= 2.
Constants are exact rationals, so floors never suffer from
float-boundary errors; spectra are plain floats, summed exactly.

One rule, `_verdict`, concludes: inconclusive outside the window or
below the threshold, else the theorem's strict conclusion above it and
its equality conclusion at it (`THEOREMS`).  A verdict never claims
more than the pointwise arithmetic: the global hypotheses that its
theorem's notes name are user-asserted and are not verified here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "VacuousStratumError",
    "VanishingVerdict",
    "check_stratum",
    "stratum_constant",
    "form_constant",
    "kato_constant",
    "kappa_bound",
    "kappa_bound_harmonic_field",
    "bochner_parity_coefficient",
    "quaternion_parity_coefficient",
    "weighted_partial_sum",
    "serre_remap",
    "serre_stratum",
    "check_pq",
    "check_bochner",
    "check_einstein_flat",
    "check_quaternion",
    "check_lq_nonneg",
]


class VacuousStratumError(ValueError):
    """Raised when p + q - 2k = 0 leaves no reduced content to bound."""


class ConstantValue(NamedTuple):
    value: Fraction
    floor: int

    @property
    def fractional(self):
        return self.value - self.floor

    def __float__(self):
        return float(self.value)


def _require_finite(**values):
    """Raise ValueError naming the first of the keyword values that is an
    infinity or NaN; ints and Fractions are always finite."""
    for name, x in values.items():
        if not isinstance(x, (int, Fraction)) and not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


def _require_dimension(name, x):
    """Raise ValueError unless the dimension x (n or m) is an integer of at least 1."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {x}")


def _check_type(n, p, q):
    """Raise ValueError unless 0 <= p, q <= n."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"(p, q) = ({p}, {q}) out of range for n = {n}")


def _require_spectrum(spectrum, theorem_id, size):
    """The `_SPECTRA` row of the algebra `theorem_id` reads, once `size` is its
    dimension (n or m) and the spectrum holds all dim u(n) = n^2, or
    dim sp(m)+sp(1) = m(2m+1)+3, eigenvalues: a missing one could be the smallest."""
    algebra = _SPECTRA[THEOREMS[theorem_id][2]]
    name, rule, length = algebra[:3]
    _require_dimension(name, size)
    if len(spectrum) != length(size):
        raise ValueError(f"spectrum length {len(spectrum)} differs from {rule} = {length(size)}")
    return algebra


def _weight_window(Q, c=1):
    """Q and c as Fractions, once Q >= 2 and c > 0: the inputs of every weight bound."""
    Q, c = Fraction(Q), Fraction(c)
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    return Q, c


def check_stratum(p, q, k):
    """Raise ValueError unless 0 <= k <= min(p, q), the stratum indices of type (p, q)."""
    if not 0 <= k <= min(p, q):
        raise ValueError(f"stratum k = {k} out of range for type ({p}, {q}); "
                         "need 0 <= k <= min(p, q)")


def stratum_constant(n, p, q, k=0):
    """C(n, p, q, k) = n + 1 - (p + q) + 2 (p q - k^2) / (p + q - 2k).

    The eigenvalue count governing forms of stratum k; requires
    p + q - 2k != 0 and 0 <= k <= min(p, q).  Inputs with p + q > n
    should be remapped by Serre duality first.
    """
    check_stratum(p, q, k)
    if p + q - 2 * k == 0:
        raise VacuousStratumError(f"vacuous stratum: p + q - 2k = 0 at (p, q, k) = ({p}, {q}, {k})")
    value = Fraction(n + 1 - (p + q)) + Fraction(2 * (p * q - k * k), p + q - 2 * k)
    return ConstantValue(value, math.floor(value))


def form_constant(n, p, q):
    """C(n, p, q) = n + 1 - (p^2 + q^2) / (p + q); the k = 0 stratum constant."""
    if p + q < 1:
        raise ValueError("form constant needs p + q >= 1")
    return stratum_constant(n, p, q, 0)


def kato_constant(n, p, q):
    """Refined Kato constant D(n, p, q) for harmonic fields of type (p, q).

    1/2 when p = n or q = n, otherwise the square of
    min over the two slots of max{(2s+1)/(2s+2), (2n-2s+1)/(2n-2s+2)}.
    """
    _check_type(n, p, q)
    if p == n or q == n:
        return Fraction(1, 2)

    def slot(s):
        return max(Fraction(2 * s + 1, 2 * s + 2), Fraction(2 * n - 2 * s + 1, 2 * n - 2 * s + 2))

    return min(slot(p), slot(q)) ** 2


def kappa_bound(Q, c, a=0):
    """Admissible upper bound 4 (Q - 1 + a) / (c Q^2) for the weight constant.

    `a` is the gain of a refined Kato inequality |nabla T|^2 >=
    (1 + a) |nabla |T||^2; a = 0 is the unrefined bound.
    """
    _require_finite(Q=Q, c=c, a=a)
    Q, c = _weight_window(Q, c)
    a = Fraction(a)
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    return 4 * (Q - 1 + a) / (c * Q * Q)


def kappa_bound_harmonic_field(n, p, q, Q, c=1):
    """Type-specific bound 4 (Q + 1/D - 3) / (c Q^2) built from the Kato constant.

    This is the printed harmonic-field form 4 (Q - 1 + a) / (c Q^2) with a = 1/D - 2 <= 0
    (D >= 1/2); a < 0 lies outside kappa_bound's domain, and the bound is never wider
    than the unrefined kappa_bound(Q, c) (ROADMAP item 11).  At Q = 2, c = 1 it is 1/D - 1.
    """
    _require_finite(Q=Q, c=c)
    D = kato_constant(n, p, q)
    Q, c = _weight_window(Q, c)
    return 4 * (Q + 1 / D - 3) / (c * Q * Q)


def bochner_parity_coefficient(n):
    """(1 + (-1)^n) / 4: zero for odd n, one half for even n."""
    return Fraction(1 + (-1) ** n, 4)


def quaternion_parity_coefficient(m):
    """(5 + 3 (-1)^m) / 12: 1/6 for odd m, 2/3 for even m."""
    return Fraction(5 + 3 * (-1) ** m, 12)


def weighted_partial_sum(spectrum, count, weight=Fraction(0)):
    """mu_1 + ... + mu_count + weight * mu_{count+1} on an ascending list,
    summed exactly in rationals and rounded once.  The weighted term is only
    accessed when its weight is nonzero, so a spectrum of length exactly
    `count` is admissible for integer counts.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    spectrum = list(spectrum)
    if any(spectrum[i] > spectrum[i + 1] + 1e-12 for i in range(len(spectrum) - 1)):
        raise ValueError("spectrum must be ascending")
    # the check leaves 1e-12 of slack: the sum takes the smallest values
    spectrum.sort()
    need = count + (weight != 0)
    if need > len(spectrum):
        raise ValueError(f"spectrum too short: need {need} eigenvalues, got {len(spectrum)}")
    total = sum(map(Fraction, spectrum[:count]), Fraction(0))
    if weight != 0:
        total += Fraction(weight) * Fraction(spectrum[count])
    try:
        return float(total)
    except OverflowError:
        raise ValueError("the weighted partial sum of the spectrum overflows a float") from None


def serre_remap(n, p, q):
    """Replace (p, q) by (n - p, n - q) when p + q exceeds n."""
    if p + q > n:
        return n - p, n - q, True
    return p, q, False


def serre_stratum(n, p, q, k):
    """Stratum index of the Serre dual of a (p, q)-form of stratum k.

    Duality preserves the primitive content (p - k, q - k), so k shifts
    by p + q - n along with the type; a negative result is an empty
    stratum and raises ValueError, as does k outside 0 <= k <= min(p, q).
    """
    check_stratum(p, q, k)
    if p + q <= n:
        return k
    if k < p + q - n:
        raise ValueError(f"stratum k = {k} is empty for type ({p}, {q}) at n = {n}")
    return k - (p + q - n)


# Per algebra: the dimension its spectrum is counted in, its length rule, and
# the parity coefficient and weight window k < (Q - 1) / Q^power of the
# parity-sum theorems that read it.
_SPECTRA = {
    "u": ("n", "n^2", lambda n: n * n, bochner_parity_coefficient, 2),
    "sp": ("m", "m(2m+1)+3", lambda m: m * (2 * m + 1) + 3, quaternion_parity_coefficient, 1),
}


# The global hypotheses the user asserts are the first words of a note that
# ends in _ASSERTED.  A parallel tensor of finite L^Q norm vanishes only where
# the volume is infinite, so the flatness theorems assert it: the compact
# Gr(2,4) meets the T1_5 and T4_1 conditions with equality.
_ASSERTED = (" and, for weighted bounds, the weighted Poincare inequality with a "
             "positive-at-infinity weight on a nonparabolic space are user-asserted and not "
             "verified here")
_FORMS = "completeness, finite L^Q norm" + _ASSERTED
_FLATNESS = "completeness, infinite volume, finite L^Q norm" + _ASSERTED
_GROUPED = "threshold constant follows the grouped reading (n + 2 - |p - q|) (p + q)"
_ORTHOGONAL = "applies to forms orthogonal to the Kahler form power only"

# The one table of theorems, id -> (strict conclusion, equality conclusion,
# algebra whose spectrum it reads, fixed notes): a condition above its
# threshold concludes the first, one at it the second, and every verdict's
# notes end with the fixed ones.
THEOREMS = {
    "T3_2": ("vanishing", "parallel", "u", (_FORMS, _GROUPED)),
    "T3_4": ("vanishing", "parallel", "u", (_ORTHOGONAL, _FORMS, _GROUPED)),
    "C3_3": ("vanishing", "parallel", "u",
             (_FORMS, "odd-degree reduced L^2 cohomology vanishes when the check passes")),
    "T3_6": ("vanishing", "vanishing", "u", (_FORMS, _GROUPED)),
    "C3_8": ("vanishing", "vanishing", "u", (_ORTHOGONAL, _FORMS, _GROUPED)),
    "T1_5": ("bochner_flat", "bochner_flat", "u",
             (_FLATNESS, "requires a divergence-free totally trace-free part")),
    "T4_1": ("flat", "flat", "u", (_FLATNESS, "input asserted Kahler-Einstein")),
    "T4_4": ("flat", "flat", "sp", (_FLATNESS,)),
}


@dataclass
class VanishingVerdict:
    """Structured outcome of a single eigenvalue-condition check."""

    theorem_id: str
    condition_value: float
    threshold: float
    kappa_admissible: bool
    conclusion: str
    notes: str = ""
    arithmetic: dict = field(default_factory=dict)

    def passed(self):
        return self.conclusion != "inconclusive"

    def to_json(self):
        return {
            "theorem_id": self.theorem_id,
            "condition_value": self.condition_value,
            "threshold": self.threshold,
            "kappa_admissible": self.kappa_admissible,
            "conclusion": self.conclusion,
            "notes": self.notes,
            "arithmetic": {k: str(v) for k, v in self.arithmetic.items()},
        }


def _verdict(theorem_id, value, threshold, admissible, notes, arithmetic):
    """The one verdict rule: inconclusive outside the weight window or below the
    threshold, else the strict or the equality conclusion of `theorem_id`.
    The notes are the checker's own, then the theorem's fixed ones."""
    strict, equality, _, fixed = THEOREMS[theorem_id]
    if admissible and value >= threshold:
        conclusion = strict if value > threshold else equality
    else:
        conclusion = "inconclusive"
    return VanishingVerdict(theorem_id, value, threshold, bool(admissible), conclusion,
                            "; ".join([*notes, *fixed]), arithmetic)


def check_pq(spectrum, n, p, q, kappa=0.0, rho=0.0, Q=2, k=None):
    """Eigenvalue condition for harmonic (p, q)-forms on the n^2 eigenvalues of u(n).

    With kappa = 0: weighted sum S >= 0 concludes parallel, S > 0
    concludes vanishing given the finite-L^Q assertion.  With kappa > 0:
    S / (C + 1) >= -kappa rho together with kappa below the
    harmonic-field bound concludes vanishing.  A declared stratum index
    k switches the constant to the stratum variant.  Types with p = q
    only apply to forms orthogonal to the Kahler form power, which the
    notes record.  A type outside 0 <= p, q <= n, p + q >= 1 raises
    ValueError.
    """
    theorem_id = ("T3_4" if p == q else "T3_2") if kappa == 0 else ("C3_8" if p == q else "T3_6")
    _require_spectrum(spectrum, theorem_id, n)
    if not (0 <= p <= n and 0 <= q <= n) or p + q < 1:
        raise ValueError(f"form type ({p}, {q}) out of range for n = {n}")
    _require_finite(kappa=kappa, rho=rho, Q=Q)
    notes = []
    if k is not None:
        k = serre_stratum(n, p, q, k)
    p, q, remapped = serre_remap(n, p, q)
    if remapped:
        notes.append(f"type remapped to ({p}, {q}) by duality")
    if k is None:
        C = form_constant(n, p, q)
    else:
        C = stratum_constant(n, p, q, k)
        notes.append(f"stratum constant at k = {k}")
    S = weighted_partial_sum(spectrum, C.floor, C.fractional)
    arithmetic = {"C": C.value, "floor": C.floor, "fractional": C.fractional,
                  "S": S, "kappa": kappa, "rho": rho, "Q": Q}
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    cond, admissible = S, True
    if kappa != 0:
        bound = kappa_bound_harmonic_field(n, p, q, Q)
        arithmetic["kappa_bound"] = bound
        cond = S / (float(C.value) + 1.0)
        arithmetic["S_normalized"] = cond
        admissible = Fraction(kappa) < bound
    return _verdict(theorem_id, cond, -(kappa * rho) or 0.0, admissible, notes, arithmetic)


def _parity_sum_check(spectrum, size, k, rho, Q, theorem_id, notes=()):
    """S = mu_1 + ... + mu_floor((size+1)/2) + parity * mu_{floor+1} against -k rho,
    with the parity coefficient and weight window of the algebra `theorem_id`
    reads: u(n), Kahler coefficient and k < (Q - 1) / Q^2; sp(m)+sp(1),
    quaternionic coefficient and k < (Q - 1) / Q.
    """
    *_, parity, power = _require_spectrum(spectrum, theorem_id, size)
    _require_finite(k=k, rho=rho, Q=Q)
    Qf, _ = _weight_window(Q)
    if k < 0:
        raise ValueError("k must be nonnegative")
    parity_coeff, bound = parity(size), (Qf - 1) / Qf**power
    count = (size + 1) // 2
    S = weighted_partial_sum(spectrum, count, parity_coeff)
    arithmetic = {"count": count, "parity_coefficient": parity_coeff, "S": S,
                  "k": k, "rho": rho, "Q": Q, "k_bound": bound}
    return _verdict(theorem_id, S, -(float(k) * float(rho)) or 0.0, Fraction(k) < bound, notes,
                    arithmetic)


def check_bochner(spectrum, n, k=0.0, rho=0.0, Q=2):
    """Totally trace-free part vanishing criterion on a Kahler operator spectrum.

    S = mu_1 + ... + mu_floor((n+1)/2) + (1 + (-1)^n)/4 mu_{floor+1}
    against -k rho, with admissibility k < (Q - 1) / Q^2.
    """
    return _parity_sum_check(spectrum, n, k, rho, Q, "T1_5")


def check_einstein_flat(spectrum, n, k=0.0, rho=0.0, Q=2):
    """Same condition shape as the trace-free check, for Einstein Kahler input;
    a passing verdict concludes flat.  Warns below complex dimension four."""
    notes = [f"complex dimension {n} is below the stated range n >= 4"] if n < 4 else []
    return _parity_sum_check(spectrum, n, k, rho, Q, "T4_1", notes)


def check_quaternion(spectrum, m, k=0.0, rho=0.0, Q=2, scalar_flat=False):
    """Quaternionic flatness criterion on an sp(m)+sp(1) spectrum.

    S = mu_1 + ... + mu_floor((m+1)/2) + (5 + 3(-1)^m)/12 mu_{floor+1}
    against -k rho, with admissibility k < (Q - 1) / Q.  For k = 0 the
    scalar-flatness assertion is not needed and the notes say so.
    """
    if k == 0:
        note = "k = 0: the scalar-flatness hypothesis is not needed"
    elif scalar_flat:
        note = "scalar curvature asserted zero by the caller"
    else:
        note = "warning: k > 0 requires the scalar-flatness assertion"
    return _parity_sum_check(spectrum, m, k, rho, Q, "T4_4", [note])


def check_lq_nonneg(spectrum, n):
    """Partial-sum nonnegativity on n^2 eigenvalues: mu_1 + ... + mu_ceil(n/2) >= 0.

    A passing verdict concludes parallel (vanishing under the finite
    L^Q assertion); the reduced-cohomology consequence is trivial in odd
    degrees, which the notes record.
    """
    _require_spectrum(spectrum, "C3_3", n)
    count = math.ceil(n / 2)
    S = weighted_partial_sum(spectrum, count)
    return _verdict("C3_3", S, 0.0, True, [], {"count": count, "S": S})
